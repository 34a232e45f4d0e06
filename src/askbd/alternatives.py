"""Alternative-solution generation.

Compose a record's step-wise arithmetic into one solving expression by
back-substitution, permute it with value-preserving rewrites, and explain
the permuted expression back into templated steps (one step per bracket
pair). Every stage re-applies the execution filter: anything that stops
evaluating to the gold answer is discarded.
"""

from __future__ import annotations

from dataclasses import replace

from .exprs import (
    MAX_DEPTH,
    Bin,
    Expr,
    Lit,
    Rational,
    apply_op,
    depth,
    enumerate_permutations,
    eval_expr,
    format_value,
    parse_expr,
    to_text,
)
from .records import (
    ORIGIN_ALTERNATIVE,
    SolutionRecord,
    SolutionStep,
    condition_values,
    make_record,
)

# every candidate is explained by template; records keep the `route` key
ROUTE_TEMPLATED = "templated"


class CompositionError(ValueError):
    pass


class UnresolvableOperand(CompositionError):
    def __init__(self, record_id: str, step_index: int, operand: Rational):
        super().__init__(
            f"record {record_id}: step {step_index} operand {format_value(operand)} "
            "matches no condition value and no prior result"
        )
        self.record_id = record_id
        self.step_index = step_index
        self.operand = operand


class VerificationFailed(CompositionError):
    def __init__(self, record_id: str, got: Rational, expected: Rational):
        super().__init__(
            f"record {record_id}: composed expression evaluates to "
            f"{format_value(got)}, expected {format_value(expected)}"
        )
        self.record_id = record_id


class NoPermutationsAvailable(RuntimeError):
    pass


def _as_grouped(e: Expr) -> Expr:
    if isinstance(e, Bin):
        return replace(e, grouped=True)
    return e


def compose_solving_expression(record: SolutionRecord) -> Expr:
    """Back-substitute each step's expression into its consumers.

    Operands equal to a prior step's stated result are replaced by that
    step's composed expression (most recent prior step wins); remaining
    operands must match a question condition value. The composed value is
    verified against the gold answer: what this returns evaluates to it,
    and anything else raises a CompositionError.
    """
    conditions = set(condition_values(record.question))
    composed: dict[int, Expr] = {}
    prior: list[tuple[int, Rational]] = []
    last_index: int | None = None

    def substitute(node: Expr, step_index: int) -> Expr:
        if isinstance(node, Lit):
            for index, value in reversed(prior):
                if value == node.value:
                    return _as_grouped(composed[index])
            if node.value in conditions:
                return node
            raise UnresolvableOperand(record.record_id, step_index, node.value)
        return Bin(
            node.op,
            substitute(node.left, step_index),
            substitute(node.right, step_index),
            node.grouped,
        )

    for step in record.steps:
        if step.expression is None:
            continue
        tree = substitute(parse_expr(step.expression), step.index)
        composed[step.index] = tree
        prior.append((step.index, step.stated_result))
        last_index = step.index

    if last_index is None:
        raise CompositionError(f"record {record.record_id}: no expression-bearing steps")
    root = composed[last_index]
    if depth(root) > MAX_DEPTH:
        raise CompositionError(f"record {record.record_id}: composed tree too deep")
    value = eval_expr(root)
    if value != record.answer:
        raise VerificationFailed(record.record_id, value, record.answer)
    return root


def permute_solving_expression(
    expr: Expr, max_rewrites: int, limit: int, seed: int
) -> list[Expr]:
    """Up to `limit` equivalent rewrites of a solving expression, each at
    most `max_rewrites` rule applications away (see `enumerate_permutations`).

    The rewrite enumerator applies the execution filter, so every
    rewrite evaluates to the gold answer.
    """
    return enumerate_permutations(expr, max_rewrites=max_rewrites, limit=limit, seed=seed)


def explain_expression(e: Expr) -> list[SolutionStep]:
    """Templated solution steps for a bracketed expression: one
    `Compute a op b = c.` step per binary node in evaluation order, or one
    `The answer is n.` step for a bare literal."""
    if isinstance(e, Lit):
        text = format_value(e.value)
        return [SolutionStep(index=1, statement=f"The answer is {text}.",
                             expression=text, stated_result=e.value)]
    steps: list[SolutionStep] = []

    def walk(node: Expr) -> Rational:
        if isinstance(node, Lit):
            return node.value
        lv = walk(node.left)
        rv = walk(node.right)
        value = apply_op(node.op, lv, rv)
        calculation = f"{format_value(lv)} {node.op} {format_value(rv)}"
        steps.append(
            SolutionStep(
                index=len(steps) + 1,
                statement=f"Compute {calculation} = {format_value(value)}.",
                expression=calculation,
                stated_result=value,
            )
        )
        return value

    walk(e)
    return steps


def generate_alternatives(
    record: SolutionRecord, k: int = 3, seed: int = 0, max_rewrites: int = 3
) -> list[SolutionRecord]:
    """Up to `k` verified D′ records, ranked from 1 and distinct by
    canonical form; each one's lineage names its source and the `seed`
    that reproduces it. A record with an error label is no source: its D′
    would pair with a wrong solution."""
    if record.label.is_error:
        raise CompositionError(f"record {record.record_id} carries an error label")
    if k == 0:
        return []
    permuted = permute_solving_expression(
        compose_solving_expression(record), max_rewrites, k, seed
    )
    if not permuted:
        raise NoPermutationsAvailable(f"record {record.record_id}: no rewrite applies")
    return [
        make_record(
            question=record.question,
            steps=explain_expression(expr),
            answer=record.answer,
            origin=ORIGIN_ALTERNATIVE,
            lineage={"source_id": record.record_id, "seed": seed},
            candidate_rank=rank,
            permuted_expression=to_text(expr, "step_brackets"),
            route=ROUTE_TEMPLATED,
        )
        for rank, expr in enumerate(permuted, start=1)
    ]
