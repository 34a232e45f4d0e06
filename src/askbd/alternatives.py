"""Alternative-solution generation.

Compose a record's step-wise arithmetic into one solving expression by
back-substitution, permute it with value-preserving rewrites, and explain
the permuted expression back into templated steps (one step per bracket
pair). Every stage re-applies the execution filter: anything that stops
evaluating to the gold answer is discarded.
"""

from __future__ import annotations

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


def compose_solving_expression(record: SolutionRecord) -> Expr:
    """Back-substitute each step's expression into its consumers.

    One dict maps each value an operand may take to what replaces it: a
    question condition value to its literal, then each step's stated
    result to the step's composed expression. A later step
    overwrites an earlier entry, so a prior step's result wins over a
    condition value and the most recent prior step wins. An operand with
    no entry is unresolvable. The composed value is verified against the
    gold answer: what this returns evaluates to it, and anything else
    raises a CompositionError.
    """
    resolved: dict[Rational, Expr] = {v: Lit(v) for v in condition_values(record.question)}
    root: Expr | None = None
    for step in record.steps:
        if step.expression is not None:
            root = _substitute(parse_expr(step.expression), resolved, record.record_id, step.index)
            resolved[step.stated_result] = root
    if root is None:
        raise CompositionError(f"record {record.record_id}: no expression-bearing steps")
    if depth(root) > MAX_DEPTH:
        raise CompositionError(f"record {record.record_id}: composed tree too deep")
    value = eval_expr(root)
    if value != record.answer:
        raise VerificationFailed(record.record_id, value, record.answer)
    return root


def _substitute(node: Expr, resolved: dict[Rational, Expr], record_id: str,
                step_index: int) -> Expr:
    """`node` with each literal replaced by `resolved`'s expression for its
    value; a literal with none raises UnresolvableOperand."""
    if isinstance(node, Lit):
        if node.value not in resolved:
            raise UnresolvableOperand(record_id, step_index, node.value)
        return resolved[node.value]
    return Bin(node.op, _substitute(node.left, resolved, record_id, step_index),
               _substitute(node.right, resolved, record_id, step_index))


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
    _explain(e, steps)
    return steps


def _explain(node: Expr, steps: list[SolutionStep]) -> Rational:
    """The value of `node`, appending one step to `steps` for each binary
    node under it, in evaluation order."""
    if isinstance(node, Lit):
        return node.value
    lv = _explain(node.left, steps)
    rv = _explain(node.right, steps)
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
