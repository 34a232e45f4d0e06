"""Alternative-solution generation.

Compose a record's step-wise arithmetic into one solving expression by
back-substitution, permute it with value-preserving rewrites, and explain
the permuted expression back into steps (one step per bracket pair).
Every stage re-applies the execution filter: anything that stops
evaluating to the gold answer is discarded.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from fractions import Fraction

from . import backends
from .exprs import (
    MAX_DEPTH,
    Bin,
    Expr,
    Lit,
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
    parse_structured_solution,
)

log = logging.getLogger(__name__)

ROUTE_TEMPLATED = "templated"
ROUTE_BACKEND = "backend"


class CompositionError(ValueError):
    pass


class UnresolvableOperand(CompositionError):
    def __init__(self, record_id: str, step_index: int, operand: Fraction):
        super().__init__(
            f"record {record_id}: step {step_index} operand {format_value(operand)} "
            "matches no condition value and no prior result"
        )
        self.record_id = record_id
        self.step_index = step_index
        self.operand = operand


class VerificationFailed(CompositionError):
    def __init__(self, record_id: str, got: Fraction, expected: Fraction):
        super().__init__(
            f"record {record_id}: composed expression evaluates to "
            f"{format_value(got)}, expected {format_value(expected)}"
        )
        self.record_id = record_id


class NoPermutationsAvailable(RuntimeError):
    pass


class BackendExplainInvalid(RuntimeError):
    """Backend-explained steps failed the re-composition check."""


@dataclass(frozen=True)
class AlternativeCandidate:
    expr: Expr
    steps: tuple[SolutionStep, ...]
    route: str


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
    prior: list[tuple[int, Fraction]] = []
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


_EXPLAIN_INSTRUCTION = """\
Rewrite the bracketed <expression> below as a step-by-step solution to the \
<question>. Interpret each pair of brackets as one distinct step, working \
from the innermost brackets outward. Respond with one line per step, \
formatted as "Step X. <one sentence explaining the step, ending with its \
calculation in the form a + b = c>". The final step must arrive at {answer}.

<question> {question} <expression> {expression}

Now, please start to respond."""


def _bracket_steps(e: Expr) -> list[tuple[str, Fraction, Fraction, Fraction]]:
    """One (op, left value, right value, result) per binary node, in
    evaluation order."""
    steps: list[tuple[str, Fraction, Fraction, Fraction]] = []

    def walk(node: Expr) -> Fraction:
        if isinstance(node, Lit):
            return node.value
        lv = walk(node.left)
        rv = walk(node.right)
        value = eval_expr(Bin(node.op, Lit(lv), Lit(rv)))
        steps.append((node.op, lv, rv, value))
        return value

    walk(e)
    return steps


def explain_expression(
    question: str,
    e: Expr,
    route: str = ROUTE_TEMPLATED,
    profile: backends.BackendProfile | None = None,
    backend=None,
    params: backends.GenerationParams = backends.GenerationParams(temperature=0.7),
) -> list[SolutionStep]:
    """Turn a bracketed expression into solution steps.

    The templated route is deterministic text; the backend route asks a
    generation profile and validates the output by re-parsing the steps
    and re-composing them to the expression's value.
    """
    if route == ROUTE_TEMPLATED:
        rows = _bracket_steps(e)
        if not rows:
            value = eval_expr(e)
            return [
                SolutionStep(
                    index=1,
                    statement=f"The answer is {format_value(value)}.",
                    expression=format_value(value),
                    stated_result=value,
                )
            ]
        steps = []
        for position, (op, lv, rv, value) in enumerate(rows, start=1):
            calculation = f"{format_value(lv)} {op} {format_value(rv)}"
            steps.append(
                SolutionStep(
                    index=position,
                    statement=f"Compute {calculation} = {format_value(value)}.",
                    expression=calculation,
                    stated_result=value,
                )
            )
        return steps

    if route != ROUTE_BACKEND:
        raise ValueError(f"unknown explain route {route!r}")
    if profile is None or backend is None:
        raise ValueError("backend route needs a generation profile and its opened backend")
    prompt = _EXPLAIN_INSTRUCTION.format(
        question=question,
        expression=to_text(e, "step_brackets"),
        answer=format_value(eval_expr(e)),
    )
    response = backends.generate(
        profile, [{"role": "user", "content": prompt}], params, backend=backend
    )
    try:
        steps = parse_structured_solution(response)
        candidate = make_record(
            question=question,
            steps=steps,
            answer=eval_expr(e),
            origin=ORIGIN_ALTERNATIVE,
        )
        compose_solving_expression(candidate)
    except (ValueError, CompositionError) as err:
        raise BackendExplainInvalid(f"backend explanation rejected: {err}") from err
    return steps


def generate_alternatives(
    record: SolutionRecord,
    k: int = 3,
    seed: int = 0,
    max_rewrites: int = 3,
    route: str = ROUTE_TEMPLATED,
    profile: backends.BackendProfile | None = None,
    backend=None,
) -> list[AlternativeCandidate]:
    """Up to `k` verified candidates, distinct by canonical form."""
    if k == 0:
        return []
    permuted = permute_solving_expression(
        compose_solving_expression(record), max_rewrites, max(2 * k, k + 4), seed
    )
    candidates: list[AlternativeCandidate] = []
    for expr in permuted:
        if len(candidates) >= k:
            break
        try:
            steps = explain_expression(
                record.question, expr, route=route, profile=profile, backend=backend
            )
        except BackendExplainInvalid as err:
            log.info("dropping candidate for %s: %s", record.record_id, err)
            continue
        candidates.append(AlternativeCandidate(expr=expr, steps=tuple(steps), route=route))
    if not candidates:
        raise NoPermutationsAvailable(f"record {record.record_id}: no rewrite applies")
    return candidates


def candidate_to_record(
    candidate: AlternativeCandidate,
    source: SolutionRecord,
    rank: int,
    seed: int = 0,
) -> SolutionRecord:
    return make_record(
        question=source.question,
        steps=candidate.steps,
        answer=source.answer,
        origin=ORIGIN_ALTERNATIVE,
        lineage={"source_id": source.record_id, "seed": seed},
        candidate_rank=rank,
        permuted_expression=to_text(candidate.expr, "step_brackets"),
        route=candidate.route,
    )
