"""Seeded injection of one labeled error into a correct solution.

`inject(record, category, seed)` is the one entry point: it draws the
category's rng, applies one of four edits and returns the labeled
record. The four categories are a wrong calculated result (operands
untouched), a wrong operand reference (result recomputed correctly), a
deleted supporting step (consumer keeps the dangling operand), and a
fabricated final step. Later steps are never propagated into; the
injected record differs from its source only in the region implied by
the category.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import replace
from typing import Iterator

from .exprs import (
    DivisionByZero,
    Expr,
    Rational,
    eval_with_literal,
    format_value,
    last_equation,
    number_tokens,
    parse_expr,
)
from .records import (
    CATEGORY_CALCULATION,
    CATEGORY_HALLUCINATION,
    CATEGORY_MISSING,
    CATEGORY_REFERENCE,
    ErrorLabel,
    SolutionRecord,
    SolutionStep,
    condition_values,
    make_record,
)

# How far a wrong result or a wrong operand lies from the true one: a guess
# at plausible drift (55 -> 50). Zero is left out, since it is no error.
OFFSETS = (-5, -4, -3, -2, -1, 1, 2, 3, 4, 5)


class InjectionError(ValueError):
    pass


class NoExpressionStep(InjectionError):
    pass


class NoReferencingOperand(InjectionError):
    pass


class NoDeletableStep(InjectionError):
    pass


class ErroneousSource(InjectionError):
    """The source already carries an error label, whatever the category."""


def _swap_equation(statement: str, new_lhs: str | None, new_rhs: str) -> str:
    """Rewrite the trailing `lhs = rhs` calculation inside a statement."""
    match = last_equation(statement)
    if match is None:
        return statement
    lhs = new_lhs if new_lhs is not None else match.group(1)
    return (
        statement[: match.start(1)]
        + lhs
        + statement[match.end(1): match.start(2)]
        + new_rhs
        + statement[match.end(2):]
    )


def _swap_mentions_outside_equation(statement: str, old: Rational, new: Rational) -> str:
    """Replace each number mention of value `old` outside the trailing
    equation, matching numbers by the rule `number_tokens` applies."""
    match = last_equation(statement)
    equation = (match.start(), match.end()) if match else (len(statement), len(statement))
    pieces, done = [], 0
    for start, end, value in number_tokens(statement):
        if value == old and (end <= equation[0] or start >= equation[1]):
            pieces += [statement[done:start], format_value(new)]
            done = end
    return "".join(pieces) + statement[done:]


def _calculation(record: SolutionRecord, rng: random.Random) -> tuple[list[SolutionStep], int]:
    """Replace one step's calculated result with a wrong positive value."""
    eligible = [
        s for s in record.steps
        if s.expression is not None and s.stated_result + max(OFFSETS) > 0
    ]
    if not eligible:
        raise NoExpressionStep(
            f"record {record.record_id} has no expression step whose result an offset "
            "keeps positive"
        )
    step = eligible[rng.randrange(len(eligible))]
    true_value = step.stated_result
    valid = [o for o in OFFSETS if true_value + o > 0]
    wrong = true_value + valid[rng.randrange(len(valid))]
    new_step = replace(
        step,
        statement=_swap_equation(step.statement, None, format_value(wrong)),
        stated_result=wrong,
    )
    return [new_step if s.index == step.index else s for s in record.steps], step.index


def _usable_swaps(
    tree: Expr, k: int, value: Rational, resolvable: set[Rational]
) -> Iterator[tuple[Rational, Rational]]:
    """Each usable (wrong operand, recomputed result) for the `k`-th literal
    of `tree`, whose value is `value`, in OFFSETS order."""
    for offset in OFFSETS:
        new_value = value + offset
        if new_value <= 0 or new_value in resolvable:
            continue
        try:
            result = eval_with_literal(tree, k, new_value)
        except DivisionByZero:
            continue
        if result > 0 and result.denominator == 1:
            yield new_value, result


def _reference(record: SolutionRecord, rng: random.Random) -> tuple[list[SolutionStep], int]:
    """Point one operand at a wrong value and recompute the step correctly.

    The replacement value stays outside the condition/prior-result pool so
    the wrong reference cannot accidentally resolve, and the recomputed
    result must be a positive integer.

    The draw is a uniform eligible step, then a uniform eligible operand of
    it, then a uniform usable offset for that operand. An offset is usable
    when the swap meets the two rules above, an operand is eligible when it
    resolves and has a usable offset, and a step when it has an eligible
    operand. An operand resolves when the question states its value or an
    earlier calculation its result. Eligibility stops at the first usable
    offset found; only the drawn step's operands and the drawn operand's
    offsets are all priced.
    """
    resolvable = set(condition_values(record.question))
    # (step, tree, its resolvable set, its resolvable operands from the first
    # eligible one); an operand is (start, end, value, k), since the k-th
    # number token of a valid expression is its k-th literal
    choices = []
    for step in record.steps:
        if step.expression is None:
            continue
        tree = parse_expr(step.expression)
        operands = [
            (start, end, value, k)
            for k, (start, end, value) in enumerate(number_tokens(step.expression))
            if value in resolvable
        ]
        for i, (_, _, value, k) in enumerate(operands):
            if any(_usable_swaps(tree, k, value, resolvable)):
                choices.append((step, tree, resolvable, operands[i:]))
                break
        resolvable = resolvable | {step.stated_result}
    if not choices:
        raise NoReferencingOperand(f"record {record.record_id} has no usable operand")

    step, tree, resolvable, operands = choices[rng.randrange(len(choices))]
    spots = operands[:1] + [
        (start, end, value, k) for start, end, value, k in operands[1:]
        if any(_usable_swaps(tree, k, value, resolvable))
    ]
    start, end, old_value, k = spots[rng.randrange(len(spots))]
    usable = list(_usable_swaps(tree, k, old_value, resolvable))
    new_value, new_result = usable[rng.randrange(len(usable))]

    new_expression = step.expression[:start] + format_value(new_value) + step.expression[end:]
    statement = _swap_equation(step.statement, new_expression, format_value(new_result))
    statement = _swap_mentions_outside_equation(statement, old_value, new_value)
    new_step = replace(
        step, statement=statement, expression=new_expression, stated_result=new_result
    )
    return [new_step if s.index == step.index else s for s in record.steps], step.index


def _missing(record: SolutionRecord, rng: random.Random) -> tuple[list[SolutionStep], int]:
    """Delete a supporting step; its consumer keeps the dangling operand.

    A step is deletable when a later step consumes its result and, at the
    first consumer, that result resolves neither from the question's values
    nor from another earlier step's result; otherwise the consumer still
    reads as correct and the label would be unsound.
    """
    if len(record.steps) < 2:
        raise NoDeletableStep(f"record {record.record_id} has a single step")

    conditions = set(condition_values(record.question))
    stated = Counter()  # result -> how many calculations so far state it
    unconsumed: dict[Rational, list[SolutionStep]] = {}  # result -> its calculations
    consumed = False
    deletable: list[tuple[SolutionStep, int]] = []  # (step, index of first consumer)
    for step in record.steps:
        if step.expression is None:
            continue
        for value in {v for _, _, v in number_tokens(step.expression)}:
            for source in unconsumed.pop(value, ()):
                consumed = True
                if value not in conditions and stated[value] == 1:
                    deletable.append((source, step.index))
        stated[step.stated_result] += 1
        unconsumed.setdefault(step.stated_result, []).append(step)
    if not deletable:
        if consumed:
            raise NoDeletableStep(
                f"record {record.record_id}: every consumed result also resolves "
                "from the question or another earlier step"
            )
        raise NoDeletableStep(f"record {record.record_id}: no result is consumed later")

    deletable.sort(key=lambda d: d[0].index)  # found in consumer order, drawn in step order
    step, consumer = deletable[rng.randrange(len(deletable))]
    kept = [s for s in record.steps if s.index != step.index]
    renumbered = [replace(s, index=i) for i, s in enumerate(kept, start=1)]
    # the consumer sits after the deleted step, so it shifts down by one
    return renumbered, consumer - 1


def _hallucination(record: SolutionRecord, rng: random.Random) -> tuple[list[SolutionStep], int]:
    """Append a fabricated final step combining a fresh operand with the
    previous final value, computed correctly."""
    last = record.last_expression_step()
    previous = last.stated_result if last is not None else record.answer
    forbidden = set(condition_values(record.question))
    forbidden |= {s.stated_result for s in record.steps if s.stated_result is not None}
    forbidden.add(record.answer)
    pool: list[int] = []
    bound = 13
    while not pool:
        pool = [n for n in range(2, bound) if n not in forbidden]
        bound += 10
    operand = pool[rng.randrange(len(pool))]
    result = previous + operand
    calculation = f"{format_value(previous)} + {format_value(operand)}"
    statement = (
        f"Finally, an additional {format_value(operand)} is accounted for, "
        f"bringing the total to {calculation} = {format_value(result)}."
    )
    appended = SolutionStep(
        index=len(record.steps) + 1,
        statement=statement,
        expression=calculation,
        stated_result=result,
    )
    return list(record.steps) + [appended], appended.index


# each edit returns the injected steps and the index of the step the label names
_INJECTORS = {
    CATEGORY_CALCULATION: _calculation,
    CATEGORY_REFERENCE: _reference,
    CATEGORY_MISSING: _missing,
    CATEGORY_HALLUCINATION: _hallucination,
}


def inject(record: SolutionRecord, category: str, seed: int) -> SolutionRecord:
    """One error of `category` injected into `record`, at a location drawn
    from `seed`, labeled and with `record` as its lineage source. Raises an
    InjectionError where the category cannot apply, and ErroneousSource
    where `record` already has an error, since its gold label could name
    only one of the two."""
    if category not in _INJECTORS:
        raise ValueError(f"unknown category {category!r}")
    if record.label.is_error:
        raise ErroneousSource(f"record {record.record_id} already carries an error label")
    rng = random.Random(f"{seed}|{category}|{record.record_id}")
    steps, step = _INJECTORS[category](record, rng)
    return make_record(record.question, steps, record.answer, record.origin,
                       ErrorLabel(step, category),
                       lineage={"source_id": record.record_id, "seed": seed})
