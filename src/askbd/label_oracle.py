"""Independent recompute-and-resolve checker for injected labels.

Recomputes every step's arithmetic and resolves every operand against the
question's condition values and prior step results, then classifies the
first discrepancy. Exact on corpora whose condition values, intermediate
results, and answer are pairwise distinct (the shipped corpus generator
enforces this).
"""

from __future__ import annotations

from fractions import Fraction

from .exprs import eval_expr, parse_expr
from .records import (
    CATEGORY_CALCULATION,
    CATEGORY_HALLUCINATION,
    CATEGORY_MISSING,
    CATEGORY_REFERENCE,
    CORRECT_LABEL,
    ErrorLabel,
    SolutionRecord,
    condition_values,
    number_tokens,
)


def scan_record(record: SolutionRecord) -> ErrorLabel:
    """Locate the single (step, category) discrepancy, or the correct label.

    Decision order: a step whose stated result disagrees with its own
    arithmetic is a calculation error. Otherwise the first unresolvable
    operand is classified: a completed solution followed by an extra
    consuming step is a hallucination; a second dangling reference
    downstream (or a final result that misses the answer) marks a wrong
    reference; a single dangling operand on an otherwise consistent chain
    marks a missing step.
    """
    conditions = set(condition_values(record.question))

    for step in record.steps:
        if step.expression is None:
            continue
        if eval_expr(parse_expr(step.expression)) != step.stated_result:
            return ErrorLabel(step.index, CATEGORY_CALCULATION)

    unresolved: list[tuple[int, Fraction]] = []
    priors: set[Fraction] = set()
    for step in record.steps:
        if step.expression is None:
            continue
        for _, _, value in number_tokens(step.expression):
            if value not in conditions and value not in priors:
                unresolved.append((step.index, value))
        priors.add(step.stated_result)

    if not unresolved:
        return CORRECT_LABEL

    first_index, _ = unresolved[0]
    last = record.steps[-1]
    if (
        len(unresolved) == 1
        and first_index == last.index
        and any(
            s.stated_result == record.answer
            for s in record.steps
            if s.expression is not None and s.index < last.index
        )
    ):
        return ErrorLabel(first_index, CATEGORY_HALLUCINATION)
    if len(unresolved) >= 2:
        return ErrorLabel(first_index, CATEGORY_REFERENCE)
    if first_index == last.index and last.stated_result != record.answer:
        return ErrorLabel(first_index, CATEGORY_REFERENCE)
    return ErrorLabel(first_index, CATEGORY_MISSING)


def verify_corpus(records) -> list[tuple[str, ErrorLabel, ErrorLabel]]:
    """(record id, gold, located) for every record the checker disagrees on."""
    mismatches = []
    for record in records:
        located = scan_record(record)
        if located != record.label:
            mismatches.append((record.record_id, record.label, located))
    return mismatches
