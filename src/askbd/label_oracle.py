"""Independent recompute-and-resolve checker for injected labels.

Recomputes every step's arithmetic and resolves every operand against the
question's condition values and prior step results, then classifies the
first discrepancy. Exact on corpora whose condition values, intermediate
results, and answer are pairwise distinct; `oracle_clean` tests those
invariants, and the shipped corpus generator keeps only records that pass
it. Stated results are exact: the corpus reader refuses a `result` or
`answer` written as a JSON number. `verify_corpus` decodes each distinct
expression text and question once per pass.
"""

from __future__ import annotations

from .exprs import Rational, eval_expr, parse_expr
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


class ScanMemo:
    """What one pass has decoded, keyed by text alone: each expression's
    exact value and number-token values, and each question's condition
    values. Two steps with one expression text but different stated
    results share an entry, since the stated result is not part of it."""

    def __init__(self):
        self.expressions: dict[str, tuple[Rational, tuple[Rational, ...]]] = {}
        self.questions: dict[str, frozenset[Rational]] = {}

    def expression(self, text: str) -> tuple[Rational, tuple[Rational, ...]]:
        """(value, number-token values) of the expression `text`."""
        hit = self.expressions.get(text)
        if hit is None:
            value = eval_expr(parse_expr(text))
            tokens = tuple(v for _, _, v in number_tokens(text))
            hit = self.expressions[text] = (value, tokens)
        return hit

    def conditions(self, question: str) -> frozenset[Rational]:
        hit = self.questions.get(question)
        if hit is None:
            hit = self.questions[question] = frozenset(condition_values(question))
        return hit


def scan_record(record: SolutionRecord, memo: ScanMemo | None = None) -> ErrorLabel:
    """Locate the single (step, category) discrepancy, or the correct label.

    Decision order: a step whose stated result disagrees with its own
    arithmetic is a calculation error. Otherwise the first unresolvable
    operand is classified: a completed solution followed by an extra
    consuming step is a hallucination; a second dangling reference
    downstream (or a final result that misses the answer) marks a wrong
    reference; a single dangling operand on an otherwise consistent chain
    marks a missing step.

    `memo` lets the records of one pass share decoded texts
    (`verify_corpus` passes one).
    """
    if memo is None:
        memo = ScanMemo()
    for step in record.steps:
        if step.expression is None:
            continue
        if memo.expression(step.expression)[0] != step.stated_result:
            return ErrorLabel(step.index, CATEGORY_CALCULATION)

    conditions = memo.conditions(record.question)
    unresolved: list[tuple[int, Rational]] = []
    priors: set[Rational] = set()
    for step in record.steps:
        if step.expression is None:
            continue
        for value in memo.expression(step.expression)[1]:
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
    memo = ScanMemo()
    for record in records:
        located = scan_record(record, memo)
        if located != record.label:
            mismatches.append((record.record_id, record.label, located))
    return mismatches


def oracle_clean(record: SolutionRecord) -> bool:
    """Invariants that make the recompute-and-resolve checker exact:
    distinct positive integer values, full resolvability, and each
    non-final result consumed exactly once."""
    conditions = condition_values(record.question)
    results = [s.stated_result for s in record.steps if s.expression is not None]
    if not results or results[-1] != record.answer:
        return False
    values = list(set(conditions)) + results
    if len(set(values)) != len(values):
        return False
    for value in values:
        if value <= 0 or value.denominator != 1:
            return False
    condition_set = set(conditions)
    priors: list[Rational] = []
    consumption = {r: 0 for r in results}
    for step in record.steps:
        if step.expression is None:
            continue
        for _, _, operand in number_tokens(step.expression):
            if operand in consumption and operand in priors:
                consumption[operand] += 1
            elif operand not in condition_set:
                return False
        priors.append(step.stated_result)
    return all(count == 1 for result, count in consumption.items() if result != record.answer)
