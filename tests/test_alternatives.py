from dataclasses import replace
from fractions import Fraction

import pytest

from askbd.alternatives import (
    CompositionError,
    NoPermutationsAvailable,
    UnresolvableOperand,
    VerificationFailed,
    compose_solving_expression,
    explain_expression,
    generate_alternatives,
    permute_solving_expression,
)
from askbd.exprs import canonical_form, eval_expr, parse_expr, to_text
from askbd.records import ErrorLabel, SolutionStep, make_record


def simple_record(statements, answer, question="A question mentioning 3 and 4 and 7."):
    from askbd.records import parse_structured_solution

    text = " ".join(f"Step {i}. {s}" for i, s in enumerate(statements, start=1))
    return make_record(question=question, steps=parse_structured_solution(text), answer=answer)


class TestCompose:
    def test_leaf_back_substitution(self, leaf_record):
        expr = compose_solving_expression(leaf_record)
        assert eval_expr(expr) == 33
        assert to_text(expr, "step_brackets") == "((5 × 11) - (2 × 11))".replace(
            "×", "*"
        )

    def test_single_step_no_substitution(self):
        record = simple_record(["Add them: 3 + 4 = 7."], 7)
        assert to_text(compose_solving_expression(record)) == "3 + 4"

    def test_corrupted_middle_step_fails_verification(self, leaf_record):
        steps = list(leaf_record.steps)
        # step 2 claims a wrong product; step 3 still consumes 22, so the
        # reference is now unresolvable
        steps[1] = replace(steps[1], statement="2 × 11 = 20", expression="2 × 11",
                           stated_result=Fraction(20))
        broken = replace(leaf_record, steps=tuple(steps))
        with pytest.raises((VerificationFailed, UnresolvableOperand)):
            compose_solving_expression(broken)

    def test_wrong_gold_answer_fails_verification(self, leaf_record):
        # final step states 34 and the answer agrees, but the arithmetic
        # composes to 33: the execution filter must reject the record
        steps = list(leaf_record.steps)
        steps[2] = replace(steps[2], statement="55 - 22 = 34", stated_result=Fraction(34))
        broken = replace(leaf_record, steps=tuple(steps), answer=Fraction(34))
        with pytest.raises(VerificationFailed):
            compose_solving_expression(broken)

    def test_unresolvable_operand(self):
        record = simple_record(["Use a number from nowhere: 9 + 4 = 13."], 13)
        with pytest.raises(UnresolvableOperand) as err:
            compose_solving_expression(record)
        assert err.value.operand == 9

    def test_most_recent_prior_step_wins(self):
        record = simple_record(
            [
                "First: 3 + 4 = 7.",
                "Recompute it differently: 3 + 4 = 7.",
                "Then double: 7 + 7 = 14.",
            ],
            14,
        )
        assert eval_expr(compose_solving_expression(record)) == 14

    def test_no_expression_steps(self):
        record = simple_record(["No math at all."], 0)
        with pytest.raises(CompositionError):
            compose_solving_expression(record)


class TestPermute:
    def test_leaf_includes_factored_form(self, leaf_record):
        expr = compose_solving_expression(leaf_record)
        permuted = permute_solving_expression(expr, max_rewrites=1, limit=16, seed=0)
        classes = {canonical_form(p) for p in permuted}
        assert canonical_form(parse_expr("(5 - 2) * 11")) in classes

    def test_every_survivor_hits_gold(self, leaf_record):
        expr = compose_solving_expression(leaf_record)
        for p in permute_solving_expression(expr, max_rewrites=2, limit=12, seed=0):
            assert eval_expr(p) == 33


class TestExplainTemplated:
    def test_factored_leaf_two_steps(self):
        steps = explain_expression(parse_expr("(5 - 2) * 11"))
        assert len(steps) == 2
        assert steps[0].expression == "5 - 2"
        assert steps[0].stated_result == 3
        assert steps[1].expression == "3 * 11"
        assert steps[1].stated_result == 33

    def test_single_literal_one_step(self):
        steps = explain_expression(parse_expr("7"))
        assert len(steps) == 1
        assert steps[0].stated_result == 7

    def test_steps_recompose_to_value(self, leaf_record):
        composed = compose_solving_expression(leaf_record)
        for expr in permute_solving_expression(composed, max_rewrites=2, limit=8, seed=0):
            steps = explain_expression(expr)
            rebuilt = make_record(
                question=leaf_record.question, steps=steps, answer=leaf_record.answer
            )
            again = compose_solving_expression(rebuilt)
            assert eval_expr(again) == leaf_record.answer


class TestGenerateAlternatives:
    def test_leaf_contains_factored_class(self, leaf_record):
        candidates = generate_alternatives(leaf_record, k=3, seed=0)
        assert 1 <= len(candidates) <= 3
        classes = {canonical_form(parse_expr(c.permuted_expression)) for c in candidates}
        assert canonical_form(parse_expr("(5 - 2) * 11")) in classes

    def test_an_erroneous_record_is_no_source(self, leaf_record):
        wrong = replace(leaf_record, label=ErrorLabel(3, "calc"))
        with pytest.raises(CompositionError, match="error label"):
            generate_alternatives(wrong, k=3, seed=0)

    def test_k_zero(self, leaf_record):
        assert generate_alternatives(leaf_record, k=0) == []

    def test_candidates_distinct_by_canonical_form(self, leaf_record):
        candidates = generate_alternatives(leaf_record, k=3, seed=1)
        classes = [canonical_form(parse_expr(c.permuted_expression)) for c in candidates]
        assert len(classes) == len(set(classes))

    def test_same_seed_identical(self, leaf_record):
        a = generate_alternatives(leaf_record, k=3, seed=5)
        b = generate_alternatives(leaf_record, k=3, seed=5)
        assert a == b

    def test_literal_only_has_no_permutations(self):
        record = simple_record(["Trivial: 3 + 4 = 7."], 7)
        # the composed tree 3 + 4 still commutes, so use a 1-leaf record
        single = make_record(
            question="The answer is 7.",
            steps=(SolutionStep(index=1, statement="It is 7.", expression="7",
                                stated_result=Fraction(7)),),
            answer=7,
        )
        with pytest.raises(NoPermutationsAvailable):
            generate_alternatives(single, k=3)

    def test_candidate_record_round_trip(self, leaf_record):
        record = generate_alternatives(leaf_record, k=3, seed=0)[0]
        assert record.origin == "D1"
        assert record.candidate_rank == 1
        assert record.lineage["source_id"] == leaf_record.record_id
        again = compose_solving_expression(record)
        assert eval_expr(again) == leaf_record.answer
