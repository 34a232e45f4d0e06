import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest

from askbd import demo
from askbd import inject as inject_module
from askbd.cli import main
from askbd.demo import build_demo, build_labeled_corpus
from askbd.inject import (
    ErroneousSource,
    NoDeletableStep,
    NoReferencingOperand,
    NoExpressionStep,
    inject,
)
from askbd.label_oracle import ScanMemo, oracle_clean, scan_record, verify_corpus
from askbd.records import (
    CATEGORIES,
    CORRECT_LABEL,
    ErrorLabel,
    SolutionStep,
    condition_values,
    make_record,
    parse_structured_solution,
    read_jsonl,
    step_from_statement,
    write_jsonl,
)
from askbd.exprs import (
    DivisionByZero,
    eval_expr,
    eval_with_literal,
    format_value,
    number_tokens,
    parse_expr,
)
from conftest import LEAF_QUESTION, LEAF_SOLUTION

# One seed reproduces all four appendix-style rows on the leaf problem;
# frozen after a search over the deterministic per-category generators.
GOLDEN_SEED = 10999


class TestGoldenRows:
    def test_calculation_row(self, leaf_record):
        injected = inject(leaf_record, "calc", GOLDEN_SEED)
        assert injected.label == ErrorLabel(1, "calc")
        assert "5 × 11 = 50" in injected.steps[0].statement
        # later steps keep the original correct value
        assert "55 - 22 = 33" in injected.steps[2].statement
        assert injected.steps[1] == leaf_record.steps[1]

    def test_reference_row(self, leaf_record):
        injected = inject(leaf_record, "ref", GOLDEN_SEED)
        assert injected.label == ErrorLabel(1, "ref")
        assert "so 10 gusts will blow it forward 5 × 10 = 50" in injected.steps[0].statement
        assert injected.steps[0].stated_result == 50
        assert injected.steps[1] == leaf_record.steps[1]
        assert injected.steps[2] == leaf_record.steps[2]

    def test_missing_row(self, leaf_record):
        injected = inject(leaf_record, "missing", GOLDEN_SEED)
        assert injected.label == ErrorLabel(2, "missing")
        assert len(injected.steps) == 2
        assert injected.steps[0].statement.startswith("Each swirl")
        assert "55 - 22 = 33" in injected.steps[1].statement

    def test_hallucination_row(self, leaf_record):
        injected = inject(leaf_record, "halluc", GOLDEN_SEED)
        assert injected.label == ErrorLabel(4, "halluc")
        assert "33 + 10 = 43" in injected.steps[3].statement
        assert injected.steps[:3] == leaf_record.steps


class TestInjectionProperties:
    def test_calc_wrong_value_never_equals_truth(self, leaf_record):
        for seed in range(200):
            injected = inject(leaf_record, "calc", seed)
            broken = injected.steps[injected.label.step - 1]
            original = leaf_record.steps[injected.label.step - 1]
            assert broken.stated_result != original.stated_result
            assert broken.expression == original.expression

    def test_calc_step_distribution_roughly_uniform(self, leaf_record):
        counts = Counter()
        n = 1000
        for seed in range(n):
            label = inject(leaf_record, "calc", seed).label
            counts[label.step] += 1
        expected = n / 3
        chi2 = sum((counts[s] - expected) ** 2 / expected for s in (1, 2, 3))
        # chi-square with 2 dof: 13.8 is the 0.1% point
        assert chi2 < 13.8, counts

    def test_ref_result_recomputed_consistently(self, leaf_record):
        for seed in range(200):
            injected = inject(leaf_record, "ref", seed)
            step = injected.steps[injected.label.step - 1]
            assert eval_expr(parse_expr(step.expression)) == step.stated_result

    def test_ref_parses_each_expression_step_once(self, leaf_record, monkeypatch):
        parsed = []

        def counting_parse(text):
            parsed.append(text)
            return parse_expr(text)

        monkeypatch.setattr(inject_module, "parse_expr", counting_parse)
        conventional, alternative, _ = build_labeled_corpus(4, seed=2024)
        for record in [leaf_record] + conventional + alternative:
            parsed.clear()
            try:
                inject(record, "ref", 0)
            except NoReferencingOperand:
                pass
            assert parsed == [s.expression for s in record.steps if s.expression is not None]

    def test_ref_altered_operand_never_equals_original(self, leaf_record):
        for seed in range(1000):
            injected = inject(leaf_record, "ref", seed)
            step = injected.steps[injected.label.step - 1]
            original = leaf_record.steps[injected.label.step - 1]
            assert step.expression != original.expression

    def test_missing_leaves_dangling_operand(self, leaf_record):
        for seed in range(100):
            injected = inject(leaf_record, "missing", seed)
            conditions = set(condition_values(injected.question))
            priors = set()
            dangling = []
            for step in injected.steps:
                if step.expression is None:
                    continue
                for text in step.expression.split():
                    try:
                        value = Fraction(text)
                    except ValueError:
                        continue
                    if value not in conditions and value not in priors:
                        dangling.append((step.index, value))
                priors.add(step.stated_result)
            assert dangling and dangling[0][0] == injected.label.step

    def test_halluc_operand_is_fresh_and_consistent(self, leaf_record):
        for seed in range(200):
            injected = inject(leaf_record, "halluc", seed)
            appended = injected.steps[-1]
            assert eval_expr(parse_expr(appended.expression)) == appended.stated_result
            operand = appended.expression.split(" + ")[1]
            value = Fraction(operand)
            assert value not in set(condition_values(injected.question))
            assert value not in {s.stated_result for s in leaf_record.steps}

    def test_single_step_record_has_no_deletable_step(self):
        record = make_record(
            question="Add 3 and 4.",
            steps=(SolutionStep(1, "Add: 3 + 4 = 7.", "3 + 4", Fraction(7)),),
            answer=7,
        )
        with pytest.raises(NoDeletableStep):
            inject(record, "missing", 0)

    def test_a_result_the_consumer_resolves_elsewhere_is_not_deleted(self):
        # 12 is also a question value, so `12 + 12` reads as correct without step 1
        record = make_record(
            question="A crate holds 3 rows of 4 jars, and a shelf holds 12 jars. How many?",
            steps=parse_structured_solution(
                "Step 1. The crate holds 3 * 4 = 12 jars. Step 2. Together 12 + 12 = 24 jars."
            ),
            answer=24,
        )
        assert scan_record(record) == CORRECT_LABEL
        for seed in range(20):
            with pytest.raises(NoDeletableStep, match="also resolves"):
                inject(record, "missing", seed)

    def test_ref_swaps_a_mention_before_a_full_stop(self):
        record = make_record(
            question="Tom buys 5 boxes with 7 pens in each box. How many pens?",
            steps=parse_structured_solution("Step 1. Tom buys 5. So 5 * 7 = 35 pens."),
            answer=35,
        )
        swapped = 0
        for seed in range(20):
            injected = inject(record, "ref", seed)
            step = injected.steps[0]
            boxes = number_tokens(step.expression)[0][2]
            assert step.statement == (
                f"Tom buys {format_value(boxes)}. So {step.expression} = "
                f"{format_value(step.stated_result)} pens."
            )
            swapped += boxes != 5
        assert swapped

    def test_an_erroneous_record_takes_no_second_error(self, leaf_record):
        wrong = inject(leaf_record, "calc", 0)
        for category in CATEGORIES:
            with pytest.raises(ErroneousSource, match="already carries an error label"):
                inject(wrong, category, 0)

    def test_no_expression_step(self):
        record = make_record(
            question="q 1", steps=(SolutionStep(1, "prose only"),), answer=1
        )
        with pytest.raises(NoExpressionStep):
            inject(record, "calc", 0)

    def test_calc_rewrites_a_signed_stated_result_in_the_text(self):
        record = make_record(
            question="A tank holds 3 liters and loses 5 liters. What is its level?",
            steps=parse_structured_solution("Step 1. Compute 3 - 5 = -2."),
            answer=-2,
        )
        assert record.steps[0].stated_result == -2
        for seed in range(3):
            injected = inject(record, "calc", seed)
            step = injected.steps[0]
            assert step.statement == f"Compute 3 - 5 = {format_value(step.stated_result)}."
            # the detector is shown the wrong result the label names
            assert step_from_statement(1, step.statement) == step
            assert scan_record(injected) == injected.label == ErrorLabel(1, "calc")

    @pytest.mark.parametrize("loss, refused", [(15, True), (8, True), (7, False)])
    def test_calc_refuses_a_result_no_offset_keeps_positive(self, loss, refused):
        record = make_record(
            question=f"A tank holds 3 liters and loses {loss} liters. What is its level?",
            steps=parse_structured_solution(f"Step 1. The level is 3 - {loss} = {3 - loss}."),
            answer=3 - loss,
        )
        if refused:
            with pytest.raises(NoExpressionStep, match="an offset keeps positive"):
                inject(record, "calc", 0)
        else:
            # +5 is the one offset that keeps -4 positive
            assert inject(record, "calc", 0).steps[0].stated_result == 1

    def test_the_cli_names_a_record_whose_results_no_offset_keeps_positive(
        self, tmp_path, capsys
    ):
        record = make_record(
            question="A tank holds 5 liters and loses 15 liters. What is its level?",
            steps=parse_structured_solution("Step 1. The level is 5 - 15 = -10 liters."),
            answer=-10,
        )
        corpus = tmp_path / "corpus.jsonl"
        write_jsonl([record], corpus)
        argv = ["inject", "--category", "calc", "--in", str(corpus),
                "--out", str(tmp_path / "out.jsonl")]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.err == (
            f"cannot inject calc into {record.record_id}: record {record.record_id} "
            "has no expression step whose result an offset keeps positive\n"
        )
        assert "injected 0 records (1 skipped)" in captured.out

    def test_determinism(self, leaf_record):
        for category in CATEGORIES:
            first = inject(leaf_record, category, 42)
            second = inject(leaf_record, category, 42)
            assert first == second

    def test_batch_emits_one_per_category(self):
        conventional, alternative, injected = build_labeled_corpus(2, seed=1)
        sources = conventional + alternative
        assert [r.label.category for r in injected] == list(CATEGORIES) * len(sources)
        assert [r.lineage for r in injected] == [
            {"source_id": source.record_id, "seed": 1}
            for source in sources for _ in CATEGORIES
        ]

    def test_the_labeled_corpus_injects_each_accepted_record_once(self, monkeypatch):
        calls = Counter()

        def counting_inject(record, category, seed):
            calls[record.record_id] += 1
            return inject(record, category, seed)

        monkeypatch.setattr(demo, "inject", counting_inject)
        conventional, alternative, injected = build_labeled_corpus(4, seed=2024)
        accepted = conventional + alternative
        assert len(injected) == len(CATEGORIES) * len(accepted)
        assert [calls[r.record_id] for r in accepted] == [len(CATEGORIES)] * len(accepted)


class TestLabelOracle:
    def test_correct_record_has_zero_findings(self, leaf_record):
        assert scan_record(leaf_record) == CORRECT_LABEL

    def test_a_leading_point_decimal_is_one_number(self):
        # solution text is tokenized by the number rule parse_expr uses,
        # so `.5` is one half everywhere, never 5
        record = make_record(
            question="A scoop holds 0.5 cups. How many cups do 6 scoops hold?",
            steps=parse_structured_solution("Step 1. Six scoops hold 6 * .5 = 3 cups."),
            answer=3,
        )
        assert record.steps[0].expression == "6 * .5"
        assert [value for _, _, value in number_tokens("6 * .5")] == [6, Fraction(1, 2)]
        assert scan_record(record) == CORRECT_LABEL

    def test_locates_all_four_categories(self, leaf_record):
        for seed in range(100):
            for category in CATEGORIES:
                injected = inject(leaf_record, category, seed)
                assert scan_record(injected) == injected.label, (seed, injected.label)

    def test_steps_without_a_calculation(self, prose_record):
        # a prose-only step is neither injected into nor scanned
        assert scan_record(prose_record) == CORRECT_LABEL and oracle_clean(prose_record)
        for seed in range(20):
            for category in CATEGORIES:
                injected = inject(prose_record, category, seed)
                assert scan_record(injected) == injected.label, (seed, injected.label)
        assert demo._reference_text(prose_record).splitlines() == [
            "Step 1: This follows directly from the conditions.",
            "Step 2: From the conditions, 8 * 6 = 48.",
            "Step 3: This follows directly from the conditions.",
            "Step 4: From the conditions, 48 - 11 = 37.",
            "Step 5: Therefore the answer is 37.",
        ]

    def test_oracle_clean_holds_for_the_leaf_record(self, leaf_record):
        assert oracle_clean(leaf_record)

    @pytest.mark.parametrize("question, solution, answer, label", [
        # the last result is not the answer, as after a calculation error there
        (LEAF_QUESTION, LEAF_SOLUTION.replace("55 - 22 = 33", "55 - 22 = 34"), 33,
         ErrorLabel(3, "calc")),
        # a zero question value
        ("A shelf holds 4 jars and 0 cans. Then 3 more jars come. How many jars?",
         "Step 1. There are 4 + 3 = 7 jars.", 7, CORRECT_LABEL),
        # a fractional question value, and a fractional result
        ("A scoop holds 0.5 cups. How many cups do 6 scoops hold?",
         "Step 1. Six scoops hold 6 * .5 = 3 cups.", 3, CORRECT_LABEL),
        ("A scoop holds 3 cups. How many cups do 6 scoops hold?",
         "Step 1. Six scoops hold 6 / 4 = 1.5 cups.", Fraction(3, 2), CORRECT_LABEL),
        # an operand that is neither a question value nor an earlier result
        (LEAF_QUESTION, LEAF_SOLUTION.replace("55 - 22 = 33", "55 - 9 = 46"), 46,
         CORRECT_LABEL),
    ])
    def test_oracle_clean_fails_a_record_that_breaks_an_invariant(
        self, question, solution, answer, label
    ):
        record = make_record(question=question, steps=parse_structured_solution(solution),
                             answer=answer, label=label)
        assert not oracle_clean(record)

    def test_oracle_clean_fails_a_negative_result(self):
        record = make_record(
            question="A tank holds 3 liters and loses 5 liters. What is its level?",
            steps=parse_structured_solution("Step 1. The level is 3 - 5 = -2 liters."),
            answer=-2,
        )
        assert record.steps[0] == SolutionStep(1, "The level is 3 - 5 = -2 liters.", "3 - 5", -2)
        assert scan_record(record) == CORRECT_LABEL
        assert not oracle_clean(record)

    def test_verify_corpus_reports_mismatches(self, leaf_record):
        injected = inject(leaf_record, "calc", 3)
        ok = verify_corpus([leaf_record, injected])
        assert ok == []
        mislabeled = make_record(
            question=injected.question,
            steps=injected.steps,
            answer=injected.answer,
            origin=injected.origin,
            label=ErrorLabel(2, "ref"),
        )
        bad = verify_corpus([mislabeled])
        assert len(bad) == 1

    def test_a_shared_memo_locates_what_fresh_scans_locate(self, tmp_path):
        info = build_demo(tmp_path / "demo", n_questions=4)
        sources = tmp_path / "sources.jsonl"
        write_jsonl([r for r in read_jsonl(info["corpus"]) if not r.label.is_error], sources)
        injected = tmp_path / "inj.jsonl"
        assert main(["inject", "--category", "all", "--in", str(sources),
                     "--out", str(injected)]) == 0
        corpus = read_jsonl(sources) + read_jsonl(injected)
        # a source and its calc-injected copy: one expression text, two results
        by_id = {r.record_id: r for r in corpus}
        pairs = [
            (by_id[r.lineage["source_id"]].steps[r.label.step - 1], r.steps[r.label.step - 1])
            for r in corpus if r.label.category == "calc"
        ]
        assert any(s.expression == c.expression and s.stated_result != c.stated_result
                   for s, c in pairs)

        fresh = [scan_record(r) for r in corpus]
        memo = ScanMemo()
        assert [scan_record(r, memo) for r in corpus] == fresh
        assert fresh == [r.label for r in corpus]
        assert verify_corpus(corpus) == []
        # and where the gold label is wrong, the mismatches are the fresh ones
        mislabeled = [replace(r, label=ErrorLabel(1, "halluc")) for r in corpus]
        expected = [(r.record_id, r.label, located)
                    for r, located in zip(mislabeled, fresh) if located != r.label]
        assert expected and verify_corpus(mislabeled) == expected


def _eager_reference_choices(record):
    """Every eligible step of a `ref` injection, each with every eligible
    operand and each of those with every usable (wrong operand, result)."""
    conditions = set(condition_values(record.question))
    choices = []
    for step in record.steps:
        if step.expression is None:
            continue
        tree = parse_expr(step.expression)
        resolvable = conditions | {
            s.stated_result for s in record.steps[:step.index - 1] if s.expression is not None
        }
        spots = []
        for k, (start, end, value) in enumerate(number_tokens(step.expression)):
            if value not in resolvable:
                continue
            usable = []
            for offset in inject_module.OFFSETS:
                new_value = value + offset
                if new_value <= 0 or new_value in resolvable:
                    continue
                try:
                    result = eval_with_literal(tree, k, new_value)
                except DivisionByZero:
                    continue
                if result > 0 and result.denominator == 1:
                    usable.append((new_value, result))
            if usable:
                spots.append((start, end, value, usable))
        if spots:
            choices.append((step, spots))
    return choices


def _eager_reference(record, choices, seed):
    """A `ref` injection drawing from the fully listed, nonempty `choices`."""
    rng = random.Random(f"{seed}|ref|{record.record_id}")
    step, spots = choices[rng.randrange(len(choices))]
    start, end, old_value, usable = spots[rng.randrange(len(spots))]
    new_value, new_result = usable[rng.randrange(len(usable))]
    new_expression = step.expression[:start] + format_value(new_value) + step.expression[end:]
    statement = inject_module._swap_equation(
        step.statement, new_expression, format_value(new_result)
    )
    statement = inject_module._swap_mentions_outside_equation(statement, old_value, new_value)
    new_step = replace(
        step, statement=statement, expression=new_expression, stated_result=new_result
    )
    steps = [new_step if s.index == step.index else s for s in record.steps]
    return make_record(record.question, steps, record.answer, record.origin,
                       ErrorLabel(step.index, "ref"),
                       lineage={"source_id": record.record_id, "seed": seed})


def _assert_lazy_draw_is_eager(record, seeds):
    choices = _eager_reference_choices(record)
    for seed in seeds:
        if not choices:
            with pytest.raises(NoReferencingOperand):
                inject(record, "ref", seed)
            continue
        assert inject(record, "ref", seed) == _eager_reference(record, choices, seed), (
            record.record_id, seed)


class TestReferenceDraw:
    """A `ref` injection lists only what its three draws read; it must
    draw what listing every (step, operand, offset) would have drawn."""

    def test_equals_the_eager_draw_on_the_demo_and_its_candidates(self, tmp_path, capsys):
        corpus = build_demo(tmp_path / "demo", n_questions=50)["corpus"]
        candidates = tmp_path / "candidates.jsonl"
        assert main(["gen-alt", "--k", "3", "--in", str(corpus), "--out", str(candidates)]) == 0
        capsys.readouterr()
        records = read_jsonl(corpus) + read_jsonl(candidates)
        error_free = [r for r in records if not r.label.is_error]
        erroneous = [r for r in records if r.label.is_error]
        assert (len(error_free), len(erroneous)) == (231, 400)
        for record in error_free:
            _assert_lazy_draw_is_eager(record, range(20))
        # an erroneous record is no source, so there is no draw to compare
        for record in erroneous:
            with pytest.raises(ErroneousSource):
                inject(record, "ref", 0)

    def test_equals_the_eager_draw_under_a_division(self):
        # only 9 resolves; it sits in the divisor, and 9 -> 5 zeros it
        record = make_record(
            question="A baker shares the cookies among 9 trays. How many per tray?",
            steps=(SolutionStep(1, "Each tray gets 60 / (9 - 5) = 15 cookies.",
                                "60 / (9 - 5)", Fraction(15)),),
            answer=15,
        )
        choices = _eager_reference_choices(record)
        [(_, [(_, _, operand, usable)])] = choices
        assert operand == 9
        assert [value for value, _ in usable] == [6, 7, 8, 10, 11]
        _assert_lazy_draw_is_eager(record, range(20))
