import random
from fractions import Fraction

import pytest

from askbd.detect import DetectionOutcome, parse_detector_response
from askbd.evaluate import (
    DuplicateResult,
    EmptySelection,
    JudgedResult,
    build_report,
    dataset_accuracy,
    judge,
    render_report_csv,
    render_report_markdown,
    render_results_csv,
)
from askbd.records import CORRECT_LABEL, ErrorLabel


def outcome_for(tags):
    text = "\n".join(f"Step {i}: <{t}>" for i, t in enumerate(tags, 1))
    return parse_detector_response(text, len(tags))


class TestJudge:
    def test_exact_match(self):
        outcome = outcome_for(["calculation error", "correct"])
        assert judge(ErrorLabel(1, "calc"), outcome) is True

    def test_category_mismatch(self):
        outcome = outcome_for(["reference error", "correct"])
        assert judge(ErrorLabel(1, "calc"), outcome) is False

    def test_step_mismatch(self):
        outcome = outcome_for(["correct", "calculation error"])
        assert judge(ErrorLabel(1, "calc"), outcome) is False

    def test_none_none_case(self):
        outcome = outcome_for(["correct", "correct"])
        assert judge(CORRECT_LABEL, outcome) is True

    def test_invalid_never_correct(self):
        invalid = DetectionOutcome.invalid_response("unparseable")
        assert judge(CORRECT_LABEL, invalid) is False


def jr(record_id, origin="D", correct=True, strategy="M0", seed=1, profile="p"):
    return JudgedResult(
        record_id=record_id,
        profile=profile,
        strategy=strategy,
        origin=origin,
        seed=seed,
        gold=CORRECT_LABEL,
        predicted=CORRECT_LABEL if correct else ErrorLabel(1, "calc"),
        valid=True,
        correct=correct,
    )


def flags(results):
    return [r.correct for r in results]


def reported_gap(acc_d, acc_dprime) -> float:
    """The report's gap over judged results whose D and D' accuracies are
    exactly `acc_d` and `acc_dprime` (decimal strings or fractions): a
    record per denominator unit, the numerator's worth of them correct."""
    results = []
    for origin, accuracy in (("D", Fraction(acc_d)), ("D1", Fraction(acc_dprime))):
        results += [jr(f"{origin}-{i}", origin=origin, correct=i < accuracy.numerator)
                    for i in range(accuracy.denominator)]
    return float(build_report(results).deltas[("p", "M0")])


class TestAccuracy:
    def test_half(self):
        results = [jr("a"), jr("b"), jr("c", correct=False), jr("d", correct=False)]
        assert dataset_accuracy(flags(results)) == Fraction(1, 2)

    def test_all_true(self):
        assert dataset_accuracy(flags([jr("a"), jr("b")])) == 1

    def test_empty(self):
        with pytest.raises(EmptySelection):
            dataset_accuracy([])

    def test_hand_tally_twenty(self):
        rng = random.Random(5)
        correct = [rng.random() < 0.7 for _ in range(20)]
        assert dataset_accuracy(correct) == Fraction(sum(correct), 20)

    def test_permutation_invariance(self):
        rng = random.Random(6)
        correct = [rng.random() < 0.5 for i in range(30)]
        shuffled = correct[:]
        rng.shuffle(shuffled)
        assert dataset_accuracy(correct) == dataset_accuracy(shuffled)


class TestBiasGap:
    def test_published_gpt4o_base_row(self):
        # 34 of 125 correct on D, 23 of 125 on D'
        assert reported_gap("0.272", "0.184") == -0.088

    def test_published_llama_base_row(self):
        assert reported_gap("0.202", "0.209") == 0.007

    def test_equal_inputs(self):
        assert reported_gap("0.5", "0.5") == 0.0

    def test_fraction_inputs(self):
        assert reported_gap(Fraction(1, 4), Fraction(1, 2)) == 0.25

    def test_sign_convention(self):
        # worse alternative-solution performance means a negative gap
        assert reported_gap("0.6", "0.4") < 0


class TestBuildReport:
    def test_seed_mean(self):
        results = []
        for seed, accuracy in ((1, 0.5), (2, 0.6), (3, 0.7)):
            n_correct = int(accuracy * 10)
            for i in range(10):
                results.append(jr(f"r{i}", seed=seed, correct=i < n_correct))
        report = build_report(results)
        cell = report.cell("p", "M0", "D")
        assert cell.mean == Fraction(6, 10)

    def test_single_cell(self):
        report = build_report([jr("a")])
        assert report.cell("p", "M0", "D").mean == 1
        assert report.deltas == {}

    def test_delta_needs_both_origins(self):
        results = [jr("a", origin="D"), jr("b", origin="D1", correct=False)]
        report = build_report(results)
        assert report.deltas[("p", "M0")] == Fraction(-1)

    def test_duplicate_rejected(self):
        with pytest.raises(DuplicateResult):
            build_report([jr("a"), jr("a")])

    def test_decomposition_weighted_mean(self):
        # overall accuracy equals the count-weighted mean of per-class accuracies
        correct_class = [jr(f"c{i}", correct=i < 3) for i in range(4)]
        error_class = [
            JudgedResult(
                record_id=f"e{i}",
                profile="p",
                strategy="M0",
                origin="D",
                seed=1,
                gold=ErrorLabel(1, "calc"),
                predicted=ErrorLabel(1, "calc") if i < 1 else ErrorLabel(2, "calc"),
                valid=True,
                correct=i < 1,
            )
            for i in range(6)
        ]
        overall = dataset_accuracy(flags(correct_class + error_class))
        weighted = (
            dataset_accuracy(flags(correct_class)) * 4 + dataset_accuracy(flags(error_class)) * 6
        ) / 10
        assert overall == weighted


class TestRendering:
    def make_report(self):
        results = []
        for strategy, d_acc, d1_acc in (
            ("M0", 0.6, 0.4),
            ("M2", 0.8, 0.7),
        ):
            for origin, accuracy in (("D", d_acc), ("D1", d1_acc)):
                n_correct = int(accuracy * 10)
                for i in range(10):
                    results.append(
                        jr(f"{origin}{i}", origin=origin, strategy=strategy,
                           correct=i < n_correct)
                    )
        return build_report(results)

    def test_csv_exact_fractions(self):
        text = render_report_csv(self.make_report())
        assert "p,M0,D,1,3/5,60.0" in text
        assert "p,M0,delta,mean,-1/5,-20.0" in text

    def test_markdown_matrix(self):
        text = render_report_markdown(self.make_report())
        assert "| Model | D M0 | D M2 | D' M0 | D' M2 | Delta M0 | Delta M2 |" in text
        assert "60.0" in text and "-20.0" in text

    def test_golden_layout(self):
        report = self.make_report()
        expected = (
            "| Model | D M0 | D M2 | D' M0 | D' M2 | Delta M0 | Delta M2 |\n"
            "|---|---|---|---|---|---|---|\n"
            "| p | 60.0 | 80.0 | 40.0 | 70.0 | -20.0 | -10.0 |\n"
        )
        assert render_report_markdown(report) == expected

    def test_results_csv(self):
        text = render_results_csv([jr("abc", correct=False)])
        assert "p,M0,D,1,abc,,,1,calc,1,0" in text
