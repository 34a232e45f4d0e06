"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line. Run with `pytest tests/test_acceptance.py -v -s`."""

import hashlib
import random
import time
from collections import Counter
from contextlib import contextmanager

import pytest

from askbd.alternatives import compose_solving_expression, generate_alternatives
from askbd.backends import MockScoreBackend, TokenScore
from askbd.cli import main
from askbd.demo import build_demo, build_labeled_corpus
from askbd.detect import parse_detector_response
from askbd.exprs import canonical_form, enumerate_permutations, eval_expr, parse_expr
from askbd.inject import inject
from askbd.label_oracle import verify_corpus
from askbd.likelihood import quartile_buckets, score_solution
from askbd.records import ErrorLabel, make_record
from conftest import random_expr

from test_evaluate import reported_gap
from test_inject import GOLDEN_SEED

CORPUS_SEED = 20240811


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {name}: FAIL")
        raise
    print(f"ACCEPTANCE {name}: PASS")


@pytest.fixture(scope="module")
def labeled_corpus():
    return build_labeled_corpus(200, seed=CORPUS_SEED)


def test_rewrite_soundness_1000_expressions():
    with criterion("rewrite-soundness"):
        rng = random.Random(1234)
        started = time.monotonic()
        violations = 0
        emitted = 0
        for i in range(1000):
            expr = random_expr(rng, max_depth=4)
            value = eval_expr(expr)
            for out in enumerate_permutations(expr, max_rewrites=2, limit=6, seed=i):
                emitted += 1
                if eval_expr(out) != value:
                    violations += 1
        elapsed = time.monotonic() - started
        assert violations == 0, f"{violations} of {emitted} outputs drifted"
        assert emitted > 0
        assert elapsed < 10.0, f"took {elapsed:.1f}s"


SYNTHETIC_FIXTURES = (
    (
        "A library buys 7 shelves and each shelf holds 9 books. It gives away "
        "4 books. How many books remain?",
        "Step 1. The shelves hold 7 * 9 = 63 books. "
        "Step 2. After giving some away, 63 - 4 = 59 books remain.",
        59,
    ),
    (
        "A van makes 6 trips carrying 8 crates each and 6 trips carrying 3 "
        "crates each. How many more crates does it carry on the bigger trips?",
        "Step 1. The bigger trips carry 8 * 6 = 48 crates. "
        "Step 2. The smaller trips carry 3 * 6 = 18 crates. "
        "Step 3. The bigger trips carry 48 - 18 = 30 more crates.",
        30,
    ),
    (
        "A stall sells 12 cups at 5 dollars each and also collects a 13 dollar "
        "cleaning fee. How many dollars does it take in?",
        "Step 1. The cups bring in 12 * 5 = 60 dollars. "
        "Step 2. With the fee, the stall takes in 60 + 13 = 73 dollars.",
        73,
    ),
)


def test_alternative_generation_end_to_end(leaf_record):
    with criterion("alternatives-end-to-end"):
        from askbd.records import parse_structured_solution

        records = [leaf_record]
        for question, solution, answer in SYNTHETIC_FIXTURES:
            records.append(
                make_record(
                    question=question,
                    steps=parse_structured_solution(solution),
                    answer=answer,
                )
            )
        factored = canonical_form(parse_expr("(5 - 2) * 11"))
        leaf_classes = set()
        for record in records:
            candidates = generate_alternatives(record, k=3, seed=7)
            assert candidates, record.record_id
            for candidate in candidates:
                rebuilt = make_record(
                    question=record.question,
                    steps=candidate.steps,
                    answer=record.answer,
                )
                recomposed = compose_solving_expression(rebuilt)
                assert eval_expr(recomposed) == record.answer
                if record is records[0]:
                    leaf_classes.add(canonical_form(parse_expr(candidate.permuted_expression)))
        assert factored in leaf_classes


def test_injector_appendix_fidelity(leaf_record):
    with criterion("injector-golden-rows"):
        injected = inject(leaf_record, "calc", GOLDEN_SEED)
        assert injected.label == ErrorLabel(1, "calc")
        assert "5 × 11 = 50" in injected.steps[0].statement
        assert "55 - 22 = 33" in injected.steps[2].statement

        injected = inject(leaf_record, "ref", GOLDEN_SEED)
        assert injected.label == ErrorLabel(1, "ref")
        assert "5 × 10 = 50" in injected.steps[0].statement
        assert "so 10 gusts" in injected.steps[0].statement

        injected = inject(leaf_record, "missing", GOLDEN_SEED)
        assert injected.label == ErrorLabel(2, "missing")
        assert "55 - 22 = 33" in injected.steps[1].statement
        assert len(injected.steps) == 2

        injected = inject(leaf_record, "halluc", GOLDEN_SEED)
        assert injected.label == ErrorLabel(4, "halluc")
        assert "33 + 10 = 43" in injected.steps[3].statement


def test_label_soundness_on_desk_scale_corpus(labeled_corpus):
    with criterion("label-soundness-2000"):
        started = time.monotonic()
        conventional, alternative, injected = labeled_corpus
        assert len(conventional) == 200
        assert len(alternative) == 200
        assert len(injected) == 1600
        correct = conventional + alternative
        mismatches = verify_corpus(correct + injected)
        elapsed = time.monotonic() - started
        assert mismatches == [], mismatches[:5]
        assert all(not r.label.is_error for r in correct)
        assert elapsed < 60.0, f"took {elapsed:.1f}s"

        from askbd.records import STAT_CLASSES, compute_stats

        stats = compute_stats(correct + injected)
        assert stats.total == 2000
        for origin in ("D", "D1"):
            for klass in STAT_CLASSES:
                assert stats.cell(origin, klass) == 200, (origin, klass)


def test_likelihood_math(labeled_corpus):
    with criterion("likelihood-math"):
        rng = random.Random(55)
        for _ in range(10_000):
            scores = [
                TokenScore(f"t{i}", -rng.random() * 10)
                for i in range(rng.randint(1, 60))
            ]
            total = sum(s.logprob for s in scores)
            indicator = total / len(scores)
            assert abs(indicator * len(scores) - total) <= 1e-9

        conventional, alternative, injected = labeled_corpus
        corpus = conventional + alternative + injected
        assert len(corpus) == 2000
        from askbd.backends import BackendProfile, CAP_SCORE_TOKENS

        profile = BackendProfile(
            name="scorer",
            endpoint="mock:score",
            model="mock",
            capabilities=frozenset({CAP_SCORE_TOKENS}),
        )
        backend = MockScoreBackend()
        indicators = {
            record.record_id: score_solution(record, profile, backend=backend).indicator
            for record in corpus
        }
        assert len(indicators) == 2000
        sizes = Counter(quartile_buckets(indicators).values())
        for bucket in ("Q1", "Q2", "Q3", "Q4"):
            size = sizes[bucket]
            assert abs(size - 500) <= 1, (bucket, size)


def test_bias_gap_convention():
    with criterion("bias-gap-convention"):
        # the report's exact gap, D' mean minus D mean, read as a float
        assert reported_gap("0.272", "0.184") == -0.088
        assert reported_gap("0.202", "0.209") == 0.007


# sha256 of every output of the 4-question demo run with seeds 1-3
DEMO_RUN_SHA256 = {
    "report.csv": "38032bc6bb1f5555180366e015d5b57bc6e187111bbed9cd4fcafd68cb65353e",
    "report.md": "dacaea4878dbb96dfce3b2137768e90c3ad90a95e3c5c3d03a64bcdf11f28547",
    "results.csv": "1fed158a4ba91efe8cc917a3a7429248f3de61a1dfde5a7efda43323cf1bf4ac",
    "stats.txt": "8cee7cebda2f7adf496293f197025ba4ab54d2e207e26933330bb120de521b5a",
    "transcripts/demo__M0__seed1.jsonl": "5337417c683757ad46c2e8f06070fed1ec39b2c04da3b7509675f018d8845bd7",
    "transcripts/demo__M0__seed2.jsonl": "5337417c683757ad46c2e8f06070fed1ec39b2c04da3b7509675f018d8845bd7",
    "transcripts/demo__M0__seed3.jsonl": "5337417c683757ad46c2e8f06070fed1ec39b2c04da3b7509675f018d8845bd7",
    "transcripts/demo__M1__seed1.jsonl": "6b5f63748fd9662507f9be8b865b533f03d77bdd6911e695fd6522e5ec6c92a7",
    "transcripts/demo__M1__seed2.jsonl": "6b5f63748fd9662507f9be8b865b533f03d77bdd6911e695fd6522e5ec6c92a7",
    "transcripts/demo__M1__seed3.jsonl": "6b5f63748fd9662507f9be8b865b533f03d77bdd6911e695fd6522e5ec6c92a7",
    "transcripts/demo__M2__seed1.jsonl": "286516e989fe7b74f31c0d75ddd55123c53eb13e8ed092baead704855ef628f1",
    "transcripts/demo__M2__seed2.jsonl": "286516e989fe7b74f31c0d75ddd55123c53eb13e8ed092baead704855ef628f1",
    "transcripts/demo__M2__seed3.jsonl": "286516e989fe7b74f31c0d75ddd55123c53eb13e8ed092baead704855ef628f1",
    "transcripts/demo__M3__seed1.jsonl": "a7dc8fd2be92fc9cd19b5880eb805db06a62b69b7e28e96def60a520511086ee",
    "transcripts/demo__M3__seed2.jsonl": "a7dc8fd2be92fc9cd19b5880eb805db06a62b69b7e28e96def60a520511086ee",
    "transcripts/demo__M3__seed3.jsonl": "a7dc8fd2be92fc9cd19b5880eb805db06a62b69b7e28e96def60a520511086ee",
}


def test_deterministic_end_to_end_run(tmp_path):
    with criterion("deterministic-run"):
        outputs = []
        for name in ("one", "two"):
            info = build_demo(tmp_path / name, n_questions=4, seeds=(1, 2, 3))
            assert info["n_records"] == 40
            assert main(["run", "--config", str(info["config"]), "--strict-scripted"]) == 0
            outputs.append(tmp_path / name / "out")
        for artifact in ("report.csv", "report.md", "results.csv", "stats.txt"):
            first = (outputs[0] / artifact).read_bytes()
            second = (outputs[1] / artifact).read_bytes()
            assert first == second, f"{artifact} differs between runs"
        produced = {
            path.relative_to(outputs[0]).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in outputs[0].rglob("*") if path.is_file()
        }
        assert produced == DEMO_RUN_SHA256
        report = (outputs[0] / "report.md").read_text()
        for strategy in ("M0", "M1", "M2", "M3"):
            for group in ("D", "D'", "Delta"):
                assert f"{group} {strategy}" in report


# sha256 of the scores and the quartile analysis of the same demo run, scored
# offline by the demo's scorer profile and joined to its M2 results
DEMO_SCORES_SHA256 = "e61959d42cfcd0c182d2cd27cc579e242f4217e120a27f9aef0d1baaa675e149"
DEMO_ANALYSIS_SHA256 = "7afc5df8e858a7189b69f0a51fd2bb7a7bb18e7a93cde9fccff3901c98042f06"


def test_deterministic_likelihood_analysis(tmp_path, capsys):
    with criterion("deterministic-likelihood"):
        info = build_demo(tmp_path, n_questions=4, seeds=(1, 2, 3))
        assert main(["run", "--config", str(info["config"]), "--strict-scripted"]) == 0
        scores, analysis = tmp_path / "scores.jsonl", tmp_path / "buckets.csv"
        capsys.readouterr()
        assert main([
            "score-likelihood", "--profiles", "scorer", "--profiles-file", str(info["profiles"]),
            "--in", str(info["corpus"]), "--out", str(scores), "--analysis", str(analysis),
            "--results", str(tmp_path / "out" / "results.csv"), "--strategy", "M2",
        ]) == 0
        assert hashlib.sha256(scores.read_bytes()).hexdigest() == DEMO_SCORES_SHA256
        assert hashlib.sha256(analysis.read_bytes()).hexdigest() == DEMO_ANALYSIS_SHA256
        printed = capsys.readouterr().out.splitlines()
        for line in ("Q1: 0.800", "Q2: 0.800", "Q3: 0.900", "Q4: 0.500"):
            assert line in printed


def test_parser_totality_and_metamorphic_properties():
    with criterion("parser-totality"):
        rng = random.Random(2024)
        for _ in range(10_000):
            blob = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 120)))
            text = blob.decode("utf-8", errors="replace")
            outcome = parse_detector_response(text, rng.randrange(1, 6))
            assert outcome.valid in (True, False)

        spellings = (
            "<correct>", "<calculation error>", "<reference error>",
            "<missing step>", "<hallucination>", "<secondary error>",
        )
        primaries = spellings[1:5]
        for trial in range(300):
            n = rng.randrange(2, 6)
            tags = [rng.choice(spellings) for _ in range(n)]
            text = "\n".join(f"Step {i}: {t}" for i, t in enumerate(tags, 1))
            base = parse_detector_response(text, n)
            first_primary = next(
                (i for i, t in enumerate(tags) if t in primaries), None
            )
            if first_primary is None:
                continue
            # editing any tag after the first primary error never moves the label
            for position in range(first_primary + 1, n):
                for replacement in primaries + ("<secondary error>",):
                    edited = list(tags)
                    edited[position] = replacement
                    text2 = "\n".join(
                        f"Step {i}: {t}" for i, t in enumerate(edited, 1)
                    )
                    assert parse_detector_response(text2, n).predicted == base.predicted
