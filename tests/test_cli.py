import csv
import hashlib
import io
import itertools
import json
import re
import sys
import threading
import time
import urllib.error
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest

from askbd import backends, cli, likelihood
from askbd.backends import (
    ExchangeStore,
    GenerationParams,
    generate_fingerprint,
    load_cassette,
    load_profiles,
)
from askbd.cli import main
from askbd.demo import build_demo, write_cassette
from askbd.detect import (
    FAILED_STAGE,
    DetectionOutcome,
    StageExchange,
    grading_prompt,
    outcome_of,
    ssi_prompt,
)
from askbd.records import SolutionStep, jsonl_line, make_record, read_jsonl, write_jsonl


@pytest.fixture(scope="module")
def demo_dir(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("demo")
    build_demo(outdir, n_questions=3, seeds=(1, 2))
    return outdir


def make_raw_gsm_file(path, n=12):
    rows = []
    for i in range(2, n + 2):
        a, b = i, i + 3
        rows.append(
            {
                "question": f"A shelf holds {a} jars and each jar holds {b} pickles. "
                "How many pickles are there?",
                "answer": f"The jars hold {a}*{b} = <<{a}*{b}={a*b}>>{a*b} pickles.\n"
                f"#### {a * b}",
            }
        )
    with open(path, "w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(json.dumps(row) + "\n")
    return rows


# a flat operator chain far past the 16-level depth limit
DEEP_CHAIN = " + ".join(["1"] * 2000)


class TestIngest:
    def test_samples_reproducibly(self, tmp_path):
        raw = tmp_path / "raw.jsonl"
        make_raw_gsm_file(raw, n=20)
        out1, out2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert main(["ingest", "--in", str(raw), "--out", str(out1),
                     "--n", "7", "--seed", "7"]) == 0
        assert main(["ingest", "--in", str(raw), "--out", str(out2),
                     "--n", "7", "--seed", "7"]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        records = read_jsonl(out1)
        assert len(records) == 7
        assert all(r.origin == "D" for r in records)
        assert records[0].steps[0].expression is not None

    def test_n_zero_gives_empty_corpus(self, tmp_path):
        raw = tmp_path / "raw.jsonl"
        make_raw_gsm_file(raw, n=5)
        out = tmp_path / "out.jsonl"
        assert main(["ingest", "--in", str(raw), "--out", str(out), "--n", "0"]) == 0
        assert read_jsonl(out) == []

    def test_schema_error_exit_code(self, tmp_path):
        raw = tmp_path / "raw.jsonl"
        raw.write_text("not json\n")
        assert main(["ingest", "--in", str(raw), "--out", str(tmp_path / "o.jsonl")]) == 2

    def test_unreadable_expression_is_skipped(self, tmp_path, capsys):
        # a record that no reader would load is never written
        raw = tmp_path / "raw.jsonl"
        raw.write_text(json.dumps({"question": "How many toys does each get?",
                                   "rationale": "He splits 4 / 0 = 2 toys.", "answer": 2}) + "\n")
        out = tmp_path / "out.jsonl"
        assert main(["ingest", "--in", str(raw), "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert "ingested 0 records (1 skipped)" in captured.out
        assert "division by zero" in captured.err
        assert read_jsonl(out) == []

    def test_a_zero_denominator_answer_is_skipped(self, tmp_path, capsys):
        raw = tmp_path / "raw.jsonl"
        make_raw_gsm_file(raw, n=2)
        with open(raw, "a", encoding="utf-8") as handle:
            handle.write(json.dumps({"question": "How many?",
                                     "answer": "He has 2 + 3 = 5 toys.\n#### 1/0"}) + "\n")
        out = tmp_path / "out.jsonl"
        assert main(["ingest", "--in", str(raw), "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert "ingested 2 records (1 skipped)" in captured.out
        assert "zero denominator" in captured.err
        assert len(read_jsonl(out)) == 2

    def test_a_too_deep_expression_is_skipped(self, tmp_path, capsys):
        raw = tmp_path / "raw.jsonl"
        make_raw_gsm_file(raw, n=2)
        with open(raw, "a", encoding="utf-8") as handle:
            handle.write(json.dumps({"question": "How many toys?", "answer": 2000,
                                     "rationale": f"He adds {DEEP_CHAIN} = 2000 toys."}) + "\n")
        out = tmp_path / "out.jsonl"
        assert main(["ingest", "--in", str(raw), "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert "ingested 2 records (1 skipped)" in captured.out
        assert "tree depth exceeds 16" in captured.err
        assert len(read_jsonl(out)) == 2


@pytest.mark.parametrize("argv", [
    ["ingest", "--n", "-1"],
    ["gen-alt", "--k", "-1"],
    ["gen-alt", "--max-rewrites", "0"],
    ["gen-alt", "--k", "three"],
])
def test_out_of_range_numeric_flags_are_usage_errors(argv, tmp_path, capsys):
    command, *flag = argv
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--in", str(tmp_path / "in.jsonl"), "--out", str(tmp_path / "o"), *flag])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and f"argument {flag[0]}" in err and "Traceback" not in err


class TestGenAltAndReview:
    def test_gen_alt_writes_candidates(self, tmp_path):
        conventional, _ = _small_corpus(tmp_path)
        out = tmp_path / "candidates.jsonl"
        assert main(["gen-alt", "--in", str(conventional), "--out", str(out),
                     "--k", "3", "--seed", "5"]) == 0
        candidates = read_jsonl(out)
        assert candidates
        assert all(c.origin == "D1" and c.candidate_rank for c in candidates)

    def test_review_select_and_resume(self, tmp_path, monkeypatch):
        conventional, _ = _small_corpus(tmp_path)
        candidates = tmp_path / "candidates.jsonl"
        main(["gen-alt", "--in", str(conventional), "--out", str(candidates),
              "--k", "2", "--seed", "5"])
        n_sources = len({(r.lineage or {})["source_id"] for r in read_jsonl(candidates)})
        assert n_sources >= 2

        out = tmp_path / "dprime.jsonl"
        audit = tmp_path / "audit.jsonl"

        answers = iter(["", "q"])  # accept top-ranked once, then quit
        monkeypatch.setattr("builtins.input", lambda prompt="": next(answers))
        rc = main(["review", "--candidates", str(candidates), "--out", str(out),
                   "--audit", str(audit)])
        assert rc == 4  # user abort, resumable
        assert len(read_jsonl(out)) == 1

        # resume: previously decided sources are skipped; reject the rest
        answers = iter(["r"] * (n_sources - 1))
        monkeypatch.setattr("builtins.input", lambda prompt="": next(answers))
        rc = main(["review", "--candidates", str(candidates), "--out", str(out),
                   "--audit", str(audit)])
        assert rc == 0
        selected = read_jsonl(out)
        assert len(selected) == 1
        assert selected[0].candidate_rank == 1

    def test_review_rejects_non_numeric_choice(self, tmp_path, monkeypatch):
        conventional, _ = _small_corpus(tmp_path)
        candidates = tmp_path / "candidates.jsonl"
        main(["gen-alt", "--in", str(conventional), "--out", str(candidates),
              "--k", "2", "--seed", "5"])
        audit = tmp_path / "audit.jsonl"
        monkeypatch.setattr("builtins.input", lambda prompt="": "x")
        rc = main(["review", "--candidates", str(candidates),
                   "--out", str(tmp_path / "dprime.jsonl"), "--audit", str(audit)])
        assert rc == 4
        assert not audit.exists()  # nothing decided

    def test_review_quits_on_closed_input(self, tmp_path, monkeypatch):
        conventional, _ = _small_corpus(tmp_path)
        candidates = tmp_path / "candidates.jsonl"
        main(["gen-alt", "--in", str(conventional), "--out", str(candidates),
              "--k", "2", "--seed", "5"])
        out, audit = tmp_path / "dprime.jsonl", tmp_path / "audit.jsonl"
        answers = iter([""])  # accept the top-ranked candidate, then input ends

        def closed_after_one(prompt=""):
            for answer in answers:
                return answer
            raise EOFError

        monkeypatch.setattr("builtins.input", closed_after_one)
        rc = main(["review", "--candidates", str(candidates), "--out", str(out),
                   "--audit", str(audit)])
        assert rc == 4  # like q: the decision made is kept
        assert len(audit.read_text().splitlines()) == 1
        assert len(read_jsonl(out)) == 1


def _small_corpus(tmp_path):
    conventional, alternative = (tmp_path / "d.jsonl", tmp_path / "dprime.jsonl")
    if not conventional.exists():
        from askbd.demo import build_labeled_corpus

        d, dp, _ = build_labeled_corpus(3, seed=99)
        write_jsonl(d, conventional)
        write_jsonl(dp, alternative)
    return conventional, alternative


class TestInjectCli:
    def test_all_categories(self, tmp_path):
        conventional, _ = _small_corpus(tmp_path)
        out = tmp_path / "errors.jsonl"
        assert main(["inject", "--category", "all", "--seed", "3",
                     "--in", str(conventional), "--out", str(out)]) == 0
        injected = read_jsonl(out)
        assert len(injected) == 12
        assert {r.label.category for r in injected} == {"calc", "ref", "missing", "halluc"}

    def test_single_category(self, tmp_path):
        conventional, _ = _small_corpus(tmp_path)
        out = tmp_path / "calc.jsonl"
        assert main(["inject", "--category", "calc", "--seed", "3",
                     "--in", str(conventional), "--out", str(out)]) == 0
        assert all(r.label.category == "calc" for r in read_jsonl(out))

    def test_same_seed_identical_output(self, tmp_path):
        conventional, _ = _small_corpus(tmp_path)
        a, b = tmp_path / "ia.jsonl", tmp_path / "ib.jsonl"
        main(["inject", "--category", "all", "--seed", "9",
              "--in", str(conventional), "--out", str(a)])
        main(["inject", "--category", "all", "--seed", "9",
              "--in", str(conventional), "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("field", ["answer", "result"])
def test_a_zero_denominator_in_a_corpus_exits_2_naming_the_file_and_line(
    tmp_path, capsys, field
):
    info = build_demo(tmp_path / "demo", n_questions=1)
    lines = info["corpus"].read_text(encoding="utf-8").splitlines(keepends=True)
    bad = json.loads(lines[1])
    if field == "answer":
        bad["answer"] = "1/0"
    else:
        bad["steps"][0]["result"] = "1/0"
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(lines[0] + json.dumps(bad) + "\n", encoding="utf-8")
    for command in (["gen-alt", "--k", "3"], ["inject", "--category", "all"]):
        argv = command + ["--in", str(corpus), "--out", str(tmp_path / "out.jsonl")]
        assert main(argv) == 2, command[0]
        err = capsys.readouterr().err
        assert err.startswith("schema error:") and "Traceback" not in err
        assert str(corpus) in err and "(line 2)" in err and "zero denominator" in err


@pytest.mark.parametrize("field, value", [("answer", 33), ("result", True), ("result", 0.5)])
def test_a_numeric_result_or_answer_in_a_corpus_exits_2_naming_the_field(
    tmp_path, capsys, field, value
):
    info = build_demo(tmp_path / "demo", n_questions=1)
    lines = info["corpus"].read_text(encoding="utf-8").splitlines(keepends=True)
    bad = json.loads(lines[1])
    if field == "answer":
        bad["answer"] = value
    else:
        bad["steps"][0]["result"] = value
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(lines[0] + json.dumps(bad) + "\n", encoding="utf-8")
    for command in (["gen-alt", "--k", "3"], ["inject", "--category", "all"]):
        argv = command + ["--in", str(corpus), "--out", str(tmp_path / "out.jsonl")]
        assert main(argv) == 2, command[0]
        err = capsys.readouterr().err
        assert err.startswith("schema error:") and "Traceback" not in err
        assert str(corpus) in err and "(line 2)" in err
        assert f"'{field}' must be a string, got {value!r}" in err


def test_a_too_deep_expression_in_a_corpus_exits_2_naming_the_file_and_line(
    tmp_path, capsys
):
    corpus = tmp_path / "deep.jsonl"
    step = {"index": 1, "statement": f"Add {DEEP_CHAIN} = 2000.",
            "expression": DEEP_CHAIN, "result": "2000"}
    corpus.write_text(json.dumps({"id": "deep", "question": "How many?", "origin": "D",
                                  "answer": "2000", "steps": [step]}) + "\n", encoding="utf-8")
    for command in (["gen-alt", "--k", "3"], ["inject", "--category", "all"]):
        argv = command + ["--in", str(corpus), "--out", str(tmp_path / "out.jsonl")]
        assert main(argv) == 2, command[0]
        err = capsys.readouterr().err
        assert err.startswith("schema error:") and "Traceback" not in err
        assert str(corpus) in err and "(line 1)" in err and "tree depth exceeds 16" in err


class TestDataConstructionIsPinned:
    """gen-alt and inject outputs on the demo's conventional records, byte
    for byte: composing, rewriting, explaining and injecting may be
    restructured, but what they write may not change."""

    CANDIDATES_SHA256 = "b225e0028905da948eaf0d4eb2fb1ffa2f86d57d461eb83fd42d98db267da4b4"
    INJECTED_SHA256 = "aad931f02111d55813fcb8215e7e4358e9ddc8357b5fd9153421bc643bdc453f"

    def test_gen_alt_then_inject(self, tmp_path):
        info = build_demo(tmp_path / "demo", n_questions=4)
        conventional = tmp_path / "d.jsonl"
        write_jsonl(
            [r for r in read_jsonl(info["corpus"]) if r.origin == "D" and not r.label.is_error],
            conventional,
        )
        candidates, injected = tmp_path / "cand.jsonl", tmp_path / "inj.jsonl"
        assert main(["gen-alt", "--in", str(conventional), "--out", str(candidates),
                     "--k", "3", "--seed", "0"]) == 0
        assert main(["inject", "--category", "all", "--seed", "0",
                     "--in", str(candidates), "--out", str(injected)]) == 0
        assert hashlib.sha256(candidates.read_bytes()).hexdigest() == self.CANDIDATES_SHA256
        assert hashlib.sha256(injected.read_bytes()).hexdigest() == self.INJECTED_SHA256


def test_gen_alt_and_inject_take_only_error_free_sources(tmp_path, capsys):
    corpus = build_demo(tmp_path / "demo", n_questions=4)["corpus"]
    error_free = {r.record_id for r in read_jsonl(corpus) if not r.label.is_error}
    candidates, injected = tmp_path / "cand.jsonl", tmp_path / "inj.jsonl"
    assert main(["gen-alt", "--in", str(corpus), "--out", str(candidates), "--k", "3"]) == 0
    assert main(["inject", "--category", "all", "--in", str(corpus),
                 "--out", str(injected)]) == 0
    err = capsys.readouterr().err
    assert "carries an error label" in err
    for path, count in ((candidates, 10), (injected, 32)):
        sources = [r.lineage["source_id"] for r in read_jsonl(path)]
        assert len(sources) == count
        assert set(sources) <= error_free


def test_inject_names_each_erroneous_source_on_one_line(tmp_path, capsys):
    corpus = read_jsonl(build_demo(tmp_path / "demo", n_questions=4)["corpus"])
    single = make_record(
        question="Add 3 and 4.",
        steps=(SolutionStep(1, "Add: 3 + 4 = 7.", "3 + 4", Fraction(7)),),
        answer=7,
    )
    sources, injected = tmp_path / "sources.jsonl", tmp_path / "inj.jsonl"
    write_jsonl(corpus + [single], sources)
    assert main(["inject", "--category", "all", "--in", str(sources),
                 "--out", str(injected)]) == 0
    out, err = capsys.readouterr()
    erroneous = [r.record_id for r in corpus if r.label.is_error]
    assert len(erroneous) == 32
    # one line per erroneous record, and a category-specific refusal per category
    assert err.splitlines() == [
        f"cannot inject into {rid}: record {rid} already carries an error label"
        for rid in erroneous
    ] + [f"cannot inject missing into {single.record_id}: "
         f"record {single.record_id} has a single step"]
    assert f"injected 35 records (129 skipped) -> {injected}" in out


def _count_scoring(monkeypatch):
    """The ids of the records `likelihood.score_solution` is asked to score."""
    calls = []
    real_score = likelihood.score_solution

    def counting(*args, **kwargs):
        calls.append(args[0].record_id)
        return real_score(*args, **kwargs)

    monkeypatch.setattr(likelihood, "score_solution", counting)
    return calls


class TestScoreLikelihoodCli:
    def test_scores_and_analysis(self, demo_dir, tmp_path):
        scores = tmp_path / "scores.jsonl"
        analysis = tmp_path / "analysis.csv"
        rc = main([
            "score-likelihood",
            "--profiles", "scorer",
            "--profiles-file", str(demo_dir / "profiles.json"),
            "--in", str(demo_dir / "corpus.jsonl"),
            "--out", str(scores),
            "--analysis", str(analysis),
        ])
        assert rc == 0
        lines = scores.read_text().strip().splitlines()
        assert len(lines) == 30  # one per record for the single profile
        header = analysis.read_text().splitlines()[0]
        assert header == "record_id,indicator,bucket,correct"

    def test_analysis_of_fewer_than_4_records_is_schema_error(
        self, demo_dir, tmp_path, capsys, monkeypatch
    ):
        calls = _count_scoring(monkeypatch)
        corpus = tmp_path / "three.jsonl"
        write_jsonl(read_jsonl(demo_dir / "corpus.jsonl")[:3], corpus)
        scores, analysis = tmp_path / "s.jsonl", tmp_path / "analysis.csv"
        assert main([
            "score-likelihood", "--profiles", "scorer",
            "--profiles-file", str(demo_dir / "profiles.json"),
            "--in", str(corpus), "--out", str(scores),
            "--analysis", str(analysis),
        ]) == 2
        err = capsys.readouterr().err
        assert err.startswith("schema error:") and str(corpus) in err, err
        assert "need at least 4 records, got 3" in err, err
        # refused before the first scoring request, so neither output is made
        assert calls == []
        assert not scores.exists() and not analysis.exists()

    def test_unknown_profile_is_schema_error(self, demo_dir, tmp_path, capsys):
        corpus = str(demo_dir / "corpus.jsonl")

        def score(profiles_file, names="nope"):
            return main([
                "score-likelihood", "--profiles", names,
                "--profiles-file", str(profiles_file),
                "--in", corpus, "--out", str(tmp_path / "s.jsonl"),
            ])

        def detect(profiles_file, name):
            return main([
                "detect", "--strategy", "M0", "--profile", name,
                "--profiles-file", str(profiles_file),
                "--in", corpus, "--out", str(tmp_path / "d"),
            ])

        def run(profiles_file):
            config = tmp_path / "run.json"
            config.write_text(json.dumps({
                "profiles": str(profiles_file), "strategies": ["M0"], "seeds": [1],
                "corpora": [corpus], "out": str(tmp_path / "out"),
            }))
            return main(["run", "--config", str(config)])

        # an unknown profile, or one that lacks the capability the command
        # needs, is a schema error that names the file
        demo_profiles = demo_dir / "profiles.json"
        for command, name in ((score, "nope"), (score, "demo"),
                              (detect, "nope"), (detect, "scorer")):
            assert command(demo_profiles, name) == 2
            err = capsys.readouterr().err
            assert err.startswith("schema error:") and str(demo_profiles) in err, err
        # so is a missing or malformed profiles file, an entry with a
        # missing or unknown key, a value of the wrong type or out of range,
        # a name used twice, and, for run, no profile that can generate;
        # each names the file and the offending field
        profiles = tmp_path / "profiles.json"
        entry = {"name": "x", "endpoint": "mock:score", "model": "m",
                 "capabilities": ["score_tokens"]}
        cases = [(None, ""), ('{"profiles": [', ""),
                 ('{"profiles": [{"name": "x", "model": "m"}]}', "endpoint"),
                 ("{}", "'profiles'"), (json.dumps({"profiles": [entry, entry]}), "name"),
                 (json.dumps({"profiles": [entry]}), "")]
        cases += [(json.dumps({"profiles": [{**entry, key: bad}]}), key) for key, bad in (
            ("endpoint", 5), ("name", ["a"]), ("model", 5), ("capabilities", "generate"),
            ("capabilities", ["fly"]), ("record", "yes"), ("record", False),
            ("cassette", "c.jsonl"), ("rate_limit_per_min", 0),
            ("rate_limit_per_min", "60"), ("retry", {"max_attempts": 0}),
            ("retry", {"backoff": float("nan")}), ("cassete", "c.jsonl"),
        )]
        for text, field in cases:
            if text is None:
                profiles.unlink(missing_ok=True)
            else:
                profiles.write_text(text)
            for command in (score, run):
                assert command(profiles) == 2, (command.__name__, text)
                err = capsys.readouterr().err
                assert err.startswith("schema error:") and str(profiles) in err, err
                assert field in err, (field, err)

    def test_missing_or_malformed_results_is_schema_error(self, demo_dir, tmp_path, capsys):
        results = tmp_path / "results.csv"
        for text in (None, "a,b\n1,2\n", "record_id,correct\nx,1\n"):
            if text is not None:
                results.write_text(text)
            rc = main([
                "score-likelihood", "--profiles", "scorer",
                "--profiles-file", str(demo_dir / "profiles.json"),
                "--in", str(demo_dir / "corpus.jsonl"),
                "--out", str(tmp_path / "s.jsonl"),
                "--analysis", str(tmp_path / "a.csv"), "--results", str(results),
            ])
            assert rc == 2
            err = capsys.readouterr().err
            assert err.startswith("schema error:") and str(results) in err, err

    def test_bad_outputs_and_results_are_refused_before_any_scoring(
        self, demo_dir, tmp_path, capsys, monkeypatch
    ):
        calls = _count_scoring(monkeypatch)
        under = demo_dir / "corpus.jsonl" / "x.csv"
        no_columns = tmp_path / "no_columns.csv"
        no_columns.write_text("record_id,correct\nx,1\n")
        scores = tmp_path / "s.jsonl"
        cases = [(under, None, None), (scores, under, None),
                 (scores, tmp_path / "a.csv", tmp_path / "missing.csv"),
                 (scores, tmp_path / "a.csv", no_columns)]
        for out, analysis, results in cases:
            argv = ["score-likelihood", "--profiles", "scorer",
                    "--profiles-file", str(demo_dir / "profiles.json"),
                    "--in", str(demo_dir / "corpus.jsonl"), "--out", str(out)]
            if analysis:
                argv += ["--analysis", str(analysis)]
            if results:
                argv += ["--results", str(results)]
            assert main(argv) == 2, argv
            captured = capsys.readouterr()
            assert captured.err.startswith("schema error:") and captured.out == "", captured
            assert calls == [], argv
            # neither output is written, or made, when the input is refused
            assert not scores.exists(), argv

    def test_bucket_accuracy_skips_records_without_a_result(self, demo_dir, tmp_path, capsys):
        assert main(["detect", "--strategy", "M0", "--profile", "demo",
                     "--profiles-file", str(demo_dir / "profiles.json"),
                     "--in", str(demo_dir / "corpus.jsonl"), "--out", str(tmp_path / "d"),
                     "--strict-scripted"]) == 0
        # keep only the conventional records' rows
        rows = (tmp_path / "d" / "results.csv").read_text().splitlines(keepends=True)
        results = tmp_path / "results.csv"
        results.write_text(rows[0] + "".join(r for r in rows[1:] if r.split(",")[2] == "D"))
        analysis = tmp_path / "analysis.csv"
        # a strategy with no rows joins no record at all
        for strategy in ([], ["--strategy", "M9"]):
            capsys.readouterr()
            assert main(["score-likelihood", "--profiles", "scorer",
                         "--profiles-file", str(demo_dir / "profiles.json"),
                         "--in", str(demo_dir / "corpus.jsonl"),
                         "--out", str(tmp_path / "s.jsonl"), "--analysis", str(analysis),
                         "--results", str(results), *strategy]) == 0
            captured = capsys.readouterr()
            with open(analysis, newline="") as handle:
                cells = list(csv.DictReader(handle))
            blank = sum(1 for cell in cells if cell["correct"] == "")
            assert blank > 0
            assert f"{blank} scored records have no result row" in captured.err
            printed = dict(re.findall(r"^(Q\d): (\S+)$", captured.out, re.MULTILINE))
            for bucket in ("Q1", "Q2", "Q3", "Q4"):
                flags = [int(c["correct"]) for c in cells
                         if c["bucket"] == bucket and c["correct"]]
                expected = f"{sum(flags) / len(flags):.3f}" if flags else "undefined"
                assert printed[bucket] == expected, (strategy, bucket)


class TestDetectEvaluateRun:
    def test_run_is_byte_identical_across_directories(self, tmp_path):
        first = build_demo(tmp_path / "one", n_questions=3, seeds=(1, 2))
        second = build_demo(tmp_path / "two", n_questions=3, seeds=(1, 2))
        assert main(["run", "--config", str(first["config"])]) == 0
        assert main(["run", "--config", str(second["config"])]) == 0
        for name in ("report.csv", "report.md", "results.csv", "stats.txt"):
            a = (tmp_path / "one" / "out" / name).read_bytes()
            b = (tmp_path / "two" / "out" / name).read_bytes()
            assert a == b, name

    def test_a_record_id_twice_in_the_input_is_refused_before_any_backend_opens(
        self, demo_dir, tmp_path, capsys, monkeypatch
    ):
        opened = []
        monkeypatch.setattr(cli, "open_backend", lambda *args, **kwargs: opened.append(args))
        corpus = str(demo_dir / "corpus.jsonl")
        first = read_jsonl(corpus)[0].record_id
        twice = tmp_path / "twice.jsonl"
        twice.write_text((demo_dir / "corpus.jsonl").read_text() * 2)
        config = tmp_path / "run.json"
        config.write_text(json.dumps({**json.loads((demo_dir / "run.json").read_text()),
                                      "corpora": [corpus, corpus],
                                      "out": str(tmp_path / "run")}))
        for argv in (["run", "--config", str(config)],
                     ["detect", "--strategy", "M0", "--profile", "demo",
                      "--profiles-file", str(demo_dir / "profiles.json"),
                      "--in", str(twice), "--out", str(tmp_path / "detect")]):
            assert main(argv) == 2, argv
            err = capsys.readouterr().err
            assert err.startswith("schema error:") and first in err, err
            assert opened == [] and not (tmp_path / argv[0]).exists(), argv

    def test_report_contains_full_matrix(self, demo_dir):
        assert main(["run", "--config", str(demo_dir / "run.json")]) == 0
        report = (demo_dir / "out" / "report.md").read_text()
        for strategy in ("M0", "M1", "M2", "M3"):
            assert f"D {strategy}" in report
            assert f"D' {strategy}" in report
            assert f"Delta {strategy}" in report

    def test_detect_then_evaluate_matches_run(self, demo_dir, tmp_path):
        detect_dir = tmp_path / "detect"
        rc = main([
            "detect", "--strategy", "M0", "--profile", "demo",
            "--profiles-file", str(demo_dir / "profiles.json"),
            "--in", str(demo_dir / "corpus.jsonl"),
            "--out", str(detect_dir), "--seeds", "1",
            "--strict-scripted",
        ])
        assert rc == 0
        transcripts = list((detect_dir / "transcripts").glob("*.jsonl"))
        assert len(transcripts) == 1
        entry = json.loads(transcripts[0].read_text().splitlines()[0])
        assert set(entry) == {"record_id", "strategy", "stage", "prompt", "response"}

        eval_dir = tmp_path / "eval"
        rc = main([
            "evaluate", "--transcripts", str(detect_dir / "transcripts"),
            "--gold", str(demo_dir / "corpus.jsonl"),
            "--out", str(eval_dir),
        ])
        assert rc == 0
        assert (eval_dir / "report.csv").exists()
        assert (eval_dir / "report.md").exists()

    def test_resume_skips_existing_transcripts(self, demo_dir, tmp_path):
        detect_dir = tmp_path / "resume"
        args = [
            "detect", "--strategy", "M1", "--profile", "demo",
            "--profiles-file", str(demo_dir / "profiles.json"),
            "--in", str(demo_dir / "corpus.jsonl"),
            "--out", str(detect_dir), "--seeds", "1", "--resume",
        ]
        assert main(args) == 0
        path = next((detect_dir / "transcripts").glob("*.jsonl"))
        before = path.read_bytes()
        results = (detect_dir / "results.csv").read_bytes()
        assert main(args) == 0
        assert path.read_bytes() == before  # nothing re-run
        assert (detect_dir / "results.csv").read_bytes() == results  # still judged

    def test_strict_scripted_refuses_network_profiles(self, demo_dir, tmp_path):
        profiles = tmp_path / "net.json"
        profiles.write_text(json.dumps({
            "profiles": [{
                "name": "live",
                "endpoint": "https://api.example.invalid/v1",
                "model": "big-model",
            }]
        }))
        rc = main([
            "detect", "--strategy", "M0", "--profile", "live",
            "--profiles-file", str(profiles),
            "--in", str(demo_dir / "corpus.jsonl"),
            "--out", str(tmp_path / "d"), "--seeds", "1",
            "--strict-scripted",
        ])
        assert rc == 3

    def test_missing_config_file_reference(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        fields = {
            "profiles": str(tmp_path / "missing.json"),
            "strategies": ["M0"],
            "seeds": [1],
            "corpora": [],
            "out": str(tmp_path / "out"),
        }
        config.write_text(json.dumps(fields))
        assert main(["run", "--config", str(config)]) == 2
        capsys.readouterr()
        # a missing or malformed config, an unknown key, a value of the
        # wrong type, an unknown strategy, no seeds or workers that is not
        # a positive integer is a schema error naming the config and the field
        cases = [(None, ""), ('{"strategies": [', "")]
        cases += [(json.dumps({**fields, key: bad}), key) for key, bad in (
            ("strategies", ["M9"]), ("seeds", "12"), ("seeds", []),
            *(("workers", bad) for bad in (0, -1, "2", True, 1.5)),
            ("out", 5), ("profile_names", "demo"), ("corpora", "x.jsonl"), ("profiles", 5),
            ("reference_corpus", 5), ("strict_scripted", "no"), ("strategy", ["M0"]),
        )]
        for text, field in cases:
            if text is None:
                config.unlink()
            else:
                config.write_text(text)
            assert main(["run", "--config", str(config)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("schema error:") and str(config) in err, err
            assert field in err, (field, err)

    def test_strict_scripted_run_makes_zero_network_calls(self, demo_dir, monkeypatch):
        import socket

        def refuse(*args, **kwargs):
            raise AssertionError("network call attempted under --strict-scripted")

        monkeypatch.setattr(socket, "socket", refuse)
        monkeypatch.setattr(socket, "create_connection", refuse)
        assert main(["run", "--config", str(demo_dir / "run.json")]) == 0

    def test_reference_resolution_semantics(self):
        from askbd.cli import _resolve_reference
        from askbd.demo import build_labeled_corpus
        from askbd.inject import inject
        from askbd.records import render_solution_text

        d, dp, _ = build_labeled_corpus(1, seed=17)
        base_d, base_dp = d[0], dp[0]
        erroneous = inject(base_dp, "calc", 5)
        pool = {r.record_id: r for r in (base_d, base_dp, erroneous)}

        # a correct alternative matches itself; its conventional reference is D
        assert _resolve_reference(base_dp, "ref_matching", pool) == \
            render_solution_text(base_dp)
        assert _resolve_reference(base_dp, "ref_conventional", pool) == \
            render_solution_text(base_d)
        # an erroneous record matches its correct ancestor, never itself
        assert _resolve_reference(erroneous, "ref_matching", pool) == \
            render_solution_text(base_dp)
        assert _resolve_reference(erroneous, "ref_conventional", pool) == \
            render_solution_text(base_d)

    def test_ref_matching_strategy(self, demo_dir, tmp_path):
        rc = main([
            "detect", "--strategy", "ref-matching", "--profile", "demo",
            "--profiles-file", str(demo_dir / "profiles.json"),
            "--in", str(demo_dir / "corpus.jsonl"),
            "--out", str(tmp_path / "ref"), "--seeds", "1",
            "--ref-corpus", str(demo_dir / "corpus.jsonl"),
        ])
        # scripted cassette has no entries for reference prompts built from
        # corpus ancestors, so outcomes are invalid, but the command itself
        # must complete and persist results
        assert rc == 0
        assert (tmp_path / "ref" / "results.csv").exists()

    def test_reference_strategy_needs_a_reference_corpus(self, tmp_path, capsys):
        info = build_demo(tmp_path / "demo", n_questions=2, seeds=(1,))
        config = json.loads(info["config"].read_text())
        no_corpus = tmp_path / "no_corpus.json"
        no_corpus.write_text(json.dumps({**config, "strategies": ["ref-matching"]}))
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        no_ancestor = tmp_path / "no_ancestor.json"
        no_ancestor.write_text(json.dumps(
            {**config, "strategies": ["M0", "ref-conventional"], "reference_corpus": str(empty)}
        ))
        detect = ["detect", "--strategy", "ref-conventional", "--profile", "demo",
                  "--profiles-file", str(info["profiles"]), "--in", str(info["corpus"]),
                  "--out", str(tmp_path / "out")]
        cases = [
            (["run", "--config", str(no_corpus)], "reference_corpus"),
            (detect, "--ref-corpus"),
            (["run", "--config", str(no_ancestor)], f"reference corpus {empty}"),
        ]
        for argv, field in cases:
            assert main(argv) == 2, argv
            err = capsys.readouterr().err
            assert err.startswith("schema error:") and field in err, err
            # the reference is resolved before the first cell starts
            for outdir in (tmp_path / "out", tmp_path / "demo" / "out"):
                assert not list(outdir.rglob("*.jsonl")), argv


REPORTS = ("report.md", "report.csv", "results.csv")


def _reports(outdir):
    return {name: (outdir / name).read_bytes() for name in REPORTS}


def _evaluate(info, outdir):
    assert main(["evaluate", "--transcripts", str(info["config"].parent / "out" / "transcripts"),
                 "--gold", str(info["corpus"]), "--out", str(outdir)]) == 0
    return _reports(outdir)


class TestOnePathToReports:
    """`run`, `evaluate` and `run --resume` judge the same transcripts the
    same way, so their reports agree byte for byte."""

    def test_seeds_across_a_digit_boundary(self, tmp_path):
        # a negative seed's transcript is named `seed-1`, and evaluate reads it
        for first, second in ((9, 10), (-1, 2)):
            outdir = tmp_path / f"seeds{first}"
            info = build_demo(outdir, n_questions=2, seeds=(first, second))
            assert main(["run", "--config", str(info["config"])]) == 0
            reports = _reports(outdir / "out")
            assert reports == _evaluate(info, outdir / "eval")
            rows = reports["results.csv"].decode().splitlines()[1:]
            seeds = [line.split(",")[3] for line in rows]
            assert seeds.index(str(second)) > seeds.index(str(first))

    def test_resume_after_complete_run(self, tmp_path):
        info = build_demo(tmp_path, n_questions=2, seeds=(1, 2))
        assert main(["run", "--config", str(info["config"])]) == 0
        reports = _reports(tmp_path / "out")
        assert main(["run", "--config", str(info["config"]), "--resume"]) == 0
        assert _reports(tmp_path / "out") == reports
        assert len(reports["results.csv"].splitlines()) == 1 + info["n_records"] * 4 * 2

    def test_stage_failures_are_judged_invalid(self, tmp_path):
        info = build_demo(tmp_path, n_questions=2, seeds=(1, 2))
        lines = info["cassette"].read_text().splitlines(keepends=True)
        info["cassette"].write_text("".join(l for i, l in enumerate(lines, 1) if i % 7))
        assert main(["run", "--config", str(info["config"])]) == 0
        reports = _reports(tmp_path / "out")
        assert reports == _evaluate(info, tmp_path / "eval")

        transcripts = sorted((tmp_path / "out" / "transcripts").glob("*.jsonl"))
        failed = set()
        lines_per_record = Counter()
        for path in transcripts:
            seed = path.stem.rsplit("seed", 1)[1]
            for line in path.read_text().splitlines():
                entry = json.loads(line)
                lines_per_record[(entry["record_id"], entry["strategy"], seed)] += 1
                if entry["stage"] == "failed":
                    assert entry["prompt"] == ""
                    assert re.match(
                        r"stage failure: (cqe|ssi|sqr|reg): UnscriptedRequest: ", entry["response"]
                    ), entry["response"]
                    failed.add((entry["record_id"], entry["strategy"], seed))
        assert failed
        rows = list(csv.DictReader(io.StringIO(reports["results.csv"].decode())))
        assert len(rows) == info["n_records"] * 4 * 2
        invalid = {(r["record_id"], r["strategy"], r["seed"]) for r in rows if r["valid"] == "0"}
        assert failed <= invalid

        # resuming re-detects exactly the failed records, which fail again:
        # it appends the lines their first attempts wrote, once more
        size = sum(lines_per_record.values())
        assert main(["run", "--config", str(info["config"]), "--resume"]) == 0
        assert _reports(tmp_path / "out") == reports
        assert sum(len(path.read_text().splitlines()) for path in transcripts) == \
            size + sum(lines_per_record[key] for key in failed)

    def test_run_judges_each_record_as_evaluate_judges_its_last_line(
        self, tmp_path, monkeypatch
    ):
        info = build_demo(tmp_path, n_questions=2, seeds=(1, 2))
        records = read_jsonl(info["corpus"])
        entries = load_cassette(info["cassette"])

        def key(prompt, attempt=0):
            messages = [{"role": "user", "content": prompt}]
            return generate_fingerprint("demo-model", messages, GenerationParams(attempt=attempt))

        garbled, twice, failing = records[:3]
        # M0 on `garbled`: an invalid reply, then a valid one on the re-ask
        prompt = grading_prompt(garbled, "M0")
        entries[key(prompt, 1)] = entries[key(prompt)]
        entries[key(prompt)] = {"response": "no verdict"}
        # M1 on `twice`: an invalid reply, and another on the re-ask
        prompt = grading_prompt(twice, "M1")
        entries[key(prompt)] = {"response": "no verdict"}
        entries[key(prompt, 1)] = {"response": "Step 1: <correct>\nStep 1: <correct>"}
        # M2 and M3 on `failing`: the ssi request is unscripted
        del entries[key(ssi_prompt(failing))]
        write_cassette(entries, info["cassette"])

        returned = {}
        run_detection = cli._run_detection

        def noting(records, profile, backend, strategy, seed, outdir, *rest):
            outcomes = run_detection(records, profile, backend, strategy, seed, outdir, *rest)
            returned[(strategy, seed)] = outcomes
            return outcomes

        monkeypatch.setattr(cli, "_run_detection", noting)
        assert main(["run", "--config", str(info["config"])]) == 0
        assert _reports(tmp_path / "out") == _evaluate(info, tmp_path / "eval")

        gold = {r.record_id: r for r in records}
        assert len(returned) == 4 * 2
        for (strategy, seed), outcomes in returned.items():
            path = cli._transcript_path(tmp_path / "out", "demo", strategy, seed)
            lines = cli._read_outcomes(path)
            assert list(outcomes) == list(lines) == list(gold)
            for record_id, outcome in outcomes.items():
                assert isinstance(outcome, DetectionOutcome)
                last = lines[record_id]
                assert outcome == outcome_of(*last, len(gold[record_id].steps)), \
                    (strategy, seed, record_id)
            stages = [json.loads(line)["stage"] for line in path.read_text().splitlines()]
            reasked = {"M0": 1, "M1": 1}.get(strategy, 0)
            assert stages.count("reg") == len(gold) + reasked - (strategy in ("M2", "M3"))
            assert outcomes[garbled.record_id].valid
            assert outcomes[twice.record_id].valid is (strategy != "M1")
            assert outcomes[failing.record_id].valid is (strategy in ("M0", "M1"))
        assert returned[("M1", 1)][twice.record_id].invalid_reason == "duplicate line for step 1"
        assert returned[("M3", 2)][failing.record_id].invalid_reason.startswith(
            "stage failure: ssi: UnscriptedRequest: ")

    def test_a_scripted_run_asks_every_stage_once(self, tmp_path):
        info = build_demo(tmp_path, n_questions=2, seeds=(1,))
        assert main(["run", "--config", str(info["config"]), "--strict-scripted"]) == 0
        for strategy, expected in (("M0", ["reg"]), ("M1", ["reg"]),
                                   ("M2", ["cqe", "ssi", "sqr", "reg"]),
                                   ("M3", ["cqe", "ssi", "sqr", "reg"])):
            path = tmp_path / "out" / "transcripts" / f"demo__{strategy}__seed1.jsonl"
            stages = {}
            for line in path.read_text().splitlines():
                entry = json.loads(line)
                stages.setdefault(entry["record_id"], []).append(entry["stage"])
            assert len(stages) == info["n_records"]
            assert all(found == expected for found in stages.values()), strategy

    def test_interrupted_run_resumes_to_the_same_reports(self, tmp_path, monkeypatch):
        whole = build_demo(tmp_path / "whole", n_questions=2, seeds=(1, 2))
        cut = build_demo(tmp_path / "cut", n_questions=2, seeds=(1, 2))
        assert main(["run", "--config", str(whole["config"])]) == 0

        calls = itertools.count()
        real_detect = cli.detect

        def interrupted(*args, **kwargs):
            if next(calls) == 25:
                raise KeyboardInterrupt
            return real_detect(*args, **kwargs)

        monkeypatch.setattr(cli, "detect", interrupted)
        assert main(["run", "--config", str(cut["config"])]) == 4
        # the 26th detection is the 6th of the second cell; the records
        # finished before it were kept
        cell = "demo__M0__seed2.jsonl"
        partial = (tmp_path / "cut" / "out" / "transcripts" / cell).read_text()
        whole_cell = (tmp_path / "whole" / "out" / "transcripts" / cell).read_text()
        assert 0 < len(partial) < len(whole_cell)
        assert whole_cell.startswith(partial)
        monkeypatch.setattr(cli, "detect", real_detect)
        assert main(["run", "--config", str(cut["config"]), "--resume"]) == 0

        assert _reports(tmp_path / "cut" / "out") == _reports(tmp_path / "whole" / "out")
        for path in (tmp_path / "whole" / "out" / "transcripts").glob("*.jsonl"):
            resumed = tmp_path / "cut" / "out" / "transcripts" / path.name
            assert resumed.read_bytes() == path.read_bytes(), path.name

    def test_a_torn_last_line_is_detected_again_on_resume(self, tmp_path, capsys):
        info = build_demo(tmp_path, n_questions=2, seeds=(1, 2))
        assert main(["run", "--config", str(info["config"])]) == 0
        reports = _reports(tmp_path / "out")
        cell = tmp_path / "out" / "transcripts" / "demo__M0__seed1.jsonl"
        whole = cell.read_bytes()
        cell.write_bytes(whole[:-40])
        # evaluate still refuses the torn line; resume detects its record again
        assert main(["evaluate", "--transcripts", str(cell.parent), "--gold", str(info["corpus"]),
                     "--out", str(tmp_path / "eval")]) == 2
        assert capsys.readouterr().err.startswith("schema error:")
        assert main(["run", "--config", str(info["config"]), "--resume"]) == 0
        assert _reports(tmp_path / "out") == reports
        assert cell.read_bytes() == whole

    def test_a_torn_record_is_written_once_on_resume(self, tmp_path):
        # an M2 record writes cqe, ssi, sqr and reg lines; cutting into its
        # reg line leaves its first three, which resuming must not repeat
        info = build_demo(tmp_path, n_questions=4, seeds=(1,))
        assert main(["run", "--config", str(info["config"]), "--strict-scripted"]) == 0
        cell = tmp_path / "out" / "transcripts" / "demo__M2__seed1.jsonl"
        whole = cell.read_bytes()
        cell.write_bytes(whole[:-40])
        assert main(["run", "--config", str(info["config"]), "--strict-scripted", "--resume"]) == 0
        assert cell.read_bytes() == whole

    @pytest.mark.parametrize("extra", ['{"record_id": "x"}\n', "not json\n"])
    def test_resume_stops_at_a_whole_line_that_is_no_transcript_line(
        self, tmp_path, capsys, extra
    ):
        info = build_demo(tmp_path, n_questions=1, seeds=(1,))
        assert main(["run", "--config", str(info["config"]), "--strict-scripted"]) == 0
        cell = tmp_path / "out" / "transcripts" / "demo__M2__seed1.jsonl"
        with open(cell, "a", encoding="utf-8") as handle:
            handle.write(extra)
        appended = cell.read_bytes()
        capsys.readouterr()
        assert main(["run", "--config", str(info["config"]), "--strict-scripted",
                     "--resume"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("schema error:") and str(cell) in err, err
        assert "(line 41)" in err, err
        assert cell.read_bytes() == appended

    def test_a_resumed_run_judges_the_outcomes_of_its_finished_transcripts(
        self, tmp_path, monkeypatch
    ):
        info = build_demo(tmp_path, n_questions=4, seeds=(1,))
        assert main(["run", "--config", str(info["config"])]) == 0
        reports = _reports(tmp_path / "out")
        # the cell's first outcome becomes a `failed` line, and its last line is torn
        cell = tmp_path / "out" / "transcripts" / "demo__M2__seed1.jsonl"
        lines = cell.read_text().splitlines(keepends=True)
        first = next(i for i, line in enumerate(lines) if json.loads(line)["stage"] == "reg")
        failed = {**json.loads(lines[first]), "stage": "failed", "prompt": "",
                  "response": "stage failure: reg: RateLimited: still rate limited"}
        lines[first] = jsonl_line(failed)
        cell.write_bytes("".join(lines).encode()[:-40])

        returned = {}
        run_detection = cli._run_detection

        def noting(records, profile, backend, strategy, seed, outdir, *rest):
            outcomes = run_detection(records, profile, backend, strategy, seed, outdir, *rest)
            returned[cli._transcript_path(outdir, profile.name, strategy, seed)] = outcomes
            return outcomes

        monkeypatch.setattr(cli, "_run_detection", noting)
        assert main(["run", "--config", str(info["config"]), "--resume"]) == 0
        assert len(returned) == 4
        gold = {r.record_id: r for r in read_jsonl(info["corpus"])}
        for path, outcomes in returned.items():
            finished = cli._read_outcomes(path)
            assert list(outcomes) == list(finished), path.name
            assert cli._judge_outcomes(outcomes, gold, "demo", "M2", 1) == \
                cli._judge_outcomes(finished, gold, "demo", "M2", 1), path.name
        # the failed record was detected again and keeps its slot
        resumed = list(cli._read_outcomes(cell).items())
        assert resumed[0][0] == failed["record_id"] and resumed[0][1][0] == "reg"
        assert isinstance(returned[cell][failed["record_id"]], DetectionOutcome)
        assert _reports(tmp_path / "out") == reports
        assert _evaluate(info, tmp_path / "eval") == reports

    def test_a_corrupt_transcript_or_cassette_exits_2(self, tmp_path, capsys):
        info = build_demo(tmp_path, n_questions=1, seeds=(1,))
        transcripts = tmp_path / "out" / "transcripts"
        transcripts.mkdir(parents=True)
        transcript = transcripts / "demo__M0__seed1.jsonl"
        transcript.write_text('{"record_id": "x", "sta\n')
        assert main(["evaluate", "--transcripts", str(transcripts),
                     "--gold", str(info["corpus"]), "--out", str(tmp_path / "eval")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("schema error:") and str(transcript) in err, err
        # so is a transcripts directory that is missing or holds no transcript
        for directory in (tmp_path / "missing", info["cassette"].parent):
            assert main(["evaluate", "--transcripts", str(directory),
                         "--gold", str(info["corpus"]), "--out", str(tmp_path / "eval")]) == 2
            err = capsys.readouterr().err
            assert err.startswith("schema error:") and str(directory) in err, err

        cassette = info["cassette"]
        lines = cassette.read_text().splitlines(keepends=True)
        no_hash = json.dumps({"response": "Step 1: <correct>"}) + "\n"
        cases = [(None, ""), ('{"request_hash": \n', "(line 3)"), (no_hash, "(line 3)")]
        for third_line, where in cases:
            if third_line is None:
                cassette.unlink()
            else:
                cassette.write_text("".join(lines[:2] + [third_line] + lines[3:]))
            assert main(["run", "--config", str(info["config"])]) == 2
            err = capsys.readouterr().err
            assert err.startswith("schema error:") and str(cassette) in err, err
            assert where in err, err

        # every JSONL input: a missing file or a line that is not JSON
        cassette.write_text("".join(lines))
        missing = tmp_path / "missing.jsonl"
        raw = tmp_path / "raw.jsonl"
        raw.write_text('{"question": "q", "answer": "1 + 1 = 2\\n#### 2"}\nnot json\n')
        config = json.loads(info["config"].read_text())
        no_reference = tmp_path / "no_reference.json"
        no_reference.write_text(json.dumps({**config, "reference_corpus": str(missing)}))
        audit = tmp_path / "audit.jsonl"
        audit.write_text('{"source_id": \n')
        cases = [
            (["detect", "--strategy", "M0", "--profile", "demo",
              "--profiles-file", str(info["profiles"]), "--in", str(missing),
              "--out", str(tmp_path / "d")], missing),
            (["evaluate", "--transcripts", str(tmp_path), "--gold", str(missing),
              "--out", str(tmp_path / "e")], missing),
            (["ingest", "--in", str(raw), "--out", str(tmp_path / "i.jsonl")], raw),
            (["run", "--config", str(no_reference)], missing),
            (["review", "--candidates", str(info["corpus"]), "--out", str(tmp_path / "r.jsonl"),
              "--audit", str(audit)], audit),
        ]
        for argv, path in cases:
            assert main(argv) == 2, argv[0]
            err = capsys.readouterr().err
            assert err.startswith("schema error:") and str(path) in err, err

    def test_an_output_path_under_a_regular_file_exits_2_naming_it(
        self, tmp_path, capsys, monkeypatch
    ):
        info = build_demo(tmp_path, n_questions=1, seeds=(1,))
        corpus, profiles = str(info["corpus"]), str(info["profiles"])
        under = info["corpus"] / "x.jsonl"
        config = json.loads(info["config"].read_text())
        bad_out = tmp_path / "bad_out.json"
        bad_out.write_text(json.dumps({**config, "out": str(info["corpus"] / "out")}))
        transcripts = tmp_path / "t"
        transcripts.mkdir()
        (transcripts / "demo__M0__seed1.jsonl").write_text("")
        cases = [
            ["run", "--config", str(bad_out), "--strict-scripted"],
            ["detect", "--strategy", "M0", "--profile", "demo", "--profiles-file", profiles,
             "--in", corpus, "--out", str(info["corpus"] / "d"), "--strict-scripted"],
            ["gen-alt", "--in", corpus, "--out", str(under)],
            ["inject", "--category", "all", "--in", corpus, "--out", str(under)],
            ["score-likelihood", "--profiles", "scorer", "--profiles-file", profiles,
             "--in", corpus, "--out", str(under)],
            ["score-likelihood", "--profiles", "scorer", "--profiles-file", profiles,
             "--in", corpus, "--out", str(tmp_path / "s.jsonl"), "--analysis", str(under)],
            ["evaluate", "--transcripts", str(transcripts), "--gold", corpus,
             "--out", str(info["corpus"] / "e")],
            ["review", "--candidates", corpus, "--out", str(under),
             "--audit", str(tmp_path / "audit.jsonl")],
            ["review", "--candidates", corpus, "--out", str(tmp_path / "r.jsonl"),
             "--audit", str(under)],
        ]
        monkeypatch.setattr("builtins.input", lambda prompt: "r")
        for argv in cases:
            assert main(argv) == 2, argv
            # gen-alt and inject name each erroneous source they skip first
            *skipped, last = capsys.readouterr().err.splitlines()
            assert all(line.startswith(("no candidates", "cannot inject")) for line in skipped)
            assert last.startswith("schema error: cannot write") and str(under.parent) in last

        # a live profile's `record_to` cassette is an output path as well
        entries = load_cassette(info["cassette"])

        def answering(url, payload, headers, timeout=60.0):
            params = GenerationParams(payload["temperature"], payload["max_tokens"])
            key = generate_fingerprint(payload["model"], payload["messages"], params)
            return 200, {"choices": [{"message": {"content": entries[key]["response"]}}]}

        # a transport that cannot reach its endpoint raises an OSError too,
        # and stays a backend error
        def unreachable(url, payload, headers, timeout=60.0):
            raise urllib.error.URLError("connection refused")

        live = {"endpoint": "http://127.0.0.1:9/v1", "model": "demo-model",
                "retry": {"max_attempts": 1, "backoff": 0}}
        live_profiles = tmp_path / "live.json"
        live_profiles.write_text(json.dumps({"profiles": [
            {"name": "live", **live}, {"name": "rec", **live, "record_to": str(under)},
        ]}))
        cases = [("rec", answering, 2, f"schema error: cannot write cassette {under}"),
                 ("live", unreachable, 3, "backend error: http://127.0.0.1:9/v1/chat")]
        for name, transport, status, message in cases:
            monkeypatch.setattr(backends, "_urllib_transport", transport)
            live_config = tmp_path / f"{name}_run.json"
            live_config.write_text(json.dumps({**config, "profiles": str(live_profiles),
                                               "profile_names": [name],
                                               "strict_scripted": False,
                                               "out": str(tmp_path / name)}))
            assert main(["run", "--config", str(live_config)]) == status, name
            err = capsys.readouterr().err
            assert err.startswith(message) and err.count("\n") == 1, err


class _ThreadLog(ExchangeStore):
    """An ExchangeStore that notes the thread of every generate call."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.threads = []

    def generate(self, messages, params):
        self.threads.append(threading.get_ident())
        return super().generate(messages, params)


def test_only_a_backend_that_waits_on_io_detects_on_threads(tmp_path):
    info = build_demo(tmp_path, n_questions=2, seeds=(1,))
    records = read_jsonl(info["corpus"])
    profile = load_profiles(info["profiles"])["demo"]
    entries = load_cassette(info["cassette"])
    scripted = _ThreadLog(entries, profile.model)
    recording = _ThreadLog({}, profile.model, inner=ExchangeStore(entries, profile.model))
    transcripts = []
    for backend, workers in ((scripted, 4), (recording, 2)):
        outdir = tmp_path / f"workers{workers}"
        cli._run_detection(records, profile, backend, "M2", 1, outdir, None, False, workers)
        transcripts.append(cli._transcript_path(outdir, profile.name, "M2", 1).read_bytes())
    caller = threading.get_ident()
    assert scripted.threads and set(scripted.threads) == {caller}
    assert recording.threads and caller not in recording.threads
    assert transcripts[0] == transcripts[1]


# texts JSON escapes, or that an ASCII-only encoder would escape
_AWKWARD_TEXTS = (
    '"', "\\", "".join(map(chr, range(0x20))), "\x7f", "\u2028\u2029",
    "naïve café: 5 × 3 — ½", "𝔸 😀 \U0010ffff", 'Step 1: "6 / 2 = 3"\\n\tthen\r\n<correct>',
)


def _exchanges_of(texts):
    stages = ("cqe", "ssi", "sqr", "reg")
    exchanges = [StageExchange(stages[i % 4], text, f"reply {i}: {text}")
                 for i, text in enumerate(texts)]
    # a failed line has an empty prompt
    return exchanges + [StageExchange(FAILED_STAGE, "", "stage failure: reg: RateLimited: 429")]


def _jsonl_lines(record_id, strategy, exchanges):
    return "".join(
        jsonl_line({"record_id": record_id, "strategy": strategy, "stage": e.stage,
                    "prompt": e.prompt, "response": e.response})
        for e in exchanges
    )


def test_transcript_lines_are_the_bytes_jsonl_line_writes():
    cases = [("a7707fb7e7bfbeb2", "M2", _exchanges_of(_AWKWARD_TEXTS)),
             ('odd "id" \\ ü', "ref_matching", _exchanges_of(reversed(_AWKWARD_TEXTS))),
             ("1b08f67665773480", "M0", _exchanges_of(_AWKWARD_TEXTS[:3]))]
    shared: dict[str, str] = {}
    for record_id, strategy, exchanges in cases:
        expected = _jsonl_lines(record_id, strategy, exchanges)
        assert cli._transcript_lines(record_id, strategy, exchanges) == expected
        assert cli._transcript_lines(record_id, strategy, exchanges, {}) == expected
        # a memo shared across calls, already holding these texts the second time
        for _ in range(2):
            assert cli._transcript_lines(record_id, strategy, exchanges, shared) == expected
    texts = {text for _, _, exchanges in cases for e in exchanges
             for text in (e.stage, e.prompt, e.response)}
    assert shared.keys() == texts


class _Waiting:
    """Answers from a scripted store after a short sleep, as a backend
    waits on its endpoint, and notes the thread of every call."""

    def __init__(self, store):
        self.store = store
        self.threads = set()

    def generate(self, messages, params):
        self.threads.add(threading.get_ident())
        time.sleep(0.0005)
        return self.store.generate(messages, params)


def test_seeds_on_threads_share_one_memo_and_write_the_scripted_transcripts(
    tmp_path, monkeypatch
):
    info = build_demo(tmp_path, n_questions=2, seeds=(1, 2))
    records = read_jsonl(info["corpus"])
    profile = load_profiles(info["profiles"])["demo"]
    config = cli.RunConfig(profiles=str(info["profiles"]), profile_names=("demo",),
                           strategies=("M2",), seeds=(1, 2), corpora=(str(info["corpus"]),),
                           out=str(tmp_path / "scripted"), strict_scripted=True, workers=1)
    cli._detect_cells(config, records, resume=False)

    waiting = _Waiting(ExchangeStore(load_cassette(info["cassette"]), profile.model))
    monkeypatch.setattr(cli, "open_backend", lambda profile, strict_scripted: waiting)
    memos = []
    transcript_lines = cli._transcript_lines

    def noting(record_id, strategy, exchanges, escaped=None):
        memos.append(escaped)
        return transcript_lines(record_id, strategy, exchanges, escaped)

    monkeypatch.setattr(cli, "_transcript_lines", noting)
    threaded = replace(config, out=str(tmp_path / "threaded"), workers=2)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # threads take turns between almost every bytecode
    try:
        cli._detect_cells(threaded, records, resume=False)
    finally:
        sys.setswitchinterval(interval)

    assert waiting.threads and threading.get_ident() not in waiting.threads
    assert len(memos) == 2 * len(records) and all(memo is memos[0] for memo in memos)
    texts = set()
    for seed in (1, 2):
        scripted = cli._transcript_path(tmp_path / "scripted", "demo", "M2", seed).read_bytes()
        path = cli._transcript_path(tmp_path / "threaded", "demo", "M2", seed)
        assert path.read_bytes() == scripted, seed
        for line in path.read_text(encoding="utf-8").splitlines(keepends=True):
            entry = json.loads(line)
            assert line == jsonl_line(entry)
            texts.update((entry["stage"], entry["prompt"], entry["response"]))
    assert memos[0].keys() == texts


def test_a_live_run_sends_every_exchange_and_a_recording_run_each_request_once(
    tmp_path, monkeypatch
):
    info = build_demo(tmp_path, n_questions=4, seeds=(1, 2))
    assert main(["run", "--config", str(info["config"])]) == 0
    entries = load_cassette(info["cassette"])
    asked = Counter()
    lock = threading.Lock()

    def endpoint(url, payload, headers, timeout=60.0):
        """Answers from the demo cassette and counts each fingerprint asked."""
        params = GenerationParams(payload["temperature"], payload["max_tokens"])
        key = generate_fingerprint(payload["model"], payload["messages"], params)
        with lock:
            asked[key] += 1
        return 200, {"choices": [{"message": {"content": entries[key]["response"]}}]}

    monkeypatch.setattr(backends, "_urllib_transport", endpoint)
    recorded = tmp_path / "recorded.jsonl"
    live = {"endpoint": "http://127.0.0.1:9/v1", "model": "demo-model",
            "rate_limit_per_min": 100_000}
    profiles = json.loads(info["profiles"].read_text())
    profiles["profiles"] += [{"name": "live", **live},
                             {"name": "rec", **live, "record_to": str(recorded)}]
    info["profiles"].write_text(json.dumps(profiles))
    scripted = sorted((tmp_path / "out" / "transcripts").glob("demo__*.jsonl"))
    assert len(scripted) == 4 * 2
    exchanges = sum(len(path.read_text().splitlines()) for path in scripted)

    for name in ("live", "rec"):
        asked.clear()
        config = tmp_path / f"{name}.json"
        config.write_text(json.dumps({**json.loads(info["config"].read_text()),
                                      "profile_names": [name], "strict_scripted": False,
                                      "out": str(tmp_path / name)}))
        assert main(["run", "--config", str(config)]) == 0
        for path in scripted:
            transcript = path.name.replace("demo__", f"{name}__", 1)
            assert (tmp_path / name / "transcripts" / transcript).read_bytes() == \
                path.read_bytes(), transcript
        if name == "live":
            # with no cassette to record into, every exchange is sent
            assert sum(asked.values()) == exchanges
        else:
            assert set(asked.values()) == {1} and len(asked) < exchanges
            assert set(load_cassette(recorded)) == set(asked)


def test_a_profile_in_the_retired_format_is_refused_before_any_request(
    demo_dir, tmp_path, monkeypatch, capsys
):
    def endpoint(url, payload, headers, timeout=60.0):
        raise AssertionError(f"sent a request to {url}")

    monkeypatch.setattr(backends, "_urllib_transport", endpoint)
    profiles = tmp_path / "profiles.json"
    config = tmp_path / "run.json"
    config.write_text(json.dumps({**json.loads((demo_dir / "run.json").read_text()),
                                  "profile_names": ["live"], "strict_scripted": False,
                                  "profiles": str(profiles),
                                  "out": str(tmp_path / "out")}))
    # a replay-only profile of the older format left `record` out
    old = {"name": "live", "endpoint": "https://api.example.com/v1", "model": "demo-model",
           "cassette": str(demo_dir / "cassette.jsonl")}
    for entry in (old, {**old, "record": False}, {**old, "record": True}):
        profiles.write_text(json.dumps({"profiles": [entry]}))
        assert main(["run", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("schema error:") and str(profiles) in err, err
        assert "'cassette'" in err and '"endpoint": "scripted:<cassette>"' in err, err
        assert not (tmp_path / "out").exists()


def test_a_profile_name_that_is_not_one_file_name_is_refused_before_any_transcript(
    demo_dir, tmp_path, capsys
):
    # the name starts each transcript's file name, which evaluate globs for
    profiles = json.loads((demo_dir / "profiles.json").read_text())
    config = json.loads((demo_dir / "run.json").read_text())
    for name in ("org/demo", "org\\demo", "", "de\0mo"):
        profiles["profiles"][0]["name"] = name
        (tmp_path / "profiles.json").write_text(json.dumps(profiles))
        (tmp_path / "run.json").write_text(json.dumps({
            **config, "profiles": str(tmp_path / "profiles.json"),
            "profile_names": [name], "out": str(tmp_path / "out"),
        }))
        assert main(["run", "--config", str(tmp_path / "run.json")]) == 2, repr(name)
        err = capsys.readouterr().err
        assert err.startswith("schema error:") and str(tmp_path / "profiles.json") in err, err
        assert "name" in err, err
        assert not (tmp_path / "out" / "transcripts").exists(), repr(name)
