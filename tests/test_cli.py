import csv
import gc
import hashlib
import io
import itertools
import json
import re
import socket
import sys
import threading
import time
import urllib.error
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest

from askbd import backends, cli, likelihood
from askbd import detect as detect_module
from askbd.backends import (
    ExchangeStore,
    GenerationParams,
    generate_fingerprint,
    load_cassette,
    load_profiles,
)
from askbd.cli import main
from askbd.demo import build_cassette, build_demo, write_cassette
from askbd.detect import (
    FAILED_STAGE,
    StageExchange,
    grading_prompt,
    outcome_of,
    ssi_prompt,
)
from askbd.records import SolutionStep, jsonl_line, make_record, read_jsonl, write_jsonl

from conftest import PROSE_QUESTION, PROSE_SOLUTION, JsonHandler, wait_until


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

    def test_a_gsm8k_answer_without_its_final_marker_is_skipped(self, tmp_path, capsys):
        raw = tmp_path / "raw.jsonl"
        make_raw_gsm_file(raw, n=2)
        with open(raw, "a", encoding="utf-8") as handle:
            handle.write(json.dumps({"question": "How many?",
                                     "answer": "He has 2 + 3 = 5 toys.\n5"}) + "\n")
        out = tmp_path / "out.jsonl"
        assert main(["ingest", "--in", str(raw), "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert "ingested 2 records (1 skipped)" in captured.out
        assert captured.err == "skipping record: no rationale/final-answer split found\n"
        assert len(read_jsonl(out)) == 2

    @pytest.mark.parametrize("field, raw", [
        ("question", {"question": 7, "rationale": "He has 3 + 4 = 7 toys.", "answer": 7}),
        ("rationale", {"question": "How many toys?", "rationale": 5, "answer": 5}),
        ("answer", {"question": "How many toys?", "answer": 5}),
    ])
    def test_a_text_field_of_another_type_is_skipped(self, tmp_path, capsys, field, raw):
        path = tmp_path / "raw.jsonl"
        make_raw_gsm_file(path, n=2)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(raw) + "\n")
        out = tmp_path / "out.jsonl"
        assert main(["ingest", "--in", str(path), "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert "ingested 2 records (1 skipped)" in captured.out
        assert f"'{field}' must be a string" in captured.err
        assert len(read_jsonl(out)) == 2

    def test_a_rationale_already_in_steps_keeps_them(self, tmp_path, prose_record):
        raw = tmp_path / "raw.jsonl"
        rationale = PROSE_SOLUTION.replace(" Step ", "\nStep ")
        raw.write_text(json.dumps({"question": PROSE_QUESTION, "rationale": rationale,
                                   "answer": 37}) + "\n")
        out = tmp_path / "out.jsonl"
        assert main(["ingest", "--in", str(raw), "--out", str(out)]) == 0
        assert read_jsonl(out) == [prose_record]

    def test_steps_read_as_prose_for_a_unary_minus_are_counted_on_stderr(
        self, tmp_path, capsys
    ):
        raw = tmp_path / "raw.jsonl"
        raw.write_text("".join(json.dumps(row) + "\n" for row in (
            {"question": "It was 8 degrees and rose 5. How warm is it?", "answer": 2,
             "rationale": "The low was -3 degrees.\nIt is -3 + 5 = 2 degrees now."},
            {"question": "A tank holds 3 liters and loses 5. What is its level?", "answer": -2,
             "rationale": "The level is 3 - 5 = -2 liters."},
        )))
        out = tmp_path / "out.jsonl"
        assert main(["ingest", "--in", str(raw), "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert captured.out == f"ingested 2 records (0 skipped) -> {out}\n"
        assert captured.err == ("1 steps read as prose: a unary minus precedes their left "
                                "side, and expression literals are unsigned\n")
        warm, tank = read_jsonl(out)
        assert [step.expression for step in warm.steps] == [None, None]
        assert [step.expression for step in tank.steps] == ["3 - 5"]

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

    def test_review_says_an_unknown_rank_quits_and_leaves_the_source_undecided(
        self, tmp_path, monkeypatch, capsys
    ):
        conventional, _ = _small_corpus(tmp_path)
        candidates = tmp_path / "candidates.jsonl"
        main(["gen-alt", "--in", str(conventional), "--out", str(candidates),
              "--k", "2", "--seed", "5"])
        source = read_jsonl(candidates)[0].lineage["source_id"]
        answers = iter(["9"])  # no candidate has rank 9; a second prompt would raise
        monkeypatch.setattr("builtins.input", lambda prompt="": next(answers))
        capsys.readouterr()
        rc = main(["review", "--candidates", str(candidates),
                   "--out", str(tmp_path / "dprime.jsonl"), "--audit", str(tmp_path / "a.jsonl")])
        assert rc == 4
        out = capsys.readouterr().out
        assert f"no candidate ranked 9; quitting, source {source} stays undecided" in out
        assert "try again" not in out

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


def _refused_field(tmp_path, capsys, field, value, kind):
    """gen-alt and inject on a corpus whose second record (a D′, with
    every optional field) holds `value` at `field` exit 2 naming the file,
    the line and the field."""
    info = build_demo(tmp_path / "demo", n_questions=1)
    lines = info["corpus"].read_text(encoding="utf-8").splitlines(keepends=True)
    bad = json.loads(lines[1])
    if field in ("index", "statement", "result"):
        bad["steps"][0][field] = value
    elif field == "label.step":
        bad["label"] = {"step": value, "category": "calc"}
    else:
        bad[field] = value
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(lines[0] + json.dumps(bad) + "\n", encoding="utf-8")
    for command in (["gen-alt", "--k", "3"], ["inject", "--category", "all"]):
        argv = command + ["--in", str(corpus), "--out", str(tmp_path / "out.jsonl")]
        assert main(argv) == 2, command[0]
        err = capsys.readouterr().err
        assert err.startswith("schema error:") and "Traceback" not in err
        assert str(corpus) in err and "(line 2)" in err
        assert f"'{field}' must be {kind}, got {value!r}" in err


@pytest.mark.parametrize("field, value", [("answer", 33), ("result", True), ("result", 0.5)])
def test_a_numeric_result_or_answer_in_a_corpus_exits_2_naming_the_field(
    tmp_path, capsys, field, value
):
    _refused_field(tmp_path, capsys, field, value, "a string")


@pytest.mark.parametrize("field, value", [
    ("index", True), ("index", 1.0), ("label.step", True), ("label.step", 1.0),
    ("candidate_rank", True), ("candidate_rank", 1.5),
])
def test_an_integer_field_in_a_corpus_refuses_a_bool_or_a_float(
    tmp_path, capsys, field, value
):
    _refused_field(tmp_path, capsys, field, value, "an integer")


@pytest.mark.parametrize("field, value", [
    ("id", 5), ("question", 5), ("statement", ["Add them."]),
    ("permuted_expression", 12), ("route", False),
])
def test_a_text_field_in_a_corpus_refuses_anything_but_a_string(
    tmp_path, capsys, field, value
):
    _refused_field(tmp_path, capsys, field, value, "a string")


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
    """gen-alt and inject outputs, byte for byte: composing, rewriting,
    explaining and injecting may be restructured, but what they write may
    not change."""

    @staticmethod
    def _gen_alt_then_inject(corpus, tmp_path) -> tuple[str, str]:
        """sha256 of `gen-alt --k 3 --seed 0` on `corpus`, and of
        `inject --category all --seed 0` on its candidates."""
        candidates, injected = tmp_path / "cand.jsonl", tmp_path / "inj.jsonl"
        assert main(["gen-alt", "--in", str(corpus), "--out", str(candidates),
                     "--k", "3", "--seed", "0"]) == 0
        assert main(["inject", "--category", "all", "--seed", "0",
                     "--in", str(candidates), "--out", str(injected)]) == 0
        return tuple(hashlib.sha256(path.read_bytes()).hexdigest()
                     for path in (candidates, injected))

    def test_gen_alt_then_inject(self, tmp_path):
        info = build_demo(tmp_path / "demo", n_questions=4)
        conventional = tmp_path / "d.jsonl"
        write_jsonl(
            [r for r in read_jsonl(info["corpus"]) if r.origin == "D" and not r.label.is_error],
            conventional,
        )
        assert self._gen_alt_then_inject(conventional, tmp_path) == (
            "b225e0028905da948eaf0d4eb2fb1ffa2f86d57d461eb83fd42d98db267da4b4",
            "aad931f02111d55813fcb8215e7e4358e9ddc8357b5fd9153421bc643bdc453f",
        )

    def test_gen_alt_then_inject_on_every_candidate_of_a_larger_demo(self, tmp_path):
        # every category on 131 candidates, where the demo's selected records
        # leave few to draw among
        info = build_demo(tmp_path / "demo", n_questions=50)
        assert self._gen_alt_then_inject(info["corpus"], tmp_path) == (
            "5614c680dca90d2683aa941979bd3f5f770be3cecd42853f495550d06ed56131",
            "2db70ca6c4c8417c6a24bcb8ae6fea0bf5d5a7a870599f1fc733a1eb7f7a70c7",
        )


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


def test_the_quick_start_chain_reaches_detect(tmp_path, capsys):
    # `missing` on two D′ candidates of one source can derive one record;
    # the injected file holds it once, so detect takes the file
    info = build_demo(tmp_path / "demo", n_questions=4)
    candidates, injected = tmp_path / "cand.jsonl", tmp_path / "inj.jsonl"
    assert main(["gen-alt", "--in", str(info["corpus"]), "--out", str(candidates),
                 "--k", "3"]) == 0
    assert main(["inject", "--category", "all", "--in", str(candidates),
                 "--out", str(injected)]) == 0
    assert f"injected 39 records (0 skipped) -> {injected}" in capsys.readouterr().out
    ids = [record.record_id for record in read_jsonl(injected)]
    assert len(ids) == len(set(ids)) == 39
    assert main(["detect", "--strategy", "M0", "--profile", "demo",
                 "--profiles-file", str(info["profiles"]), "--in", str(injected),
                 "--out", str(tmp_path / "inj-det"), "--strict-scripted"]) == 0


def test_an_input_listing_a_record_twice_derives_each_id_once(tmp_path, capsys, leaf_record):
    once, twice = tmp_path / "once.jsonl", tmp_path / "twice.jsonl"
    write_jsonl([leaf_record], once)
    twice.write_text(once.read_text() * 2)
    for command, flags in (("gen-alt", ["--k", "2"]), ("inject", ["--category", "all"])):
        written = []
        for source in (once, twice):
            out = tmp_path / f"{command}-{source.stem}.jsonl"
            assert main([command, "--in", str(source), "--out", str(out), *flags]) == 0
            written.append((out.read_bytes(), capsys.readouterr().out.split(" -> ")[0]))
        assert written[0] == written[1], command
        ids = [record.record_id for record in read_jsonl(out)]
        assert len(ids) == len(set(ids)) > 1, command


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

    def test_a_scorer_that_returns_no_continuation_token_is_a_backend_error(
        self, demo_dir, tmp_path, capsys, monkeypatch
    ):
        def prompt_only(url, payload, headers, *, connections):
            """Logprobs for one token at offset 0, inside the question."""
            logprobs = {"tokens": ["A"], "token_logprobs": [None], "text_offset": [0]}
            return 200, {"choices": [{"logprobs": logprobs}]}

        monkeypatch.setattr(backends, "_urllib_transport", prompt_only)
        profiles = tmp_path / "profiles.json"
        profiles.write_text(json.dumps({"profiles": [
            {"name": "live", "endpoint": "http://127.0.0.1:9/v1", "model": "m",
             "capabilities": ["score_tokens"]},
        ]}))
        scores = tmp_path / "scores.jsonl"
        assert main(["score-likelihood", "--profiles", "live", "--profiles-file", str(profiles),
                     "--in", str(demo_dir / "corpus.jsonl"), "--out", str(scores)]) == 3
        first = read_jsonl(demo_dir / "corpus.jsonl")[0].record_id
        assert capsys.readouterr().err == \
            f"backend error: record {first} scored zero tokens\n"
        # the output check before scoring made the file, and removed it when
        # scoring stopped
        assert not scores.exists()

    @pytest.mark.usefixtures("no_proxies")
    def test_a_score_reply_that_cannot_be_read_is_a_backend_error_without_a_traceback(
        self, demo_dir, tmp_path, capsys, loopback
    ):
        class ShortLogprobs(JsonHandler):
            """Echoes the prompt one token a character, with one logprob too few."""

            def do_POST(self):
                prompt = json.loads(self.rfile.read(int(self.headers["Content-Length"])))["prompt"]
                logprobs = {"tokens": list(prompt), "token_logprobs": [-0.5] * (len(prompt) - 1),
                            "text_offset": list(range(len(prompt)))}
                self.reply(200, json.dumps({"choices": [{"logprobs": logprobs}]}).encode())

        server = loopback(ShortLogprobs)
        profiles = tmp_path / "profiles.json"
        profiles.write_text(json.dumps({"profiles": [
            {"name": "live", "endpoint": server.url + "/v1", "model": "m",
             "capabilities": ["score_tokens"]},
        ]}))
        scores = tmp_path / "scores.jsonl"
        assert main(["score-likelihood", "--profiles", "live", "--profiles-file", str(profiles),
                     "--in", str(demo_dir / "corpus.jsonl"), "--out", str(scores)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("backend error: logprobs field 'token_logprobs' is not a list"), err
        assert "Traceback" not in err and not scores.exists()

    @pytest.mark.parametrize("stop, status", [
        (backends.MalformedResponse("no logprobs"), 3), (KeyboardInterrupt(), 4),
    ])
    def test_scoring_that_stops_removes_the_outputs_it_made_and_keeps_the_others(
        self, demo_dir, tmp_path, monkeypatch, stop, status
    ):
        calls = _count_scoring(monkeypatch)

        def stopping(*args, **kwargs):
            raise stop

        monkeypatch.setattr(backends.MockScoreBackend, "score_tokens", stopping)
        for existing in ("scores", "analysis"):
            outdir = tmp_path / existing
            outdir.mkdir()
            paths = {"scores": outdir / "scores.jsonl", "analysis": outdir / "buckets.csv"}
            paths[existing].write_bytes(b"kept\r\nas it was")
            assert main(["score-likelihood", "--profiles", "scorer",
                         "--profiles-file", str(demo_dir / "profiles.json"),
                         "--in", str(demo_dir / "corpus.jsonl"), "--out", str(paths["scores"]),
                         "--analysis", str(paths["analysis"])]) == status
            assert [path.name for path in outdir.iterdir()] == [paths[existing].name]
            assert paths[existing].read_bytes() == b"kept\r\nas it was"
        assert len(calls) == 2

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

    def test_a_record_listed_twice_is_refused_before_any_scoring(
        self, demo_dir, tmp_path, capsys, monkeypatch
    ):
        calls = _count_scoring(monkeypatch)
        twice = tmp_path / "twice.jsonl"
        twice.write_text((demo_dir / "corpus.jsonl").read_text() * 2)
        first = read_jsonl(demo_dir / "corpus.jsonl")[0].record_id
        scores = tmp_path / "s.jsonl"
        assert main([
            "score-likelihood", "--profiles", "scorer",
            "--profiles-file", str(demo_dir / "profiles.json"),
            "--in", str(twice), "--out", str(scores),
        ]) == 2
        err = capsys.readouterr().err
        assert err == f"schema error: record {first} appears more than once in --in {twice}\n"
        assert calls == [] and not scores.exists()

    def test_a_profile_asked_for_twice_is_refused_before_any_scoring(
        self, demo_dir, tmp_path, capsys, monkeypatch
    ):
        calls = _count_scoring(monkeypatch)
        corpus = tmp_path / "three.jsonl"
        write_jsonl(read_jsonl(demo_dir / "corpus.jsonl")[:3], corpus)
        profiles, scores = demo_dir / "profiles.json", tmp_path / "s.jsonl"
        assert main([
            "score-likelihood", "--profiles", "scorer,scorer", "--profiles-file", str(profiles),
            "--in", str(corpus), "--out", str(scores),
        ]) == 2
        err = capsys.readouterr().err
        assert err == (f"schema error: profiles file {profiles}: profile 'scorer' is asked for "
                       "more than once\n")
        assert calls == [] and not scores.exists()

    @pytest.mark.parametrize("names", [",", " "])
    def test_profiles_that_name_no_profile_are_refused_before_any_backend_opens(
        self, demo_dir, tmp_path, capsys, monkeypatch, names
    ):
        opened = []
        monkeypatch.setattr(cli, "open_backend", lambda *args, **kwargs: opened.append(args))
        scores = tmp_path / "s.jsonl"
        assert main([
            "score-likelihood", "--profiles", names,
            "--profiles-file", str(demo_dir / "profiles.json"),
            "--in", str(demo_dir / "corpus.jsonl"), "--out", str(scores),
        ]) == 2
        assert capsys.readouterr().err == f"schema error: --profiles {names!r} names no profile\n"
        assert opened == [] and not scores.exists()

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
            # a mock endpoint other than mock:score, and a scheme with no transport
            ("endpoint", "mock:score?mode=hash&scale=2.0"), ("endpoint", "mock:score?mode=hsah"),
            ("endpoint", "mock:score?logprob=-1.0"), ("endpoint", "mock:scores"),
            # a cassette to record into for an endpoint that sends no request
            ("record_to", "rec.jsonl"),
            ("capabilities", ["generate", "score_tokens"]), ("capabilities", ["generate"]),
            ("endpoint", "ftp://127.0.0.1:9"), ("endpoint", "example.org/v1"),
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
                assert not (tmp_path / "s.jsonl").exists()

    def test_missing_or_malformed_results_is_schema_error(self, demo_dir, tmp_path, capsys):
        # a row the csv module rejects (a cell over its field limit) names its
        # line too; no refusal makes an output
        results = tmp_path / "results.csv"
        rows = b"record_id,strategy,correct\nx,M0,1\n"
        for text, where in ((None, ""), (b"a,b\n1,2\n", ""), (b"record_id,correct\nx,1\n", ""),
                            (rows + b"y,M0," + b"1" * 200_000 + b"\n", " (line 3)"),
                            (rows + b"\xff,M0,1\n", "")):
            if text is not None:
                results.write_bytes(text)
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
            assert err.rstrip().endswith(where), err
            assert not (tmp_path / "s.jsonl").exists() and not (tmp_path / "a.csv").exists()

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
        # with or without the filter, a record with no row joins nothing
        for strategy in ([], ["--strategy", "M0"]):
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


    def _scoring_results(self, demo_dir, tmp_path, rename=None, flip=()):
        """`detect --strategy M0` results over seeds 1 and 2, its strategy
        renamed to `rename`, with a copy of the first seed's rows from
        profile `other` whose `correct` is flipped for records `flip`."""
        assert main(["detect", "--strategy", "M0", "--profile", "demo",
                     "--profiles-file", str(demo_dir / "profiles.json"),
                     "--in", str(demo_dir / "corpus.jsonl"), "--out", str(tmp_path / "d"),
                     "--seeds", "1", "2", "--strict-scripted"]) == 0
        with open(tmp_path / "d" / "results.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        rows += [{**row, "profile": "other",
                  "correct": str(1 - int(row["correct"])) if row["record_id"] in flip
                  else row["correct"]}
                 for row in rows if row["seed"] == "1"]
        results = tmp_path / "results.csv"
        with open(results, "w", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=list(rows[0]), lineterminator="\n")
            writer.writeheader()
            writer.writerows({**row, "strategy": rename or row["strategy"]} for row in rows)
        return results

    def _score(self, demo_dir, tmp_path, results, *strategy):
        return main(["score-likelihood", "--profiles", "scorer",
                     "--profiles-file", str(demo_dir / "profiles.json"),
                     "--in", str(demo_dir / "corpus.jsonl"), "--out", str(tmp_path / "s.jsonl"),
                     "--analysis", str(tmp_path / "a.csv"), "--results", str(results),
                     *strategy])

    def test_a_strategy_is_named_by_either_spelling_and_one_without_rows_is_refused(
        self, demo_dir, tmp_path, capsys, monkeypatch
    ):
        results = self._scoring_results(demo_dir, tmp_path, rename="ref_matching")
        analyses = []
        for spelling in ("ref_matching", "ref-matching"):
            assert self._score(demo_dir, tmp_path, results, "--strategy", spelling) == 0
            captured = capsys.readouterr()
            assert "no result row" not in captured.err
            assert "undefined" not in captured.out
            analyses.append((tmp_path / "a.csv").read_bytes())
        assert analyses[0] == analyses[1]

        opened = []
        monkeypatch.setattr(cli, "open_backend", lambda *args, **kwargs: opened.append(args))
        (tmp_path / "s.jsonl").unlink()
        (tmp_path / "a.csv").unlink()
        for strategy in ("M0", "ref-conventional"):
            assert self._score(demo_dir, tmp_path, results, "--strategy", strategy) == 2
            name = strategy.replace("-", "_")
            assert capsys.readouterr().err == (
                f"schema error: results file {results} has no rows for strategy {name}; "
                "its strategies: ref_matching\n")
        with pytest.raises(SystemExit) as exit_info:
            self._score(demo_dir, tmp_path, results, "--strategy", "M9")
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "argument --strategy" in err and "'M9'" in err
        assert opened == []
        assert not (tmp_path / "s.jsonl").exists() and not (tmp_path / "a.csv").exists()

    def test_rows_of_one_strategy_that_disagree_name_their_profiles(
        self, demo_dir, tmp_path, capsys, monkeypatch
    ):
        records = read_jsonl(demo_dir / "corpus.jsonl")
        flip = {r.record_id for r in records[:2]}
        results = self._scoring_results(demo_dir, tmp_path, flip=flip)
        agreeing = self._scoring_results(demo_dir, tmp_path / "agreeing")
        opened = []
        monkeypatch.setattr(cli, "open_backend", lambda *args, **kwargs: opened.append(args))
        assert self._score(demo_dir, tmp_path, results, "--strategy", "M0") == 2
        assert capsys.readouterr().err == (
            f"schema error: results file {results}: the rows of strategy M0 disagree across "
            "profiles or seeds for 2 records (profiles: demo, other)\n")
        assert self._score(demo_dir, tmp_path, results) == 2
        assert capsys.readouterr().err == \
            "schema error: results are ambiguous for 2 records; filter with --strategy\n"
        assert opened == []
        # rows that agree join, whichever profile or seed they come from
        monkeypatch.undo()
        assert self._score(demo_dir, tmp_path, agreeing, "--strategy", "M0") == 0
        assert "no result row" not in capsys.readouterr().err

    def test_a_flag_without_the_one_it_feeds_is_refused_before_any_backend_opens(
        self, demo_dir, tmp_path, capsys, monkeypatch
    ):
        results = self._scoring_results(demo_dir, tmp_path)
        scores, analysis = tmp_path / "s.jsonl", tmp_path / "a.csv"
        opened = []
        real_open = cli.open_backend
        monkeypatch.setattr(cli, "open_backend", lambda *args, **kwargs: (
            opened.append(args) or real_open(*args, **kwargs)))
        strategy_alone = "schema error: --strategy needs --results, whose rows it filters\n"
        results_alone = ("schema error: --results needs --analysis, "
                         "the file its rows are joined into\n")
        cases = [(["--strategy", "M0"], strategy_alone),
                 (["--strategy", "M0", "--analysis", str(analysis)], strategy_alone),
                 (["--results", str(results)], results_alone),
                 (["--results", str(results), "--strategy", "M0"], results_alone)]
        for flags, err in cases:
            capsys.readouterr()
            assert main(["score-likelihood", "--profiles", "scorer",
                         "--profiles-file", str(demo_dir / "profiles.json"),
                         "--in", str(demo_dir / "corpus.jsonl"), "--out", str(scores),
                         *flags]) == 2, flags
            assert capsys.readouterr() == ("", err), flags
            assert not scores.exists() and not analysis.exists(), flags
        assert opened == []

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

    def test_a_record_id_twice_in_the_gold_or_reference_corpus_exits_2_naming_it(
        self, tmp_path, capsys, monkeypatch
    ):
        info = build_demo(tmp_path / "demo", n_questions=1, seeds=(1,))
        assert main(["run", "--config", str(info["config"])]) == 0
        first = read_jsonl(info["corpus"])[0].record_id
        twice = tmp_path / "twice.jsonl"
        twice.write_text(info["corpus"].read_text() * 2)
        config = tmp_path / "ref.json"
        config.write_text(json.dumps({**json.loads(info["config"].read_text()),
                                      "strategies": ["ref-matching"],
                                      "reference_corpus": str(twice),
                                      "out": str(tmp_path / "run")}))
        opened = []
        monkeypatch.setattr(cli, "open_backend", lambda *args, **kwargs: opened.append(args))
        cases = [
            (["evaluate", "--transcripts", str(tmp_path / "demo" / "out" / "transcripts"),
              "--gold", str(twice), "--out", str(tmp_path / "eval")], f"--gold {twice}"),
            (["run", "--config", str(config)], f"reference corpus {twice}"),
        ]
        for argv, where in cases:
            assert main(argv) == 2, argv
            err = capsys.readouterr().err
            assert err == f"schema error: record {first} appears more than once in {where}\n"
        assert opened == []
        assert not (tmp_path / "eval").exists() and not (tmp_path / "run").exists()

    def test_a_profile_asked_for_twice_is_refused_before_any_backend_opens(
        self, demo_dir, tmp_path, capsys, monkeypatch
    ):
        opened = []
        monkeypatch.setattr(cli, "open_backend", lambda *args, **kwargs: opened.append(args))
        config = tmp_path / "run.json"
        config.write_text(json.dumps({**json.loads((demo_dir / "run.json").read_text()),
                                      "profile_names": ["demo", "demo"],
                                      "out": str(tmp_path / "run")}))
        assert main(["run", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("schema error:") and "profile 'demo' is asked for more" in err, err
        assert opened == [] and not (tmp_path / "run").exists()

    def test_a_run_with_nothing_to_judge_is_refused_before_any_backend_opens(
        self, demo_dir, tmp_path, capsys, monkeypatch
    ):
        opened = []
        monkeypatch.setattr(cli, "open_backend", lambda *args, **kwargs: opened.append(args))
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        transcripts = tmp_path / "transcripts"
        transcripts.mkdir()
        (transcripts / "demo__M0__seed1.jsonl").write_text("")
        config = json.loads((demo_dir / "run.json").read_text())
        cases = []
        for key, value in (("strategies", []), ("corpora", []), ("corpora", [str(empty)])):
            path = tmp_path / f"{key}{len(value)}.json"
            path.write_text(json.dumps({**config, key: value, "out": str(tmp_path / "out")}))
            cases.append((["run", "--config", str(path)], key if value == [] else str(empty)))
        cases += [
            (["detect", "--strategy", "M0", "--profile", "demo",
              "--profiles-file", str(demo_dir / "profiles.json"), "--in", str(empty),
              "--out", str(tmp_path / "out")], str(empty)),
            (["evaluate", "--transcripts", str(transcripts), "--gold", str(demo_dir / "corpus.jsonl"),
              "--out", str(tmp_path / "out")], str(transcripts / "demo__M0__seed1.jsonl")),
        ]
        for argv, named in cases:
            assert main(argv) == 2, argv
            err = capsys.readouterr().err
            assert err.startswith("schema error:") and err.count("\n") == 1, err
            assert named in err, (named, err)
            assert opened == [] and not (tmp_path / "out").exists(), argv

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
        from askbd.demo import build_labeled_corpus
        from askbd.inject import inject
        from askbd.records import correct_ancestor

        d, dp, _ = build_labeled_corpus(1, seed=17)
        base_d, base_dp = d[0], dp[0]
        erroneous = inject(base_dp, "calc", 5)
        pool = {r.record_id: r for r in (base_d, base_dp, erroneous)}

        # a correct alternative matches itself; its conventional reference is D
        assert correct_ancestor(base_dp, pool) == base_dp
        assert correct_ancestor(base_dp, pool, conventional=True) == base_d
        # an erroneous record matches its correct ancestor, never itself
        assert correct_ancestor(erroneous, pool) == base_dp
        assert correct_ancestor(erroneous, pool, conventional=True) == base_d

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


REPORTS = ("report.md", "report.csv", "results.csv", "stats.txt")


def _reports(outdir):
    return {name: (outdir / name).read_bytes() for name in REPORTS}


def _evaluate(info, outdir):
    assert main(["evaluate", "--transcripts", str(info["config"].parent / "out" / "transcripts"),
                 "--gold", str(info["corpus"]), "--out", str(outdir)]) == 0
    return _reports(outdir)


def _ask_key(prompt):
    messages = [{"role": "user", "content": prompt}]
    return generate_fingerprint("demo-model", messages, GenerationParams())


def _script(entries, prompt, reply):
    """Scripts `reply` as the answer to `prompt`."""
    entries[_ask_key(prompt)] = {"response": reply}


def _prompts(path, stage):
    """Each record's last `stage` prompt in the transcript at `path`."""
    entries = map(json.loads, path.read_text().splitlines())
    return {entry["record_id"]: entry["prompt"] for entry in entries if entry["stage"] == stage}


def _results(reports):
    """results.csv's rows by (record id, strategy, seed)."""
    rows = csv.DictReader(io.StringIO(reports["results.csv"].decode()))
    return {(row["record_id"], row["strategy"], row["seed"]): row for row in rows}


def _stage_lines(path):
    """Each record's (stage, response) pairs in the transcript at `path`."""
    lines = {}
    for line in path.read_text().splitlines():
        entry = json.loads(line)
        lines.setdefault(entry["record_id"], []).append((entry["stage"], entry["response"]))
    return lines


def _outcome_line(path, record_id):
    """The number of `record_id`'s first `reg` or `failed` line in the
    transcript at `path`."""
    entries = enumerate(map(json.loads, path.read_text().splitlines()), start=1)
    return next(number for number, entry in entries
                if entry["record_id"] == record_id and entry["stage"] in ("reg", "failed"))


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
        garbled, twice, failing = records[:3]
        # M0 on `garbled`: a reply with no verdict
        _script(entries, grading_prompt(garbled, "M0"), "no verdict")
        # M1 on `twice`: a reply that grades one step twice
        _script(entries, grading_prompt(twice, "M1"), "Step 1: <correct>\nStep 1: <correct>")
        # M2 and M3 on `failing`: the ssi request is unscripted
        del entries[_ask_key(ssi_prompt(failing))]
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
        judged = {}
        assert len(returned) == 4 * 2
        for (strategy, seed), outcomes in returned.items():
            path = cli._transcript_path(tmp_path / "out", "demo", strategy, seed)
            # the one shape: each record's last (stage, response), as read back
            assert list(outcomes.items()) == list(cli._scan_transcript(path, gold)[0].items())
            assert list(outcomes) == list(gold)
            judged[strategy, seed] = {
                record_id: outcome_of(stage, response, len(gold[record_id].steps))
                for record_id, (stage, response) in outcomes.items()
            }
            stages = [json.loads(line)["stage"] for line in path.read_text().splitlines()]
            assert stages.count("reg") == len(gold) - (strategy in ("M2", "M3"))
            outcome = judged[strategy, seed]
            assert outcome[garbled.record_id].valid is (strategy != "M0")
            assert outcome[twice.record_id].valid is (strategy != "M1")
            assert outcome[failing.record_id].valid is (strategy in ("M0", "M1"))
        assert judged["M0", 2][garbled.record_id].invalid_reason == "expected steps 1..3, got []"
        assert judged["M1", 1][twice.record_id].invalid_reason == "duplicate line for step 1"
        assert judged["M3", 2][failing.record_id].invalid_reason.startswith(
            "stage failure: ssi: UnscriptedRequest: ")

    def test_one_reply_is_read_apart_for_records_of_different_step_counts(self, tmp_path):
        info = build_demo(tmp_path, n_questions=2, seeds=(1, 2))
        three, two = read_jsonl(info["corpus"])[:2]
        assert (len(three.steps), len(two.steps)) == (3, 2)
        # one grading reply for both records: its reading for the 3-step
        # record, which comes first in every cell, is no reading for the
        # 2-step one
        reply = "Step 1: <correct>\nStep 2: <correct>\nStep 3: <correct>"
        entries = load_cassette(info["cassette"])
        for strategy, record in itertools.product(("M0", "M1"), (three, two)):
            _script(entries, grading_prompt(record, strategy), reply)
        write_cassette(entries, info["cassette"])
        assert main(["run", "--config", str(info["config"])]) == 0
        reports = _reports(tmp_path / "out")
        assert reports == _evaluate(info, tmp_path / "eval")
        results = _results(reports)
        for strategy, seed in itertools.product(("M0", "M1"), ("1", "2")):
            assert results[(three.record_id, strategy, seed)]["valid"] == "1"
            assert results[(two.record_id, strategy, seed)]["valid"] == "0"
            path = cli._transcript_path(tmp_path / "out", "demo", strategy, int(seed))
            lines = _stage_lines(path)
            assert lines[three.record_id] == [("reg", reply)]
            assert lines[two.record_id] == [("reg", reply)]

    def test_seeds_that_share_their_readings_write_what_each_seed_writes_alone(self, tmp_path):
        info = build_demo(tmp_path, n_questions=2, seeds=(1, 2, 3))
        # stage failures, and grading replies with no verdict
        lines = info["cassette"].read_text().splitlines(keepends=True)
        info["cassette"].write_text("".join(l for i, l in enumerate(lines, 1) if i % 7))
        entries = load_cassette(info["cassette"])
        for record in read_jsonl(info["corpus"])[:4]:
            prompt = grading_prompt(record, "M1")
            if _ask_key(prompt) in entries:
                _script(entries, prompt, "no verdict")
        write_cassette(entries, info["cassette"])
        assert main(["run", "--config", str(info["config"])]) == 0
        config = json.loads(info["config"].read_text())
        for seed in (1, 2, 3):
            alone = tmp_path / f"seed{seed}.json"
            alone.write_text(json.dumps({**config, "seeds": [seed], "out": str(tmp_path / "alone")}))
            assert main(["run", "--config", str(alone)]) == 0
        shared = sorted((tmp_path / "out" / "transcripts").iterdir())
        assert len(shared) == 4 * 3
        for path in shared:
            assert path.read_bytes() == (tmp_path / "alone" / "transcripts" / path.name).read_bytes()
        detections = [lines for path in shared for lines in _stage_lines(path).values()]
        assert any(stage == "failed" for lines in detections for stage, _ in lines)
        assert any(("reg", "no verdict") in lines for lines in detections)

    def test_a_later_seed_parses_no_reply_again_nor_a_later_cell_of_evaluate(
        self, tmp_path, monkeypatch
    ):
        parsed = []
        real_parse = detect_module.parse_detector_response

        def noting(text, n_steps):
            parsed.append((text, n_steps))
            return real_parse(text, n_steps)

        monkeypatch.setattr(detect_module, "parse_detector_response", noting)
        counts = {}
        for seeds in ((1,), (1, 2)):
            info = build_demo(tmp_path / f"seeds{len(seeds)}", n_questions=2, seeds=seeds)
            parsed.clear()
            assert main(["run", "--config", str(info["config"])]) == 0
            counts[seeds] = len(parsed)
        assert counts[(1,)] == counts[(1, 2)] > 0
        parsed.clear()
        _evaluate(info, tmp_path / "eval")
        assert parsed and len(parsed) == len(set(parsed))

    def test_the_judge_reads_each_distinct_last_line_once_over_all_cells(
        self, tmp_path, monkeypatch
    ):
        info = build_demo(tmp_path, n_questions=2, seeds=(1, 2))
        # stage failures and invalid outcomes, repeated in each seed's cell
        lines = info["cassette"].read_text().splitlines(keepends=True)
        info["cassette"].write_text("".join(l for i, l in enumerate(lines, 1) if i % 7))
        assert main(["run", "--config", str(info["config"])]) == 0
        gold = {r.record_id: r for r in read_jsonl(info["corpus"])}
        cells = list(itertools.product(["demo"], ["M0", "M1", "M2", "M3"], [1, 2]))
        outcomes = {
            cell: cli._scan_transcript(cli._transcript_path(tmp_path / "out", *cell), gold)[0]
            for cell in reversed(cells)
        }
        read = Counter()

        def noting(*key):
            read[key] += 1
            return outcome_of(*key)

        monkeypatch.setattr(cli, "outcome_of", noting)
        judged = cli._judge_cells(outcomes, gold)
        last_lines = [(stage, response, len(gold[record_id].steps))
                      for cell in outcomes.values()
                      for record_id, (stage, response) in cell.items()]
        assert len(judged) == len(last_lines) > len(set(last_lines))
        assert read == Counter(set(last_lines))
        assert {stage for stage, _, _ in read} == {"reg", "failed"}
        assert any(not result.valid for result in judged)
        # in (profile, strategy, seed) order, whatever order the cells come in
        assert [(r.profile, r.strategy, r.seed, r.record_id) for r in judged] == \
            [(*cell, record_id) for cell in cells for record_id in outcomes[cell]]

    def _askbd_run(self, tmp_path, **config):
        """A demo whose run config asks M2 and M3 over seeds 1 and 2, with
        `config`'s keys set on top."""
        info = build_demo(tmp_path, n_questions=2, seeds=(1, 2))
        base = json.loads(info["config"].read_text())
        info["config"].write_text(json.dumps({**base, "strategies": ["M2", "M3"], **config}))
        return info

    def test_a_profile_renders_each_prompt_once_and_reads_each_reply_once(
        self, tmp_path, monkeypatch
    ):
        info = self._askbd_run(tmp_path)
        records = read_jsonl(info["corpus"])
        calls = Counter()

        def noting(name):
            real = getattr(detect_module, name)

            def wrapper(*args):
                calls[(name, *[a.record_id if hasattr(a, "record_id") else a for a in args])] += 1
                return real(*args)

            monkeypatch.setattr(detect_module, name, wrapper)

        for name in ("cqe_prompt", "_parse_cqe", "_parse_ssi", "_parse_sqr"):
            noting(name)
        assert main(["run", "--config", str(info["config"])]) == 0
        # every call is one of its own: each prompt rendered, and each reply
        # read, once for both strategies and both seeds
        assert calls and set(calls.values()) == {1}
        # the cqe prompt once per question, though several records share one
        question = {r.record_id: r.question for r in records}
        rendered = [question[args[1]] for args in calls if args[0] == "cqe_prompt"]
        assert sorted(rendered) == sorted(set(question.values()))
        assert len(rendered) < len(records)
        replies = Counter()
        for path in (tmp_path / "out" / "transcripts").iterdir():
            for lines in _stage_lines(path).values():
                replies.update(lines)
        for name, stage in (("_parse_cqe", "cqe"), ("_parse_ssi", "ssi"), ("_parse_sqr", "sqr")):
            read = {args[1] for args in calls if args[0] == name}
            assert read == {reply for found, reply in replies if found == stage}, name

    def test_one_memo_shared_by_a_run_writes_what_fresh_memos_per_cell_write(
        self, tmp_path, monkeypatch
    ):
        info = self._askbd_run(tmp_path, strict_scripted=False)
        records = read_jsonl(info["corpus"])
        # stage failures, and cqe replies that their parser rejects
        lines = info["cassette"].read_text().splitlines(keepends=True)
        info["cassette"].write_text("".join(l for i, l in enumerate(lines, 1) if i % 7))
        entries = load_cassette(info["cassette"])
        for record in records[:4]:
            prompt = detect_module.cqe_prompt(record)
            if _ask_key(prompt) in entries:
                _script(entries, prompt, "no sections")
        write_cassette(entries, info["cassette"])
        assert main(["run", "--config", str(info["config"])]) == 0
        shared = tmp_path / "out"
        run_detection = cli._run_detection

        def fresh(*args):
            assert len(args) == 10 and isinstance(args[9], cli._RunMemo)
            return run_detection(*args[:9], cli._RunMemo())  # each cell gets its own memo

        monkeypatch.setattr(cli, "_run_detection", fresh)
        config = json.loads(info["config"].read_text())
        alone = tmp_path / "alone.json"
        alone.write_text(json.dumps({**config, "out": str(tmp_path / "alone")}))
        assert main(["run", "--config", str(alone)]) == 0
        paths = sorted((shared / "transcripts").iterdir())
        assert len(paths) == 2 * 2
        for path in paths:
            assert path.read_bytes() == (tmp_path / "alone" / "transcripts" / path.name).read_bytes()
        assert _reports(shared) == _reports(tmp_path / "alone")
        detections = [lines for path in paths for lines in _stage_lines(path).values()]
        assert any(stage == "failed" for lines in detections for stage, _ in lines)
        assert any(("cqe", "no sections") in lines for lines in detections)

    @pytest.mark.parametrize("own_replies", [False, True], ids=["one_cassette", "own_replies"])
    def test_two_profiles_render_each_prompt_once_for_the_whole_run(
        self, tmp_path, monkeypatch, own_replies
    ):
        info = build_demo(tmp_path, n_questions=2, seeds=(1, 2))
        profiles = json.loads(info["profiles"].read_text())
        demo = profiles["profiles"][0]
        twin = {**demo, "name": "twin"}
        if own_replies:
            # another model whose cqe, ssi and grading replies all differ from
            # the demo model's; its sqr replies stay, as the M3 prompts embed them
            entries = build_cassette(read_jsonl(info["corpus"]), "other-model", seed=7)
            for entry in entries.values():
                if "<" in entry["response"] or entry["response"].startswith("Question"):
                    entry["response"] = "Replies of the other model.\n" + entry["response"]
            write_cassette(entries, tmp_path / "other.jsonl")
            twin.update(endpoint=f"scripted:{tmp_path / 'other.jsonl'}", model="other-model")
        profiles["profiles"].append(twin)
        info["profiles"].write_text(json.dumps(profiles))
        config = json.loads(info["config"].read_text())
        rendered = Counter()
        for name in ("cqe_prompt", "ssi_prompt", "sqr_prompt", "grading_prompt"):
            real = getattr(detect_module, name)

            def noting(*args, _name=name, _real=real):
                key = [a.record_id if hasattr(a, "record_id") else a for a in args]
                rendered[(_name, *map(repr, key))] += 1
                return _real(*args)

            monkeypatch.setattr(detect_module, name, noting)
        runs = {}
        for names in (["demo"], ["twin"], ["demo", "twin"]):
            out = tmp_path / "_".join(names)
            path = tmp_path / f"{out.name}.json"
            path.write_text(json.dumps({**config, "profile_names": names, "out": str(out)}))
            rendered.clear()
            assert main(["run", "--config", str(path)]) == 0
            runs[out.name] = Counter(rendered)
        # the second profile renders nothing the first rendered
        assert set(runs["demo_twin"].values()) == {1}
        assert runs["demo_twin"] == runs["demo"] == runs["twin"]
        both = tmp_path / "demo_twin" / "transcripts"
        assert len(list(both.iterdir())) == 2 * 4 * 2
        for name in ("demo", "twin"):
            alone = sorted((tmp_path / name / "transcripts").iterdir())
            assert len(alone) == 4 * 2
            for path in alone:
                assert (both / path.name).read_bytes() == path.read_bytes(), path.name
        replies = [{reply for lines in _stage_lines(path).values()
                    for stage, reply in lines if stage != "sqr"}
                   for path in (both / "demo__M2__seed1.jsonl", both / "twin__M2__seed1.jsonl")]
        assert (replies[0] & replies[1] == set()) == own_replies

    def test_a_run_parses_each_distinct_grading_reply_once_the_judge_included(
        self, tmp_path, monkeypatch
    ):
        info = build_demo(tmp_path, n_questions=2, seeds=(1, 2))
        parsed = Counter()
        real_parse = detect_module.parse_detector_response

        def noting(text, n_steps):
            parsed[text, n_steps] += 1
            return real_parse(text, n_steps)

        monkeypatch.setattr(detect_module, "parse_detector_response", noting)
        assert main(["run", "--config", str(info["config"])]) == 0
        steps = {r.record_id: len(r.steps) for r in read_jsonl(info["corpus"])}
        replies = set()
        for path in (tmp_path / "out" / "transcripts").iterdir():
            for record_id, lines in _stage_lines(path).items():
                replies |= {(reply, steps[record_id]) for stage, reply in lines if stage == "reg"}
        assert all(real_parse(*reply).valid for reply in replies)
        assert parsed == Counter(replies)

    def test_records_that_share_a_question_get_their_own_ssi_and_grading_prompts(
        self, tmp_path
    ):
        info = self._askbd_run(tmp_path)
        records = read_jsonl(info["corpus"])
        assert main(["run", "--config", str(info["config"])]) == 0
        by_question = {}
        for record in records:
            by_question.setdefault(record.question, []).append(record)
        shared = [group for group in by_question.values() if len(group) > 1]
        assert shared
        for strategy, seed in itertools.product(("M2", "M3"), (1, 2)):
            path = cli._transcript_path(tmp_path / "out", "demo", strategy, seed)
            prompts = {stage: _prompts(path, stage) for stage in ("cqe", "ssi", "reg")}
            references = {rid: dict(lines)["sqr"] for rid, lines in _stage_lines(path).items()}
            for group in shared:
                ids = [r.record_id for r in group]
                assert len({prompts["cqe"][rid] for rid in ids}) == 1
                assert len({prompts["ssi"][rid] for rid in ids}) == len(ids)
                assert len({prompts["reg"][rid] for rid in ids}) == len(ids)
            for record in records:
                rid = record.record_id
                assert prompts["ssi"][rid] == ssi_prompt(record)
                assert prompts["reg"][rid] == grading_prompt(record, strategy, references[rid])

    def test_each_reference_strategy_grades_with_its_own_reference(self, tmp_path):
        info = self._askbd_run(tmp_path, strategies=["ref_conventional", "ref-matching"],
                               reference_corpus=str(tmp_path / "corpus.jsonl"))
        records = read_jsonl(info["corpus"])
        strategies = ("ref_conventional", "ref_matching")
        references = cli._references(records, strategies, str(info["corpus"]))
        entries = load_cassette(info["cassette"])
        for strategy, record in itertools.product(strategies, records):
            prompt = grading_prompt(record, strategy, references[strategy][record.record_id])
            _script(entries, prompt, "\n".join(
                f"Step {step.index}: <correct>" for step in record.steps))
        write_cassette(entries, info["cassette"])
        assert main(["run", "--config", str(info["config"])]) == 0
        differ = [r.record_id for r in records
                  if references["ref_conventional"][r.record_id]
                  != references["ref_matching"][r.record_id]]
        assert differ
        for strategy, seed in itertools.product(strategies, (1, 2)):
            graded = _prompts(cli._transcript_path(tmp_path / "out", "demo", strategy, seed), "reg")
            for record in records:
                reference = references[strategy][record.record_id]
                assert graded[record.record_id] == grading_prompt(record, strategy, reference)
                assert reference in graded[record.record_id]

    def test_a_rejected_cqe_reply_fails_each_record_that_asks_it_after_one_exchange(
        self, tmp_path
    ):
        info = self._askbd_run(tmp_path)
        records = read_jsonl(info["corpus"])
        entries = load_cassette(info["cassette"])
        record = records[0]
        _script(entries, detect_module.cqe_prompt(record), "no sections")
        write_cassette(entries, info["cassette"])
        assert main(["run", "--config", str(info["config"])]) == 0
        results = _results(_reports(tmp_path / "out"))
        asking = [r.record_id for r in records if r.question == record.question]
        assert len(asking) > 1
        for strategy, seed in itertools.product(("M2", "M3"), (1, 2)):
            lines = _stage_lines(cli._transcript_path(tmp_path / "out", "demo", strategy, seed))
            for record_id in asking:
                assert lines[record_id] == [
                    ("cqe", "no sections"),
                    ("failed", "stage failure: cqe: UnparseableBackendOutput: "
                               "no <conditions>/<inquiry> sections in response"),
                ]
                assert results[(record_id, strategy, str(seed))]["valid"] == "0"

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

    @pytest.mark.parametrize("extra", ['{"record_id": "x"}\n', "not json\n",
                                       '{"record_id": "x"}\n<first line>'])
    def test_resume_stops_at_a_whole_line_that_is_no_transcript_line(
        self, tmp_path, capsys, extra
    ):
        # in the last case a record cut short follows the bad line: resume
        # reads the whole transcript before it cuts that record's lines
        info = build_demo(tmp_path, n_questions=1, seeds=(1,))
        assert main(["run", "--config", str(info["config"]), "--strict-scripted"]) == 0
        cell = tmp_path / "out" / "transcripts" / "demo__M2__seed1.jsonl"
        extra = extra.replace("<first line>", cell.read_text().splitlines(keepends=True)[0])
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

    @pytest.mark.parametrize("cut", ["after a whole line", "before the last newline"])
    def test_evaluate_refuses_a_record_cut_short_and_resume_completes_it(
        self, tmp_path, capsys, cut
    ):
        # the M2 cell's last record keeps its cqe, ssi and sqr lines but
        # loses its reg line, or only that line's newline
        info = build_demo(tmp_path, n_questions=1, seeds=(1,))
        assert main(["run", "--config", str(info["config"]), "--strict-scripted"]) == 0
        reports = _reports(tmp_path / "out")
        cell = tmp_path / "out" / "transcripts" / "demo__M2__seed1.jsonl"
        whole = cell.read_bytes()
        end = whole.rfind(b"\n", 0, -1) + 1 if cut == "after a whole line" else -1
        cell.write_bytes(whole[:end])
        capsys.readouterr()
        assert main(["evaluate", "--transcripts", str(cell.parent), "--gold", str(info["corpus"]),
                     "--out", str(tmp_path / "eval")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("schema error:") and str(cell) in err and "resume" in err, err
        assert not (tmp_path / "eval").exists()
        assert main(["run", "--config", str(info["config"]), "--strict-scripted", "--resume"]) == 0
        assert cell.read_bytes() == whole
        assert _reports(tmp_path / "out") == reports
        assert _evaluate(info, tmp_path / "eval") == reports

    def test_evaluate_refuses_two_transcripts_of_one_cell(self, tmp_path, capsys):
        info = build_demo(tmp_path, n_questions=1, seeds=(1,))
        assert main(["run", "--config", str(info["config"]), "--strict-scripted"]) == 0
        transcripts = tmp_path / "out" / "transcripts"
        first = transcripts / "demo__M0__seed1.jsonl"
        second = transcripts / "demo__M0__seed01.jsonl"  # seed 1 as well
        second.write_bytes(first.read_bytes())
        capsys.readouterr()
        assert main(["evaluate", "--transcripts", str(transcripts), "--gold", str(info["corpus"]),
                     "--out", str(tmp_path / "eval")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("schema error:") and str(first) in err and str(second) in err, err
        assert not (tmp_path / "eval").exists()

    def test_evaluate_refuses_a_transcript_naming_a_record_the_gold_corpus_lacks(
        self, tmp_path, capsys
    ):
        info = build_demo(tmp_path, n_questions=1, seeds=(1,))
        assert main(["run", "--config", str(info["config"]), "--strict-scripted"]) == 0
        corpus = read_jsonl(info["corpus"])
        gold = tmp_path / "gold.jsonl"
        write_jsonl(corpus[1:], gold)
        capsys.readouterr()
        assert main(["evaluate", "--transcripts", str(tmp_path / "out" / "transcripts"),
                     "--gold", str(gold), "--out", str(tmp_path / "eval")]) == 2
        err = capsys.readouterr().err
        cell = tmp_path / "out" / "transcripts" / "demo__M0__seed1.jsonl"
        assert err == (f"schema error: transcript {cell} holds record {corpus[0].record_id}, "
                       f"which the corpora lack (line {_outcome_line(cell, corpus[0].record_id)})\n")
        assert not (tmp_path / "eval").exists()

    @pytest.mark.parametrize("command", ["run", "detect"])
    def test_resume_refuses_a_transcript_holding_a_record_the_corpora_lack_before_detecting(
        self, tmp_path, capsys, monkeypatch, command
    ):
        info = build_demo(tmp_path, n_questions=2, seeds=(1,))
        argv = {
            "run": ["run", "--config", str(info["config"])],
            "detect": ["detect", "--strategy", "M0", "--profile", "demo", "--seeds", "1",
                       "--profiles-file", str(info["profiles"]), "--in", str(info["corpus"]),
                       "--out", str(tmp_path / "out")],
        }[command]
        assert main(argv) == 0
        # the corpus loses one record, and the first cell's transcript another,
        # which a resume would detect again
        corpus = read_jsonl(info["corpus"])
        dropped, cut = corpus[0], corpus[-1]
        write_jsonl(corpus[1:], info["corpus"])
        transcripts = tmp_path / "out" / "transcripts"
        cell = transcripts / "demo__M0__seed1.jsonl"
        cell.write_text("".join(line for line in cell.read_text().splitlines(keepends=True)
                                if json.loads(line)["record_id"] != cut.record_id))
        before = {path: path.read_bytes() for path in transcripts.iterdir()}
        detected = []
        real_detect = cli.detect
        monkeypatch.setattr(cli, "detect", lambda record, *args, **kwargs: (
            detected.append(record.record_id) or real_detect(record, *args, **kwargs)))
        capsys.readouterr()
        assert main([*argv, "--resume"]) == 2
        assert capsys.readouterr().err == (
            f"schema error: transcript {cell} holds record {dropped.record_id}, "
            f"which the corpora lack (line {_outcome_line(cell, dropped.record_id)})\n")
        assert detected == []
        assert {path: path.read_bytes() for path in transcripts.iterdir()} == before

    def test_resume_reads_every_transcript_before_any_backend_opens_or_any_detection(
        self, tmp_path, capsys, monkeypatch
    ):
        info = build_demo(tmp_path, n_questions=2, seeds=(1, 2))
        assert main(["run", "--config", str(info["config"])]) == 0
        # the corpus loses one record, which only the seed-2 transcripts keep,
        # and the first cell's transcript loses another, which a resume of
        # that clean cell alone would detect again and append
        corpus = read_jsonl(info["corpus"])
        dropped, cut = corpus[0], corpus[-1]
        write_jsonl(corpus[1:], info["corpus"])
        transcripts = tmp_path / "out" / "transcripts"
        for path in transcripts.glob("*__seed1.jsonl"):
            gone = {dropped.record_id, cut.record_id} if "__M0__" in path.name else \
                {dropped.record_id}
            path.write_text("".join(line for line in path.read_text().splitlines(keepends=True)
                                    if json.loads(line)["record_id"] not in gone))
        before = {path: path.read_bytes() for path in transcripts.iterdir()}
        detected, opened = [], []
        monkeypatch.setattr(cli, "detect", lambda record, *args, **kwargs: detected.append(record))
        monkeypatch.setattr(cli, "open_backend", lambda profile, **kwargs: opened.append(profile))
        capsys.readouterr()
        assert main(["run", "--config", str(info["config"]), "--resume"]) == 2
        stale = transcripts / "demo__M0__seed2.jsonl"
        assert capsys.readouterr().err == (
            f"schema error: transcript {stale} holds record {dropped.record_id}, "
            f"which the corpora lack (line {_outcome_line(stale, dropped.record_id)})\n")
        assert detected == [] and opened == []
        assert {path: path.read_bytes() for path in transcripts.iterdir()} == before

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
        # the failed record and the torn one are detected again, the rest kept
        corpus = {r.record_id: r for r in read_jsonl(info["corpus"])}
        kept = cli._scan_transcript(cell, corpus)[0]
        redone = {rid for rid, (stage, _) in kept.items() if stage == "failed"}
        redone |= corpus.keys() - kept.keys()
        assert len(redone) == 2

        returned = {}
        run_detection = cli._run_detection

        def noting(records, profile, backend, strategy, seed, outdir, *rest):
            outcomes = run_detection(records, profile, backend, strategy, seed, outdir, *rest)
            returned[cli._transcript_path(outdir, profile.name, strategy, seed)] = outcomes
            return outcomes

        monkeypatch.setattr(cli, "_run_detection", noting)
        assert main(["run", "--config", str(info["config"]), "--resume"]) == 0
        assert len(returned) == 4
        for path, outcomes in returned.items():
            # records kept and records detected again alike, in transcript order
            assert list(outcomes.items()) == list(cli._scan_transcript(path, corpus)[0].items()), \
                path.name
        # the failed record was detected again and keeps its slot
        resumed = list(returned[cell].items())
        assert resumed[0][0] == failed["record_id"] and resumed[0][1][0] == "reg"
        assert _reports(tmp_path / "out") == reports
        assert _evaluate(info, tmp_path / "eval") == reports

    def test_a_corrupt_transcript_or_cassette_exits_2(self, tmp_path, capsys):
        info = build_demo(tmp_path, n_questions=1, seeds=(1,))
        transcripts = tmp_path / "out" / "transcripts"
        transcripts.mkdir(parents=True)
        transcript = transcripts / "demo__M0__seed1.jsonl"
        # a line that is not JSON, or an outcome line with data after its JSON value
        outcome = jsonl_line({"record_id": read_jsonl(info["corpus"])[0].record_id,
                              "strategy": "M0", "stage": "reg", "prompt": "",
                              "response": "Step 1: <correct>"})
        for text, where in (('{"record_id": "x", "sta\n', "(line 1)"),
                            (outcome + outcome[:-1] + " {}\n", f"extra data at column {len(outcome)}') (line 2)")):
            transcript.write_text(text)
            assert main(["evaluate", "--transcripts", str(transcripts),
                         "--gold", str(info["corpus"]), "--out", str(tmp_path / "eval")]) == 2
            err = capsys.readouterr().err
            assert err.startswith("schema error:") and str(transcript) in err, err
            assert err.endswith(f"{where}\n"), err
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
        # an audit line that is JSON but names no source
        audit.write_text('{"source_id": "a", "decision": "reject"}\n{"decision": "reject"}\n')
        assert main(cases[-1][0]) == 2
        err = capsys.readouterr().err
        assert err == f"schema error: no source_id in audit log {audit} (line 2)\n", err

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
        # one finished record, so evaluate reaches its output
        (transcripts / "demo__M0__seed1.jsonl").write_text(jsonl_line({
            "record_id": read_jsonl(info["corpus"])[0].record_id, "strategy": "M0",
            "stage": "reg", "prompt": "", "response": "Step 1: <correct>"}))
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

        def answering(url, payload, headers, *, connections):
            params = GenerationParams(payload["temperature"], payload["max_tokens"])
            key = generate_fingerprint(payload["model"], payload["messages"], params)
            return 200, {"choices": [{"message": {"content": entries[key]["response"]}}]}

        # a transport that cannot reach its endpoint raises an OSError too,
        # and stays a backend error
        def unreachable(url, payload, headers, *, connections):
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
        cli._run_detection(records, profile, backend, "M2", 1, outdir, None, ({}, 0), workers,
                           cli._RunMemo())
        transcripts.append(cli._transcript_path(outdir, profile.name, "M2", 1).read_bytes())
    caller = threading.get_ident()
    assert scripted.threads and set(scripted.threads) == {caller}
    assert recording.threads and caller not in recording.threads
    assert transcripts[0] == transcripts[1]


def test_detections_on_more_threads_than_cores_share_readings_as_one_thread_does(tmp_path):
    info = build_demo(tmp_path, n_questions=2, seeds=(1,))
    records = read_jsonl(info["corpus"])
    profile = load_profiles(info["profiles"])["demo"]
    entries = load_cassette(info["cassette"])
    outcomes = {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    cells = list(itertools.product(("M2", "M3"), (1, 2)))
    try:
        memo = cli._RunMemo()  # one per run, as `_detect_cells` keeps it
        for strategy, seed in cells:
            # a store with an inner transport may wait on I/O, so it detects on threads
            recording = ExchangeStore({}, profile.model, inner=ExchangeStore(entries, profile.model))
            outcomes[("threads", strategy, seed)] = cli._run_detection(
                records, profile, recording, strategy, seed, tmp_path / "threads", None, ({}, 0),
                8, memo)
    finally:
        sys.setswitchinterval(interval)
    for strategy, seed in cells:
        outcomes[("alone", strategy, seed)] = cli._run_detection(
            records, profile, ExchangeStore(entries, profile.model), strategy, seed,
            tmp_path / "alone", None, ({}, 0), 1, cli._RunMemo())
        assert outcomes[("threads", strategy, seed)] == outcomes[("alone", strategy, seed)]
        transcripts = [cli._transcript_path(tmp_path / side, profile.name, strategy, seed)
                       for side in ("threads", "alone")]
        assert transcripts[0].read_bytes() == transcripts[1].read_bytes()


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

    def close(self):
        self.store.close()


def test_seeds_on_threads_share_one_memo_and_write_the_scripted_transcripts(
    tmp_path, monkeypatch
):
    info = build_demo(tmp_path, n_questions=2, seeds=(1, 2))
    records = read_jsonl(info["corpus"])
    profile = load_profiles(info["profiles"])["demo"]
    config = cli.RunConfig(profiles=str(info["profiles"]), profile_names=("demo",),
                           strategies=("M2",), seeds=(1, 2), corpora=(str(info["corpus"]),),
                           out=str(tmp_path / "scripted"), strict_scripted=True, workers=1)
    cli._detect_cells(config, resume=False)

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
        cli._detect_cells(threaded, resume=False)
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

    def endpoint(url, payload, headers, *, connections):
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


@pytest.mark.skipif(not hasattr(socket, "TCP_QUICKACK"),
                    reason="connections are kept only with TCP_QUICKACK")
@pytest.mark.usefixtures("no_proxies")
def test_a_live_run_on_two_workers_keeps_two_connections_and_closes_them(
    tmp_path, loopback, unclosed
):
    info = build_demo(tmp_path, n_questions=2, seeds=(1, 2))
    assert main(["run", "--config", str(info["config"])]) == 0
    entries = load_cassette(info["cassette"])

    class Endpoint(JsonHandler):
        def do_POST(self):
            payload = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
            params = GenerationParams(payload["temperature"], payload["max_tokens"])
            key = generate_fingerprint(payload["model"], payload["messages"], params)
            text = entries[key]["response"]
            self.reply(200, json.dumps({"choices": [{"message": {"content": text}}]}).encode())

    server = loopback(Endpoint)
    profiles = json.loads(info["profiles"].read_text())
    profiles["profiles"].append({"name": "live", "endpoint": server.url + "/v1",
                                 "model": "demo-model", "rate_limit_per_min": 100_000})
    info["profiles"].write_text(json.dumps(profiles))
    config = tmp_path / "live.json"
    config.write_text(json.dumps({**json.loads(info["config"].read_text()),
                                  "profile_names": ["live"], "strict_scripted": False,
                                  "workers": 2, "out": str(tmp_path / "live")}))
    assert main(["run", "--config", str(config)]) == 0
    scripted = sorted((tmp_path / "out" / "transcripts").glob("demo__*.jsonl"))
    assert len(scripted) == 4 * 2
    for path in scripted:
        transcript = path.name.replace("demo__", "live__", 1)
        assert (tmp_path / "live" / "transcripts" / transcript).read_bytes() == \
            path.read_bytes(), transcript
    # the 8 (strategy, seed) cells share the backend's connections, so the
    # run opens no more of them than it has requests in flight
    assert 1 <= server.accepted <= 2
    # and closes them once its cells finish, not leaving them to the collector
    wait_until(lambda: server.open == 0)
    gc.collect()
    assert unclosed == []


def test_a_profile_in_the_retired_format_is_refused_before_any_request(
    demo_dir, tmp_path, monkeypatch, capsys
):
    def endpoint(url, payload, headers, *, connections):
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
        assert "'cassette'" in err, err
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


def test_profiles_that_share_an_api_key_variable_are_refused_before_any_backend_opens(
    demo_dir, tmp_path, capsys, monkeypatch
):
    # `a-b`, `a_b` and `A.B` all read ASKBD_API_KEY_A_B
    opened = []
    monkeypatch.setattr(cli, "open_backend", lambda *args, **kwargs: opened.append(args))
    profiles = json.loads((demo_dir / "profiles.json").read_text())
    config = json.loads((demo_dir / "run.json").read_text())
    demo = profiles["profiles"][0]
    for first, second in (("a-b", "a_b"), ("a_b", "A.B"), ("A.B", "a-b")):
        profiles["profiles"] = [{**demo, "name": first}, {**demo, "name": second}]
        (tmp_path / "profiles.json").write_text(json.dumps(profiles))
        (tmp_path / "run.json").write_text(json.dumps({
            **config, "profiles": str(tmp_path / "profiles.json"),
            "profile_names": [first], "out": str(tmp_path / "out"),
        }))
        assert main(["run", "--config", str(tmp_path / "run.json")]) == 2, (first, second)
        err = capsys.readouterr().err
        assert err.startswith("schema error:") and str(tmp_path / "profiles.json") in err, err
        assert repr(first) in err and repr(second) in err and "ASKBD_API_KEY_A_B" in err, err
        assert opened == [] and not (tmp_path / "out").exists()


def _ran_demo(tmp_path, capsys):
    info = build_demo(tmp_path, n_questions=1, seeds=(1,))
    assert main(["run", "--config", str(info["config"])]) == 0
    capsys.readouterr()
    return info


def test_a_transcript_outcome_whose_record_or_response_is_no_string_exits_2_naming_the_line(
    tmp_path, capsys
):
    info = _ran_demo(tmp_path, capsys)
    transcripts = tmp_path / "out" / "transcripts"
    cell = transcripts / "demo__M0__seed1.jsonl"
    whole = cell.read_bytes()
    for field in ("response", "record_id"):
        lines = whole.decode().splitlines(keepends=True)
        lines[1] = jsonl_line({**json.loads(lines[1]), field: None})
        cell.write_text("".join(lines))
        assert main(["evaluate", "--transcripts", str(transcripts), "--gold", str(info["corpus"]),
                     "--out", str(tmp_path / "eval")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"schema error: bad transcript line in {cell}:"), err
        assert err.endswith("(line 2)\n") and "Traceback" not in err, err
        assert not (tmp_path / "eval").exists()


def test_a_cassette_response_or_token_scores_of_the_wrong_type_exit_2_naming_the_line(
    tmp_path, capsys
):
    info = _ran_demo(tmp_path, capsys)
    cassette = info["cassette"]
    lines = cassette.read_text().splitlines(keepends=True)
    entry = json.loads(lines[2])
    bad = [{**entry, "response": 5}]
    bad += [{**entry, "token_scores": scores}
            for scores in ({"a": -1.0}, [["a"]], [["a", "-1"]], [[1, -1.0]], [["a", True]],
                           [["a", float("nan")]])]
    for third in bad:
        cassette.write_text("".join(lines[:2] + [json.dumps(third) + "\n"] + lines[3:]))
        assert main(["run", "--config", str(info["config"])]) == 2, third
        err = capsys.readouterr().err
        assert err.startswith("schema error:") and str(cassette) in err, err
        assert err.endswith("(line 3)\n") and "Traceback" not in err, err


def test_a_repeated_cassette_line_replays_and_a_conflicting_one_exits_2_naming_both_lines(
    tmp_path, capsys
):
    info = _ran_demo(tmp_path, capsys)
    out = tmp_path / "out"
    names = ("report.md", "report.csv", "results.csv", "stats.txt")
    reports = {name: (out / name).read_bytes() for name in names}
    out.rename(tmp_path / "first")
    cassette = info["cassette"]
    lines = cassette.read_text().splitlines(keepends=True)
    cassette.write_text("".join(lines + lines))
    assert main(["run", "--config", str(info["config"])]) == 0
    assert {name: (out / name).read_bytes() for name in names} == reports
    first = json.loads(lines[0])
    changed = json.dumps({**first, "response": first["response"] + " "})
    cassette.write_text("".join(lines) + changed + "\n")
    assert main(["run", "--config", str(info["config"])]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"schema error: cassette {cassette}"), err
    assert f"on line 1 and line {len(lines) + 1}" in err and "Traceback" not in err, err


def test_a_results_flag_other_than_0_or_1_exits_2_naming_the_row(tmp_path, capsys):
    info = _ran_demo(tmp_path, capsys)
    with open(tmp_path / "out" / "results.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    flagged = tmp_path / "flagged.csv"
    for flag in ("true", "", "2"):
        rows[1]["correct"] = flag  # on line 3, after the header
        with open(flagged, "w", newline="") as handle:
            writer = csv.DictWriter(handle, list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        assert main(["score-likelihood", "--profiles", "scorer",
                     "--profiles-file", str(info["profiles"]), "--in", str(info["corpus"]),
                     "--out", str(tmp_path / "s.jsonl"), "--analysis", str(tmp_path / "a.csv"),
                     "--results", str(flagged), "--strategy", "M0"]) == 2, flag
        err = capsys.readouterr().err
        assert err.startswith(f"schema error: results file {flagged}:"), err
        assert repr(flag) in err and err.endswith("(line 3)\n") and "Traceback" not in err, err


def test_a_recording_run_sends_an_unparseable_grading_reply_once_and_judges_it_invalid(
    tmp_path, monkeypatch
):
    info = build_demo(tmp_path, n_questions=2, seeds=(1, 2))
    entries = load_cassette(info["cassette"])
    record = read_jsonl(info["corpus"])[0]
    garbled = _ask_key(grading_prompt(record, "M0"))
    entries[garbled] = {"response": "no verdict here"}
    asked = Counter()

    def endpoint(url, payload, headers, *, connections):
        """Answers from the edited demo cassette and counts each fingerprint asked."""
        params = GenerationParams(payload["temperature"], payload["max_tokens"])
        key = generate_fingerprint(payload["model"], payload["messages"], params)
        asked[key] += 1
        return 200, {"choices": [{"message": {"content": entries[key]["response"]}}]}

    monkeypatch.setattr(backends, "_urllib_transport", endpoint)
    recorded = tmp_path / "recorded.jsonl"
    profiles = json.loads(info["profiles"].read_text())
    profiles["profiles"].append({"name": "rec", "endpoint": "http://127.0.0.1:9/v1",
                                 "model": "demo-model", "rate_limit_per_min": 100_000,
                                 "record_to": str(recorded)})
    info["profiles"].write_text(json.dumps(profiles))
    config = json.loads(info["config"].read_text())
    info["config"].write_text(json.dumps({**config, "profile_names": ["rec"],
                                          "strict_scripted": False}))
    assert main(["run", "--config", str(info["config"])]) == 0
    # one request for both seeds, and one cassette line
    assert asked[garbled] == 1 and set(asked.values()) == {1}
    hashes = [json.loads(line)["request_hash"] for line in recorded.read_text().splitlines()]
    assert hashes.count(garbled) == 1
    results = _results(_reports(tmp_path / "out"))
    for seed in (1, 2):
        lines = _stage_lines(cli._transcript_path(tmp_path / "out", "rec", "M0", seed))
        assert lines[record.record_id] == [("reg", "no verdict here")]
        assert results[(record.record_id, "M0", str(seed))]["valid"] == "0"


def test_evaluate_judges_a_record_with_two_reg_lines_by_the_last(tmp_path):
    # a transcript written when an unparseable reply was asked a second time
    info = build_demo(tmp_path, n_questions=2, seeds=(1,))
    assert main(["run", "--config", str(info["config"])]) == 0
    path = cli._transcript_path(tmp_path / "out", "demo", "M0", 1)
    lines = path.read_text().splitlines(keepends=True)
    first = json.loads(lines[0])
    garbled = jsonl_line({**first, "response": "no verdict"})
    verdicts = {}
    for name, edited in (("reasked", [garbled, *lines]),
                         ("garbled_last", [lines[0], garbled, *lines[1:]])):
        path.write_text("".join(edited))
        verdicts[name] = _results(_evaluate(info, tmp_path / name))
    key = (first["record_id"], "M0", "1")
    assert verdicts["reasked"][key]["valid"] == "1"
    assert verdicts["garbled_last"][key]["valid"] == "0"
    path.write_text("".join(lines))
    assert (tmp_path / "reasked" / "results.csv").read_bytes() == \
        (tmp_path / "out" / "results.csv").read_bytes()


def test_record_to_on_a_scripted_profile_is_refused_before_any_backend_opens(
    demo_dir, tmp_path, capsys, monkeypatch
):
    opened = []
    monkeypatch.setattr(cli, "open_backend", lambda *args, **kwargs: opened.append(args))
    profiles = json.loads((demo_dir / "profiles.json").read_text())
    profiles["profiles"][0]["record_to"] = str(tmp_path / "rec.jsonl")
    (tmp_path / "profiles.json").write_text(json.dumps(profiles))
    (tmp_path / "run.json").write_text(json.dumps({
        **json.loads((demo_dir / "run.json").read_text()),
        "profiles": str(tmp_path / "profiles.json"), "out": str(tmp_path / "out"),
    }))
    assert main(["run", "--config", str(tmp_path / "run.json"), "--strict-scripted"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("schema error:") and str(tmp_path / "profiles.json") in err, err
    assert "record_to" in err, err
    assert opened == [] and not (tmp_path / "out").exists()
    assert not (tmp_path / "rec.jsonl").exists()
