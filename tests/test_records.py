import json
from collections import Counter
from fractions import Fraction

import pytest

from askbd import records
from askbd.inject import inject
from askbd.label_oracle import scan_record
from askbd.records import (
    CATEGORIES,
    CORRECT_LABEL,
    ErrorLabel,
    LoadMemo,
    MissingStepMarkers,
    NonContiguousIndices,
    SchemaViolation,
    SolutionRecord,
    SolutionStep,
    compute_stats,
    condition_values,
    jsonl_line,
    make_record,
    normalize_math_text,
    parse_structured_solution,
    read_jsonl,
    record_from_json,
    record_to_json,
    render_solution_text,
    write_jsonl,
)

from conftest import LEAF_QUESTION, LEAF_SOLUTION


class TestParseStructuredSolution:
    def test_leaf_solution_three_steps(self):
        steps = parse_structured_solution(LEAF_SOLUTION)
        assert len(steps) == 3
        assert steps[0].expression == "5 × 11"
        assert steps[0].stated_result == 55
        assert steps[1].expression == "2 × 11"
        assert steps[1].stated_result == 22
        assert steps[2].expression == "55 - 22"
        assert steps[2].stated_result == 33

    def test_statement_without_expression(self):
        steps = parse_structured_solution("Step 1. The answer is obvious.")
        assert len(steps) == 1
        assert steps[0].expression is None
        assert steps[0].stated_result is None

    def test_round_trip_is_identity(self):
        steps = parse_structured_solution(LEAF_SOLUTION)
        rendered = render_solution_text(make_record(question="q", steps=steps, answer=33))
        again = parse_structured_solution(rendered)
        assert again == steps

    def test_no_markers(self):
        with pytest.raises(MissingStepMarkers):
            parse_structured_solution("Just some text with 3 + 4 = 7.")

    def test_non_contiguous(self):
        with pytest.raises(NonContiguousIndices):
            parse_structured_solution("Step 1. a. Step 3. b.")

    def test_normalize_math_text(self):
        assert normalize_math_text("$5 \\times 11 = 55$") == "5 × 11 = 55"
        assert normalize_math_text("$8 \\div 2$") == "8 ÷ 2"


class TestLabels:
    def test_both_or_neither(self):
        ErrorLabel(2, "calc")
        ErrorLabel()
        with pytest.raises(ValueError):
            ErrorLabel(step=2)
        with pytest.raises(ValueError):
            ErrorLabel(category="calc")

    def test_category_vocabulary(self):
        for category in CATEGORIES:
            ErrorLabel(1, category)
        with pytest.raises(ValueError):
            ErrorLabel(1, "typo")


class TestRecordInvariants:
    def test_label_must_point_at_existing_step(self, leaf_record):
        with pytest.raises(ValueError):
            SolutionRecord(
                record_id="x",
                question=leaf_record.question,
                steps=leaf_record.steps,
                answer=leaf_record.answer,
                label=ErrorLabel(9, "calc"),
            )

    def test_error_free_record_must_end_at_answer(self, leaf_record):
        with pytest.raises(ValueError):
            make_record(leaf_record.question, leaf_record.steps, answer=99)

    def test_steps_contiguous(self):
        with pytest.raises(ValueError):
            SolutionRecord(
                record_id="x",
                question="q 1",
                steps=(SolutionStep(index=2, statement="s"),),
                answer=Fraction(1),
            )

    def test_content_addressed_id_is_stable(self, leaf_record):
        again = make_record(
            leaf_record.question, leaf_record.steps, leaf_record.answer
        )
        assert again.record_id == leaf_record.record_id


class TestJsonl:
    def test_round_trip_identity(self, tmp_path, leaf_record):
        path = tmp_path / "corpus.jsonl"
        write_jsonl([leaf_record], path)
        records = read_jsonl(path)
        assert records == [leaf_record]

    def test_write_read_write_byte_identical(self, tmp_path, leaf_record):
        first = tmp_path / "a.jsonl"
        second = tmp_path / "b.jsonl"
        write_jsonl([leaf_record], first)
        write_jsonl(read_jsonl(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert read_jsonl(path) == []

    def test_schema_violation_reports_line(self, tmp_path, leaf_record):
        path = tmp_path / "bad.jsonl"
        good = json.dumps(record_to_json(leaf_record), sort_keys=True)
        path.write_text(good + "\n" + '{"id": "zz"}' + "\n")
        with pytest.raises(SchemaViolation) as err:
            read_jsonl(path)
        assert err.value.line == 2
        # steps that are not a list of objects
        not_steps = json.dumps({**record_to_json(leaf_record), "steps": "abc"})
        path.write_text(good + "\n\n" + not_steps + "\n")
        with pytest.raises(SchemaViolation) as err:
            read_jsonl(path)
        assert err.value.line == 3 and str(path) in str(err.value)
        # lineage that is not an object with a string source_id
        for lineage in (5, {"seed": 1}, {"source_id": 7}):
            bad_lineage = json.dumps({**record_to_json(leaf_record), "lineage": lineage})
            path.write_text(good + "\n" + bad_lineage + "\n")
            with pytest.raises(SchemaViolation) as err:
                read_jsonl(path)
            assert err.value.line == 2 and str(path) in str(err.value)

    def test_expression_parse_validated_at_load(self, leaf_record):
        obj = record_to_json(leaf_record)
        obj["steps"][0]["expression"] = "5 +"
        with pytest.raises(SchemaViolation):
            record_from_json(obj)

    @pytest.mark.parametrize("field", ["answer", "result"])
    def test_a_zero_denominator_is_a_schema_violation(self, leaf_record, field):
        obj = record_to_json(leaf_record)
        if field == "answer":
            obj["answer"] = "1/0"
        else:
            obj["steps"][0]["result"] = "1/0"
        with pytest.raises(SchemaViolation, match="zero denominator"):
            record_from_json(obj)

    def test_a_float_result_is_refused_not_read_as_its_double(self):
        # read as a float, 0.3 is 5404319552844595/18014398509481984 and the
        # label oracle would call this correct step a calculation error
        step = {"index": 1, "statement": "Together they hold 0.1 + 0.2 = 0.3 litres.",
                "expression": "0.1 + 0.2", "result": 0.3}
        obj = {"id": "f", "question": "A cup holds 0.1 litres and a glass 0.2 litres. "
               "How much do both hold?", "steps": [step], "answer": "0.3", "origin": "D",
               "label": {"step": 1, "category": "calc"}}
        with pytest.raises(SchemaViolation, match="'result' must be a string, got 0.3"):
            record_from_json(obj)
        step["result"] = "0.3"
        assert scan_record(record_from_json(obj)) == CORRECT_LABEL

    def test_each_distinct_expression_is_parsed_once_per_file(
        self, tmp_path, leaf_record, monkeypatch
    ):
        corpus = [leaf_record] + [inject(leaf_record, c, 1) for c in CATEGORIES]
        path = tmp_path / "corpus.jsonl"
        write_jsonl(corpus, path)
        texts = [s.expression for r in corpus for s in r.steps if s.expression is not None]
        assert len(set(texts)) < len(texts)
        parsed = Counter()
        parse_expr = records.parse_expr
        monkeypatch.setattr(
            records, "parse_expr", lambda text: parsed.update([text]) or parse_expr(text)
        )
        assert read_jsonl(path) == corpus
        assert parsed == Counter(set(texts))
        # each read is a pass of its own
        assert read_jsonl(path) == corpus
        assert parsed == Counter({text: 2 for text in texts})

    def test_a_repeated_bad_expression_fails_at_its_first_line(self, tmp_path, leaf_record):
        good = record_to_json(leaf_record)
        bad = record_to_json(leaf_record)
        bad["steps"][0]["expression"] = "5 +"
        path = tmp_path / "corpus.jsonl"
        path.write_text("".join(jsonl_line(obj) for obj in (good, bad, good, bad)))
        with pytest.raises(SchemaViolation) as err:
            read_jsonl(path)
        assert err.value.line == 2
        # a text that failed is not remembered as read
        memo = LoadMemo()
        for _ in range(2):
            with pytest.raises(SchemaViolation, match="end of input"):
                record_from_json(bad, memo)
        assert "5 +" not in memo.expressions

    def test_label_serialization(self, leaf_record):
        obj = record_to_json(leaf_record)
        assert obj["label"] == {}
        erroneous = SolutionRecord(
            record_id="e",
            question=leaf_record.question,
            steps=leaf_record.steps,
            answer=leaf_record.answer,
            label=ErrorLabel(1, "calc"),
        )
        assert record_to_json(erroneous)["label"] == {"step": 1, "category": "calc"}


class TestConditionValues:
    def test_leaf_conditions(self):
        assert set(condition_values(LEAF_QUESTION)) == {5, 2, 11}

    def test_decimals(self):
        assert condition_values("a price of 2.5 dollars for 4 items") == [
            Fraction(5, 2),
            Fraction(4),
        ]


class TestStats:
    def test_empty(self):
        stats = compute_stats([])
        assert stats.total == 0
        assert stats.cell("D", "correct") == 0

    def test_mixed_hand_count(self, leaf_record):
        erroneous = SolutionRecord(
            record_id="e",
            question=leaf_record.question,
            steps=leaf_record.steps,
            answer=leaf_record.answer,
            label=ErrorLabel(1, "calc"),
        )
        alt = SolutionRecord(
            record_id="a",
            question=leaf_record.question,
            steps=leaf_record.steps,
            answer=leaf_record.answer,
            origin="D1",
        )
        stats = compute_stats([leaf_record, leaf_record, erroneous, alt])
        assert stats.total == 4
        assert stats.cell("D", "correct") == 2
        assert stats.cell("D", "calc") == 1
        assert stats.cell("D1", "correct") == 1
        assert "correct" in stats.as_table()
