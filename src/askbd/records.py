"""Question/solution records and their lineage walk, step parsing, the raw
`ingest` reader, the JSONL codec, statistics.

Records hold expressions as source strings so files stay human-editable.
A corpus read parse-validates each distinct expression text and converts
each distinct `result`/`answer` string once per file; those values must be
JSON strings, never numbers. LaTeX math markers in solution text are
normalized to plain operators at ingestion.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import re
import types
import typing
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Mapping

from .exprs import (
    Rational, format_value, last_equation, normalize_math_text, number_tokens, parse_expr,
    rational, stated_value,
)

# built once: JSONL lines and record ids are sorted-key JSON, text left unescaped
_JSONL_ENCODER = json.JSONEncoder(sort_keys=True, ensure_ascii=False)

ORIGIN_CONVENTIONAL = "D"
ORIGIN_ALTERNATIVE = "D1"
ORIGINS = (ORIGIN_CONVENTIONAL, ORIGIN_ALTERNATIVE)

CATEGORY_CALCULATION = "calc"
CATEGORY_REFERENCE = "ref"
CATEGORY_MISSING = "missing"
CATEGORY_HALLUCINATION = "halluc"
CATEGORIES = (
    CATEGORY_CALCULATION,
    CATEGORY_REFERENCE,
    CATEGORY_MISSING,
    CATEGORY_HALLUCINATION,
)

STAT_CLASSES = ("correct",) + CATEGORIES


class RecordError(ValueError):
    pass


class MissingStepMarkers(RecordError):
    pass


class NonContiguousIndices(RecordError):
    pass


class SchemaViolation(RecordError):
    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"{message} (line {line})")
        self.line = line


@dataclass(frozen=True)
class ErrorLabel:
    """Gold error location: both fields present (erroneous) or both absent."""

    step: int | None = None
    category: str | None = None

    def __post_init__(self):
        if (self.step is None) != (self.category is None):
            raise ValueError("step and category must both be present or both absent")
        if self.category is not None and self.category not in CATEGORIES:
            raise ValueError(f"unknown category {self.category!r}")

    @property
    def is_error(self) -> bool:
        return self.step is not None


CORRECT_LABEL = ErrorLabel()


@dataclass(frozen=True)
class SolutionStep:
    index: int
    statement: str
    expression: str | None = None
    stated_result: Rational | None = None

    def __post_init__(self):
        if self.expression is not None and self.stated_result is None:
            raise ValueError("a step with an expression must state its result")


@dataclass(frozen=True)
class SolutionRecord:
    record_id: str
    question: str
    steps: tuple[SolutionStep, ...]
    answer: Rational
    origin: str = ORIGIN_CONVENTIONAL
    label: ErrorLabel = CORRECT_LABEL
    lineage: Mapping[str, object] | None = None
    candidate_rank: int | None = None
    permuted_expression: str | None = None
    route: str | None = None

    def __post_init__(self):
        if not self.steps:
            raise ValueError("a record needs at least one step")
        if [s.index for s in self.steps] != list(range(1, len(self.steps) + 1)):
            raise ValueError("step indices must be contiguous from 1")
        if self.origin not in ORIGINS:
            raise ValueError(f"unknown origin {self.origin!r}")
        if self.label.is_error and self.label.step > len(self.steps):
            raise ValueError("label points past the last step")
        if not self.label.is_error:
            last = self.last_expression_step()
            if last is not None and last.stated_result != self.answer:
                raise ValueError(
                    "an error-free record must end its calculations at the answer"
                )

    def last_expression_step(self) -> SolutionStep | None:
        for step in reversed(self.steps):
            if step.expression is not None:
                return step
        return None


def correct_ancestor(record: SolutionRecord, by_id: Mapping[str, SolutionRecord], *,
                     conventional: bool = False) -> SolutionRecord:
    """`record` or its nearest ancestor along `lineage.source_id` in `by_id`
    that is error-free and, with `conventional`, of origin D. A missing
    ancestor or a lineage cycle is a SchemaViolation."""
    start, seen = record, set()
    while record.label.is_error or (conventional and record.origin != ORIGIN_CONVENTIONAL):
        if record.record_id in seen:
            raise SchemaViolation(f"lineage cycle at {record.record_id}")
        seen.add(record.record_id)
        parent = (record.lineage or {}).get("source_id")
        if parent not in by_id:
            raise SchemaViolation(f"no correct ancestor for {start.record_id}")
        record = by_id[parent]
    return record


def render_step(step: SolutionStep) -> str:
    return f"Step {step.index}. {step.statement}"


def render_solution_text(record: SolutionRecord) -> str:
    return "\n".join(render_step(s) for s in record.steps)


def compute_record_id(
    question: str,
    origin: str,
    label: ErrorLabel,
    steps: Iterable[SolutionStep],
) -> str:
    """Content-addressed id so regeneration is idempotent."""
    payload = _JSONL_ENCODER.encode(
        {
            "question": question,
            "origin": origin,
            "label": [label.step, label.category],
            "steps": [
                [s.index, s.statement, s.expression,
                 None if s.stated_result is None else format_value(s.stated_result)]
                for s in steps
            ],
        }
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def make_record(
    question: str,
    steps: Iterable[SolutionStep],
    answer,
    origin: str = ORIGIN_CONVENTIONAL,
    label: ErrorLabel = CORRECT_LABEL,
    lineage: Mapping[str, object] | None = None,
    **extras,
) -> SolutionRecord:
    steps = tuple(steps)
    return SolutionRecord(
        record_id=compute_record_id(question, origin, label, steps),
        question=question,
        steps=steps,
        answer=rational(answer),
        origin=origin,
        label=label,
        lineage=lineage,
        **extras,
    )


# --- Structured solution text ---

_STEP_MARKER = re.compile(r"Step\s+(\d+)\s*[.:]\s*")


def step_from_statement(index: int, statement: str) -> SolutionStep:
    """Step `index` as `statement` states it: its last `a <op> b = c`, if
    any, is the expression and stated result. The expression is
    parse-validated, so an unreadable one (a division by zero) raises an
    ExprError."""
    equation = last_equation(statement)
    if equation is None:
        return SolutionStep(index=index, statement=statement)
    expression = equation.group(1).strip()
    parse_expr(expression)
    return SolutionStep(index, statement, expression, stated_value(equation.group(2)))


def parse_structured_solution(text: str) -> list[SolutionStep]:
    """Split `Step n.`-marked solution text into steps, each read by
    `step_from_statement`. Statements are preserved verbatim (after
    math-marker normalization)."""
    normalized = normalize_math_text(text)
    markers = list(_STEP_MARKER.finditer(normalized))
    if not markers:
        raise MissingStepMarkers("no 'Step n.' markers found")
    indices = [int(m.group(1)) for m in markers]
    if indices != list(range(1, len(indices) + 1)):
        raise NonContiguousIndices(f"step indices {indices} are not 1..{len(indices)}")
    ends = [m.start() for m in markers[1:]] + [len(normalized)]
    return [
        step_from_statement(index, normalized[marker.end():end].strip())
        for index, marker, end in zip(indices, markers, ends)
    ]


_ANNOTATION = re.compile(r"<<[^>]*>>")
_FINAL_MARKER = "####"


def record_from_raw(obj: dict) -> SolutionRecord:
    """The record a raw `ingest` line holds: a `question` with a `rationale`
    and an `answer`, or with GSM8K's `answer`, `rationale #### answer`. Each
    nonblank rationale line, `<<…>>` annotations dropped, is one step."""
    question = _typed(obj["question"], str, "question")
    if "rationale" in obj:
        rationale, answer_text = _typed(obj["rationale"], str, "rationale"), str(obj["answer"])
    else:
        answer_field = _typed(obj["answer"], str, "answer")
        if _FINAL_MARKER in answer_field:
            rationale, answer_text = answer_field.split(_FINAL_MARKER, 1)
        else:
            raise SchemaViolation("no rationale/final-answer split found")
    lines = [_ANNOTATION.sub("", line).strip() for line in rationale.strip().splitlines()]
    lines = [line for line in lines if line]
    numbered = [
        line if _STEP_MARKER.match(line) else f"Step {i}. {line}"
        for i, line in enumerate(lines, start=1)
    ]
    steps = parse_structured_solution(" ".join(numbered))
    answer = parse_rational(answer_text.strip().replace(",", "").replace("$", ""))
    return make_record(question=question, steps=steps, answer=answer)


def condition_values(question: str) -> list[Rational]:
    """Numbers stated by the question, in order of appearance."""
    return [value for _, _, value in number_tokens(question)]


# --- JSONL serialization ---


def parse_rational(text: str) -> Rational:
    """A rational written as `format_value` writes it (`12`, `2.5`, `1/3`),
    in normal form; a zero denominator is a ValueError, as any other
    unreadable text is."""
    try:
        return rational(text)
    except ZeroDivisionError as err:
        raise ValueError(f"{text!r} has a zero denominator") from err


def record_to_json(record: SolutionRecord) -> dict:
    steps = []
    for s in record.steps:
        step: dict = {"index": s.index, "statement": s.statement}
        if s.expression is not None:
            step["expression"] = s.expression
            step["result"] = format_value(s.stated_result)
        steps.append(step)
    label: dict = {}
    if record.label.is_error:
        label = {"step": record.label.step, "category": record.label.category}
    obj: dict = {
        "id": record.record_id,
        "question": record.question,
        "steps": steps,
        "answer": format_value(record.answer),
        "origin": record.origin,
        "label": label,
    }
    if record.lineage is not None:
        obj["lineage"] = dict(record.lineage)
    if record.candidate_rank is not None:
        obj["candidate_rank"] = record.candidate_rank
    if record.permuted_expression is not None:
        obj["permuted_expression"] = record.permuted_expression
    if record.route is not None:
        obj["route"] = record.route
    return obj


class LoadMemo:
    """The texts one corpus read has decoded: the expression texts that
    parsed, and the value of each `result`/`answer` string. A text that
    fails is never stored, so it fails again wherever it recurs."""

    def __init__(self):
        self.expressions: set[str] = set()
        self.rationals: dict[str, Rational] = {}

    def validate_expression(self, text) -> None:
        _typed(text, str, "expression")
        if text not in self.expressions:
            parse_expr(text)
            self.expressions.add(text)

    def rational(self, text, field: str) -> Rational:
        _typed(text, str, field)
        value = self.rationals.get(text)
        if value is None:
            value = self.rationals[text] = parse_rational(text)
        return value


_TYPE_NAMES = {str: "a string", int: "an integer"}


def _typed(value, kind: type, field: str, optional: bool = False):
    """`value`, which must be of exactly the type `kind` (or None where
    `optional`): JSON `true` is no integer, `1.0` is none either, and a
    number is no string (`record_to_json` writes each value as a string,
    since a JSON 0.3 would load as its binary double, not 3/10)."""
    if type(value) is not kind and not (optional and value is None):
        raise SchemaViolation(f"{field!r} must be {_TYPE_NAMES[kind]}, got {value!r}")
    return value


def record_from_json(obj: dict, memo: LoadMemo | None = None) -> SolutionRecord:
    """The record `obj` encodes. Each expression is parse-validated; `memo`
    lets the records of one file share that work and the conversion of
    repeated `result`/`answer` strings (`read_jsonl` passes one)."""
    if memo is None:
        memo = LoadMemo()
    try:
        steps = []
        for raw in obj["steps"]:
            expression = raw.get("expression")
            if expression is not None:
                memo.validate_expression(expression)
                result = memo.rational(raw["result"], "result")
            else:
                result = None
            steps.append(SolutionStep(
                _typed(raw["index"], int, "index"), _typed(raw["statement"], str, "statement"),
                expression, result,
            ))
        raw_label = obj.get("label") or {}
        label = ErrorLabel(_typed(raw_label.get("step"), int, "label.step", optional=True),
                           _typed(raw_label.get("category"), str, "label.category", optional=True))
        lineage = obj.get("lineage")
        if lineage is not None and not (
            isinstance(lineage, dict) and isinstance(lineage.get("source_id"), str)
        ):
            raise SchemaViolation(
                f"lineage must be an object with a string source_id, got {lineage!r}"
            )
        return SolutionRecord(
            record_id=_typed(obj["id"], str, "id"),
            question=_typed(obj["question"], str, "question"),
            steps=tuple(steps),
            answer=memo.rational(obj["answer"], "answer"),
            origin=_typed(obj["origin"], str, "origin"),
            label=label,
            lineage=lineage,
            candidate_rank=_typed(obj.get("candidate_rank"), int, "candidate_rank", optional=True),
            permuted_expression=_typed(obj.get("permuted_expression"), str,
                                       "permuted_expression", optional=True),
            route=_typed(obj.get("route"), str, "route", optional=True),
        )
    except SchemaViolation:
        raise
    except KeyError as err:
        raise SchemaViolation(f"missing field {err.args[0]!r}") from err
    except (ValueError, TypeError, AttributeError) as err:
        raise SchemaViolation(str(err)) from err


def read_json_file(path, what: str):
    """The JSON document in the file at `path`. A missing, unreadable or
    malformed file is a SchemaViolation naming `what` and the file."""
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as err:
        raise SchemaViolation(f"cannot read {what}: {err}") from err
    except ValueError as err:
        raise SchemaViolation(f"invalid JSON in {what} {path}: {err}") from err


def from_json(cls, data, what: str):
    """The frozen dataclass `cls` decoded from the JSON value `data`. Each
    key is a field's name, and each field's type and default come from
    `cls` alone. A missing required key, an unknown key, a value of the
    wrong type or one that `cls.__post_init__` rejects with a ValueError is
    a SchemaViolation naming `what` and the field."""
    if not isinstance(data, dict):
        raise SchemaViolation(f"{what} must be a JSON object, got {data!r}")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = sorted(set(data) - set(fields))
    if unknown:
        raise SchemaViolation(
            f"{what}: unknown key {unknown[0]!r}; known keys are {sorted(fields)}"
        )
    hints = typing.get_type_hints(cls)
    values = {}
    for name, field in fields.items():
        if name in data:
            values[name] = _from_json_value(hints[name], data[name], f"{what}: {name}")
        elif field.default is dataclasses.MISSING and field.default_factory is dataclasses.MISSING:
            raise SchemaViolation(f"{what}: missing key {name!r}")
    try:
        return cls(**values)
    except ValueError as err:
        raise SchemaViolation(f"{what}: {err}") from err


def _from_json_value(hint, value, where: str):
    """`value` decoded as the type `hint` (see `from_json`)."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):  # only `X | None` is declared
        if value is None:
            return None
        (hint,) = [arg for arg in args if arg is not type(None)]
        return _from_json_value(hint, value, where)
    if origin in (tuple, frozenset):
        if not isinstance(value, list):
            raise SchemaViolation(f"{where} must be a list, got {value!r}")
        return origin(
            _from_json_value(args[0], item, f"{where}[{i}]") for i, item in enumerate(value)
        )
    if dataclasses.is_dataclass(hint):
        return from_json(hint, value, where)
    if hint is float and type(value) is int:
        return float(value)
    # exact types: JSON `true` is a bool, never an int
    if type(value) is not hint:
        raise SchemaViolation(f"{where} must be {hint.__name__}, got {value!r}")
    return value


def jsonl_line(obj) -> str:
    """`obj` as one JSONL line: sorted keys, text left unescaped."""
    return _JSONL_ENCODER.encode(obj) + "\n"


def read_jsonl_lines(path, what: str) -> Iterator[tuple[int, object]]:
    """(line number, value) of each nonblank line of the JSONL file at
    `path`. A missing or unreadable file, or a line that is not JSON, is a
    SchemaViolation naming `what`, the file and the line."""
    try:
        with open(path, encoding="utf-8") as handle:
            for number, raw in enumerate(handle, start=1):
                raw = raw.strip()
                if not raw:
                    continue
                try:
                    value = json.loads(raw)
                except ValueError as err:
                    raise SchemaViolation(
                        f"invalid JSON in {what} {path}: {err}", line=number
                    ) from err
                yield number, value
    except (OSError, UnicodeDecodeError) as err:
        raise SchemaViolation(f"cannot read {what} {path}: {err}") from err


def read_jsonl(path) -> list[SolutionRecord]:
    """The records of the corpus at `path`; a bad record is a
    SchemaViolation naming the file and the line. Each distinct expression
    text and `result`/`answer` string is decoded once per file."""
    records = []
    memo = LoadMemo()
    for number, obj in read_jsonl_lines(path, "corpus"):
        try:
            records.append(record_from_json(obj, memo))
        except SchemaViolation as err:
            raise SchemaViolation(f"bad record in corpus {path}: {err}", line=number) from err
    return records


def open_output(path, what: str, mode: str = "w", newline: str | None = None):
    """The file at `path` opened as UTF-8 text in `mode` ("w" or "a"), its
    directory made first. A path that cannot be written, one under a
    regular file for instance, is a SchemaViolation naming `what` and the
    file."""
    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        return open(path, mode, encoding="utf-8", newline=newline)
    except OSError as err:
        raise SchemaViolation(f"cannot write {what} {path}: {err}") from err


def write_jsonl(records: Iterable[SolutionRecord], path) -> int:
    """Writes each record id once, from the first record that has it, to the
    corpus at `path`, and returns how many records it wrote."""
    written: set[str] = set()
    with open_output(path, "corpus") as handle:
        for record in records:
            if record.record_id not in written:
                written.add(record.record_id)
                handle.write(jsonl_line(record_to_json(record)))
    return len(written)


# --- Statistics ---


@dataclass(frozen=True)
class DatasetStats:
    """Cross-tab of record counts per (origin, correct/error-category)."""

    counts: Mapping[tuple[str, str], int]
    total: int

    def cell(self, origin: str, klass: str) -> int:
        return self.counts.get((origin, klass), 0)

    def as_table(self) -> str:
        header = "origin  " + "  ".join(f"{k:>8}" for k in STAT_CLASSES)
        lines = [header]
        for origin in ORIGINS:
            row = f"{origin:<6}  " + "  ".join(
                f"{self.cell(origin, k):>8}" for k in STAT_CLASSES
            )
            lines.append(row)
        return "\n".join(lines)


def compute_stats(records: Iterable[SolutionRecord]) -> DatasetStats:
    counts: dict[tuple[str, str], int] = {}
    total = 0
    for record in records:
        klass = record.label.category if record.label.is_error else "correct"
        counts[(record.origin, klass)] = counts.get((record.origin, klass), 0) + 1
        total += 1
    return DatasetStats(counts=counts, total=total)
