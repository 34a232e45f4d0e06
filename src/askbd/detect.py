"""Detection strategies over (question, step-wise solution) pairs.

Plain and chain-of-thought prompting, reference-conditioned prompting,
and the four-stage ask-then-detect flow: split the question into
conditions and inquiry (cqe), turn the solution's steps into questions
(ssi), answer them into a reference solution (sqr), then grade with the
reference attached (reg). This module alone builds what each stage
sends. Response parsing is total: every detector reply maps to a valid or
invalid outcome, never an exception.
"""

from __future__ import annotations

import re
import types
from dataclasses import dataclass
from importlib import resources
from typing import Callable, Sequence

from . import backends
from .backends import BackendProfile
from .records import (
    CATEGORY_CALCULATION,
    CATEGORY_HALLUCINATION,
    CATEGORY_MISSING,
    CATEGORY_REFERENCE,
    CORRECT_LABEL,
    ErrorLabel,
    SolutionRecord,
    render_solution_text,
)

TEMPLATE_IDS = ("naive", "cot", "reference_naive", "reference_cot", "cqe", "ssi", "sqr")

STRATEGY_NAIVE = "M0"
STRATEGY_COT = "M1"
STRATEGY_ASKBD = "M2"
STRATEGY_ASKBD_COT = "M3"
STRATEGY_REF_CONVENTIONAL = "ref_conventional"
STRATEGY_REF_MATCHING = "ref_matching"
# the template each strategy grades with
_GRADING_TEMPLATES = {
    STRATEGY_NAIVE: "naive",
    STRATEGY_COT: "cot",
    STRATEGY_ASKBD: "reference_naive",
    STRATEGY_ASKBD_COT: "reference_cot",
    STRATEGY_REF_CONVENTIONAL: "reference_naive",
    STRATEGY_REF_MATCHING: "reference_naive",
}
STRATEGIES = tuple(_GRADING_TEMPLATES)
# strategies that build their own reference before grading
ASKBD_STRATEGIES = (STRATEGY_ASKBD, STRATEGY_ASKBD_COT)
# strategies that grade with a given reference solution
REFERENCE_STRATEGIES = (STRATEGY_REF_CONVENTIONAL, STRATEGY_REF_MATCHING)

# the transcript stage of a grading exchange, and of a record whose
# detection failed; every record's transcript lines end with one of them
GRADING_STAGE = "reg"
FAILED_STAGE = "failed"
OUTCOME_STAGES = (GRADING_STAGE, FAILED_STAGE)

TAG_CORRECT = "correct"
TAG_SECONDARY = "secondary"
# how a detector reply spells each tag, as in `Step 2: <reference error>`
TAG_SPELLINGS = {
    TAG_CORRECT: "correct",
    CATEGORY_CALCULATION: "calculation error",
    CATEGORY_REFERENCE: "reference error",
    CATEGORY_MISSING: "missing step",
    CATEGORY_HALLUCINATION: "hallucination",
    TAG_SECONDARY: "secondary error",
}
_TAGS = {spelling: tag for tag, spelling in TAG_SPELLINGS.items()}


class UnparseableBackendOutput(RuntimeError):
    pass


@dataclass(frozen=True)
class PromptTemplate:
    template_id: str
    text: str

    def render(self, **values: str) -> str:
        try:
            return self.text.format(**values)
        except (KeyError, IndexError) as err:
            raise ValueError(
                f"template {self.template_id!r} has unbound placeholder: {err}"
            ) from err


# every template, read from its file once, at import
_TEMPLATES = types.MappingProxyType({
    template_id: PromptTemplate(template_id, resources.files("askbd").joinpath(
        "templates", f"{template_id}.txt").read_text(encoding="utf-8").rstrip("\n"))
    for template_id in TEMPLATE_IDS
})


def load_template(template_id: str) -> PromptTemplate:
    """The template `template_id`; an unknown id raises ValueError."""
    try:
        return _TEMPLATES[template_id]
    except KeyError:
        raise ValueError(f"unknown template {template_id!r}") from None


@dataclass(frozen=True)
class DetectionOutcome:
    """The label a detector reply implies, or why the reply is invalid."""

    predicted: ErrorLabel
    valid: bool
    invalid_reason: str | None = None

    @classmethod
    def invalid_response(cls, reason: str) -> "DetectionOutcome":
        return cls(predicted=CORRECT_LABEL, valid=False, invalid_reason=reason)


@dataclass(frozen=True)
class StageExchange:
    stage: str
    prompt: str
    response: str


# --- Response parsing ---

_TAG_ALTS = "|".join(sorted(_TAGS, key=len, reverse=True))
# a step line may start with list, quote or heading markers (`-`, `*`, `>`,
# `#`), and `**` or `__` may set off `Step k` and its tag. Each run of
# spaces has one place to match, so a long line fails in linear time
_EM = r"(?:(?:\*\*|__)\s*)*"
_STEP = r"^\s*(?:(?:[-*>#]|__)\s*)*step\s*(\d+)\s*" + _EM
_BRACKET_LINE = re.compile(
    rf"{_STEP}(?:[:.]\s*{_EM})?<\s*({_TAG_ALTS})\s*>", re.IGNORECASE
)
_BARE_LINE = re.compile(
    rf"{_STEP}[:.]\s*{_EM}({_TAG_ALTS})\s*{_EM}(?:[.!]\s*{_EM})?$", re.IGNORECASE
)


def parse_detector_response(text: str, n_steps: int) -> DetectionOutcome:
    """Extract `Step k: <tag>` lines and derive the predicted label.

    A reply with a `<response>` marker is read after its last one, so
    step tags in the reasoning before it do not count. The first step
    tagged with a primary error wins; correct and secondary tags never
    contribute. Missing or duplicate step lines, or a step count
    mismatch, mark the outcome invalid instead of raising.
    """
    if n_steps < 1:
        return DetectionOutcome.invalid_response("solution has no steps")
    found: dict[int, str] = {}
    for line in text.rpartition("<response>")[2].splitlines():
        match = _BRACKET_LINE.match(line) or _BARE_LINE.match(line)
        if not match:
            continue
        step = int(match.group(1))
        if step in found:
            return DetectionOutcome.invalid_response(f"duplicate line for step {step}")
        found[step] = _TAGS[match.group(2).lower()]
    if set(found) != set(range(1, n_steps + 1)):
        return DetectionOutcome.invalid_response(
            f"expected steps 1..{n_steps}, got {sorted(found)}"
        )
    for step in range(1, n_steps + 1):
        if found[step] not in (TAG_CORRECT, TAG_SECONDARY):
            return DetectionOutcome(ErrorLabel(step, found[step]), valid=True)
    return DetectionOutcome(CORRECT_LABEL, valid=True)


def outcome_of(stage: str, response: str, n_steps: int) -> DetectionOutcome:
    """The outcome of a detection whose last `reg` or `failed` exchange has
    `stage` and `response`: a failed stage is invalid, with its response as
    the reason."""
    if stage == FAILED_STAGE:
        return DetectionOutcome.invalid_response(response)
    return parse_detector_response(response, n_steps)


# --- Prompts: what each stage sends ---


def cqe_prompt(record: SolutionRecord) -> str:
    """Split the question into its conditions and its inquiry."""
    return load_template("cqe").render(question=record.question)


def ssi_prompt(record: SolutionRecord) -> str:
    """Turn each solution step into a conclusion-first question."""
    return load_template("ssi").render(solution=render_solution_text(record))


def sqr_prompt(conditions: str, questions: Sequence[str]) -> str:
    """Answer the step questions, the inquiry last, into a reference solution."""
    numbered = "\n".join(f"Question {i}: {q}" for i, q in enumerate(questions, start=1))
    return load_template("sqr").render(conditions=conditions, questions=numbered)


def grading_prompt(
    record: SolutionRecord, strategy: str, reference: str | None = None
) -> str:
    """Grade the solution with `strategy`'s template; the templates that
    take a reference attach `reference`, and render fails without one."""
    values = {"question": record.question, "solution": render_solution_text(record)}
    if reference is not None:
        values["reference"] = reference
    return load_template(_GRADING_TEMPLATES[strategy]).render(**values)


# --- Reply parsers: each raises UnparseableBackendOutput on a reply it rejects ---


_CQE_RESPONSE = re.compile(
    r"<conditions>\s*(.*?)\s*<inquiry>\s*(.*)", re.IGNORECASE | re.DOTALL
)
_QUESTION_LINE = re.compile(r"^\s*question\s*(\d+)\s*[:.]\s*(.+?)\s*$", re.IGNORECASE)


def _parse_cqe(text: str) -> tuple[str, str]:
    match = _CQE_RESPONSE.search(text)
    if not match:
        raise UnparseableBackendOutput("no <conditions>/<inquiry> sections in response")
    conditions, inquiry = match.group(1).strip(), match.group(2).strip()
    if not conditions or not inquiry:
        raise UnparseableBackendOutput("empty conditions or inquiry section")
    return conditions, inquiry


def _parse_ssi(text: str, n_steps: int) -> tuple[str, ...]:
    """One question per solution step, in step order."""
    numbered: dict[int, str] = {}
    for line in text.splitlines():
        match = _QUESTION_LINE.match(line)
        if match:
            numbered[int(match.group(1))] = match.group(2)
    expected = list(range(1, n_steps + 1))
    if sorted(numbered) != expected:
        raise UnparseableBackendOutput(
            f"expected questions 1..{n_steps}, got {sorted(numbered)}"
        )
    return tuple(numbered[i] for i in expected)


def _parse_sqr(text: str) -> str:
    if not text.strip():
        raise UnparseableBackendOutput("empty reference solution")
    return text.strip()


# --- Detection ---


class DetectionMemo:
    """What the detections of one run share, filled as they go.

    `prompts` holds each stage prompt by what it is rendered from: the cqe
    prompt by question text, the ssi prompt by record id, the sqr prompt by
    the cqe and ssi readings, and a grading prompt by (grading template,
    record id, reference). So a prompt asked again is the same `str` object,
    whose hash is cached. A record id names one record's content for as
    long as the memo lives, as it does within one run.

    `readings` holds what the cqe, ssi and sqr parsers made of a reply, by
    (stage, reply), and for ssi the record's step count, on which its
    reading depends. A reply the parser rejects is not stored: it ends the
    detection that got it.

    Two threads sharing a memo may both render one prompt or read one
    reply, and both store the same value."""

    def __init__(self):
        self.prompts: dict[tuple, str] = {}
        self.readings: dict[tuple, object] = {}

    def prompt(self, key: tuple, render: Callable[..., str], *args) -> str:
        """The prompt stored under `key`, rendered by `render(*args)` the
        first time it is asked for."""
        found = self.prompts.get(key)
        if found is None:
            found = self.prompts[key] = render(*args)
        return found


# failures confined to one record: the run records them and goes on
_RECORD_FAILURES = (UnparseableBackendOutput, backends.MalformedResponse, backends.RateLimited)


def detect(
    record: SolutionRecord,
    profile: BackendProfile,
    strategy: str,
    reference: str | None = None,
    *,
    backend,
    memo: DetectionMemo | None = None,
) -> tuple[StageExchange, ...]:
    """Run one detection strategy and return every exchange it made, one per
    stage asked. The last one is the `reg` or `failed` exchange that
    `outcome_of` judges. M2 and M3 build their reference with the cqe, ssi
    and sqr stages before grading; the ref_* strategies grade with the
    given `reference`. The grading reply is recorded, not read. A cqe, ssi
    or sqr reply that its parser rejects, and any other per-record failure,
    ends the exchanges with one `failed` line naming the stage and the
    error class; other backend errors propagate.

    `memo` gives the prompts already rendered and the replies already
    read, and gains the ones rendered and read here; a memo shared by
    several calls renders each distinct prompt once and reads each
    distinct reply once."""
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    if memo is None:
        memo = DetectionMemo()
    readings = memo.readings
    transcript: list[StageExchange] = []
    stage = ""

    def ask(this_stage: str, prompt: str, parse: Callable[..., object] | None = None,
            *steps: int):
        """Send `prompt` once, add the exchange to the transcript and return
        `parse(reply, *steps)`, if a parser is given."""
        nonlocal stage
        stage = this_stage
        messages = [{"role": "user", "content": prompt}]
        response = backends.generate(profile, messages, backend=backend)
        transcript.append(StageExchange(stage, prompt, response))
        if parse is None:
            return None
        key = (stage, response, *steps)
        reading = readings.get(key)
        if reading is None:
            reading = readings[key] = parse(response, *steps)
        return reading

    try:
        if strategy in ASKBD_STRATEGIES:
            prompt = memo.prompt(("cqe", record.question), cqe_prompt, record)
            conditions, inquiry = ask("cqe", prompt, _parse_cqe)
            prompt = memo.prompt(("ssi", record.record_id), ssi_prompt, record)
            questions = ask("ssi", prompt, _parse_ssi, len(record.steps))
            prompt = memo.prompt(("sqr", conditions, questions, inquiry),
                                 sqr_prompt, conditions, [*questions, inquiry])
            reference = ask("sqr", prompt, _parse_sqr)
        prompt = memo.prompt((_GRADING_TEMPLATES[strategy], record.record_id, reference),
                             grading_prompt, record, strategy, reference)
        ask(GRADING_STAGE, prompt)
    except _RECORD_FAILURES as err:
        failure = f"stage failure: {stage}: {type(err).__name__}: {err}"
        transcript.append(StageExchange(FAILED_STAGE, "", failure))
    return tuple(transcript)
