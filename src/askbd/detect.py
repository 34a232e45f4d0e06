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
from dataclasses import dataclass
from importlib import resources
from typing import Callable, Sequence

from . import backends
from .backends import BackendProfile
from .records import CORRECT_LABEL, ErrorLabel, SolutionRecord, render_solution_text

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

# the transcript stage of a record whose detection failed
FAILED_STAGE = "failed"

TAG_CORRECT = "correct"
TAG_SECONDARY = "secondary"
_TAG_SPELLINGS = {
    "correct": "correct",
    "calculation error": "calc",
    "reference error": "ref",
    "missing step": "missing",
    "hallucination": "halluc",
    "secondary error": "secondary",
}


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


def load_template(template_id: str) -> PromptTemplate:
    if template_id not in TEMPLATE_IDS:
        raise ValueError(f"unknown template {template_id!r}")
    text = (
        resources.files("askbd")
        .joinpath("templates", f"{template_id}.txt")
        .read_text(encoding="utf-8")
    )
    return PromptTemplate(template_id=template_id, text=text.rstrip("\n"))


@dataclass(frozen=True)
class DetectionOutcome:
    """Per-step tags plus the label they deterministically imply."""

    step_tags: tuple[str, ...]
    predicted: ErrorLabel
    raw_response: str
    valid: bool
    thinking: str | None = None
    invalid_reason: str | None = None

    @classmethod
    def invalid_response(cls, raw: str, reason: str) -> "DetectionOutcome":
        return cls(
            step_tags=(),
            predicted=CORRECT_LABEL,
            raw_response=raw,
            valid=False,
            invalid_reason=reason,
        )


@dataclass(frozen=True)
class StageExchange:
    stage: str
    prompt: str
    response: str


@dataclass(frozen=True)
class DetectionRun:
    record_id: str
    strategy: str
    outcome: DetectionOutcome
    transcript: tuple[StageExchange, ...]


# --- Response parsing ---

_TAG_ALTS = "|".join(sorted(_TAG_SPELLINGS, key=len, reverse=True))
_BRACKET_LINE = re.compile(
    rf"^\s*step\s*(\d+)\s*[:.]?\s*<\s*({_TAG_ALTS})\s*>", re.IGNORECASE
)
_BARE_LINE = re.compile(
    rf"^\s*step\s*(\d+)\s*[:.]\s*({_TAG_ALTS})\s*[.!]?\s*$", re.IGNORECASE
)


def parse_detector_response(text: str, n_steps: int) -> DetectionOutcome:
    """Extract `Step k: <tag>` lines and derive the predicted label.

    The first step tagged with a primary error wins; correct and
    secondary tags never contribute. Missing or duplicate step lines, or
    a step count mismatch, mark the outcome invalid instead of raising.
    """
    if n_steps < 1:
        return DetectionOutcome.invalid_response(text, "solution has no steps")
    found: dict[int, str] = {}
    first_tag_line: int | None = None
    for line_number, line in enumerate(text.splitlines()):
        match = _BRACKET_LINE.match(line) or _BARE_LINE.match(line)
        if not match:
            continue
        step = int(match.group(1))
        tag = _TAG_SPELLINGS[match.group(2).lower()]
        if step in found:
            return DetectionOutcome.invalid_response(text, f"duplicate line for step {step}")
        found[step] = tag
        if first_tag_line is None:
            first_tag_line = line_number
    if set(found) != set(range(1, n_steps + 1)):
        return DetectionOutcome.invalid_response(
            text, f"expected steps 1..{n_steps}, got {sorted(found)}"
        )
    tags = tuple(found[i] for i in range(1, n_steps + 1))
    predicted = CORRECT_LABEL
    for index, tag in enumerate(tags, start=1):
        if tag not in (TAG_CORRECT, TAG_SECONDARY):
            predicted = ErrorLabel(index, tag)
            break
    thinking = None
    if first_tag_line:
        head = "\n".join(text.splitlines()[:first_tag_line]).strip()
        thinking = head or None
    return DetectionOutcome(
        step_tags=tags,
        predicted=predicted,
        raw_response=text,
        valid=True,
        thinking=thinking,
    )




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


# --- Reply parsers: each raises UnparseableBackendOutput to ask again ---


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


def _parse_ssi(text: str, n_steps: int) -> list[str]:
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
    return [numbered[i] for i in expected]


def _parse_sqr(text: str) -> str:
    if not text.strip():
        raise UnparseableBackendOutput("empty reference solution")
    return text.strip()


def _parse_grading(text: str, n_steps: int) -> DetectionOutcome:
    outcome = parse_detector_response(text, n_steps)
    if not outcome.valid:
        raise UnparseableBackendOutput(outcome.invalid_reason)
    return outcome


# --- Detection ---


def _user_message(prompt: str) -> list[dict[str, str]]:
    return [{"role": "user", "content": prompt}]


# failures confined to one record: the run records them and goes on
_RECORD_FAILURES = (UnparseableBackendOutput, backends.MalformedResponse, backends.RateLimited)


def detect(
    record: SolutionRecord,
    profile: BackendProfile,
    strategy: str,
    reference: str | None = None,
    *,
    backend,
) -> DetectionRun:
    """Run one detection strategy and return the outcome with every
    exchange it made, re-asks included. M2 and M3 build their reference
    with the cqe, ssi and sqr stages before grading; the ref_* strategies
    grade with the given `reference`. A grading reply that stays
    unparseable is an invalid outcome. Any other per-record failure ends
    the transcript with one `failed` line naming the stage and the error
    class, and the outcome is invalid; other backend errors propagate."""
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    transcript: list[StageExchange] = []
    stage = ""

    def ask(this_stage: str, prompt: str, parse: Callable[[str], object]):
        """Send `prompt`, and once more if `parse` rejects the reply; a
        second rejection raises. Every exchange joins the transcript."""
        nonlocal stage
        stage = this_stage
        for reask in (False, True):
            response = backends.generate(profile, _user_message(prompt), backend=backend)
            transcript.append(StageExchange(stage, prompt, response))
            try:
                return parse(response)
            except UnparseableBackendOutput:
                if reask:
                    raise

    n_steps = len(record.steps)
    try:
        if strategy in ASKBD_STRATEGIES:
            conditions, inquiry = ask("cqe", cqe_prompt(record), _parse_cqe)
            questions = ask("ssi", ssi_prompt(record), lambda text: _parse_ssi(text, n_steps))
            reference = ask("sqr", sqr_prompt(conditions, [*questions, inquiry]), _parse_sqr)
        prompt = grading_prompt(record, strategy, reference)
        try:
            outcome = ask("reg", prompt, lambda text: _parse_grading(text, n_steps))
        except UnparseableBackendOutput as err:
            outcome = DetectionOutcome.invalid_response(transcript[-1].response, str(err))
    except _RECORD_FAILURES as err:
        failure = f"stage failure: {stage}: {type(err).__name__}: {err}"
        transcript.append(StageExchange(FAILED_STAGE, "", failure))
        outcome = DetectionOutcome.invalid_response("", failure)

    return DetectionRun(
        record_id=record.record_id,
        strategy=strategy,
        outcome=outcome,
        transcript=tuple(transcript),
    )
