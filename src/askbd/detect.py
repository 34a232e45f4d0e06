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

import functools
import re
from contextlib import suppress
from dataclasses import dataclass, field
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

# the transcript stage of a record whose detection failed
FAILED_STAGE = "failed"

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


@functools.cache
def load_template(template_id: str) -> PromptTemplate:
    """The template `template_id`, read from its file on the first call
    only. An unknown id raises ValueError, which is not cached."""
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
    # set on the last exchange `detect` returns: what `outcome_of` makes of
    # it, parsed once; a transcript line does not hold it
    outcome: DetectionOutcome | None = field(default=None, compare=False, repr=False)


# --- Response parsing ---

_TAG_ALTS = "|".join(sorted(_TAGS, key=len, reverse=True))
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
        return DetectionOutcome.invalid_response("solution has no steps")
    found: dict[int, str] = {}
    for line in text.splitlines():
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


# a first ask, then a re-ask, which is a request of its own
_ASK_THEN_REASK = (backends.GenerationParams(), backends.GenerationParams(attempt=1))

# failures confined to one record: the run records them and goes on
_RECORD_FAILURES = (UnparseableBackendOutput, backends.MalformedResponse, backends.RateLimited)


def detect(
    record: SolutionRecord,
    profile: BackendProfile,
    strategy: str,
    reference: str | None = None,
    *,
    backend,
) -> tuple[StageExchange, ...]:
    """Run one detection strategy and return every exchange it made, re-asks
    included. The last one is the `reg` or `failed` exchange that
    `outcome_of` judges, and it carries that outcome. M2 and M3 build
    their reference with the cqe, ssi and sqr stages before grading; the
    ref_* strategies grade with the given `reference`. A grading reply
    that stays unparseable ends the exchanges. Any other per-record
    failure ends them with one `failed` line naming the stage and the
    error class; other backend errors propagate."""
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    transcript: list[StageExchange] = []
    stage = ""

    def ask(this_stage: str, prompt: str, parse: Callable[[str], object]):
        """Send `prompt`, and once more as its own request (`attempt` 1)
        if `parse` rejects the reply; a second rejection raises. Every
        exchange joins the transcript."""
        nonlocal stage
        stage = this_stage
        for params in _ASK_THEN_REASK:
            response = backends.generate(profile, _user_message(prompt), params, backend=backend)
            transcript.append(StageExchange(stage, prompt, response))
            try:
                return parse(response)
            except UnparseableBackendOutput:
                if params.attempt:
                    raise

    n_steps = len(record.steps)
    outcome = None
    try:
        if strategy in ASKBD_STRATEGIES:
            conditions, inquiry = ask("cqe", cqe_prompt(record), _parse_cqe)
            questions = ask("ssi", ssi_prompt(record), lambda text: _parse_ssi(text, n_steps))
            reference = ask("sqr", sqr_prompt(conditions, [*questions, inquiry]), _parse_sqr)
        prompt = grading_prompt(record, strategy, reference)
        with suppress(UnparseableBackendOutput):  # invalid; judged from its line below
            outcome = ask("reg", prompt, lambda text: _parse_grading(text, n_steps))
    except _RECORD_FAILURES as err:
        failure = f"stage failure: {stage}: {type(err).__name__}: {err}"
        transcript.append(StageExchange(FAILED_STAGE, "", failure))
    last = transcript[-1]
    if outcome is None:
        outcome = outcome_of(last.stage, last.response, n_steps)
    transcript[-1] = StageExchange(last.stage, last.prompt, last.response, outcome)
    return tuple(transcript)
