"""Detection strategies over (question, step-wise solution) pairs.

Plain and chain-of-thought prompting, reference-conditioned prompting,
and the four-stage ask-then-detect flow: split the question into
conditions and inquiry, turn the solution's steps into questions, answer
them into a reference solution, then grade with the reference attached.
Response parsing is total: every detector reply maps to a valid or
invalid outcome, never an exception.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from importlib import resources
from typing import Callable

from . import backends
from .backends import BackendProfile, GenerationParams
from .records import CORRECT_LABEL, ErrorLabel, SolutionRecord, render_solution_text

TEMPLATE_IDS = ("naive", "cot", "reference_naive", "reference_cot", "cqe", "ssi", "sqr")

STRATEGY_NAIVE = "M0"
STRATEGY_COT = "M1"
STRATEGY_ASKBD = "M2"
STRATEGY_ASKBD_COT = "M3"
STRATEGY_REF_CONVENTIONAL = "ref_conventional"
STRATEGY_REF_MATCHING = "ref_matching"
STRATEGIES = (
    STRATEGY_NAIVE,
    STRATEGY_COT,
    STRATEGY_ASKBD,
    STRATEGY_ASKBD_COT,
    STRATEGY_REF_CONVENTIONAL,
    STRATEGY_REF_MATCHING,
)

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
class ExtractedQuestionParts:
    conditions: str
    inquiry: str

    def __post_init__(self):
        if not self.conditions.strip() or not self.inquiry.strip():
            raise ValueError("conditions and inquiry must both be nonempty")


@dataclass(frozen=True)
class StepQuestionList:
    questions: tuple[str, ...]
    inquiry: str

    def __post_init__(self):
        if not self.questions:
            raise ValueError("question list is empty")
        if self.questions[-1] != self.inquiry:
            raise ValueError("the final question must be the inquiry text")


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


# --- Stage operations ---


def _user_message(prompt: str) -> list[dict[str, str]]:
    return [{"role": "user", "content": prompt}]


def _ask(
    profile: BackendProfile,
    prompt: str,
    parser: Callable[[str], object],
    backend,
    params: GenerationParams = GenerationParams(),
):
    """One re-ask on unparseable output, then fail."""
    last_error: UnparseableBackendOutput | None = None
    for _ in range(2):
        text = backends.generate(profile, _user_message(prompt), params, backend=backend)
        try:
            return parser(text), text
        except UnparseableBackendOutput as err:
            last_error = err
    raise last_error


_CQE_RESPONSE = re.compile(
    r"<conditions>\s*(.*?)\s*<inquiry>\s*(.*)", re.IGNORECASE | re.DOTALL
)


def _parse_cqe(text: str) -> ExtractedQuestionParts:
    match = _CQE_RESPONSE.search(text)
    if not match:
        raise UnparseableBackendOutput("no <conditions>/<inquiry> sections in response")
    conditions, inquiry = match.group(1).strip(), match.group(2).strip()
    if not conditions or not inquiry:
        raise UnparseableBackendOutput("empty conditions or inquiry section")
    return ExtractedQuestionParts(conditions=conditions, inquiry=inquiry)


def cqe(
    question: str, profile: BackendProfile, backend,
    params: GenerationParams = GenerationParams(),
) -> tuple[ExtractedQuestionParts, StageExchange]:
    prompt = load_template("cqe").render(question=question)
    parts, response = _ask(profile, prompt, _parse_cqe, backend, params)
    return parts, StageExchange("cqe", prompt, response)


_QUESTION_LINE = re.compile(r"^\s*question\s*(\d+)\s*[:.]\s*(.+?)\s*$", re.IGNORECASE)


def ssi(
    record: SolutionRecord, inquiry: str, profile: BackendProfile, backend,
    params: GenerationParams = GenerationParams(),
) -> tuple[StepQuestionList, StageExchange]:
    """One conclusion-first question per solution step, inquiry appended."""
    prompt = load_template("ssi").render(solution=render_solution_text(record))

    def parse(text: str) -> StepQuestionList:
        numbered: dict[int, str] = {}
        for line in text.splitlines():
            match = _QUESTION_LINE.match(line)
            if match:
                numbered[int(match.group(1))] = match.group(2)
        expected = list(range(1, len(record.steps) + 1))
        if sorted(numbered) != expected:
            raise UnparseableBackendOutput(
                f"expected questions 1..{len(record.steps)}, got {sorted(numbered)}"
            )
        questions = tuple(numbered[i] for i in expected) + (inquiry,)
        return StepQuestionList(questions=questions, inquiry=inquiry)

    questions, response = _ask(profile, prompt, parse, backend, params)
    return questions, StageExchange("ssi", prompt, response)


def sqr(
    conditions: str, questions: StepQuestionList, profile: BackendProfile, backend,
    params: GenerationParams = GenerationParams(),
) -> tuple[str, StageExchange]:
    """Answer the step questions in order into a reference solution."""
    if not conditions.strip():
        raise ValueError("condition text is empty")
    numbered = "\n".join(
        f"Question {i}: {q}" for i, q in enumerate(questions.questions, start=1)
    )
    prompt = load_template("sqr").render(conditions=conditions, questions=numbered)

    def parse(text: str) -> str:
        if not text.strip():
            raise UnparseableBackendOutput("empty reference solution")
        return text.strip()

    reference, response = _ask(profile, prompt, parse, backend, params)
    return reference, StageExchange("sqr", prompt, response)


def reg(
    record: SolutionRecord,
    reference: str,
    profile: BackendProfile,
    mode: str = "naive",
    *,
    backend,
    params: GenerationParams = GenerationParams(),
) -> tuple[DetectionOutcome, list[StageExchange]]:
    """Grade with the reference attached; invalid output is kept as an
    invalid outcome (judged incorrect downstream), with one re-ask."""
    if not reference.strip():
        raise ValueError("reference text is empty")
    template = load_template("reference_cot" if mode == "cot" else "reference_naive")
    prompt = template.render(
        question=record.question,
        solution=render_solution_text(record),
        reference=reference,
    )
    return _graded_exchanges("reg", prompt, record, profile, backend, params)


def _graded_exchanges(
    stage: str,
    prompt: str,
    record: SolutionRecord,
    profile: BackendProfile,
    backend,
    params: GenerationParams,
) -> tuple[DetectionOutcome, list[StageExchange]]:
    exchanges: list[StageExchange] = []
    outcome = None
    for _ in range(2):
        response = backends.generate(profile, _user_message(prompt), params, backend=backend)
        exchanges.append(StageExchange(stage, prompt, response))
        outcome = parse_detector_response(response, len(record.steps))
        if outcome.valid:
            break
    return outcome, exchanges


def detect(
    record: SolutionRecord,
    profile: BackendProfile,
    strategy: str,
    reference: str | None = None,
    *,
    backend,
    params: GenerationParams = GenerationParams(),
) -> DetectionRun:
    """Run one detection strategy and return the outcome with its full
    transcript. The ask-then-detect strategies compose the four stages in
    order; reference strategies require `reference`."""
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    transcript: list[StageExchange] = []

    if strategy in (STRATEGY_NAIVE, STRATEGY_COT):
        template = load_template("cot" if strategy == STRATEGY_COT else "naive")
        prompt = template.render(
            question=record.question, solution=render_solution_text(record)
        )
        outcome, exchanges = _graded_exchanges("reg", prompt, record, profile, backend, params)
        transcript.extend(exchanges)
    elif strategy in (STRATEGY_REF_CONVENTIONAL, STRATEGY_REF_MATCHING):
        if reference is None:
            raise ValueError(f"strategy {strategy} requires a reference solution")
        outcome, exchanges = reg(
            record, reference, profile, "naive", backend=backend, params=params
        )
        transcript.extend(exchanges)
    else:
        parts, exchange = cqe(record.question, profile, backend, params)
        transcript.append(exchange)
        questions, exchange = ssi(record, parts.inquiry, profile, backend, params)
        transcript.append(exchange)
        generated_reference, exchange = sqr(parts.conditions, questions, profile, backend, params)
        transcript.append(exchange)
        mode = "cot" if strategy == STRATEGY_ASKBD_COT else "naive"
        outcome, exchanges = reg(
            record, generated_reference, profile, mode, backend=backend, params=params
        )
        transcript.extend(exchanges)

    return DetectionRun(
        record_id=record.record_id,
        strategy=strategy,
        outcome=outcome,
        transcript=tuple(transcript),
    )
