"""Deterministic offline corpora, cassettes, and run configs.

Generates word-problem records whose condition values, intermediate
results, and answer are pairwise distinct positive integers with every
intermediate consumed exactly once; under those invariants the
recompute-and-resolve checker locates any injected error exactly. Also
builds scripted cassettes so full detection runs work with zero network.

Run `python -m askbd.demo OUTDIR` to materialize a ready-to-run demo.
"""

from __future__ import annotations

import json
import random
from pathlib import Path
from typing import Iterable, Sequence

from .alternatives import NoPermutationsAvailable, generate_alternatives
from .backends import GenerationParams, cassette_line, generate_fingerprint
from .detect import (
    STRATEGY_ASKBD_COT,
    STRATEGY_COT,
    TAG_CORRECT,
    TAG_SECONDARY,
    TAG_SPELLINGS,
    cqe_prompt,
    grading_prompt,
    sqr_prompt,
    ssi_prompt,
)
from .exprs import eval_expr, format_value, parse_expr
from .inject import InjectionError, inject
from .label_oracle import oracle_clean
from .records import (
    CATEGORIES, SolutionRecord, make_record, open_output, parse_structured_solution,
    write_jsonl,
)

NAMES = ("Avery", "Brooke", "Casey", "Devin", "Elliot", "Frankie", "Harper", "Jordan")


def _family_trips(rng: random.Random):
    a = rng.randint(6, 14)
    b = rng.randint(2, a - 2)
    n = rng.randint(3, 12)
    question = (
        f"A ferry carries {a} passengers on each morning trip and {b} passengers "
        f"on each evening trip. It makes {n} trips in the morning and {n} trips "
        "in the evening. How many more passengers ride in the morning than in "
        "the evening over the whole day?"
    )
    r1, r2 = a * n, b * n
    answer = r1 - r2
    statements = [
        f"The morning trips carry {a} * {n} = {r1} passengers.",
        f"The evening trips carry {b} * {n} = {r2} passengers.",
        f"The morning trips carry {r1} - {r2} = {answer} more passengers.",
    ]
    return question, statements, answer


def _family_crates(rng: random.Random):
    name = rng.choice(NAMES)
    c = rng.randint(3, 12)
    u = rng.randint(4, 15)
    e = rng.randint(2, c * u - 2)
    question = (
        f"{name} receives {c} crates with {u} boxes in each crate. Workers "
        f"unpack {e} of the boxes. How many boxes are still packed?"
    )
    r1 = c * u
    answer = r1 - e
    statements = [
        f"The crates hold {c} * {u} = {r1} boxes in total.",
        f"After unpacking, {r1} - {e} = {answer} boxes remain.",
    ]
    return question, statements, answer


def _family_fair(rng: random.Random):
    t1 = rng.randint(5, 20)
    p1 = rng.randint(3, 12)
    t2 = rng.randint(5, 20)
    p2 = rng.randint(2, 9)
    f = rng.randint(7, 40)
    question = (
        f"A fair sells {t1} adult tickets at {p1} dollars each and {t2} child "
        f"tickets at {p2} dollars each, and it also collects a fixed fee of "
        f"{f} dollars. How many dollars does the fair collect in total?"
    )
    r1, r2 = t1 * p1, t2 * p2
    r3 = r1 + r2
    answer = r3 + f
    statements = [
        f"Adult tickets bring in {t1} * {p1} = {r1} dollars.",
        f"Child tickets bring in {t2} * {p2} = {r2} dollars.",
        f"Ticket sales total {r1} + {r2} = {r3} dollars.",
        f"With the fee, the fair collects {r3} + {f} = {answer} dollars.",
    ]
    return question, statements, answer


def _family_share(rng: random.Random):
    name = rng.choice(NAMES)
    g = rng.randint(3, 9)
    k = rng.randint(4, 15)
    total = g * k
    m = rng.randint(2, 20)
    question = (
        f"{name} splits {total} rolls evenly among {g} baskets and then adds "
        f"{m} more rolls to each basket. How many rolls end up in each basket?"
    )
    answer = k + m
    statements = [
        f"Each basket first gets {total} / {g} = {k} rolls.",
        f"After adding more, each basket has {k} + {m} = {answer} rolls.",
    ]
    return question, statements, answer


_FAMILIES = (_family_trips, _family_crates, _family_fair, _family_share)


def _build_record(question: str, statements: Sequence[str], answer: int) -> SolutionRecord:
    """A conventional record whose steps are read from their statements by
    the rule `ingest` uses: each statement's one `a op b = c` is its step's
    expression and stated result."""
    text = " ".join(f"Step {i}. {s}" for i, s in enumerate(statements, start=1))
    return make_record(question=question, steps=parse_structured_solution(text), answer=answer)


def _injections(record: SolutionRecord, seed: int) -> list[SolutionRecord] | None:
    """The record's four injected records at `seed`, one per category, or
    None when a category cannot apply. Eligibility does not depend on the
    seed, so the probe's records are the ones a corpus keeps."""
    try:
        return [inject(record, category, seed) for category in CATEGORIES]
    except InjectionError:
        return None


def build_labeled_corpus(
    n: int, seed: int = 0
) -> tuple[list[SolutionRecord], list[SolutionRecord], list[SolutionRecord]]:
    """(conventional, alternative, injected): n conventional records, each
    paired with one derived alternative, plus 4 erroneous records per
    correct one, each made once, by the probe that accepts its source.

    Both correct sides satisfy the oracle-clean invariants and support all
    four injections; instances failing any check are resampled.
    """
    rng = random.Random(seed)
    conventional: list[SolutionRecord] = []
    alternative: list[SolutionRecord] = []
    injected_d: list[SolutionRecord] = []
    injected_d1: list[SolutionRecord] = []
    seen_questions: set[str] = set()
    attempts = 0
    while len(conventional) < n:
        attempts += 1
        if attempts > 200 * n:
            raise RuntimeError("corpus generation is not converging")
        family = _FAMILIES[len(conventional) % len(_FAMILIES)]
        question, statements, answer = family(rng)
        if question in seen_questions:
            continue
        record = _build_record(question, statements, answer)
        record_injections = _injections(record, seed) if oracle_clean(record) else None
        if record_injections is None:
            continue
        try:
            candidates = generate_alternatives(record, k=3, seed=rng.randrange(2**31))
        except NoPermutationsAvailable:
            continue
        selected = None
        for derived in candidates:
            derived_injections = _injections(derived, seed) if oracle_clean(derived) else None
            if derived_injections is not None:
                selected = derived
                break
        if selected is None:
            continue
        seen_questions.add(question)
        conventional.append(record)
        alternative.append(selected)
        injected_d.extend(record_injections)
        injected_d1.extend(derived_injections)
    return conventional, alternative, injected_d + injected_d1


# --- Scripted cassette for full detection runs ---

ACCURACY_TARGETS = {
    ("M0", "D"): 0.60, ("M0", "D1"): 0.40,
    ("M1", "D"): 0.70, ("M1", "D1"): 0.55,
    ("M2", "D"): 0.75, ("M2", "D1"): 0.65,
    ("M3", "D"): 0.85, ("M3", "D1"): 0.80,
}


def _tags_for(record: SolutionRecord, correct: bool, rng: random.Random) -> list[str]:
    n = len(record.steps)
    gold = record.label
    tags = [TAG_SPELLINGS[TAG_CORRECT]] * n
    if correct:
        if gold.is_error:
            tags[gold.step - 1] = TAG_SPELLINGS[gold.category]
            for later in range(gold.step, n):
                if rng.random() < 0.3:
                    tags[later] = TAG_SPELLINGS[TAG_SECONDARY]
        return tags
    # wrong in a controlled way: miss, misplace, or miscategorize
    if gold.is_error:
        roll = rng.random()
        if roll < 0.4:
            pass  # misses the error entirely
        elif roll < 0.7 and n > 1:
            other = 1 + (gold.step % n)
            tags[other - 1] = TAG_SPELLINGS[gold.category]
        else:
            wrong_category = rng.choice(
                [c for c in CATEGORIES if c != gold.category]
            )
            tags[gold.step - 1] = TAG_SPELLINGS[wrong_category]
    else:
        victim = rng.randrange(n)
        tags[victim] = TAG_SPELLINGS[rng.choice(CATEGORIES)]
    return tags


def _render_tags(tags: Sequence[str]) -> str:
    return "\n".join(f"Step {i}: <{t}>" for i, t in enumerate(tags, start=1))


def _step_questions(record: SolutionRecord) -> list[str]:
    return [
        f"What is {s.expression}?" if s.expression else f"What does step {s.index} conclude?"
        for s in record.steps
    ]


def _reference_text(record: SolutionRecord) -> str:
    """Reference lines recomputed from the step expressions alone, so any
    two records with identical step questions share one reference."""
    lines = []
    for i, step in enumerate(record.steps, start=1):
        if step.expression is not None:
            value = format_value(eval_expr(parse_expr(step.expression)))
            lines.append(f"Step {i}: From the conditions, {step.expression} = {value}.")
        else:
            lines.append(f"Step {i}: This follows directly from the conditions.")
    lines.append(
        f"Step {len(record.steps) + 1}: Therefore the answer is "
        f"{record.answer.numerator if record.answer.denominator == 1 else record.answer}."
    )
    return "\n".join(lines)


def _split_question(record: SolutionRecord) -> tuple[str, str]:
    sentences = [part.strip() for part in record.question.split(". ") if part.strip()]
    inquiry = sentences[-1]
    conditions = ". ".join(sentences[:-1]) + "."
    return conditions, inquiry


def build_cassette(
    records: Iterable[SolutionRecord],
    model: str,
    seed: int = 0,
) -> dict[str, dict]:
    """Scripted exchanges for every strategy over every record, with
    per-strategy accuracy close to ACCURACY_TARGETS."""
    rng = random.Random(seed)
    entries: dict[str, dict] = {}
    params = GenerationParams()

    def script(prompt: str, response: str) -> None:
        key = generate_fingerprint(model, [{"role": "user", "content": prompt}], params)
        entries[key] = {"response": response}

    for record in records:
        conditions, inquiry = _split_question(record)
        step_questions = _step_questions(record)
        reference = _reference_text(record)

        script(cqe_prompt(record), f"<conditions> {conditions}\n<inquiry> {inquiry}")
        script(
            ssi_prompt(record),
            "\n".join(f"Question {i}: {q}" for i, q in enumerate(step_questions, start=1)),
        )
        script(sqr_prompt(conditions, [*step_questions, inquiry]), reference)

        for strategy in ("M0", "M1", "M2", "M3"):
            correct = rng.random() < ACCURACY_TARGETS[(strategy, record.origin)]
            tags = _tags_for(record, correct, rng)
            body = _render_tags(tags)
            if strategy in (STRATEGY_COT, STRATEGY_ASKBD_COT):
                body = "Let me verify each step against the question.\n" + body
            script(grading_prompt(record, strategy, reference), body)
    return entries


def write_cassette(entries: dict[str, dict], path) -> None:
    with open_output(path, "cassette") as handle:
        for key in sorted(entries):
            handle.write(cassette_line(key, entries[key]))


def build_demo(outdir, n_questions: int = 4, seeds: Sequence[int] = (1, 2, 3)) -> dict:
    """Materialize corpus, cassette, profiles, and run config under outdir."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    model = "demo-model"

    conventional, alternative, injected = build_labeled_corpus(n_questions, seed=2024)
    corpus = conventional + alternative + injected
    corpus_path = outdir / "corpus.jsonl"
    write_jsonl(corpus, corpus_path)

    cassette_path = outdir / "cassette.jsonl"
    write_cassette(build_cassette(corpus, model, seed=2024), cassette_path)

    profiles_path = outdir / "profiles.json"
    profiles_path.write_text(
        json.dumps(
            {
                "profiles": [
                    {
                        "name": "demo",
                        "endpoint": f"scripted:{cassette_path}",
                        "model": model,
                        "capabilities": ["generate"],
                    },
                    {
                        "name": "scorer",
                        "endpoint": "mock:score?mode=hash&scale=2.0",
                        "model": "mock-scorer",
                        "capabilities": ["score_tokens"],
                    },
                ]
            },
            indent=2,
        )
        + "\n"
    )

    config_path = outdir / "run.json"
    config_path.write_text(
        json.dumps(
            {
                "profiles": str(profiles_path),
                "profile_names": ["demo"],
                "strategies": ["M0", "M1", "M2", "M3"],
                "seeds": list(seeds),
                "corpora": [str(corpus_path)],
                "out": str(outdir / "out"),
                "strict_scripted": True,
            },
            indent=2,
        )
        + "\n"
    )
    return {
        "corpus": corpus_path,
        "cassette": cassette_path,
        "profiles": profiles_path,
        "config": config_path,
        "n_records": len(corpus),
    }


if __name__ == "__main__":
    import sys

    target = sys.argv[1] if len(sys.argv) > 1 else "demo"
    info = build_demo(target)
    print(f"wrote {info['n_records']} records under {target}")
    print(f"run: askbd run --config {info['config']}")
