"""Operator entry point: ingestion, alternative generation, interactive
review, error injection, likelihood scoring, detection runs, evaluation.

Exit codes: 0 success, 2 schema error (a bad input, or an output path that
cannot be written), 3 backend error, 4 user abort.
All randomness flows from explicit --seed flags.
"""

from __future__ import annotations

import argparse
import csv
import json
import random
import re
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from itertools import groupby, product
from json.encoder import encode_basestring
from pathlib import Path

from . import backends, likelihood
from .alternatives import (
    CompositionError,
    NoPermutationsAvailable,
    generate_alternatives,
)
from .backends import BackendError, BackendProfile, load_profiles, open_backend
from .detect import (
    FAILED_STAGE,
    REFERENCE_STRATEGIES,
    STRATEGIES,
    STRATEGY_REF_MATCHING,
    DetectionOutcome,
    detect,
    outcome_of,
)
from .evaluate import (
    JudgedResult,
    build_report,
    judge,
    render_report_csv,
    render_report_markdown,
    render_results_csv,
)
from .inject import ErroneousSource, InjectionError, inject
from .records import (
    CATEGORIES,
    RecordError,
    SchemaViolation,
    SolutionRecord,
    compute_stats,
    from_json,
    jsonl_line,
    make_record,
    open_output,
    parse_rational,
    parse_structured_solution,
    read_json_file,
    read_jsonl,
    read_jsonl_lines,
    render_solution_text,
    render_step,
    write_jsonl,
)

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_BACKEND = 3
EXIT_ABORT = 4

# each strategy by its name and by its `-` spelling
_STRATEGY_FLAGS = {
    spelling: name for name in STRATEGIES for spelling in (name, name.replace("_", "-"))
}


# --- ingest ---

_ANNOTATION = re.compile(r"<<[^>]*>>")
_FINAL_MARKER = "####"


def _raw_to_record(obj: dict) -> SolutionRecord:
    question = obj["question"]
    if "rationale" in obj:
        rationale, answer_text = obj["rationale"], str(obj["answer"])
    else:
        answer_field = obj["answer"]
        if _FINAL_MARKER in answer_field:
            rationale, answer_text = answer_field.split(_FINAL_MARKER, 1)
        else:
            raise SchemaViolation("no rationale/final-answer split found")
    lines = [_ANNOTATION.sub("", line).strip() for line in rationale.strip().splitlines()]
    lines = [line for line in lines if line]
    numbered = []
    for i, line in enumerate(lines, start=1):
        if re.match(r"Step\s+\d+\s*[.:]", line):
            numbered.append(line)
        else:
            numbered.append(f"Step {i}. {line}")
    steps = parse_structured_solution(" ".join(numbered))
    answer = parse_rational(answer_text.strip().replace(",", "").replace("$", ""))
    return make_record(question=question, steps=steps, answer=answer)


def cmd_ingest(args) -> int:
    raw = [obj for _, obj in read_jsonl_lines(args.infile, "raw ingest file")]
    if args.n is not None and args.n < len(raw):
        rng = random.Random(args.seed)
        picked = sorted(rng.sample(range(len(raw)), args.n))
        raw = [raw[i] for i in picked]
    records, skipped = [], 0
    for obj in raw:
        try:
            records.append(_raw_to_record(obj))
        except (RecordError, ValueError, KeyError, TypeError) as err:
            skipped += 1
            print(f"skipping record: {err}", file=sys.stderr)
    write_jsonl(records, args.out)
    print(f"ingested {len(records)} records ({skipped} skipped) -> {args.out}")
    return EXIT_OK


# --- gen-alt ---


def cmd_gen_alt(args) -> int:
    records = read_jsonl(args.infile)
    out: list[SolutionRecord] = []
    failures = 0
    for record in records:
        try:
            out.extend(generate_alternatives(
                record, k=args.k, seed=args.seed, max_rewrites=args.max_rewrites,
            ))
        except (CompositionError, NoPermutationsAvailable) as err:
            failures += 1
            print(f"no candidates for {record.record_id}: {err}", file=sys.stderr)
    write_jsonl(out, args.out)
    print(f"generated {len(out)} candidates ({failures} records skipped) -> {args.out}")
    return EXIT_OK


# --- review ---


def _load_audit(path: Path) -> dict[str, dict]:
    """Decisions by source id; a later line overrides an earlier one."""
    decisions: dict[str, dict] = {}
    if path.exists():
        for number, entry in read_jsonl_lines(path, "audit log"):
            source = entry.get("source_id") if isinstance(entry, dict) else None
            if not isinstance(source, str):
                raise SchemaViolation(f"no source_id in audit log {path}", line=number)
            decisions[source] = entry
    return decisions


def cmd_review(args) -> int:
    candidates = read_jsonl(args.candidates)
    by_source: dict[str, list[SolutionRecord]] = {}
    for record in candidates:
        source = (record.lineage or {}).get("source_id", record.record_id)
        by_source.setdefault(source, []).append(record)
    for group in by_source.values():
        group.sort(key=lambda r: r.candidate_rank or 0)

    audit_path = Path(args.audit)
    decisions = _load_audit(audit_path)
    aborted = False

    for source, group in by_source.items():
        if source in decisions:
            continue
        print(f"\n=== source {source} — {len(group)} candidate(s)")
        print(group[0].question)
        for record in group:
            print(f"\n--- candidate {record.candidate_rank} [{record.permuted_expression}]")
            for step in record.steps:
                print("   " + render_step(step))
        try:
            choice = input(
                "\nselect candidate number, Enter for top-ranked, r to reject, q to quit: "
            ).strip().lower()
        except EOFError:  # closed input quits, as q does
            choice = "q"
        if choice == "q":
            aborted = True
            break
        if choice == "r":
            entry = {"source_id": source, "decision": "reject"}
        else:
            try:
                rank = int(choice) if choice else (group[0].candidate_rank or 1)
            except ValueError:
                rank = choice
            if rank not in {r.candidate_rank for r in group}:
                print(f"no candidate ranked {rank}; rejecting nothing, try again")
                aborted = True
                break
            entry = {"source_id": source, "decision": "select", "candidate_rank": rank}
        decisions[entry["source_id"]] = entry
        with open_output(audit_path, "audit log", "a") as handle:
            handle.write(jsonl_line(entry))

    selected = []
    for source, group in by_source.items():
        entry = decisions.get(source)
        if entry and entry.get("decision") == "select":
            rank = entry.get("candidate_rank")
            selected.extend(r for r in group if r.candidate_rank == rank)
    write_jsonl(selected, args.out)
    decided = sum(1 for s in by_source if s in decisions)
    print(f"\n{decided}/{len(by_source)} sources decided; {len(selected)} selected -> {args.out}")
    return EXIT_ABORT if aborted else EXIT_OK


# --- inject ---


def cmd_inject(args) -> int:
    records = read_jsonl(args.infile)
    categories = list(CATEGORIES) if args.category == "all" else [args.category]
    out, failures = [], 0
    for record in records:
        for category in categories:
            try:
                out.append(inject(record, category, args.seed))
            except ErroneousSource as err:
                # refused before any category applies, so one line covers them all
                failures += len(categories)
                print(f"cannot inject into {record.record_id}: {err}", file=sys.stderr)
                break
            except InjectionError as err:
                failures += 1
                print(f"cannot inject {category} into {record.record_id}: {err}",
                      file=sys.stderr)
    write_jsonl(out, args.out)
    print(f"injected {len(out)} records ({failures} skipped) -> {args.out}")
    return EXIT_OK


# --- profile selection ---


def _select_profiles(path, names, capability: str) -> list[BackendProfile]:
    """The profiles `names` asks for from the profiles file at `path`, or
    with no names every profile there that has `capability`. An unknown
    name, a profile that lacks the capability or an empty selection is a
    SchemaViolation naming the file."""
    profiles = load_profiles(path)
    if not names:
        names = [name for name, p in profiles.items() if capability in p.capabilities]
        if not names:
            raise SchemaViolation(f"profiles file {path}: no profile has {capability!r}")
    for name in names:
        if name not in profiles:
            raise SchemaViolation(f"profiles file {path}: no profile {name!r}")
        if capability not in profiles[name].capabilities:
            raise SchemaViolation(f"profiles file {path}: profile {name!r} lacks {capability!r}")
    return [profiles[name] for name in names]


# --- score-likelihood ---


def cmd_score_likelihood(args) -> int:
    names = [n.strip() for n in args.profiles.split(",") if n.strip()]
    chosen = _select_profiles(args.profiles_file, names, backends.CAP_SCORE_TOKENS)
    opened = {p.name: open_backend(p, strict_scripted=args.strict_scripted) for p in chosen}
    records = read_jsonl(args.infile)
    # refuse too few records to bucket, a bad --results or a bad output
    # before the first scoring request; opening to append neither
    # truncates nor writes
    distinct = len({record.record_id for record in records})
    if args.analysis and distinct < 4:
        raise SchemaViolation(
            f"--analysis on --in {args.infile}: need at least 4 records, got {distinct}"
        )
    results = _read_correctness(args.results, args.strategy) if args.results else {}
    for path, what in ((args.analysis, "analysis file"), (args.out, "scores file")):
        if path:
            open_output(path, what, "a").close()
    scored: list[likelihood.ScoredSolution] = []
    indicators: dict[str, float] = {}
    for record in records:
        per_backend = [
            likelihood.score_solution(record, profile, backend=opened[profile.name])
            for profile in chosen
        ]
        scored.extend(per_backend)
        indicators[record.record_id] = likelihood.pseudo_indicator(per_backend)
    likelihood.write_scores_jsonl(scored, args.out)
    print(f"scored {len(records)} records with {len(chosen)} profiles -> {args.out}")

    if args.analysis:
        buckets = likelihood.quartile_buckets(indicators)
        likelihood.write_analysis_csv(args.analysis, indicators, buckets, results)
        if args.results:
            unjoined = sum(1 for rid in indicators if rid not in results)
            if unjoined:
                print(f"{unjoined} scored records have no result row", file=sys.stderr)
            accuracy = likelihood.bucket_accuracy(buckets, results)
            for bucket in likelihood.QUARTILES:
                value = accuracy[bucket]
                print(f"{bucket}: {'undefined' if value is None else f'{float(value):.3f}'}")
        print(f"analysis -> {args.analysis}")
    return EXIT_OK


def _read_correctness(path, strategy: str | None) -> dict[str, bool]:
    rows: dict[str, list[bool]] = {}
    try:
        with open(path, encoding="utf-8", newline="") as handle:
            reader = csv.DictReader(handle)
            missing = {"record_id", "strategy", "correct"} - set(reader.fieldnames or ())
            if missing:
                raise SchemaViolation(f"results file {path} lacks columns {sorted(missing)}")
            for row in reader:
                if strategy and row["strategy"] != strategy:
                    continue
                rows.setdefault(row["record_id"], []).append(row["correct"] == "1")
    except (OSError, UnicodeDecodeError) as err:
        raise SchemaViolation(f"cannot read results file: {err}") from err
    ambiguous = [rid for rid, flags in rows.items() if len(flags) > 1 and len(set(flags)) > 1]
    if ambiguous:
        raise SchemaViolation(
            f"results are ambiguous for {len(ambiguous)} records; filter with --strategy"
        )
    return {rid: flags[0] for rid, flags in rows.items()}


# --- detect / evaluate / run ---


_TRANSCRIPT_NAME = re.compile(r"(?P<profile>.+)__(?P<strategy>.+)__seed(?P<seed>-?\d+)\.jsonl$")


def _transcript_path(outdir: Path, profile: str, strategy: str, seed: int) -> Path:
    return outdir / "transcripts" / f"{profile}__{strategy}__seed{seed}.jsonl"


def _transcript_lines(record_id: str, strategy: str, exchanges,
                      escaped: dict[str, str] | None = None) -> str:
    """One transcript line per exchange, each exactly the bytes `jsonl_line`
    writes for its `record_id`, `strategy`, `stage`, `prompt` and
    `response`: sorted keys, `jsonl_line`'s separators, and every text
    escaped by `encode_basestring`, as `jsonl_line`'s encoder escapes it.
    `escaped` maps each stage, prompt and response text already escaped to
    its escaped form, and gains the texts escaped here; a memo shared by
    several calls escapes each distinct text once."""
    if escaped is None:
        escaped = {}

    def text(value: str) -> str:
        found = escaped.get(value)
        if found is None:
            found = escaped[value] = encode_basestring(value)
        return found

    record_text, strategy_text = encode_basestring(record_id), encode_basestring(strategy)
    return "".join(
        f'{{"prompt": {text(exchange.prompt)}, "record_id": {record_text}, '
        f'"response": {text(exchange.response)}, "stage": {text(exchange.stage)}, '
        f'"strategy": {strategy_text}}}\n'
        for exchange in exchanges
    )


# every record's transcript lines end with one of these
_OUTCOME_STAGES = ("reg", FAILED_STAGE)

# A record's last outcome in a cell: the (stage, response) of its last
# `reg` or `failed` transcript line, or, for a record just detected, the
# outcome `detect` parsed from that exchange.
Outcome = tuple[str, str] | DetectionOutcome


def _read_outcomes(path: Path) -> dict[str, tuple[str, str]]:
    """The (stage, response) of each record's last `reg` or `failed` line,
    in order of first appearance."""
    outcomes: dict[str, tuple[str, str]] = {}
    if not path.exists():
        return outcomes
    for number, entry in read_jsonl_lines(path, "transcript"):
        try:
            if entry["stage"] in _OUTCOME_STAGES:
                outcomes[entry["record_id"]] = (entry["stage"], entry["response"])
        except (KeyError, TypeError) as err:
            raise SchemaViolation(f"bad transcript line in {path}: {err!r}", line=number) from err
    return outcomes


def _judge_outcomes(outcomes: dict[str, Outcome], gold: dict[str, SolutionRecord],
                    profile: str, strategy: str, seed: int) -> list[JudgedResult]:
    """Judges one cell by each record's last outcome: a transcript line
    through `outcome_of`, the judge `evaluate` applies, and a parsed one
    as it is. A `failed` line is an invalid outcome, so it counts against
    accuracy."""
    judged = []
    for record_id, last in outcomes.items():
        record = gold.get(record_id)
        if record is None:
            raise SchemaViolation(f"gold corpus lacks record {record_id}")
        if isinstance(last, DetectionOutcome):
            outcome = last
        else:
            outcome = outcome_of(*last, len(record.steps))
        judged.append(
            JudgedResult(
                record_id=record_id,
                profile=profile,
                strategy=strategy,
                origin=record.origin,
                seed=seed,
                gold=record.label,
                predicted=outcome.predicted,
                valid=outcome.valid,
                correct=judge(record.label, outcome),
            )
        )
    return judged


def _write_output(path: Path, text: str) -> None:
    with open_output(path, "output file") as handle:
        handle.write(text)


def _write_reports(outdir: Path, judged: list[JudgedResult]) -> None:
    report = build_report(judged)
    _write_output(outdir / "report.csv", render_report_csv(report))
    _write_output(outdir / "report.md", render_report_markdown(report))
    _write_output(outdir / "results.csv", render_results_csv(judged))


def _references(records: list[SolutionRecord], strategies,
                corpus: str | None) -> dict[str, dict[str, str]]:
    """The reference text of every record for each reference strategy among
    `strategies`, by strategy and record id, resolved from the reference
    corpus at `corpus` before any detection starts. A reference strategy
    comes with a corpus; the callers check that."""
    if corpus is None:
        return {}
    pool = {record.record_id: record for record in read_jsonl(corpus)}
    try:
        return {
            strategy: {r.record_id: _resolve_reference(r, strategy, pool) for r in records}
            for strategy in strategies
            if strategy in REFERENCE_STRATEGIES
        }
    except SchemaViolation as err:
        raise SchemaViolation(f"reference corpus {corpus}: {err}") from err


def _resolve_reference(record: SolutionRecord, strategy: str,
                       pool: dict[str, SolutionRecord]) -> str:
    """ref_matching: the correct solution matching this record's structure
    (itself when correct, its injection source otherwise). ref_conventional:
    the correct conventional ancestor, via the lineage chain."""

    def parent_of(rec: SolutionRecord) -> SolutionRecord:
        parent = (rec.lineage or {}).get("source_id")
        if parent is None or parent not in pool:
            raise SchemaViolation(f"no reference ancestor for {record.record_id}")
        return pool[parent]

    base = record
    if strategy == STRATEGY_REF_MATCHING:
        if base.label.is_error:
            base = parent_of(base)
        return render_solution_text(base)
    seen: set[str] = set()
    while base.label.is_error or base.origin != "D":
        if base.record_id in seen:
            raise SchemaViolation(f"lineage cycle at {base.record_id}")
        seen.add(base.record_id)
        base = parent_of(base)
    return render_solution_text(base)


def _run_detection(
    records: list[SolutionRecord],
    profile: BackendProfile,
    backend,
    strategy: str,
    seed: int,
    outdir: Path,
    references: dict[str, str] | None,
    resume: bool,
    workers: int,
    escaped: dict[str, str] | None = None,
) -> dict[str, Outcome]:
    """Detects one (profile, strategy, seed) cell into its transcript, one
    record at a time as each finishes, and returns the cell's outcomes, in
    the order `_read_outcomes` reads them from the finished transcript: a
    record kept from it by `resume` as `_read_outcomes` gives it, a record
    detected now as the outcome `detect` parsed from its last `reg` or
    `failed` exchange. `references` holds each record's reference text for
    a reference strategy. With `resume`, a record whose last outcome is a
    `reg` line is kept; a `failed` one, or one whose lines a crash cut
    short, is detected again. `escaped` is the memo of escaped texts that
    `_transcript_lines` writes the lines from; `_detect_cells` shares one
    among a (profile, strategy)'s seeds. A transcript that cannot be
    written is a SchemaViolation naming it, raised before any detection.

    Detection runs on `workers` threads only when the backend may wait on
    I/O. Otherwise threads would only take turns at the interpreter lock,
    so the records are detected in the calling thread."""
    path = _transcript_path(outdir, profile.name, strategy, seed)
    if resume:
        _drop_unfinished_record(path)
        outcomes = _read_outcomes(path)
    else:
        outcomes = {}
    done = {rid for rid, (stage, _) in outcomes.items() if stage == "reg"}
    pending = [r for r in records if r.record_id not in done]

    def one(record: SolutionRecord) -> tuple[str, str, DetectionOutcome]:
        # Serialized here, so that on a pool it runs in the worker: a main
        # thread that only writes holds the interpreter lock briefly, and
        # detection keeps its pace.
        reference = references[record.record_id] if references else None
        exchanges = detect(record, profile, strategy, reference=reference, backend=backend)
        lines = _transcript_lines(record.record_id, strategy, exchanges, escaped)
        return record.record_id, lines, exchanges[-1].outcome

    # an executor starts no thread before its first task
    with ThreadPoolExecutor(max_workers=workers) as pool, \
            open_output(path, "transcript", "a" if resume else "w") as handle:
        detect_each = pool.map if workers > 1 and backends.waits_on_io(backend) else map
        for record_id, lines, outcome in detect_each(one, pending):
            handle.write(lines)
            handle.flush()
            outcomes[record_id] = outcome
    return outcomes


def _drop_unfinished_record(path: Path) -> None:
    """Cuts a transcript back to the end of its last `reg` or `failed` line.
    `detect` ends every record's lines with one, so what follows belongs to
    a record a crash cut short: its earlier stage lines and a torn last
    line. Resuming detects that record again and writes all of its lines
    anew. The cut stops at a whole line that is no transcript line, which
    reading the transcript then reports."""
    if not path.exists():
        return
    data = path.read_bytes()
    end = data.rfind(b"\n") + 1  # a torn last line has no newline
    while end:
        start = data.rfind(b"\n", 0, end - 1) + 1
        try:
            if json.loads(data[start:end])["stage"] in _OUTCOME_STAGES:
                break
        except (ValueError, KeyError, TypeError):
            break
        end = start
    if end < len(data):
        with open(path, "r+b") as handle:
            handle.truncate(end)


def _detect_cells(config: RunConfig, records: list[SolutionRecord],
                  resume: bool) -> list[JudgedResult]:
    """Detects `records` in every (profile, strategy, integer seed) cell of
    `config`, in that order, and judges each cell by its outcomes. Each
    (profile, strategy) gets a fresh memo of escaped texts, which its seeds
    share: they ask the same prompts and get the same replies, so each
    distinct text is escaped once for all of them. A record id that
    appears twice is a SchemaViolation naming it, raised before any
    backend is opened."""
    selected = _select_profiles(config.profiles, config.profile_names, backends.CAP_GENERATE)
    profiles = {p.name: p for p in selected}
    strategies = [_STRATEGY_FLAGS[s] for s in config.strategies]
    gold: dict[str, SolutionRecord] = {}
    for record in records:
        if record.record_id in gold:
            raise SchemaViolation(f"record {record.record_id} appears more than once "
                                  f"in corpora {', '.join(config.corpora)}")
        gold[record.record_id] = record
    references = _references(records, strategies, config.reference_corpus)
    opened = {p.name: open_backend(p, strict_scripted=config.strict_scripted) for p in selected}
    judged: list[JudgedResult] = []
    cells = sorted(set(product(profiles, strategies, config.seeds)))
    for (name, strategy), seeds in groupby(cells, key=lambda cell: cell[:2]):
        escaped: dict[str, str] = {}
        for _, _, seed in seeds:
            outcomes = _run_detection(
                records, profiles[name], opened[name], strategy, seed, Path(config.out),
                references.get(strategy), resume, config.workers, escaped,
            )
            judged.extend(_judge_outcomes(outcomes, gold, name, strategy, seed))
    return judged


def cmd_detect(args) -> int:
    if _STRATEGY_FLAGS[args.strategy] in REFERENCE_STRATEGIES and args.ref_corpus is None:
        raise SchemaViolation(f"--strategy {args.strategy} needs --ref-corpus")
    config = RunConfig(
        profiles=args.profiles_file, profile_names=(args.profile,),
        strategies=(args.strategy,), seeds=tuple(args.seeds), corpora=(args.infile,),
        out=args.out, strict_scripted=args.strict_scripted, reference_corpus=args.ref_corpus,
    )
    outdir = Path(args.out)
    judged = _detect_cells(config, read_jsonl(args.infile), args.resume)
    _write_output(outdir / "results.csv", render_results_csv(judged))
    print(f"detected {len(judged)} (record, seed) pairs -> {outdir}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    gold = {r.record_id: r for r in read_jsonl(args.gold)}
    cells = []
    for path in Path(args.transcripts).glob("*.jsonl"):
        name = _TRANSCRIPT_NAME.match(path.name)
        if name:
            cells.append((name["profile"], name["strategy"], int(name["seed"]), path))
    if not cells:
        raise SchemaViolation(f"--transcripts {args.transcripts} holds no transcript file")
    judged: list[JudgedResult] = []
    for profile, strategy, seed, path in sorted(cells):
        judged.extend(_judge_outcomes(_read_outcomes(path), gold, profile, strategy, seed))
    _write_reports(Path(args.out), judged)
    print(f"evaluated {len(judged)} judged results -> {args.out}")
    return EXIT_OK


@dataclass(frozen=True)
class RunConfig:
    """A run config file; each JSON key is a field's name."""

    profiles: str
    strategies: tuple[str, ...]
    seeds: tuple[int, ...]
    corpora: tuple[str, ...]
    out: str
    profile_names: tuple[str, ...] = ()
    strict_scripted: bool = False
    reference_corpus: str | None = None
    workers: int = 4

    def __post_init__(self):
        if not set(self.strategies) <= _STRATEGY_FLAGS.keys():
            raise ValueError(f"strategies must be among {sorted(_STRATEGY_FLAGS)}")
        if not self.seeds:
            raise ValueError("seeds must be nonempty")
        if self.workers < 1:
            raise ValueError(f"workers must be at least 1, got {self.workers}")
        for strategy in self.strategies:
            if _STRATEGY_FLAGS[strategy] in REFERENCE_STRATEGIES and self.reference_corpus is None:
                raise ValueError(f"strategy {strategy} needs reference_corpus, which is null")


def load_run_config(path) -> RunConfig:
    """The run config in the file at `path`. Anything wrong with it is a
    SchemaViolation naming the file."""
    return from_json(RunConfig, read_json_file(path, "run config"), f"run config {path}")


def cmd_run(args) -> int:
    config = load_run_config(args.config)
    if args.strict_scripted:
        config = replace(config, strict_scripted=True)
    records = [record for corpus in config.corpora for record in read_jsonl(corpus)]
    judged = _detect_cells(config, records, args.resume)
    outdir = Path(config.out)
    _write_reports(outdir, judged)
    _write_output(outdir / "stats.txt", compute_stats(records).as_table() + "\n")
    print(f"ran {len(judged)} (record, strategy, seed) detections -> {outdir}")
    return EXIT_OK


# --- parser ---


def _int_at_least(minimum: int):
    """An argparse type: an integer no less than `minimum`. Any other value
    is a usage error, which exits 2."""

    def parse(text: str) -> int:
        value = int(text) if re.fullmatch(r"\s*[+-]?\d+\s*", text) else None
        if value is None or value < minimum:
            raise argparse.ArgumentTypeError(f"expected an integer >= {minimum}, got {text!r}")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="askbd",
        description="Error-detection experiments for math word problems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="sample a raw question/rationale file into a seed corpus")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=_int_at_least(0), default=None)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("gen-alt", help="generate alternative-solution candidates")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--k", type=_int_at_least(0), default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-rewrites", type=_int_at_least(1), default=3)
    p.set_defaults(func=cmd_gen_alt)

    p = sub.add_parser("review", help="interactively curate candidates into an alternative corpus")
    p.add_argument("--candidates", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--audit", required=True)
    p.set_defaults(func=cmd_review)

    p = sub.add_parser("inject", help="inject labeled errors into correct solutions")
    p.add_argument("--category", choices=list(CATEGORIES) + ["all"], required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_inject)

    p = sub.add_parser("score-likelihood", help="score solutions and bucket by quartile")
    p.add_argument("--profiles", required=True, help="comma-separated profile names")
    p.add_argument("--profiles-file", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--analysis", default=None, help="per-record CSV output")
    p.add_argument("--results", default=None, help="results.csv to join correctness from")
    p.add_argument("--strategy", default=None, help="filter results rows by strategy")
    p.add_argument("--strict-scripted", action="store_true")
    p.set_defaults(func=cmd_score_likelihood)

    p = sub.add_parser("detect", help="run one detection strategy over a corpus")
    p.add_argument("--strategy", choices=sorted(_STRATEGY_FLAGS), required=True)
    p.add_argument("--profile", required=True)
    p.add_argument("--profiles-file", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seeds", type=int, nargs="+", default=[0])
    p.add_argument("--ref-corpus", default=None)
    p.add_argument("--strict-scripted", action="store_true")
    p.add_argument("--resume", action="store_true")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("evaluate", help="judge transcripts against gold labels")
    p.add_argument("--transcripts", required=True)
    p.add_argument("--gold", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("run", help="full experiment: detect every cell, then evaluate")
    p.add_argument("--config", required=True)
    p.add_argument("--strict-scripted", action="store_true")
    p.add_argument("--resume", action="store_true")
    p.set_defaults(func=cmd_run)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SchemaViolation as err:
        print(f"schema error: {err}", file=sys.stderr)
        return EXIT_SCHEMA
    except RecordError as err:
        print(f"data error: {err}", file=sys.stderr)
        return EXIT_SCHEMA
    except BackendError as err:
        print(f"backend error: {err}", file=sys.stderr)
        return EXIT_BACKEND
    except KeyboardInterrupt:
        print("aborted", file=sys.stderr)
        return EXIT_ABORT


if __name__ == "__main__":
    sys.exit(main())
