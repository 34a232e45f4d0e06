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
from contextlib import ExitStack, closing, contextmanager
from dataclasses import dataclass, replace
from itertools import product
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
    OUTCOME_STAGES,
    REFERENCE_STRATEGIES,
    STRATEGIES,
    STRATEGY_REF_CONVENTIONAL,
    DetectionMemo,
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
from .exprs import signed_left_side
from .inject import ErroneousSource, InjectionError, inject
from .records import (
    CATEGORIES,
    RecordError,
    SchemaViolation,
    SolutionRecord,
    compute_stats,
    correct_ancestor,
    from_json,
    jsonl_line,
    open_output,
    read_json_file,
    read_jsonl,
    read_jsonl_lines,
    record_from_raw,
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


def cmd_ingest(args) -> int:
    raw = [obj for _, obj in read_jsonl_lines(args.infile, "raw ingest file")]
    if args.n is not None and args.n < len(raw):
        rng = random.Random(args.seed)
        picked = sorted(rng.sample(range(len(raw)), args.n))
        raw = [raw[i] for i in picked]
    records, skipped = [], 0
    for obj in raw:
        try:
            records.append(record_from_raw(obj))
        except (RecordError, ValueError, KeyError, TypeError) as err:
            skipped += 1
            print(f"skipping record: {err}", file=sys.stderr)
    signed = sum(signed_left_side(step.statement) for record in records for step in record.steps)
    if signed:
        print(f"{signed} steps read as prose: a unary minus precedes their left side, "
              "and expression literals are unsigned", file=sys.stderr)
    written = write_jsonl(records, args.out)
    print(f"ingested {written} records ({skipped} skipped) -> {args.out}")
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
    written = write_jsonl(out, args.out)
    print(f"generated {written} candidates ({failures} records skipped) -> {args.out}")
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
                print(f"no candidate ranked {rank}; quitting, source {source} stays undecided")
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
    written = write_jsonl(out, args.out)
    print(f"injected {written} records ({failures} skipped) -> {args.out}")
    return EXIT_OK


# --- profile selection ---


def _select_profiles(path, names, capability: str) -> list[BackendProfile]:
    """The profiles `names` asks for from the profiles file at `path`, or
    with no names every profile there that has `capability`. An unknown
    name, a name asked for twice, a profile that lacks the capability or
    an empty selection is a SchemaViolation naming the file."""
    profiles = load_profiles(path)
    if not names:
        names = [name for name, p in profiles.items() if capability in p.capabilities]
        if not names:
            raise SchemaViolation(f"profiles file {path}: no profile has {capability!r}")
    for name in names:
        if names.count(name) > 1:
            raise SchemaViolation(
                f"profiles file {path}: profile {name!r} is asked for more than once"
            )
        if name not in profiles:
            raise SchemaViolation(f"profiles file {path}: no profile {name!r}")
        if capability not in profiles[name].capabilities:
            raise SchemaViolation(f"profiles file {path}: profile {name!r} lacks {capability!r}")
    return [profiles[name] for name in names]


# --- score-likelihood ---


def cmd_score_likelihood(args) -> int:
    if args.strategy and not args.results:
        raise SchemaViolation("--strategy needs --results, whose rows it filters")
    if args.results and not args.analysis:
        raise SchemaViolation("--results needs --analysis, the file its rows are joined into")
    names = [n.strip() for n in args.profiles.split(",") if n.strip()]
    if not names:
        raise SchemaViolation(f"--profiles {args.profiles!r} names no profile")
    chosen = _select_profiles(args.profiles_file, names, backends.CAP_SCORE_TOKENS)
    records = read_jsonl(args.infile)
    # refuse a repeated record, too few records to bucket, a bad --results
    # or a bad output before any backend opens; opening to append neither
    # truncates nor writes
    _by_id(records, f"--in {args.infile}")
    if args.analysis and len(records) < 4:
        raise SchemaViolation(
            f"--analysis on --in {args.infile}: need at least 4 records, got {len(records)}"
        )
    strategy = _STRATEGY_FLAGS[args.strategy] if args.strategy else None
    results = _read_correctness(args.results, strategy) if args.results else {}
    outputs = [(Path(path), what) for path, what in
               ((args.analysis, "analysis file"), (args.out, "scores file")) if path]
    for path, what in outputs:
        made = not path.exists()
        open_output(path, what, "a").close()
        if made:  # the check leaves no file behind
            path.unlink()
    scored: list[likelihood.ScoredSolution] = []
    indicators: dict[str, float] = {}
    with _open_backends(chosen, args.strict_scripted) as opened:
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
    """Each record's `correct` flag in the results file at `path`, from the
    rows of `strategy` when one is given. An unreadable file, a row the csv
    module rejects, a flag other than 0 or 1, a strategy with no rows, or a
    record whose rows disagree is a SchemaViolation naming the file."""
    rows: dict[str, list[tuple[str | None, bool]]] = {}
    strategies: set[str] = set()
    try:
        with open(path, encoding="utf-8", newline="") as handle:
            reader = csv.DictReader(handle)
            missing = {"record_id", "strategy", "correct"} - set(reader.fieldnames or ())
            if missing:
                raise SchemaViolation(f"results file {path} lacks columns {sorted(missing)}")
            for row in reader:
                if row["correct"] not in ("0", "1"):
                    raise SchemaViolation(f"results file {path}: correct is {row['correct']!r}, "
                                          "not 0 or 1", line=reader.line_num)
                strategies.add(row["strategy"])
                if strategy and row["strategy"] != strategy:
                    continue
                rows.setdefault(row["record_id"], []).append(
                    (row.get("profile"), row["correct"] == "1"))
    except csv.Error as err:  # a cell over the csv module's field limit, say
        # a DictReader's own line_num is set only after a row is read
        raise SchemaViolation(f"results file {path}: {err}", line=reader.reader.line_num) from err
    except (OSError, UnicodeDecodeError) as err:
        raise SchemaViolation(f"cannot read results file {path}: {err}") from err
    if strategy and not rows:
        raise SchemaViolation(
            f"results file {path} has no rows for strategy {strategy}; "
            f"its strategies: {', '.join(sorted(filter(None, strategies))) or 'none'}"
        )
    ambiguous = [rid for rid, found in rows.items() if len({flag for _, flag in found}) > 1]
    if ambiguous and strategy:
        profiles = sorted({profile for rid in ambiguous for profile, _ in rows[rid] if profile})
        raise SchemaViolation(
            f"results file {path}: the rows of strategy {strategy} disagree across profiles "
            f"or seeds for {len(ambiguous)} records (profiles: {', '.join(profiles) or 'unnamed'})"
        )
    if ambiguous:
        raise SchemaViolation(
            f"results are ambiguous for {len(ambiguous)} records; filter with --strategy"
        )
    return {rid: found[0][1] for rid, found in rows.items()}


# --- detect / evaluate / run ---


_TRANSCRIPT_NAME = re.compile(r"(?P<profile>.+)__(?P<strategy>.+)__seed(?P<seed>-?\d+)\.jsonl$")
_decode_json = json.JSONDecoder().raw_decode  # leaves what follows the value to check


def _transcript_path(outdir: Path, profile: str, strategy: str, seed: int) -> Path:
    return outdir / "transcripts" / f"{profile}__{strategy}__seed{seed}.jsonl"


def _transcript_lines(record_id: str, strategy: str, exchanges, escaped: dict[str, str]) -> str:
    """One transcript line per exchange, each exactly the bytes `jsonl_line`
    writes for its `record_id`, `strategy`, `stage`, `prompt` and
    `response`: sorted keys, `jsonl_line`'s separators, and every text
    escaped by `encode_basestring`, as `jsonl_line`'s encoder escapes it.
    `escaped` maps each stage, prompt and response text already escaped to
    its escaped form, and gains the texts escaped here; a memo shared by
    several calls escapes each distinct text once."""

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


# A record's last outcome in a cell: the (stage, response) of its last
# `reg` or `failed` exchange, which `outcome_of` judges.
Outcome = tuple[str, str]
# a cell by its (profile, strategy, seed)
Cell = tuple[str, str, int]


def _scan_transcript(path: Path, known: dict) -> tuple[dict[str, Outcome], int]:
    """Reads the transcript at `path` forward once: the (stage, response)
    of each record's last `reg` or `failed` line, in order of first
    appearance, and the length in bytes up to the end of the last such
    line. `detect` ends every record's lines with one, so what follows
    belongs to a record a crash cut short: its earlier stage lines and a
    torn last line, one with no newline. A whole line that is no transcript
    line, or an outcome line whose record is no string or is not in `known`
    or whose response is no string, is a SchemaViolation naming the line."""
    outcomes: dict[str, Outcome] = {}
    finished = end = 0
    try:
        with open(path, "rb") as handle:
            for number, line in enumerate(handle, start=1):
                if not line.endswith(b"\n"):
                    break
                end += len(line)
                try:
                    text = line.decode("utf-8")
                    entry, stop = _decode_json(text)
                    if stop + 1 < len(text):
                        raise ValueError(f"extra data at column {stop + 1}")
                    if entry["stage"] not in OUTCOME_STAGES:
                        continue
                    record_id, response = entry["record_id"], entry["response"]
                    if not (isinstance(record_id, str) and isinstance(response, str)):
                        raise TypeError("record_id and response must be strings")
                except (ValueError, KeyError, TypeError) as err:
                    raise SchemaViolation(f"bad transcript line in {path}: {err!r}",
                                          line=number) from err
                if record_id not in known:
                    raise SchemaViolation(f"transcript {path} holds record {record_id}, "
                                          "which the corpora lack", line=number)
                outcomes[record_id] = (entry["stage"], response)
                finished = end
    except OSError as err:
        raise SchemaViolation(f"cannot read transcript {path}: {err}") from err
    return outcomes, finished


def _judge_cells(outcomes_by_cell: dict[Cell, dict[str, Outcome]],
                 gold: dict[str, SolutionRecord]) -> list[JudgedResult]:
    """Judges every cell, in (profile, strategy, seed) order, by each
    record's last outcome in it: `outcome_of` its stage, response and step
    count, read once per distinct (stage, response, step count) over all
    cells. A `failed` line is an invalid outcome, so it counts against
    accuracy."""
    readings: dict[tuple[str, str, int], DetectionOutcome] = {}
    judged = []
    for (profile, strategy, seed), outcomes in sorted(outcomes_by_cell.items()):
        for record_id, (stage, response) in outcomes.items():
            record = gold[record_id]
            key = (stage, response, len(record.steps))
            outcome = readings.get(key) or readings.setdefault(key, outcome_of(*key))
            judged.append(JudgedResult(
                record_id=record_id,
                profile=profile,
                strategy=strategy,
                origin=record.origin,
                seed=seed,
                gold=record.label,
                predicted=outcome.predicted,
                valid=outcome.valid,
                correct=judge(record.label, outcome),
            ))
    return judged


def _write_output(path: Path, text: str) -> None:
    with open_output(path, "output file") as handle:
        handle.write(text)


def _write_reports(outdir: Path, judged: list[JudgedResult],
                   gold: dict[str, SolutionRecord]) -> None:
    """The one report writer, which `run`, `detect` and `evaluate` share:
    the report of `judged` as CSV and as Markdown, its rows, and the
    statistics of the distinct records judged, read from `gold`."""
    report = build_report(judged)
    _write_output(outdir / "report.csv", render_report_csv(report))
    _write_output(outdir / "report.md", render_report_markdown(report))
    _write_output(outdir / "results.csv", render_results_csv(judged))
    stats = compute_stats(gold[record_id] for record_id in {r.record_id for r in judged})
    _write_output(outdir / "stats.txt", stats.as_table() + "\n")


def _references(records: list[SolutionRecord], strategies,
                corpus: str | None) -> dict[str, dict[str, str]]:
    """The reference text of every record for each reference strategy among
    `strategies`, by strategy and record id, resolved from the reference
    corpus at `corpus` before any detection starts: a record's nearest
    correct ancestor there (itself when correct), and for ref_conventional
    its nearest correct conventional one. A reference strategy comes with a
    corpus; the callers check that."""
    if corpus is None:
        return {}
    pool = _by_id(read_jsonl(corpus), f"reference corpus {corpus}")
    try:
        return {
            strategy: {
                r.record_id: render_solution_text(correct_ancestor(
                    r, pool, conventional=strategy == STRATEGY_REF_CONVENTIONAL))
                for r in records
            }
            for strategy in strategies
            if strategy in REFERENCE_STRATEGIES
        }
    except SchemaViolation as err:
        raise SchemaViolation(f"reference corpus {corpus}: {err}") from err


def _by_id(records: list[SolutionRecord], where: str) -> dict[str, SolutionRecord]:
    """`records` by record id. A record id that appears twice is a
    SchemaViolation naming it and `where` the records came from."""
    by_id: dict[str, SolutionRecord] = {}
    for record in records:
        if record.record_id in by_id:
            raise SchemaViolation(f"record {record.record_id} appears more than once in {where}")
        by_id[record.record_id] = record
    return by_id


class _RunMemo(DetectionMemo):
    """A DetectionMemo that also keeps each stage, prompt and reply text's
    escape, which `_transcript_lines` writes the lines from."""

    def __init__(self):
        super().__init__()
        self.escaped: dict[str, str] = {}


@contextmanager
def _open_backends(profiles: list[BackendProfile], strict_scripted: bool):
    """Each profile's backend by name, all closed when the block ends, which
    closes a live backend's kept-alive connections."""
    with ExitStack() as stack:
        opened = {}
        for profile in profiles:
            backend = open_backend(profile, strict_scripted=strict_scripted)
            opened[profile.name] = stack.enter_context(closing(backend))
        yield opened


def _run_detection(
    records: list[SolutionRecord],
    profile: BackendProfile,
    backend,
    strategy: str,
    seed: int,
    outdir: Path,
    references: dict[str, str] | None,
    scan: tuple[dict[str, Outcome], int],
    workers: int,
    memo: _RunMemo,
) -> dict[str, Outcome]:
    """Detects one (profile, strategy, seed) cell into its transcript, one
    record at a time as each finishes, and returns the cell's outcomes as
    `_scan_transcript` reads them from the finished transcript, in its
    order. `references` holds each record's reference text for a reference
    strategy. `scan` is `_scan_transcript` of the transcript to resume, or
    `({}, 0)` for a fresh cell. The transcript is cut to the scan's end;
    a record whose last outcome there is a `reg` line is kept, and the
    rest are detected again. `memo` is the run's, as `_detect_cells` keeps
    it. A transcript that cannot be written is a SchemaViolation naming
    it, raised before any detection.

    Detection runs on `workers` threads only when the backend may wait on
    I/O. Otherwise threads would only take turns at the interpreter lock,
    so the records are detected in the calling thread."""
    path = _transcript_path(outdir, profile.name, strategy, seed)
    outcomes, finished = scan
    done = {rid for rid, (stage, _) in outcomes.items() if stage != FAILED_STAGE}
    pending = [r for r in records if r.record_id not in done]

    def one(record: SolutionRecord) -> tuple[str, str, Outcome]:
        # Serialized here, so that on a pool it runs in the worker: a main
        # thread that only writes holds the interpreter lock briefly, and
        # detection keeps its pace.
        reference = references[record.record_id] if references else None
        exchanges = detect(record, profile, strategy, reference=reference, backend=backend,
                           memo=memo)
        lines = _transcript_lines(record.record_id, strategy, exchanges, memo.escaped)
        last = exchanges[-1]
        return record.record_id, lines, (last.stage, last.response)

    # an executor starts no thread before its first task
    with ThreadPoolExecutor(max_workers=workers) as pool, \
            open_output(path, "transcript", "a") as handle:
        handle.truncate(finished)
        detect_each = pool.map if workers > 1 and backends.waits_on_io(backend) else map
        for record_id, lines, outcome in detect_each(one, pending):
            handle.write(lines)
            handle.flush()
            outcomes[record_id] = outcome
    return outcomes


def _detect_cells(config: RunConfig, resume: bool) -> list[JudgedResult]:
    """Reads the corpora `config` names, detects their records in every
    (profile, strategy, integer seed) cell of `config`, in that order,
    judges every cell by its outcomes and writes the reports into
    `config.out`. All cells of one run share one memo of prompts, stage
    readings and escaped texts, none of which depends on the profile: a
    strategy's seeds ask the same prompts, and M3 builds its reference with
    the cqe, ssi and sqr prompts M2 asks. So a run renders each distinct
    prompt, reads each distinct reply and escapes each distinct text once.
    Corpora that hold no record, a record id that appears twice and, with
    `resume`, any refusal of a cell's transcript are SchemaViolations
    raised before any backend is opened."""
    where = f"corpora {', '.join(config.corpora)}"
    records = [record for corpus in config.corpora for record in read_jsonl(corpus)]
    if not records:
        raise SchemaViolation(f"{where} hold no record")
    selected = _select_profiles(config.profiles, config.profile_names, backends.CAP_GENERATE)
    profiles = {p.name: p for p in selected}
    strategies = [_STRATEGY_FLAGS[s] for s in config.strategies]
    gold = _by_id(records, where)
    references = _references(records, strategies, config.reference_corpus)
    outdir = Path(config.out)
    scans = {}
    for cell in sorted(set(product(profiles, strategies, config.seeds))):
        path = _transcript_path(outdir, *cell)
        scans[cell] = _scan_transcript(path, gold) if resume and path.exists() else ({}, 0)
    memo, outcomes = _RunMemo(), {}
    with _open_backends(selected, config.strict_scripted) as opened:
        for (name, strategy, seed), scan in scans.items():
            outcomes[name, strategy, seed] = _run_detection(
                records, profiles[name], opened[name], strategy, seed, outdir,
                references.get(strategy), scan, config.workers, memo,
            )
    judged = _judge_cells(outcomes, gold)
    # the memo, the outcomes and the closed backends' stores are let go
    # before the reports are rendered, which keeps them off the peak RSS
    del memo, outcomes, scans, opened
    _write_reports(outdir, judged, gold)
    return judged


def cmd_detect(args) -> int:
    if _STRATEGY_FLAGS[args.strategy] in REFERENCE_STRATEGIES and args.ref_corpus is None:
        raise SchemaViolation(f"--strategy {args.strategy} needs --ref-corpus")
    config = RunConfig(
        profiles=args.profiles_file, profile_names=(args.profile,),
        strategies=(args.strategy,), seeds=tuple(args.seeds), corpora=(args.infile,),
        out=args.out, strict_scripted=args.strict_scripted, reference_corpus=args.ref_corpus,
    )
    judged = _detect_cells(config, args.resume)
    print(f"detected {len(judged)} (record, seed) pairs -> {Path(args.out)}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    gold = _by_id(read_jsonl(args.gold), f"--gold {args.gold}")
    cells: dict[Cell, Path] = {}
    for path in Path(args.transcripts).glob("*.jsonl"):
        name = _TRANSCRIPT_NAME.match(path.name)
        if name:
            cell = (name["profile"], name["strategy"], int(name["seed"]))
            if cell in cells:
                raise SchemaViolation(f"transcripts {cells[cell]} and {path} name one cell")
            cells[cell] = path
    if not cells:
        raise SchemaViolation(f"--transcripts {args.transcripts} holds no transcript file")
    outcomes: dict[Cell, dict[str, Outcome]] = {}
    for cell, path in sorted(cells.items()):
        outcomes[cell], finished = _scan_transcript(path, gold)
        if finished < path.stat().st_size:
            raise SchemaViolation(f"transcript {path} was cut short; resume its run first")
        if not outcomes[cell]:
            raise SchemaViolation(f"transcript {path} holds no finished record")
    judged = _judge_cells(outcomes, gold)
    _write_reports(Path(args.out), judged, gold)
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
        if self.workers < 1:
            raise ValueError(f"workers must be at least 1, got {self.workers}")
        # a run with nothing to detect would write reports with no rows
        for name in ("strategies", "seeds", "corpora"):
            if not getattr(self, name):
                raise ValueError(f"{name} must be nonempty")
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
    judged = _detect_cells(config, args.resume)
    print(f"ran {len(judged)} (record, strategy, seed) detections -> {Path(config.out)}")
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
    p.add_argument("--strategy", choices=sorted(_STRATEGY_FLAGS), default=None,
                   help="filter results rows by strategy")
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
