"""The three benchmark workloads: set-up, one timed iteration, and gates.

Every workload drives askbd from outside, through `askbd.cli.main` and the
public library functions, on inputs generated from the benchmark seed.
`setup(workdir, seed)` is the timed set-up and returns a state object;
`state.start()` then does the untimed harness work (live-replay's
endpoint), `state.iteration(tracer)` runs the timed work once, inside
`tracer` when one is given, then checks the outputs and returns an
`Iteration`, and `state.close()` stops what `start()` started.

Co-tenants of a shared machine slow its CPU by up to ~1.7x, in phases
that last from a second to minutes. CPU-bound stages are timed with
`ReferenceTimer`, which rescales to the speed a fixed probe shows in a
fast phase. offline-run detects with one worker thread for that reason:
two threads under the GIL run faster or slower depending on whether
co-tenants load the other core, which no single-threaded probe tracks.
live-replay waits on its endpoint, not the CPU, so its run time is raw.
run.py reports the median over iterations of every metric.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path

# modules, not names: calls made through module attributes reach the
# tracer's wrappers when a traced iteration installs them
from askbd import cli, demo, exprs, label_oracle, records

import chains

LIVE_WORKERS = min(2, os.cpu_count() or 1)
REPORTS = ("report.md", "report.csv", "results.csv")
# best-of-3 time of _probe() on a 2.1 GHz Xeon VM in its fast phase
PROBE_REFERENCE_S = 0.0136


def _resident_bytes() -> int:
    with open("/proc/self/statm") as statm:
        return int(statm.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


# The probe's working set, built once. It stays resident for the whole
# run, so it adds a constant to the resident set that run.py takes off
# peak_rss_mb; a probe that built it each time would instead raise the
# peak above the program's own on the smaller workloads and hide it.
# Dicts of atomic values are not tracked by the garbage collector, so the
# rows add nothing to the program's collections.
_resident = _resident_bytes()
_PROBE_ROWS = [{"n": i % 101, "s": str(i), "k": i} for i in range(30000)]
PROBE_RESIDENT_BYTES = _resident_bytes() - _resident


def _probe() -> float:
    """Best-of-3 seconds to sort 30k small dicts by two of their fields:
    work that, like the stages, walks and allocates small objects in a
    working set of ~10 MB, past the L2 cache.

    The working set matters. A probe that fit in cache slowed 1.7x in a
    slow phase while the stages slowed 1.1-1.4x, so it over-corrected by
    25-30%; with this one the stages' rescaled times in slow and fast
    phases agree within about 10%."""
    best = math.inf
    for _ in range(3):
        started = time.perf_counter()
        rows = sorted(_PROBE_ROWS, key=lambda row: (row["n"], row["s"]))
        del rows
        best = min(best, time.perf_counter() - started)
    return best


class ReferenceTimer:
    """Times a block; `seconds` is wall time and `reference_s` the same
    time rescaled by the probe's slowdown around the block. Back-to-back
    blocks can share a probe: pass the previous timer's `after` as
    `before`.

    The timed part ends with a full collection, so the block pays for the
    garbage it left and the probe after it runs on a clean heap."""

    def __init__(self, before: float | None = None):
        self.before = before

    def __enter__(self):
        if self.before is None:
            self.before = _probe()
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc):
        gc.collect()
        self.seconds = time.perf_counter() - self._started
        self.after = _probe()
        slowdown = math.sqrt(self.before * self.after) / PROBE_REFERENCE_S
        self.reference_s = self.seconds / slowdown
        return False


@dataclass
class Iteration:
    """One pass of a workload's timed work and what its gates found."""

    metrics: dict[str, float]
    wall_s: float
    attempted: int
    failed: int
    problems: list[str] = field(default_factory=list)
    counters: dict[str, float] = field(default_factory=dict)


def run_cli(*argv: str) -> int:
    """`askbd <argv>` in this process; its output is dropped unless it fails."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    if code != 0:
        print(f"askbd {' '.join(argv)} exited {code}:\n{err.getvalue()}", file=sys.stderr)
    return code


def _seeded_demo(workdir: Path, seed: int, n_questions: int, workers: int) -> dict:
    """The demo corpus with its record order and detection seeds drawn from
    the benchmark seed, detecting with `workers` threads."""
    info = demo.build_demo(workdir, n_questions=n_questions, seeds=(seed, seed + 1))
    corpus = records.read_jsonl(info["corpus"])
    random.Random(seed).shuffle(corpus)
    records.write_jsonl(corpus, info["corpus"])
    config = json.loads(info["config"].read_text())
    config["workers"] = workers
    info["config"].write_text(json.dumps(config, indent=2) + "\n")
    info["records"] = corpus
    return info


def _read_reports(outdir: Path) -> dict[str, bytes]:
    return {name: (outdir / name).read_bytes() for name in REPORTS if (outdir / name).exists()}


def _transcript_lines_and_bytes(outdir: Path) -> tuple[int, int]:
    lines = size = 0
    for path in (outdir / "transcripts").glob("*.jsonl"):
        data = path.read_bytes()
        lines += data.count(b"\n")
        size += len(data)
    return lines, size


class _Detection:
    """Shared part of offline-run and live-replay: `askbd run` on the demo
    corpus, then `evaluate` on its transcripts and `score-likelihood` with
    the mock scorer, joined to the M2 results."""

    def __init__(self, workdir: Path, info: dict, config: Path):
        self.workdir = workdir
        self.info = info
        self.config = config
        settings = json.loads(config.read_text())
        self.out = Path(settings["out"])
        self.records = info["records"]
        self.expected = len(self.records) * len(settings["strategies"]) * len(settings["seeds"])
        origins = [r.origin for r in self.records]
        self.alternatives_per_record = (
            origins.count(records.ORIGIN_ALTERNATIVE) / origins.count(records.ORIGIN_CONVENTIONAL)
        )
        self.first_reports: dict[str, bytes] | None = None

    def start(self) -> None:
        pass

    def close(self) -> None:
        pass

    def _analyze(self, evaldir: Path, repeats: int = 1) -> tuple[list[int], list[ReferenceTimer]]:
        """Runs the analysis `repeats` times, each timed on its own; returns
        the worst exit code of each command and the timers."""
        corpus = str(self.info["corpus"])
        codes = [0, 0]
        timers: list[ReferenceTimer] = []
        for _ in range(repeats):
            with ReferenceTimer(timers[-1].after if timers else None) as timer:
                done = [
                    run_cli("evaluate", "--transcripts", str(self.out / "transcripts"),
                            "--gold", corpus, "--out", str(evaldir)),
                    run_cli("score-likelihood", "--profiles", "scorer",
                            "--profiles-file", str(self.info["profiles"]), "--in", corpus,
                            "--out", str(self.workdir / "scores.jsonl"),
                            "--analysis", str(self.workdir / "buckets.csv"),
                            "--results", str(self.out / "results.csv"), "--strategy", "M2"),
                ]
            codes = [max(a, b) for a, b in zip(codes, done)]
            timers.append(timer)
        return codes, timers

    def _detect_and_analyze(self, tracer) -> Iteration:
        evaldir = self.workdir / "evaluated"
        for path in (self.out, evaldir):
            shutil.rmtree(path, ignore_errors=True)
        with tracer or contextlib.nullcontext():
            with ReferenceTimer() as run:
                run_code = run_cli("run", "--config", str(self.config))
            analysis_codes, timers = self._analyze(evaldir)
        wall_s = run.seconds + timers[0].seconds
        run_s = run.reference_s if self.cpu_bound else run.seconds
        if self.analysis_repeats > 1:
            # repeats are untraced, so per-layer counts cover one analysis
            codes, timers = self._analyze(evaldir, self.analysis_repeats)
            analysis_codes = [max(a, b) for a, b in zip(analysis_codes, codes)]
        analyze_s = statistics.median(t.reference_s for t in timers)

        problems = []
        reports = _read_reports(self.out)
        rows = reports.get("results.csv", b"").decode().splitlines()[1:]
        detections = len(rows)
        invalid = sum(1 for row in rows if row.split(",")[-2] != "1")
        failed = (self.expected - detections) + invalid + sum(c != 0 for c in analysis_codes)
        if run_code != 0 or detections != self.expected:
            problems.append(f"run exited {run_code} with {detections}/{self.expected} detections")
        evaluated = _read_reports(evaldir)
        for name in REPORTS:
            if reports.get(name) != evaluated.get(name):
                same_rows = sorted(reports.get(name, b"").splitlines()) == sorted(
                    evaluated.get(name, b"").splitlines())
                problems.append(f"run and evaluate {name} differ"
                                + (" in row order only" if same_rows else ""))
        if self.first_reports is None:
            self.first_reports = reports
        elif reports != self.first_reports:
            problems.append("reports differ between iterations")
        buckets = self.workdir / "buckets.csv"
        scored = buckets.read_text().count("\n") - 1 if buckets.exists() else 0
        if scored != len(self.records):
            problems.append(f"score-likelihood analysed {scored}/{len(self.records)} records")

        lines, size = _transcript_lines_and_bytes(self.out)
        return Iteration(
            metrics={
                "detections_per_s": detections / run_s,
                "analyze_s": analyze_s,
                "records_per_s": len(self.records) / (run_s + analyze_s),
                "alternatives_per_record": self.alternatives_per_record,
            },
            wall_s=wall_s,
            attempted=self.expected + len(analysis_codes),
            failed=failed,
            problems=problems,
            counters={"cli.transcript_bytes": size, "transcript_lines": lines,
                      "detections": detections},
        )


class OfflineRun(_Detection):
    """500 demo records, M0-M3 x 2 seeds against the strict scripted
    cassette, detected by one worker thread."""

    n_questions = 50
    workers = 1
    cpu_bound = True
    warm_up = True
    analysis_repeats = 1

    @classmethod
    def setup(cls, workdir: Path, seed: int) -> "OfflineRun":
        info = _seeded_demo(workdir, seed, cls.n_questions, cls.workers)
        return cls(workdir, info, info["config"])

    def iteration(self, tracer=None) -> Iteration:
        iteration = self._detect_and_analyze(tracer)
        # the scripted backend answers one request per transcript exchange
        iteration.metrics["requests_per_detection"] = (
            iteration.counters["transcript_lines"] / max(iteration.counters["detections"], 1)
        )
        return iteration


class LiveReplay(_Detection):
    """80 demo records, M0-M3 x 2 seeds over HTTP against the fake endpoint."""

    n_questions = 8
    workers = LIVE_WORKERS
    # the run waits on the endpoint's latency, so its wall time is the figure
    cpu_bound = False
    # nothing to warm: every request waits on the endpoint's fixed latency
    warm_up = False
    # one analysis of 80 records takes ~45 ms against an 18 s iteration;
    # analyze_s is the median of 20 more, each timed between shared probes
    analysis_repeats = 20

    def __init__(self, workdir, info, config, reference):
        super().__init__(workdir, info, config)
        self.reference = reference
        self.endpoint: subprocess.Popen | None = None

    @classmethod
    def setup(cls, workdir: Path, seed: int) -> "LiveReplay":
        info = _seeded_demo(workdir, seed, cls.n_questions, cls.workers)
        # the scripted report on the same corpus is what the live run must match
        if run_cli("run", "--config", str(info["config"])) != 0:
            raise RuntimeError("scripted reference run failed")
        return cls(workdir, info, info["config"], _read_reports(workdir / "out"))

    def start(self) -> None:
        """Starts the endpoint and points the run at it. This is harness
        work, so it happens after the timed set-up."""
        self.endpoint = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("endpoint.py")),
             "--cassette", str(self.info["cassette"])],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        line = self.endpoint.stdout.readline()
        if not line.startswith("PORT "):
            raise RuntimeError(f"endpoint did not start: {line!r}")
        self.port = int(line.split()[1])
        profiles = json.loads(self.info["profiles"].read_text())
        profiles["profiles"].append({
            "name": "live",
            "endpoint": f"http://127.0.0.1:{self.port}",
            "model": "demo-model",
            "capabilities": ["generate"],
            # the client's 60 s window must not bind within a run
            "rate_limit_per_min": 1_000_000,
        })
        self.info["profiles"].write_text(json.dumps(profiles, indent=2) + "\n")
        config = json.loads(self.config.read_text())
        config.update(profile_names=["live"], strict_scripted=False,
                      out=str(self.workdir / "live-out"))
        self.config = self.workdir / "live.json"
        self.config.write_text(json.dumps(config, indent=2) + "\n")
        self.out = Path(config["out"])

    def close(self) -> None:
        if self.endpoint is not None:
            _stop(self.endpoint)
            self.endpoint = None

    def stats(self) -> dict:
        with urllib.request.urlopen(f"http://127.0.0.1:{self.port}/stats", timeout=30) as reply:
            return json.loads(reply.read())

    def iteration(self, tracer=None) -> Iteration:
        # a dead endpoint would leave every request sleeping through retries
        if self.endpoint.poll() is not None:
            raise RuntimeError(f"endpoint exited with {self.endpoint.returncode}")
        before = self.stats()
        iteration = self._detect_and_analyze(tracer)
        after = self.stats()
        delta = {key: after[key] - before[key] for key in after}
        if delta["not_found"]:
            iteration.problems.append(f"{delta['not_found']} requests had no cassette entry")
        iteration.failed += delta["not_found"]
        live = _read_reports(self.out)
        if _relabel(live, "live", "demo") != self.reference:
            iteration.problems.append("live report differs from the scripted report")
        detections = max(iteration.counters["detections"], 1)
        iteration.metrics["requests_per_detection"] = delta["requests"] / detections
        iteration.counters.update({f"endpoint.{k}": v for k, v in delta.items()})
        return iteration


def _relabel(reports: dict[str, bytes], old: str, new: str) -> dict[str, bytes]:
    """Reports with profile label `old` replaced by `new` (CSV first column,
    markdown row label)."""
    out = {}
    for name, data in reports.items():
        text = data.decode()
        if name.endswith(".csv"):
            text = "\n".join(
                new + line[len(old):] if line.startswith(old + ",") else line
                for line in text.split("\n")
            )
        else:
            text = text.replace(f"| {old} |", f"| {new} |")
        out[name] = text.encode()
    return out


def _stop(process: subprocess.Popen) -> None:
    """Closing stdin ends the endpoint; terminate it if it does not."""
    process.stdin.close()
    try:
        process.wait(timeout=10)
    except subprocess.TimeoutExpired:
        process.terminate()
        process.wait()
    process.stdout.close()


class AltgenDeep:
    """Seeded chain records through `gen-alt --k 3`, `inject --category all`
    and the label oracle."""

    per_mix = 20
    warm_up = True

    def __init__(self, workdir: Path, source: Path, n_source: int):
        self.workdir = workdir
        self.source = source
        self.n_source = n_source

    @classmethod
    def setup(cls, workdir: Path, seed: int) -> "AltgenDeep":
        workdir.mkdir(parents=True, exist_ok=True)
        source = workdir / "chains.jsonl"
        chain = chains.chain_records(seed, cls.per_mix)
        records.write_jsonl(chain, source)
        return cls(workdir, source, len(chain))

    def start(self) -> None:
        pass

    def close(self) -> None:
        pass

    def iteration(self, tracer=None) -> Iteration:
        candidates_path = self.workdir / "candidates.jsonl"
        injected_path = self.workdir / "injected.jsonl"
        for path in (candidates_path, injected_path):
            path.unlink(missing_ok=True)
        with tracer or contextlib.nullcontext():
            # each stage gets its own timer: a probe next to a shorter
            # stage tracks the machine's speed more closely
            with ReferenceTimer() as generate:
                codes = [run_cli("gen-alt", "--in", str(self.source),
                                 "--out", str(candidates_path), "--k", "3", "--seed", "0")]
            with ReferenceTimer() as inject:
                codes.append(run_cli("inject", "--category", "all", "--seed", "0",
                                     "--in", str(candidates_path), "--out", str(injected_path)))
            with ReferenceTimer() as oracle:
                candidates = records.read_jsonl(candidates_path)
                clean = {c.record_id for c in candidates if demo.oracle_clean(c)}
                injected = records.read_jsonl(injected_path)
                checked = [r for r in injected if r.lineage["source_id"] in clean]
                mismatches = label_oracle.verify_corpus(checked)

        problems = []
        if any(codes):
            problems.append(f"gen-alt/inject exited {codes}")
        wrong = [c.record_id for c in candidates
                 if exprs.eval_expr(exprs.parse_expr(c.permuted_expression)) != c.answer]
        if wrong:
            problems.append(f"{len(wrong)} candidates do not evaluate to the gold answer")
        if mismatches:
            problems.append(f"label oracle disagrees on {len(mismatches)} records")
        if not checked:
            problems.append("no injected record reached the label oracle")
        return Iteration(
            metrics={
                "records_per_s": self.n_source / (
                    generate.reference_s + inject.reference_s + oracle.reference_s),
                "alternatives_per_record": len(candidates) / self.n_source,
                "detections_per_s": len(checked) / oracle.reference_s,
                "analyze_s": oracle.reference_s,
                # no backend is asked here: the label oracle, this workload's
                # detector, answers each detection with one in-process scan
                "requests_per_detection": 1.0,
            },
            wall_s=generate.seconds + inject.seconds + oracle.seconds,
            attempted=self.n_source + len(candidates) + len(checked),
            failed=len(wrong) + len(mismatches),
            problems=problems,
            counters={"label_oracle.mismatches": len(mismatches)},
        )


WORKLOADS = {
    "offline-run": OfflineRun,
    "live-replay": LiveReplay,
    "altgen-deep": AltgenDeep,
}
