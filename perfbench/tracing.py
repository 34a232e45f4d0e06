"""Span tracer that wraps askbd's public functions from outside the package.

`Tracer.install()` replaces each traced function at every `askbd` module
attribute bound to it (so `askbd.cli.detect` and `askbd.detect.detect` are
both wrapped) and each traced method on its class; `uninstall()` puts the
originals back. A span records its name, start, end, parent span and a
request id, (record, strategy, seed) for detections and (record,) for the
record-level functions of the offline pipeline. Spans stay in memory
until `write()`. Self time is a span's duration minus the part of it that
its child spans cover.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

from askbd import alternatives, backends, cli, detect, evaluate, exprs, inject, label_oracle
from askbd import likelihood, records


def _count_ops(e) -> int:
    return 0 if isinstance(e, exprs.Lit) else 1 + _count_ops(e.left) + _count_ops(e.right)


def _record_request(tracer, args, kwargs):
    record = args[0] if args else None
    return (record.record_id,) if isinstance(record, records.SolutionRecord) else None


_DETECT_SIGNATURE = inspect.signature(detect.detect)


def _detection_request(tracer, args, kwargs):
    bound = _DETECT_SIGNATURE.bind(*args, **kwargs).arguments
    return (bound["record"].record_id, bound["strategy"], tracer.seed)


@dataclass(frozen=True)
class Target:
    """One traced callable: `owner.attr` with the span name `name`.

    `request(tracer, args, kwargs)` gives the span's request id (else it inherits
    its parent's); `tag(args, result)` attaches a value to the span.
    """

    name: str
    owner: object
    attr: str
    request: Callable | None = None
    tag: Callable | None = None


TARGETS = (
    Target("cli.run", cli, "cmd_run"),
    Target("cli.evaluate", cli, "cmd_evaluate"),
    Target("cli.score_likelihood", cli, "cmd_score_likelihood"),
    Target("cli.gen_alt", cli, "cmd_gen_alt"),
    Target("cli.inject", cli, "cmd_inject"),
    Target("detect.detect", detect, "detect", _detection_request),
    Target("detect.load_template", detect, "load_template"),
    Target("detect.PromptTemplate.render", detect.PromptTemplate, "render"),
    Target("detect.parse_detector_response", detect, "parse_detector_response"),
    Target("backends.generate", backends, "generate"),
    Target("backends.request_fingerprint", backends, "request_fingerprint"),
    Target("backends.load_cassette", backends, "load_cassette"),
    Target("backends.HttpBackend.generate", backends.HttpBackend, "generate"),
    Target("backends.HttpBackend._post", backends.HttpBackend, "_post"),
    Target("backends.transport", backends, "_urllib_transport",
           tag=lambda args, result: result[0] if result else None),
    Target("backends.RateLimiter.acquire", backends.RateLimiter, "acquire"),
    Target("evaluate.build_report", evaluate, "build_report"),
    Target("evaluate.render", evaluate, "render_report_csv"),
    Target("evaluate.render", evaluate, "render_report_markdown"),
    Target("evaluate.render", evaluate, "render_results_csv"),
    Target("likelihood.score_solution", likelihood, "score_solution", _record_request),
    Target("likelihood.quartile_buckets", likelihood, "quartile_buckets"),
    Target("records.read_jsonl", records, "read_jsonl"),
    Target("records.write_jsonl", records, "write_jsonl"),
    Target("records.record_from_json", records, "record_from_json"),
    Target("exprs.parse_expr", exprs, "parse_expr"),
    Target("exprs.eval_expr", exprs, "eval_expr"),
    Target("exprs.canonical_form", exprs, "canonical_form"),
    Target("exprs.enumerate_permutations", exprs, "enumerate_permutations",
           tag=lambda args, result: _count_ops(args[0])),
    Target("alternatives.generate_alternatives", alternatives, "generate_alternatives",
           _record_request, tag=lambda args, result: None if result is None else len(result)),
    Target("alternatives.permute_solving_expression", alternatives,
           "permute_solving_expression",
           tag=lambda args, result: None if result is None else len(result)),
    Target("alternatives.explain_expression", alternatives, "explain_expression"),
    Target("inject.inject", inject, "inject", _record_request),
    Target("label_oracle.scan_record", label_oracle, "scan_record", _record_request),
)

# span tuple fields
ID, NAME, START, END, PARENT, REQUEST, TAG, ERROR = range(8)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list = []
        self.seed: int | None = None
        self._restore: list[tuple[object, str, object]] = []

    # --- recording ---

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, target: Target, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            # executor threads start with an empty stack: their spans belong
            # to whatever the submitting (main) thread is inside
            top = stack[-1] if stack else (tracer._main_stack[-1] if tracer._main_stack else None)
            parent, request = top if top else (None, None)
            if target.request:
                request = target.request(tracer, args, kwargs) or request
            span_id = next(tracer._ids)
            stack.append((span_id, request))
            result = error = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                error = type(err).__name__
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                tag = target.tag(args, result) if target.tag else None
                tracer.spans.append(
                    (span_id, target.name, start, end, parent, request, tag, error)
                )

        return wrapper

    def _seed_context(self, fn):
        """`cli._run_detection` runs one (profile, strategy, seed) cell; its
        seed completes the request id of the detections inside it."""
        tracer = self
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.seed = signature.bind(*args, **kwargs).arguments["seed"]
            return fn(*args, **kwargs)

        return wrapper

    # --- installation ---

    def _bind_everywhere(self, original, replacement) -> None:
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "askbd" or name.startswith("askbd.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, attr, original))
                    setattr(module, attr, replacement)

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer is already installed")
        self._main_stack = self._stack()
        for target in TARGETS:
            original = getattr(target.owner, target.attr)
            wrapped = self._wrap(target, original)
            if inspect.isclass(target.owner):
                self._restore.append((target.owner, target.attr, original))
                setattr(target.owner, target.attr, wrapped)
            else:
                self._bind_everywhere(original, wrapped)
        self._bind_everywhere(cli._run_detection, self._seed_context(cli._run_detection))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # --- output ---

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for span in sorted(self.spans, key=lambda s: s[START]):
                handle.write(json.dumps({
                    "id": span[ID], "name": span[NAME], "start": span[START],
                    "end": span[END], "parent": span[PARENT],
                    "request": span[REQUEST], "tag": span[TAG], "error": span[ERROR],
                }) + "\n")


def _covered(intervals: list[tuple[float, float]], start: float, end: float) -> float:
    """Length of [start, end] covered by the union of `intervals`."""
    total, reach = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


class SpanStats:
    """Per-name aggregates over a list of spans."""

    def __init__(self, spans: list[tuple]):
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for span in spans:
            if span[PARENT] is not None:
                children[span[PARENT]].append((span[START], span[END]))
        self.by_name: dict[str, list[tuple]] = defaultdict(list)
        self.self_s: dict[str, float] = defaultdict(float)
        for span in spans:
            self.by_name[span[NAME]].append(span)
            own = span[END] - span[START]
            kids = children.get(span[ID])
            if kids:
                own -= _covered(kids, span[START], span[END])
            self.self_s[span[NAME]] += own

    def calls(self, name: str) -> int:
        return len(self.by_name.get(name, ()))

    def total_s(self, name: str) -> float:
        return sum(s[END] - s[START] for s in self.by_name.get(name, ()))

    def errors(self, name: str) -> int:
        return sum(1 for s in self.by_name.get(name, ()) if s[ERROR] is not None)

    def tags(self, name: str) -> list:
        return [s[TAG] for s in self.by_name.get(name, ()) if s[TAG] is not None]

    def durations_ms(self, name: str, tag=None) -> list[float]:
        return sorted(
            (s[END] - s[START]) * 1000.0
            for s in self.by_name.get(name, ())
            if tag is None or s[TAG] == tag
        )


def percentile(ordered: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list; 0.0 when it is empty."""
    if not ordered:
        return 0.0
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0



# --- per-layer metrics ---

_O, _L, _A = "offline-run", "live-replay", "altgen-deep"

# name, unit, better, and the end-to-end metric (on which workload) it moves
LAYERS = (
    ("detect.load_template.calls", "count", "lower", f"detections_per_s, setup_s on {_O}"),
    ("detect.load_template.self_s", "s", "lower", f"detections_per_s, setup_s on {_O}"),
    ("detect.PromptTemplate.render.self_s", "s", "lower", f"detections_per_s on {_O}"),
    ("detect.parse_detector_response.calls", "count", "lower", f"detections_per_s, analyze_s on {_O}"),
    ("detect.parse_detector_response.self_s", "s", "lower", f"detections_per_s, analyze_s on {_O}"),
    ("detect.detect.calls", "count", "lower", f"detections_per_s on {_O}, {_L}"),
    ("detect.detect.p50_ms", "ms", "lower", f"detections_per_s on {_O}; no change on {_L}"),
    ("detect.detect.p99_ms", "ms", "lower", f"detections_per_s on {_O}; no change on {_L}"),
    ("detect.reasks", "count", "lower", f"detections_per_s on {_O}; requests_per_detection on {_L}"),
    ("backends.request_fingerprint.calls", "count", "lower", f"detections_per_s on {_O}"),
    ("backends.request_fingerprint.self_s", "s", "lower", f"detections_per_s on {_O}"),
    ("backends.load_cassette.self_s", "s", "lower", f"detections_per_s on {_O}"),
    ("backends.requests_sent", "count", "lower", f"requests_per_detection, detections_per_s on {_L}"),
    ("backends.retries", "count", "lower", f"requests_per_detection, detections_per_s on {_L}"),
    ("backends.http_429", "count", "lower", f"requests_per_detection, detections_per_s on {_L}"),
    ("backends.HttpBackend.generate.p50_ms", "ms", "lower", f"detections_per_s on {_L}"),
    ("backends.HttpBackend.generate.p99_ms", "ms", "lower", f"detections_per_s on {_L}"),
    ("backends.endpoint.busy_s", "s", "lower", f"detections_per_s on {_L}"),
    ("backends.RateLimiter.acquire.wait_s", "s", "lower", f"detections_per_s on {_L}"),
    ("cli.run.self_s", "s", "lower", f"detections_per_s on {_O}, {_L}"),
    ("cli.pool_overlap", "ratio", "higher", f"detections_per_s on {_O}, {_L}"),
    ("cli.evaluate.self_s", "s", "lower", f"analyze_s on {_O}"),
    ("cli.transcript_bytes", "bytes", "lower", f"detections_per_s on {_O}, {_L}; analyze_s on {_O}"),
    ("evaluate.build_report.self_s", "s", "lower", f"analyze_s on {_O}"),
    ("evaluate.render.self_s", "s", "lower", f"analyze_s on {_O}"),
    ("likelihood.score_solution.calls", "count", "lower", f"analyze_s on {_O}"),
    ("likelihood.score_solution.self_s", "s", "lower", f"analyze_s on {_O}"),
    ("likelihood.quartile_buckets.self_s", "s", "lower", f"analyze_s on {_O}"),
    ("records.read_jsonl.self_s", "s", "lower", f"detections_per_s, analyze_s on {_O}; records_per_s on {_A}"),
    ("records.write_jsonl.self_s", "s", "lower", f"detections_per_s, analyze_s on {_O}; records_per_s on {_A}"),
    ("records.record_from_json.calls", "count", "lower", f"detections_per_s, analyze_s on {_O}; records_per_s on {_A}"),
    ("exprs.parse_expr.calls", "count", "lower", f"records_per_s on {_A}; no change on {_O}"),
    ("exprs.parse_expr.self_s", "s", "lower", f"records_per_s on {_A}; no change on {_O}"),
    ("exprs.eval_expr.calls", "count", "lower", f"records_per_s on {_A}; no change on {_O}"),
    ("exprs.eval_expr.self_s", "s", "lower", f"records_per_s on {_A}; no change on {_O}"),
    ("exprs.canonical_form.calls", "count", "lower", f"records_per_s on {_A}; no change on {_O}"),
    ("exprs.canonical_form.self_s", "s", "lower", f"records_per_s on {_A}; no change on {_O}"),
    ("exprs.enumerate_permutations.ops4.mean_ms", "ms", "lower", f"records_per_s on {_A}"),
    ("exprs.enumerate_permutations.ops6.mean_ms", "ms", "lower", f"records_per_s on {_A}"),
    ("exprs.enumerate_permutations.ops8.mean_ms", "ms", "lower", f"records_per_s on {_A}"),
    ("exprs.enumerate_permutations.ops10.mean_ms", "ms", "lower", f"records_per_s on {_A}"),
    ("alternatives.generate_alternatives.self_s", "s", "lower", f"records_per_s, alternatives_per_record on {_A}"),
    ("alternatives.explain_expression.self_s", "s", "lower", f"records_per_s, alternatives_per_record on {_A}"),
    ("alternatives.candidates_per_permutation", "ratio", "higher", f"alternatives_per_record, records_per_s on {_A}"),
    ("inject.inject.calls", "count", "lower", f"records_per_s, alternatives_per_record on {_A}"),
    ("inject.inject.self_s", "s", "lower", f"records_per_s, alternatives_per_record on {_A}"),
    ("inject.refused_share", "ratio", "lower", f"records_per_s, alternatives_per_record on {_A}"),
    ("label_oracle.scan_record.self_s", "s", "lower",
     f"records_per_s, alternatives_per_record, analyze_s on {_A}"),
    ("label_oracle.mismatches", "count", "lower", f"must stay 0 on {_A}"),
    ("bench.untraced_iteration_s", "s", "lower", "the untraced twin of each traced iteration"),
    ("bench.traced_iteration_s", "s", "lower", "a traced iteration"),
    ("bench.tracing_overhead_s", "s", "lower", "traced minus untraced iteration time"),
    ("bench.spans_per_iteration", "count", "lower", "spans one traced iteration records"),
)
LAYER_UNITS = {name: unit for name, unit, _, _ in LAYERS}

# backend requests one detection makes when nothing has to be asked again
_STAGES = {"M2": 4, "M3": 4}


def layer_metrics(stats: SpanStats, iterations: int, counters: dict[str, float]) -> dict[str, float]:
    """Every LAYERS metric except the bench.* ones, per traced iteration.
    `counters` holds per-iteration means the workload counted itself."""

    def per(value: float) -> float:
        return value / iterations

    out: dict[str, float] = {}
    for name in ("detect.load_template", "detect.parse_detector_response", "detect.detect",
                 "backends.request_fingerprint", "likelihood.score_solution",
                 "records.record_from_json", "exprs.parse_expr", "exprs.eval_expr",
                 "exprs.canonical_form", "inject.inject"):
        out[f"{name}.calls"] = per(stats.calls(name))
    for name in ("detect.load_template", "detect.PromptTemplate.render",
                 "detect.parse_detector_response", "backends.request_fingerprint",
                 "backends.load_cassette", "cli.run", "cli.evaluate",
                 "evaluate.build_report", "evaluate.render", "likelihood.score_solution",
                 "likelihood.quartile_buckets", "records.read_jsonl", "records.write_jsonl",
                 "exprs.parse_expr", "exprs.eval_expr", "exprs.canonical_form",
                 "alternatives.generate_alternatives", "alternatives.explain_expression",
                 "inject.inject", "label_oracle.scan_record"):
        out[f"{name}.self_s"] = per(stats.self_s.get(name, 0.0))
    for name in ("detect.detect", "backends.HttpBackend.generate"):
        ordered = stats.durations_ms(name)
        out[f"{name}.p50_ms"] = percentile(ordered, 50)
        out[f"{name}.p99_ms"] = percentile(ordered, 99)

    expected = sum(_STAGES.get(s[REQUEST][1], 1) for s in stats.by_name.get("detect.detect", ()))
    out["detect.reasks"] = per(stats.calls("backends.generate") - expected)
    sent = stats.calls("backends.transport")
    out["backends.requests_sent"] = per(sent)
    out["backends.retries"] = per(sent - stats.calls("backends.HttpBackend._post"))
    out["backends.http_429"] = per(stats.tags("backends.transport").count(429))
    out["backends.endpoint.busy_s"] = counters.get("endpoint.busy_s", 0.0)
    out["backends.RateLimiter.acquire.wait_s"] = per(stats.total_s("backends.RateLimiter.acquire"))

    run_s = stats.total_s("cli.run")
    out["cli.pool_overlap"] = stats.total_s("detect.detect") / run_s if run_s else 0.0
    out["cli.transcript_bytes"] = counters.get("cli.transcript_bytes", 0.0)

    for ops in (4, 6, 8, 10):
        out[f"exprs.enumerate_permutations.ops{ops}.mean_ms"] = mean(
            stats.durations_ms("exprs.enumerate_permutations", tag=ops)
        )
    permutations = sum(stats.tags("alternatives.permute_solving_expression"))
    useful = sum(stats.tags("alternatives.generate_alternatives"))
    out["alternatives.candidates_per_permutation"] = useful / permutations if permutations else 0.0
    calls = stats.calls("inject.inject")
    out["inject.refused_share"] = stats.errors("inject.inject") / calls if calls else 0.0
    out["label_oracle.mismatches"] = counters.get("label_oracle.mismatches", 0.0)
    return out
