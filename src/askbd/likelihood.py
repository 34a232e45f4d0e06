"""Solution likelihood math and quartile analysis.

Total log-likelihood is the sum of per-token log-probabilities of the
solution text conditioned on the question; the comparison indicator is
the per-token average, which removes the length penalty. Closed models
that cannot score are proxied by averaging open scoring backends.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from . import backends
from .backends import BackendProfile, TokenScore
from .evaluate import dataset_accuracy
from .records import SolutionRecord, jsonl_line, open_output, render_solution_text

QUARTILES = ("Q1", "Q2", "Q3", "Q4")


class EmptyContinuation(ValueError):
    pass


class TooFewRecords(ValueError):
    pass


def sum_logprob(scores: Sequence[TokenScore]) -> float:
    if not scores:
        raise EmptyContinuation("no token scores to sum")
    return math.fsum(s.logprob for s in scores)


def avg_token_logprob(scores: Sequence[TokenScore]) -> float:
    return sum_logprob(scores) / len(scores)


@dataclass(frozen=True)
class ScoredSolution:
    record_id: str
    backend: str
    total: float
    token_count: int
    indicator: float  # average per-token log-likelihood, nats/token


def score_solution(
    record: SolutionRecord, profile: BackendProfile, backend
) -> ScoredSolution:
    """Score the rendered solution text conditioned on the question. A
    scorer that returns no token for it gave a MalformedResponse."""
    prefix = record.question + "\n"
    continuation = render_solution_text(record)
    scores = backends.score_tokens(profile, prefix, continuation, backend=backend)
    if not scores:
        raise backends.MalformedResponse(f"record {record.record_id} scored zero tokens")
    return ScoredSolution(
        record_id=record.record_id,
        backend=profile.name,
        total=sum_logprob(scores),
        token_count=len(scores),
        indicator=avg_token_logprob(scores),
    )


def pseudo_indicator(scored: Sequence[ScoredSolution]) -> float:
    """Unweighted mean of one record's per-backend indicators."""
    if not scored:
        raise ValueError("need at least one scored solution")
    return math.fsum(s.indicator for s in scored) / len(scored)


def _nearest_rank(ordered: Sequence[float], percentile: float) -> float:
    rank = math.ceil(percentile / 100.0 * len(ordered))
    return ordered[max(rank, 1) - 1]


def quartile_buckets(indicators: Mapping[str, float]) -> dict[str, str]:
    """Each record's bucket, Q1..Q4, by half-open intervals between the
    nearest-rank percentiles at 25/50/75; ties fall into the lower bucket."""
    if len(indicators) < 4:
        raise TooFewRecords(f"need at least 4 records, got {len(indicators)}")
    ordered = sorted(indicators.values())
    cuts = tuple(_nearest_rank(ordered, p) for p in (25, 50, 75))
    assignment = {}
    for record_id, value in indicators.items():
        if value <= cuts[0]:
            bucket = "Q1"
        elif value <= cuts[1]:
            bucket = "Q2"
        elif value <= cuts[2]:
            bucket = "Q3"
        else:
            bucket = "Q4"
        assignment[record_id] = bucket
    return assignment


def bucket_accuracy(
    buckets: Mapping[str, str], results: Mapping[str, bool]
) -> dict[str, Fraction | None]:
    """`dataset_accuracy` per bucket over the records that have a result;
    a bucket with none stays undefined."""
    flags: dict[str, list[bool]] = {b: [] for b in QUARTILES}
    for record_id, bucket in buckets.items():
        if record_id in results:
            flags[bucket].append(results[record_id])
    return {
        bucket: dataset_accuracy(correct) if correct else None
        for bucket, correct in flags.items()
    }


def write_scores_jsonl(scores: Iterable[ScoredSolution], path) -> None:
    with open_output(path, "scores file") as handle:
        for s in scores:
            handle.write(jsonl_line(vars(s)))


def write_analysis_csv(
    path,
    indicators: Mapping[str, float],
    buckets: Mapping[str, str],
    results: Mapping[str, bool],
) -> None:
    """Per-record (record_id, indicator, bucket, correct) rows for plotting."""
    with open_output(path, "analysis file", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["record_id", "indicator", "bucket", "correct"])
        for record_id in sorted(indicators):
            writer.writerow(
                [
                    record_id,
                    repr(indicators[record_id]),
                    buckets[record_id],
                    int(bool(results[record_id])) if record_id in results else "",
                ]
            )
