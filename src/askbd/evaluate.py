"""Judging predictions against gold labels and aggregating reports.

Correctness is strict joint equality of step and category (the all-clear
case included); invalid detector outcomes count against accuracy. The
report holds per (profile, strategy, origin) accuracies averaged over
seeds, plus the alternative-minus-conventional gap per strategy.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .detect import DetectionOutcome
from .records import ErrorLabel, ORIGIN_ALTERNATIVE, ORIGIN_CONVENTIONAL


class EmptySelection(ValueError):
    pass


class DuplicateResult(ValueError):
    pass


def judge(gold: ErrorLabel, outcome: DetectionOutcome) -> bool:
    """Both the step and the category must match; invalid is never correct."""
    return outcome.valid and outcome.predicted == gold


@dataclass(frozen=True)
class JudgedResult:
    record_id: str
    profile: str
    strategy: str
    origin: str
    seed: int
    gold: ErrorLabel
    predicted: ErrorLabel
    valid: bool
    correct: bool


def dataset_accuracy(correct: Sequence[bool]) -> Fraction:
    """The share of true flags: the one accuracy rule, which the report and
    the likelihood buckets both apply."""
    if not correct:
        raise EmptySelection("no judged results selected")
    return Fraction(sum(correct), len(correct))


@dataclass(frozen=True)
class ReportCell:
    per_seed: tuple[tuple[int, Fraction], ...]

    @property
    def mean(self) -> Fraction:
        accs = [acc for _, acc in self.per_seed]
        return sum(accs, Fraction(0)) / len(accs)


@dataclass(frozen=True)
class ExperimentReport:
    profiles: tuple[str, ...]
    strategies: tuple[str, ...]
    cells: Mapping[tuple[str, str, str], ReportCell]
    # the conformity-bias gap, exact: D' mean minus D mean per (profile, strategy)
    deltas: Mapping[tuple[str, str], Fraction]

    def cell(self, profile: str, strategy: str, origin: str) -> ReportCell | None:
        return self.cells.get((profile, strategy, origin))


def build_report(results: Iterable[JudgedResult]) -> ExperimentReport:
    """Seed-averaged accuracy per (profile, strategy, origin) cell."""
    seen: set[tuple[str, str, str, int]] = set()
    grouped: dict[tuple[str, str, str, int], list[JudgedResult]] = {}
    profiles: list[str] = []
    strategies: list[str] = []
    for result in results:
        key = (result.record_id, result.profile, result.strategy, result.seed)
        if key in seen:
            raise DuplicateResult(f"{key} judged twice")
        seen.add(key)
        cell = (result.profile, result.strategy, result.origin, result.seed)
        grouped.setdefault(cell, []).append(result)
        if result.profile not in profiles:
            profiles.append(result.profile)
        if result.strategy not in strategies:
            strategies.append(result.strategy)
    seeds = sorted({seed for _, _, _, seed in grouped})

    cells: dict[tuple[str, str, str], ReportCell] = {}
    for profile in profiles:
        for strategy in strategies:
            for origin in (ORIGIN_CONVENTIONAL, ORIGIN_ALTERNATIVE):
                per_seed = []
                for seed in seeds:
                    bucket = grouped.get((profile, strategy, origin, seed))
                    if bucket:
                        per_seed.append((seed, dataset_accuracy([r.correct for r in bucket])))
                if per_seed:
                    cells[(profile, strategy, origin)] = ReportCell(tuple(per_seed))

    deltas: dict[tuple[str, str], Fraction] = {}
    for profile in profiles:
        for strategy in strategies:
            conventional = cells.get((profile, strategy, ORIGIN_CONVENTIONAL))
            alternative = cells.get((profile, strategy, ORIGIN_ALTERNATIVE))
            if conventional and alternative:
                deltas[(profile, strategy)] = alternative.mean - conventional.mean

    return ExperimentReport(
        profiles=tuple(profiles),
        strategies=tuple(strategies),
        cells=cells,
        deltas=deltas,
    )


def _pct(value: Fraction) -> str:
    return f"{float(value) * 100:.1f}"


def _pct_signed(value: Fraction) -> str:
    return f"{float(value) * 100:+.1f}"


def render_report_csv(report: ExperimentReport) -> str:
    """Exact fractions per seed and per cell; the delta rows carry the
    alternative-minus-conventional gap."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["profile", "strategy", "origin", "seed", "accuracy", "percent"])
    for (profile, strategy, origin), cell in sorted(report.cells.items()):
        for seed, acc in cell.per_seed:
            writer.writerow([profile, strategy, origin, seed, str(acc), _pct(acc)])
        writer.writerow([profile, strategy, origin, "mean", str(cell.mean), _pct(cell.mean)])
    for (profile, strategy), delta in sorted(report.deltas.items()):
        writer.writerow([profile, strategy, "delta", "mean", str(delta), _pct_signed(delta)])
    return buffer.getvalue()


def render_report_markdown(report: ExperimentReport) -> str:
    """Strategy-by-origin accuracy matrix, one row per profile."""
    strategies = report.strategies
    header = ["Model"]
    for origin_label in ("D", "D'", "Delta"):
        header.extend(f"{origin_label} {s}" for s in strategies)
    lines = [
        "| " + " | ".join(header) + " |",
        "|" + "---|" * len(header),
    ]
    for profile in report.profiles:
        row = [profile]
        for origin in (ORIGIN_CONVENTIONAL, ORIGIN_ALTERNATIVE):
            for strategy in strategies:
                cell = report.cell(profile, strategy, origin)
                row.append(_pct(cell.mean) if cell else "-")
        for strategy in strategies:
            delta = report.deltas.get((profile, strategy))
            row.append(_pct_signed(delta) if delta is not None else "-")
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines) + "\n"


def render_results_csv(results: Sequence[JudgedResult]) -> str:
    """Per-record rows; the join surface for likelihood analysis."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(
        [
            "profile", "strategy", "origin", "seed", "record_id",
            "gold_step", "gold_category", "pred_step", "pred_category",
            "valid", "correct",
        ]
    )
    for r in results:
        writer.writerow(
            [
                r.profile, r.strategy, r.origin, r.seed, r.record_id,
                r.gold.step if r.gold.step is not None else "",
                r.gold.category or "",
                r.predicted.step if r.predicted.step is not None else "",
                r.predicted.category or "",
                int(r.valid), int(r.correct),
            ]
        )
    return buffer.getvalue()
