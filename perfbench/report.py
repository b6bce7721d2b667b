"""Per-layer summary of a benchmark trace file.

Usage::

    python3 perfbench/report.py perfbench/out/trace-fig2-serial-seed1.jsonl

prints one row per layer -- span count, total, self time, p50 and p95 of the
span durations -- and, at the foot, ``trace.coverage`` (the share of the
solve phase that named layer spans cover) and ``trace.overhead_ratio``
(traced solve time over untraced solve time of the same run).  A p95 is
printed only for layers with at least 200 spans, so that ten or more spans
lie above it.

The functions here are stdlib-only and also compute the traced run's
per-layer metrics.
"""

from __future__ import annotations

import json
import statistics
import sys
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from tracer import EXECUTION, LAYER_ORDER, ROOT

#: Spans a p95 needs so that at least ten lie above it.
MIN_SPANS_FOR_P95 = 200

Span = Dict[str, object]


def load_trace(path: str) -> Tuple[List[Span], Dict[str, object]]:
    """Read a trace file: its spans and the trailing ``meta`` record."""
    spans: List[Span] = []
    meta: Dict[str, object] = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            if "meta" in record:
                meta = record["meta"]
            else:
                spans.append(record)
    return spans, meta


def duration(span: Span) -> float:
    """Wall time of one closed span."""
    return float(span["end"]) - float(span["start"])  # type: ignore[arg-type]


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus that of its direct children.

    Spans come from one thread, so children never overlap and their
    durations add up to the part of the parent they cover.
    """
    own = [duration(span) for span in spans]
    for span in spans:
        parent = span["parent"]
        if parent is not None:
            own[parent] -= duration(span)  # type: ignore[index]
    return own


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of ``values`` (which must not be empty)."""
    ordered = sorted(values)
    rank = max(1, round(fraction * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def layer_rows(spans: Sequence[Span]) -> List[Dict[str, object]]:
    """Rows of layer, count, total, self, p50 and p95 (``None`` when too few)."""
    own = self_times(spans)
    by_name: Dict[str, List[int]] = {}
    for index, span in enumerate(spans):
        by_name.setdefault(str(span["name"]), []).append(index)
    names = [name for name in LAYER_ORDER if name in by_name]
    names += sorted(name for name in by_name if name not in LAYER_ORDER)
    rows = []
    for name in names:
        indices = by_name[name]
        durations = [duration(spans[i]) for i in indices]
        rows.append(
            {
                "layer": name,
                "count": len(indices),
                "total": sum(durations),
                "self": sum(own[i] for i in indices),
                "p50": statistics.median(durations),
                "p95": (
                    percentile(durations, 0.95)
                    if len(durations) >= MIN_SPANS_FOR_P95
                    else None
                ),
            }
        )
    return rows


def coverage(spans: Sequence[Span]) -> float:
    """Share of the root spans' time covered by named layer spans.

    A layer span counts when no other layer span encloses it; the backend
    wrapper (``core.execution.run``) is transparent, since it encloses the
    whole dispatch and would cover everything by itself.
    """
    root_time = sum(duration(span) for span in spans if span["name"] == ROOT)
    if root_time <= 0.0:
        return 0.0
    covered = 0.0
    for span in spans:
        if span["name"] in (ROOT, EXECUTION):
            continue
        parent = span["parent"]
        while parent is not None and spans[parent]["name"] == EXECUTION:  # type: ignore[index]
            parent = spans[parent]["parent"]  # type: ignore[index]
        if parent is not None and spans[parent]["name"] == ROOT:  # type: ignore[index]
            covered += duration(span)
    return covered / root_time


def totals(rows: Iterable[Dict[str, object]]) -> Dict[str, Dict[str, object]]:
    """Index layer rows by layer name."""
    return {str(row["layer"]): row for row in rows}


def format_report(spans: Sequence[Span], meta: Dict[str, object]) -> str:
    """The per-layer table with coverage and overhead at the foot."""

    def seconds(value: Optional[object]) -> str:
        return "-" if value is None else f"{float(value):.4f}"  # type: ignore[arg-type]

    lines = [f"{'layer':<36} {'count':>8} {'total_s':>10} {'self_s':>10} {'p50_s':>10} {'p95_s':>10}"]
    for row in layer_rows(spans):
        lines.append(
            f"{row['layer']:<36} {row['count']:>8} {seconds(row['total']):>10} "
            f"{seconds(row['self']):>10} {seconds(row['p50']):>10} {seconds(row['p95']):>10}"
        )
    lines.append("")
    lines.append(f"trace.coverage        {coverage(spans):.4f}")
    overhead = meta.get("overhead_ratio")
    lines.append(f"trace.overhead_ratio  {seconds(overhead)}")
    for key in ("workload", "seed", "untraced_solve_s", "traced_solve_s"):
        if key in meta:
            lines.append(f"{key:<21} {meta[key]}")
    return "\n".join(lines)


def main(argv: Sequence[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 perfbench/report.py TRACE.jsonl", file=sys.stderr)
        return 2
    spans, meta = load_trace(argv[0])
    print(format_report(spans, meta))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
