"""Regenerate ``perfbench/reference.json``, the stored outputs every run is checked against.

Usage (from the repository root; takes about two minutes on two cores)::

    python3 perfbench/make_reference.py

It computes every input any seed can draw: the five Figure 2 panels
(gamma in {0, 0.25, 0.5, 0.75, 1}, p = 0.00 ... 0.30) and the table1 point.
It records ``beta_low``, ``beta_up`` and ``errev`` per CSV row, keyed by
``series|gamma|p``, plus each attack point's ``solver_iterations`` (for
reference; runs do not check it).  Intervals are bit-for-bit identical
across worker counts, so the panels are computed with two workers.  Regenerate it only when a change is meant to alter the
certified results, and say so in the change.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from check import REFERENCE_PATH, read_csv_rows, row_key  # noqa: E402
from sweeps import run_workload  # noqa: E402
from workloads import (  # noqa: E402
    FIG2_ATTACKS,
    FIG2_P_VALUES,
    PAPER_GAMMAS,
    TABLE1_ATTACK,
    TABLE1_P,
    Sweep,
    Workload,
)


def compute(workload: Workload, out_dir: str) -> dict:
    """Run ``workload`` and return its CSV rows as reference entries."""
    csv_path = os.path.join(out_dir, f"{workload.name}.csv")
    failures, _ = run_workload(workload, out_dir, csv_path)
    if failures:
        raise SystemExit(f"reference run of {workload.name} failed: {failures}")
    entries = {}
    for row in read_csv_rows(csv_path):
        entry = {"errev": float(row["errev"])}
        if row.get("beta_low"):
            entry["beta_low"] = float(row["beta_low"])
            entry["beta_up"] = float(row["beta_up"])
            entry["solver_iterations"] = int(row["solver_iterations"])
        entries[row_key(row)] = entry
    return entries


def main() -> int:
    fig2 = Workload(
        "fig2",
        tuple(Sweep(gamma=g, p_values=FIG2_P_VALUES, attacks=FIG2_ATTACKS) for g in PAPER_GAMMAS),
        workers=2,
    )
    table1 = Workload(
        "table1-d3f2l3",
        (Sweep(gamma=0.5, p_values=(TABLE1_P,), attacks=(TABLE1_ATTACK,)),),
    )
    reference = {}
    with tempfile.TemporaryDirectory(dir=HERE) as out_dir:
        for workload in (fig2, table1):
            reference[workload.name] = compute(workload, out_dir)
            print(f"{workload.name}: {len(reference[workload.name])} rows", flush=True)
    with open(REFERENCE_PATH, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
