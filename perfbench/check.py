"""Check a run's CSV against the stored reference and the certificate invariants.

Every expected CSV row is one attempted point.  A point fails when its row is
missing (the sweep reported it as failed) or when it mismatches:

* against ``reference.json``: ``beta_low`` and ``beta_up`` must be equal
  bit for bit and ``errev`` within 1e-9;
* always, for attack rows: ``beta_up - beta_low < epsilon`` and the witness
  check ``errev >= beta_low - 1e-9`` (the extracted strategy achieves the
  certified lower bound).

A row with no reference entry (an input outside the stored set) is checked
against the invariants only.
"""

from __future__ import annotations

import csv
import json
import os
from typing import Dict, Iterator, List, Tuple

from workloads import EPSILON, Workload

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
ERREV_TOLERANCE = 1e-9
SINGLE_TREE_SERIES = "single-tree(f=5)"


def read_csv_rows(path: str) -> Iterator[Dict[str, str]]:
    """Rows of a sweep CSV as dictionaries of strings."""
    with open(path, newline="", encoding="utf-8") as handle:
        yield from csv.DictReader(handle)


def key(series: str, gamma: float, p: float) -> str:
    """Reference key of one point."""
    return f"{series}|{gamma!r}|{p!r}"


def row_key(row: Dict[str, str]) -> str:
    """Reference key of one CSV row."""
    return key(row["series"], float(row["gamma"]), float(row["p"]))


def reference_group(workload: Workload) -> str:
    """The reference section a workload's points live in."""
    return "fig2" if workload.name.startswith("fig2") else workload.name


def load_reference(workload: Workload) -> Dict[str, Dict[str, float]]:
    """The stored reference entries for ``workload`` (empty when absent)."""
    if not os.path.exists(REFERENCE_PATH):
        return {}
    with open(REFERENCE_PATH, encoding="utf-8") as handle:
        return json.load(handle).get(reference_group(workload), {})


def expected_points(workload: Workload) -> List[Tuple[str, bool]]:
    """``(key, is_attack)`` of every row the workload's CSV must hold."""
    points = []
    for sweep in workload.sweeps:
        for p in sweep.p_values:
            if sweep.include_baselines:
                points.append((key("honest", sweep.gamma, p), False))
                points.append((key(SINGLE_TREE_SERIES, sweep.gamma, p), False))
            for depth, forks, _ in sweep.attacks:
                points.append((key(f"ours(d={depth},f={forks})", sweep.gamma, p), True))
    return points


def check_csv(
    workload: Workload, csv_path: str, reference: Dict[str, Dict[str, float]]
) -> Tuple[int, List[str]]:
    """Return ``(attempted, problems)``: one problem line per failed point."""
    rows = {row_key(row): row for row in read_csv_rows(csv_path)}
    expected = expected_points(workload)
    problems = []
    for point, is_attack in expected:
        row = rows.get(point)
        if row is None:
            problems.append(f"{point}: missing (the sweep reported it failed)")
            continue
        errev = float(row["errev"])
        ref = reference.get(point)
        if ref is not None and abs(errev - ref["errev"]) > ERREV_TOLERANCE:
            problems.append(f"{point}: errev {errev!r} != reference {ref['errev']!r}")
            continue
        if not is_attack:
            continue
        low, up = float(row["beta_low"]), float(row["beta_up"])
        if ref is not None and (low, up) != (ref["beta_low"], ref["beta_up"]):
            problems.append(
                f"{point}: interval [{low!r}, {up!r}] != reference "
                f"[{ref['beta_low']!r}, {ref['beta_up']!r}]"
            )
        elif not up - low < EPSILON:
            problems.append(f"{point}: interval width {up - low!r} >= epsilon")
        elif not errev >= low - ERREV_TOLERANCE:
            problems.append(f"{point}: witness errev {errev!r} < beta_low {low!r}")
    return len(expected), problems
