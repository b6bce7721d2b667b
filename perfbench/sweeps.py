"""Run a workload's sweeps through the package's public entry points.

``run_sweep`` and ``write_csv`` are the only entry points used; the CSV the
package writes is the output the benchmark checks against the reference.
"""

from __future__ import annotations

import os
from typing import List, Tuple

from workloads import EPSILON, Workload

from repro import AnalysisConfig, AttackParams, SweepConfig, run_sweep, write_csv
from repro.core.results import SweepFailure


def attack_params(attack: Tuple[int, int, int]) -> AttackParams:
    """``AttackParams`` of a ``(d, f, l)`` triple."""
    depth, forks, length = attack
    return AttackParams(depth=depth, forks=forks, max_fork_length=length)


def sweep_configs(workload: Workload, out_dir: str) -> List[SweepConfig]:
    """One ``SweepConfig`` per sweep; journals (if any) go to ``out_dir``."""
    configs = []
    for index, sweep in enumerate(workload.sweeps):
        journal = os.path.join(out_dir, f"journal-{index}.jsonl") if workload.journal else None
        configs.append(
            SweepConfig(
                p_values=sweep.p_values,
                gammas=(sweep.gamma,),
                attack_configs=tuple(attack_params(a) for a in sweep.attacks),
                include_honest=sweep.include_baselines,
                include_single_tree=sweep.include_baselines,
                analysis=AnalysisConfig(epsilon=EPSILON),
                workers=workload.workers,
                journal_path=journal,
            )
        )
    return configs


def run_workload(workload: Workload, out_dir: str, csv_path: str) -> Tuple[List[SweepFailure], dict]:
    """Run every sweep, write one CSV; return the failures and journal totals."""
    rows = []
    failures: List[SweepFailure] = []
    journal = {"records": 0, "bytes": 0}
    for config in sweep_configs(workload, out_dir):
        if config.journal_path is not None and os.path.exists(config.journal_path):
            os.remove(config.journal_path)
        result = run_sweep(config)
        rows.extend(point.to_row() for point in result.points)
        failures.extend(result.failures)
        if config.journal_path is not None:
            journal["records"] += int(result.metadata["journal"]["recorded"])
            journal["bytes"] += os.path.getsize(config.journal_path)
    write_csv(rows, csv_path)
    return failures, journal
