"""Shared configuration of the benchmark harness.

Set the environment variable ``REPRO_FULL=1`` to run the paper's full parameter
grid (all attack configurations of Table 1 and the 0.01-step p-grid of
Figure 2).  The default configuration keeps every benchmark laptop-scale; see
docs/architecture.md ("Testing and benchmarks") for the rationale.

Set ``REPRO_BENCH_SMOKE=1`` (used by the CI benchmark job) to shrink the grids
further so every perf path is exercised within a couple of minutes on a shared
runner; ``REPRO_FULL`` wins when both are set.

Benchmark CSVs go to a per-session temporary directory, so a test run leaves
the tracked ``benchmarks/results/*.csv`` files alone.  Set
``REPRO_BENCH_WRITE=1`` to write them there instead (the CI benchmark job does,
and uploads them as an artifact).
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

_SRC = Path(__file__).resolve().parents[1] / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

#: Directory where benchmark CSV outputs are written.
RESULTS_DIR = Path(__file__).resolve().parent / "results"


def full_mode() -> bool:
    """Whether the full (paper-sized) benchmark grid was requested."""
    return os.environ.get("REPRO_FULL", "0") not in ("", "0", "false", "False")


def smoke_mode() -> bool:
    """Whether the reduced CI smoke grid was requested (``REPRO_FULL`` wins)."""
    if full_mode():
        return False
    return os.environ.get("REPRO_BENCH_SMOKE", "0") not in ("", "0", "false", "False")


def write_mode() -> bool:
    """Whether the benchmarks should rewrite the tracked CSVs in ``results/``."""
    return os.environ.get("REPRO_BENCH_WRITE", "0") not in ("", "0", "false", "False")


@pytest.fixture(scope="session")
def results_dir(tmp_path_factory: pytest.TempPathFactory) -> Path:
    """Directory for CSV outputs: ``results/`` under ``REPRO_BENCH_WRITE=1``, else a tmp dir."""
    if not write_mode():
        return tmp_path_factory.mktemp("bench-results")
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def run_full_grid() -> bool:
    """Session-wide flag selecting the full paper grid."""
    return full_mode()
