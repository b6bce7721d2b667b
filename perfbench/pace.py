"""Host-speed calibration: time measured on a shared host, scaled to a fixed pace.

The benchmark host is a few vCPUs of a shared machine whose speed changes by
10-30% over seconds as other tenants come and go; the CPU time of a fixed
computation moves with it, so neither wall nor CPU time of a whole pass is
steady from run to run.  This module measures the host's pace while the
program runs and scales the program's time by it.

* :func:`kernel` is a fixed computation of the program's kind: it assembles
  a 3,000-state sparse chain, solves a sparse system with SciPy's SuperLU,
  takes a row-wise argmax and runs a Python dictionary loop, about 11 ms at
  the reference pace.  It uses only Python, numpy and scipy, never the
  package, so no change to the package changes its cost.  Of the kernels
  tried (this one, a 300-state LU with a dictionary loop, a memory stream,
  a pure-Python loop; thread CPU time and wall time), it tracked the
  program's pass times best across runs.
* :func:`install` wraps ``repro.core.engine.formal_analysis`` (the search of
  one attack point) so that every search, in whichever process runs it --
  the serial process or a forked pool worker -- is preceded by one kernel.
  Each process appends ``kernel_cpu_s search_wall_s`` lines to a file of its
  own in the run's directory.
* :func:`pace_factor` turns those samples into a factor: the time-weighted
  mean of ``REFERENCE_KERNEL_S / kernel_cpu_s`` over the searches.  A time
  ``t`` measured while those searches ran is reported as ``t * factor``:
  seconds at the reference pace.  The kernel's own time is taken out of the
  measured time first (:func:`kernel_seconds`).

Kernel samples are CPU time of the calling thread, so a process that waits
for a core (two pool workers and their parent on two vCPUs) does not read as
a slow host; the host's slowdowns show in CPU time as well as in wall time.
"""

from __future__ import annotations

import glob
import os
import statistics
import time
from typing import Any, List, Tuple

#: The kernel's CPU time at the reference pace (about its median on the 2-vCPU
#: 2.1 GHz VM the benchmark was built on); it sets the scale of every
#: reported time, not its steadiness.
REFERENCE_KERNEL_S = 0.011

#: Size of the kernel's Markov-chain-like model.
KERNEL_STATES = 3000
_model: Any = None


def _build_model() -> Any:
    """A fixed random transition structure: five successors per state, near it."""
    import numpy as np
    import scipy.sparse as sp

    rng = np.random.default_rng(12345)
    rows = np.repeat(np.arange(KERNEL_STATES), 5)
    cols = np.clip(rows + rng.integers(-20, 21, rows.size), 0, KERNEL_STATES - 1)
    values = rng.random(rows.size)
    system = (6.0 * sp.identity(KERNEL_STATES, format="csr")
              - sp.csr_matrix((values, (rows, cols)), shape=(KERNEL_STATES, KERNEL_STATES)))
    return rows, cols, values, system.tocsc(), np.ones(KERNEL_STATES)


def kernel() -> None:
    """The fixed calibration computation: one step of a policy-iteration round."""
    global _model
    if _model is None:
        _model = _build_model()
    import scipy.sparse as sp
    from scipy.sparse.linalg import splu

    rows, cols, values, system, rhs = _model
    chain = sp.csr_matrix((values, (rows, cols)), shape=(KERNEL_STATES, KERNEL_STATES))
    values_of_states = splu(system).solve(rhs)
    (chain @ values_of_states).reshape(-1, 3).argmax(axis=1)
    table: dict = {}
    for i in range(2000):
        table[i % 89] = table.get(i % 89, 0) + i


def calibrate() -> float:
    """CPU seconds of one kernel run."""
    start = time.thread_time()
    kernel()
    return time.thread_time() - start


def calibrated_factor(samples: int) -> float:
    """``REFERENCE_KERNEL_S`` over the median of ``samples`` kernel runs."""
    return REFERENCE_KERNEL_S / statistics.median(calibrate() for _ in range(samples))


def install(out_dir: str) -> None:
    """Precede every attack-point search with one timed kernel run."""
    from repro.core import engine

    original = engine.formal_analysis
    kernel()  # build the model before any pool forks

    def paced(*args: Any, **kwargs: Any) -> Any:
        kernel_s = calibrate()
        start = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            search_s = time.perf_counter() - start
            # Opened per sample: a forked worker writes a file of its own, and
            # ``collect`` may delete a file between two passes.
            path = os.path.join(out_dir, f"pace-{os.getpid()}.txt")
            with open(path, "a", encoding="utf-8") as handle:
                handle.write(f"{kernel_s!r} {search_s!r}\n")

    paced.__wrapped__ = original  # type: ignore[attr-defined]
    engine.formal_analysis = paced


def collect(out_dir: str) -> List[Tuple[float, float]]:
    """Read and delete the ``(kernel_s, search_s)`` samples of every process."""
    samples = []
    for path in sorted(glob.glob(os.path.join(out_dir, "pace-*.txt"))):
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                kernel_s, search_s = line.split()
                samples.append((float(kernel_s), float(search_s)))
        os.remove(path)
    return samples


def kernel_seconds(samples: List[Tuple[float, float]]) -> float:
    """CPU seconds the kernel runs took."""
    return sum(kernel_s for kernel_s, _ in samples)


def pace_factor(samples: List[Tuple[float, float]]) -> float:
    """Time-weighted mean of ``REFERENCE_KERNEL_S / kernel_s`` over the searches."""
    weight = sum(search_s for _, search_s in samples)
    if weight <= 0:
        raise RuntimeError("no paced searches: repro.core.engine.formal_analysis was not called")
    return sum(search_s * REFERENCE_KERNEL_S / kernel_s for kernel_s, search_s in samples) / weight
