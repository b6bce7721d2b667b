"""The repository benchmark: time to certified ERRev bounds, end to end and per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig2-serial --seed 1 --seconds 30 --trace 0

Workloads (see ``workloads.py``): ``fig2-serial`` and ``fig2-pool`` run a
Figure 2 panel (93 attack points plus baselines) with one worker and with a
two-worker pool plus journal; ``BENCHMARK.json`` gates these two.
``table1-d3f2l3`` runs the Table 1 point d=3, f=2, l=3 (32,790 states); it
is not gated: a third workload of about a minute per run would take the
full set of gated runs too close to its time limit (see ``README.md``).

Each run starts the workload in a fresh Python process (``child.py``) with
single-threaded BLAS, the platform's default (fork) pool start method and
its CSV, journal and trace under ``perfbench/out/``.  Three extra processes
before it and three after it time ``import repro`` alone, so the import part
of the set-up time is a median of seven samples taken across the run.  While
the child runs, this process samples the proportional set size of the child
and its pool workers.

The end-to-end times are seconds at a reference pace: each measured phase
is scaled by the host's pace, measured while it ran by a fixed kernel that
does not use the package (``pace.py``).  On a shared host whose speed
wanders by tens of percent this keeps the program's own cost apart from
the host's; the raw seconds stay in ``result.json``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: with ``--trace 0`` the end-to-end
metrics, with ``--trace 1`` the per-layer metrics of a traced pass, each
with the unit ``BENCHMARK.json`` gives it.  A
failed or mismatched point counts in ``failed`` (and ``failed_ratio``); it
does not stop the run.  Run details -- raw samples, the problems found,
nproc, the Python, numpy and scipy versions and the git SHA -- go to
``perfbench/out/<workload>-seed<n>-trace<t>/result.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import SELFTEST, WORKLOADS  # noqa: E402

#: A run must finish within this many seconds.
DEADLINE_S = 170.0
#: ``import repro`` samples taken in processes of their own, before the
#: workload process and again after it.
EXTRA_IMPORT_SAMPLES = 3
SAMPLE_INTERVAL_S = 0.2
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
#: Times ``import repro`` in a fresh process, then prints it with the pace
#: factor measured right after it (see ``pace.py``).
IMPORT_PROBE = (
    "import sys, time; t = time.perf_counter(); import repro; t = time.perf_counter() - t; "
    f"sys.path.insert(0, {HERE!r}); import pace; print(t, pace.calibrated_factor(7))"
)


def child_env() -> Dict[str, str]:
    """Environment of every process the benchmark starts."""
    env = dict(os.environ)
    for name in THREAD_ENV:
        env[name] = "1"
    env.pop("REPRO_TEST_START_METHOD", None)  # keep the platform default (fork)
    env.pop("REPRO_FAULTS", None)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _parent_pids() -> Dict[int, int]:
    """``pid -> ppid`` of every visible process."""
    parents = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="utf-8") as handle:
                stat = handle.read()
        except OSError:
            continue
        parents[int(entry)] = int(stat.rsplit(")", 1)[1].split()[1])
    return parents


def _pss_kb(pid: int) -> int:
    """Proportional set size of ``pid`` in KiB (0 once it has exited)."""
    try:
        with open(f"/proc/{pid}/smaps_rollup", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("Pss:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class TreeMemorySampler(threading.Thread):
    """Sample the summed PSS of a process and all its descendants."""

    def __init__(self, pid: int) -> None:
        super().__init__(daemon=True)
        self.pid = pid
        self.samples: List[Tuple[float, int]] = []  # (monotonic time, KiB)
        self._stop_event = threading.Event()

    def run(self) -> None:
        while not self._stop_event.is_set():
            parents = _parent_pids()
            tree, frontier = set(), [self.pid]
            while frontier:
                pid = frontier.pop()
                tree.add(pid)
                frontier.extend(child for child, parent in parents.items() if parent == pid)
            self.samples.append((time.monotonic(), sum(_pss_kb(pid) for pid in tree)))
            self._stop_event.wait(SAMPLE_INTERVAL_S)

    def stop(self) -> None:
        self._stop_event.set()
        self.join()


def git_sha() -> str:
    """The checkout's commit, or ``unknown`` outside a git repository."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def import_samples(env: Dict[str, str], count: int) -> List[List[float]]:
    """Time ``import repro`` in ``count`` fresh processes: ``[seconds, pace factor]``."""
    samples = []
    for _ in range(count):
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE],
            env=env,
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        samples.append([float(x) for x in done.stdout.split()[-2:]])
    return samples


def stop_session(child: subprocess.Popen) -> None:
    """Stop the child and its pool workers, then wait for the child."""
    # SIGINT first: the sweep's finally blocks unlink its shared memory.
    os.killpg(child.pid, signal.SIGINT)
    try:
        child.wait(timeout=10)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()


def run_child(args: argparse.Namespace, env: Dict[str, str], out_dir: str, deadline: float):
    """Run ``child.py``; return its result, start time and the tree's memory samples."""
    result_path = os.path.join(out_dir, "result-child.json")
    command = [
        sys.executable,
        os.path.join(HERE, "child.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--out-dir", out_dir,
        "--result", result_path,
    ]
    started = time.monotonic()
    # The child's own output goes to stderr: stdout ends with our JSON line.
    # A session of its own, so a timeout can kill the pool workers with it.
    child = subprocess.Popen(
        command, env=env, cwd=ROOT, stdout=sys.stderr, start_new_session=True
    )
    sampler = TreeMemorySampler(child.pid)
    sampler.start()
    try:
        code = child.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise SystemExit(f"perfbench: {args.workload} exceeded the {DEADLINE_S:.0f} s deadline")
    finally:
        if child.poll() is None:
            stop_session(child)
        sampler.stop()
    if code != 0:
        raise SystemExit(f"perfbench: workload process exited with code {code}")
    with open(result_path, encoding="utf-8") as handle:
        result = json.load(handle)
    return result, started, sampler.samples


def end_to_end(
    result: dict, started: float, imports: List[List[float]], memory: List[Tuple[float, int]]
) -> dict:
    """The end-to-end metrics of an untraced run, times at the reference pace."""
    setup, passes = result["setup"], result["passes"]
    solve_s = statistics.median(p["paced_seconds"] for p in passes)
    import_s = statistics.median(
        seconds * factor for seconds, factor in imports + [[setup["import_s"], setup["import_factor"]]]
    )
    explore_samples = [
        seconds * factor for seconds, factor in zip(setup["explore_samples"], setup["explore_factors"])
    ]
    # One pass through the program: start-up and import, one exploration,
    # one solve.  The repeated set-up samples are the harness's, not its.
    wall_s = (
        (setup["imported_at"] - started) * setup["import_factor"] + explore_samples[0] + solve_s
    )
    # Peak up to the first CSV: later passes add pools and results, so a peak
    # over the whole run would grow with the number of passes that fit.
    first_kb = [kb for at, kb in memory if at <= passes[0]["written_at"]]
    return {
        "wall_s": wall_s,
        "setup_s": import_s + statistics.median(explore_samples),
        "solve_s": solve_s,
        "points_per_s": result["attack_points"] / solve_s,
        "peak_rss_mb": max(first_kb or [kb for _, kb in memory]) / 1024.0,
    }


def metric_units(section: str) -> Dict[str, str]:
    """``name -> unit`` of the metrics ``BENCHMARK.json`` lists in ``section``."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return {metric["name"]: metric["unit"] for metric in spec[section]}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="repository benchmark (see module docstring)")
    parser.add_argument("--workload", choices=WORKLOADS + (SELFTEST,), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    # Turn SIGTERM into SystemExit, so the child's session is stopped too.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no package source under {ROOT}/src; nothing to measure", file=sys.stderr)
        return 2

    out_dir = os.path.join(HERE, "out", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    units = metric_units("per_layer" if args.trace else "end_to_end")
    env = child_env()
    imports = import_samples(env, EXTRA_IMPORT_SAMPLES)
    result, started, memory = run_child(args, env, out_dir, deadline)
    imports += import_samples(env, EXTRA_IMPORT_SAMPLES)

    passes = result["passes"]
    attempted = sum(p["attempted"] for p in passes)
    problems = [problem for p in passes for problem in p["problems"]]
    if args.trace:
        metrics = result["layers"]
    else:
        metrics = end_to_end(result, started, imports, memory)
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise SystemExit(f"perfbench: no value for {', '.join(missing)}")
    details = dict(
        result,
        workload=args.workload,
        seed=args.seed,
        trace=args.trace,
        import_samples=imports,
        metrics=metrics,
        nproc=os.cpu_count(),
        git_sha=git_sha(),
    )
    with open(os.path.join(out_dir, "result.json"), "w", encoding="utf-8") as handle:
        json.dump(details, handle, indent=1)
    for leftover in os.listdir(out_dir):
        if leftover.endswith(".csv") or leftover.startswith("journal-"):
            os.remove(os.path.join(out_dir, leftover))
    for problem in problems[:20]:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": attempted,
                "failed": len(problems),
                "metrics": {
                    name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
