"""The harness's own test: failure accounting, exact counts and the no-source exit.

Usage (from the repository root; about 30 s)::

    python3 perfbench/selftest.py

It drives ``run.py`` end to end on the ``selftest`` workload -- two tiny
attack configurations over p in {0.1, 0.2, 1.2}, serial with a journal --
and asserts that

* the invalid point p = 1.2 takes the sweep engine's failure path, is counted
  in ``failed`` and ``failed_ratio`` (4 of 12 points per pass) and does not
  crash the run;
* the exact counts (probes, PI iterations, states, rows, transitions,
  evaluation fallbacks, journal records) are identical across two traced
  runs of the same code;
* every end-to-end and per-layer metric named in ``BENCHMARK.json`` is
  printed with its unit;
* in a directory holding only ``BENCHMARK.json`` and the benchmark's files,
  ``run.py`` exits non-zero without printing a result.

It exits 0 when every check passes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXACT_COUNTS = (
    "analysis.algorithm1.probes",
    "mdp.policy_iteration.iterations",
    "attacks.structure.states",
    "attacks.structure.rows",
    "attacks.structure.transitions",
    "mdp.markov_chain.evaluation_fallbacks",
    "core.journal.records",
)


def run_benchmark(trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", "selftest",
         "--seed", "0", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
        check=False,
    )


def last_json(done: subprocess.CompletedProcess) -> dict:
    if done.returncode != 0:
        raise AssertionError(f"run.py exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def check_failure_accounting(result: dict) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] is False, result
    assert result["attempted"] % 12 == 0 and result["attempted"] >= 12, result
    assert result["failed"] * 3 == result["attempted"], result


def check_names(result: dict, section: str) -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    for metric in spec[section]:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"], (metric, printed)
        assert isinstance(printed["value"], (int, float)), (metric, printed)


def main() -> int:
    untraced = last_json(run_benchmark(0))
    check_failure_accounting(untraced)
    check_names(untraced, "end_to_end")

    traced = [last_json(run_benchmark(1)) for _ in range(2)]
    for result in traced:
        check_failure_accounting(result)
        check_names(result, "per_layer")
        assert result["metrics"]["failed_ratio"]["value"] == 4 / 12, result
    counts = [{name: r["metrics"][name]["value"] for name in EXACT_COUNTS} for r in traced]
    assert counts[0] == counts[1], counts
    assert counts[0]["analysis.algorithm1.probes"] > 0, counts
    assert counts[0]["core.journal.records"] == 6, counts

    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=os.path.join(HERE, "out")) as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("out"))
        done = run_benchmark(0, cwd=bare)
        assert done.returncode != 0, done
        assert not done.stdout.strip(), done.stdout

    print(f"selftest passed: exact counts {counts[0]}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
