"""One workload run in a fresh process; ``run.py`` starts it and reads its result file.

Phases, in order:

1. ``import repro`` (timed: one sample of ``repro.import_s``);
2. set-up: explore every model structure the workload needs through
   ``attacks.structure.get_model_structure``, ``EXPLORE_SAMPLES`` times from
   a cleared cache (the median is the set-up's exploration time), which also
   leaves the cache warm for the solve;
3. solve passes: ``run_sweep`` for every sweep plus one ``write_csv``, each
   pass checked against the reference after its timing ends.  Untraced runs
   add passes while another one fits in ``--seconds``; a traced run makes one
   untraced pass, then installs the tracer and makes one traced pass.

Untraced runs also measure the host's pace (``pace.py``): kernel runs
interleaved with the set-up samples, after the import, and before every
attack-point search of a pass.  Each phase records the factor that scales
its time to the reference pace.

The result file holds raw timings, counts and (traced) per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import pace  # noqa: E402
from workloads import SELFTEST, WORKLOADS, Workload, make_workload  # noqa: E402

#: Explorations per run, each from a cleared cache.  A fixed count, so a
#: faster exploration lowers the set-up time instead of buying more samples.
EXPLORE_SAMPLES = 7
#: Kernel runs after the import, and before and after each exploration sample.
PACE_SAMPLES = 5


def explore(workload: Workload) -> list:
    """Build every ``(attack, support)`` structure the workload's sweeps need."""
    from repro.attacks import SupportSignature
    from repro.attacks.structure import get_model_structure
    from repro.config import ProtocolParams
    from repro.exceptions import ReproError
    from sweeps import attack_params

    structures = {}
    for sweep in workload.sweeps:
        for p in sweep.p_values:
            try:
                protocol = ProtocolParams(p=p, gamma=sweep.gamma)
            except ReproError:
                continue  # an invalid point fails inside the sweep, as it should
            for attack in map(attack_params, sweep.attacks):
                key = (attack, SupportSignature.of(protocol))
                if key not in structures:
                    structures[key] = get_model_structure(attack, protocol)
    return list(structures.values())


def solve_pass(workload: Workload, out_dir: str, reference: dict, paced: bool = False) -> dict:
    """One timed pass (sweeps + CSV), then the reference check, untimed.

    ``paced``: ``pace.install`` is in effect; the pass's time at the reference
    pace goes to ``paced_seconds``, with the kernel runs taken out.
    """
    from check import check_csv, read_csv_rows
    from sweeps import run_workload

    csv_path = os.path.join(out_dir, "points.csv")
    start = time.perf_counter()
    failures, journal = run_workload(workload, out_dir, csv_path)
    seconds = time.perf_counter() - start
    written_at = time.monotonic()
    pacing = {}
    if paced:
        samples = pace.collect(out_dir)
        kernel_s = pace.kernel_seconds(samples) / workload.workers
        factor = pace.pace_factor(samples)
        pacing = {
            "paced_seconds": (seconds - kernel_s) * factor,
            "pace_factor": factor,
            "kernel_s": kernel_s,
            "pace_samples": len(samples),
        }
    attempted, problems = check_csv(workload, csv_path, reference)
    rows = list(read_csv_rows(csv_path))
    return {
        **pacing,
        "seconds": seconds,
        "written_at": written_at,
        "attempted": attempted,
        "problems": problems,
        "sweep_failures": len(failures),
        "busy_s": sum(float(row["seconds"]) for row in rows if row.get("seconds")),
        "pi_iterations": sum(
            int(row["solver_iterations"]) for row in rows if row.get("solver_iterations")
        ),
        "journal": journal,
    }


def layer_metrics(
    tracer, workload: Workload, traced: dict, untraced: dict, setup: dict
) -> dict:
    """Per-layer metrics of the traced pass (0 for a layer it did not run)."""
    from report import coverage, layer_rows, totals
    from tracer import (
        ASSEMBLY,
        BASELINE,
        CSV_WRITE,
        EVALUATION,
        EXECUTION,
        JOURNAL,
        POLICY_ITERATION,
        PROBE,
        PUBLISH,
        REFILL,
        SEARCH,
        STRATEGY_EVAL,
    )

    spans = [
        {"id": s[0], "name": s[1], "start": s[2], "end": s[3], "parent": s[4]}
        for s in tracer.spans
    ]
    rows = totals(layer_rows(spans))

    def field(name: str, key: str) -> float:
        value = rows.get(name, {}).get(key)
        return 0.0 if value is None else float(value)

    execution_s = field(EXECUTION, "total")
    busy_s = traced["busy_s"]
    workers = workload.workers
    attempted = traced["attempted"]
    return {
        "repro.import_s": setup["import_s"],
        "attacks.structure.explore_s": setup["explore_s"],
        "attacks.structure.states": setup["states"],
        "attacks.structure.rows": setup["rows"],
        "attacks.structure.transitions": setup["transitions"],
        "attacks.structure.states_per_s": setup["states"] / setup["explore_s"],
        "attacks.selfish_forks.refill_s": field(REFILL, "total"),
        "attacks.selfish_forks.refill_calls": int(field(REFILL, "count")),
        "analysis.algorithm1.probes": tracer.counters.get("probes", 0),
        "analysis.algorithm1.probe_p50_s": field(PROBE, "p50"),
        "analysis.algorithm1.probe_p95_s": field(PROBE, "p95"),
        "analysis.algorithm1.self_s": field(SEARCH, "self"),
        "mdp.policy_iteration.iterations": traced["pi_iterations"],
        "mdp.policy_iteration.self_s": field(POLICY_ITERATION, "self"),
        "mdp.markov_chain.assembly_s": field(ASSEMBLY, "total"),
        "mdp.markov_chain.assembly_calls": int(field(ASSEMBLY, "count")),
        "mdp.markov_chain.evaluation_s": field(EVALUATION, "total"),
        "mdp.markov_chain.evaluation_calls": int(field(EVALUATION, "count")),
        "mdp.markov_chain.evaluation_fallbacks": tracer.counters.get("evaluation_fallbacks", 0),
        "analysis.errev.strategy_eval_s": field(STRATEGY_EVAL, "total"),
        "attacks.single_tree.baseline_s": field(BASELINE, "total"),
        "core.execution.worker_busy_ratio": busy_s / (workers * execution_s),
        "core.execution.dispatch_overhead_s": execution_s - busy_s / workers,
        "core.shared_structures.publish_s": field(PUBLISH, "total"),
        "core.journal.records": traced["journal"]["records"],
        "core.journal.bytes": traced["journal"]["bytes"],
        "core.journal.record_s": field(JOURNAL, "total"),
        "core.reporting.csv_write_s": field(CSV_WRITE, "total"),
        "trace.overhead_ratio": traced["seconds"] / untraced["seconds"],
        "trace.coverage": coverage(spans),
        "failed_ratio": len(traced["problems"]) / attempted,
    }


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=WORKLOADS + (SELFTEST,), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)

    start = time.perf_counter()
    import repro  # noqa: F401  (the timed import)

    import_s = time.perf_counter() - start
    imported_at = time.monotonic()
    import numpy
    import scipy
    from repro.attacks.structure import clear_structure_cache

    from check import load_reference

    import_factor = pace.calibrated_factor(PACE_SAMPLES)
    workload = make_workload(args.workload, args.seed)
    reference = load_reference(workload)
    explore_samples, explore_factors = [], []
    for _ in range(EXPLORE_SAMPLES):
        before = [pace.calibrate() for _ in range(PACE_SAMPLES)]
        clear_structure_cache()
        begin = time.perf_counter()
        structures = explore(workload)
        explore_samples.append(time.perf_counter() - begin)
        after = [pace.calibrate() for _ in range(PACE_SAMPLES)]
        explore_factors.append(pace.REFERENCE_KERNEL_S / statistics.median(before + after))
    setup = {
        "import_s": import_s,
        "import_factor": import_factor,
        "explore_factors": explore_factors,
        "explore_samples": explore_samples,
        "explore_s": statistics.median(explore_samples),
        "states": sum(s.num_states for s in structures),
        "rows": sum(s.num_rows for s in structures),
        "transitions": sum(s.num_transitions for s in structures),
        "imported_at": imported_at,
    }

    layers = None
    if args.trace:
        passes = [solve_pass(workload, args.out_dir, reference)]
        import sweeps
        import tracer as tracing

        recorder = tracing.Tracer()
        tracing.install(recorder)
        recorder.wrap(sweeps, "write_csv", tracing.CSV_WRITE)
        root = recorder.open(tracing.ROOT)
        traced = solve_pass(workload, args.out_dir, reference)
        recorder.close(root)
        recorder.uninstall()
        passes.append(traced)
        layers = layer_metrics(recorder, workload, traced, passes[0], setup)
        recorder.write_jsonl(
            os.path.join(args.out_dir, "trace.jsonl"),
            {
                "workload": workload.name,
                "seed": args.seed,
                "untraced_solve_s": passes[0]["seconds"],
                "traced_solve_s": traced["seconds"],
                "overhead_ratio": layers["trace.overhead_ratio"],
            },
        )
    else:
        pace.install(args.out_dir)
        passes = [solve_pass(workload, args.out_dir, reference, paced=True)]
        while True:
            spent = sum(p["seconds"] for p in passes)
            if spent + spent / len(passes) > args.seconds:
                break
            passes.append(solve_pass(workload, args.out_dir, reference, paced=True))

    result = {
        "setup": setup,
        "passes": passes,
        "attack_points": workload.attack_points,
        "layers": layers,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }
    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
