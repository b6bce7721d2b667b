"""In-memory span recorder that wraps the package's public layer functions.

The benchmark traces the program from the outside: :func:`install` replaces
the public functions at each layer boundary with wrappers that open a span
(name, start, end, parent, point) around the original call.  Spans stay in
memory; :meth:`Tracer.write_jsonl` writes them out once the run is over.

Only the process that installed the tracer records spans.  Pool workers
forked from it inherit the wrappers but call straight through, so the
``fig2-pool`` trace holds the parent-side layers only.
"""

from __future__ import annotations

import importlib
import json
import os
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Span names of the layers, in report order.
ROOT = "bench.solve"
EXECUTION = "core.execution.run"
PUBLISH = "core.shared_structures.publish"
REFILL = "attacks.selfish_forks.refill"
SEARCH = "analysis.algorithm1.search"
PROBE = "analysis.algorithm1.probe"
FINAL_SOLVE = "analysis.algorithm1.final_solve"
POLICY_ITERATION = "mdp.policy_iteration.solve"
ASSEMBLY = "mdp.markov_chain.assembly"
EVALUATION = "mdp.markov_chain.evaluation"
STRATEGY_EVAL = "analysis.errev.strategy_eval"
BASELINE = "attacks.single_tree.baseline"
JOURNAL = "core.journal.record"
CSV_WRITE = "core.reporting.csv_write"

LAYER_ORDER = (
    ROOT,
    EXECUTION,
    PUBLISH,
    REFILL,
    SEARCH,
    PROBE,
    FINAL_SOLVE,
    POLICY_ITERATION,
    ASSEMBLY,
    EVALUATION,
    STRATEGY_EVAL,
    BASELINE,
    JOURNAL,
    CSV_WRITE,
)


class Tracer:
    """Span recorder for one process: spans, counters and the open-span stack."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        # Each span: [id, name, start, end, parent, point].
        self.spans: List[List[Any]] = []
        self.counters: Dict[str, int] = {}
        self._stack: List[int] = []
        self._point: Optional[str] = None
        self._patches: List[Tuple[Any, str, Any]] = []

    def active(self) -> bool:
        """Whether spans are recorded in the calling process."""
        return os.getpid() == self.pid

    def open(self, name: str) -> int:
        """Open a span as a child of the innermost open span; return its id."""
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([span_id, name, time.perf_counter(), None, parent, self._point])
        self._stack.append(span_id)
        return span_id

    def close(self, span_id: int) -> None:
        """Close the innermost span (which must be ``span_id``)."""
        self.spans[span_id][3] = time.perf_counter()
        popped = self._stack.pop()
        if popped != span_id:
            raise RuntimeError(f"span {span_id} closed out of order (top was {popped})")

    def count(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to the counter ``name``."""
        self.counters[name] = self.counters.get(name, 0) + amount

    def set_point(self, point: Optional[str]) -> None:
        """Label the spans opened from now on with a grid point."""
        self._point = point

    def wrap(
        self,
        owner: Any,
        attribute: str,
        name: str,
        *,
        on_result: Optional[Callable[["Tracer", int, tuple, Any], None]] = None,
        on_enter: Optional[Callable[["Tracer", tuple], None]] = None,
    ) -> None:
        """Replace ``owner.attribute`` by a span-recording wrapper."""
        function = getattr(owner, attribute)
        tracer = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not tracer.active():
                return function(*args, **kwargs)
            if on_enter is not None:
                on_enter(tracer, args)
            span_id = tracer.open(name)
            try:
                result = function(*args, **kwargs)
            finally:
                tracer.close(span_id)
            if on_result is not None:
                on_result(tracer, span_id, args, result)
            return result

        wrapper.__wrapped__ = function  # type: ignore[attr-defined]
        setattr(owner, attribute, wrapper)
        self._patches.append((owner, attribute, function))

    def uninstall(self) -> None:
        """Restore every wrapped function."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def write_jsonl(self, path: str, meta: Dict[str, Any]) -> None:
        """Write the spans, one JSON object per line, then one ``meta`` record."""
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, name, start, end, parent, point in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "point": point,
                        }
                    )
                    + "\n"
                )
            handle.write(json.dumps({"meta": dict(meta, counters=self.counters)}) + "\n")


def _label_refill_point(tracer: Tracer, args: tuple) -> None:
    structure, protocol = args[0], args[1]
    attack = structure.attack
    tracer.set_point(
        f"gamma={protocol.gamma} p={protocol.p} "
        f"d={attack.depth} f={attack.forks} l={attack.max_fork_length}"
    )


def _label_baseline_point(tracer: Tracer, args: tuple) -> None:
    protocol = args[0]
    tracer.set_point(f"gamma={protocol.gamma} p={protocol.p} single-tree")


def _mark_final_solve(tracer: Tracer, span_id: int, args: tuple, result: Any) -> None:
    """Rename the last solve of a search: it extracts the strategy, it is no probe."""
    tracer.count("probes", result.num_iterations)
    for span in reversed(tracer.spans):
        if span[4] == span_id and span[1] == PROBE:
            span[1] = FINAL_SOLVE
            return


def _count_fallback(tracer: Tracer, span_id: int, args: tuple, result: Any) -> None:
    tracer.count("evaluation_fallbacks")


def install(tracer: Tracer) -> None:
    """Wrap the public function at every layer boundary the benchmark reports.

    Each function is patched where its caller looks it up: a module that did
    ``from x import f`` holds its own binding, so that binding is replaced.
    """
    # import_module, not ``import a.b as c``: packages re-export functions
    # under their submodules' names (repro.mdp.policy_iteration is both).
    spla = importlib.import_module("scipy.sparse.linalg")
    algorithm1 = importlib.import_module("repro.analysis.algorithm1")
    errev = importlib.import_module("repro.analysis.errev")
    engine = importlib.import_module("repro.core.engine")
    mean_payoff = importlib.import_module("repro.mdp.mean_payoff")
    policy_iteration = importlib.import_module("repro.mdp.policy_iteration")
    from repro.attacks.registry import ScenarioStructure
    from repro.core.execution import ExecutionBackend
    from repro.core.journal import SweepJournal
    from repro.mdp.markov_chain import MarkovChain

    tracer.wrap(ExecutionBackend, "run", EXECUTION)
    tracer.wrap(engine, "publish_structures", PUBLISH)
    tracer.wrap(ScenarioStructure, "instantiate", REFILL, on_enter=_label_refill_point)
    tracer.wrap(engine, "formal_analysis", SEARCH, on_result=_mark_final_solve)
    tracer.wrap(algorithm1, "solve_mean_payoff", PROBE)
    tracer.wrap(mean_payoff, "policy_iteration", POLICY_ITERATION)
    tracer.wrap(policy_iteration, "induced_markov_chain", ASSEMBLY)
    tracer.wrap(errev, "induced_markov_chain", ASSEMBLY)
    tracer.wrap(MarkovChain, "gain_and_bias", EVALUATION)
    tracer.wrap(spla, "lsqr", "scipy.lsqr", on_result=_count_fallback)
    tracer.wrap(algorithm1, "evaluate_strategy_errev", STRATEGY_EVAL)
    tracer.wrap(engine, "single_tree_errev", BASELINE, on_enter=_label_baseline_point)
    tracer.wrap(SweepJournal, "record", JOURNAL)
