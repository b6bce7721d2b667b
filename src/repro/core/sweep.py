"""Parameter sweeps reproducing the paper's Figure 2.

Figure 2 plots the expected relative revenue as a function of the adversary's
resource fraction ``p`` for several switching probabilities ``gamma``, comparing
the paper's attack (for several ``(d, f)`` configurations) against honest mining
and the single-tree baseline.  :func:`sweep_figure2` regenerates those series;
the grid density and configuration list are configurable so the default harness
stays within a laptop-scale time budget (see docs/architecture.md, "Testing
and benchmarks").

Execution is delegated to the sweep engine (:mod:`repro.core.engine`), which
fans the attack grid out over a process pool (``workers``), reuses cached model
structures across grid points and can chain solver warm starts along the ``p``
axis (``warm_start_across_points``).  ``workers=1`` with chaining disabled is
the legacy serial behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from .._validation import check_positive_int
from ..attacks.single_tree import SingleTreeParams
from ..config import AnalysisConfig, AttackParams
from ..exceptions import ConfigurationError
from .engine import attack_series_name, execute_sweep
from .results import SweepResult

__all__ = [
    "DEFAULT_ATTACK_CONFIGS",
    "DEFAULT_SINGLE_TREE",
    "SweepConfig",
    "attack_series_name",
    "run_sweep",
    "sweep_figure2",
]

#: Default (d, f) configurations of the paper that are tractable by default.
DEFAULT_ATTACK_CONFIGS = (
    AttackParams(depth=1, forks=1, max_fork_length=4),
    AttackParams(depth=2, forks=1, max_fork_length=4),
)

#: Single-tree baseline parameters used in the paper (l = 4, f = 5).
DEFAULT_SINGLE_TREE = SingleTreeParams(max_depth=4, max_width=5)


@dataclass
class SweepConfig:
    """Configuration of a Figure 2 style sweep.

    Attributes:
        p_values: Grid of adversarial resource fractions.
        gammas: Switching probabilities (one plot per gamma in the paper).
        attack_configs: Attack configurations swept (interpreted by the
            scenario each :class:`AttackParams` names; all configurations of a
            sweep must belong to the same scenario).
        attack: Name of the registered attack scenario to sweep (see
            :mod:`repro.attacks.registry`).  ``None`` (default) derives the
            scenario from ``attack_configs``.  When set while
            ``attack_configs`` still holds the selfish-forks default grid, the
            grid is replaced by the named scenario's default grid
            (``entry.grid_configs("default")``); an explicitly supplied grid of
            a different scenario is a configuration error.
        include_honest: Whether to include the honest baseline series.
        include_single_tree: Whether to include the single-tree baseline series.
        single_tree: Parameters of the single-tree baseline.
        analysis: Formal-analysis configuration used for every attack point.
        workers: Worker processes the engine fans attack points out over;
            1 (default) executes in-process.  Results are bit-for-bit
            identical across worker counts; relative to the pre-engine serial
            sweep the default cached build may differ in the last float ulp
            (use ``use_structure_cache=False`` for the legacy construction).
        use_structure_cache: Reuse the cached ``(d, f, l)`` model skeleton
            across grid points and only refill probabilities per point.
        use_shared_structures: With ``workers > 1``, publish the parent-built
            skeletons on the zero-copy shared-memory model plane
            (:mod:`repro.core.shared_structures`) so workers attach instead of
            re-exploring (the default).  Setting this to false restores the
            PR 2 behaviour -- forked workers inherit private copies, spawned
            workers rebuild every skeleton once per worker -- which the
            shared-structure ablation benchmark uses as its baseline.
        use_results_plane: With ``workers > 1``, return every computed
            :class:`~repro.core.engine.PointOutcome` through the fixed-record
            shared-memory results plane (:mod:`repro.core.results_plane`)
            instead of pickling it through the pool's result queue (the
            default).  Setting this to false restores the pickled future path
            -- the results-plane ablation benchmark uses it as its baseline.
            Either way the computed values are identical; only the return
            transport changes (``SweepResult.metadata["results_plane"]``
            records which path each outcome took).
        warm_start_across_points: Chain each attack series along the ``p``
            axis, seeding every Algorithm 1 run with the optimal strategy and
            bias of the previous grid point.  Changes results only within
            solver tolerance; disabled by default so every point is computed
            independently.
        reuse_p_axis_bounds: Exploit the monotonicity of ERRev* in ``p``: each
            point's binary search starts from the previous (smaller-p) point's
            certified ``beta_low`` instead of 0.  Sound by Theorem 3.1 and
            applied only for non-decreasing p within a series; the series is
            scheduled as one ordered block per worker so the bounds never cross
            a process boundary.  Certified intervals still have width below
            ``epsilon``; the computed values can differ from cold-interval
            results by at most ``epsilon``.
        coordinator: ``HOST:PORT`` to listen on as the coordinator of a
            distributed multi-host sweep (:mod:`repro.core.distributed`): grid
            units are streamed to remote ``repro worker`` processes over TCP
            instead of a local pool, with the model skeletons shipped as the
            same flat buffers the shared-memory plane uses.  ``None`` (default)
            keeps execution local.  CLI: ``repro sweep --distributed --listen``.
        connect: ``HOST:PORT`` of a remote coordinator this config's process
            should serve as a *worker* (consumed by ``repro worker --connect`` /
            :func:`repro.core.distributed.run_worker`, so one config object can
            describe a whole fabric).  A config with ``connect`` set cannot be
            passed to :func:`run_sweep` -- workers compute other sweeps' units,
            they do not own a grid.  Mutually exclusive with ``coordinator``.
        distributed_workers: Number of remote workers the coordinator waits
            for before streaming work (0 = start with the first worker to
            connect; late joiners are always welcome either way).  Only
            meaningful together with ``coordinator``.
        journal_path: Path of the durable sweep journal
            (:mod:`repro.core.journal`).  When set, every computed
            :class:`~repro.core.engine.PointOutcome` is appended to this
            crash-safe JSONL file as it lands.  ``None`` (default) disables
            journaling.  CLI: ``repro sweep --journal PATH``.
        journal_resume: Resume from an existing journal at ``journal_path``:
            intact journaled points are replayed through the normal result
            assembly and only the missing delta is recomputed, bit-for-bit
            identical to an uninterrupted run.  Requires ``journal_path``.
            CLI: ``--resume``.
        journal_fsync: Journal durability policy -- ``"never"``, ``"close"``
            (default; one fsync when the journal closes) or ``"always"``
            (fsync per record).  CLI: ``--journal-fsync``.
    """

    p_values: Sequence[float] = tuple(round(0.05 * i, 2) for i in range(0, 7))
    gammas: Sequence[float] = (0.0, 0.5, 1.0)
    attack_configs: Sequence[AttackParams] = DEFAULT_ATTACK_CONFIGS
    attack: Optional[str] = None
    include_honest: bool = True
    include_single_tree: bool = True
    single_tree: SingleTreeParams = DEFAULT_SINGLE_TREE
    analysis: AnalysisConfig = field(default_factory=lambda: AnalysisConfig(epsilon=1e-3))
    workers: int = 1
    use_structure_cache: bool = True
    use_shared_structures: bool = True
    use_results_plane: bool = True
    warm_start_across_points: bool = False
    reuse_p_axis_bounds: bool = False
    coordinator: Optional[str] = None
    connect: Optional[str] = None
    distributed_workers: int = 0
    journal_path: Optional[str] = None
    journal_resume: bool = False
    journal_fsync: str = "close"

    def __post_init__(self) -> None:
        check_positive_int(self.workers, "workers")
        if not self.p_values:
            raise ConfigurationError("p_values must contain at least one value")
        if not self.gammas:
            raise ConfigurationError("gammas must contain at least one value")
        if not isinstance(self.analysis, AnalysisConfig):
            raise ConfigurationError(
                f"analysis must be an AnalysisConfig, got {type(self.analysis).__name__}"
            )
        if self.attack is not None:
            from ..attacks.registry import get_attack  # deferred: import cycle

            entry = get_attack(self.attack)  # unknown names raise here
            if (
                tuple(self.attack_configs) == DEFAULT_ATTACK_CONFIGS
                and self.attack != "selfish-forks"
            ):
                self.attack_configs = entry.grid_configs("default")
        scenarios = {attack.scenario for attack in self.attack_configs}
        if len(scenarios) > 1:
            raise ConfigurationError(
                f"mixed-scenario sweep: attack_configs span scenarios "
                f"{sorted(scenarios)}; run one sweep per scenario"
            )
        if self.attack is not None and scenarios and scenarios != {self.attack}:
            raise ConfigurationError(
                f"attack={self.attack!r} conflicts with attack_configs of scenario "
                f"{next(iter(scenarios))!r}"
            )
        if self.coordinator is not None and self.connect is not None:
            raise ConfigurationError(
                "coordinator and connect are mutually exclusive: a process either "
                "listens for workers or serves a remote coordinator"
            )
        if self.distributed_workers < 0:
            raise ConfigurationError(
                f"distributed_workers must be >= 0, got {self.distributed_workers}"
            )
        if self.distributed_workers > 0 and self.coordinator is None:
            raise ConfigurationError(
                "distributed_workers requires coordinator (the listen address)"
            )
        if self.journal_resume and self.journal_path is None:
            raise ConfigurationError(
                "journal_resume requires journal_path (the journal to resume from)"
            )
        from .journal import FSYNC_POLICIES  # deferred: import cycle

        if self.journal_fsync not in FSYNC_POLICIES:
            raise ConfigurationError(
                f"journal_fsync must be one of {FSYNC_POLICIES}, "
                f"got {self.journal_fsync!r}"
            )
        from .distributed import parse_address  # deferred: import cycle

        for address in (self.coordinator, self.connect):
            if address is not None:
                try:
                    parse_address(str(address))
                except ValueError as exc:
                    raise ConfigurationError(str(exc)) from exc


def run_sweep(
    config: SweepConfig,
    *,
    progress: Optional[Callable[[str], None]] = None,
) -> SweepResult:
    """Run a Figure 2 style sweep and return all computed points.

    Args:
        config: The sweep configuration (including engine settings such as
            ``workers``).
        progress: Optional callback invoked with a short message per computed
            attack point.
    """
    return execute_sweep(config, progress=progress)


def sweep_figure2(
    *,
    fine_grid: bool = False,
    gammas: Optional[Sequence[float]] = None,
    attack_configs: Optional[Sequence[AttackParams]] = None,
    epsilon: float = 1e-3,
    solver: str = "policy_iteration",
    workers: int = 1,
    use_structure_cache: bool = True,
    warm_start_across_points: bool = False,
    reuse_p_axis_bounds: bool = False,
    progress: Optional[Callable[[str], None]] = None,
) -> SweepResult:
    """Convenience wrapper reproducing Figure 2 with sensible defaults.

    Args:
        fine_grid: Use the paper's p-step of 0.01 instead of the default 0.05.
        gammas: Switching probabilities; defaults to the paper's five values when
            ``fine_grid`` is set, otherwise to {0, 0.5, 1}.
        attack_configs: Attack configurations; defaults to the tractable subset.
        epsilon: Binary-search precision of the formal analysis.
        solver: Mean-payoff solver backend.
        workers: Worker processes for the sweep engine (1 = serial).
        use_structure_cache: Reuse cached model skeletons across grid points.
        warm_start_across_points: Chain solver warm starts along the p axis.
        reuse_p_axis_bounds: Start each binary search from the previous p
            point's certified lower bound (monotonicity of ERRev* in p).
        progress: Optional progress callback.
    """
    if fine_grid:
        p_values = tuple(round(0.01 * i, 2) for i in range(0, 31))
        default_gammas = (0.0, 0.25, 0.5, 0.75, 1.0)
    else:
        p_values = tuple(round(0.05 * i, 2) for i in range(0, 7))
        default_gammas = (0.0, 0.5, 1.0)
    config = SweepConfig(
        p_values=p_values,
        gammas=tuple(gammas) if gammas is not None else default_gammas,
        attack_configs=tuple(attack_configs) if attack_configs is not None else DEFAULT_ATTACK_CONFIGS,
        analysis=AnalysisConfig(epsilon=epsilon, solver=solver),
        workers=workers,
        use_structure_cache=use_structure_cache,
        warm_start_across_points=warm_start_across_points,
        reuse_p_axis_bounds=reuse_p_axis_bounds,
    )
    return run_sweep(config, progress=progress)
