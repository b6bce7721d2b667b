"""Algorithm 1: the paper's fully automated formal analysis procedure.

Given the selfish-mining MDP and a precision ``epsilon``, the procedure performs
a binary search over ``beta`` in ``[0, 1]``.  Every iteration solves the
mean-payoff MDP under the reward ``r_beta``; the sign of the optimal mean payoff
decides the half in which the optimal expected relative revenue ``ERRev*`` lies
(Theorem 3.1: the optimal mean payoff is monotonically decreasing in ``beta``
and crosses zero exactly at ``ERRev*``).  On termination ``beta_low`` is an
``epsilon``-tight lower bound on ``ERRev*`` and the strategy that is optimal for
``r_{beta_low}`` achieves an ERRev within ``[ERRev* - epsilon, ERRev*]``.

Invariant: **certified-bound reproducibility**.  The final
``[beta_low, beta_up]`` interval is a deterministic function of the model, the
solver backend and ``epsilon`` -- identical bit-for-bit across processes and
hosts (the sweep engine asserts this for its serial, pooled and distributed
backends) -- and has width below ``epsilon`` with
``beta_low <= ERRev* <= beta_up`` within the MDP's strategy class.  Warm starts
(``AnalysisConfig.warm_start``) change solver iteration counts, never the
certified interval beyond solver tolerance.

A probe needs only the sign of the optimal mean payoff, so it asks the solver
for exactly that (``sign_only``): policy and value iteration stop as soon as
their gain bounds exclude 0, which is the decision a converged solve would
take.  Each probe's strategy travels to the next probe together with its
per-component policy evaluation, which holds for every ``beta`` at once, so a
warm-started policy-iteration probe starts without a linear solve.  The final
solve at ``beta_low`` runs to convergence; the ERRev of its strategy comes
from the per-component gains of that solve's last policy evaluation.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..config import AnalysisConfig
from ..exceptions import ModelError, SolverError
from ..mdp import MDP, MeanPayoffSolution, PolicyEvaluation, Strategy, solve_mean_payoff
from .errev import evaluate_strategy_errev
from .rewards import beta_reward_weights

logger = logging.getLogger(__name__)


@dataclass
class BinarySearchIteration:
    """Record of a single binary-search iteration (for reporting and tests).

    Attributes:
        beta: The beta value probed in this iteration.
        optimal_mean_payoff: The solver's gain under ``r_beta``, whose sign
            decided the probe.  A probe stops once that sign is proven, so
            this is the optimal mean payoff only when the solver converged;
            under policy iteration it is otherwise the gain of the last
            evaluated strategy, a lower bound on the optimum.
        beta_low: Lower end of the beta interval after the update.
        beta_up: Upper end of the beta interval after the update.
        solve_seconds: Wall-clock time of the mean-payoff solve.
        solver_iterations: Iterations the mean-payoff backend needed (policy
            improvement rounds or value-iteration sweeps; 0 for the LP).
        lower_bound: The solver's lower bound on the optimal mean payoff.
        upper_bound: The solver's upper bound on the optimal mean payoff.
    """

    beta: float
    optimal_mean_payoff: float
    beta_low: float
    beta_up: float
    solve_seconds: float
    solver_iterations: int = 0
    lower_bound: float = float("-inf")
    upper_bound: float = float("inf")


@dataclass
class FormalAnalysisResult:
    """Output of Algorithm 1.

    Attributes:
        errev_lower_bound: The epsilon-tight lower bound on the optimal ERRev
            (the final ``beta_low``).
        beta_low: Final lower end of the binary-search interval.
        beta_up: Final upper end of the binary-search interval (an upper bound on
            the optimal ERRev within the MDP's strategy class).
        epsilon: The precision the search was run with.
        strategy: A strategy optimal for ``r_{beta_low}``; by Theorem 3.1 its
            ERRev lies in ``[ERRev* - epsilon, ERRev*]``.
        strategy_errev: Exact ERRev of ``strategy`` (from the per-component
            gains of its induced chain), or ``None`` if evaluation was
            disabled.
        iterations: Per-iteration log of the binary search.
        total_seconds: Total wall-clock time of the analysis.
        solver: Mean-payoff solver backend used.
        total_solver_iterations: Sum of backend iterations over every solve of
            the analysis (including the final strategy-extraction solve) -- the
            primary measure of warm-starting effectiveness.
        final_bias: Bias vector of the final solve, reusable as a warm start
            for an adjacent parameter point (``None`` for the LP backend only
            when no bias was produced).
    """

    errev_lower_bound: float
    beta_low: float
    beta_up: float
    epsilon: float
    strategy: Strategy
    strategy_errev: Optional[float]
    iterations: List[BinarySearchIteration] = field(default_factory=list)
    total_seconds: float = 0.0
    solver: str = "policy_iteration"
    total_solver_iterations: int = 0
    final_bias: Optional[np.ndarray] = None

    @property
    def num_iterations(self) -> int:
        """Number of mean-payoff solves performed by the binary search."""
        return len(self.iterations)

    @property
    def interval_width(self) -> float:
        """Width of the final beta interval (less than ``epsilon`` on success)."""
        return self.beta_up - self.beta_low


def formal_analysis(
    mdp: MDP,
    config: Optional[AnalysisConfig] = None,
    *,
    beta_low: float = 0.0,
    beta_up: float = 1.0,
    initial_strategy_rows: Optional[np.ndarray] = None,
    initial_bias: Optional[np.ndarray] = None,
) -> FormalAnalysisResult:
    """Run the paper's Algorithm 1 on a selfish-mining MDP.

    Args:
        mdp: The MDP produced by :func:`repro.attacks.build_selfish_forks_mdp`
            (reward components ``(r_A, r_H)``).
        config: Analysis configuration (precision, solver backend, tolerances).
        beta_low: Initial lower end of the search interval (0 in the paper;
            callers may tighten it, e.g. to ``p``, since ERRev* >= p).
        beta_up: Initial upper end of the search interval.
        initial_strategy_rows: Optional warm-start row choices for the first
            solve, typically ``result.strategy.rows`` of an adjacent parameter
            point over a structurally identical MDP.  Silently ignored when
            incompatible with ``mdp`` (wrong length or rows not belonging to
            their states) or when ``config.warm_start`` is false.
        initial_bias: Optional warm-start bias vector for the first solve
            (``result.final_bias`` of an adjacent point); ignored under the
            same conditions, and dropped (cold start) when its shape does not
            match ``mdp.num_states`` or it contains non-finite entries, so that
            vectors carried across structurally different sweep points can
            never crash an analysis mid-sweep.

    Returns:
        A :class:`FormalAnalysisResult` with the epsilon-tight lower bound, the
        extracted strategy and the full iteration log.

    Raises:
        SolverError: If ``config.evaluate_strategy`` is set and the extracted
            strategy's ERRev falls below ``beta_low - config.solver_tolerance``
            (the strategy does not witness the certified lower bound).
    """
    config = config or AnalysisConfig()
    if not 0.0 <= beta_low <= beta_up <= 1.0:
        raise ValueError(f"invalid initial interval [{beta_low}, {beta_up}]")

    start_time = time.perf_counter()
    iterations: List[BinarySearchIteration] = []
    warm_strategy: Optional[Strategy] = None
    warm_bias: Optional[np.ndarray] = None
    warm_evaluation: Optional[PolicyEvaluation] = None
    if config.warm_start:
        warm_strategy = _strategy_from_rows(mdp, initial_strategy_rows)
        warm_bias = _bias_from_vector(mdp, initial_bias)
    total_solver_iterations = 0

    while beta_up - beta_low >= config.epsilon:
        beta = 0.5 * (beta_low + beta_up)
        solve_start = time.perf_counter()
        solution = _solve(
            mdp, beta, config, warm_strategy, warm_bias, warm_evaluation, sign_only=True
        )
        solve_seconds = time.perf_counter() - solve_start
        if solution.gain < 0.0:
            beta_up = beta
        else:
            beta_low = beta
        iterations.append(
            BinarySearchIteration(
                beta=beta,
                optimal_mean_payoff=solution.gain,
                beta_low=beta_low,
                beta_up=beta_up,
                solve_seconds=solve_seconds,
                solver_iterations=solution.iterations,
                lower_bound=solution.lower_bound,
                upper_bound=solution.upper_bound,
            )
        )
        total_solver_iterations += solution.iterations
        if config.warm_start:
            warm_strategy = solution.strategy
            warm_bias = solution.bias
            warm_evaluation = solution.evaluation

    # Final solve at beta_low, to convergence, to extract the certified strategy.
    final_solution = _solve(mdp, beta_low, config, warm_strategy, warm_bias, warm_evaluation)
    total_solver_iterations += final_solution.iterations
    strategy = final_solution.strategy
    strategy_errev: Optional[float] = None
    if config.evaluate_strategy:
        # Value iteration evaluates no strategy; the chain is then solved here.
        gains = None if final_solution.evaluation is None else final_solution.evaluation.gains
        strategy_errev = evaluate_strategy_errev(mdp, strategy, gains)
        if strategy_errev < beta_low - config.solver_tolerance:
            raise SolverError(
                f"extracted strategy achieves ERRev {strategy_errev!r}, below the "
                f"certified lower bound {beta_low!r}"
            )

    return FormalAnalysisResult(
        errev_lower_bound=beta_low,
        beta_low=beta_low,
        beta_up=beta_up,
        epsilon=config.epsilon,
        strategy=strategy,
        strategy_errev=strategy_errev,
        iterations=iterations,
        total_seconds=time.perf_counter() - start_time,
        solver=config.solver,
        total_solver_iterations=total_solver_iterations,
        final_bias=final_solution.bias,
    )


def _bias_from_vector(mdp: MDP, bias) -> Optional[np.ndarray]:
    """Build a warm-start bias vector from caller input, or ``None`` if invalid.

    Like strategy rows, bias vectors carried across sweep grid points are
    advisory: anything that is not a finite 1-D float vector of length
    ``mdp.num_states`` (wrong length, ragged nested lists, NaNs from a failed
    donor solve) falls back to a cold start, logged at DEBUG, instead of
    crashing the analysis mid-sweep.
    """
    if bias is None:
        return None
    try:
        vector = np.asarray(bias, dtype=float)
    except (TypeError, ValueError):
        logger.debug("dropping warm-start bias: not a float vector")
        return None
    if vector.shape != (mdp.num_states,) or not np.all(np.isfinite(vector)):
        logger.debug(
            "dropping warm-start bias: shape %s or non-finite entries for %d states",
            vector.shape,
            mdp.num_states,
        )
        return None
    return vector


def _strategy_from_rows(mdp: MDP, rows: Optional[np.ndarray]) -> Optional[Strategy]:
    """Build a warm-start strategy from raw row choices, or ``None`` if invalid.

    Warm starts carried across sweep grid points are advisory: when the rows do
    not fit this MDP (e.g. the adjacent point has a different support signature
    and hence a different state space) they are dropped, logged at DEBUG.
    """
    if rows is None:
        return None
    rows = np.asarray(rows)
    if rows.shape != (mdp.num_states,):
        logger.debug(
            "dropping warm-start strategy: %s rows for %d states", rows.shape, mdp.num_states
        )
        return None
    try:
        return Strategy(mdp, rows)
    except (ModelError, IndexError) as exc:
        # IndexError: row indices out of range for this MDP (donor model had
        # the same state count but more action rows).
        logger.debug("dropping warm-start strategy: %s", exc)
        return None


def _solve(
    mdp: MDP,
    beta: float,
    config: AnalysisConfig,
    warm_start: Optional[Strategy],
    warm_start_bias: Optional[np.ndarray],
    warm_start_evaluation: Optional[PolicyEvaluation],
    *,
    sign_only: bool = False,
) -> MeanPayoffSolution:
    """Solve the mean-payoff MDP under ``r_beta`` with the configured backend."""
    return solve_mean_payoff(
        mdp,
        beta_reward_weights(beta),
        solver=config.solver,
        tolerance=config.solver_tolerance,
        max_iterations=config.max_solver_iterations,
        warm_start=warm_start,
        warm_start_bias=warm_start_bias,
        warm_start_evaluation=warm_start_evaluation,
        sign_only=sign_only,
    )
