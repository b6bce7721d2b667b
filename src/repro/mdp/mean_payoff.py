"""Unified front-end for the mean-payoff solvers.

Algorithm 1 only needs a single entry point that, given an MDP and reward
weights, returns the optimal gain together with an optimal (or epsilon-optimal)
strategy.  :func:`solve_mean_payoff` dispatches to the configured backend and
normalises the result into a :class:`MeanPayoffSolution`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..exceptions import SolverError
from .linear_program import solve_mean_payoff_lp
from .markov_chain import PolicyEvaluation
from .model import MDP
from .policy_iteration import policy_iteration
from .strategy import Strategy
from .value_iteration import relative_value_iteration

#: Names of the available solver backends.
SOLVER_BACKENDS = ("policy_iteration", "value_iteration", "linear_program")


@dataclass
class MeanPayoffSolution:
    """Solver-independent mean-payoff result.

    Attributes:
        gain: Best estimate of the optimal mean payoff; after a sign-only
            solve, possibly just an estimate whose sign is proven.
        lower_bound: Lower bound on the optimal gain: the gain of the last
            evaluated strategy (policy iteration), the minimal Bellman
            residual (value iteration) or ``gain - tolerance`` (LP).
        upper_bound: Upper bound on the optimal gain: the span bound
            ``max_s [(T h)(s) - h(s)]`` (policy and value iteration) or
            ``gain + tolerance`` (LP).
        strategy: Optimal (or epsilon-optimal) positional strategy; after a
            sign-only solve, the last strategy the backend considered.
        bias: Bias vector associated with the solution.
        solver: Name of the backend that produced the result.
        iterations: Iterations used by the backend (0 for the LP).
        evaluation: Per-component gains and biases of ``strategy`` when the
            backend evaluated it (policy iteration and the LP's refinement);
            ``None`` for value iteration, which evaluates no strategy.
    """

    gain: float
    lower_bound: float
    upper_bound: float
    strategy: Strategy
    bias: np.ndarray
    solver: str
    iterations: int
    evaluation: Optional[PolicyEvaluation] = None


def solve_mean_payoff(
    mdp: MDP,
    reward_weights: Sequence[float],
    *,
    solver: str = "policy_iteration",
    tolerance: float = 1e-9,
    max_iterations: int = 100_000,
    warm_start: Optional[Strategy] = None,
    warm_start_bias: Optional[np.ndarray] = None,
    warm_start_evaluation: Optional[PolicyEvaluation] = None,
    sign_only: bool = False,
) -> MeanPayoffSolution:
    """Compute the optimal mean payoff and an optimal strategy.

    Args:
        mdp: The model to solve (assumed unichain under every strategy, which
            holds for the paper's selfish-mining MDP).
        reward_weights: Weights combining the model's reward components.
        solver: One of ``"policy_iteration"`` (default; exact), ``"value_iteration"``
            (certified bounds) or ``"linear_program"`` (independent cross-check).
        tolerance: Numerical tolerance of the backend.
        max_iterations: Iteration budget of the backend.
        warm_start: Optional strategy to warm-start iterative backends with
            (used by policy iteration as the initial policy).
        warm_start_bias: Optional bias vector to warm-start value iteration with
            (e.g. the bias of the previous binary-search iterate); silently
            ignored when its shape does not match ``mdp.num_states`` so that
            callers can pass vectors carried across structurally different
            models without checking.
        warm_start_evaluation: Optional evaluation of ``warm_start`` (the
            ``evaluation`` of the solution it came from); policy iteration then
            skips its first policy evaluation.
        sign_only: Stop policy or value iteration as soon as its bounds prove
            the sign of the optimal gain (``lower_bound >= tolerance`` or
            ``upper_bound <= -tolerance``).  The sign of ``gain`` is then the
            sign a converged solve reports, but ``gain`` itself need not be
            optimal.  The LP always solves to optimality.

    Raises:
        SolverError: If ``solver`` is not a known backend.
    """
    if warm_start_bias is not None:
        warm_start_bias = np.asarray(warm_start_bias, dtype=float)
        if warm_start_bias.shape != (mdp.num_states,):
            warm_start_bias = None
    if solver == "policy_iteration":
        result = policy_iteration(
            mdp,
            reward_weights,
            tolerance=tolerance,
            max_iterations=max(100, min(max_iterations, 10_000)),
            initial_strategy=warm_start,
            initial_evaluation=warm_start_evaluation,
            sign_only=sign_only,
        )
        return MeanPayoffSolution(
            gain=result.gain,
            lower_bound=result.gain,
            upper_bound=result.upper_bound,
            strategy=result.strategy,
            bias=result.bias,
            solver=solver,
            iterations=result.iterations,
            evaluation=result.evaluation,
        )
    if solver == "value_iteration":
        result = relative_value_iteration(
            mdp,
            reward_weights,
            tolerance=tolerance,
            max_iterations=max_iterations,
            initial_bias=warm_start_bias,
            sign_only=sign_only,
        )
        return MeanPayoffSolution(
            gain=result.gain,
            lower_bound=result.lower_bound,
            upper_bound=result.upper_bound,
            strategy=result.strategy,
            bias=result.bias,
            solver=solver,
            iterations=result.iterations,
        )
    if solver == "linear_program":
        result = solve_mean_payoff_lp(mdp, reward_weights)
        # The LP's optimal value is the optimal gain, but the bias of an optimal
        # basic solution is not unique, so a greedy strategy extracted from it
        # can be sub-optimal.  A policy-iteration refinement warm-started from
        # the LP strategy fixes the strategy without changing the (LP) value.
        refinement = policy_iteration(
            mdp,
            reward_weights,
            tolerance=tolerance,
            max_iterations=1_000,
            initial_strategy=result.strategy,
        )
        return MeanPayoffSolution(
            gain=result.gain,
            lower_bound=result.gain - tolerance,
            upper_bound=result.gain + tolerance,
            strategy=refinement.strategy,
            bias=result.bias,
            solver=solver,
            iterations=refinement.iterations,
            evaluation=refinement.evaluation,
        )
    raise SolverError(f"unknown mean-payoff solver {solver!r}; choose from {SOLVER_BACKENDS}")

