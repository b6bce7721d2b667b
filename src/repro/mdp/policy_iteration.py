"""Howard policy iteration for unichain mean-payoff MDPs.

Each iteration evaluates the current positional strategy exactly (gain / bias via
a sparse linear solve on the induced Markov chain) and then improves it greedily.
For unichain models the procedure terminates after finitely many iterations with
an optimal positional strategy and the exact optimal gain, which makes it the
default solver of the formal analysis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..exceptions import ConvergenceError
from .markov_chain import induced_markov_chain
from .model import MDP
from .strategy import Strategy


@dataclass
class PolicyIterationResult:
    """Result of Howard policy iteration.

    Attributes:
        gain: Optimal mean payoff (exact up to linear-algebra accuracy).
        bias: Bias (relative value) vector of the optimal strategy.
        strategy: The optimal positional strategy found.
        iterations: Number of policy-improvement rounds performed.
        converged: Whether a fixed point was reached within the budget.
    """

    gain: float
    bias: np.ndarray
    strategy: Strategy
    iterations: int
    converged: bool


def _greedy_improvement(
    mdp: MDP, row_rewards: np.ndarray, bias: np.ndarray, current_rows: np.ndarray, tolerance: float,
) -> np.ndarray:
    """Return improved row choices; ties are broken in favour of the incumbent."""
    continuation = mdp.trans_prob * bias[mdp.trans_succ]
    row_values = row_rewards + np.add.reduceat(continuation, mdp.row_trans_offsets[:-1])
    state_best = np.maximum.reduceat(row_values, mdp.state_row_offsets[:-1])
    new_rows = current_rows.copy()
    current_values = row_values[current_rows]
    # Only switch when the improvement is strictly larger than the tolerance;
    # this is the standard rule that guarantees termination of policy iteration.
    improvable = state_best > current_values + tolerance
    if not np.any(improvable):
        return new_rows
    is_best = row_values >= state_best[mdp.row_state] - 1e-12
    row_indices = np.arange(mdp.num_rows)
    candidate_rows = row_indices[is_best]
    candidate_states = mdp.row_state[is_best]
    best_rows = np.full(mdp.num_states, -1, dtype=np.int64)
    best_rows[candidate_states[::-1]] = candidate_rows[::-1]
    new_rows[improvable] = best_rows[improvable]
    return new_rows


def policy_iteration(
    mdp: MDP,
    reward_weights: Sequence[float],
    *,
    tolerance: float = 1e-9,
    max_iterations: int = 1_000,
    initial_strategy: Optional[Strategy] = None,
) -> PolicyIterationResult:
    """Solve the mean-payoff MDP with Howard policy iteration.

    Args:
        mdp: The model to solve (assumed unichain under every strategy).
        reward_weights: Weights combining reward components into the scalar
            reward being maximised.
        tolerance: Improvement threshold below which actions are not switched.
        max_iterations: Maximum number of improvement rounds.
        initial_strategy: Optional warm start (e.g. the previous binary-search
            iterate); defaults to the first-action strategy.

    Raises:
        ConvergenceError: If no fixed point is reached within the budget.
    """
    row_rewards = mdp.expected_row_rewards(reward_weights)
    strategy = initial_strategy if initial_strategy is not None else Strategy.first_action(mdp)
    rows = strategy.rows.copy()
    gain = 0.0
    bias = np.zeros(mdp.num_states)
    converged = False
    iterations = 0

    for iterations in range(1, max_iterations + 1):
        chain = induced_markov_chain(mdp, Strategy(mdp, rows))
        gain, bias = chain.gain_and_bias(reward_weights, reference_state=mdp.initial_state)
        new_rows = _greedy_improvement(mdp, row_rewards, bias, rows, tolerance)
        if np.array_equal(new_rows, rows):
            converged = True
            break
        rows = new_rows

    if not converged:
        raise ConvergenceError(
            f"policy iteration did not converge within {max_iterations} iterations"
        )
    return PolicyIterationResult(
        gain=float(gain),
        bias=bias,
        strategy=Strategy(mdp, rows),
        iterations=iterations,
        converged=converged,
    )

