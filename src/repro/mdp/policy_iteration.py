"""Howard policy iteration for unichain mean-payoff MDPs.

Each iteration evaluates the current positional strategy exactly (gain / bias via
a sparse linear solve on the induced Markov chain) and then improves it greedily.
For unichain models the procedure terminates after finitely many iterations with
an optimal positional strategy and the exact optimal gain, which makes it the
default solver of the formal analysis.

Every round also brackets the optimal gain ``g*`` (Puterman 1994, Section
8.5.5): the evaluated strategy's gain ``g_pi`` is a lower bound, and for its
bias ``h`` the span bound ``max_s [(T h)(s) - h(s)]`` is an upper bound, where
``T`` is the Bellman operator the improvement step already applies.  A caller
that needs only the sign of ``g*`` can stop as soon as the bracket excludes 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from ..exceptions import ConvergenceError
from .markov_chain import PolicyEvaluation, induced_markov_chain
from .model import MDP
from .strategy import Strategy


@dataclass
class PolicyIterationResult:
    """Result of Howard policy iteration.

    Attributes:
        gain: Gain of ``strategy``: the optimal mean payoff (exact up to
            linear-algebra accuracy) when ``converged``, otherwise a lower
            bound on it.
        upper_bound: Span bound ``max_s [(T h)(s) - h(s)]`` on the optimal
            mean payoff, for the bias ``h`` of ``strategy``.
        bias: Bias (relative value) vector of ``strategy``.
        strategy: The last strategy evaluated (optimal when ``converged``).
        evaluation: Per-component gains and biases of ``strategy``, reusable
            for any other reward weights.
        iterations: Number of policy-improvement rounds performed.
        converged: Whether a fixed point was reached (false after a sign stop).
    """

    gain: float
    upper_bound: float
    bias: np.ndarray
    strategy: Strategy
    evaluation: PolicyEvaluation
    iterations: int
    converged: bool


def _greedy_improvement(
    mdp: MDP, row_rewards: np.ndarray, bias: np.ndarray, current_rows: np.ndarray, tolerance: float,
) -> Tuple[np.ndarray, float]:
    """Return improved row choices and the span bound ``max_s [(T h)(s) - h(s)]``.

    Ties are broken in favour of the incumbent.
    """
    continuation = mdp.trans_prob * bias[mdp.trans_succ]
    row_values = row_rewards + np.add.reduceat(continuation, mdp.row_trans_offsets[:-1])
    state_best = np.maximum.reduceat(row_values, mdp.state_row_offsets[:-1])
    upper_bound = float(np.max(state_best - bias))
    new_rows = current_rows.copy()
    current_values = row_values[current_rows]
    # Only switch when the improvement is strictly larger than the tolerance;
    # this is the standard rule that guarantees termination of policy iteration.
    improvable = state_best > current_values + tolerance
    if not np.any(improvable):
        return new_rows, upper_bound
    is_best = row_values >= state_best[mdp.row_state] - 1e-12
    row_indices = np.arange(mdp.num_rows)
    candidate_rows = row_indices[is_best]
    candidate_states = mdp.row_state[is_best]
    best_rows = np.full(mdp.num_states, -1, dtype=np.int64)
    best_rows[candidate_states[::-1]] = candidate_rows[::-1]
    new_rows[improvable] = best_rows[improvable]
    return new_rows, upper_bound


def policy_iteration(
    mdp: MDP,
    reward_weights: Sequence[float],
    *,
    tolerance: float = 1e-9,
    max_iterations: int = 1_000,
    initial_strategy: Optional[Strategy] = None,
    initial_evaluation: Optional[PolicyEvaluation] = None,
    sign_only: bool = False,
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
        initial_evaluation: The evaluation of ``initial_strategy`` (e.g. a
            previous result's ``evaluation``); the first round then reuses it
            instead of assembling and solving the induced chain.  Ignored
            without ``initial_strategy``.
        sign_only: Stop as soon as a round proves the sign of the optimal
            gain: ``gain >= tolerance`` (so ``g* > 0``) or
            ``upper_bound <= -tolerance`` (so ``g* < 0``).  The result then
            holds the strategy just evaluated, with ``converged=False``.

    Raises:
        ConvergenceError: If no fixed point is reached within the budget.
    """
    row_rewards = mdp.expected_row_rewards(reward_weights)
    strategy = initial_strategy if initial_strategy is not None else Strategy.first_action(mdp)
    evaluation = initial_evaluation if initial_strategy is not None else None
    rows = strategy.rows.copy()

    for iterations in range(1, max_iterations + 1):
        if evaluation is None:
            chain = induced_markov_chain(mdp, Strategy(mdp, rows))
            evaluation = chain.gain_and_bias(reference_state=mdp.initial_state)
        gain, bias = evaluation.weighted(reward_weights)
        new_rows, upper_bound = _greedy_improvement(mdp, row_rewards, bias, rows, tolerance)
        converged = bool(np.array_equal(new_rows, rows))
        if converged or (sign_only and (gain >= tolerance or upper_bound <= -tolerance)):
            break
        rows = new_rows
        evaluation = None
    else:
        raise ConvergenceError(
            f"policy iteration did not converge within {max_iterations} iterations"
        )
    return PolicyIterationResult(
        gain=gain,
        # g_pi <= g* <= upper_bound; the max only absorbs round-off in h.
        upper_bound=max(upper_bound, gain),
        bias=bias,
        strategy=Strategy(mdp, rows),
        evaluation=evaluation,
        iterations=iterations,
        converged=converged,
    )
