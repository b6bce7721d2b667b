"""Markov chains induced by fixing a positional strategy in an MDP.

The formal analysis needs two quantities of the induced chain: the stationary
distribution (to evaluate the exact expected relative revenue of a strategy)
and the gain/bias pair of every reward component (for policy evaluation inside
Howard policy iteration, reused across reward weights).  Both are computed with
sparse linear algebra.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ..exceptions import ModelError, SolverError
from .model import MDP
from .strategy import Strategy

logger = logging.getLogger(__name__)


class PolicyEvaluation(NamedTuple):
    """Per-component gains and biases of one chain's Poisson equation.

    The Poisson equation is linear in the reward, so the gain and bias of a
    weighted reward ``R @ w`` are ``gains @ w`` and ``biases @ w``: one
    evaluation of a strategy serves every weight vector, e.g. every ``beta``
    of Algorithm 1's ``r_beta = (1 - beta) r_A - beta r_H``.

    Attributes:
        gains: ``(k,)`` long-run average of each reward component.
        biases: ``(n, k)`` bias vector of each reward component.
    """

    gains: np.ndarray
    biases: np.ndarray

    def weighted(self, weights: Sequence[float]) -> Tuple[float, np.ndarray]:
        """Gain and bias of the reward ``R @ weights``."""
        vector = np.asarray(weights, dtype=float)
        return float(self.gains @ vector), self.biases @ vector


@dataclass
class MarkovChain:
    """A finite Markov chain with per-transition reward vectors.

    Attributes:
        transition_matrix: Sparse ``(n, n)`` row-stochastic matrix.
        expected_rewards: Dense ``(n, k)`` matrix of expected one-step reward
            vectors per state.
        initial_state: Index of the initial state.
    """

    transition_matrix: sp.csr_matrix
    expected_rewards: np.ndarray
    initial_state: int = 0

    @property
    def num_states(self) -> int:
        """Number of states of the chain."""
        return self.transition_matrix.shape[0]

    # ----------------------------------------------------------------- analysis

    def validate(self, tolerance: float = 1e-8) -> None:
        """Check that every row of the transition matrix sums to one."""
        sums = np.asarray(self.transition_matrix.sum(axis=1)).ravel()
        if not np.allclose(sums, 1.0, atol=tolerance):
            worst = int(np.argmax(np.abs(sums - 1.0)))
            raise ModelError(
                f"row {worst} of the Markov chain sums to {sums[worst]}, expected 1"
            )

    def stationary_distribution(self, tolerance: float = 1e-12) -> np.ndarray:
        """Compute a stationary distribution ``pi`` with ``pi P = pi``.

        The chain is assumed to be unichain (a single recurrent class, possibly
        plus transient states), which holds for every strategy of the paper's
        selfish-mining MDP.  The linear system ``(P^T - I) pi = 0`` with the
        normalisation ``sum(pi) = 1`` is solved directly; for unichain models the
        solution is unique.

        Raises:
            SolverError: If the linear solve fails (a multichain chain makes
                the system singular) or produces an invalid distribution.
        """
        n = self.num_states
        if n == 1:
            return np.ones(1)
        # (P^T - I) with its last equation replaced by the normalisation, built
        # straight in CSC: column s of P^T is row s of P.
        transitions = self.transition_matrix
        sources = np.repeat(np.arange(n), np.diff(transitions.indptr))
        keep = transitions.indices != n - 1
        diagonal = np.arange(n - 1)
        rows = np.concatenate([transitions.indices[keep], diagonal, np.full(n, n - 1)])
        cols = np.concatenate([sources[keep], diagonal, np.arange(n)])
        data = np.concatenate([transitions.data[keep], np.full(n - 1, -1.0), np.ones(n)])
        matrix = sp.csc_matrix((data, (rows, cols)), shape=(n, n))
        matrix.eliminate_zeros()
        rhs = np.zeros(n)
        rhs[n - 1] = 1.0
        try:
            # P^T - I is column diagonally dominant, so pivoting on the
            # diagonal is stable; partial pivoting would instead pick the
            # dense normalisation row in some early column and fill the factor.
            pi = spla.splu(matrix, diag_pivot_thresh=0.0).solve(rhs)
        except Exception as exc:
            raise SolverError(f"stationary distribution solve failed: {exc}") from exc
        pi = np.asarray(pi, dtype=float)
        pi[np.abs(pi) < tolerance] = 0.0
        if np.any(pi < -1e-6):
            raise SolverError("stationary distribution has negative entries; chain may be multichain")
        pi = np.clip(pi, 0.0, None)
        total = pi.sum()
        if total <= 0:
            raise SolverError("stationary distribution sums to zero")
        return pi / total

    def long_run_reward(self, weights: Optional[Sequence[float]] = None) -> np.ndarray:
        """Return the long-run average reward vector (or scalar if weighted).

        Args:
            weights: Optional reward-component weights.  If omitted, the full
                vector of per-component long-run averages is returned.
        """
        pi = self.stationary_distribution()
        averages = pi @ self.expected_rewards
        if weights is None:
            return averages
        return np.asarray([float(averages @ np.asarray(weights, dtype=float))])

    def gain_and_bias(
        self, weights: Optional[Sequence[float]] = None, reference_state: int = 0
    ) -> Union[PolicyEvaluation, Tuple[float, np.ndarray]]:
        """Solve the unichain Poisson equation ``h + g = r + P h``, ``h[ref] = 0``.

        The bordered system is factored once and solved for every reward
        component at once (one right-hand-side column each).

        Args:
            weights: Optional reward-component weights.  If omitted, every
                component is evaluated separately.
            reference_state: The state whose bias is pinned to zero.

        Returns:
            Without ``weights``: a :class:`PolicyEvaluation` with the ``(k,)``
            per-component gains and ``(n, k)`` biases.  With ``weights``: the
            scalar gain and the bias vector of the weighted reward.
        """
        n = self.num_states
        components = self.expected_rewards.shape[1]
        # Bordered system [[I - P, 1], [e_ref, 0]] [h; g] = [r; 0]: one equation
        # h[s] - sum_t P[s,t] h[t] + g = r[s] per state, plus h[ref] = 0.
        transitions = self.transition_matrix
        states = np.arange(n)
        sources = np.repeat(states, np.diff(transitions.indptr))
        rows = np.concatenate([states, sources, states, [n]])
        cols = np.concatenate([states, transitions.indices, np.full(n, n), [reference_state]])
        data = np.concatenate([np.ones(n), -transitions.data, np.ones(n), [1.0]])
        full = sp.csc_matrix((data, (rows, cols)), shape=(n + 1, n + 1))
        full.eliminate_zeros()
        rhs = np.vstack([self.expected_rewards, np.zeros((1, components))])
        try:
            solution = np.reshape(spla.spsolve(full, rhs), (n + 1, components))
            if not np.all(np.isfinite(solution)):
                raise SolverError("singular Poisson system")
        except Exception as exc:
            # Unichain models with transient structure can make the square system
            # ill-conditioned; fall back to a least-squares solve per column.
            logger.debug("Poisson system of %d states: %s; falling back to lsqr", n, exc)
            try:
                solution = np.column_stack(
                    [spla.lsqr(full, column, atol=1e-12, btol=1e-12)[0] for column in rhs.T]
                )
            except Exception as exc:  # pragma: no cover - scipy failure path
                raise SolverError(f"gain/bias solve failed: {exc}") from exc
        evaluation = PolicyEvaluation(gains=solution[n].copy(), biases=solution[:n])
        if weights is None:
            return evaluation
        return evaluation.weighted(weights)

    def occupancy_ratio(self, numerator_weights: Sequence[float], denominator_weights: Sequence[float]) -> float:
        """Return the ratio of two long-run average rewards.

        This is the quantity the paper calls the expected relative revenue when
        the numerator counts adversarial blocks and the denominator all blocks.

        Raises:
            SolverError: If the denominator's long-run average is not positive.
        """
        averages = self.long_run_reward()
        numerator = float(averages @ np.asarray(numerator_weights, dtype=float))
        denominator = float(averages @ np.asarray(denominator_weights, dtype=float))
        if denominator <= 0:
            raise SolverError(
                f"long-run denominator reward is {denominator}; ratio objective undefined"
            )
        return numerator / denominator


def induced_markov_chain(mdp: MDP, strategy: Strategy) -> MarkovChain:
    """Build the Markov chain obtained by fixing ``strategy`` in ``mdp``."""
    if strategy.mdp is not mdp:
        raise ModelError("strategy does not belong to this MDP")
    n = mdp.num_states
    # Gather the chosen rows' transition slices into one CSR layout.
    starts = mdp.row_trans_offsets[strategy.rows]
    counts = mdp.row_trans_offsets[strategy.rows + 1] - starts
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    gather = np.repeat(starts - indptr[:-1], counts) + np.arange(indptr[-1])
    # ``take`` rather than fancy indexing: several times faster on 2-D arrays.
    probs = mdp.trans_prob.take(gather)
    rewards = mdp.trans_reward.take(gather, axis=0)
    expected = np.add.reduceat(probs[:, None] * rewards, indptr[:-1], axis=0)
    matrix = sp.csr_matrix((probs, mdp.trans_succ.take(gather), indptr), shape=(n, n))
    # Merge duplicate successor columns within a row (e.g. several capped forks).
    matrix.sum_duplicates()
    return MarkovChain(
        transition_matrix=matrix,
        expected_rewards=expected,
        initial_state=mdp.initial_state,
    )
