"""Markov chains induced by fixing a positional strategy in an MDP.

The formal analysis needs two quantities of the induced chain: the stationary
distribution (to evaluate the exact expected relative revenue of a strategy)
and the gain/bias pair (for policy evaluation inside Howard policy iteration).
Both are computed with sparse linear algebra.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ..exceptions import ModelError, SolverError
from .model import MDP
from .strategy import Strategy

logger = logging.getLogger(__name__)


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
            SolverError: If the linear solve fails or produces an invalid
                distribution.
        """
        n = self.num_states
        if n == 1:
            return np.ones(1)
        # Build (P^T - I) and replace the last equation with the normalisation.
        matrix = (self.transition_matrix.T - sp.identity(n, format="csr")).tolil()
        matrix[n - 1, :] = np.ones(n)
        rhs = np.zeros(n)
        rhs[n - 1] = 1.0
        try:
            pi = spla.spsolve(matrix.tocsc(), rhs)
        except Exception as exc:  # pragma: no cover - scipy failure path
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
        self, weights: Sequence[float], reference_state: int = 0
    ) -> Tuple[float, np.ndarray]:
        """Solve the unichain Poisson equation ``h + g = r + P h``, ``h[ref] = 0``.

        Returns:
            The scalar gain ``g`` and the bias vector ``h``.
        """
        n = self.num_states
        rewards = self.expected_rewards @ np.asarray(weights, dtype=float)
        # Unknowns: h[0..n-1] with h[reference_state] eliminated, plus g.
        # Equation per state s: h[s] - sum_t P[s,t] h[t] + g = r[s].
        identity = sp.identity(n, format="csr")
        a_matrix = (identity - self.transition_matrix).tolil()
        # Append the gain column and the normalisation h[ref] = 0.
        gain_column = np.ones((n, 1))
        top = sp.hstack([a_matrix.tocsr(), sp.csr_matrix(gain_column)], format="csr")
        normalisation = sp.lil_matrix((1, n + 1))
        normalisation[0, reference_state] = 1.0
        full = sp.vstack([top, normalisation.tocsr()], format="csc")
        rhs = np.concatenate([rewards, [0.0]])
        try:
            solution = spla.spsolve(full, rhs)
            if not np.all(np.isfinite(solution)):
                raise SolverError("singular Poisson system")
        except Exception as exc:
            # Unichain models with transient structure can make the square system
            # ill-conditioned; fall back to a least-squares solve.
            logger.debug("Poisson system of %d states: %s; falling back to lsqr", n, exc)
            try:
                solution = spla.lsqr(full, rhs, atol=1e-12, btol=1e-12)[0]
            except Exception as exc:  # pragma: no cover - scipy failure path
                raise SolverError(f"gain/bias solve failed: {exc}") from exc
        h = np.asarray(solution[:n], dtype=float)
        g = float(solution[n])
        return g, h

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
    rows = strategy.rows
    n = mdp.num_states
    data: list = []
    indices: list = []
    indptr = [0]
    expected = np.zeros((n, mdp.num_reward_components))
    for state in range(n):
        row = int(rows[state])
        start, end = int(mdp.row_trans_offsets[row]), int(mdp.row_trans_offsets[row + 1])
        probs = mdp.trans_prob[start:end]
        succs = mdp.trans_succ[start:end]
        rewards = mdp.trans_reward[start:end]
        data.extend(probs.tolist())
        indices.extend(succs.tolist())
        indptr.append(len(data))
        expected[state] = probs @ rewards
    matrix = sp.csr_matrix((np.asarray(data), np.asarray(indices), np.asarray(indptr)), shape=(n, n))
    # Merge duplicate successor columns within a row (e.g. several capped forks).
    matrix.sum_duplicates()
    return MarkovChain(
        transition_matrix=matrix,
        expected_rewards=expected,
        initial_state=mdp.initial_state,
    )
