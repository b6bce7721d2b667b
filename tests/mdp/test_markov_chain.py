"""Tests of induced Markov chains: stationary distributions, gain/bias, ratios."""

from __future__ import annotations

import logging
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from repro.exceptions import ModelError
from repro.mdp import MDPBuilder, MarkovChain, Strategy, induced_markov_chain


def two_state_chain(p_stay: float = 0.5, rewards=((1.0,), (0.0,))) -> MarkovChain:
    """Simple two-state chain with symmetric switching probability."""
    matrix = sp.csr_matrix(
        np.array([[p_stay, 1.0 - p_stay], [1.0 - p_stay, p_stay]])
    )
    return MarkovChain(transition_matrix=matrix, expected_rewards=np.array(rewards))


class TestMarkovChain:
    def test_validate_accepts_stochastic_matrix(self):
        two_state_chain().validate()

    def test_validate_rejects_non_stochastic_matrix(self):
        matrix = sp.csr_matrix(np.array([[0.5, 0.4], [0.5, 0.5]]))
        chain = MarkovChain(transition_matrix=matrix, expected_rewards=np.zeros((2, 1)))
        with pytest.raises(ModelError):
            chain.validate()

    def test_stationary_distribution_symmetric_chain(self):
        pi = two_state_chain().stationary_distribution()
        assert np.allclose(pi, [0.5, 0.5])

    def test_stationary_distribution_asymmetric_chain(self):
        # Birth-death chain: P(0->1)=0.2, P(1->0)=0.4 => pi = (2/3, 1/3).
        matrix = sp.csr_matrix(np.array([[0.8, 0.2], [0.4, 0.6]]))
        chain = MarkovChain(transition_matrix=matrix, expected_rewards=np.zeros((2, 1)))
        assert np.allclose(chain.stationary_distribution(), [2 / 3, 1 / 3])

    def test_stationary_distribution_single_state(self):
        matrix = sp.csr_matrix(np.array([[1.0]]))
        chain = MarkovChain(transition_matrix=matrix, expected_rewards=np.ones((1, 1)))
        assert np.allclose(chain.stationary_distribution(), [1.0])

    def test_stationary_distribution_sums_to_one(self):
        rng = np.random.default_rng(3)
        raw = rng.random((5, 5)) + 0.01
        matrix = sp.csr_matrix(raw / raw.sum(axis=1, keepdims=True))
        chain = MarkovChain(transition_matrix=matrix, expected_rewards=np.zeros((5, 1)))
        assert chain.stationary_distribution().sum() == pytest.approx(1.0)

    def test_long_run_reward_vector(self):
        chain = two_state_chain(rewards=((1.0, 2.0), (3.0, 0.0)))
        averages = chain.long_run_reward()
        assert np.allclose(averages, [2.0, 1.0])

    def test_long_run_reward_weighted(self):
        chain = two_state_chain(rewards=((1.0,), (0.0,)))
        assert chain.long_run_reward([2.0])[0] == pytest.approx(1.0)

    def test_gain_and_bias_satisfy_poisson_equation(self):
        chain = two_state_chain(p_stay=0.7, rewards=((1.0,), (0.0,)))
        gain, bias = chain.gain_and_bias([1.0])
        rewards = chain.expected_rewards @ np.array([1.0])
        lhs = bias + gain
        rhs = rewards + chain.transition_matrix @ bias
        assert np.allclose(lhs, rhs, atol=1e-8)
        assert gain == pytest.approx(0.5)

    def test_gain_reference_state_bias_is_zero(self):
        chain = two_state_chain(p_stay=0.25)
        _, bias = chain.gain_and_bias([1.0], reference_state=1)
        assert bias[1] == pytest.approx(0.0, abs=1e-9)

    def test_lsqr_fallback_logged_at_debug(self, caplog):
        # Two absorbing states: the bordered Poisson system is singular, so the
        # direct solve fails and the least-squares fallback takes over.
        chain = MarkovChain(
            transition_matrix=sp.csr_matrix(np.eye(2)), expected_rewards=np.ones((2, 1))
        )
        with caplog.at_level(logging.DEBUG, logger="repro"), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            gain, _ = chain.gain_and_bias([1.0])
        assert gain == pytest.approx(1.0)
        records = [r for r in caplog.records if r.name == "repro.mdp.markov_chain"]
        assert len(records) == 1
        assert records[0].levelno == logging.DEBUG
        assert "lsqr" in records[0].getMessage()

    def test_occupancy_ratio(self):
        chain = two_state_chain(rewards=((1.0, 0.0), (0.0, 1.0)))
        ratio = chain.occupancy_ratio([1.0, 0.0], [1.0, 1.0])
        assert ratio == pytest.approx(0.5)

    def test_occupancy_ratio_zero_denominator_raises(self):
        chain = two_state_chain(rewards=((0.0, 0.0), (0.0, 0.0)))
        from repro.exceptions import SolverError

        with pytest.raises(SolverError):
            chain.occupancy_ratio([1.0, 0.0], [1.0, 1.0])


class TestInducedChain:
    @pytest.fixture()
    def mdp(self):
        builder = MDPBuilder()
        builder.add_action("a", "stay", [("a", 0.5, (1.0,)), ("b", 0.5, (0.0,))])
        builder.add_action("a", "jump", [("b", 1.0, (0.0,))])
        builder.add_action("b", "back", [("a", 1.0, (2.0,))])
        return builder.build(initial_state="a")

    def test_induced_chain_shape(self, mdp):
        chain = induced_markov_chain(mdp, Strategy.first_action(mdp))
        assert chain.num_states == 2
        chain.validate()

    def test_induced_chain_respects_strategy(self, mdp):
        strategy = Strategy.from_action_map(mdp, {"a": "jump"})
        chain = induced_markov_chain(mdp, strategy)
        row = chain.transition_matrix.getrow(mdp.state_of_label("a")).toarray().ravel()
        assert row[mdp.state_of_label("b")] == pytest.approx(1.0)

    def test_induced_chain_expected_rewards(self, mdp):
        chain = induced_markov_chain(mdp, Strategy.first_action(mdp))
        state_a = mdp.state_of_label("a")
        assert chain.expected_rewards[state_a, 0] == pytest.approx(0.5)

    def test_strategy_of_other_mdp_rejected(self, mdp):
        builder = MDPBuilder()
        builder.add_action("x", "loop", [("x", 1.0, (0.0,))])
        other = builder.build(initial_state="x")
        with pytest.raises(ModelError):
            induced_markov_chain(mdp, Strategy.first_action(other))

    def test_long_run_reward_of_alternating_strategy(self, mdp):
        strategy = Strategy.from_action_map(mdp, {"a": "jump", "b": "back"})
        chain = induced_markov_chain(mdp, strategy)
        # Deterministic 2-cycle alternating rewards 0 and 2 -> average 1.
        assert chain.long_run_reward([1.0])[0] == pytest.approx(1.0)
