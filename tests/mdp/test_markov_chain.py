"""Tests of induced Markov chains: stationary distributions, gain/bias, ratios."""

from __future__ import annotations

import logging
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.exceptions import ModelError, SolverError
from repro.mdp import (
    MDP,
    MDPBuilder,
    MarkovChain,
    PolicyEvaluation,
    Strategy,
    induced_markov_chain,
    policy_iteration,
)
from repro.mdp.policy_iteration import _greedy_improvement


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

    def test_stationary_distribution_of_multichain_raises(self):
        # Two absorbing states: the stationary system is singular.
        chain = MarkovChain(
            transition_matrix=sp.csr_matrix(np.eye(2)), expected_rewards=np.ones((2, 1))
        )
        with pytest.raises(SolverError):
            chain.stationary_distribution()

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


# ------------------------------------------------------------------ oracles


def _reference_induced_chain(mdp: MDP, strategy: Strategy) -> MarkovChain:
    """The induced chain assembled one state at a time (the oracle)."""
    n = mdp.num_states
    data: list = []
    indices: list = []
    indptr = [0]
    expected = np.zeros((n, mdp.num_reward_components))
    for state in range(n):
        row = int(strategy.rows[state])
        start, end = int(mdp.row_trans_offsets[row]), int(mdp.row_trans_offsets[row + 1])
        probs = mdp.trans_prob[start:end]
        data.extend(probs.tolist())
        indices.extend(mdp.trans_succ[start:end].tolist())
        indptr.append(len(data))
        expected[state] = probs @ mdp.trans_reward[start:end]
    matrix = sp.csr_matrix(
        (np.asarray(data), np.asarray(indices), np.asarray(indptr)), shape=(n, n)
    )
    matrix.sum_duplicates()
    return MarkovChain(transition_matrix=matrix, expected_rewards=expected)


@st.composite
def mdps_with_strategies(draw):
    """Small random MDPs plus one positional strategy.

    Successors are drawn with replacement, so rows repeat successors; rows
    may hold a single transition; state 0's first action is a pure self-loop,
    which leaves ``I - P`` a zero diagonal entry when the strategy picks it.
    """
    num_states = draw(st.integers(min_value=1, max_value=6))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=10_000)))
    builder = MDPBuilder(num_reward_components=2)
    builder.add_action(0, "loop", [(0, 1.0, (1.0, -0.5))])
    for state in range(num_states):
        for action in range(int(rng.integers(0 if state == 0 else 1, 4))):
            size = int(rng.integers(1, 5))
            weights = rng.random(size) + 1e-3
            transitions = [
                (int(succ), float(weight), tuple(rng.uniform(-2.0, 2.0, size=2)))
                for succ, weight in zip(rng.integers(0, num_states, size=size), weights / weights.sum())
            ]
            builder.add_action(state, f"a{action}", transitions)
    mdp = builder.build(initial_state=0)
    offsets = mdp.state_row_offsets
    rows = [draw(st.integers(int(offsets[s]), int(offsets[s + 1]) - 1)) for s in range(mdp.num_states)]
    return mdp, Strategy(mdp, np.asarray(rows))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=mdps_with_strategies())
def test_induced_chain_matches_per_state_reference(case):
    mdp, strategy = case
    chain = induced_markov_chain(mdp, strategy)
    reference = _reference_induced_chain(mdp, strategy)
    ours, theirs = chain.transition_matrix, reference.transition_matrix
    assert np.array_equal(ours.indptr, theirs.indptr)
    assert np.array_equal(ours.indices, theirs.indices)
    # The gather copies probabilities unchanged; only the reward sums may
    # accumulate in another order than the per-state dot product.
    assert np.array_equal(ours.data, theirs.data)
    assert np.allclose(chain.expected_rewards, reference.expected_rewards, rtol=0.0, atol=1e-12)
    chain.validate()


@st.composite
def unichain_chains(draw):
    """Random sparse unichain chains with a transient state and self-loops.

    Every row puts mass on state 0, so state 0 is in the one recurrent class;
    for ``n > 2`` no row enters one other state, the last one included, which
    is therefore transient.
    """
    num_states = draw(st.integers(min_value=2, max_value=8))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=10_000)))
    dense = rng.random((num_states, num_states)) * (rng.random((num_states, num_states)) < 0.4)
    if num_states > 2:
        dense[:, draw(st.integers(min_value=1, max_value=num_states - 1))] = 0.0
    dense[:, 0] += 0.25
    dense /= dense.sum(axis=1, keepdims=True)
    rewards = rng.uniform(-2.0, 2.0, size=(num_states, 2))
    chain = MarkovChain(transition_matrix=sp.csr_matrix(dense), expected_rewards=rewards)
    reference_state = draw(st.integers(min_value=1, max_value=num_states - 1))
    return chain, dense, reference_state


def _dense_stationary(dense: np.ndarray) -> np.ndarray:
    n = dense.shape[0]
    system = np.vstack([dense.T - np.eye(n), np.ones((1, n))])
    rhs = np.concatenate([np.zeros(n), [1.0]])
    return np.linalg.lstsq(system, rhs, rcond=None)[0]


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=unichain_chains())
def test_gain_and_bias_match_dense_solve(case):
    chain, dense, reference_state = case
    weights = [1.0, -0.3]
    gain, bias = chain.gain_and_bias(weights, reference_state=reference_state)
    n = dense.shape[0]
    rewards = chain.expected_rewards @ np.asarray(weights)
    bordered = np.zeros((n + 1, n + 1))
    bordered[:n, :n] = np.eye(n) - dense
    bordered[:n, n] = 1.0
    bordered[n, reference_state] = 1.0
    expected = np.linalg.solve(bordered, np.concatenate([rewards, [0.0]]))
    assert bias[reference_state] == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(bias, expected[:n], rtol=0.0, atol=1e-9)
    assert gain == pytest.approx(expected[n], abs=1e-9)
    assert gain == pytest.approx(_dense_stationary(dense) @ rewards, abs=1e-9)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=unichain_chains())
def test_stationary_distribution_matches_dense_solve(case):
    chain, dense, _ = case
    pi = chain.stationary_distribution()
    assert np.allclose(pi, _dense_stationary(dense), rtol=0.0, atol=1e-12)
    assert pi.sum() == pytest.approx(1.0)


# ------------------------------------------- two-column evaluation and bounds


def _beta_weights(beta: float) -> np.ndarray:
    return np.array([1.0 - beta, -beta])


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=unichain_chains(), beta=st.floats(min_value=0.0, max_value=1.0))
def test_two_column_evaluation_matches_weighted_solves(case, beta):
    chain, dense, reference_state = case
    n = dense.shape[0]
    weights = _beta_weights(beta)
    evaluation = chain.gain_and_bias(reference_state=reference_state)
    assert isinstance(evaluation, PolicyEvaluation)
    assert evaluation.gains.shape == (2,)
    assert evaluation.biases.shape == (n, 2)
    gain, bias = evaluation.weighted(weights)
    # The weights form is the same evaluation, combined.
    weighted_gain, weighted_bias = chain.gain_and_bias(weights, reference_state=reference_state)
    assert weighted_gain == gain
    assert np.array_equal(weighted_bias, bias)
    # One sparse solve with the weighted reward as its only column.
    bordered = np.zeros((n + 1, n + 1))
    bordered[:n, :n] = np.eye(n) - dense
    bordered[:n, n] = 1.0
    bordered[n, reference_state] = 1.0
    rhs = np.concatenate([chain.expected_rewards @ weights, [0.0]])
    single = spla.spsolve(sp.csc_matrix(bordered), rhs)
    dense_solution = np.linalg.solve(bordered, rhs)
    for expected in (single, dense_solution):
        assert np.allclose(bias, expected[:n], rtol=0.0, atol=1e-12)
        assert gain == pytest.approx(expected[n], abs=1e-12)


def _with_restart(mdp: MDP, restart: float = 0.1) -> MDP:
    """``mdp`` with every action jumping to state 0 with probability ``restart``.

    State 0 is then reached from every state under every strategy, so every
    strategy's chain has one recurrent class: the model is unichain.
    """
    builder = MDPBuilder(num_reward_components=mdp.num_reward_components)
    zero = np.zeros(mdp.num_reward_components)
    for state in range(mdp.num_states):
        builder.add_state(state)
    for row in range(mdp.num_rows):
        transitions = [
            (succ, (1.0 - restart) * prob, tuple(reward))
            for succ, prob, reward in mdp.transitions_of_row(row)
        ]
        transitions.append((0, restart, tuple(zero)))
        builder.add_action(int(mdp.row_state[row]), mdp.row_actions[row], transitions)
    return builder.build(initial_state=mdp.initial_state)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=mdps_with_strategies(), beta=st.floats(min_value=0.0, max_value=1.0))
def test_policy_gain_and_span_bound_bracket_the_optimum(case, beta):
    base, base_strategy = case
    mdp = _with_restart(base)
    strategy = Strategy(mdp, base_strategy.rows)
    weights = _beta_weights(beta)
    optimum = policy_iteration(mdp, weights)
    assert optimum.converged
    evaluation = induced_markov_chain(mdp, strategy).gain_and_bias(
        reference_state=mdp.initial_state
    )
    gain, bias = evaluation.weighted(weights)
    _, upper = _greedy_improvement(
        mdp, mdp.expected_row_rewards(weights), bias, strategy.rows, 1e-9
    )
    assert gain <= optimum.gain + 1e-9
    assert optimum.gain <= upper + 1e-9
    # A converged run's own bounds collapse onto its gain.
    assert optimum.gain <= optimum.upper_bound <= optimum.gain + 1e-8
    # A sign-only run stops on a proven sign, from the same strategy, with
    # bounds that still bracket the optimum and the same sign decision.
    for tolerance in (1e-9, 1e-3):
        stopped = policy_iteration(
            mdp, weights, tolerance=tolerance, initial_strategy=strategy, sign_only=True
        )
        assert stopped.gain <= optimum.gain + 1e-9
        assert optimum.gain <= stopped.upper_bound + 1e-9
        if not stopped.converged:
            assert stopped.gain >= tolerance or stopped.upper_bound <= -tolerance
            assert (stopped.gain < 0.0) == (optimum.gain < 0.0)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=mdps_with_strategies(), beta=st.floats(min_value=0.0, max_value=1.0))
def test_reused_evaluation_replaces_the_first_solve(case, beta):
    base, base_strategy = case
    mdp = _with_restart(base)
    strategy = Strategy(mdp, base_strategy.rows)
    weights = _beta_weights(beta)
    evaluation = induced_markov_chain(mdp, strategy).gain_and_bias(
        reference_state=mdp.initial_state
    )
    fresh = policy_iteration(mdp, weights, initial_strategy=strategy)
    reused = policy_iteration(
        mdp, weights, initial_strategy=strategy, initial_evaluation=evaluation
    )
    assert reused.iterations == fresh.iterations
    assert np.array_equal(reused.strategy.rows, fresh.strategy.rows)
    assert reused.gain == fresh.gain
