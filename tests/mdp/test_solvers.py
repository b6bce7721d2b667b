"""Tests of the mean-payoff solvers on MDPs with known optimal values."""

from __future__ import annotations

import pytest

from repro.analysis.rewards import beta_reward_weights
from repro.exceptions import ConvergenceError, SolverError
from repro.mdp import (
    SOLVER_BACKENDS,
    MDPBuilder,
    MarkovChain,
    discounted_value_iteration,
    induced_markov_chain,
    policy_iteration,
    relative_value_iteration,
    solve_mean_payoff,
    solve_mean_payoff_lp,
)


def single_state_mdp(reward: float = 3.0):
    builder = MDPBuilder()
    builder.add_action("s", "loop", [("s", 1.0, (reward,))])
    return builder.build(initial_state="s")


def choice_mdp():
    """One decision state with a good loop (reward 2) and a bad loop (reward 1)."""
    builder = MDPBuilder()
    builder.add_action("s", "good", [("s", 1.0, (2.0,))])
    builder.add_action("s", "bad", [("s", 1.0, (1.0,))])
    return builder.build(initial_state="s")


def cycle_mdp():
    """A two-state cycle where one action choice doubles the reward on the way back.

    Optimal mean payoff: alternate 0 and 4 -> 2.0.
    """
    builder = MDPBuilder()
    builder.add_action("a", "go", [("b", 1.0, (0.0,))])
    builder.add_action("b", "cheap", [("a", 1.0, (2.0,))])
    builder.add_action("b", "rich", [("a", 1.0, (4.0,))])
    return builder.build(initial_state="a")


def stochastic_mdp():
    """A stochastic MDP whose optimal gain is computable by hand.

    In state "a": action "safe" loops with reward 1; action "risky" moves to "b"
    (reward 0) from which the chain returns with reward 3.  Risky alternates
    rewards 0 and 3 -> mean 1.5 > 1, so "risky" is optimal.
    """
    builder = MDPBuilder()
    builder.add_action("a", "safe", [("a", 1.0, (1.0,))])
    builder.add_action("a", "risky", [("b", 1.0, (0.0,))])
    builder.add_action("b", "return", [("a", 1.0, (3.0,))])
    return builder.build(initial_state="a")


def race_mdp():
    """A two-component ``(r_A, r_H)`` model with a known optimal ERRev of 2/3.

    In state "s": "honest" loops with rewards (0.3, 0.7) -- relative revenue
    0.3; "withhold" moves to "t" (no blocks) from which "publish" returns with
    rewards (1.0, 0.5) -- relative revenue 2/3.  Under ``r_beta`` the optimal
    gain is ``max(0.3 - beta, (1 - 1.5 * beta) / 2)``, which crosses zero at
    ``beta = 2/3``, the optimal ERRev (Theorem 3.1).
    """
    builder = MDPBuilder(num_reward_components=2)
    builder.add_action("s", "honest", [("s", 1.0, (0.3, 0.7))])
    builder.add_action("s", "withhold", [("t", 1.0, (0.0, 0.0))])
    builder.add_action("t", "publish", [("s", 1.0, (1.0, 0.5))])
    return builder.build(initial_state="s")


def race_gain(beta: float) -> float:
    """Closed-form optimal gain of :func:`race_mdp` under ``r_beta``."""
    return max(0.3 - beta, (1.0 - 1.5 * beta) / 2.0)


ALL_TEST_MDPS = [
    (single_state_mdp(), 3.0),
    (choice_mdp(), 2.0),
    (cycle_mdp(), 2.0),
    (stochastic_mdp(), 1.5),
]


class TestRelativeValueIteration:
    @pytest.mark.parametrize("mdp, expected", ALL_TEST_MDPS)
    def test_known_gains(self, mdp, expected):
        result = relative_value_iteration(mdp, [1.0], tolerance=1e-10)
        assert result.gain == pytest.approx(expected, abs=1e-6)
        assert result.lower_bound <= expected + 1e-9
        assert result.upper_bound >= expected - 1e-9

    def test_certified_bounds_bracket_gain(self):
        result = relative_value_iteration(stochastic_mdp(), [1.0], tolerance=1e-8)
        assert result.lower_bound <= result.gain <= result.upper_bound
        assert result.bound_width < 1e-7

    def test_optimal_strategy_extracted(self):
        result = relative_value_iteration(choice_mdp(), [1.0])
        assert result.strategy.action(0) == "good"

    def test_divergence_raises(self):
        with pytest.raises(ConvergenceError):
            relative_value_iteration(
                stochastic_mdp(), [1.0], tolerance=1e-12, max_iterations=1
            )

    def test_divergence_can_be_silenced(self):
        result = relative_value_iteration(
            stochastic_mdp(), [1.0], tolerance=1e-12, max_iterations=1, raise_on_divergence=False
        )
        assert not result.converged

    def test_invalid_damping_rejected(self):
        with pytest.raises(ValueError):
            relative_value_iteration(choice_mdp(), [1.0], damping=0.0)

    def test_negative_rewards(self):
        builder = MDPBuilder()
        builder.add_action("s", "loss", [("s", 1.0, (-1.5,))])
        mdp = builder.build(initial_state="s")
        result = relative_value_iteration(mdp, [1.0])
        assert result.gain == pytest.approx(-1.5, abs=1e-6)


class TestPolicyIteration:
    @pytest.mark.parametrize("mdp, expected", ALL_TEST_MDPS)
    def test_known_gains(self, mdp, expected):
        result = policy_iteration(mdp, [1.0])
        assert result.gain == pytest.approx(expected, abs=1e-9)
        assert result.converged

    def test_optimal_strategy_extracted(self):
        result = policy_iteration(cycle_mdp(), [1.0])
        assert result.strategy.action_of_label("b") == "rich"

    def test_warm_start_converges_faster_or_equal(self):
        mdp = stochastic_mdp()
        cold = policy_iteration(mdp, [1.0])
        warm = policy_iteration(mdp, [1.0], initial_strategy=cold.strategy)
        assert warm.iterations <= cold.iterations
        assert warm.gain == pytest.approx(cold.gain)

    def test_iteration_budget_exhaustion_raises(self):
        # max_iterations=0 never evaluates, which must raise rather than return junk.
        with pytest.raises(ConvergenceError):
            policy_iteration(cycle_mdp(), [1.0], max_iterations=0)

    def test_reused_evaluation_skips_the_poisson_solve(self, monkeypatch):
        mdp = race_mdp()
        previous = policy_iteration(mdp, beta_reward_weights(0.5))
        calls = []
        solve = MarkovChain.gain_and_bias

        def counted(self, *args, **kwargs):
            calls.append(1)
            return solve(self, *args, **kwargs)

        monkeypatch.setattr(MarkovChain, "gain_and_bias", counted)
        # The optimum at beta = 0.5 is still optimal at 0.55: one round, no solve.
        reused = policy_iteration(
            mdp,
            beta_reward_weights(0.55),
            initial_strategy=previous.strategy,
            initial_evaluation=previous.evaluation,
        )
        assert (reused.iterations, len(calls)) == (1, 0)
        assert reused.gain == pytest.approx(race_gain(0.55), abs=1e-12)
        fresh = policy_iteration(mdp, beta_reward_weights(0.55), initial_strategy=previous.strategy)
        assert len(calls) == 1
        assert fresh.gain == pytest.approx(reused.gain, abs=1e-15)


class TestLinearProgram:
    @pytest.mark.parametrize("mdp, expected", ALL_TEST_MDPS)
    def test_known_gains(self, mdp, expected):
        result = solve_mean_payoff_lp(mdp, [1.0])
        assert result.gain == pytest.approx(expected, abs=1e-7)

    def test_strategy_extraction(self):
        result = solve_mean_payoff_lp(choice_mdp(), [1.0])
        assert result.strategy.action(0) == "good"


class TestDiscountedValueIteration:
    def test_constant_reward_value(self):
        mdp = single_state_mdp(reward=1.0)
        result = discounted_value_iteration(mdp, [1.0], discount=0.9, tolerance=1e-10)
        assert result.values[0] == pytest.approx(10.0, rel=1e-6)

    def test_vanishing_discount_approximates_gain(self):
        result = discounted_value_iteration(stochastic_mdp(), [1.0], discount=0.999)
        assert result.mean_payoff_estimate() == pytest.approx(1.5, abs=0.01)

    def test_invalid_discount_rejected(self):
        with pytest.raises(ValueError):
            discounted_value_iteration(choice_mdp(), [1.0], discount=1.0)

    def test_budget_exhaustion_raises(self):
        with pytest.raises(ConvergenceError):
            discounted_value_iteration(
                stochastic_mdp(), [1.0], discount=0.9999, max_iterations=2
            )

    def test_greedy_strategy(self):
        result = discounted_value_iteration(choice_mdp(), [1.0], discount=0.9)
        assert result.strategy.action(0) == "good"


class TestSolveMeanPayoffFrontend:
    @pytest.mark.parametrize("solver", SOLVER_BACKENDS)
    @pytest.mark.parametrize("mdp, expected", ALL_TEST_MDPS)
    def test_backends_agree(self, mdp, expected, solver):
        solution = solve_mean_payoff(mdp, [1.0], solver=solver)
        assert solution.gain == pytest.approx(expected, abs=1e-6)
        assert solution.lower_bound <= solution.gain <= solution.upper_bound
        assert solution.solver == solver

    @pytest.mark.parametrize("solver", SOLVER_BACKENDS)
    @pytest.mark.parametrize("mdp, expected", ALL_TEST_MDPS)
    def test_strategy_achieves_reported_gain(self, mdp, expected, solver):
        """The returned strategy, fixed in the MDP, earns the reported gain."""
        solution = solve_mean_payoff(mdp, [1.0], solver=solver)
        achieved, _ = induced_markov_chain(mdp, solution.strategy).gain_and_bias([1.0])
        assert achieved == pytest.approx(solution.gain, abs=1e-6)

    def test_unknown_backend_raises(self):
        with pytest.raises(SolverError):
            solve_mean_payoff(choice_mdp(), [1.0], solver="magic")

    def test_bounds_contain_gain(self):
        solution = solve_mean_payoff(cycle_mdp(), [1.0], solver="value_iteration")
        assert solution.lower_bound <= solution.gain <= solution.upper_bound

    def test_warm_start_accepted(self):
        mdp = cycle_mdp()
        first = solve_mean_payoff(mdp, [1.0])
        second = solve_mean_payoff(mdp, [1.0], warm_start=first.strategy)
        assert second.gain == pytest.approx(first.gain)


class TestProbeContract:
    """What Algorithm 1 reads from one probe: the sign of the optimal gain.

    Every backend must return the closed-form gain of :func:`race_mdp` under
    ``r_beta`` on both sides of the zero crossing at ``beta = 2/3``, so a
    bisection decides the same half whichever backend the user picks.
    """

    @pytest.mark.parametrize("solver", SOLVER_BACKENDS)
    @pytest.mark.parametrize("beta", [0.0, 0.2, 0.5, 0.6, 0.7, 0.9, 1.0])
    def test_gain_and_sign_match_closed_form(self, beta, solver):
        solution = solve_mean_payoff(race_mdp(), beta_reward_weights(beta), solver=solver)
        expected = race_gain(beta)
        assert solution.gain == pytest.approx(expected, abs=1e-6)
        assert (solution.gain < 0.0) == (expected < 0.0)

    @pytest.mark.parametrize("solver", SOLVER_BACKENDS)
    @pytest.mark.parametrize("beta", [0.0, 0.2, 0.5, 0.6, 0.7, 0.9, 1.0])
    def test_sign_only_solve_proves_the_closed_form_sign(self, beta, solver):
        weights = beta_reward_weights(beta)
        full = solve_mean_payoff(race_mdp(), weights, solver=solver)
        quick = solve_mean_payoff(race_mdp(), weights, solver=solver, sign_only=True)
        expected = race_gain(beta)
        assert (quick.gain < 0.0) == (expected < 0.0)
        assert quick.lower_bound - 1e-9 <= expected <= quick.upper_bound + 1e-9
        assert quick.iterations <= full.iterations

    @pytest.mark.parametrize("solver", SOLVER_BACKENDS)
    def test_repeated_solves_are_bit_identical(self, solver):
        """A probe is a deterministic function of its inputs (no timing, no races)."""
        mdp = race_mdp()
        weights = beta_reward_weights(0.55)
        first = solve_mean_payoff(mdp, weights, solver=solver)
        second = solve_mean_payoff(mdp, weights, solver=solver)
        assert first.gain == second.gain
        assert (first.lower_bound, first.upper_bound) == (second.lower_bound, second.upper_bound)
        assert first.iterations == second.iterations
        assert list(first.strategy.rows) == list(second.strategy.rows)

    @pytest.mark.parametrize("solver", SOLVER_BACKENDS)
    def test_warm_start_from_previous_probe(self, solver):
        """Warm-starting from the last probe's strategy and bias keeps the gain."""
        mdp = race_mdp()
        previous = solve_mean_payoff(mdp, beta_reward_weights(0.5), solver=solver)
        weights = beta_reward_weights(0.75)
        cold = solve_mean_payoff(mdp, weights, solver=solver)
        warm = solve_mean_payoff(
            mdp,
            weights,
            solver=solver,
            warm_start=previous.strategy,
            warm_start_bias=previous.bias,
        )
        assert warm.gain == pytest.approx(cold.gain, abs=1e-6)
        assert warm.gain == pytest.approx(race_gain(0.75), abs=1e-6)
