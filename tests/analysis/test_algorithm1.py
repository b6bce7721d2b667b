"""Tests of Algorithm 1, the Dinkelbach cross-check and the theorem certificates."""

from __future__ import annotations

import dataclasses
import logging
from fractions import Fraction

import numpy as np
import pytest

from repro.config import AnalysisConfig, AttackParams, ProtocolParams
from repro.analysis import (
    algorithm1,
    beta_reward_weights,
    check_theorem_premises,
    dinkelbach_analysis,
    evaluate_strategy_errev,
    formal_analysis,
)
from repro.attacks import build_selfish_forks_mdp
from repro.attacks.honest import immediate_release_strategy
from repro.attacks.sm_actions import build_sm_actions_mdp
from repro.exceptions import SolverError
from repro.mdp import SOLVER_BACKENDS, solve_mean_payoff


class TestInitialBiasValidation:
    """Mis-shaped warm-start bias vectors must fall back to a cold start."""

    def test_wrong_length_bias_ignored(self, model_d2f1):
        result = formal_analysis(
            model_d2f1.mdp, AnalysisConfig(epsilon=1e-2), initial_bias=[1.0, 2.0, 3.0]
        )
        assert result.interval_width < 1e-2

    def test_ragged_bias_ignored(self, model_d2f1):
        result = formal_analysis(
            model_d2f1.mdp, AnalysisConfig(epsilon=1e-2), initial_bias=[[1.0, 2.0], [3.0]]
        )
        assert result.interval_width < 1e-2

    def test_non_numeric_bias_ignored(self, model_d2f1):
        result = formal_analysis(
            model_d2f1.mdp, AnalysisConfig(epsilon=1e-2), initial_bias=object()
        )
        assert result.interval_width < 1e-2

    def test_non_finite_bias_ignored(self, model_d2f1):
        bad = np.full(model_d2f1.mdp.num_states, np.nan)
        result = formal_analysis(
            model_d2f1.mdp, AnalysisConfig(epsilon=1e-2), initial_bias=bad
        )
        assert result.interval_width < 1e-2
        assert np.isfinite(result.errev_lower_bound)

    def test_two_dimensional_bias_ignored(self, model_d2f1):
        bad = np.zeros((model_d2f1.mdp.num_states, 2))
        result = formal_analysis(
            model_d2f1.mdp,
            AnalysisConfig(epsilon=1e-2, solver="value_iteration"),
            initial_bias=bad,
        )
        assert result.interval_width < 1e-2

    def test_dropped_bias_logged_at_debug(self, model_d2f1, caplog):
        with caplog.at_level(logging.DEBUG, logger="repro"):
            formal_analysis(
                model_d2f1.mdp, AnalysisConfig(epsilon=1e-2), initial_bias=[1.0, 2.0, 3.0]
            )
        records = [r for r in caplog.records if r.name == "repro.analysis.algorithm1"]
        assert len(records) == 1
        assert records[0].levelno == logging.DEBUG
        assert "warm-start bias" in records[0].getMessage()

    def test_dropped_strategy_rows_logged_at_debug(self, model_d2f1, caplog):
        with caplog.at_level(logging.DEBUG, logger="repro"):
            result = formal_analysis(
                model_d2f1.mdp, AnalysisConfig(epsilon=1e-2), initial_strategy_rows=[0, 1]
            )
        assert result.interval_width < 1e-2
        records = [r for r in caplog.records if r.name == "repro.analysis.algorithm1"]
        assert len(records) == 1
        assert records[0].levelno == logging.DEBUG
        assert "warm-start strategy" in records[0].getMessage()

    def test_valid_bias_still_honoured(self, model_d2f1):
        config = AnalysisConfig(epsilon=1e-3, solver="value_iteration")
        seed = formal_analysis(model_d2f1.mdp, config)
        warm = formal_analysis(model_d2f1.mdp, config, initial_bias=seed.final_bias)
        assert warm.errev_lower_bound == pytest.approx(seed.errev_lower_bound, abs=1e-3)


class TestAlgorithm1:
    def test_interval_width_below_epsilon(self, analysis_d2f1):
        assert analysis_d2f1.interval_width < analysis_d2f1.epsilon

    def test_lower_bound_is_achieved_by_strategy(self, model_d2f1, analysis_d2f1):
        achieved = evaluate_strategy_errev(model_d2f1.mdp, analysis_d2f1.strategy)
        # Theorem 3.1: the strategy optimal for r_{beta_low} achieves at least beta_low.
        assert achieved >= analysis_d2f1.errev_lower_bound - 1e-9

    def test_strategy_errev_recorded(self, analysis_d2f1):
        assert analysis_d2f1.strategy_errev is not None
        assert analysis_d2f1.strategy_errev >= analysis_d2f1.errev_lower_bound - 1e-9

    def test_number_of_iterations_matches_precision(self, model_d2f1):
        # Binary search over [0, 1] terminates once the width drops *below*
        # epsilon = 2^-5, which takes exactly 6 halvings.
        result = formal_analysis(model_d2f1.mdp, AnalysisConfig(epsilon=2**-5))
        assert result.num_iterations == 6

    def test_iteration_log_is_consistent(self, analysis_d2f1):
        for record in analysis_d2f1.iterations:
            assert 0.0 <= record.beta_low <= record.beta <= record.beta_up <= 1.0 or (
                record.beta_low <= record.beta_up
            )
            assert record.solve_seconds >= 0.0
        # The interval shrinks monotonically.
        widths = [record.beta_up - record.beta_low for record in analysis_d2f1.iterations]
        assert widths == sorted(widths, reverse=True)

    def test_tighter_epsilon_never_loosens_the_bound(self, model_d2f1):
        coarse = formal_analysis(model_d2f1.mdp, AnalysisConfig(epsilon=0.05))
        fine = formal_analysis(model_d2f1.mdp, AnalysisConfig(epsilon=0.005))
        assert fine.errev_lower_bound >= coarse.errev_lower_bound - 1e-9
        assert fine.beta_up <= coarse.beta_up + 1e-9

    def test_custom_initial_interval(self, model_d2f1, analysis_d2f1):
        result = formal_analysis(
            model_d2f1.mdp, AnalysisConfig(epsilon=1e-3), beta_low=0.3, beta_up=0.6
        )
        assert result.errev_lower_bound == pytest.approx(
            analysis_d2f1.errev_lower_bound, abs=2e-3
        )

    def test_invalid_interval_rejected(self, model_d2f1):
        with pytest.raises(ValueError):
            formal_analysis(model_d2f1.mdp, AnalysisConfig(), beta_low=0.9, beta_up=0.1)

    def test_evaluation_can_be_disabled(self, model_d1f1):
        result = formal_analysis(
            model_d1f1.mdp, AnalysisConfig(epsilon=1e-2, evaluate_strategy=False)
        )
        assert result.strategy_errev is None

    @pytest.mark.parametrize("solver", ["policy_iteration", "value_iteration", "linear_program"])
    def test_solver_backends_agree(self, model_d1f1, solver):
        result = formal_analysis(
            model_d1f1.mdp, AnalysisConfig(epsilon=1e-3, solver=solver)
        )
        assert result.strategy_errev == pytest.approx(0.3, abs=2e-3)

    def test_exceeds_honest_mining_for_d2(self, analysis_d2f1):
        assert analysis_d2f1.strategy_errev > 0.3 + 0.05


@pytest.fixture(scope="module")
def reference_errev(model_d2f1):
    """ERRev of the d2f1 strategy certified at a far finer precision (PI)."""
    return formal_analysis(model_d2f1.mdp, AnalysisConfig(epsilon=1e-6)).strategy_errev


@pytest.mark.parametrize("solver", SOLVER_BACKENDS)
class TestBisectionPerBackend:
    """Algorithm 1 is one bisection with one solve per probe, for every backend."""

    def test_interval_width_below_epsilon(self, model_d2f1, solver):
        result = formal_analysis(model_d2f1.mdp, AnalysisConfig(epsilon=1e-3, solver=solver))
        assert result.interval_width < 1e-3
        assert result.solver == solver

    def test_interval_brackets_reference_errev(self, model_d2f1, reference_errev, solver):
        result = formal_analysis(model_d2f1.mdp, AnalysisConfig(epsilon=1e-3, solver=solver))
        assert result.beta_low <= reference_errev + 1e-6
        assert reference_errev <= result.beta_up + 1e-9

    def test_tightened_start_interval_keeps_the_bracket(
        self, model_d2f1, reference_errev, solver
    ):
        # ERRev* >= p, so a caller may start the search at beta_low = p.
        result = formal_analysis(
            model_d2f1.mdp, AnalysisConfig(epsilon=1e-3, solver=solver), beta_low=0.3
        )
        assert result.interval_width < 1e-3
        assert result.beta_low <= reference_errev + 1e-6 <= result.beta_up + 1e-6

    def test_number_of_probes_matches_precision(self, model_d2f1, solver):
        # Width 1 halves to 2^-6 < epsilon = 2^-5 after exactly 6 probes.
        result = formal_analysis(model_d2f1.mdp, AnalysisConfig(epsilon=2**-5, solver=solver))
        assert result.num_iterations == 6

    def test_each_probe_bisects_and_its_sign_picks_the_half(self, model_d2f1, solver):
        result = formal_analysis(model_d2f1.mdp, AnalysisConfig(epsilon=1e-3, solver=solver))
        low, up = 0.0, 1.0
        for record in result.iterations:
            assert record.beta == 0.5 * (low + up)
            if record.optimal_mean_payoff < 0.0:
                up = record.beta
            else:
                low = record.beta
            assert (record.beta_low, record.beta_up) == (low, up)
        assert (result.beta_low, result.beta_up) == (low, up)

    def test_strategy_certifies_lower_bound(self, model_d2f1, solver):
        result = formal_analysis(model_d2f1.mdp, AnalysisConfig(epsilon=1e-3, solver=solver))
        achieved = evaluate_strategy_errev(model_d2f1.mdp, result.strategy)
        assert achieved == pytest.approx(result.strategy_errev, abs=1e-12)
        assert achieved >= result.errev_lower_bound - 1e-9

    def test_repeated_runs_are_bit_identical(self, model_d1f1, solver):
        config = AnalysisConfig(epsilon=1e-3, solver=solver)
        first = formal_analysis(model_d1f1.mdp, config)
        second = formal_analysis(model_d1f1.mdp, config)
        assert (first.beta_low, first.beta_up) == (second.beta_low, second.beta_up)
        assert first.strategy_errev == second.strategy_errev
        assert list(first.strategy.rows) == list(second.strategy.rows)
        assert [r.optimal_mean_payoff for r in first.iterations] == [
            r.optimal_mean_payoff for r in second.iterations
        ]

    def test_cold_and_warm_start_certify_the_same_interval(self, model_d2f1, solver):
        warm = formal_analysis(model_d2f1.mdp, AnalysisConfig(epsilon=1e-3, solver=solver))
        cold = formal_analysis(
            model_d2f1.mdp, AnalysisConfig(epsilon=1e-3, solver=solver, warm_start=False)
        )
        assert (warm.beta_low, warm.beta_up) == (cold.beta_low, cold.beta_up)

    def test_solver_iterations_are_accounted(self, model_d2f1, solver):
        result = formal_analysis(model_d2f1.mdp, AnalysisConfig(epsilon=1e-3, solver=solver))
        per_probe = sum(record.solver_iterations for record in result.iterations)
        assert result.total_solver_iterations >= per_probe
        assert result.final_bias is not None
        assert result.final_bias.shape == (model_d2f1.mdp.num_states,)


class TestDinkelbach:
    def test_agrees_with_algorithm1(self, model_d2f1, analysis_d2f1):
        result = dinkelbach_analysis(model_d2f1.mdp, AnalysisConfig(epsilon=1e-4))
        assert result.errev == pytest.approx(analysis_d2f1.strategy_errev, abs=1e-3)

    def test_converges_in_few_iterations(self, model_d2f1):
        result = dinkelbach_analysis(model_d2f1.mdp, AnalysisConfig(epsilon=1e-6))
        assert result.num_iterations <= 10

    def test_iterates_are_monotone_non_decreasing(self, model_d2f1):
        result = dinkelbach_analysis(model_d2f1.mdp, AnalysisConfig(epsilon=1e-6))
        betas = [record.next_beta for record in result.iterations]
        assert all(later >= earlier - 1e-9 for earlier, later in zip(betas, betas[1:]))

    def test_warm_start_from_honest_value(self, model_d2f1, analysis_d2f1):
        result = dinkelbach_analysis(
            model_d2f1.mdp, AnalysisConfig(epsilon=1e-5), initial_beta=0.3
        )
        assert result.errev == pytest.approx(analysis_d2f1.strategy_errev, abs=1e-3)


class TestCertificates:
    def test_premises_hold_on_small_model(self, model_d1f1):
        report = check_theorem_premises(
            model_d1f1.mdp, config=AnalysisConfig(epsilon=1e-3), strategy_samples=5
        )
        assert report.all_hold
        assert report.unichain
        assert report.monotone
        assert report.min_total_block_rate > 0.0

    def test_gain_grid_is_monotone_decreasing(self, model_d2f1):
        report = check_theorem_premises(
            model_d2f1.mdp,
            config=AnalysisConfig(epsilon=1e-3),
            betas=(0.0, 0.5, 1.0),
            strategy_samples=3,
        )
        assert report.probed_gains[0] >= report.probed_gains[1] >= report.probed_gains[2]

    def test_gain_at_beta_zero_positive_and_at_one_negative(self, model_d2f1):
        report = check_theorem_premises(
            model_d2f1.mdp,
            config=AnalysisConfig(epsilon=1e-3),
            betas=(0.0, 1.0),
            strategy_samples=2,
        )
        assert report.probed_gains[0] > 0.0
        assert report.probed_gains[-1] < 0.0


# ------------------------------------------------ sign-stopped probes vs. oracles

#: Small models over several (p, gamma): selfish forks d1f1 and d2f1 (l = 4)
#: and the ADOPT/OVERRIDE/WAIT/MATCH scenario with l = 4 and l = 8.
SMALL_MODELS = [
    (attack, p, gamma)
    for attack in (
        AttackParams(depth=1, forks=1, max_fork_length=4),
        AttackParams(depth=2, forks=1, max_fork_length=4),
        AttackParams(depth=1, forks=1, max_fork_length=4, scenario="sm-actions"),
        AttackParams(depth=1, forks=1, max_fork_length=8, scenario="sm-actions"),
    )
    for p, gamma in ((0.1, 0.0), (0.3, 0.5), (0.4, 1.0), (0.45, 0.25))
]


def _build(attack: AttackParams, p: float, gamma: float):
    protocol = ProtocolParams(p=p, gamma=gamma)
    if attack.scenario == "sm-actions":
        return build_sm_actions_mdp(protocol, attack).mdp
    return build_selfish_forks_mdp(protocol, attack).mdp


def _reference_bisection(mdp, config: AnalysisConfig):
    """Algorithm 1 with every probe solved to convergence (the oracle)."""
    low, up = 0.0, 1.0
    warm = None
    while up - low >= config.epsilon:
        beta = 0.5 * (low + up)
        solution = solve_mean_payoff(
            mdp,
            beta_reward_weights(beta),
            tolerance=config.solver_tolerance,
            max_iterations=config.max_solver_iterations,
            warm_start=warm,
        )
        if solution.gain < 0.0:
            up = beta
        else:
            low = beta
        warm = solution.strategy
    final = solve_mean_payoff(
        mdp,
        beta_reward_weights(low),
        tolerance=config.solver_tolerance,
        max_iterations=config.max_solver_iterations,
        warm_start=warm,
    )
    return low, up, evaluate_strategy_errev(mdp, final.strategy)


def _exact_errev(mdp, strategy) -> Fraction:
    """ERRev of ``strategy`` from its induced chain in exact rational arithmetic."""
    n = mdp.num_states
    transitions = [[Fraction(0)] * n for _ in range(n)]
    rewards = [[Fraction(0), Fraction(0)] for _ in range(n)]
    for state in range(n):
        for succ, prob, reward in mdp.transitions_of_row(int(strategy.rows[state])):
            transitions[state][succ] += Fraction(prob)
            for k in range(2):
                rewards[state][k] += Fraction(prob) * Fraction(float(reward[k]))
        total = sum(transitions[state])
        transitions[state] = [value / total for value in transitions[state]]
        rewards[state] = [value / total for value in rewards[state]]
    # pi (P - I) = 0 with the last equation replaced by sum(pi) = 1.
    system = [
        [transitions[s][t] - (1 if s == t else 0) for s in range(n)] + [Fraction(0)]
        for t in range(n - 1)
    ]
    system.append([Fraction(1)] * n + [Fraction(1)])
    for col in range(n):
        pivot = next(row for row in range(col, n) if system[row][col] != 0)
        system[col], system[pivot] = system[pivot], system[col]
        for row in range(n):
            if row != col and system[row][col] != 0:
                factor = system[row][col] / system[col][col]
                system[row] = [a - factor * b for a, b in zip(system[row], system[col])]
    pi = [system[s][n] / system[s][s] for s in range(n)]
    adversary = sum(pi[s] * rewards[s][0] for s in range(n))
    honest = sum(pi[s] * rewards[s][1] for s in range(n))
    return adversary / (adversary + honest)


@pytest.mark.parametrize("attack, p, gamma", SMALL_MODELS)
def test_sign_stopped_search_matches_full_convergence_bisection(attack, p, gamma):
    mdp = _build(attack, p, gamma)
    config = AnalysisConfig(epsilon=1e-3)
    result = formal_analysis(mdp, config)
    low, up, errev = _reference_bisection(mdp, config)
    assert (result.beta_low, result.beta_up) == (low, up)
    assert result.strategy_errev == pytest.approx(errev, abs=1e-9)
    # ERRev from the final solve's gains equals the stationary evaluation.
    assert result.strategy_errev == pytest.approx(
        evaluate_strategy_errev(mdp, result.strategy), abs=1e-12
    )
    for record in result.iterations:
        assert record.lower_bound <= record.optimal_mean_payoff <= record.upper_bound
        # The sign that decided the probe is proven, or the probe converged.
        proven = (
            record.lower_bound >= config.solver_tolerance
            or record.upper_bound <= -config.solver_tolerance
        )
        assert proven or record.upper_bound - record.lower_bound <= 2 * config.solver_tolerance


@pytest.mark.parametrize("p, gamma", [(0.3, 0.5), (0.4, 1.0), (0.45, 0.25)])
def test_errev_from_gains_matches_exact_rational_evaluation(p, gamma):
    mdp = _build(AttackParams(depth=1, forks=1, max_fork_length=4), p, gamma)
    result = formal_analysis(mdp, AnalysisConfig(epsilon=1e-3))
    assert abs(Fraction(result.strategy_errev) - _exact_errev(mdp, result.strategy)) < 1e-12


def test_witness_below_beta_low_raises(model_d2f1, monkeypatch):
    """A final strategy that misses the certified lower bound is an error."""
    honest = immediate_release_strategy(model_d2f1.mdp)
    original = algorithm1.solve_mean_payoff

    def wrong_final_strategy(*args, sign_only=False, **kwargs):
        solution = original(*args, sign_only=sign_only, **kwargs)
        if sign_only:
            return solution
        return dataclasses.replace(solution, strategy=honest, evaluation=None)

    monkeypatch.setattr(algorithm1, "solve_mean_payoff", wrong_final_strategy)
    config = AnalysisConfig(epsilon=1e-3)
    assert evaluate_strategy_errev(model_d2f1.mdp, honest) < 0.3
    with pytest.raises(SolverError, match="certified lower bound"):
        formal_analysis(model_d2f1.mdp, config)
    # Without the evaluation there is no witness to check.
    disabled = formal_analysis(
        model_d2f1.mdp, AnalysisConfig(epsilon=1e-3, evaluate_strategy=False)
    )
    assert disabled.strategy is honest
