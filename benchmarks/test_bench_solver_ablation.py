"""Ablation: mean-payoff solver backends and ratio-optimisation schemes.

Two design choices of the formal analysis that the paper delegates to Storm
(docs/architecture.md, "Pipeline", steps 4 and 5): (i) which mean-payoff solver to use inside the binary
search, and (ii) whether to use the paper's bisection (Algorithm 1) or a
Dinkelbach ratio iteration.  This benchmark times all variants on the same
model and checks they agree on the computed ERRev.
"""

from __future__ import annotations

import pytest

from repro import AnalysisConfig, AttackParams, ProtocolParams
from repro.analysis import dinkelbach_analysis, formal_analysis
from repro.attacks import build_selfish_forks_mdp
from repro.mdp import solve_mean_payoff

PROTOCOL = ProtocolParams(p=0.3, gamma=0.5)
ATTACK = AttackParams(depth=2, forks=1, max_fork_length=4)
EPSILON = 1e-3

_VALUES: dict[str, float] = {}


@pytest.fixture(scope="module")
def model():
    return build_selfish_forks_mdp(PROTOCOL, ATTACK)


@pytest.mark.parametrize("solver", ["policy_iteration", "value_iteration", "linear_program"])
def test_ablation_algorithm1_solver_backend(benchmark, model, solver):
    """Algorithm 1 with each mean-payoff solver backend."""
    result = benchmark.pedantic(
        formal_analysis,
        args=(model.mdp, AnalysisConfig(epsilon=EPSILON, solver=solver)),
        rounds=1,
        iterations=1,
    )
    _VALUES[f"algorithm1/{solver}"] = result.strategy_errev


def test_ablation_dinkelbach(benchmark, model):
    """Dinkelbach ratio iteration instead of bisection."""
    result = benchmark.pedantic(
        dinkelbach_analysis,
        args=(model.mdp, AnalysisConfig(epsilon=EPSILON)),
        rounds=1,
        iterations=1,
    )
    _VALUES["dinkelbach/policy_iteration"] = result.errev


@pytest.mark.parametrize("solver", ["policy_iteration", "value_iteration", "linear_program"])
def test_ablation_single_mean_payoff_solve(benchmark, model, solver):
    """One mean-payoff solve (beta = 0.35), the inner loop of the analysis."""
    from repro.analysis.rewards import beta_reward_weights

    solution = benchmark.pedantic(
        solve_mean_payoff,
        args=(model.mdp, beta_reward_weights(0.35)),
        kwargs={"solver": solver},
        rounds=1,
        iterations=1,
    )
    assert solution.gain == pytest.approx(_reference_gain(model), abs=1e-6)


def _reference_gain(model):
    from repro.analysis.rewards import beta_reward_weights

    if "_gain" not in _VALUES:
        _VALUES["_gain"] = solve_mean_payoff(
            model.mdp, beta_reward_weights(0.35), solver="policy_iteration"
        ).gain
    return _VALUES["_gain"]


def test_ablation_all_variants_agree(benchmark):
    """Every analysis variant must report the same optimal ERRev."""
    values = benchmark.pedantic(
        lambda: {key: value for key, value in _VALUES.items() if not key.startswith("_")},
        rounds=1,
        iterations=1,
    )
    assert len(values) >= 4
    reference = values["algorithm1/policy_iteration"]
    for key, value in values.items():
        assert value == pytest.approx(reference, abs=5e-3), key
