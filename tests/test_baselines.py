"""Baseline policies and the regime-baseline grid search."""

import numpy as np
import pytest

from kellylab.analytic import optimal_weights
from kellylab.baselines import (
    FixedWeightPolicy,
    GridSearchResult,
    RegimeSwitchingPolicy,
    StaggeredPolicy,
    rs_baseline_grid_search,
)
from kellylab.env import EnvConfig, PortfolioEnv
from kellylab.hmm import GaussianHmmModel
from kellylab.impact import ImpactParams
from kellylab.market import MarketParams, RegimeModel
from kellylab.training import evaluate

from shipped import regime, shipped


class FakeEnv:
    """Just enough of the env surface for policy label/ramp logic."""

    def __init__(self, config=None, regime=0):
        self.config = config
        self.current_regime = regime


def small_env_config(market=None, horizon_years=0.25, initial_wealth=1000.0,
                     impact=None, window=2):
    return EnvConfig(
        horizon_years=horizon_years,
        periods_per_year=256,
        window=window,
        initial_wealth=initial_wealth,
        market=market if market is not None else RegimeModel.single(
            regime("single_asset")
        ),
        impact=impact if impact is not None else ImpactParams(0.0, 0.0),
    )


def test_fixed_weight_policy_is_constant():
    policy = FixedWeightPolicy(np.array([0.5, 0.2]))
    for _ in range(3):
        assert np.array_equal(policy.act(None, None), np.array([0.5, 0.2]))


def test_staggered_ramp_schedule():
    policy = StaggeredPolicy(np.array([2.0]), 4)
    targets = [float(policy.act(None, None)[0]) for _ in range(6)]
    assert targets == [0.5, 1.0, 1.5, 2.0, 2.0, 2.0]
    with pytest.raises(ValueError, match="adjustment_periods"):
        StaggeredPolicy(np.array([1.0]), 0)


def test_staggered_with_one_period_is_fixed():
    policy = StaggeredPolicy(np.array([1.5, -0.5]), 1)
    assert np.array_equal(policy.act(None, None), np.array([1.5, -0.5]))
    assert np.array_equal(policy.act(None, None), np.array([1.5, -0.5]))


def test_staggered_reset_restarts_the_ramp():
    policy = StaggeredPolicy(np.array([1.0]), 2)
    assert policy.act(None, None)[0] == 0.5
    assert policy.act(None, None)[0] == 1.0
    policy.reset(None)
    assert policy.act(None, None)[0] == 0.5


def test_regime_switching_ramps_toward_the_active_target():
    targets = np.array([[2.0, 0.0], [-1.0, 1.0]])
    policy = RegimeSwitchingPolicy(targets, adjustment_periods=2, fraction=0.5)
    env = FakeEnv(regime=0)
    policy.reset(env)
    assert np.array_equal(policy.act(None, env), 0.5 * 0.5 * targets[0])
    assert np.array_equal(policy.act(None, env), 0.5 * targets[1 - 1])
    # a regime flip restarts the ramp toward the new target
    env.current_regime = 1
    assert np.array_equal(policy.act(None, env), 0.5 * 0.5 * targets[1])
    assert np.array_equal(policy.act(None, env), 0.5 * targets[1])


def test_regime_switching_full_fraction_single_period():
    targets = np.array([[1.0], [0.25]])
    policy = RegimeSwitchingPolicy(targets)
    env = FakeEnv(regime=1)
    policy.reset(env)
    assert policy.act(None, env)[0] == 0.25
    env.current_regime = 0
    assert policy.act(None, env)[0] == 1.0


def test_regime_switching_validation():
    targets = np.array([[1.0], [0.5]])
    with pytest.raises(ValueError, match="fraction"):
        RegimeSwitchingPolicy(targets, fraction=0.0)
    with pytest.raises(ValueError, match="fraction"):
        RegimeSwitchingPolicy(targets, fraction=1.2)
    with pytest.raises(ValueError, match="adjustment_periods"):
        RegimeSwitchingPolicy(targets, adjustment_periods=0)
    with pytest.raises(ValueError, match="n_regimes"):
        RegimeSwitchingPolicy(np.array([1.0, 0.5]))
    with pytest.raises(ValueError, match="detector"):
        RegimeSwitchingPolicy(targets, use_true_regime=False)


def test_regime_switching_reads_a_detector():
    # two sharply separated return states; the crafted window is clearly "up"
    detector = GaussianHmmModel(
        means=np.array([[-0.01], [0.01]]),
        covariances=np.full((2, 1, 1), 1e-6),
        transition=np.array([[0.9, 0.1], [0.1, 0.9]]),
        initial=np.array([0.5, 0.5]),
    )
    targets = np.array([[0.0], [1.0]])
    policy = RegimeSwitchingPolicy(
        targets, use_true_regime=False, detector=detector
    )
    config = small_env_config(window=4)
    env = FakeEnv(config=config, regime=0)
    policy.reset(env)
    obs = np.concatenate([np.exp(0.01 * np.arange(4)), [0.0, 1.0]])
    assert policy.act(obs, env)[0] == 1.0
    obs_down = np.concatenate([np.exp(-0.01 * np.arange(4)), [0.0, 1.0]])
    policy.reset(env)
    assert policy.act(obs_down, env)[0] == 0.0


# -- grid search ---------------------------------------------------------------


def test_grid_search_single_cell():
    config = small_env_config(horizon_years=0.0625)
    result = rs_baseline_grid_search(
        config, fractions=[0.5], adjustment_grid=[2], episodes_per_cell=3
    )
    assert result.fraction == 0.5
    assert result.adjustment_periods == 2
    assert len(result.table) == 1
    assert result.table[0]["mean_growth"] == result.mean_growth


def test_grid_search_tie_breaks_toward_larger_fraction_then_smaller_ramp():
    # mu = r makes the optimal stock weight zero, so every cell never trades
    # and earns exactly the cash rate: a clean all-way tie
    market = RegimeModel.single(
        MarketParams(np.array([0.05]), np.array([0.2]), np.eye(1), 0.05)
    )
    config = small_env_config(market=market, horizon_years=0.0625)
    result = rs_baseline_grid_search(
        config, fractions=[0.3, 0.7], adjustment_grid=[4, 2],
        episodes_per_cell=2,
    )
    assert result.fraction == 0.7
    assert result.adjustment_periods == 2
    growths = {row["mean_growth"] for row in result.table}
    assert len(growths) == 1


def test_grid_search_prefers_full_kelly_when_impact_is_negligible():
    config = small_env_config()
    result = rs_baseline_grid_search(
        config, fractions=[0.25, 0.5, 1.0], adjustment_grid=[1],
        episodes_per_cell=10,
    )
    assert result.fraction == 1.0


def test_grid_search_rejects_empty_grids():
    config = small_env_config()
    with pytest.raises(ValueError, match="nonempty"):
        rs_baseline_grid_search(config, fractions=[], adjustment_grid=[1])


@pytest.mark.slow
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_grid_search_high_wealth_regime_benchmark():
    # foresight regime baseline at 100k wealth: best grid cell lands at the
    # published operating point
    config = EnvConfig(
        horizon_years=5.0,
        periods_per_year=256,
        window=60,
        initial_wealth=100_000.0,
        market=shipped("regimes3").market,
        impact=shipped("etf3").impact,
    )
    result = rs_baseline_grid_search(config, episodes_per_cell=20, master_seed=0)
    assert abs(result.mean_growth - 0.164) <= 0.01


@pytest.mark.xfail(
    strict=True,
    reason="an immediate jump marks up its own inventory by more than the "
    "linearized permanent-impact charge, so staggering in does not dominate "
    "at high wealth under this cost model",
)
def test_staggered_entry_beats_immediate_jump_at_high_wealth():
    w_star = optimal_weights(regime("etf3")).stocks
    config = EnvConfig(
        horizon_years=5.0,
        periods_per_year=256,
        window=2,
        initial_wealth=200_000.0,
        market=RegimeModel.single(regime("etf3")),
        impact=shipped("etf3").impact,
    )
    factory = lambda seed: PortfolioEnv(config, seed)
    jump = evaluate(FixedWeightPolicy(w_star), factory, 10, 0)
    staggered = evaluate(StaggeredPolicy(w_star, 64), factory, 10, 0)
    assert staggered.mean_growth >= jump.mean_growth
