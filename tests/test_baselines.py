"""The analytic baseline policy and the regime-baseline grid search."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kellylab.baselines as baselines_module
import kellylab.env as env_module
from kellylab.analytic import optimal_weights
from kellylab.baselines import (
    GridSearchResult,
    RegimeSwitchingPolicy,
    rs_baseline_grid_search,
)
from kellylab.env import EnvConfig, PortfolioEnv
from kellylab.errors import ConfigError
from kellylab.impact import ImpactParams
from kellylab.market import MarketParams, RegimeModel, generate_path
from kellylab.training import evaluate

from envstate import BatchOfOne
from shipped import regime, shipped


class FakeEnv:
    """Just enough of a one-lane wave's surface for policy label/ramp
    logic: one live lane and its regime label."""

    def __init__(self, regime=0):
        self.current_regime = regime
        self.live = np.arange(1)

    def regimes(self):
        return np.array([self.current_regime])


class FakeWave:
    """Just enough of a wave's surface: the live lanes, their positions in
    the wave and their regime labels."""

    def __init__(self, lanes, live=None):
        self.lanes = lanes
        self.live = np.arange(len(lanes)) if live is None else np.array(live)

    def regimes(self):
        return np.array([lane.current_regime for lane in self.lanes])


class StaggeredPolicy:
    """Oracle for the one-regime ramp: (k+1)/n of the weights at period k < n.

    The schedule a single-regime RegimeSwitchingPolicy at fraction 1 must
    reproduce bit for bit.
    """

    def __init__(self, weights, adjustment_periods: int):
        self.weights = np.asarray(weights, dtype=np.float64)
        self.adjustment_periods = adjustment_periods
        self._k = 0

    def act(self):
        scale = min((self._k + 1) / self.adjustment_periods, 1.0)
        self._k += 1
        return scale * self.weights


def act(policy, env):
    """One lane's action through the lane API."""
    return policy.act(env)[0]


def small_env_config(market=None, horizon_years=0.25, initial_wealth=1000.0,
                     impact=None):
    return EnvConfig(
        horizon_years=horizon_years,
        periods_per_year=256,
        window=2,
        initial_wealth=initial_wealth,
        market=market if market is not None else RegimeModel.single(
            regime("single_asset")
        ),
        impact=impact if impact is not None else ImpactParams(0.0, 0.0),
    )


def test_fixed_weight_policy_is_constant():
    # one regime and one period: rebalance to the same weights every period
    policy = RegimeSwitchingPolicy(np.array([[0.5, 0.2]]))
    env = FakeEnv()
    policy.reset(env)
    for _ in range(3):
        assert np.array_equal(act(policy, env), np.array([0.5, 0.2]))


def test_staggered_ramp_schedule():
    policy = RegimeSwitchingPolicy(np.array([[2.0]]), 4)
    env = FakeEnv()
    policy.reset(env)
    targets = [float(act(policy, env)[0]) for _ in range(6)]
    assert targets == [0.5, 1.0, 1.5, 2.0, 2.0, 2.0]
    with pytest.raises(ValueError, match="adjustment_periods"):
        RegimeSwitchingPolicy(np.array([[1.0]]), 0)


def test_staggered_with_one_period_is_fixed():
    policy = RegimeSwitchingPolicy(np.array([[1.5, -0.5]]), 1)
    env = FakeEnv()
    policy.reset(env)
    assert np.array_equal(act(policy, env), np.array([1.5, -0.5]))
    assert np.array_equal(act(policy, env), np.array([1.5, -0.5]))


def test_staggered_reset_restarts_the_ramp():
    policy = RegimeSwitchingPolicy(np.array([[1.0]]), 2)
    env = FakeEnv()
    policy.reset(env)
    assert act(policy, env)[0] == 0.5
    assert act(policy, env)[0] == 1.0
    policy.reset(env)
    assert act(policy, env)[0] == 0.5


@settings(max_examples=200, deadline=None)
@given(
    w=st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=4),
    fraction=st.floats(0.0, 1.0, exclude_min=True),
    n=st.integers(1, 64),
)
def test_one_regime_actions_are_the_scaled_weights(w, fraction, n):
    # every action is scale * f * w, in that order; at f = 1 it is the
    # staggered-entry ramp bit for bit
    w = np.array(w)
    policy = RegimeSwitchingPolicy(w[None], n, fraction)
    oracle = StaggeredPolicy(w, n)
    env = FakeEnv()
    policy.reset(env)
    for k in range(n + 3):
        scale = min((k + 1) / n, 1.0)
        action = act(policy, env)
        assert np.array_equal(action, scale * fraction * w)
        staggered = oracle.act()
        if fraction == 1.0:
            assert np.array_equal(action, staggered)


def test_regime_switching_ramps_toward_the_active_target():
    targets = np.array([[2.0, 0.0], [-1.0, 1.0]])
    policy = RegimeSwitchingPolicy(targets, adjustment_periods=2, fraction=0.5)
    env = FakeEnv(regime=0)
    policy.reset(env)
    assert np.array_equal(act(policy, env), 0.5 * 0.5 * targets[0])
    assert np.array_equal(act(policy, env), 0.5 * targets[1 - 1])
    # a regime flip restarts the ramp toward the new target
    env.current_regime = 1
    assert np.array_equal(act(policy, env), 0.5 * 0.5 * targets[1])
    assert np.array_equal(act(policy, env), 0.5 * targets[1])


def test_regime_switching_full_fraction_single_period():
    targets = np.array([[1.0], [0.25]])
    policy = RegimeSwitchingPolicy(targets)
    env = FakeEnv(regime=1)
    policy.reset(env)
    assert act(policy, env)[0] == 0.25
    env.current_regime = 0
    assert act(policy, env)[0] == 1.0


def test_lanes_keep_their_own_ramp_and_regime():
    targets = np.array([[2.0], [-1.0]])
    policy = RegimeSwitchingPolicy(targets, adjustment_periods=2, fraction=0.5)
    envs = [FakeEnv(0), FakeEnv(1), FakeEnv(0)]
    policy.reset(FakeWave(envs))
    first = policy.act(FakeWave(envs))
    assert [a[0] for a in first] == [0.5, -0.25, 0.5]
    # lane 1 has left the wave; lane 2's regime flips and restarts its ramp
    envs[2].current_regime = 1
    second = policy.act(FakeWave([envs[0], envs[2]], [0, 2]))
    assert [a[0] for a in second] == [1.0, -0.25]
    third = policy.act(FakeWave([envs[0], envs[2]], [0, 2]))
    assert [a[0] for a in third] == [1.0, -0.5]
    # every call returns one fresh (L, n) array of the live lanes' actions
    assert third.shape == (2, 1) and third.dtype == np.float64
    assert not np.shares_memory(third, second)


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


@pytest.mark.parametrize("episodes_per_cell", [0, -2])
def test_grid_search_rejects_fewer_than_one_episode_per_cell(
        episodes_per_cell):
    config = small_env_config()
    with pytest.raises(ValueError, match="episodes_per_cell must be >= 1"):
        rs_baseline_grid_search(config, fractions=[0.5], adjustment_grid=[1],
                                episodes_per_cell=episodes_per_cell)


def test_grid_search_rejects_a_seed_outside_32_bits():
    config = small_env_config(horizon_years=0.0625)
    with pytest.raises(ConfigError, match="outside"):
        rs_baseline_grid_search(config, fractions=[0.5], adjustment_grid=[1],
                                episodes_per_cell=1, master_seed=-1)


@pytest.fixture
def path_calls(monkeypatch):
    """The arguments of every path an env generates from here on."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return generate_path(*args, **kwargs)

    monkeypatch.setattr(env_module, "generate_path", counting)
    return calls


def per_cell_grid_search(config, fractions, adjustment_grid,
                         episodes_per_cell, master_seed):
    """Oracle: the grid search as it ran before it became one evaluation.

    Every cell gets its own policy and one one-lane env, which plays the
    cell's episodes one after another with the float step and which the
    policy sees as a batch of one. Returns the table and the best (growth,
    fraction, ramp) by the same tie rule.
    """
    targets = np.array(
        [optimal_weights(reg) for reg in config.market.regimes])
    best = None
    table = []
    for f in fractions:
        for n in adjustment_grid:
            policy = RegimeSwitchingPolicy(targets, adjustment_periods=n,
                                           fraction=f)
            env = BatchOfOne(PortfolioEnv(config, master_seed))
            growths = []
            bankruptcies = 0
            for episode in range(episodes_per_cell):
                env.reset(episode)
                policy.reset(env)
                reward_sum = 0.0
                while True:
                    result = env.step(policy.act(env))
                    reward_sum += result.reward
                    if result.done:
                        break
                if result.bankrupt:
                    bankruptcies += 1
                else:
                    growths.append(reward_sum / config.horizon_years)
            g = float(np.asarray(growths).mean()) if growths else float("nan")
            table.append({"fraction": f, "adjustment_periods": n,
                          "mean_growth": g, "bankruptcies": bankruptcies})
            if np.isnan(g):
                continue
            if (best is None or g > best[0]
                    or (g == best[0] and (f, -n) > (best[1], -best[2]))):
                best = (g, f, n)
    return table, best


def levered_single_asset_config():
    """w* = 64 at a 2% daily volatility: high-fraction cells go bankrupt on
    some or all episodes."""
    market = RegimeModel.single(
        MarketParams(np.array([4.0]), np.array([0.25]), np.eye(1), 0.0))
    return small_env_config(market=market, horizon_years=0.25)


def short_shipped_config(name):
    env = shipped(name).env
    return EnvConfig(horizon_years=0.125, periods_per_year=256, window=5,
                     initial_wealth=env.initial_wealth, market=env.market,
                     impact=env.impact)


@pytest.mark.parametrize("name", ["regimes3", "two_asset", "single_asset",
                                  "levered", "tie"])
def test_one_pass_grid_equals_the_per_cell_loop(name, path_calls):
    if name == "levered":
        config = levered_single_asset_config()
    elif name == "tie":
        market = RegimeModel.single(
            MarketParams(np.array([0.05]), np.array([0.2]), np.eye(1), 0.05))
        config = small_env_config(market=market, horizon_years=0.0625)
    else:
        config = short_shipped_config(name)
    fractions = [round(0.1 * i, 1) for i in range(1, 11)]
    adjustment_grid = [1, 2, 4, 8, 16, 32, 64]
    table, best = per_cell_grid_search(config, fractions, adjustment_grid, 3,
                                       master_seed=0)
    del path_calls[:]
    result = rs_baseline_grid_search(config, fractions, adjustment_grid,
                                     episodes_per_cell=3, master_seed=0)
    # 70 cells x 3 episodes in one wave: each episode's path made once
    assert len(path_calls) == 3
    assert len(result.table) == len(table) == 70
    for got, want in zip(result.table, table):
        assert got.keys() == want.keys()
        assert got["fraction"] == want["fraction"]
        assert got["adjustment_periods"] == want["adjustment_periods"]
        assert got["bankruptcies"] == want["bankruptcies"]
        assert (np.float64(got["mean_growth"]).tobytes()
                == np.float64(want["mean_growth"]).tobytes())
    assert (result.mean_growth, result.fraction,
            result.adjustment_periods) == best
    bankruptcies = [row["bankruptcies"] for row in table]
    if name == "levered":
        # cells that lose some episodes, and cells that lose all three and
        # are skipped
        assert {0, 1, 2, 3} <= set(bankruptcies)
    if name == "tie":
        assert len({row["mean_growth"] for row in table}) == 1


def test_grid_search_splits_a_large_grid_into_waves(monkeypatch, path_calls):
    # 2 cells x 150 episodes in waves of 101 lanes: each wave regenerates
    # only the episode the wave before it split
    config = levered_single_asset_config()
    table, best = per_cell_grid_search(config, [0.1, 1.0], [4], 150, 1)
    del path_calls[:]
    # one lane's price history: (window + periods) rows of 1 asset
    lane_bytes = 8 * (config.window + config.n_periods)
    monkeypatch.setattr(baselines_module, "GRID_WAVE_BYTES",
                        101 * lane_bytes + 7)
    result = rs_baseline_grid_search(config, [0.1, 1.0], [4], 150, 1)
    assert len(path_calls) == 151
    assert result.table == table
    assert (result.mean_growth, result.fraction,
            result.adjustment_periods) == best


def test_per_lane_fractions_and_ramps():
    targets = np.array([[2.0], [-1.0]])
    policy = RegimeSwitchingPolicy(targets, adjustment_periods=[1, 2, 4, 2],
                                   fraction=[0.5, 1.0, 0.25, 0.5])
    envs = [FakeEnv(0), FakeEnv(1)]
    # lanes 2 and 3 of the evaluation: ramps of 4 and 2
    policy.reset(FakeWave(envs), first=2)
    steps = [policy.act(FakeWave(envs))[:, 0].tolist()
             for _ in range(5)]
    assert steps == [[0.125, -0.25], [0.25, -0.5], [0.375, -0.5],
                     [0.5, -0.5], [0.5, -0.5]]
    with pytest.raises(ValueError, match="per-lane values"):
        policy.reset(FakeWave(envs), first=3)
    with pytest.raises(ValueError, match="fraction"):
        RegimeSwitchingPolicy(targets, fraction=[0.5, 0.0])
    with pytest.raises(ValueError, match="adjustment_periods"):
        RegimeSwitchingPolicy(targets, adjustment_periods=[[1]])


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
    w_star = optimal_weights(regime("etf3"))
    config = EnvConfig(
        horizon_years=5.0,
        periods_per_year=256,
        window=2,
        initial_wealth=200_000.0,
        market=RegimeModel.single(regime("etf3")),
        impact=shipped("etf3").impact,
    )
    factory = lambda seed: PortfolioEnv(config, seed)
    jump = evaluate(RegimeSwitchingPolicy(w_star[None]), factory, 10, 0)
    staggered = evaluate(RegimeSwitchingPolicy(w_star[None], 64), factory, 10, 0)
    assert staggered.mean_growth >= jump.mean_growth
