"""Portfolio environment: accounting identities and lifecycle."""

import math

import numpy as np
import pytest

from kellylab.env import BANKRUPTCY_REWARD, EnvConfig, PortfolioEnv
from kellylab.errors import ConfigError, LifecycleError
from kellylab.impact import ImpactParams, trade_cost
from kellylab.market import MarketParams, RegimeModel

from shipped import regime


def single_market(mu=0.12, sigma=0.2, cash_rate=0.04):
    return RegimeModel.single(
        MarketParams(np.array([mu]), np.array([sigma]), np.eye(1), cash_rate)
    )


def make_config(market=None, horizon_years=0.25, periods_per_year=256,
                window=4, initial_wealth=1000.0, impact=None):
    return EnvConfig(
        horizon_years=horizon_years,
        periods_per_year=periods_per_year,
        window=window,
        initial_wealth=initial_wealth,
        market=market if market is not None else single_market(),
        impact=impact if impact is not None else ImpactParams(0.0, 0.0),
    )


# -- configuration --------------------------------------------------------------


def test_observation_dim_formula():
    cfg = make_config(market=RegimeModel.single(regime("etf3")), window=60)
    assert cfg.observation_dim == 3 * 60 + 3 + 1
    assert make_config(window=1).observation_dim == 1 + 1 + 1
    assert cfg.n_periods == 64
    assert cfg.dt == 1.0 / 256


def test_config_validation():
    with pytest.raises(ConfigError, match="horizon_years"):
        make_config(horizon_years=-1.0)
    with pytest.raises(ConfigError, match="periods_per_year"):
        make_config(periods_per_year=0)
    with pytest.raises(ConfigError, match="period count"):
        make_config(horizon_years=1.0 / 3.0)
    with pytest.raises(ConfigError, match="window"):
        make_config(window=0)
    with pytest.raises(ConfigError, match="initial_wealth"):
        make_config(initial_wealth=0.0)
    cfg = make_config()
    with pytest.raises(ConfigError, match="discount"):
        EnvConfig(0.25, 256, 4, 1000.0, cfg.market, cfg.impact, discount=0.0)


# -- reset and observation layout ------------------------------------------------


def test_initial_observation_layout():
    cfg = make_config(market=RegimeModel.single(regime("etf3")), window=4)
    env = PortfolioEnv(cfg, master_seed=0)
    obs = env.reset(episode=0)
    assert obs.shape == (cfg.observation_dim,)
    history = obs[: 3 * 4].reshape(4, 3)
    # the newest history row is the episode open, normalized to 1
    assert np.array_equal(history[-1], np.ones(3))
    assert np.array_equal(history[:-1], env.path.warmup_prices)
    # no stock holdings yet and full initial wealth
    assert np.array_equal(obs[12:15], np.zeros(3))
    assert obs[15] == 1.0
    assert env.t == 0
    assert not env.done


def test_reset_auto_increments_episodes():
    env = PortfolioEnv(make_config(), master_seed=0)
    env.reset()
    assert env.episode == 0
    env.reset()
    assert env.episode == 1
    env.reset(episode=7)
    assert env.episode == 7
    env.reset()
    assert env.episode == 8


def test_same_episode_is_reproducible():
    env = PortfolioEnv(make_config(), master_seed=3)
    first = env.reset(episode=5)
    prices = env.path.prices.copy()
    second = env.reset(episode=5)
    assert np.array_equal(first, second)
    assert np.array_equal(env.path.prices, prices)
    other = env.reset(episode=6)
    assert not np.array_equal(first, other)


def test_unaffected_path_ignores_actions():
    cfg = make_config(impact=ImpactParams(1e-9, 1e-7))
    a = PortfolioEnv(cfg, master_seed=1)
    b = PortfolioEnv(cfg, master_seed=1)
    a.reset(episode=0)
    b.reset(episode=0)
    for _ in range(8):
        a.step(np.array([0.0]))
        b.step(np.array([1.5]))
    assert np.array_equal(a.path.prices, b.path.prices)
    # trading leaves a mark on effective prices when impact is on
    assert not np.array_equal(
        a.effective_episode_prices(), b.effective_episode_prices()
    )


# -- reward accounting ------------------------------------------------------------


def test_all_cash_earns_the_cash_rate():
    cfg = make_config()
    env = PortfolioEnv(cfg, master_seed=0)
    env.reset(episode=0)
    r_dt = 0.04 / 256
    wealth = 1000.0
    for _ in range(cfg.n_periods):
        result = env.step(np.array([0.0]))
        assert result.reward == pytest.approx(r_dt, abs=1e-15)
        wealth *= math.exp(r_dt)
    assert result.done
    assert env.state.wealth == pytest.approx(wealth, rel=1e-12)


def test_interest_accrues_at_the_current_regime_rate():
    # absorbing regime 1 carries a different cash rate; zero vol isolates it
    low = MarketParams(np.array([0.0]), np.array([0.0]), np.eye(1), 0.01)
    high = MarketParams(np.array([0.0]), np.array([0.0]), np.eye(1), 0.09)
    model = RegimeModel([low, high], np.eye(2), np.array([0.0, 1.0]))
    env = PortfolioEnv(make_config(market=model), master_seed=0)
    env.reset(episode=0)
    result = env.step(np.array([0.0]))
    assert result.reward == pytest.approx(0.09 / 256, abs=1e-15)


def test_static_market_full_investment_is_flat():
    # mu = sigma = r = 0 and no impact: nothing moves, reward is exactly zero
    market = single_market(mu=0.0, sigma=0.0, cash_rate=0.0)
    env = PortfolioEnv(make_config(market=market), master_seed=0)
    env.reset(episode=0)
    for _ in range(4):
        result = env.step(np.array([1.0]))
        assert result.reward == 0.0
    assert env.state.wealth == 1000.0


def test_deterministic_drift_full_investment():
    # zero vol, no impact params: rewards settle at mu dt once invested; the
    # first period earns only half the move because the fill averages over it
    market = single_market(mu=0.12, sigma=0.0, cash_rate=0.0)
    env = PortfolioEnv(make_config(market=market), master_seed=0)
    env.reset(episode=0)
    mu_dt = 0.12 / 256
    first = env.step(np.array([1.0]))
    assert first.reward == pytest.approx(0.5 * mu_dt, abs=1e-6)
    for _ in range(10):
        result = env.step(np.array([1.0]))
        assert result.reward == pytest.approx(mu_dt, abs=1e-6)


def test_two_period_ledger_replication():
    # independently replay the step recipe: trade at effective opens, cost
    # against the pre-impact close, interest on the cash leg, permanent
    # impact after the fill, mark at the impacted close
    impact = ImpactParams(2e-7, 5e-6)
    market = RegimeModel.single(
        MarketParams(
            np.array([0.1, 0.06]),
            np.array([0.25, 0.18]),
            np.array([[1.0, 0.4], [0.4, 1.0]]),
            0.03,
        )
    )
    cfg = make_config(market=market, impact=impact, window=2)
    env = PortfolioEnv(cfg, master_seed=11)
    env.reset(episode=2)
    S = env.path.prices
    dt = cfg.dt
    R = math.exp(0.03 * dt)

    actions = [np.array([0.8, 0.4]), np.array([-0.2, 1.1])]
    mult = np.ones(2)
    cash, hold, wealth = 1000.0, np.zeros(2), 1000.0
    for t, action in enumerate(actions):
        s0 = S[t] * mult
        target = action * wealth / s0
        traded = target - hold
        s1_pre = S[t + 1] * mult
        cost = float(np.sum(trade_cost(s0, s1_pre, traded, dt, impact)))
        cash = (cash - float(traded @ s0) - cost) * R
        mult = mult * np.exp(impact.gamma * traded)
        hold = target
        new_wealth = cash + float(hold @ (S[t + 1] * mult))
        expected_reward = math.log(new_wealth / wealth)
        wealth = new_wealth

        result = env.step(action)
        assert result.reward == pytest.approx(expected_reward, rel=1e-10)
        assert result.info["cost_paid"] == pytest.approx(cost, rel=1e-10)
        state = env.state
        assert state.wealth == pytest.approx(wealth, rel=1e-10)
        assert state.cash == pytest.approx(cash, rel=1e-10)
        assert np.allclose(state.holdings, hold, rtol=1e-10)
        assert np.allclose(state.impact_state.multipliers, mult, rtol=1e-12)


def test_wealth_identity_and_reward_telescoping():
    cfg = make_config(
        market=RegimeModel.single(regime("etf3")),
        impact=ImpactParams(1e-9, 1e-7),
    )
    env = PortfolioEnv(cfg, master_seed=5)
    env.reset(episode=1)
    rng = np.random.default_rng(17)
    rewards = []
    while not env.done:
        result = env.step(rng.uniform(-0.3, 0.8, size=3))
        rewards.append(result.reward)
        state = env.state
        marked = state.cash + float(state.holdings @ state.prices)
        assert marked == pytest.approx(state.wealth, rel=1e-9)
    assert not result.info["bankrupt"]
    total = math.log(env.state.wealth / cfg.initial_wealth)
    assert sum(rewards) == pytest.approx(total, rel=1e-9, abs=1e-9)


def test_zero_impact_self_financing():
    # with no impact, wealth moves only through interest and price moves on
    # the held shares (executions average over the period: half the traded
    # shares ride the move)
    cfg = make_config(market=RegimeModel.single(regime("etf3")))
    env = PortfolioEnv(cfg, master_seed=2)
    env.reset(episode=0)
    S = env.path.prices
    dt = cfg.dt
    R = math.exp(0.04 * dt)
    rng = np.random.default_rng(23)
    prev = env.state
    for t in range(cfg.n_periods):
        env.step(rng.uniform(-0.5, 1.0, size=3))
        state = env.state
        traded = state.holdings - prev.holdings
        price_pnl = float((prev.holdings + 0.5 * traded) @ (S[t + 1] - S[t]))
        interest = state.cash * (1.0 - 1.0 / R)
        expected = interest + price_pnl
        actual = state.wealth - prev.wealth
        assert actual == pytest.approx(expected, rel=1e-10, abs=1e-10)
        prev = state


def test_observation_tracks_drifted_weights():
    cfg = make_config(window=2)
    env = PortfolioEnv(cfg, master_seed=4)
    env.reset(episode=0)
    result = env.step(np.array([0.5]))
    state = env.state
    expected_weight = float(state.holdings[0] * state.prices[0] / state.wealth)
    n, w = 1, 2
    assert result.observation[n * w] == pytest.approx(expected_weight, rel=1e-12)
    assert result.observation[-1] == pytest.approx(
        state.wealth / 1000.0, rel=1e-12
    )


def test_effective_prices_equal_unaffected_without_impact():
    cfg = make_config(market=RegimeModel.single(regime("etf3")))
    env = PortfolioEnv(cfg, master_seed=0)
    env.reset(episode=0)
    for _ in range(6):
        env.step(np.array([0.2, 0.2, 0.2]))
    eff = env.effective_episode_prices()
    assert eff.shape == (7, 3)
    assert np.array_equal(eff, env.path.prices[:7])


# -- lifecycle and termination -----------------------------------------------------


def test_lifecycle_errors():
    env = PortfolioEnv(make_config(), master_seed=0)
    with pytest.raises(LifecycleError):
        env.step(np.array([0.0]))
    with pytest.raises(LifecycleError):
        env.state
    with pytest.raises(LifecycleError):
        env.current_regime
    with pytest.raises(LifecycleError):
        env.effective_episode_prices()
    env.reset(episode=0)
    while not env.done:
        env.step(np.array([0.0]))
    with pytest.raises(LifecycleError):
        env.step(np.array([0.0]))


def test_action_shape_is_enforced():
    env = PortfolioEnv(make_config(), master_seed=0)
    env.reset(episode=0)
    with pytest.raises(ValueError, match="shape"):
        env.step(np.array([0.1, 0.2]))


def test_episode_terminates_at_horizon():
    cfg = make_config(horizon_years=2.0 / 256)
    env = PortfolioEnv(cfg, master_seed=0)
    env.reset(episode=0)
    assert cfg.n_periods == 2
    first = env.step(np.array([0.0]))
    assert not first.done
    second = env.step(np.array([0.0]))
    assert second.done
    assert not second.info["bankrupt"]
    assert env.t == 2


def test_bankruptcy_pays_the_penalty_and_terminates():
    market = single_market(mu=-50.0, sigma=0.0, cash_rate=0.0)
    env = PortfolioEnv(make_config(market=market), master_seed=0)
    env.reset(episode=0)
    result = env.step(np.array([1e6]))
    assert result.reward == BANKRUPTCY_REWARD
    assert result.done
    assert result.info["bankrupt"]
    assert env.state.wealth <= 0.0
    # drifted weights are reported as zeros once wealth is gone
    n, w = 1, 4
    assert result.observation[n * w] == 0.0
