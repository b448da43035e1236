"""Portfolio environment: accounting identities and lifecycle."""

import copy
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kellylab.env import BANKRUPTCY_REWARD, EnvConfig, PortfolioEnv
from kellylab.errors import ConfigError, LifecycleError
from kellylab.impact import ImpactParams, trade_cost
from kellylab.market import MarketParams, RegimeModel, generate_path
from kellylab.rng import episode_stream

from envstate import env_state
from shipped import regime, shipped


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


@pytest.mark.parametrize("seed", [2**32, -1])
def test_master_seed_outside_32_bits_is_rejected(seed):
    # episode streams key on the seed's low 32 bits: 2**32 would replay seed
    # 0, and -1 would replay 2**32 - 1
    with pytest.raises(ConfigError, match=r"master_seed: seed .* outside"):
        PortfolioEnv(make_config(), seed)
    PortfolioEnv(make_config(), 2**32 - 1).reset(episode=0)


# -- reset and observation layout ------------------------------------------------


def test_initial_observation_layout():
    cfg = make_config(market=RegimeModel.single(regime("etf3")), window=4)
    env = PortfolioEnv(cfg, master_seed=0)
    obs = env.reset(episode=0)
    assert obs.shape == (cfg.observation_dim,)
    history = obs[: 3 * 4].reshape(4, 3)
    # the newest history row is the episode open, normalized to 1
    assert np.array_equal(history[-1], np.ones(3))
    path = generate_path(cfg.market, cfg.n_periods, cfg.dt,
                         episode_stream(0, 0), warmup=3)
    assert np.array_equal(history[:-1], path.warmup_prices)
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
    prices = env_state(env).unaffected
    second = env.reset(episode=5)
    assert np.array_equal(first, second)
    assert np.array_equal(env_state(env).unaffected, prices)
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
    assert np.array_equal(env_state(a).unaffected, env_state(b).unaffected)
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
    assert env_state(env).wealth == pytest.approx(wealth, rel=1e-12)


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
    assert env_state(env).wealth == 1000.0


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
    S = env_state(env).unaffected
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
        state = env_state(env)
        assert state.wealth == pytest.approx(wealth, rel=1e-10)
        assert state.cash == pytest.approx(cash, rel=1e-10)
        assert np.allclose(state.holdings, hold, rtol=1e-10)
        assert np.allclose(state.multipliers, mult, rtol=1e-12)


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
        state = env_state(env)
        marked = state.cash + float(state.holdings @ state.prices)
        assert marked == pytest.approx(state.wealth, rel=1e-9)
    assert not result.bankrupt
    total = math.log(env_state(env).wealth / cfg.initial_wealth)
    assert sum(rewards) == pytest.approx(total, rel=1e-9, abs=1e-9)


def test_zero_impact_self_financing():
    # with no impact, wealth moves only through interest and price moves on
    # the held shares (executions average over the period: half the traded
    # shares ride the move)
    cfg = make_config(market=RegimeModel.single(regime("etf3")))
    env = PortfolioEnv(cfg, master_seed=2)
    env.reset(episode=0)
    S = env_state(env).unaffected
    dt = cfg.dt
    R = math.exp(0.04 * dt)
    rng = np.random.default_rng(23)
    prev = env_state(env)
    for t in range(cfg.n_periods):
        env.step(rng.uniform(-0.5, 1.0, size=3))
        state = env_state(env)
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
    state = env_state(env)
    expected_weight = float(state.holdings[0] * state.prices[0] / state.wealth)
    n, w = 1, 2
    assert result.observation[n * w] == pytest.approx(expected_weight, rel=1e-12)
    assert result.observation[-1] == pytest.approx(
        state.wealth / 1000.0, rel=1e-12
    )


def weight_row_observation(env):
    """The observation formula before step reused its own marks, kept as the
    oracle: (cash, stock) weights recomputed from the state, cash dropped."""
    state = env_state(env)
    cfg = env.config
    n, w = cfg.n_assets, cfg.window
    row = np.zeros(n + 1)
    if state.wealth > 0:
        row[1:] = state.holdings * state.prices / state.wealth
        row[0] = 1.0 - row[1:].sum()
    obs = np.empty(cfg.observation_dim)
    obs[: n * w] = state.history.ravel()
    obs[n * w : n * w + n] = row[1:]
    obs[-1] = state.wealth / cfg.initial_wealth
    return obs


@pytest.mark.parametrize("leverage, bankrupt", [(0.4, False), (40.0, True)])
def test_step_observation_equals_the_weight_row_formula(leverage, bankrupt):
    # regimes3 with its impact, so multipliers move and regimes switch
    cfg = make_config(market=shipped("regimes3").market,
                      impact=shipped("regimes3").env.impact, window=5,
                      horizon_years=1.0)
    env = PortfolioEnv(cfg, master_seed=3)
    obs = env.reset(episode=1)
    assert np.array_equal(obs, weight_row_observation(env))
    signs = np.array([1.0, -0.5, 0.8])
    result = None
    while result is None or not result.done:
        result = env.step(leverage * signs * (1.0 + 0.1 * np.sin(env.t)))
        assert np.array_equal(result.observation, weight_row_observation(env))
    assert result.bankrupt == bankrupt
    assert (env.t < cfg.n_periods) == bankrupt


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("leverage", [0.4, 40.0])
def test_each_observation_slides_the_price_window_by_one_row(leverage):
    # RolloutBuffer keeps an episode's price rows once on this contract: an
    # observation's rows are the previous one's last window - 1 rows and one
    # new row
    cfg = make_config(market=shipped("regimes3").market,
                      impact=shipped("regimes3").env.impact, window=5,
                      horizon_years=1.0)
    env = PortfolioEnv(cfg, master_seed=3)
    n = cfg.n_assets
    head = n * cfg.window
    obs = env.reset(episode=1)
    result = None
    while result is None or not result.done:
        result = env.step(leverage * np.array([1.0, -0.5, 0.8]))
        new = result.observation
        assert np.array_equal(new[: head - n].view(np.int64),
                              obs[n:head].view(np.int64))
        obs = new


def test_effective_prices_equal_unaffected_without_impact():
    cfg = make_config(market=RegimeModel.single(regime("etf3")))
    env = PortfolioEnv(cfg, master_seed=0)
    env.reset(episode=0)
    for _ in range(6):
        env.step(np.array([0.2, 0.2, 0.2]))
    eff = env.effective_episode_prices()
    assert eff.shape == (7, 3)
    assert np.array_equal(eff, env_state(env).unaffected[:7])


# -- lifecycle and termination -----------------------------------------------------


def test_lifecycle_errors():
    env = PortfolioEnv(make_config(), master_seed=0)
    with pytest.raises(LifecycleError):
        env.step(np.array([0.0]))
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
    assert not second.bankrupt
    assert env.t == 2


def test_bankruptcy_pays_the_penalty_and_terminates():
    market = single_market(mu=-50.0, sigma=0.0, cash_rate=0.0)
    env = PortfolioEnv(make_config(market=market), master_seed=0)
    env.reset(episode=0)
    result = env.step(np.array([1e6]))
    assert result.reward == BANKRUPTCY_REWARD
    assert result.done
    assert result.bankrupt
    assert env_state(env).wealth <= 0.0
    # drifted weights are reported as zeros once wealth is gone
    n, w = 1, 4
    assert result.observation[n * w] == 0.0


@pytest.mark.parametrize(
    "master_seed, episode, last_t",
    [(3, 1, 9), (1, 0, 7)],
    ids=["multiplier-underflow", "wealth-overflow"],
)
def test_non_finite_step_ends_the_episode_as_bankrupt(master_seed, episode,
                                                      last_t):
    # compounding 60x leverage on regimes3: at seed 3 a multiplier underflows
    # to 0 while wealth is 1e91; at seed 1 wealth overflows to inf. Either
    # step must end the episode with the penalty, not carry on.
    cfg = make_config(market=shipped("regimes3").market,
                      impact=shipped("regimes3").env.impact, window=5,
                      horizon_years=1.0)
    env = PortfolioEnv(cfg, master_seed=master_seed)
    env.reset(episode=episode)
    signs = np.array([1.0, -0.5, 0.8])
    rewards = []
    with np.errstate(all="ignore"):
        while not env.done:
            result = env.step(60.0 * signs * (1.0 + 0.1 * np.sin(env.t)))
            rewards.append(result.reward)
    assert env.t == last_t
    assert result.bankrupt
    assert rewards[-1] == BANKRUPTCY_REWARD
    assert all(math.isfinite(r) for r in rewards)
    state = env_state(env)
    assert not (0.0 < state.wealth < math.inf
                and np.all((state.multipliers > 0.0)
                           & (state.multipliers < math.inf)))
    assert np.array_equal(result.observation[15:18], np.zeros(3))


def test_wealth_overflow_without_impact_is_bankrupt():
    # no impact keeps every multiplier at 1, so only the wealth bound can
    # catch the step whose stock leg overflows to inf
    market = single_market(mu=50.0, sigma=0.0, cash_rate=0.0)
    env = PortfolioEnv(make_config(market=market, horizon_years=15.0,
                                   window=1), master_seed=0)
    with np.errstate(all="ignore"):  # the path's last prices overflow too
        env.reset(episode=0)
        while not env.done:
            result = env.step(np.array([1.0]))
    assert env.t == 3600 < env.config.n_periods
    state = env_state(env)
    assert state.wealth == math.inf
    assert result.bankrupt
    assert result.reward == BANKRUPTCY_REWARD
    assert np.array_equal(state.multipliers, np.ones(1))


# -- the per-asset float cost against the array step --------------------------


def array_step(env, action, total=np.sum):
    """The step as it was before it priced each asset on Python floats, kept
    as the oracle: one trade_cost call on (n,) arrays summed by `total`
    (np.sum by default), with the same bankruptcy rule. Steps `env` in
    place."""
    t = env._t
    a = np.asarray(action, dtype=np.float64)
    unaffected = env._unaffected
    s0_eff = unaffected[t] * env._mult
    wealth = env._wealth
    target_holdings = a * wealth / s0_eff
    traded = target_holdings - env._holdings
    s1_pre = unaffected[t + 1] * env._mult
    costs = trade_cost(s0_eff, s1_pre, traded, env._dt, env._impact)
    cost_paid = float(total(costs))
    cash = env._cash - float(traded @ s0_eff) - cost_paid
    cash *= env._interest[env._regimes[t]]
    env._mult = env._mult * np.exp(env._impact.gamma * traded)
    s1_eff = unaffected[t + 1] * env._mult
    env._holdings = target_holdings
    new_wealth = cash + float(target_holdings @ s1_eff)
    env._cash = cash
    env._t = t = t + 1
    env._eff_hist[env._window - 1 + t] = s1_eff
    bankrupt = not (0.0 < new_wealth < math.inf
                    and np.all((env._mult > 0.0) & (env._mult < math.inf)))
    if bankrupt:
        reward = BANKRUPTCY_REWARD
        env._done = True
    else:
        reward = math.log(new_wealth / wealth)
        env._done = t == env._n_periods
    env._wealth = new_wealth
    return env._observation(s1_eff, bankrupt), reward, env._done, bankrupt


def same_bits(new, old):
    """Bitwise equal float arrays, any NaN matching any NaN."""
    new = np.asarray(new, dtype=np.float64)
    old = np.asarray(old, dtype=np.float64)
    nan = np.isnan(new) & np.isnan(old)
    return np.array_equal(np.where(nan, 0.0, new).view(np.int64),
                          np.where(nan, 0.0, old).view(np.int64))


def left_fold(costs):
    """The step's cost sum: left to right from 0.0."""
    cost_paid = 0.0
    for cost in costs.tolist():
        cost_paid += cost
    return cost_paid


def random_env(n, seed, master_seed, eta, gamma):
    """A one-regime market over n assets with random drifts, vols and a
    random positive definite correlation, 32 periods, window 3."""
    rng = np.random.default_rng(seed)
    factors = rng.normal(size=(n, n))
    cov = factors @ factors.T + n * np.eye(n)
    scale = np.sqrt(np.diag(cov))
    corr = cov / np.outer(scale, scale)
    corr = 0.5 * (corr + corr.T)
    np.fill_diagonal(corr, 1.0)
    market = RegimeModel.single(MarketParams(
        rng.uniform(-0.5, 0.5, n), rng.uniform(0.0, 0.8, n), corr,
        rng.uniform(0.0, 0.1)))
    cfg = make_config(market=market, impact=ImpactParams(eta, gamma),
                      horizon_years=32 / 256, window=3)
    return PortfolioEnv(cfg, master_seed=master_seed), rng


def check_steps_against_oracle(n, seed, master_seed, leverage, eta, gamma,
                               total=np.sum):
    """Step from each state twice, by env.step and by array_step on a deep
    copy, and check that every output and the state after the step have
    the same bits."""
    env, rng = random_env(n, seed, master_seed, eta, gamma)
    env.reset(episode=seed % 7)
    with np.errstate(all="ignore"):
        while not env.done:
            action = leverage * rng.uniform(-1.0, 1.0, n)
            twin = copy.deepcopy(env)
            obs, reward, done, bankrupt = array_step(twin, action, total)
            result = env.step(action)
            assert same_bits(result.observation, obs)
            assert same_bits(result.reward, reward)
            assert result.done == done
            assert result.bankrupt == bankrupt
            state, expected = env_state(env), env_state(twin)
            assert state.regime == expected.regime
            for name in ("prices", "history", "holdings", "cash", "wealth",
                         "multipliers"):
                assert same_bits(getattr(state, name), getattr(expected, name))


impact_params = dict(
    eta=st.floats(0.0, 1e-7),
    gamma=st.floats(0.0, 1e-5),
)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 7), seed=st.integers(0, 2**32 - 1),
       master_seed=st.integers(0, 1000), leverage=st.floats(0.0, 80.0),
       **impact_params)
def test_step_equals_the_array_step_bitwise_up_to_7_assets(
        n, seed, master_seed, leverage, eta, gamma):
    check_steps_against_oracle(n, seed, master_seed, leverage, eta, gamma)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(8, 12), seed=st.integers(0, 2**32 - 1),
       master_seed=st.integers(0, 1000), leverage=st.floats(0.0, 80.0),
       **impact_params)
# a reward of -1.2e-4 whose np.sum total differed by 3.7e-12 relative
@example(n=9, seed=1351977, master_seed=400, leverage=0.99, eta=0.0,
         gamma=0.0)
def test_step_agrees_with_the_array_step_from_8_assets(
        n, seed, master_seed, leverage, eta, gamma):
    # numpy's unrolled sum groups 8 or more costs differently from the
    # step's left fold, so the oracle sums them in the step's order: a
    # tolerance on the np.sum total fails on rewards near 0, where ~1e-16
    # absolute is more than 1e-12 relative
    check_steps_against_oracle(n, seed, master_seed, leverage, eta, gamma,
                               left_fold)


# -- lockstep waves against the float step ------------------------------------


def random_regime_config(n, rng, n_regimes, eta, gamma, horizon_periods=32,
                         window=3):
    """A market of n assets and n_regimes regimes switching every ~4
    periods, with random drifts, vols, correlations and cash rates."""
    regimes = []
    for _ in range(n_regimes):
        factors = rng.normal(size=(n, n))
        cov = factors @ factors.T + n * np.eye(n)
        scale = np.sqrt(np.diag(cov))
        corr = cov / np.outer(scale, scale)
        corr = 0.5 * (corr + corr.T)
        np.fill_diagonal(corr, 1.0)
        regimes.append(MarketParams(rng.uniform(-0.5, 0.5, n),
                                    rng.uniform(0.0, 0.8, n), corr,
                                    rng.uniform(0.0, 0.1)))
    stay = 0.75 if n_regimes > 1 else 1.0
    transition = np.full((n_regimes, n_regimes),
                         (1.0 - stay) / max(n_regimes - 1, 1))
    np.fill_diagonal(transition, stay)
    market = RegimeModel(regimes, transition,
                         np.full(n_regimes, 1.0 / n_regimes))
    return make_config(market=market, impact=ImpactParams(eta, gamma),
                       horizon_years=horizon_periods / 256, window=window)


def check_wave_against_float_steps(cfg, master_seed, episodes, action):
    """Step a lockstep wave over `episodes` and, beside it, one one-lane env
    per lane with the float step, giving both action(lane, t). Every output,
    the wave's clock and each live lane's prices (its row of the wave's
    block) must have the same bits as the twin's, and before every wave
    step the wave's regimes() and observations() must give each live lane's
    label and the bits of its twin's observation. A lane that left holds
    its twin's final clock and history. Returns each lane's episode
    length."""
    lanes = [PortfolioEnv(cfg, master_seed) for _ in episodes]
    twins = [PortfolioEnv(cfg, master_seed) for _ in episodes]
    wave = PortfolioEnv.lockstep(lanes, episodes)
    observations = [twin.reset(episode=episode)
                    for twin, episode in zip(twins, episodes)]
    w1 = cfg.window - 1
    with np.errstate(all="ignore"):
        while True:
            live = wave.live.copy()
            regimes, block = wave.regimes(), wave.observations()
            assert block.shape == (len(live), cfg.observation_dim)
            assert regimes.shape == (len(live),)
            for row, i in enumerate(live):
                assert regimes[row] == env_state(twins[i]).regime
                assert same_bits(block[row], observations[i])
            if wave.done:
                break
            actions = np.array([action(i, wave.t) for i in live])
            result = wave.step(actions)
            assert result.observation is None
            for row, i in enumerate(live):
                twin = twins[i]
                expected = twin.step(actions[row])
                observations[i] = expected.observation
                assert same_bits(result.reward[row], expected.reward)
                assert result.done[row] == expected.done
                assert result.bankrupt[row] == expected.bankrupt
                assert wave.t == twin.t
                assert same_bits(wave._eff_hist[i, w1 : w1 + wave.t + 1],
                                 twin.effective_episode_prices())
    # a lane that left the wave holds its float twin's clock and history
    for lane, twin in zip(lanes, twins):
        state, expected = env_state(lane), env_state(twin)
        assert state.t == expected.t and state.regimes == expected.regimes
        for name in ("history", "unaffected"):
            assert same_bits(getattr(state, name), getattr(expected, name))
    return [lane.t for lane in lanes]


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 8), seed=st.integers(0, 2**32 - 1),
       master_seed=st.integers(0, 1000),
       n_regimes=st.integers(1, 2),
       eta=st.floats(1e-9, 1e-6),
       gamma=st.one_of(st.floats(1e-9, 1e-5), st.floats(1e-3, 0.1)),
       episodes=st.lists(st.integers(0, 3), min_size=1, max_size=7),
       leverage=st.lists(st.floats(-80.0, 80.0), min_size=7, max_size=7))
def test_a_wave_steps_each_lane_as_the_float_step_does(
        n, seed, master_seed, n_regimes, eta, gamma, episodes, leverage):
    # leveraged and short lanes, lanes that replay one episode, and (at
    # large gamma or leverage) lanes whose multipliers reach 0 or inf and
    # leave the wave before the others
    rng = np.random.default_rng(seed)
    cfg = random_regime_config(n, rng, n_regimes, eta, gamma)
    signs = rng.choice([-1.0, 1.0], size=(7, n))

    def action(lane, t):
        return leverage[lane] * signs[lane] * (1.0 + 0.1 * np.sin(t + lane))

    check_wave_against_float_steps(cfg, master_seed, episodes, action)


def test_a_wave_ends_bankrupt_lanes_as_the_float_step_does():
    # regimes3 at 60x leverage: at seed 3 episode 1 a multiplier underflows
    # to 0 at t = 9, at seed 1 episode 0 wealth overflows to inf at t = 7;
    # tame lanes on the same episodes run to the horizon
    cfg = make_config(market=shipped("regimes3").market,
                      impact=shipped("regimes3").env.impact, window=5,
                      horizon_years=1.0)
    signs = np.array([1.0, -0.5, 0.8])
    leverage = [60.0, 0.5, 60.0, -0.3, 60.0]

    def action(lane, t):
        return leverage[lane] * signs * (1.0 + 0.1 * np.sin(t))

    assert check_wave_against_float_steps(cfg, 3, [1, 1, 1, 1, 0],
                                          action)[:2] == [9, cfg.n_periods]
    lengths = check_wave_against_float_steps(cfg, 1, [0, 0, 0, 2, 0], action)
    assert lengths[:2] == [7, cfg.n_periods]
    assert lengths[3] == cfg.n_periods


def test_a_lane_that_left_its_wave_steps_again_only_after_a_reset():
    # regimes3 at 60x leverage, seed 3 episode 1: the first lane goes
    # bankrupt at t = 9, and the tame second lane leaves at the horizon
    cfg = make_config(market=shipped("regimes3").market,
                      impact=shipped("regimes3").env.impact, window=5,
                      horizon_years=1.0)
    signs = np.array([1.0, -0.5, 0.8])
    leverage = np.array([[60.0], [0.5]])
    lanes = [PortfolioEnv(cfg, 3) for _ in range(2)]
    wave = PortfolioEnv.lockstep(lanes, [1, 1])
    while not wave.done:
        wave.step(leverage[wave.live] * signs * (1.0 + 0.1 * np.sin(wave.t)))
        if wave.t == 9:
            assert lanes[0].done and lanes[0].t == 9
            with pytest.raises(LifecycleError, match="finished episode"):
                lanes[0].step(signs)
    assert [lane.t for lane in lanes] == [9, cfg.n_periods]
    for lane in lanes:
        assert lane.done
        with pytest.raises(LifecycleError, match="finished episode"):
            lane.step(signs)
    lanes[1].reset(episode=1)
    assert lanes[1].t == 0 and not lanes[1].step(0.5 * signs).done


def test_lanes_of_one_episode_share_one_generated_path(monkeypatch):
    import kellylab.env as env_module

    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return generate_path(*args, **kwargs)

    monkeypatch.setattr(env_module, "generate_path", counting)
    cfg = make_config(market=shipped("regimes3").market, window=5)
    lanes = [PortfolioEnv(cfg, 2) for _ in range(5)]
    PortfolioEnv.lockstep(lanes, [4, 1, 4, 4, 1])
    assert len(calls) == 2
    # each path is stored once: lanes hold views of the wave's copy
    assert np.shares_memory(lanes[0]._unaffected, lanes[2]._unaffected)
    assert not np.shares_memory(lanes[0]._unaffected, lanes[1]._unaffected)
    assert np.array_equal(lanes[0]._unaffected,
                          generate_path(cfg.market, cfg.n_periods, cfg.dt,
                                        episode_stream(2, 4),
                                        warmup=4).prices)
    # and every lane's effective-price history is a row of one block
    assert all(np.shares_memory(lane._eff_hist, lanes[0]._eff_hist.base)
               for lane in lanes)


def test_lockstep_rejects_mismatched_lanes():
    cfg = make_config()
    first = PortfolioEnv(cfg, 0)
    with pytest.raises(ValueError, match="one config"):
        PortfolioEnv.lockstep([first, PortfolioEnv(make_config(), 0)], [0, 1])
    with pytest.raises(ValueError, match="episodes"):
        PortfolioEnv.lockstep([first], [0, 1])
    wave = PortfolioEnv.lockstep([first, PortfolioEnv(cfg, 0)], [0, 1])
    with pytest.raises(ValueError, match="shape"):
        wave.step(np.zeros((1, 1)))
    # a wave's block of price rows is no one-lane history
    with pytest.raises(LifecycleError, match="lockstep"):
        wave.reset(episode=0)
    with pytest.raises(LifecycleError, match="lanes"):
        wave.effective_episode_prices()


def test_stacked_matmul_dots_and_batched_exp_keep_the_one_lane_bits():
    # A wave's dots are (B,1,n) @ (B,n,1) matmuls and its exp is one call,
    # relied on to give each row the bits of the float step's 1-D `@` and
    # np.exp. That holds for the BLAS and numpy this package is tested on;
    # a build for which it does not must fail here rather than let a
    # wave drift from the one-lane step.
    rng = np.random.default_rng(13)
    for n in range(1, 9):
        for lanes in (1, 2, 7, 64, 140, 200):
            a = rng.normal(0.0, 1e3, size=(lanes, n))
            b = rng.uniform(0.5, 2.0, size=(lanes, n))
            dots = (a[:, None, :] @ b[:, :, None])[:, 0, 0]
            x = rng.normal(0.0, 2.0, size=(lanes, n))
            exps = np.exp(x)
            for i in range(lanes):
                assert dots[i].tobytes() == (a[i] @ b[i]).tobytes(), (n, i)
                assert exps[i].tobytes() == np.exp(x[i]).tobytes(), (n, i)
