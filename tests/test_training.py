"""Evaluation harness and the rollout/update training loop."""

import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kellylab import hmm as hmm_module
from kellylab import training
from kellylab.baselines import RegimeSwitchingPolicy
from kellylab.env import EnvConfig, PortfolioEnv
from kellylab.errors import FitError
from kellylab.hmm import GaussianHmmModel, HmmFitConfig
from kellylab.impact import ImpactParams
from kellylab.market import MarketParams, RegimeModel
from kellylab.nets import Adam, ContextPolicyNet, PolicyNet
from kellylab.rl import RolloutBuffer, TrainConfig, ppo_update
from kellylab.rng import ACTION_STREAM, HMM_STREAM, UPDATE_STREAM, stream
from kellylab.training import (
    DETECTOR_FIT_EPISODES,
    EVAL_EPISODE_OFFSET,
    EpisodeLogRow,
    EvalResult,
    NetPolicy,
    evaluate,
    train,
    write_training_log,
)

from envstate import BatchOfOne, env_state
from forwardpass import assert_open_window_scores, window_label, window_labels


def make_config(mu=0.12, sigma=0.2, horizon_years=0.0625, window=2,
                initial_wealth=1000.0):
    market = MarketParams(np.array([mu]), np.array([sigma]), np.eye(1), 0.04)
    return EnvConfig(
        horizon_years=horizon_years,
        periods_per_year=256,
        window=window,
        initial_wealth=initial_wealth,
        market=RegimeModel.single(market),
        impact=ImpactParams(0.0, 0.0),
    )


def factory_for(config):
    return lambda seed: PortfolioEnv(config, seed)


def small_ppo(total_steps, **overrides):
    base = dict(rollout_steps=16, batch_size=8, n_epochs=2)
    base.update(overrides)
    return TrainConfig.ppo(total_steps, **base)


def sequential_evaluate(policy, env_factory, n_episodes, seed,
                        episode_offset=0):
    """Oracle: evaluate's one-episode-at-a-time loop from before lanes.

    One environment plays the episodes in order with the float step, and
    the policy sees it as a batch of one. Returns the EvalResult and each
    episode's step count.
    """
    env = BatchOfOne(env_factory(seed))
    growths = []
    lengths = []
    bankruptcies = 0
    for episode in range(episode_offset, episode_offset + n_episodes):
        env.reset(episode)
        policy.reset(env)
        reward_sum = 0.0
        while True:
            result = env.step(policy.act(env))
            reward_sum += result.reward
            if result.done:
                bankrupt = result.bankrupt
                break
        lengths.append(env.t)
        if bankrupt:
            bankruptcies += 1
        else:
            growths.append(reward_sum / env.config.horizon_years)
    if growths:
        arr = np.asarray(growths)
        mean = float(arr.mean())
        mad = float(np.mean(np.abs(arr - mean)))
    else:
        mean = float("nan")
        mad = float("nan")
    return EvalResult(mean, mad, bankruptcies, n_episodes, growths), lengths


def two_regime_config(sigma=0.3, window=2, impact=None):
    """Two assets, two regimes switching every ~5 periods, 32 periods."""
    corr = np.array([[1.0, 0.3], [0.3, 1.0]])
    bull = MarketParams(np.array([0.4, 0.2]), np.array([sigma, 0.2]), corr,
                        0.04)
    bear = MarketParams(np.array([-0.3, 0.0]), np.array([2 * sigma, 0.3]),
                        corr, 0.01)
    market = RegimeModel([bull, bear], np.array([[0.8, 0.2], [0.2, 0.8]]),
                         np.array([0.5, 0.5]))
    return EnvConfig(
        horizon_years=0.125,
        periods_per_year=256,
        window=window,
        initial_wealth=1000.0,
        market=market,
        impact=impact if impact is not None else ImpactParams(1e-4, 1e-5),
    )


def assert_bitwise_equal(got, expected):
    assert got.growths == expected.growths
    assert got.bankruptcies == expected.bankruptcies
    assert got.n_episodes == expected.n_episodes
    assert np.array_equal([got.mean_growth, got.mad],
                          [expected.mean_growth, expected.mad],
                          equal_nan=True)


@pytest.mark.parametrize("adjustment_periods", [1, 4])
@pytest.mark.parametrize("lanes", [1, 3, 4, 16])
def test_lockstep_analytic_evaluation_equals_the_sequential_loop(
        lanes, adjustment_periods):
    # 7 episodes from offset 5: 3 and 4 lanes leave a partial last wave
    config = two_regime_config()
    env = PortfolioEnv(config, 4)
    env.reset(episode=5)
    assert len(set(env_state(env).regimes)) == 2  # regimes switch
    policy = RegimeSwitchingPolicy(np.array([[1.5, 0.5], [-0.5, 0.2]]),
                                   adjustment_periods, fraction=0.7)
    expected, _ = sequential_evaluate(policy, factory_for(config), 7, seed=4,
                                      episode_offset=5)
    policy.lanes = lanes
    got = evaluate(policy, factory_for(config), 7, seed=4, episode_offset=5)
    assert_bitwise_equal(got, expected)


def test_lockstep_lanes_run_on_past_a_bankrupt_lane():
    # levered bets on a volatile asset: some episodes go bankrupt early
    config = two_regime_config(sigma=1.0, impact=ImpactParams(0.0, 0.0))
    policy = RegimeSwitchingPolicy(np.array([[6.0, 0.0], [6.0, 0.0]]), 2)
    expected, lengths = sequential_evaluate(policy, factory_for(config), 6,
                                            seed=0)
    # a wave of 3 lanes in which one lane ends early and another survives
    waves = [lengths[:3], lengths[3:]]
    assert any(min(w) < config.n_periods == max(w) for w in waves)
    policy.lanes = 3
    got = evaluate(policy, factory_for(config), 6, seed=0)
    assert 0 < got.bankruptcies < 6
    assert_bitwise_equal(got, expected)


@pytest.mark.parametrize("context", [False, True])
def test_lockstep_net_evaluation_is_within_1e13_absolute_of_the_sequential_loop(
        context):
    # A many-row forward rounds differently from a one-row one, so a growth
    # moves by a few 1e-15 absolute: on this market, 12 freshly initialised
    # nets moved none by more than 4.4e-15. That is more than 1e-12 relative
    # for a growth near 0 (2.5e-12 at a growth of 3.5e-4), so the
    # per-episode bound is absolute.
    config = two_regime_config(window=3)
    rng = np.random.default_rng(3)
    if context:
        detector = GaussianHmmModel(
            means=np.array([[0.002, 0.001], [-0.002, 0.0]]),
            covariances=np.array([np.eye(2) * 4e-4, np.eye(2) * 1.6e-3]),
            transition=np.array([[0.8, 0.2], [0.2, 0.8]]),
            initial=np.array([0.5, 0.5]),
        )
        net = ContextPolicyNet(config.observation_dim, 2, 2, rng,
                               feature_sizes=(16, 8), regime_sizes=(8, 8),
                               shared_sizes=(8,))
    else:
        detector = None
        net = PolicyNet(config.observation_dim, 2, rng, hidden=(16, 16))
    policy = NetPolicy(net, detector)
    assert policy.lanes == 64
    # 70 episodes: a full 64-lane wave and a partial one
    expected, _ = sequential_evaluate(policy, factory_for(config), 70, seed=1,
                                      episode_offset=3)
    got = evaluate(policy, factory_for(config), 70, seed=1, episode_offset=3)
    assert got.bankruptcies == expected.bankruptcies
    assert len(set(np.round(got.growths, 6))) > 1
    np.testing.assert_allclose(got.growths, expected.growths, rtol=0.0,
                               atol=1e-13)
    np.testing.assert_allclose([got.mean_growth, got.mad],
                               [expected.mean_growth, expected.mad],
                               rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("lanes", [2, 256])
def test_evaluate_plays_a_sequence_of_episodes_one_lane_each(lanes):
    # repeated episodes, counted from the offset, some of them bankrupt
    config = two_regime_config(sigma=1.0, impact=ImpactParams(0.0, 0.0))
    policy = RegimeSwitchingPolicy(np.array([[6.0, 0.0], [6.0, 0.0]]), 2)
    episodes = [3, 0, 3, 4, 0, 3, 1]
    alone = [sequential_evaluate(policy, factory_for(config), 1, seed=0,
                                 episode_offset=1 + e)[0] for e in episodes]
    policy.lanes = lanes
    got = evaluate(policy, factory_for(config), episodes, seed=0,
                   episode_offset=1)
    assert got.n_episodes == 7
    assert got.bankrupt == [r.bankruptcies == 1 for r in alone]
    assert 0 < got.bankruptcies < 7
    assert got.growths == [g for r in alone for g in r.growths]


def test_evaluate_is_deterministic_and_offsets_are_disjoint():
    assert EVAL_EPISODE_OFFSET == 1_000_000
    config = make_config()
    policy = RegimeSwitchingPolicy(np.array([[0.5]]))
    first = evaluate(policy, factory_for(config), 4, seed=3)
    second = evaluate(policy, factory_for(config), 4, seed=3)
    assert first.growths == second.growths
    assert first.mean_growth == second.mean_growth
    assert first.bankruptcies == 0
    assert first.n_episodes == 4

    offset = evaluate(policy, factory_for(config), 4, seed=3, episode_offset=2)
    # overlapping episode indices see identical paths, so growths align
    assert offset.growths[0] == first.growths[2]
    assert offset.growths[1] == first.growths[3]
    assert offset.growths[2] not in first.growths

    # mad is the mean absolute deviation about the mean
    arr = np.asarray(first.growths)
    assert first.mad == pytest.approx(float(np.mean(np.abs(arr - arr.mean()))),
                                      rel=1e-15)


def test_evaluate_matches_a_manual_rollout():
    config = make_config()
    policy = RegimeSwitchingPolicy(np.array([[0.5]]))
    result = evaluate(policy, factory_for(config), 1, seed=9,
                      episode_offset=7)
    env = PortfolioEnv(config, 9)
    env.reset(episode=7)
    total = 0.0
    done = False
    while not done:
        step = env.step(np.array([0.5]))
        total += step.reward
        done = step.done
    assert result.growths[0] == total / config.horizon_years


def test_evaluate_all_bankrupt_is_nan():
    config = make_config(mu=-50.0, sigma=0.0)
    policy = RegimeSwitchingPolicy(np.array([[1e6]]))
    result = evaluate(policy, factory_for(config), 3, seed=0)
    assert result.bankruptcies == 3
    assert result.growths == []
    assert math.isnan(result.mean_growth)
    assert math.isnan(result.mad)


class PerLaneLabelPolicy(NetPolicy):
    """Oracle: a context NetPolicy that labels each lane's window alone,
    with the one-window label oracle."""

    def __init__(self, net, detector):
        super().__init__(net, detector)
        self.labels_seen = set()

    def act(self, env):
        obs = env.observations()
        window, n_assets = env.config.window, env.config.n_assets
        prices = obs[:, : window * n_assets].reshape(len(obs), window, n_assets)
        labels = window_labels(self.detector, np.diff(np.log(prices), axis=1))
        self.labels_seen.update(labels)
        contexts = np.eye(self.net.context_dim)[labels]
        mean, _ = self.net.forward(obs, contexts)
        return mean


@pytest.mark.parametrize("window", [2, 9])
def test_stacked_detector_labels_give_the_per_lane_growths_bit_for_bit(window):
    # window 2 gives one-row return windows; a lone one is solved as its
    # row twice over, to get the bits it has in a block of lanes
    config = two_regime_config(window=window)
    detector = GaussianHmmModel(
        means=np.array([[0.002, 0.001], [-0.002, 0.0]]),
        covariances=np.array([np.eye(2) * 4e-4, np.eye(2) * 1.6e-3]),
        transition=np.array([[0.8, 0.2], [0.2, 0.8]]),
        initial=np.array([0.5, 0.5]),
    )
    net = ContextPolicyNet(config.observation_dim, 2, 2,
                           np.random.default_rng(5), feature_sizes=(16, 8),
                           regime_sizes=(8, 8), shared_sizes=(8,))
    oracle = PerLaneLabelPolicy(net, detector)
    # 70 episodes: a 64-lane wave, then a 6-lane one
    expected = evaluate(oracle, factory_for(config), 70, seed=2,
                        episode_offset=1)
    assert oracle.labels_seen == {0, 1}
    got = evaluate(NetPolicy(net, detector), factory_for(config), 70, seed=2,
                   episode_offset=1)
    assert_bitwise_equal(got, expected)
    assert len(set(got.growths)) > 1


class PriceWave:
    """Just enough of a wave's surface for a context NetPolicy, over given
    price paths (B, rows, n): at clock t each live lane's observation
    starts with its price rows t..t+window-1."""

    def __init__(self, prices, window, rng):
        lanes, _, n = prices.shape
        self.config = SimpleNamespace(window=window, n_assets=n)
        self.prices = prices
        self.rest = rng.normal(size=(lanes, n + 1))
        self.t = 0
        self.live = np.arange(lanes)

    def observations(self):
        window = self.config.window
        rows = self.prices[self.live, self.t : self.t + window]
        return np.hstack([rows.reshape(len(self.live), -1),
                          self.rest[self.live]])


@settings(max_examples=80, deadline=None, derandomize=True)
@given(k=st.integers(2, 4), n=st.integers(1, 4), window=st.integers(2, 61),
       lanes=st.one_of(st.integers(1, 6), st.just(64)),
       seed=st.integers(0, 2**32 - 1))
def test_sliding_context_labels_equal_each_windows_predict_current(
        k, n, window, lanes, seed):
    # the live set shrinks down to one lane, and clock jumps (forward, back
    # or none) force full recomputes between one-row slides; a 64-lane wave
    # is a full NetPolicy wave
    rng = np.random.default_rng(seed)
    a = rng.normal(0.0, 0.01, size=(k, n, n))
    detector = GaussianHmmModel(
        means=rng.normal(0.0, 0.02, size=(k, n)),
        covariances=a @ a.transpose(0, 2, 1)
        + rng.uniform(1e-5, 1e-3, size=(k, 1, 1)) * np.eye(n),
        transition=rng.dirichlet(np.ones(k), size=k),
        initial=rng.dirichlet(np.ones(k)),
    )
    periods = 40
    states = rng.integers(0, k, size=(lanes, window + periods))
    returns = detector.means[states] + rng.normal(
        0.0, 0.02, size=(lanes, window + periods, n))
    prices = 100.0 * np.exp(np.cumsum(returns, axis=1))
    net = ContextPolicyNet(n * window + n + 1, k, n, rng,
                           feature_sizes=(8, 4), regime_sizes=(4, 4),
                           shared_sizes=(4,))
    seen = []
    forward = net.forward

    def recording_forward(obs, contexts):
        seen.append(contexts)
        return forward(obs, contexts)

    net.forward = recording_forward
    policy = NetPolicy(net, detector)
    env = PriceWave(prices, window, rng)
    policy.reset(env)
    while env.t < periods and env.live.size:
        policy.act(env)
        windows = np.diff(np.log(prices[env.live, env.t : env.t + window]),
                          axis=1)
        want = window_labels(detector, windows)
        contexts = seen[-1]
        assert contexts.shape == (env.live.size, k)
        assert (contexts.sum(axis=1) == 1.0).all()
        assert contexts.argmax(axis=1).tolist() == want
        # each open window's score has the bits of the forward pass over
        # its rows so far, solved as each window's own emissions (every
        # third clock: the oracle takes T passes)
        if env.t % 3 == 0:
            emis = np.stack([hmm_module._emission_logprobs(detector, w)
                             for w in windows])
            assert_open_window_scores(policy._labels, env.t, emis)
        move = rng.uniform()
        if move < 0.1:
            env.t = int(rng.integers(0, periods))
        else:
            env.t += 1
        if move > 0.8 and env.live.size > 1:
            env.live = env.live[rng.uniform(size=env.live.size) < 0.6]
            if not env.live.size:
                env.live = np.array([int(rng.integers(0, lanes))])


def test_policy_wrappers_validate_their_inputs():
    context_net = ContextPolicyNet(
        4, 2, 1, np.random.default_rng(0),
        feature_sizes=(8, 4), regime_sizes=(4, 4), shared_sizes=(4,),
    )
    with pytest.raises(ValueError, match="regime detector"):
        NetPolicy(context_net)


def test_context_net_policy_acts_from_detected_regime():
    config = make_config(window=3)
    detector = GaussianHmmModel(
        means=np.array([[-0.001], [0.001]]),
        covariances=np.full((2, 1, 1), 1e-4),
        transition=np.array([[0.9, 0.1], [0.1, 0.9]]),
        initial=np.array([0.5, 0.5]),
    )
    net = ContextPolicyNet(
        config.observation_dim, 2, 1, np.random.default_rng(0),
        init_log_std=-2.0,
        feature_sizes=(8, 4), regime_sizes=(4, 4), shared_sizes=(4,),
    )
    policy = NetPolicy(net, detector)
    wave = PortfolioEnv.lockstep(
        [PortfolioEnv(config, 0), PortfolioEnv(config, 1)], [0, 0])
    policy.reset(wave)
    actions = policy.act(wave)
    assert actions.shape == (2, 1)
    assert np.isfinite(actions).all()


def test_train_runs_one_update_per_rollout():
    config = make_config()  # horizon is exactly 16 periods
    net = PolicyNet(config.observation_dim, 1, np.random.default_rng(0),
                    init_log_std=-2.0, hidden=(8,))
    result = train(factory_for(config), net, small_ppo(16), seed=0)
    assert len(result.updates) == 1
    assert len(result.log) == 1
    row = result.log[0]
    assert row.episode == 0
    assert row.steps == 16
    assert not row.bankrupt
    assert np.isfinite(row.growth)
    assert row.mean_weights.shape == (2,)
    # cash weight is 1 minus the stock weight at every step
    assert row.mean_weights.sum() == pytest.approx(1.0, abs=1e-12)
    # the first episode completes before any update has run
    assert math.isnan(row.clip_fraction)
    assert math.isnan(row.approx_kl)
    assert result.detector is None


def test_train_diagnostics_flow_into_later_episodes():
    config = make_config()
    net = PolicyNet(config.observation_dim, 1, np.random.default_rng(0),
                    init_log_std=-2.0, hidden=(8,))
    result = train(factory_for(config), net, small_ppo(32), seed=0)
    assert len(result.updates) == 2
    assert len(result.log) == 2
    assert np.isfinite(result.log[1].clip_fraction)
    assert np.isfinite(result.log[1].approx_kl)
    assert result.updates[0]["n_minibatches"] == 4


def test_train_is_bitwise_reproducible():
    config = make_config()

    def run():
        net = PolicyNet(config.observation_dim, 1, np.random.default_rng(7),
                        init_log_std=-2.0, hidden=(8,))
        # rollouts straddle episode boundaries to exercise bootstrapping
        return train(factory_for(config), net,
                     small_ppo(48, rollout_steps=8, batch_size=8), seed=11)

    first = run()
    second = run()
    assert np.array_equal(first.net.flat, second.net.flat)
    assert len(first.log) == len(second.log)
    for a, b in zip(first.log, second.log):
        assert a.episode == b.episode
        assert a.steps == b.steps
        assert np.array_equal(a.mean_weights, b.mean_weights)
        assert np.array_equal(a.mad_weights, b.mad_weights)
        assert (a.growth == b.growth) or (math.isnan(a.growth)
                                          and math.isnan(b.growth))
    for da, db in zip(first.updates, second.updates):
        assert da["loss"] == db["loss"]
        assert da["grad_norm"] == db["grad_norm"]


def recording_factory(config, episodes):
    """Env factory whose env records each step's action, one list per
    episode, so a test can rebuild the training log from the actions."""

    def make(seed):
        env = PortfolioEnv(config, seed)
        step = env.step

        def recording_step(action):
            if not episodes or episodes[-1][1] is not None:
                episodes.append(([], None))
            episodes[-1][0].append(np.array(action, copy=True))
            result = step(action)
            if result.done:
                episodes[-1] = (episodes[-1][0], result.bankrupt)
            return result

        env.step = recording_step
        return env

    return make


@pytest.mark.parametrize("case", ["split", "bankrupt"])
def test_training_log_weights_match_the_per_step_concatenate_oracle(case):
    if case == "split":
        # 16-step episodes, 12-step rollouts: episodes span two rollouts
        config = make_config()
        ppo = small_ppo(60, rollout_steps=12, batch_size=4)
        init_log_std = -1.0
    else:
        # a crashing stock and wide action noise bankrupt episodes early
        config = make_config(mu=-50.0, sigma=0.5)
        ppo = small_ppo(64, rollout_steps=16, batch_size=8)
        init_log_std = 2.0
    net = PolicyNet(config.observation_dim, 1, np.random.default_rng(5),
                    init_log_std=init_log_std, hidden=(8,))
    episodes = []
    result = train(recording_factory(config, episodes), net, ppo, seed=2)
    finished = [(actions, bankrupt) for actions, bankrupt in episodes
                if bankrupt is not None]
    assert len(result.log) == len(finished) >= 2
    lengths = [len(actions) for actions, _ in finished]
    if case == "split":
        assert lengths[0] == 16 and 16 % ppo.rollout_steps
    else:
        assert any(bankrupt for _, bankrupt in finished)
        assert min(lengths) < config.n_periods
    for row, (actions, bankrupt) in zip(result.log, finished):
        rows = np.asarray(
            [np.concatenate([[1.0 - a.sum()], a]) for a in actions])
        mean_w = rows.mean(axis=0)
        mad_w = np.mean(np.abs(rows - mean_w), axis=0)
        assert row.bankrupt == bankrupt
        assert np.array_equal(row.mean_weights.view(np.int64),
                              mean_w.view(np.int64))
        assert np.array_equal(row.mad_weights.view(np.int64),
                              mad_w.view(np.int64))


def act_and_value_oracle(net, observation, rng, std, log_std_sum,
                         context=None):
    """Oracle: (action, log-probability, value) of one step, drawing the
    step's own noise and computing its own density."""
    obs = np.asarray(observation, dtype=np.float64)[None, :]
    if context is not None:
        context = np.asarray(context, dtype=np.float64)[None, :]
    mean, value = net.forward(obs, context)
    mean = mean[0]
    action = mean + std * rng.standard_normal(mean.shape[0])
    diff = (action - mean) / std
    log_prob = (
        -0.5 * float((diff**2).sum()) - log_std_sum
        - 0.5 * mean.shape[0] * math.log(2.0 * math.pi)
    )
    return action, log_prob, float(value[0])


def train_oracle(env_factory, net, config, seed, hmm_config=None):
    """Oracle: train's loop with noise drawn and log density computed per
    step, cash weights written per step, and every context label taken from
    its window alone by the one-window oracle. Returns (log, updates,
    detector, rollouts ending mid-episode)."""
    env = env_factory(seed)
    n, window = env.config.n_assets, env.config.window
    k = net.context_dim if isinstance(net, ContextPolicyNet) else None
    if k and hmm_config is None:
        hmm_config = HmmFitConfig(n_states=k)
    action_rng = stream(seed, ACTION_STREAM)
    update_rng = stream(seed, UPDATE_STREAM)
    optimizer = Adam(net, config.learning_rate)
    buffer = RolloutBuffer(config.rollout_steps, env.config.observation_dim,
                           n, context_dim=k, window=window, row_size=n)

    def context_of(obs, detector):
        if detector is None:
            return np.full(k, 1.0 / k)
        prices = obs[: n * window].reshape(window, n)
        return np.eye(k)[
            window_label(detector, np.diff(np.log(prices), axis=0))]

    log, updates, sequences = [], [], []
    latest = {"clip_fraction": float("nan"), "approx_kl": float("nan")}
    detector, mid_episode = None, 0
    obs = env.reset()
    context = context_of(obs, None) if k else None
    reward_sum, weights, total = 0.0, [], 0
    while total < config.total_steps:
        buffer.reset()
        std = np.exp(net.log_std.value)
        log_std_sum = float(net.log_std.value.sum())
        log_probs = np.empty(config.rollout_steps)
        for i in range(config.rollout_steps):
            action, log_probs[i], value = act_and_value_oracle(
                net, obs, action_rng, std, log_std_sum, context)
            result = env.step(action)
            buffer.add(obs, action, result.reward, value, result.done, context)
            total += 1
            reward_sum += result.reward
            weights.append(np.concatenate([[1.0 - action.sum()], action]))
            if result.done:
                rows = np.asarray(weights)
                mean_w = rows.mean(axis=0)
                log.append(EpisodeLogRow(
                    env.episode, total, mean_w,
                    np.mean(np.abs(rows - mean_w), axis=0),
                    float("nan") if result.bankrupt
                    else reward_sum / env.config.horizon_years,
                    result.bankrupt, latest["clip_fraction"],
                    latest["approx_kl"]))
                if k and detector is None:
                    seq = np.diff(np.log(env.effective_episode_prices()),
                                  axis=0)
                    if seq.shape[0] >= hmm_config.n_states * 10:
                        sequences.append(seq)
                    if len(log) == DETECTOR_FIT_EPISODES:
                        detector = hmm_module.fit(sequences, hmm_config,
                                                  stream(seed, HMM_STREAM))
                obs = env.reset()
                reward_sum, weights = 0.0, []
            else:
                obs = result.observation
            if k:
                context = context_of(obs, detector)
        buffer.log_probs[:] = log_probs
        bootstrap = 0.0
        if not buffer.dones[-1]:
            mid_episode += 1
            bootstrap = net.forward(
                obs[None, :], None if context is None else context[None, :]
            )[1][0]
        buffer.compute_advantages(bootstrap, config.discount,
                                  config.gae_lambda)
        latest = ppo_update(net, buffer, config, optimizer, update_rng)
        updates.append(latest)
    return log, updates, detector, mid_episode


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("case", ["plain", "context", "a2c", "mid-episode",
                                  "bankrupt"])
def test_train_matches_the_per_step_rollout_oracle(case, tmp_path):
    # two assets and 32-period episodes, except the bankrupt case's one
    # crashing asset with wide action noise
    config = two_regime_config()
    hmm_config = None
    if case == "context":
        hmm_config = HmmFitConfig(n_states=2, n_init=2)
        algo = small_ppo(32 * 11, rollout_steps=48, batch_size=16)
    elif case == "a2c":
        algo = TrainConfig.a2c(160, rollout_steps=40)
    elif case == "bankrupt":
        config = make_config(mu=-50.0, sigma=0.5)
        algo = small_ppo(64)
    else:
        algo = small_ppo(128,
                         rollout_steps=24 if case == "mid-episode" else 32)

    def build():
        rng = np.random.default_rng(9)
        n = config.n_assets
        if case == "context":
            return ContextPolicyNet(config.observation_dim, 2, n, rng,
                                    feature_sizes=(8, 4), regime_sizes=(4, 4),
                                    shared_sizes=(4,))
        return PolicyNet(config.observation_dim, n, rng, hidden=(8,),
                         init_log_std=2.0 if case == "bankrupt" else -2.0)

    got = train(factory_for(config), build(), algo, seed=4,
                hmm_config=hmm_config)
    oracle_net = build()
    log, updates, detector, mid_episode = train_oracle(
        factory_for(config), oracle_net, algo, seed=4, hmm_config=hmm_config)
    # only the plain case's rollouts all end on an episode end
    assert (mid_episode == 0) == (case == "plain")
    if case == "bankrupt":
        assert any(row.bankrupt for row in log)
    assert len(log) >= 2
    got_csv, want_csv = tmp_path / "got.csv", tmp_path / "want.csv"
    write_training_log(got.log, got_csv, config.n_assets + 1)
    write_training_log(log, want_csv, config.n_assets + 1)
    assert got_csv.read_bytes() == want_csv.read_bytes()
    assert len(got.updates) == len(updates)
    for a, b in zip(got.updates, updates):
        assert a.keys() == b.keys()
        assert all(np.array_equal(a[key], b[key], equal_nan=True) for key in a)
    assert np.array_equal(got.net.flat.view(np.int64),
                          oracle_net.flat.view(np.int64))
    assert (got.detector is None) == (detector is None) == (case != "context")
    if detector is not None:
        for name in ("means", "covariances", "transition", "initial"):
            assert np.array_equal(getattr(got.detector, name),
                                  getattr(detector, name))


def test_train_rejects_mismatched_observation_dim():
    config = make_config()
    net = PolicyNet(config.observation_dim + 1, 1, np.random.default_rng(0),
                    hidden=(4,))
    with pytest.raises(ValueError, match="net expects obs_dim"):
        train(factory_for(config), net, small_ppo(16), seed=0)


def context_net_for(config, context_dim=2):
    return ContextPolicyNet(
        config.observation_dim, context_dim, 1, np.random.default_rng(1),
        init_log_std=-2.0,
        feature_sizes=(8, 4), regime_sizes=(4, 4), shared_sizes=(4,),
    )


def test_train_fits_the_detector_after_ten_episodes():
    # 24-period episodes clear the detector's 20-row minimum
    config = make_config(horizon_years=0.09375, window=3)
    net = context_net_for(config)
    result = train(
        factory_for(config), net,
        small_ppo(24 * 11, rollout_steps=24, batch_size=8),
        seed=0,
        hmm_config=HmmFitConfig(n_states=2, n_init=2),
    )
    assert isinstance(result.detector, GaussianHmmModel)
    assert result.detector.n_states == 2
    assert len(result.log) == 11
    assert all(np.isfinite(row.growth) for row in result.log)


@pytest.mark.parametrize("case", ["context", "a2c"])
def test_train_updates_on_the_observations_it_collected(case, monkeypatch):
    # 24-period episodes and 40-step rollouts: rollouts start and end inside
    # episodes, and the context run fits its detector after 10 episodes
    config = make_config(horizon_years=0.09375, window=3)
    buffers = []

    class RecordingBuffer(RolloutBuffer):
        """Keeps a (size, obs_dim) record of what it is given, and checks
        every gather against it."""

        def __init__(self, size, obs_dim, *args, **kwargs):
            super().__init__(size, obs_dim, *args, **kwargs)
            self.record = np.empty((size, obs_dim))
            self.gathered = 0
            buffers.append(self)

        def add(self, obs, *args):
            self.record[self.pos] = obs
            super().add(obs, *args)

        def gather(self, idx):
            got = super().gather(idx)
            assert np.array_equal(got.view(np.int64),
                                  self.record[idx].view(np.int64))
            self.gathered += len(idx)
            return got

    monkeypatch.setattr(training, "RolloutBuffer", RecordingBuffer)
    if case == "context":
        net = context_net_for(config)
        algo = small_ppo(24 * 11, rollout_steps=40, batch_size=8)
    else:
        net = PolicyNet(config.observation_dim, 1, np.random.default_rng(5),
                        hidden=(8,))
        algo = TrainConfig.a2c(24 * 11, rollout_steps=40)
    result = train(factory_for(config), net, algo, seed=0,
                   hmm_config=HmmFitConfig(n_states=2, n_init=2))
    (buffer,) = buffers
    assert (buffer.window, buffer.row_size) == (3, 1)
    assert buffer.gathered == len(result.updates) * 40 * algo.effective_epochs
    assert (result.detector is not None) == (case == "context")


def test_train_raises_when_episodes_are_too_short_for_the_detector():
    config = make_config(window=3)  # 16-period episodes, fewer than 20 rows
    net = context_net_for(config)
    with pytest.raises(FitError, match="too short"):
        train(
            factory_for(config), net,
            small_ppo(16 * 10, rollout_steps=16, batch_size=8),
            seed=0,
            hmm_config=HmmFitConfig(n_states=2, n_init=2),
        )


def test_train_raises_when_bankruptcies_cut_every_episode_too_short():
    # 24-period episodes clear the detector's 20-row minimum, but permanent
    # impact this steep bankrupts each episode on its first trade
    config = dataclasses.replace(make_config(horizon_years=0.09375, window=3),
                                 impact=ImpactParams(0.0, 100.0))
    with np.errstate(all="ignore"), pytest.raises(
            FitError, match="first 10 episodes were all too short"):
        train(
            factory_for(config), context_net_for(config),
            small_ppo(24 * 11, rollout_steps=24, batch_size=8),
            seed=0,
            hmm_config=HmmFitConfig(n_states=2, n_init=2),
        )


def test_train_context_config_validation():
    config = make_config(window=3)
    net = context_net_for(config)
    with pytest.raises(ValueError, match="detector has 3 states"):
        train(factory_for(config), net, small_ppo(16), seed=0,
              hmm_config=HmmFitConfig(n_states=3))
    narrow = make_config(window=1)
    with pytest.raises(ValueError, match=r"window >= 2 \(at least one "
                       r"return row\), the config has window 1$"):
        train(factory_for(narrow), context_net_for(narrow), small_ppo(16),
              seed=0)


def test_write_training_log(tmp_path):
    plain = (make_config(), -2.0, small_ppo(32))
    # a wide policy on a volatile asset: most episodes go bankrupt, and the
    # rows before the first update have nan diagnostics
    bankrupt = (make_config(sigma=1.0, horizon_years=0.25), 2.0,
                small_ppo(256, rollout_steps=128))
    for case, (config, init_log_std, algo) in (("plain", plain),
                                               ("bankrupt", bankrupt)):
        net = PolicyNet(config.observation_dim, 1, np.random.default_rng(0),
                        init_log_std=init_log_std, hidden=(8,))
        with np.errstate(all="ignore"):
            result = train(factory_for(config), net, algo, seed=0)
        path = tmp_path / f"{case}.csv"
        write_training_log(result.log, path, n_weights=2)
        lines = path.read_text().splitlines()
        assert lines[0] == ("episode,steps,mean_w0,mean_w1,mad_w0,mad_w1,"
                            "growth,bankrupt,clip_fraction,approx_kl")
        assert len(lines) == 1 + len(result.log)
        for line, row in zip(lines[1:], result.log):
            floats = [*row.mean_weights, *row.mad_weights, row.growth]
            assert line.split(",") == (
                [str(row.episode), str(row.steps)]
                + [repr(float(x)) for x in floats]
                + ["1" if row.bankrupt else "0"]
                + [repr(float(row.clip_fraction)), repr(float(row.approx_kl))])
        cells = lines[1].split(",")
        assert int(cells[0]) == 0
        assert float(cells[2]) == result.log[0].mean_weights[0]
        if case == "plain":
            assert float(cells[6]) == result.log[0].growth
            assert cells[7] == "0"
        else:
            flags = [row.bankrupt for row in result.log]
            assert any(flags) and not all(flags)
            assert cells[6:] == ["nan", "1", "nan", "nan"]


def test_write_training_log_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    write_training_log([], path, n_weights=3)
    lines = path.read_text().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("episode,steps,mean_w0,mean_w1,mean_w2,mad_w0")
