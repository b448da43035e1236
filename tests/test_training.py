"""Evaluation harness and the rollout/update training loop."""

import math

import numpy as np
import pytest

from kellylab.baselines import FixedWeightPolicy
from kellylab.env import EnvConfig, PortfolioEnv
from kellylab.errors import FitError
from kellylab.hmm import GaussianHmmModel, HmmFitConfig
from kellylab.impact import ImpactParams
from kellylab.market import MarketParams, RegimeModel
from kellylab.nets import ContextPolicyNet, PolicyNet
from kellylab.rl import TrainConfig
from kellylab.training import (
    EVAL_EPISODE_OFFSET,
    NetPolicy,
    evaluate,
    train,
    write_training_log,
)


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


def test_evaluate_is_deterministic_and_offsets_are_disjoint():
    assert EVAL_EPISODE_OFFSET == 1_000_000
    config = make_config()
    policy = FixedWeightPolicy(np.array([0.5]))
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
    policy = FixedWeightPolicy(np.array([0.5]))
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
    policy = FixedWeightPolicy(np.array([1e6]))
    result = evaluate(policy, factory_for(config), 3, seed=0)
    assert result.bankruptcies == 3
    assert result.growths == []
    assert math.isnan(result.mean_growth)
    assert math.isnan(result.mad)


def test_policy_wrappers_validate_their_inputs():
    net = PolicyNet(4, 1, np.random.default_rng(0), hidden=(4,))
    with pytest.raises(ValueError, match="needs an rng"):
        NetPolicy(net, deterministic=False)
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
    env = PortfolioEnv(config, 0)
    obs = env.reset()
    action = policy.act(obs, env)
    assert action.shape == (1,)
    assert np.isfinite(action[0])


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
                episodes[-1] = (episodes[-1][0], result.info["bankrupt"])
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


def test_train_context_config_validation():
    config = make_config(window=3)
    net = context_net_for(config)
    with pytest.raises(ValueError, match="detector has 3 states"):
        train(factory_for(config), net, small_ppo(16), seed=0,
              hmm_config=HmmFitConfig(n_states=3))
    narrow = make_config(window=1)
    with pytest.raises(ValueError, match="window >= 2"):
        train(factory_for(narrow), context_net_for(narrow), small_ppo(16),
              seed=0)


def test_write_training_log(tmp_path):
    config = make_config()
    net = PolicyNet(config.observation_dim, 1, np.random.default_rng(0),
                    init_log_std=-2.0, hidden=(8,))
    result = train(factory_for(config), net, small_ppo(32), seed=0)
    path = tmp_path / "log.csv"
    write_training_log(result.log, path)
    lines = path.read_text().splitlines()
    assert lines[0] == ("episode,steps,mean_w0,mean_w1,mad_w0,mad_w1,"
                        "growth,bankrupt,clip_fraction,approx_kl")
    assert len(lines) == 1 + len(result.log)
    cells = lines[1].split(",")
    assert int(cells[0]) == 0
    assert float(cells[2]) == result.log[0].mean_weights[0]
    assert float(cells[6]) == result.log[0].growth
    assert cells[7] == "0"


def test_write_training_log_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    write_training_log([], path, n_weights=3)
    lines = path.read_text().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("episode,steps,mean_w0,mean_w1,mean_w2,mad_w0")
    with pytest.raises(ValueError, match="n_weights"):
        write_training_log([], tmp_path / "nope.csv")
