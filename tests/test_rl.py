"""GAE, Gaussian policy math, analytic gradients, and update loops.

The finite-difference harness here is the ground truth for every hand-written
backward pass: central differences over the full flattened parameter vector,
compared to the analytic gradient by vector-norm relative error.
"""

import dataclasses
import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kellylab.env import PortfolioEnv
from kellylab.nets import Adam, ContextPolicyNet, PolicyNet, clip_grad_norm
from kellylab.rl import (
    MiniBatch,
    RolloutBuffer,
    TrainConfig,
    _aggregate,
    _normalized,
    act_and_value,
    gae_advantages,
    log_density,
    loss_and_grads,
    ppo_update,
)
from shipped import shipped


def same_bits(a, b) -> bool:
    """Equal shapes and bit patterns, except that any NaN matches any NaN."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        return False
    nan = np.isnan(a)
    if not np.array_equal(nan, np.isnan(b)):
        return False
    return np.array_equal(a[~nan].view(np.int64), b[~nan].view(np.int64))


# -- GAE -----------------------------------------------------------------------


def test_gae_lambda_zero_is_one_step_td():
    rng = np.random.default_rng(0)
    rewards = rng.normal(size=6)
    values = rng.normal(size=6)
    dones = np.array([0.0, 0.0, 1.0, 0.0, 0.0, 0.0])
    bootstrap = 0.7
    gamma = 0.95
    adv, returns = gae_advantages(rewards, values, dones, bootstrap, gamma, 0.0)
    v_next = np.append(values[1:], bootstrap)
    delta = rewards + gamma * v_next * (1.0 - dones) - values
    assert np.allclose(adv, delta, atol=1e-15)
    assert np.allclose(returns, adv + values, atol=1e-15)


def test_gae_lambda_one_gamma_one_is_monte_carlo():
    rng = np.random.default_rng(1)
    rewards = rng.normal(size=5)
    values = rng.normal(size=5)
    dones = np.zeros(5)
    bootstrap = -0.3
    adv, _ = gae_advantages(rewards, values, dones, bootstrap, 1.0, 1.0)
    reward_to_go = np.cumsum(rewards[::-1])[::-1]
    assert np.allclose(adv, reward_to_go + bootstrap - values, atol=1e-12)


def test_gae_worked_example():
    adv, returns = gae_advantages(
        rewards=[1.0, 1.0], values=[0.5, 0.5], dones=[0.0, 1.0],
        bootstrap_value=0.0, gamma=1.0, lam=0.5,
    )
    assert adv == pytest.approx([1.25, 0.5], abs=1e-15)
    assert returns == pytest.approx([1.75, 1.0], abs=1e-15)


def test_gae_done_cuts_the_recursion():
    adv, _ = gae_advantages(
        rewards=[1.0, 2.0, 3.0], values=[0.0, 0.0, 0.0], dones=[0.0, 1.0, 0.0],
        bootstrap_value=10.0, gamma=0.9, lam=0.8,
    )
    assert adv[2] == pytest.approx(3.0 + 0.9 * 10.0, abs=1e-15)
    assert adv[1] == pytest.approx(2.0, abs=1e-15)
    assert adv[0] == pytest.approx(1.0 + 0.9 * 0.8 * 2.0, abs=1e-15)


def test_gae_shape_mismatch():
    with pytest.raises(ValueError, match="share one shape"):
        gae_advantages([1.0], [1.0, 2.0], [0.0], 0.0, 0.99, 0.9)


# -- Gaussian policy math --------------------------------------------------------

_LOG_2PI = math.log(2.0 * math.pi)


def gaussian_log_prob(mean, log_std, actions) -> np.ndarray:
    """Row-wise log density of a diagonal Gaussian, in the order of
    operations that loss_and_grads and train's rollout follow."""
    diff = (actions - mean) / np.exp(log_std)
    return (
        -0.5 * (diff**2).sum(axis=1) - log_std.sum() - 0.5 * mean.shape[1] * _LOG_2PI
    )


def gaussian_entropy(log_std) -> float:
    return float(np.sum(log_std) + 0.5 * log_std.shape[0] * (_LOG_2PI + 1.0))


def test_gaussian_log_prob_matches_scipy():
    rng = np.random.default_rng(2)
    mean = rng.normal(size=(4, 3))
    log_std = np.array([-0.5, 0.1, 0.3])
    actions = rng.normal(size=(4, 3))
    got = gaussian_log_prob(mean, log_std, actions)
    cov = np.diag(np.exp(2.0 * log_std))
    want = [
        scipy.stats.multivariate_normal.logpdf(actions[i], mean[i], cov)
        for i in range(4)
    ]
    assert np.allclose(got, want, atol=1e-12)


def test_gaussian_entropy_closed_form():
    log_std = np.array([-0.5, 0.2])
    want = float(np.sum(log_std) + 0.5 * 2 * (np.log(2.0 * np.pi) + 1.0))
    assert gaussian_entropy(log_std) == pytest.approx(want, rel=1e-15)


def test_sample_action_moments():
    net = PolicyNet(3, 1, np.random.default_rng(4), hidden=(4,))
    net.log_std.value[:] = np.log(0.5)
    obs = np.array([0.3, -0.2, 0.1])
    mean, value = net.forward(obs[None, :])
    std = np.exp(net.log_std.value)
    noise = np.random.default_rng(1).standard_normal((20000, 1))
    draws = np.array([act_and_value(net, obs, z, std)[0][0] for z in noise])
    assert abs(draws.mean() - mean[0, 0]) < 3.0 * 0.5 / np.sqrt(20000)
    assert abs(draws.std(ddof=1) - 0.5) < 3.0 * 0.5 / np.sqrt(2 * 20000)
    # the action is mean + std * noise; mean and value are the forward pass's
    got_action, got_mean, got_value = act_and_value(net, obs, noise[0], std)
    assert same_bits(got_action, mean[0] + std * noise[0])
    assert same_bits(got_mean, mean[0])
    assert got_value == float(value[0])


@pytest.mark.parametrize("n", [1, 3, 10])
def test_log_density_gives_the_log_probabilities_of_loss_and_grads(n):
    """train's in-place pass over a rollout's means gives each row's
    one-row density bit for bit, and exactly the log-probabilities
    loss_and_grads computes: with them as the old ones, every PPO ratio is
    exactly 1."""
    rng = np.random.default_rng(40 + n)
    net = PolicyNet(4, n, rng, hidden=(8,))
    net.log_std.value[:] = rng.normal(-0.5, 0.3, size=n)
    obs = rng.normal(size=(64, 4))
    means = net.forward(obs)[0].copy()
    std = np.exp(net.log_std.value)
    log_std_sum = float(net.log_std.value.sum())
    actions = means + std * rng.standard_normal((64, n))
    per_step = [-0.5 * float((((a - m) / std) ** 2).sum()) - log_std_sum
                - 0.5 * n * _LOG_2PI for a, m in zip(actions, means)]
    diff = np.divide(np.subtract(actions, means, out=means), std, out=means)
    log_probs = log_density(np.square(diff, out=diff), log_std_sum,
                            out=np.empty(64))
    assert same_bits(log_probs, per_step)
    adv = rng.normal(size=64)
    config = TrainConfig.ppo(64, rollout_steps=64, batch_size=64)
    batch = MiniBatch(obs, actions, log_probs, adv, rng.normal(size=64))
    terms = loss_and_grads(net, batch, config)
    assert terms["policy_loss"] == -(float(adv.sum()) / 64)
    assert terms["approx_kl"] == 0.0 and terms["clip_fraction"] == 0.0


# -- finite-difference gradient verification -------------------------------------


def fd_gradient(net, batch, config, h=1e-5):
    """Central-difference gradient of the total loss over the flat params.

    Each loss_and_grads call overwrites net.flat_grad, so callers copy the
    analytic gradient first.
    """
    flat0 = net.flat.copy()
    grad = np.empty_like(flat0)
    for i in range(flat0.size):
        net.flat[i] += h
        up = loss_and_grads(net, batch, config)["loss"]
        net.flat[i] -= 2.0 * h
        down = loss_and_grads(net, batch, config)["loss"]
        net.flat[i] = flat0[i]
        grad[i] = (up - down) / (2.0 * h)
    return grad


def gradient_rel_error(net, batch, config):
    loss_and_grads(net, batch, config)
    analytic = net.flat_grad.copy()
    numeric = fd_gradient(net, batch, config)
    denom = max(np.linalg.norm(analytic), np.linalg.norm(numeric), 1e-12)
    return float(np.linalg.norm(analytic - numeric) / denom)


def contexts_clear_of_relu_kinks(net, rng, batch_size):
    """Context rows whose relu pre-activations all sit away from zero.

    A pre-activation at exactly zero is a kink where the analytic mask and a
    central difference legitimately disagree, so the harness samples around
    those points rather than asserting anything about them.
    """
    for _ in range(200):
        contexts = rng.dirichlet(np.ones(2), size=batch_size)
        net.regime.forward(contexts)
        margin = min(np.abs(layer._z).min() for layer in net.regime.layers)
        if margin > 1e-3:
            return contexts
    raise AssertionError("no context draw cleared the relu kinks")


def random_case(index):
    """One randomized (net, batch, config) triple for the FD harness."""
    rng = np.random.default_rng(3000 + index)
    batch_size = 8
    obs_dim = 5
    action_dim = 1 + index % 2
    use_context = index % 2 == 1
    algo = ("ppo", "ppo", "a2c")[index % 3]
    clipping = index % 6 < 3
    config = TrainConfig(
        algo=algo,
        total_steps=1,
        learning_rate=1e-3,
        rollout_steps=batch_size,
        batch_size=batch_size,
        n_epochs=1,
        clip_range=0.2,
        value_coef=(0.5, 1.0)[index % 2],
        entropy_coef=(0.0, 0.01)[(index // 2) % 2],
        clipping_enabled=clipping,
    )
    if use_context:
        net = ContextPolicyNet(
            obs_dim, 2, action_dim, rng,
            init_log_std=float(rng.uniform(-1.0, 0.5)),
            feature_sizes=(8, 4), regime_sizes=(6, 4), shared_sizes=(4,),
        )
        contexts = contexts_clear_of_relu_kinks(net, rng, batch_size)
    else:
        net = PolicyNet(obs_dim, action_dim, rng,
                        init_log_std=float(rng.uniform(-1.0, 0.5)),
                        hidden=(8, 8))
        contexts = None
    observations = rng.normal(size=(batch_size, obs_dim))
    if use_context:
        mean, _ = net.forward(observations, contexts)
    else:
        mean, _ = net.forward(observations)
    actions = mean + np.exp(net.log_std.value) * rng.normal(
        size=(batch_size, action_dim)
    )
    log_probs = gaussian_log_prob(mean, net.log_std.value, actions)
    offsets = rng.normal(0.0, 0.2, size=batch_size)
    # keep every ratio a safe distance from the clip boundaries so the
    # clipped surrogate is smooth at the finite-difference step size
    for _ in range(50):
        ratio = np.exp(-offsets)
        near = (np.abs(ratio - 1.2) < 2e-3) | (np.abs(ratio - 0.8) < 2e-3)
        if not near.any():
            break
        offsets[near] += 0.01
    batch = MiniBatch(
        observations=observations,
        actions=actions,
        old_log_probs=log_probs + offsets,
        advantages=rng.normal(size=batch_size),
        returns=rng.normal(size=batch_size),
        contexts=contexts,
    )
    return net, batch, config


def test_analytic_gradients_match_finite_differences():
    worst = 0.0
    for index in range(100):
        net, batch, config = random_case(index)
        err = gradient_rel_error(net, batch, config)
        worst = max(worst, err)
        assert err <= 1e-4, f"case {index}: relative error {err:.3e}"
    assert worst > 0.0


def test_zero_advantages_and_matched_returns_give_zero_gradients():
    net, batch, config = random_case(0)
    _, value = net.forward(batch.observations)
    batch = batch._replace(advantages=np.zeros(len(batch.advantages)),
                           returns=value.copy())
    loss_and_grads(net, batch, config)
    assert np.all(net.flat_grad == 0.0)


def test_clipped_out_samples_contribute_no_policy_gradient():
    net = PolicyNet(4, 1, np.random.default_rng(7), hidden=(6,))
    config = TrainConfig(algo="ppo", total_steps=1, learning_rate=1e-3,
                         rollout_steps=1, batch_size=1, n_epochs=1,
                         clip_range=0.2)
    obs = np.random.default_rng(8).normal(size=(1, 4))
    mean, value = net.forward(obs)
    action = mean + 0.1
    log_prob = gaussian_log_prob(mean, net.log_std.value, action)

    # positive advantage with ratio e^0.5 > 1.2: the clipped branch is active
    batch = MiniBatch(obs, action, log_prob - 0.5, np.array([1.0]),
                      value.copy())
    terms = loss_and_grads(net, batch, config)
    assert terms["clip_fraction"] == 1.0
    assert np.all(net.flat_grad == 0.0)

    # negative advantage with ratio e^-0.5 < 0.8: same story
    batch = MiniBatch(obs, action, log_prob + 0.5, np.array([-1.0]),
                      value.copy())
    loss_and_grads(net, batch, config)
    assert np.all(net.flat_grad == 0.0)

    # same ratios with the advantage signs flipped flow gradients again
    batch = MiniBatch(obs, action, log_prob - 0.5, np.array([-1.0]),
                      value.copy())
    loss_and_grads(net, batch, config)
    assert np.any(net.flat_grad != 0.0)


def test_a2c_gradient_equals_unclipped_ppo_at_ratio_one():
    rng = np.random.default_rng(9)
    net = PolicyNet(4, 2, rng, hidden=(8,))
    obs = rng.normal(size=(6, 4))
    mean, value = net.forward(obs)
    actions = mean + 0.3 * rng.normal(size=mean.shape)
    log_probs = gaussian_log_prob(mean, net.log_std.value, actions)
    batch = MiniBatch(obs, actions, log_probs, rng.normal(size=6),
                      rng.normal(size=6))
    base = dict(total_steps=1, learning_rate=1e-3, rollout_steps=6,
                batch_size=6, n_epochs=1)
    loss_and_grads(net, batch, TrainConfig(algo="a2c", **base))
    a2c_grad = net.flat_grad.copy()
    loss_and_grads(net, batch,
                   TrainConfig(algo="ppo", clipping_enabled=False, **base))
    ppo_grad = net.flat_grad.copy()
    assert np.array_equal(a2c_grad, ppo_grad)


# -- the fused pass against the two-pass oracle -----------------------------------


def loss_terms_oracle(net, batch, config):
    """The separate loss pass that loss_and_grads absorbed, kept as its
    oracle: forward pass and every loss component, no gradients touched."""
    if batch.contexts is None:
        mean, value = net.forward(batch.observations)
    else:
        mean, value = net.forward(batch.observations, batch.contexts)
    log_std = net.log_std.value
    log_probs = gaussian_log_prob(mean, log_std, batch.actions)
    ratio = np.exp(log_probs - batch.old_log_probs)
    adv = batch.advantages

    if config.algo == "a2c":
        policy_loss = -float(np.mean(log_probs * adv))
    elif config.clipping_enabled:
        eps = config.clip_range
        unclipped = ratio * adv
        clipped = np.clip(ratio, 1.0 - eps, 1.0 + eps) * adv
        policy_loss = -float(np.mean(np.minimum(unclipped, clipped)))
    else:
        policy_loss = -float(np.mean(ratio * adv))

    value_loss = float(np.mean((value - batch.returns) ** 2))
    entropy = gaussian_entropy(log_std)
    total = (
        policy_loss
        + config.value_coef * value_loss
        - config.entropy_coef * entropy
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        kl_terms = (ratio - 1.0) - np.log(ratio)
    return {
        "mean": mean,
        "value": value,
        "log_probs": log_probs,
        "ratio": ratio,
        "policy_loss": policy_loss,
        "value_loss": value_loss,
        "entropy": entropy,
        "loss": total,
        "approx_kl": float(np.mean(kl_terms)),
        "clip_fraction": float(np.mean(np.abs(ratio - 1.0) > config.clip_range)),
    }


def loss_and_grads_oracle(net, batch, config):
    """The two-pass loss_and_grads: loss_terms_oracle, then the gradients
    from a second evaluation of the ratio, std and clip branch."""
    terms = loss_terms_oracle(net, batch, config)
    mean, value = terms["mean"], terms["value"]
    ratio = terms["ratio"]
    adv = batch.advantages
    n = len(adv)
    log_std = net.log_std.value
    std = np.exp(log_std)

    if config.algo == "a2c":
        d_log_probs = -adv / n
    elif config.clipping_enabled:
        eps = config.clip_range
        unclipped = ratio * adv
        clipped = np.clip(ratio, 1.0 - eps, 1.0 + eps) * adv
        flows = unclipped <= clipped
        d_log_probs = -(adv * ratio * flows) / n
    else:
        d_log_probs = -(adv * ratio) / n

    diff = (batch.actions - mean) / std
    d_mean = d_log_probs[:, None] * diff / std
    d_log_std = np.sum(d_log_probs[:, None] * (diff**2 - 1.0), axis=0)
    d_log_std -= config.entropy_coef
    d_value = config.value_coef * 2.0 * (value - batch.returns) / n

    net.backward(d_mean, d_value)
    net.log_std.grad[...] = d_log_std
    return terms


def normalized_oracle(advantages, enabled):
    """_normalized in its numpy form: two means and a numpy std."""
    if not enabled or advantages.shape[0] < 2:
        return advantages
    std = advantages.std(ddof=1)
    if std < 1e-8:
        return advantages
    return (advantages - advantages.mean()) / std


ALGOS = {
    "ppo": dict(algo="ppo"),
    "ppo-unclipped": dict(algo="ppo", clipping_enabled=False),
    "a2c": dict(algo="a2c"),
}


def drawn_case(seed, algo, context, rows, action_dim, entropy_coef,
               normalize, spread, extreme):
    """A (net, batch, config) triple from one seed and the drawn shape.

    `spread` scales the log-ratio offsets; `extreme` pushes some ratios to
    underflow ("underflow", so log(ratio) is -inf) or overflow, or puts a
    NaN into one batch array ("nan", the abort path).
    """
    rng = np.random.default_rng(seed)
    config = TrainConfig(
        total_steps=1, learning_rate=1e-3, rollout_steps=rows,
        batch_size=rows, n_epochs=1, clip_range=float(rng.choice([0.1, 0.2])),
        value_coef=float(rng.choice([0.5, 1.0])), entropy_coef=entropy_coef,
        advantage_normalization=normalize, **ALGOS[algo],
    )
    obs_dim = int(rng.integers(1, 7))
    if context:
        net = ContextPolicyNet(
            obs_dim, 2, action_dim, rng,
            init_log_std=float(rng.uniform(-2.0, 1.0)),
            feature_sizes=(8, 4), regime_sizes=(6, 4), shared_sizes=(5,),
        )
        contexts = rng.dirichlet(np.ones(2), size=rows)
    else:
        net = PolicyNet(obs_dim, action_dim, rng,
                        init_log_std=float(rng.uniform(-2.0, 1.0)),
                        hidden=(8, 6))
        contexts = None
    observations = rng.normal(size=(rows, obs_dim))
    actions = rng.normal(size=(rows, action_dim))
    log_probs = rng.normal(size=rows)
    offsets = spread * rng.normal(size=rows)
    if extreme in ("underflow", "overflow"):
        hit = rng.random(rows) < 0.5
        hit[0] = True
        offsets[hit] = 800.0 if extreme == "underflow" else -800.0
    advantages = rng.normal(size=rows) * 10.0 ** rng.uniform(-3, 3)
    arrays = dict(observations=observations, actions=actions,
                  old_log_probs=log_probs + offsets, advantages=advantages,
                  returns=rng.normal(size=rows), contexts=contexts)
    if extreme == "nan":
        name = str(rng.choice(["observations", "actions", "old_log_probs",
                               "advantages", "returns"]))
        arrays[name].flat[int(rng.integers(arrays[name].size))] = np.nan
    arrays["advantages"] = normalized_oracle(arrays["advantages"], normalize)
    return net, MiniBatch(**arrays), config


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    algo=st.sampled_from(sorted(ALGOS)),
    context=st.booleans(),
    rows=st.integers(1, 12),
    action_dim=st.integers(1, 3),
    entropy_coef=st.sampled_from([0.0, 0.01, 0.5]),
    normalize=st.booleans(),
    spread=st.sampled_from([0.0, 0.05, 0.5, 5.0]),
    extreme=st.sampled_from([None, "underflow", "overflow", "nan"]),
)
def test_fused_loss_and_grads_matches_the_two_pass_oracle(
        seed, algo, context, rows, action_dim, entropy_coef, normalize,
        spread, extreme):
    net, batch, config = drawn_case(seed, algo, context, rows, action_dim,
                                    entropy_coef, normalize, spread, extreme)
    want = loss_and_grads_oracle(net, batch, config)
    want_grad = net.flat_grad.copy()
    net.flat_grad.fill(np.pi)  # the fused pass must write every gradient
    got = loss_and_grads(net, batch, config)
    # the oracle also returned its forward arrays, which nothing read
    assert got.keys() == want.keys() - {"mean", "value", "log_probs", "ratio"}
    for key in got:
        assert same_bits(got[key], want[key]), key
        assert type(got[key]) is type(want[key]), key
    assert same_bits(net.flat_grad, want_grad)
    if extreme == "underflow":
        assert got["approx_kl"] == np.inf  # log(0) = -inf, silenced


@pytest.mark.parametrize("context", [False, True])
def test_loss_and_grads_writes_every_gradient(context):
    # nothing zeroes the gradient first: a NaN left anywhere would show
    net, batch, config = drawn_case(41, "ppo", context, 12, 2, 0.01, True,
                                    0.5, None)
    net.flat_grad.fill(0.0)
    loss_and_grads(net, batch, config)
    want = net.flat_grad.copy()
    net.flat_grad.fill(np.nan)
    loss_and_grads(net, batch, config)
    assert same_bits(net.flat_grad, want)
    assert np.isfinite(want).all()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("case", ["ppo", "ppo-unclipped", "a2c", "entropy",
                                  "unnormalized", "context", "nan"])
def test_ppo_update_matches_the_two_pass_oracle_loop(case):
    """Whole updates, diagnostics and parameters, against the pre-fusion
    update loop built from the oracles above."""
    algo = case if case in ALGOS else "ppo"
    context_dim = 2 if case == "context" else None

    def setup():
        """A net, and a buffer of observations laid out as two 2-value rows
        that slide within each 10-step episode, then one tail value; the
        oracle reads its own record of the observations."""
        rng = np.random.default_rng(31)
        if context_dim:
            net = ContextPolicyNet(5, 2, 2, rng, feature_sizes=(8, 4),
                                   regime_sizes=(4, 4), shared_sizes=(4,))
        else:
            net = PolicyNet(5, 2, rng, hidden=(8, 8))
        buffer = RolloutBuffer(24, 5, 2, context_dim=context_dim, window=2,
                               row_size=2)
        observations = np.empty((24, 5))
        rows = rng.normal(size=(2, 2))
        for i in range(24):
            observations[i] = np.append(rows.ravel(), rng.normal())
            done = i % 10 == 9
            action = rng.normal(size=2)
            buffer.log_probs[i] = float(rng.normal(-2.0, 0.3))
            buffer.add(observations[i], action, float(rng.normal()),
                       float(rng.normal()), done,
                       context=rng.dirichlet(np.ones(2)) if context_dim else None)
            rows = (rng.normal(size=(2, 2)) if done
                    else np.vstack([rows[1:], rng.normal(size=(1, 2))]))
        buffer.compute_advantages(0.3, 0.99, 0.9)
        if case == "nan":
            buffer.returns[17] = np.nan
        return net, buffer, observations

    config = TrainConfig(
        total_steps=24, learning_rate=1e-2, rollout_steps=24, batch_size=8,
        n_epochs=3, entropy_coef=0.05 if case == "entropy" else 0.0,
        advantage_normalization=case != "unnormalized", **ALGOS[algo],
    )
    net, buffer, _ = setup()
    oracle_net, oracle_buffer, oracle_observations = setup()
    optimizer, oracle_optimizer = Adam(net, 1e-2), Adam(oracle_net, 1e-2)
    rng, oracle_rng = np.random.default_rng(5), np.random.default_rng(5)
    a2c = config.algo == "a2c"
    batch_size = buffer.size if a2c else config.batch_size
    for _update in range(3):
        got = ppo_update(net, buffer, config, optimizer, rng)
        diags, aborted = [], False
        for _epoch in range(config.effective_epochs):
            order = (np.arange(buffer.size) if a2c
                     else oracle_rng.permutation(buffer.size))
            for start in range(0, buffer.size, batch_size):
                idx = order[start:start + batch_size]
                b = oracle_buffer
                batch = MiniBatch(
                    oracle_observations[idx], b.actions[idx], b.log_probs[idx],
                    normalized_oracle(b.advantages[idx],
                                      config.advantage_normalization),
                    b.returns[idx],
                    None if b.contexts is None else b.contexts[idx])
                terms = loss_and_grads_oracle(oracle_net, batch, config)
                terms["grad_norm"] = clip_grad_norm(oracle_net,
                                                    config.max_grad_norm)
                if not (math.isfinite(terms["loss"])
                        and math.isfinite(terms["grad_norm"])):
                    aborted = True
                    break
                oracle_optimizer.step()
                oracle_net.clamp_log_std()
                diags.append(terms)
            if aborted:
                break
        want = _aggregate(diags, aborted)
        assert got.keys() == want.keys()
        for key in want:
            assert same_bits(got[key], want[key]), key
        assert same_bits(net.flat, oracle_net.flat)
        assert same_bits(net.flat_grad, oracle_net.flat_grad)
    assert got["aborted"] == (case == "nan")


# -- advantage normalization ------------------------------------------------------


@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 300),
    offset=st.floats(-1e6, 1e6),
    log_scale=st.floats(-6.0, 6.0),
    constant=st.booleans(),
)
@example(seed=0, n=2, offset=0.0, log_scale=0.0, constant=False)
@example(seed=0, n=2, offset=3.5, log_scale=0.0, constant=True)
@example(seed=1, n=64, offset=1e6, log_scale=-6.0, constant=False)
def test_normalized_matches_numpy_mean_and_std_bitwise(seed, n, offset,
                                                       log_scale, constant):
    rng = np.random.default_rng(seed)
    if constant:
        adv = np.full(n, offset)
    else:
        adv = offset + 10.0**log_scale * rng.standard_normal(n)
    got = _normalized(adv, True)
    std = adv.std(ddof=1)
    if std < 1e-8:
        assert got is adv
    else:
        assert same_bits(got, (adv - adv.mean()) / std)


def test_normalization_post_conditions():
    rng = np.random.default_rng(10)
    adv = rng.normal(3.0, 2.0, size=64)
    out = _normalized(adv, True)
    assert out.mean() == pytest.approx(0.0, abs=1e-12)
    assert out.std(ddof=1) == pytest.approx(1.0, rel=1e-12)
    assert _normalized(adv, False) is adv
    single = np.array([5.0])
    assert _normalized(single, True) is single
    flat = np.full(8, 2.5)
    assert _normalized(flat, True) is flat


# -- buffer and update loops ------------------------------------------------------


def filled_buffer(rng, size=8, obs_dim=4, action_dim=1):
    buffer = RolloutBuffer(size, obs_dim, action_dim)
    for i in range(size):
        obs, action = rng.normal(size=obs_dim), rng.normal(size=action_dim)
        buffer.log_probs[i] = float(rng.normal())
        buffer.add(
            obs=obs,
            action=action,
            reward=float(rng.normal()),
            value=float(rng.normal()),
            done=i == size - 1,
        )
    return buffer


def test_buffer_lifecycle_errors():
    rng = np.random.default_rng(11)
    buffer = RolloutBuffer(2, 3, 1)
    buffer.add(np.zeros(3), np.zeros(1), 0.0, 0.0, False)
    with pytest.raises(ValueError, match="holds 1/2"):
        buffer.compute_advantages(0.0, 0.99, 0.9)
    buffer.add(np.zeros(3), np.zeros(1), 0.0, 0.0, True)
    with pytest.raises(ValueError, match="full"):
        buffer.add(np.zeros(3), np.zeros(1), 0.0, 0.0, False)
    buffer.compute_advantages(0.0, 0.99, 0.9)
    assert buffer.advantages is not None
    buffer.reset()
    assert buffer.pos == 0
    assert buffer.advantages is None

    ctx_buffer = RolloutBuffer(2, 3, 1, context_dim=2)
    with pytest.raises(ValueError, match="expects a context"):
        ctx_buffer.add(np.zeros(3), np.zeros(1), 0.0, 0.0, False)

    net = PolicyNet(3, 1, rng, hidden=(4,))
    config = TrainConfig.ppo(total_steps=2, rollout_steps=2, batch_size=2,
                             n_epochs=1)
    fresh = RolloutBuffer(2, 3, 1)
    with pytest.raises(ValueError, match="compute_advantages"):
        ppo_update(net, fresh, config, Adam(net, 1e-3),
                   np.random.default_rng(0))
    with pytest.raises(ValueError, match="compute_advantages"):
        ppo_update(net, fresh, TrainConfig.a2c(total_steps=2), Adam(net, 1e-3))


def test_a_rejected_add_leaves_the_buffer_unchanged():
    rng = np.random.default_rng(13)
    buffer = RolloutBuffer(3, 5, 2, context_dim=2, window=2, row_size=2)
    buffer.add(rng.normal(size=5), rng.normal(size=2), 1.0, 0.5, False,
               context=np.array([0.0, 1.0]))

    def state():
        return {k: v.tobytes() if isinstance(v, np.ndarray) else v
                for k, v in vars(buffer).items()}

    before = state()
    with pytest.raises(ValueError, match="expects a context"):
        buffer.add(rng.normal(size=5), rng.normal(size=2), 2.0, 0.1, True)
    assert state() == before
    with pytest.raises(ValueError):  # a context of the wrong width
        buffer.add(rng.normal(size=5), rng.normal(size=2), 2.0, 0.1, True,
                   context=np.ones(3))
    assert state() == before
    assert buffer.pos == 1


def env_rollouts(env_config, size, n_rollouts, leverage=0.3, context_dim=None):
    """Fill one buffer n_rollouts times, reset() between, from PortfolioEnv
    steps in train's order: add each observation, and after a done start the
    next episode. Yields (buffer, observations, contexts, bankruptcies) after
    each rollout, with test-local (size, obs_dim) and (size, K) records."""
    env = PortfolioEnv(env_config, master_seed=3)
    n, dim = env_config.n_assets, env_config.observation_dim
    rng = np.random.default_rng(8)
    buffer = RolloutBuffer(size, dim, n, context_dim=context_dim,
                           window=env_config.window, row_size=n)
    obs = env.reset()
    for _ in range(n_rollouts):
        observations = np.empty((size, dim))
        contexts = None if context_dim is None else np.empty((size, context_dim))
        bankruptcies = 0
        buffer.reset()
        for i in range(size):
            action = leverage * (1.0 + 0.1 * rng.standard_normal(n))
            observations[i] = obs
            context = None
            if contexts is not None:
                context = contexts[i] = rng.dirichlet(np.ones(context_dim))
            result = env.step(action)
            buffer.add(obs, action, result.reward, 0.0, result.done,
                       context)
            bankruptcies += result.bankrupt
            obs = env.reset() if result.done else result.observation
        buffer.compute_advantages(0.0, 0.99, 0.9)
        yield buffer, observations, contexts, bankruptcies


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("case", ["episodes", "mid-episode", "bankrupt"])
def test_the_buffer_gathers_the_observations_it_was_given(case):
    if case == "episodes":
        # 128-step episodes: each 400-step rollout holds several, and every
        # step carries a context
        env_config = dataclasses.replace(shipped("regimes3").env,
                                         horizon_years=0.5)
        rollouts = env_rollouts(env_config, 400, 3, context_dim=3)
    elif case == "mid-episode":
        # 256-step episodes, 300-step rollouts: rollouts start and end inside
        # episodes
        rollouts = env_rollouts(shipped("single_asset").env, 300, 3)
    else:
        rollouts = env_rollouts(shipped("regimes3").env, 200, 3, leverage=40.0)
    order = np.random.default_rng(0)
    for buffer, observations, contexts, bankruptcies in rollouts:
        if case == "bankrupt":
            assert bankruptcies >= 2
        # PPO's shuffled 64-row minibatches, then A2C's whole rollout
        idx = order.permutation(buffer.size)
        batches = [idx[s : s + 64] for s in range(0, buffer.size, 64)]
        for batch in batches + [np.arange(buffer.size)]:
            got = buffer.gather(batch)
            assert got.flags.c_contiguous
            assert same_bits(got, observations[batch])
        if contexts is not None:
            assert same_bits(buffer.contexts, contexts)


def owned_nbytes(obj) -> int:
    """Bytes of the distinct arrays that obj's array attributes view."""
    roots = {}
    for value in vars(obj).values():
        if isinstance(value, np.ndarray):
            while value.base is not None:
                value = value.base
            roots[id(value)] = value.nbytes
    return sum(roots.values())


def test_a_full_etf3_rollout_keeps_each_price_row_once():
    # each rollout is one 1,280-step episode: 1,339 price rows of 3, not
    # 1,280 observations of 184 (~1.9 MB), also once the buffer is reused
    env_config = shipped("etf3").env
    dim = env_config.observation_dim
    for buffer, observations, _, _ in env_rollouts(env_config, 1280, 3):
        assert owned_nbytes(buffer) < 250_000
        assert not any(
            value.shape[-1:] == (dim,) for value in vars(buffer).values()
            if isinstance(value, np.ndarray) and value.base is None)
        assert same_bits(buffer.gather(np.arange(1280)), observations)


def test_ppo_update_runs_and_moves_parameters():
    rng = np.random.default_rng(12)
    net = PolicyNet(4, 1, rng, hidden=(8,))
    buffer = filled_buffer(rng)
    buffer.compute_advantages(0.0, 0.99, 0.9)
    config = TrainConfig.ppo(total_steps=8, rollout_steps=8, batch_size=4,
                             n_epochs=2)
    before = net.flat.copy()
    diag = ppo_update(net, buffer, config, Adam(net, 3e-4),
                      np.random.default_rng(0))
    assert not diag["aborted"]
    assert diag["n_minibatches"] == 4
    assert np.isfinite(diag["loss"])
    assert np.isfinite(diag["approx_kl"])
    assert 0.0 <= diag["clip_fraction"] <= 1.0
    assert not np.array_equal(before, net.flat)


def test_a2c_update_takes_one_step():
    rng = np.random.default_rng(13)
    net = PolicyNet(4, 1, rng, hidden=(8,))
    buffer = filled_buffer(rng)
    buffer.compute_advantages(0.0, 0.99, 0.9)
    config = TrainConfig.a2c(total_steps=8, rollout_steps=8, batch_size=8)
    before = net.flat.copy()
    diag = ppo_update(net, buffer, config, Adam(net, 1e-4))
    assert not diag["aborted"]
    assert diag["n_minibatches"] == 1
    assert not np.array_equal(before, net.flat)


def a2c_update_oracle(net, buffer, observations, config, optimizer):
    """The separate A2C update that ppo_update absorbed, kept as the oracle:
    one step over the whole rollout as recorded, no index, no rng."""
    adv = _normalized(buffer.advantages, config.advantage_normalization)
    batch = MiniBatch(
        observations=observations,
        actions=buffer.actions,
        old_log_probs=buffer.log_probs,
        advantages=adv,
        returns=buffer.returns,
        contexts=buffer.contexts,
    )
    terms = loss_and_grads(net, batch, config)
    grad_norm = clip_grad_norm(net, config.max_grad_norm)
    terms["grad_norm"] = grad_norm
    if not (math.isfinite(terms["loss"]) and math.isfinite(grad_norm)):
        return _aggregate([], aborted=True)
    optimizer.step()
    net.clamp_log_std()
    return _aggregate([terms], aborted=False)


def a2c_case(case):
    """A fresh net, filled buffer and record of the buffer's observations;
    equal on every call."""
    rng = np.random.default_rng(21)
    context_dim = 2 if case == "context" else None
    if context_dim:
        net = ContextPolicyNet(4, context_dim, 2, rng, feature_sizes=(8, 4),
                               regime_sizes=(4, 4), shared_sizes=(4,))
    else:
        net = PolicyNet(4, 2, rng, hidden=(8,))
    buffer = RolloutBuffer(8, 4, 2, context_dim=context_dim)
    observations = rng.normal(size=(8, 4))
    for i in range(8):
        action = rng.normal(size=2)
        buffer.log_probs[i] = float(rng.normal())
        buffer.add(
            observations[i], action, float(rng.normal()), float(rng.normal()),
            i == 7, context=rng.dirichlet(np.ones(2)) if context_dim else None,
        )
    buffer.compute_advantages(0.0, 0.99, 0.9)
    if case == "aborted":
        buffer.advantages[3] = np.inf
    return net, buffer, observations


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("case", ["plain", "context", "normalized", "aborted"])
def test_ppo_update_on_a2c_config_matches_the_a2c_oracle(case):
    # batch_size and n_epochs are set to show that A2C ignores them
    config = TrainConfig.a2c(
        total_steps=8, rollout_steps=8, batch_size=4, n_epochs=3,
        advantage_normalization=case == "normalized",
    )
    net, buffer, _ = a2c_case(case)
    oracle_net, oracle_buffer, oracle_observations = a2c_case(case)
    optimizer = Adam(net, 1e-3)
    oracle_optimizer = Adam(oracle_net, 1e-3)
    rng = np.random.default_rng(0)
    rng_state = rng.bit_generator.state
    start = net.flat.copy()
    for _ in range(3):
        diag = ppo_update(net, buffer, config, optimizer, rng)
        want = a2c_update_oracle(oracle_net, oracle_buffer,
                                 oracle_observations, config, oracle_optimizer)
        assert diag.keys() == want.keys()
        for key, value in want.items():
            assert diag[key] == value or (math.isnan(diag[key])
                                          and math.isnan(value)), key
        assert np.array_equal(net.flat, oracle_net.flat)
        assert np.array_equal(net.flat_grad, oracle_net.flat_grad,
                              equal_nan=True)
    assert rng.bit_generator.state == rng_state
    if case == "aborted":
        assert diag["aborted"] and diag["n_minibatches"] == 0
        assert np.array_equal(net.flat, start)
    else:
        assert not diag["aborted"] and diag["n_minibatches"] == 1
        assert not np.array_equal(net.flat, start)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_ppo_update_aborts_on_nonfinite_loss():
    rng = np.random.default_rng(14)
    net = PolicyNet(4, 1, rng, hidden=(8,))
    buffer = filled_buffer(rng)
    buffer.compute_advantages(0.0, 0.99, 0.9)
    buffer.advantages[3] = np.inf
    config = TrainConfig.ppo(total_steps=8, rollout_steps=8, batch_size=8,
                             n_epochs=3, advantage_normalization=False)
    before = net.flat.copy()
    diag = ppo_update(net, buffer, config, Adam(net, 3e-4),
                      np.random.default_rng(0))
    assert diag["aborted"]
    assert diag["n_minibatches"] == 0
    assert np.array_equal(before, net.flat)


# -- TrainConfig -----------------------------------------------------------------


def test_train_config_validation():
    with pytest.raises(ValueError, match="algo must be"):
        TrainConfig(algo="ddpg", total_steps=1, learning_rate=1e-3,
                    rollout_steps=1, batch_size=1, n_epochs=1)
    with pytest.raises(ValueError, match="total_steps must be positive"):
        TrainConfig.ppo(total_steps=0)
    with pytest.raises(ValueError, match="discount must be in"):
        TrainConfig.ppo(total_steps=1, discount=0.0)
    with pytest.raises(ValueError, match="gae_lambda must be in"):
        TrainConfig.ppo(total_steps=1, gae_lambda=1.5)
    with pytest.raises(ValueError, match="clip_range must be positive"):
        TrainConfig.ppo(total_steps=1, clip_range=0.0)
    with pytest.raises(ValueError, match="max_grad_norm"):
        TrainConfig.ppo(total_steps=1, max_grad_norm=-1.0)
    # a zero clip range is fine once clipping is off
    TrainConfig.ppo(total_steps=1, clip_range=0.0, clipping_enabled=False)


def test_effective_epochs():
    assert TrainConfig.ppo(total_steps=1).effective_epochs == 10
    unclipped = TrainConfig.ppo(total_steps=1, clipping_enabled=False)
    assert unclipped.effective_epochs == 1
    assert TrainConfig.a2c(total_steps=1).effective_epochs == 1


def test_presets_match_documented_defaults():
    ppo = TrainConfig.ppo(total_steps=100)
    assert (ppo.learning_rate, ppo.rollout_steps, ppo.batch_size,
            ppo.n_epochs) == (3e-4, 1280, 64, 10)
    assert (ppo.clip_range, ppo.gae_lambda, ppo.discount) == (0.2, 0.9, 0.99)
    assert (ppo.value_coef, ppo.entropy_coef, ppo.max_grad_norm) == (1.0, 0.0, 0.5)
    assert ppo.init_log_std == 0.0
    a2c = TrainConfig.a2c(total_steps=100)
    assert (a2c.learning_rate, a2c.rollout_steps, a2c.batch_size,
            a2c.n_epochs) == (1e-4, 256, 256, 1)
    assert a2c.init_log_std == -2.0
    assert not a2c.advantage_normalization
