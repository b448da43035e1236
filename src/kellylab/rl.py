"""On-policy actor-critic machinery: GAE, A2C, and clipped PPO.

The policy is a diagonal Gaussian over target weights: the net outputs the
mean, a free parameter vector holds log standard deviations. Updates maximize
the clipped surrogate min(rho * A, clip(rho, 1-eps, 1+eps) * A) (PPO) or the
score-function surrogate log pi * A (A2C) minus a squared-error value loss,
with gradients written out analytically (see tests for the finite-difference
verification of every path).

Sign conventions: losses are minimized; advantages enter PPO normalized per
minibatch (mean 0, std 1 with ddof=1, skipped when the spread is below 1e-8)
and raw for A2C.

RolloutBuffer keeps each price row of a rollout once (an episode's
consecutive price windows share all but one row) and gathers each minibatch's
observations from those rows: the same floats in the same C-ordered layout.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .nets import Adam, clip_grad_norm

_LOG_2PI = math.log(2.0 * math.pi)


@dataclass
class TrainConfig:
    """Hyperparameters for one training run. Use ppo()/a2c() for the defaults."""

    algo: str
    total_steps: int
    learning_rate: float
    rollout_steps: int
    batch_size: int
    n_epochs: int
    clip_range: float = 0.2
    discount: float = 0.99
    gae_lambda: float = 0.9
    value_coef: float = 1.0
    entropy_coef: float = 0.0
    max_grad_norm: float = 0.5
    clipping_enabled: bool = True
    init_log_std: float = 0.0
    advantage_normalization: bool = True

    def __post_init__(self):
        if self.algo not in ("ppo", "a2c"):
            raise ValueError(f"algo must be 'ppo' or 'a2c', got {self.algo!r}")
        for name in (
            "total_steps",
            "learning_rate",
            "rollout_steps",
            "batch_size",
            "n_epochs",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if not 0.0 < self.discount <= 1.0:
            raise ValueError(f"discount must be in (0, 1], got {self.discount}")
        if not 0.0 <= self.gae_lambda <= 1.0:
            raise ValueError(f"gae_lambda must be in [0, 1], got {self.gae_lambda}")
        if self.algo == "ppo" and self.clipping_enabled and self.clip_range <= 0:
            raise ValueError("clip_range must be positive when clipping is enabled")
        if self.max_grad_norm < 0:
            raise ValueError("max_grad_norm must be >= 0 (0 disables clipping)")

    @classmethod
    def ppo(cls, total_steps, **overrides) -> "TrainConfig":
        base = dict(
            algo="ppo",
            total_steps=total_steps,
            learning_rate=3e-4,
            rollout_steps=1280,
            batch_size=64,
            n_epochs=10,
            clip_range=0.2,
            init_log_std=0.0,
            advantage_normalization=True,
        )
        base.update(overrides)
        return cls(**base)

    @classmethod
    def a2c(cls, total_steps, **overrides) -> "TrainConfig":
        base = dict(
            algo="a2c",
            total_steps=total_steps,
            learning_rate=1e-4,
            rollout_steps=256,
            batch_size=256,
            n_epochs=1,
            init_log_std=-2.0,
            advantage_normalization=False,
        )
        base.update(overrides)
        return cls(**base)

    @property
    def effective_epochs(self) -> int:
        """A2C takes one pass; unclipped PPO must too, or the policy runs
        away."""
        if self.algo == "a2c" or not self.clipping_enabled:
            return 1
        return self.n_epochs


def gae_advantages(rewards, values, dones, bootstrap_value, gamma, lam):
    """Generalized advantage estimates and value targets.

    rewards[t] is the reward earned by step t, values[t] = V(x_t), dones[t]
    flags episode end at step t; bootstrap_value estimates V of the state
    after the last step (ignored past a done). Backward recursion:
    delta_t = r + gamma V(x_{t+1}) (1 - done) - V(x_t),
    A_t = delta_t + gamma lam (1 - done) A_{t+1}; targets are A + V.
    """
    rewards = np.asarray(rewards, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    dones = np.asarray(dones, dtype=np.float64)
    if not rewards.shape == values.shape == dones.shape:
        raise ValueError("rewards, values, and dones must share one shape")
    t_len = rewards.shape[0]
    advantages = np.empty(t_len)
    next_value = float(bootstrap_value)
    next_advantage = 0.0
    for t in range(t_len - 1, -1, -1):
        nonterminal = 1.0 - dones[t]
        delta = rewards[t] + gamma * next_value * nonterminal - values[t]
        next_advantage = delta + gamma * lam * nonterminal * next_advantage
        advantages[t] = next_advantage
        next_value = values[t]
    return advantages, advantages + values


class RolloutBuffer:
    """Fixed-size on-policy transition store for one update.

    An observation is `window` rows of `row_size` values, then a tail. Each
    step keeps its tail and its window's offset in one flat run of rows; a
    segment start (the first step, and each step after a done) adds its whole
    window to the run, any other step only its newest row. This rests on a
    contract PortfolioEnv keeps, as its history rows are frozen once written:
    inside an episode, each observation's rows are the previous one's last
    window - 1 rows plus one new row. T steps in S segments keep
    T + S (window - 1) rows; the default, one row of obs_dim, keeps each
    observation whole. compute_advantages() takes one sliding-window view of
    the run, and gather(idx) indexes it by the steps' window offsets.
    add() leaves log_probs to the caller, which fills a rollout's at once.
    """

    def __init__(self, size, obs_dim, action_dim, context_dim=None, window=1,
                 row_size=None):
        self.size = int(size)
        self.window = int(window)
        self.row_size = obs_dim if row_size is None else int(row_size)
        self._head = self.window * self.row_size
        # room for one segment; add() grows it when a rollout has more
        self._rows = np.empty(self._head + (self.size - 1) * self.row_size)
        self._starts = np.zeros(size, dtype=np.intp)
        self._tails = np.zeros((size, obs_dim - self._head))
        self.actions = np.zeros((size, action_dim))
        self.log_probs = np.zeros(size)
        self.rewards = np.zeros(size)
        self.values = np.zeros(size)
        self.dones = np.zeros(size)
        self.contexts = None if context_dim is None else np.zeros((size, context_dim))
        self.reset()

    def add(self, obs, action, reward, value, done, context=None):
        if self.pos >= self.size:
            raise ValueError("rollout buffer is full")
        i = self.pos
        if self.contexts is not None:  # checked and written first
            if context is None:
                raise ValueError("this buffer expects a context per step")
            self.contexts[i] = context
        head, r = self._head, self._n_values
        k = head if i == 0 or self.dones[i - 1] else self.row_size
        if r + k > self._rows.shape[0]:  # np.resize keeps the rows first
            self._rows = np.resize(self._rows, max(r + k, 2 * r))
        self._rows[r : r + k] = obs[head - k : head]
        self._n_values = r = r + k
        self._starts[i] = r - head
        self._tails[i] = obs[head:]
        self.actions[i] = action
        self.rewards[i] = reward
        self.values[i] = value
        self.dones[i] = float(done)
        self.pos = i + 1

    def compute_advantages(self, bootstrap_value, gamma, lam):
        if self.pos != self.size:
            raise ValueError(f"buffer holds {self.pos}/{self.size} steps")
        self.advantages, self.returns = gae_advantages(
            self.rewards, self.values, self.dones, bootstrap_value, gamma, lam
        )
        self._windows = np.lib.stride_tricks.sliding_window_view(
            self._rows[: self._n_values], self._head)

    def gather(self, idx) -> np.ndarray:
        """Copies of the observations of steps idx, C-ordered (len(idx), D)."""
        head = self._head
        out = np.empty((len(idx), head + self._tails.shape[1]))
        out[:, :head] = self._windows[self._starts[idx]]
        out[:, head:] = self._tails[idx]
        return out

    def reset(self):
        self.advantages = None
        self.returns = None
        self._windows = None
        self._n_values = 0  # in _rows
        self.pos = 0


class MiniBatch(NamedTuple):
    observations: np.ndarray
    actions: np.ndarray
    old_log_probs: np.ndarray
    advantages: np.ndarray
    returns: np.ndarray
    contexts: np.ndarray = None


def log_density(diff2, log_std_sum, out=None) -> np.ndarray:
    """Row-wise diagonal-Gaussian log density from the squared standardized
    residuals diff2 = ((a - mean) / std)**2: -0.5 sum(diff2) - sum(log_std)
    - 0.5 d log(2 pi), evaluated left to right, into `out` if given."""
    out = np.add.reduce(diff2, axis=1, out=out)
    out *= -0.5
    out -= log_std_sum
    out -= 0.5 * diff2.shape[1] * _LOG_2PI
    return out


def loss_and_grads(net, batch: MiniBatch, config: TrainConfig) -> dict:
    """Forward pass, every loss term, and analytic gradients written into
    the net's params, in one pass.

    The log density is log_density's; the entropy is sum(log_std)
    + 0.5 d (log(2 pi) + 1). The per-sample policy gradient through the ratio
    is zeroed exactly when the clipped branch is active: (A > 0 and
    rho > 1 + eps) or (A < 0 and rho < 1 - eps); ties at the boundary keep
    the unclipped branch.
    """
    mean, value = net.forward(batch.observations, batch.contexts)
    log_std = net.log_std.value
    log_std_sum = log_std.sum()
    std = np.exp(log_std)
    diff = (batch.actions - mean) / std
    diff2 = diff**2
    log_probs = log_density(diff2, log_std_sum)
    ratio = np.exp(log_probs - batch.old_log_probs)
    adv = batch.advantages
    n = len(adv)

    if config.algo == "a2c":
        policy_loss = -(float((log_probs * adv).sum()) / n)
        d_log_probs = -adv / n
    else:
        surrogate = ratio * adv
        if config.clipping_enabled:
            eps = config.clip_range
            clipped = np.minimum(np.maximum(ratio, 1.0 - eps), 1.0 + eps) * adv
            policy_loss = -(float(np.minimum(surrogate, clipped).sum()) / n)
            surrogate = surrogate * (surrogate <= clipped)
        else:
            policy_loss = -(float(surrogate.sum()) / n)
        d_log_probs = -surrogate / n

    value_err = value - batch.returns
    value_loss = float((value_err**2).sum()) / n
    entropy = float(log_std_sum + 0.5 * log_std.shape[0] * (_LOG_2PI + 1.0))
    total = (
        policy_loss
        + config.value_coef * value_loss
        - config.entropy_coef * entropy
    )
    ratio_step = ratio - 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        kl_terms = ratio_step - np.log(ratio)
    clipped_out = int(np.count_nonzero(np.abs(ratio_step) > config.clip_range))

    d_mean = d_log_probs[:, None] * diff / std
    d_log_std = np.add.reduce(d_log_probs[:, None] * (diff2 - 1.0), axis=0)
    d_log_std -= config.entropy_coef  # d(-coef * entropy)/d log_std
    d_value = config.value_coef * 2.0 * value_err / n

    net.backward(d_mean, d_value)
    net.log_std.grad[...] = d_log_std
    return {
        "policy_loss": policy_loss,
        "value_loss": value_loss,
        "entropy": entropy,
        "loss": total,
        "approx_kl": float(kl_terms.sum()) / n,
        "clip_fraction": clipped_out / n,
    }


def act_and_value(net, observation, noise, std, context=None):
    """(action, policy mean, value) in a single forward pass, with action =
    mean + std * noise. The caller draws the noise and computes std =
    exp(log_std) once per rollout (only ppo_update moves log_std), and
    computes the rollout's log-probabilities after it (only the update reads
    them)."""
    mean, value = net.forward(
        observation[None, :], None if context is None else context[None, :])
    mean = mean[0]
    return mean + std * noise, mean, float(value[0])


def _normalized(advantages, enabled: bool) -> np.ndarray:
    """(a - mean) / std(ddof=1), bit for bit, with the mean computed once."""
    n = advantages.shape[0]
    if not enabled or n < 2:
        return advantages
    dev = advantages - advantages.sum() / n
    std = math.sqrt(float((dev * dev).sum()) / (n - 1))
    if std < 1e-8:
        return advantages
    return dev / std


def _aggregate(diags: list, aborted: bool) -> dict:
    keys = ("loss", "policy_loss", "value_loss", "entropy", "clip_fraction",
            "approx_kl", "grad_norm")
    out = {k: float(np.mean([d[k] for d in diags])) if diags else float("nan")
           for k in keys}
    out["n_minibatches"] = len(diags)
    out["aborted"] = aborted
    return out


def ppo_update(net, buffer: RolloutBuffer, config: TrainConfig, optimizer: Adam,
               rng=None) -> dict:
    """Epochs of shuffled-minibatch surrogate steps over one rollout.

    PPO shuffles with `rng` each epoch. With clipping disabled the surrogate
    is the raw ratio * advantage and a single epoch runs regardless of
    n_epochs. A2C is the special case of one epoch whose single minibatch is
    the whole rollout in order, so it draws nothing from `rng`. A non-finite
    loss or gradient aborts the update before applying that step.
    """
    if buffer.advantages is None:
        raise ValueError("compute_advantages() before updating")
    a2c = config.algo == "a2c"
    batch_size = buffer.size if a2c else config.batch_size
    diags = []
    for _epoch in range(config.effective_epochs):
        order = np.arange(buffer.size) if a2c else rng.permutation(buffer.size)
        for start in range(0, buffer.size, batch_size):
            idx = order[start : start + batch_size]
            adv = _normalized(buffer.advantages[idx],
                              config.advantage_normalization)
            batch = MiniBatch(
                observations=buffer.gather(idx),
                actions=buffer.actions[idx],
                old_log_probs=buffer.log_probs[idx],
                advantages=adv,
                returns=buffer.returns[idx],
                contexts=None if buffer.contexts is None else buffer.contexts[idx],
            )
            terms = loss_and_grads(net, batch, config)
            grad_norm = clip_grad_norm(net, config.max_grad_norm)
            terms["grad_norm"] = grad_norm
            if not (math.isfinite(terms["loss"]) and math.isfinite(grad_norm)):
                return _aggregate(diags, aborted=True)
            optimizer.step()
            net.clamp_log_std()
            diags.append(terms)
    return _aggregate(diags, aborted=False)
