"""Training loop, deterministic evaluation, and the net-backed policy.

train() alternates rollout collection and one update per rollout until the
step budget is spent. The training log gets one row per completed episode:
the agent's mean chosen weights and their within-episode mean absolute
deviation (cash first, then stocks), growth, bankruptcy flag, and the latest
update's clip fraction and approximate KL.

For a context-conditioned net the regime detector is fit once on the log
returns of the first 10 episodes and frozen; until then the context input is
the uniform vector over regimes, afterwards the one-hot detector label
recomputed from the observation window each step.
"""

import csv
from dataclasses import dataclass, field

import numpy as np

from . import hmm as hmm_module
from .env import PortfolioEnv
from .errors import FitError
from .nets import Adam, ContextPolicyNet
from .rl import (TrainConfig, RolloutBuffer, act_and_value, log_density,
                 ppo_update)
from .rng import ACTION_STREAM, HMM_STREAM, UPDATE_STREAM, stream


class NetPolicy:
    """Evaluation wrapper: act with the policy mean, one forward for a wave.

    A context net reads its regime context from its frozen detector, which
    it must be given; a SlidingLabels per wave labels every live lane,
    solving only each window's newest emission row from period to period.
    """

    # Per-row forward cost is flat past 64 rows, and every lane holds one
    # environment (~88 KB for a 5-year etf3 episode).
    lanes = 64

    def __init__(self, net, detector=None):
        if isinstance(net, ContextPolicyNet) and detector is None:
            raise ValueError("a context policy needs its fitted regime detector")
        self.net = net
        self.detector = detector
        self._labels = None
        if detector is not None:
            self._one_hot = np.eye(net.context_dim)

    def reset(self, env, first=0):
        if self.detector is not None:
            self._labels = hmm_module.SlidingLabels(self.detector)

    def act(self, env):
        obs = env.observations()
        context = None
        if self.detector is not None:
            window, n = env.config.window, env.config.n_assets
            prices = obs[:, : window * n].reshape(len(obs), window, n)
            labels = self._labels.labels(env.t, env.live, prices)
            context = self._one_hot[labels]
        return self.net.forward(obs, context)[0]


@dataclass
class EvalResult:
    mean_growth: float
    mad: float
    bankruptcies: int
    n_episodes: int
    growths: list = field(default_factory=list, repr=False)
    bankrupt: list = field(default_factory=list, repr=False)  # per lane


# a context net's regime detector is fit once on this many first episodes
DETECTOR_FIT_EPISODES = 10

# post-training evaluation starts here, far past any training episode index,
# so evaluation paths are never paths the agent trained on
EVAL_EPISODE_OFFSET = 1_000_000


def evaluate(policy, env_factory, n_episodes, seed: int,
             episode_offset: int = 0) -> EvalResult:
    """Deterministic rollouts on episodes offset..offset+n-1 of the seeded
    stream, or on a sequence of episodes, one lane each (an episode may
    repeat), counted from the offset.

    Episodes run side by side in waves of up to policy.lanes lanes. Each lane
    is its own env_factory(seed) environment, reused from wave to wave, and
    PortfolioEnv.lockstep steps a wave's live lanes as one array step. At
    the start of a wave the policy gets reset(wave, first), where first is
    the wave's first lane in the evaluation. Every period it gets act(wave)
    and returns the live lanes' actions (L, n), reading what it needs from
    the wave: live, config, t, regimes() and observations(). A lane
    leaves the wave when its episode ends. An episode's path depends only on
    (seed, episode), so the wave layout changes no analytic policy's result.

    Bankrupt episodes are counted but excluded from the growth statistics
    (their growth is undefined); if nothing survives, the statistics are NaN.
    Growths are listed in episode order, and `bankrupt` flags every lane.
    MAD is the mean absolute deviation about the mean.
    """
    if np.ndim(n_episodes) == 0:
        episodes = range(episode_offset, episode_offset + int(n_episodes))
    else:
        episodes = [episode_offset + int(e) for e in n_episodes]
    lanes = [env_factory(seed)
             for _ in range(max(1, min(policy.lanes, len(episodes))))]
    horizon = lanes[0].config.horizon_years
    reward_sums = np.zeros(len(episodes))
    bankrupt = np.zeros(len(episodes), dtype=bool)
    for first in range(0, len(episodes), len(lanes)):
        wave_episodes = episodes[first : first + len(lanes)]
        wave = PortfolioEnv.lockstep(lanes[: len(wave_episodes)],
                                     wave_episodes)
        policy.reset(wave, first)
        sums = reward_sums[first : first + len(wave_episodes)]
        flags = bankrupt[first : first + len(wave_episodes)]
        while not wave.done:
            live = wave.live
            result = wave.step(policy.act(wave))
            sums[live] += result.reward
            flags[live] = result.bankrupt
    arr = reward_sums[~bankrupt] / horizon
    if arr.size:
        mean = float(arr.mean())
        mad = float(np.mean(np.abs(arr - mean)))
    else:
        mean = float("nan")
        mad = float("nan")
    return EvalResult(
        mean_growth=mean,
        mad=mad,
        bankruptcies=int(bankrupt.sum()),
        n_episodes=len(episodes),
        growths=arr.tolist(),
        bankrupt=bankrupt.tolist(),
    )


@dataclass
class EpisodeLogRow:
    episode: int
    steps: int
    mean_weights: np.ndarray  # cash first, then stocks
    mad_weights: np.ndarray
    growth: float  # NaN for bankrupt episodes
    bankrupt: bool
    clip_fraction: float  # latest update's diagnostics at episode end
    approx_kl: float


@dataclass
class TrainResult:
    net: object
    log: list
    detector: object = None
    updates: list = field(default_factory=list, repr=False)


def check_context_window(window: int):
    """Reject a window too short to give the detector one return row."""
    if window < 2:
        raise ValueError("context policies need window >= 2 (at least one "
                         f"return row), the config has window {window}")


def check_detector_budget(env_config, config: TrainConfig,
                          hmm_config: hmm_module.HmmFitConfig):
    """Reject a context-policy run that cannot fit its regime detector.

    The detector needs at least one return row per observation window, and
    hmm_config.min_rows return rows in each episode it is fit on; the run's
    rollouts must finish the DETECTOR_FIT_EPISODES episodes it is fit on.
    """
    check_context_window(env_config.window)
    episode_steps = env_config.n_periods
    if episode_steps < hmm_config.min_rows:
        raise FitError(
            f"episodes of {episode_steps} periods are too short to fit a "
            f"{hmm_config.n_states}-state regime detector, which needs "
            f"{hmm_config.min_rows}"
        )
    n_rollouts = -(-config.total_steps // config.rollout_steps)
    steps = n_rollouts * config.rollout_steps
    if steps < DETECTOR_FIT_EPISODES * episode_steps:
        raise ValueError(
            f"a context policy fits its regime detector after "
            f"{DETECTOR_FIT_EPISODES} episodes, but total_steps "
            f"{config.total_steps} runs {steps} steps ({n_rollouts} "
            f"rollouts of {config.rollout_steps}), fewer than "
            f"{DETECTOR_FIT_EPISODES} episodes of {episode_steps} steps"
        )


def train(
    env_factory,
    net,
    config: TrainConfig,
    seed: int,
    hmm_config: hmm_module.HmmFitConfig = None,
) -> TrainResult:
    """Run rollout/update cycles until total_steps environment steps.

    env_factory(master_seed) must build a fresh environment; all randomness
    (episode paths, action noise, minibatch shuffles, detector restarts)
    derives from `seed`, so a rerun reproduces the training log bitwise.
    """
    env = env_factory(seed)
    n_assets = env.config.n_assets
    if net.obs_dim != env.config.observation_dim:
        raise ValueError(
            f"net expects obs_dim {net.obs_dim}, environment produces "
            f"{env.config.observation_dim}"
        )
    is_context = isinstance(net, ContextPolicyNet)
    if is_context:
        if hmm_config is None:
            hmm_config = hmm_module.HmmFitConfig(n_states=net.context_dim)
        elif hmm_config.n_states != net.context_dim:
            raise ValueError(
                f"detector has {hmm_config.n_states} states, net expects "
                f"{net.context_dim}"
            )
        check_detector_budget(env.config, config, hmm_config)

    action_rng = stream(seed, ACTION_STREAM)
    update_rng = stream(seed, UPDATE_STREAM)
    optimizer = Adam(net, config.learning_rate)
    buffer = RolloutBuffer(
        config.rollout_steps, env.config.observation_dim, n_assets,
        context_dim=net.context_dim if is_context else None,
        window=env.config.window, row_size=n_assets)

    log = []
    updates = []
    latest = {"clip_fraction": float("nan"), "approx_kl": float("nan")}
    detector = None
    detector_sequences = []

    one_hot = np.eye(net.context_dim) if is_context else None
    window = env.config.window
    obs = env.reset()
    # until the detector is fit the context is uniform over regimes, keeping
    # the elementwise-product trunk live without asserting a label
    context = (np.full(net.context_dim, 1.0 / net.context_dim) if is_context
               else None)
    reward_sum = 0.0
    # the episode's weight rows so far (cash first), one row per step
    weight_rows = np.empty((env.config.n_periods, n_assets + 1))
    # a rollout's action noise; each row becomes its step's policy mean
    noise = np.empty((config.rollout_steps, n_assets))
    episode_steps = 0
    total = 0

    while total < config.total_steps:
        buffer.reset()
        std = np.exp(net.log_std.value)
        action_rng.standard_normal(out=noise)
        for i in range(config.rollout_steps):
            action, noise[i], value = act_and_value(net, obs, noise[i], std,
                                                    context)
            result = env.step(action)
            buffer.add(obs, action, result.reward, value, result.done, context)
            total += 1
            reward_sum += result.reward
            weight_rows[episode_steps, 1:] = action
            episode_steps += 1

            if result.done:
                bankrupt = result.bankrupt
                rows = weight_rows[:episode_steps]
                rows[:, 0] = 1.0 - rows[:, 1:].sum(axis=1)
                mean_w = rows.mean(axis=0)
                log.append(
                    EpisodeLogRow(
                        episode=env.episode,
                        steps=total,
                        mean_weights=mean_w,
                        mad_weights=np.mean(np.abs(rows - mean_w), axis=0),
                        growth=(
                            float("nan")
                            if bankrupt
                            else reward_sum / env.config.horizon_years
                        ),
                        bankrupt=bankrupt,
                        clip_fraction=latest["clip_fraction"],
                        approx_kl=latest["approx_kl"],
                    )
                )
                if is_context and detector is None:
                    seq = np.diff(
                        np.log(env.effective_episode_prices()), axis=0
                    )
                    if seq.shape[0] >= hmm_config.min_rows:
                        detector_sequences.append(seq)
                    if len(log) == DETECTOR_FIT_EPISODES:
                        if not detector_sequences:
                            raise FitError(
                                f"first {DETECTOR_FIT_EPISODES} episodes were "
                                "all too short to fit the regime detector"
                            )
                        detector = hmm_module.fit(
                            detector_sequences, hmm_config, stream(seed, HMM_STREAM)
                        )
                        detector_sequences = []
                obs = env.reset()
                reward_sum = 0.0
                episode_steps = 0
            else:
                obs = result.observation
            if detector is not None:
                # the label of the log returns of the observation's leading
                # (window, n_assets) price rows, as its row of one_hot
                log_prices = np.log(obs[: window * n_assets].reshape(window, -1))
                context = one_hot[hmm_module.predict_current(
                    detector, log_prices[1:] - log_prices[:-1])]

        # the update's log-probabilities: ((a - mean) / std)**2 in place of
        # the means, then log_density, as loss_and_grads computes them
        diff = np.divide(np.subtract(buffer.actions, noise, out=noise), std,
                         out=noise)
        log_density(np.square(diff, out=diff),
                    float(net.log_std.value.sum()), out=buffer.log_probs)
        if buffer.dones[-1]:
            bootstrap = 0.0
        else:
            _, value = net.forward(
                obs[None, :], None if context is None else context[None, :])
            bootstrap = value[0]
        buffer.compute_advantages(bootstrap, config.discount, config.gae_lambda)
        diag = ppo_update(net, buffer, config, optimizer, update_rng)
        updates.append(diag)
        latest = diag

    return TrainResult(net=net, log=log, detector=detector, updates=updates)


def write_csv(path, header, rows):
    """The package's one CSV writer: the header, then each row's cells."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows(rows)


def fmt(value) -> str:
    """repr for floats (lossless), str for the rest."""
    if isinstance(value, float):
        return repr(float(value))  # plain float: numpy scalars repr verbosely
    return str(value)


def write_training_log(log_rows, path, n_weights: int):
    """CSV export of per-episode training rows (repr-precision floats).

    n_weights (cash + stocks) sizes the header, so a run that finished no
    episode still gets a header-only file.
    """
    header = (
        ["episode", "steps"]
        + [f"mean_w{i}" for i in range(n_weights)]
        + [f"mad_w{i}" for i in range(n_weights)]
        + ["growth", "bankrupt", "clip_fraction", "approx_kl"]
    )
    write_csv(path, header, (map(fmt, (
        row.episode, row.steps, *row.mean_weights, *row.mad_weights,
        row.growth, int(row.bankrupt), row.clip_fraction, row.approx_kl))
        for row in log_rows))
