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
from .errors import FitError
from .nets import Adam, ContextPolicyNet
from .rl import TrainConfig, RolloutBuffer, act_and_value, ppo_update
from .rng import ACTION_STREAM, HMM_STREAM, UPDATE_STREAM, stream


class NetPolicy:
    """Evaluation wrapper: act with the policy mean (or sampled actions).

    A context net reads its regime context from its frozen detector, which
    it must be given.
    """

    def __init__(self, net, detector=None, deterministic=True, rng=None):
        if isinstance(net, ContextPolicyNet) and detector is None:
            raise ValueError("a context policy needs its fitted regime detector")
        self.net = net
        self.detector = detector
        self.deterministic = deterministic
        self.rng = rng
        if not deterministic and rng is None:
            raise ValueError("stochastic evaluation needs an rng")

    def reset(self, env):
        pass

    def act(self, obs, env):
        context = None
        if self.detector is not None:
            context = _context_from_obs(
                obs,
                env.config.window,
                env.config.n_assets,
                self.detector,
                self.net.context_dim,
            )
        action, _, _ = act_and_value(
            self.net, obs, self.rng, deterministic=self.deterministic,
            context=context,
        )
        return action


def _context_from_obs(obs, window, n_assets, detector, n_states) -> np.ndarray:
    """One-hot detector label from the observation's price window.

    Before the detector exists the context is uniform over regimes, keeping
    the elementwise-product trunk live without asserting a label.
    """
    if detector is None:
        return np.full(n_states, 1.0 / n_states)
    label = hmm_module.label_observation(detector, obs, window, n_assets)
    context = np.zeros(n_states)
    context[label] = 1.0
    return context


@dataclass
class EvalResult:
    mean_growth: float
    mad: float
    bankruptcies: int
    n_episodes: int
    growths: list = field(default_factory=list, repr=False)


# a context net's regime detector is fit once on this many first episodes
DETECTOR_FIT_EPISODES = 10

# post-training evaluation starts here, far past any training episode index,
# so evaluation paths are never paths the agent trained on
EVAL_EPISODE_OFFSET = 1_000_000


def evaluate(policy, env_factory, n_episodes: int, seed: int,
             episode_offset: int = 0) -> EvalResult:
    """Deterministic rollouts on episodes offset..offset+n-1 of the seeded
    stream.

    Bankrupt episodes are counted but excluded from the growth statistics
    (their growth is undefined); if nothing survives, the statistics are NaN.
    MAD is the mean absolute deviation about the mean.
    """
    env = env_factory(seed)
    growths = []
    bankruptcies = 0
    for episode in range(episode_offset, episode_offset + n_episodes):
        obs = env.reset(episode=episode)
        policy.reset(env)
        reward_sum = 0.0
        bankrupt = False
        while True:
            result = env.step(policy.act(obs, env))
            obs = result.observation
            reward_sum += result.reward
            if result.done:
                bankrupt = result.info["bankrupt"]
                break
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
    return EvalResult(
        mean_growth=mean,
        mad=mad,
        bankruptcies=bankruptcies,
        n_episodes=n_episodes,
        growths=growths,
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


def check_detector_budget(env_config, config: TrainConfig):
    """Reject a context-policy run that cannot fit its regime detector.

    The detector needs at least one return row per observation window, and
    the run's rollouts must finish the DETECTOR_FIT_EPISODES episodes it is
    fit on.
    """
    if env_config.window < 2:
        raise ValueError(
            "context policies need window >= 2 (at least one return row)"
        )
    n_rollouts = -(-config.total_steps // config.rollout_steps)
    steps = n_rollouts * config.rollout_steps
    episode_steps = env_config.n_periods
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
        check_detector_budget(env.config, config)

    action_rng = stream(seed, ACTION_STREAM)
    update_rng = stream(seed, UPDATE_STREAM)
    optimizer = Adam(net, config.learning_rate)
    buffer = RolloutBuffer(
        config.rollout_steps,
        env.config.observation_dim,
        n_assets,
        context_dim=net.context_dim if is_context else None,
    )

    log = []
    updates = []
    latest = {"clip_fraction": float("nan"), "approx_kl": float("nan")}
    detector = None
    detector_sequences = []
    episodes_completed = 0

    obs = env.reset()
    context = (
        _context_from_obs(obs, env.config.window, n_assets, None, net.context_dim)
        if is_context
        else None
    )
    reward_sum = 0.0
    # the episode's weight rows so far (cash first), one row per step
    weight_rows = np.empty((env.config.n_periods, n_assets + 1))
    episode_steps = 0
    total = 0

    while total < config.total_steps:
        buffer.reset()
        for _ in range(config.rollout_steps):
            action, log_prob, value = act_and_value(
                net, obs, action_rng, context=context
            )
            result = env.step(action)
            buffer.add(
                obs, action, log_prob, result.reward, value, result.done, context
            )
            total += 1
            reward_sum += result.reward
            weight_rows[episode_steps, 0] = 1.0 - action.sum()
            weight_rows[episode_steps, 1:] = action
            episode_steps += 1

            if result.done:
                bankrupt = result.info["bankrupt"]
                rows = weight_rows[:episode_steps]
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
                episodes_completed += 1
                if is_context and detector is None:
                    seq = np.diff(
                        np.log(env.effective_episode_prices()), axis=0
                    )
                    if seq.shape[0] >= hmm_config.n_states * 10:
                        detector_sequences.append(seq)
                    if episodes_completed == DETECTOR_FIT_EPISODES:
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
            if is_context:
                context = _context_from_obs(
                    obs, env.config.window, n_assets, detector, net.context_dim
                )

        if buffer.dones[-1]:
            bootstrap = 0.0
        else:
            _, _, bootstrap = act_and_value(
                net, obs, deterministic=True, context=context
            )
        buffer.compute_advantages(bootstrap, config.discount, config.gae_lambda)
        diag = ppo_update(net, buffer, config, optimizer, update_rng)
        updates.append(diag)
        latest = diag

    return TrainResult(net=net, log=log, detector=detector, updates=updates)


def write_training_log(log_rows, path, n_weights: int = None):
    """CSV export of per-episode training rows (repr-precision floats).

    Pass n_weights (cash + stocks) to write a header-only file for a run
    that finished no episode.
    """
    if not log_rows and n_weights is None:
        raise ValueError("empty training log and no n_weights for the header")
    if log_rows:
        n_weights = len(log_rows[0].mean_weights)
    header = (
        ["episode", "steps"]
        + [f"mean_w{i}" for i in range(n_weights)]
        + [f"mad_w{i}" for i in range(n_weights)]
        + ["growth", "bankrupt", "clip_fraction", "approx_kl"]
    )
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        for row in log_rows:
            writer.writerow(
                [row.episode, row.steps]
                + [repr(float(w)) for w in row.mean_weights]
                + [repr(float(w)) for w in row.mad_weights]
                + [
                    repr(float(row.growth)),
                    int(row.bankrupt),
                    repr(float(row.clip_fraction)),
                    repr(float(row.approx_kl)),
                ]
            )
