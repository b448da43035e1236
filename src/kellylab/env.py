"""Finite-horizon portfolio MDP over the simulated market.

Each period the agent posts target stock weights (unbounded: shorting and
leverage allowed), the environment trades to them at the current effective
prices, charges execution costs, accrues cash interest, advances the market
one GBM period, applies permanent impact, and pays log(W_next / W) as reward.

The observation is a flat vector: the last `l` effective price rows (oldest
first, each row one price per asset, frozen as they were observed), the
current drifted stock weights, and W/W_0, giving dimension n*l + n + 1
(3l + 4 for three assets). The true regime label is deliberately absent: regime structure
is only observable through prices.

The unaffected GBM path and regime path for an episode are drawn in full
from the (master_seed, episode) stream, at reset or, for a wave's lanes, by
the wave before it resets them, so the noise an agent experiences is
independent of its actions; trading feeds back only through impact
multipliers and costs.

An env is one lane, stepped on Python floats, or a lockstep wave built by
PortfolioEnv.lockstep over many one-lane envs, stepped as (L, n) arrays. A
wave gives every lane the bits its own one-lane steps would give; it keeps
their state, and when a lane leaves it sets the lane's clock to its final
t and marks it done, so the lane steps again only after a reset.
A one-lane step returns its observation. A wave's step returns none; the
wave reads as a batch to an evaluation policy: `live` names the live lanes,
`regimes()` gives their true labels and `observations()` their (L, D)
observations, built only when asked for.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, LifecycleError
from .impact import ImpactParams, trade_cost
from .market import RegimeModel, generate_path
from .rng import check_seed, episode_stream

BANKRUPTCY_REWARD = -10.0


@dataclass
class EnvConfig:
    horizon_years: float
    periods_per_year: int
    window: int
    initial_wealth: float
    market: RegimeModel
    impact: ImpactParams
    discount: float = 0.99

    def __post_init__(self):
        self.validate()

    @property
    def n_periods(self) -> int:
        return int(round(self.horizon_years * self.periods_per_year))

    @property
    def dt(self) -> float:
        return 1.0 / self.periods_per_year

    @property
    def n_assets(self) -> int:
        return self.market.n_assets

    @property
    def observation_dim(self) -> int:
        n = self.n_assets
        return n * self.window + n + 1

    def validate(self):
        if self.horizon_years <= 0:
            raise ConfigError("horizon_years must be positive", path="env.horizon_years")
        if self.periods_per_year < 1:
            raise ConfigError(
                "periods_per_year must be >= 1", path="env.periods_per_year"
            )
        n = self.horizon_years * self.periods_per_year
        if abs(n - round(n)) > 1e-9 or round(n) < 1:
            raise ConfigError(
                f"horizon_years * periods_per_year must be a positive integer "
                f"period count, got {n}",
                path="env.horizon_years",
            )
        if self.window < 1:
            raise ConfigError("window must be >= 1", path="env.window")
        if self.initial_wealth <= 0:
            raise ConfigError(
                "initial_wealth must be positive", path="env.initial_wealth"
            )
        if not 0.0 < self.discount <= 1.0:
            raise ConfigError("discount must be in (0, 1]", path="env.discount")


def episode_path(config: EnvConfig, master_seed: int, episode: int):
    """The unaffected market path of one episode: config.n_periods periods
    after window - 1 warm-up rows, drawn from the (master_seed, episode)
    stream."""
    return generate_path(config.market, config.n_periods, config.dt,
                         episode_stream(master_seed, episode),
                         warmup=config.window - 1)


@dataclass
class StepResult:
    """One step's outputs; a wave's have one entry per lane that stepped,
    in wave order, and no observation (see PortfolioEnv.observations)."""

    observation: np.ndarray
    reward: float
    done: bool
    bankrupt: bool


class PortfolioEnv:
    """Single-agent portfolio environment: one lane, or a lockstep wave.

    Episodes are seeded by (master_seed, episode index); reset() without an
    explicit episode number advances to the next index.
    """

    def __init__(self, config: EnvConfig, master_seed: int = 0):
        self.config = config
        self.master_seed = int(master_seed)
        check_seed(self.master_seed, "master_seed")
        self._next_episode = 0
        self._t = -1  # reset() not called yet
        self._done = True
        # config scalars read on every step, looked up once
        n = self._n = config.n_assets
        self._window = config.window
        self._n_periods = config.n_periods
        self._dt = config.dt
        self._impact = config.impact
        self._initial_wealth = float(config.initial_wealth)
        self._obs_dim = config.observation_dim
        # effective price rows: (window-1) warm-up rows then N+1 episode rows,
        # allocated at the first reset unless a wave provides them
        self._eff_hist = None
        self._lanes = None  # a wave's live lanes
        self._holdings = np.zeros(n)
        self._mult = np.ones(n)
        # per-regime interest factor over one period
        self._interest = [
            math.exp(reg.cash_rate * self._dt) for reg in config.market.regimes
        ]

    # -- lifecycle ---------------------------------------------------------

    def reset(self, episode: int | None = None, path=None) -> np.ndarray:
        """Start an episode and return its first observation.

        path: this episode's PricePath (see episode_path), given when the
        caller has drawn it already; otherwise reset draws it.
        """
        if self._lanes is not None:
            raise LifecycleError("a wave is reset by PortfolioEnv.lockstep")
        if episode is None:
            episode = self._next_episode
        self.episode = int(episode)
        self._next_episode = self.episode + 1

        w1 = self._window - 1
        if path is None:
            path = episode_path(self.config, self.master_seed, self.episode)
        self._unaffected = path.prices
        self._regimes = path.regimes.tolist()
        self._warmup = path.warmup_prices
        if self._eff_hist is None:
            self._eff_hist = np.empty((w1 + self._n_periods + 1, self._n))

        self._t = 0
        self._done = False
        self._holdings = np.zeros(self._n)
        self._mult = np.ones(self._n)
        self._cash = self._initial_wealth
        self._wealth = self._initial_wealth
        # warm-up rows carry no trading, so effective = unaffected there
        if w1:
            self._eff_hist[:w1] = self._warmup
        self._eff_hist[w1] = self._unaffected[0]
        return self._observation(self._unaffected[0] * self._mult)

    @classmethod
    def lockstep(cls, lanes, episodes):
        """Reset lanes[i] to episodes[i] through its own reset(), and return
        a wave stepping them side by side.

        The lanes are one-lane envs of one config. The wave draws each
        distinct (master seed, episode) path once with episode_path and
        hands it to the reset of every lane that replays it. The wave holds
        each path and its regime labels once and each lane's effective-price
        history as a row of one (B, rows, n) block, and the lanes keep views
        of the paths and histories. The wave alone holds the clock,
        holdings, cash, wealth and multipliers while it steps; a lane leaves
        when its episode ends, and only its clock (to its final t) and done
        flag are set then. `live` holds the live lanes' positions.
        """
        config = lanes[0].config
        if any(lane.config is not config for lane in lanes):
            raise ValueError("lockstep lanes must share one config")
        if len(episodes) != len(lanes):
            raise ValueError(
                f"{len(lanes)} lanes need {len(lanes)} episodes, got "
                f"{len(episodes)}"
            )
        wave = cls(config, lanes[0].master_seed)
        n, w1 = wave._n, wave._window - 1
        block = np.empty((len(lanes), w1 + wave._n_periods + 1, n))
        keys = [(lane.master_seed, int(episode))
                for lane, episode in zip(lanes, episodes)]
        # one path per distinct key, in order of first appearance
        paths = {key: episode_path(config, *key) for key in dict.fromkeys(keys)}
        wave._prices = np.stack([path.prices for path in paths.values()])
        # each path's regime label and interest factor per period
        wave._regime_rows = np.stack([path.regimes for path in paths.values()])
        wave._interest_rows = np.array(wave._interest)[wave._regime_rows]
        index = {key: p for p, key in enumerate(paths)}
        wave._path_of = np.array([index[key] for key in keys])
        for lane, row, key in zip(lanes, block, keys):
            lane._eff_hist = row
            lane.reset(key[1], path=paths[key])
            lane._unaffected = wave._prices[index[key]]
        wave._eff_hist = block
        wave._lanes = list(lanes)
        wave.live = np.arange(len(lanes))
        wave._holdings = np.zeros((len(lanes), n))
        wave._mult = np.ones((len(lanes), n))
        wave._cash = np.full(len(lanes), wave._initial_wealth)
        wave._wealth = wave._cash.copy()
        wave._t = 0
        wave._done = False
        return wave

    def step(self, action) -> StepResult:
        if self._done:
            raise LifecycleError("step() called on a finished episode; reset() first")
        if self._lanes is not None:
            return self._step_wave(action)
        t = self._t
        a = np.asarray(action, dtype=np.float64)
        if a.shape != (self._n,):
            raise ValueError(f"action must have shape ({self._n},), got {a.shape}")

        mult = self._mult
        s0_eff = self._unaffected[t] * mult
        s1 = self._unaffected[t + 1]
        wealth = self._wealth
        impact = self._impact

        # (1) trade to target weights at current effective prices
        target_holdings = a * wealth / s0_eff
        traded = target_holdings - self._holdings
        # (2) cost against the pre-permanent-impact end price, then debit.
        # Calling trade_cost once per asset on Python floats and summing left
        # to right from 0.0 avoids ufunc overhead on n-element arrays, and
        # gives the bits of the array call and costs.sum() for up to 7
        # assets (from 8, numpy's unrolled sum groups differently). The dots
        # and the exp stay in numpy: OpenBLAS ddot accumulates with FMA and
        # np.exp rounds differently from math.exp.
        dt = self._dt
        cost_paid = 0.0
        for y, s_start, s_end in zip(
            traded.tolist(), s0_eff.tolist(), (s1 * mult).tolist()
        ):
            cost_paid += trade_cost(s_start, s_end, y, dt, impact)
        cash = self._cash - float(traded @ s0_eff) - cost_paid
        # (3) interest at the regime in effect this period
        cash *= self._interest[self._regimes[t]]
        # (4) market already advanced on the precomputed path; (5) impact
        mult = self._mult = mult * np.exp(impact.gamma * traded)
        s1_eff = s1 * mult
        # (6) mark to market
        self._holdings = target_holdings
        new_wealth = cash + float(target_holdings @ s1_eff)

        self._cash = cash
        self._t = t = t + 1
        self._eff_hist[self._window - 1 + t] = s1_eff

        # bankrupt when wealth leaves (0, inf), NaN included, or a
        # multiplier reaches 0 or inf: the next step would price at 0 or inf
        multipliers = mult.tolist()
        bankrupt = not (
            0.0 < new_wealth < math.inf
            and 0.0 < min(multipliers)
            and max(multipliers) < math.inf
        )
        if bankrupt:
            reward = BANKRUPTCY_REWARD
            self._done = True
        else:
            reward = math.log(new_wealth / wealth)
            self._done = t == self._n_periods
        self._wealth = new_wealth

        return StepResult(
            observation=self._observation(s1_eff, bankrupt),
            reward=reward,
            done=self._done,
            bankrupt=bankrupt,
        )

    def _step_wave(self, actions) -> StepResult:
        """step() of a wave: the float step's operations in the same order
        on (L, n) arrays, one row per live lane. Dots are stacked matmuls
        and the exp is one call, which give each row the bits of the float
        step's ddot and exp; each lane's costs fold left to right from 0.0
        and its reward is math.log of its wealth ratio, as there. It builds
        no observations: observations() does, for the lanes still live."""
        lanes, live = self._lanes, self.live
        a = np.asarray(actions, dtype=np.float64)
        if a.shape != (len(lanes), self._n):
            raise ValueError(
                f"actions must have shape ({len(lanes)}, {self._n}), got "
                f"{a.shape}"
            )
        t = self._t
        paths = self._path_of
        mult = self._mult
        s0_eff = self._prices[:, t][paths] * mult
        s1 = self._prices[:, t + 1][paths]
        wealth = self._wealth
        impact = self._impact

        target_holdings = a * wealth[:, None] / s0_eff
        traded = target_holdings - self._holdings
        costs = trade_cost(s0_eff, s1 * mult, traded, self._dt, impact)
        cost_paid = np.zeros(len(lanes))
        for column in costs.T:
            cost_paid += column
        cash = self._cash - _row_dots(traded, s0_eff) - cost_paid
        cash *= self._interest_rows[:, t][paths]
        mult = self._mult = mult * np.exp(impact.gamma * traded)
        s1_eff = s1 * mult
        self._holdings = target_holdings
        new_wealth = cash + _row_dots(target_holdings, s1_eff)

        self._cash = cash
        self._t = t = t + 1
        self._eff_hist[:, self._window - 1 + t][live] = s1_eff

        solvent = (0.0 < new_wealth) & (new_wealth < math.inf)
        bad_mult = ~((0.0 < mult) & (mult < math.inf))
        if bad_mult.any():
            solvent &= ~bad_mult.any(axis=1)
        bankrupt = ~solvent
        ratio = np.where(solvent, new_wealth / wealth, 1.0)
        rewards = np.fromiter(map(math.log, ratio.tolist()), np.float64,
                              len(lanes))
        rewards[bankrupt] = BANKRUPTCY_REWARD
        done = bankrupt | (t == self._n_periods)
        self._wealth = new_wealth
        if done.any():
            self._leave(done)
        return StepResult(None, rewards, done, bankrupt)

    def _leave(self, done):
        """Drop the wave's finished lanes, setting each one's final clock and
        marking it done."""
        # a lane's steps are counted from its clock when it is next reset,
        # and at the end of a run (perfbench's step count); done makes a
        # departed lane's step() raise until it is reset
        for i in np.flatnonzero(done).tolist():
            lane = self._lanes[i]
            lane._t, lane._done = self._t, True
        keep = ~done
        self._lanes = [lane for lane, k in zip(self._lanes, keep.tolist()) if k]
        for name in ("live", "_path_of", "_holdings", "_mult", "_cash",
                     "_wealth"):
            setattr(self, name, getattr(self, name)[keep])
        self._done = not self._lanes

    # -- views -------------------------------------------------------------

    @property
    def t(self) -> int:
        return self._t

    @property
    def done(self) -> bool:
        return self._done

    def regimes(self) -> np.ndarray:
        """A wave's live lanes' true regime labels (L,) at the current clock
        (foresight consumers only)."""
        return self._regime_rows[:, self._t][self._path_of]

    def observations(self) -> np.ndarray:
        """A wave's live lanes' observations (L, D), with the bits of the
        ones their one-lane steps return."""
        # live lanes are solvent, so their weights are marked at the
        # newest history row
        t, window = self._t, self._window
        history = self._eff_hist[:, t : t + window]
        if len(self._lanes) < len(history):
            history = history[self.live]
        nw = self._n * window
        obs = np.empty((len(history), self._obs_dim))
        obs[:, :nw] = history.reshape(-1, nw)
        obs[:, nw:-1] = self._holdings * history[:, -1] / self._wealth[:, None]
        obs[:, -1] = self._wealth / self._initial_wealth
        return obs

    def effective_episode_prices(self) -> np.ndarray:
        """Effective prices observed this episode, rows 0..t (copies)."""
        if self._t < 0:
            raise LifecycleError("no episode yet; reset() first")
        if self._lanes is not None:
            raise LifecycleError("a wave's prices are read from its lanes")
        w1 = self._window - 1
        return self._eff_hist[w1 : w1 + self._t + 1].copy()

    def _observation(self, s_eff, bankrupt=False) -> np.ndarray:
        """Price window, stock weights at marks s_eff (zeros if bankrupt),
        and W/W_0."""
        n, window = self._n, self._window
        nw = n * window
        obs = np.empty(self._obs_dim)
        obs[:nw] = self._eff_hist[self._t : self._t + window].ravel()
        if bankrupt:
            obs[nw:-1] = 0.0
        else:
            obs[nw:-1] = self._holdings * s_eff / self._wealth
        obs[-1] = self._wealth / self._initial_wealth
        return obs


def _row_dots(a, b):
    """Row-wise dots of (L, n) arrays as a stacked matmul, which gives each
    row the bits of a 1-D `a_i @ b_i` (einsum and (a * b).sum(1) round
    differently)."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]
