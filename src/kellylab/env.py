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

The unaffected GBM path and regime path for an episode are drawn in full at
reset from the (master_seed, episode) stream, so the noise an agent
experiences is independent of its actions; trading feeds back only through
impact multipliers and costs.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, LifecycleError
from .impact import ImpactParams, ImpactState, trade_cost
from .market import PricePath, RegimeModel, generate_path
from .rng import episode_stream

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


@dataclass
class EnvState:
    """Snapshot of the environment between steps (copies, safe to keep)."""

    t: int
    prices: np.ndarray
    history: np.ndarray
    holdings: np.ndarray
    cash: float
    wealth: float
    regime: int
    impact_state: ImpactState


@dataclass
class StepResult:
    observation: np.ndarray
    reward: float
    done: bool
    info: dict = field(default_factory=dict)


class PortfolioEnv:
    """Single-agent portfolio environment; one instance per worker.

    Episodes are seeded by (master_seed, episode index); reset() without an
    explicit episode number advances to the next index.
    """

    def __init__(self, config: EnvConfig, master_seed: int = 0):
        self.config = config
        self.master_seed = int(master_seed)
        self._next_episode = 0
        self._t = -1  # reset() not called yet
        self._done = True
        self._path: PricePath | None = None
        n = config.n_assets
        cfg_n = config.n_periods
        # effective price rows: (window-1) warm-up rows then N+1 episode rows
        self._eff_hist = np.empty((config.window - 1 + cfg_n + 1, n))
        self._holdings = np.zeros(n)
        self._mult = np.ones(n)
        # per-regime interest factor over one period
        self._interest = np.array(
            [math.exp(reg.cash_rate * config.dt) for reg in config.market.regimes]
        )

    # -- lifecycle ---------------------------------------------------------

    def reset(self, episode: int | None = None) -> np.ndarray:
        cfg = self.config
        if episode is None:
            episode = self._next_episode
        self.episode = int(episode)
        self._next_episode = self.episode + 1

        rng = episode_stream(self.master_seed, self.episode)
        self._path = generate_path(
            cfg.market, cfg.n_periods, cfg.dt, rng, warmup=cfg.window - 1
        )
        self._unaffected = self._path.prices
        self._regimes = self._path.regimes

        n = cfg.n_assets
        self._t = 0
        self._done = False
        self._holdings = np.zeros(n)
        self._mult = np.ones(n)
        self._cash = float(cfg.initial_wealth)
        self._wealth = float(cfg.initial_wealth)
        # warm-up rows carry no trading, so effective = unaffected there
        if cfg.window > 1:
            self._eff_hist[: cfg.window - 1] = self._path.warmup_prices
        self._eff_hist[cfg.window - 1] = self._unaffected[0]
        return self._observation()

    def step(self, action) -> StepResult:
        if self._done:
            raise LifecycleError("step() called on a finished episode; reset() first")
        cfg = self.config
        t = self._t
        a = np.asarray(action, dtype=np.float64)
        if a.shape != (cfg.n_assets,):
            raise ValueError(
                f"action must have shape ({cfg.n_assets},), got {a.shape}"
            )

        s0_eff = self._unaffected[t] * self._mult
        wealth = self._wealth
        regime = int(self._regimes[t])

        # (1) trade to target weights at current effective prices
        target_holdings = a * wealth / s0_eff
        traded = target_holdings - self._holdings
        # (2) cost against the pre-permanent-impact end price, then debit
        s1_pre = self._unaffected[t + 1] * self._mult
        costs = trade_cost(s0_eff, s1_pre, traded, cfg.dt, cfg.impact)
        cost_paid = float(costs.sum())
        cash = self._cash - float(traded @ s0_eff) - cost_paid
        # (3) interest at the regime in effect this period
        cash *= self._interest[regime]
        # (4) market already advanced on the precomputed path; (5) impact
        self._mult = self._mult * np.exp(cfg.impact.gamma * traded)
        s1_eff = self._unaffected[t + 1] * self._mult
        # (6) mark to market
        self._holdings = target_holdings
        new_wealth = cash + float(target_holdings @ s1_eff)

        self._cash = cash
        self._t = t + 1
        self._eff_hist[cfg.window - 1 + self._t] = s1_eff

        bankrupt = not new_wealth > 0.0  # catches <= 0 and NaN
        if bankrupt:
            reward = BANKRUPTCY_REWARD
            self._done = True
        else:
            reward = math.log(new_wealth / wealth)
            self._done = self._t == cfg.n_periods
        self._wealth = new_wealth

        return StepResult(
            observation=self._observation(),
            reward=reward,
            done=self._done,
            info={
                "bankrupt": bankrupt,
                "regime": int(self._regimes[self._t]),
                "cost_paid": cost_paid,
                "wealth": new_wealth,
            },
        )

    # -- views -------------------------------------------------------------

    @property
    def t(self) -> int:
        return self._t

    @property
    def done(self) -> bool:
        return self._done

    @property
    def current_regime(self) -> int:
        """True regime label at the current clock (foresight consumers only)."""
        if self._t < 0:
            raise LifecycleError("regime requested before reset()")
        return int(self._regimes[self._t])

    @property
    def path(self) -> PricePath:
        return self._path

    @property
    def state(self) -> EnvState:
        if self._t < 0:
            raise LifecycleError("state requested before reset()")
        cfg = self.config
        return EnvState(
            t=self._t,
            prices=self._unaffected[self._t] * self._mult,
            history=self._history_window().copy(),
            holdings=self._holdings.copy(),
            cash=self._cash,
            wealth=self._wealth,
            regime=int(self._regimes[self._t]),
            impact_state=ImpactState(self._mult.copy()),
        )

    def _history_window(self) -> np.ndarray:
        # rows t .. t+window-1 of the shifted buffer end at the current time
        return self._eff_hist[self._t : self._t + self.config.window]

    def effective_episode_prices(self) -> np.ndarray:
        """Effective prices observed this episode, rows 0..t (copies)."""
        if self._t < 0:
            raise LifecycleError("no episode yet; reset() first")
        w = self.config.window
        return self._eff_hist[w - 1 : w - 1 + self._t + 1].copy()

    def _weight_row(self) -> np.ndarray:
        """(cash weight, stock weights) at current marks; zeros if bankrupt."""
        n = self.config.n_assets
        row = np.zeros(n + 1)
        if self._wealth > 0:
            s_eff = self._unaffected[self._t] * self._mult
            row[1:] = self._holdings * s_eff / self._wealth
            row[0] = 1.0 - row[1:].sum()
        return row

    def _observation(self) -> np.ndarray:
        cfg = self.config
        obs = np.empty(cfg.observation_dim)
        n = cfg.n_assets
        obs[: n * cfg.window] = self._history_window().ravel()
        obs[n * cfg.window : n * cfg.window + n] = self._weight_row()[1:]
        obs[-1] = self._wealth / cfg.initial_wealth
        return obs
