"""The analytic baseline policy and its grid search.

Policies here are net-free: act(live, observations, envs) returns target
stock weights, one row per live evaluation lane. The one analytic policy is
the foresight regime-switching baseline, which reads the true regime label
from the simulator: the upper-bound comparison an agent is scored against.
A single-regime market is its K = 1 case, where it holds fraction f of w*
after an optional linear entry ramp.
"""

from dataclasses import dataclass, field

import numpy as np

from .analytic import optimal_weights
from .env import EnvConfig, PortfolioEnv
from .training import evaluate


class RegimeSwitchingPolicy:
    """Hold fraction f of each regime's optimal weights, re-ramping on switches.

    targets[k] are the full-Kelly stock weights for regime k; the policy
    holds f * targets[current regime], ramping linearly over
    `adjustment_periods` periods from all cash whenever the true regime
    label changes and at episode start: at period j < n of a ramp it holds
    (j+1)/n of the target. With one regime and one period it rebalances to
    f * w* every period. Each lane keeps its own ramp counter and regime.
    """

    # a lane's action is a few Python float operations: side-by-side lanes
    # have nothing to batch
    lanes = 1

    def __init__(self, targets, adjustment_periods: int = 1,
                 fraction: float = 1.0):
        if adjustment_periods < 1:
            raise ValueError(
                f"adjustment_periods must be >= 1, got {adjustment_periods}"
            )
        if not 0.0 < fraction <= 1.0:
            raise ValueError(f"fraction must be in (0, 1], got {fraction}")
        self.targets = np.asarray(targets, dtype=np.float64)
        if self.targets.ndim != 2:
            raise ValueError("targets must be (n_regimes, n_assets)")
        self.adjustment_periods = int(adjustment_periods)
        self.fraction = float(fraction)
        # a finished ramp's scale is exactly 1.0 and 1.0 * f == f, so these
        # rows are its actions bit for bit; read-only because every step
        # returns the same array
        self._held = self.fraction * self.targets
        self._held.flags.writeable = False
        self._k = []
        self._regime = []

    def reset(self, envs):
        self._k = [0] * len(envs)
        self._regime = [None] * len(envs)

    def act(self, live, observations, envs):
        n = self.adjustment_periods
        k_of, regime_of = self._k, self._regime
        actions = []
        for i, env in zip(live, envs):
            label = env.current_regime
            if label != regime_of[i]:
                regime_of[i] = label
                k_of[i] = 0
            k = k_of[i] = k_of[i] + 1
            if k >= n:
                actions.append(self._held[label])
            else:
                actions.append(k / n * self.fraction * self.targets[label])
        return actions


@dataclass
class GridSearchResult:
    fraction: float
    adjustment_periods: int
    mean_growth: float
    table: list = field(default_factory=list, repr=False)


def rs_baseline_grid_search(
    config: EnvConfig,
    fractions=None,
    adjustment_grid=None,
    episodes_per_cell: int = 20,
    master_seed: int = 0,
) -> GridSearchResult:
    """Grid-search the regime baseline's fraction and ramp length.

    Every cell replays the same seeded episodes (common random numbers), so
    cells differ only through the policy. Cells run in a fixed order and ties
    break toward larger fraction, then smaller ramp, so the argmax is
    deterministic. Bankrupt episodes are excluded from a cell's mean; a cell
    with no surviving episodes is skipped.
    """
    if fractions is None:
        fractions = [round(0.1 * i, 1) for i in range(1, 11)]
    if adjustment_grid is None:
        adjustment_grid = [1, 2, 4, 8, 16, 32, 64]
    fractions = list(fractions)
    adjustment_grid = list(adjustment_grid)
    if not fractions or not adjustment_grid:
        raise ValueError("grids must be nonempty")

    targets = np.array(
        [optimal_weights(reg).stocks for reg in config.market.regimes]
    )
    best = None
    table = []
    for f in fractions:
        for n in adjustment_grid:
            policy = RegimeSwitchingPolicy(
                targets, adjustment_periods=n, fraction=f
            )
            result = evaluate(
                policy, lambda seed: PortfolioEnv(config, seed),
                episodes_per_cell, master_seed,
            )
            table.append(
                {
                    "fraction": f,
                    "adjustment_periods": n,
                    "mean_growth": result.mean_growth,
                    "bankruptcies": result.bankruptcies,
                }
            )
            g = result.mean_growth
            if np.isnan(g):
                continue
            if (
                best is None
                or g > best[0]
                or (g == best[0] and (f, -n) > (best[1], -best[2]))
            ):
                best = (g, f, n)
    if best is None:
        raise ValueError("every grid cell went bankrupt on every episode")
    return GridSearchResult(
        fraction=best[1],
        adjustment_periods=best[2],
        mean_growth=best[0],
        table=table,
    )
