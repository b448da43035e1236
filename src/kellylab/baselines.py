"""The analytic baseline policy and its grid search.

Policies here are net-free: act(env) returns target stock weights (L, n),
one row per live lane of a lockstep wave. The one analytic
policy is the foresight regime-switching baseline, which reads the true
regime label from the simulator: the upper-bound comparison an agent is
scored against.
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
    f * w* every period.

    fraction and adjustment_periods are one value for every lane, or one
    value per lane of the evaluation, in lane order. Each lane keeps its own
    ramp counter and regime, and act(wave) computes every live lane's action
    at once from the wave's regimes(): ((k / n) * f) * targets[label] during
    a ramp, f * targets[label] after it.
    """

    # A lane holds its path and effective-price history (~75 KB on a
    # 5-year, 3-asset episode at window 60). The grid search, whose lanes
    # share paths, sets its own.
    lanes = 64

    def __init__(self, targets, adjustment_periods=1, fraction=1.0):
        self.adjustment_periods = np.asarray(adjustment_periods, dtype=np.int64)
        self.fraction = np.asarray(fraction, dtype=np.float64)
        if self.adjustment_periods.ndim > 1 or self.fraction.ndim > 1:
            raise ValueError("adjustment_periods and fraction must be one "
                             "value or one per lane")
        bad = self.adjustment_periods[self.adjustment_periods < 1]
        if bad.size:
            raise ValueError(f"adjustment_periods must be >= 1, got {bad[0]}")
        bad = self.fraction[~((0.0 < self.fraction) & (self.fraction <= 1.0))]
        if bad.size:
            raise ValueError(f"fraction must be in (0, 1], got {bad[0]}")
        self.targets = np.asarray(targets, dtype=np.float64)
        if self.targets.ndim != 2:
            raise ValueError("targets must be (n_regimes, n_assets)")

    def reset(self, env, first=0):
        count = len(env.live)
        self._n = _lane_values(self.adjustment_periods, first, count)
        self._f = _lane_values(self.fraction, first, count)
        self._k = np.zeros(count, dtype=np.int64)
        self._regime = np.full(count, -1, dtype=np.int64)

    def act(self, env):
        # a full wave's lanes are read and written by slice, not gathered
        live = env.live if len(env.live) < len(self._k) else slice(None)
        labels = env.regimes()
        k = self._k[live]
        k[labels != self._regime[live]] = 0
        k += 1
        self._k[live] = k
        self._regime[live] = labels
        n, f = self._n[live], self._f[live]
        scale = np.where(k < n, (k / n) * f, f)
        return scale[:, None] * self.targets[labels]


def _lane_values(values, first, count):
    """Per-lane values for lanes first..first+count-1 of an evaluation."""
    if values.ndim == 0:
        return np.full(count, values)
    if first + count > len(values):
        raise ValueError(
            f"{len(values)} per-lane values cannot cover lanes {first}.."
            f"{first + count - 1}"
        )
    return values[first : first + count]


# the grid search's waves hold at most this much effective-price history
GRID_WAVE_BYTES = 16 * 2**20


@dataclass
class GridSearchResult:
    # the keys of every table row, in gridsearch.csv's column order
    columns = ("fraction", "adjustment_periods", "mean_growth", "bankruptcies")

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
    cells differ only through the policy. The whole grid is one evaluation:
    lane j plays episode j // cells in cell j % cells, in waves of as many
    lanes as GRID_WAVE_BYTES of price history allows, so each episode's
    path is generated once per wave and shared by its cells. Cells are
    ranked in a fixed order and ties break toward larger fraction, then
    smaller ramp, so the argmax is deterministic. Bankrupt episodes are
    excluded from a cell's mean; a cell with no surviving episodes is
    skipped.
    """
    if fractions is None:
        fractions = [round(0.1 * i, 1) for i in range(1, 11)]
    if adjustment_grid is None:
        adjustment_grid = [1, 2, 4, 8, 16, 32, 64]
    fractions = list(fractions)
    adjustment_grid = list(adjustment_grid)
    if not fractions or not adjustment_grid:
        raise ValueError("grids must be nonempty")
    if episodes_per_cell < 1:
        raise ValueError("episodes_per_cell must be >= 1")

    targets = np.array([optimal_weights(reg) for reg in config.market.regimes])
    cells = [(f, n) for f in fractions for n in adjustment_grid]
    policy = RegimeSwitchingPolicy(
        targets,
        adjustment_periods=[n for _, n in cells] * episodes_per_cell,
        fraction=[f for f, _ in cells] * episodes_per_cell,
    )
    policy.lanes = max(1, GRID_WAVE_BYTES // (
        8 * config.n_assets * (config.window + config.n_periods)))
    result = evaluate(
        policy, lambda seed: PortfolioEnv(config, seed),
        [e for e in range(episodes_per_cell) for _ in cells], master_seed,
    )
    bankrupt = np.reshape(result.bankrupt, (episodes_per_cell, len(cells)))
    growths = np.full(bankrupt.shape, np.nan)
    growths[~bankrupt] = result.growths
    columns = zip(growths.T, ~bankrupt.T, bankrupt.sum(axis=0).tolist())

    best = None
    table = []
    for (f, n), (column, survived, b) in zip(cells, columns):
        g = float(column[survived].mean() if b < episodes_per_cell else np.nan)
        table.append(dict(zip(GridSearchResult.columns, (f, n, g, b))))
        if not np.isnan(g) and (best is None or (g, f, -n) > best):
            best = (g, f, -n)
    if best is None:
        raise ValueError("every grid cell went bankrupt on every episode")
    return GridSearchResult(
        fraction=best[1],
        adjustment_periods=-best[2],
        mean_growth=best[0],
        table=table,
    )
