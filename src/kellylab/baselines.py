"""Analytic baseline policies and the regime-baseline grid search.

Policies here are net-free: act(obs, env) returns target stock weights. The
regime-switching baseline reads the true regime label from the simulator
(foresight) by default, which is the upper-bound comparison an agent is
scored against; an inference-driven variant can be selected instead.
"""

from dataclasses import dataclass, field

import numpy as np

from . import hmm as hmm_module
from .analytic import optimal_weights
from .env import EnvConfig, PortfolioEnv
from .training import evaluate


class FixedWeightPolicy:
    """Rebalance to the same stock weights every period."""

    kind = "fixed_weight"

    def __init__(self, weights):
        self.weights = np.atleast_1d(np.asarray(weights, dtype=np.float64))

    def reset(self, env):
        pass

    def act(self, obs, env):
        return self.weights


class StaggeredPolicy:
    """Ramp linearly from all-cash to the target over the first n periods.

    At period k < n the target is (k+1)/n of the final weights; afterwards
    the full weights. n = 1 recovers the fixed-weight policy.
    """

    kind = "staggered"

    def __init__(self, weights, adjustment_periods: int):
        if adjustment_periods < 1:
            raise ValueError(
                f"adjustment_periods must be >= 1, got {adjustment_periods}"
            )
        self.weights = np.atleast_1d(np.asarray(weights, dtype=np.float64))
        self.adjustment_periods = int(adjustment_periods)
        self._k = 0

    def reset(self, env):
        self._k = 0

    def act(self, obs, env):
        scale = min((self._k + 1) / self.adjustment_periods, 1.0)
        self._k += 1
        return scale * self.weights


class RegimeSwitchingPolicy:
    """Hold fraction f of each regime's optimal weights, re-ramping on switches.

    targets[k] are the full-Kelly stock weights for regime k; the policy
    holds f * targets[current regime], ramping over `adjustment_periods`
    periods from the previous allocation whenever the regime label changes
    (and at episode start, from all cash). The label comes from the true
    simulator state when `use_true_regime` (the foresight baseline), else
    from a fitted detector applied to the observation's return window.
    """

    kind = "regime_switching"

    def __init__(
        self,
        targets,
        adjustment_periods: int = 1,
        fraction: float = 1.0,
        use_true_regime: bool = True,
        detector=None,
    ):
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
        self.use_true_regime = use_true_regime
        self.detector = detector
        if not use_true_regime and detector is None:
            raise ValueError("an inference-driven baseline needs a detector")
        self._k = 0
        self._regime = None

    def reset(self, env):
        self._k = 0
        self._regime = None

    def _label(self, obs, env) -> int:
        if self.use_true_regime:
            return env.current_regime
        return hmm_module.label_observation(
            self.detector, obs, env.config.window, env.config.n_assets
        )

    def act(self, obs, env):
        label = self._label(obs, env)
        if label != self._regime:
            self._regime = label
            self._k = 0
        scale = min((self._k + 1) / self.adjustment_periods, 1.0)
        self._k += 1
        return scale * self.fraction * self.targets[label]


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
