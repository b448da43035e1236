"""Correlated geometric Brownian market with Markov regime switching.

Assets follow dS_i = mu_i S_i dt + sigma_i S_i dB_i with corr(dB_i, dB_j) =
rho_ij, discretized exactly: one period of length dt multiplies prices by
exp((mu - sigma^2/2) dt + sigma sqrt(dt) L z) where L is the Cholesky factor
of the correlation matrix and z is iid standard normal. Regimes are a
discrete-time Markov chain over parameter sets; the chain state at time t
governs the period (t, t+1].
"""

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .errors import FactorizationError, RescaleError


@dataclass
class MarketParams:
    """One regime's market: drifts, vols, correlation, and cash rate (annual)."""

    mu: np.ndarray
    sigma: np.ndarray
    corr: np.ndarray
    cash_rate: float

    def __post_init__(self):
        self.mu = np.asarray(self.mu, dtype=np.float64)
        self.sigma = np.asarray(self.sigma, dtype=np.float64)
        self.corr = np.asarray(self.corr, dtype=np.float64)
        self.validate()

    @property
    def n_assets(self) -> int:
        return self.mu.shape[0]

    def validate(self):
        n = self.mu.shape[0]
        if self.mu.ndim != 1 or self.sigma.shape != (n,) or self.corr.shape != (n, n):
            raise ValueError(
                f"inconsistent shapes: mu {self.mu.shape}, sigma {self.sigma.shape}, "
                f"corr {self.corr.shape}"
            )
        if np.any(self.sigma < 0):
            # sigma = 0 is legal (deterministic growth); negative is not
            raise ValueError(f"sigma must be non-negative, got {self.sigma}")
        if not np.allclose(self.corr, self.corr.T, atol=1e-12):
            raise ValueError("correlation matrix must be symmetric")
        if not np.allclose(np.diag(self.corr), 1.0, atol=1e-12):
            raise ValueError("correlation matrix must have unit diagonal")
        cholesky_factor(self.corr)  # raises FactorizationError if not PD

    def covariance(self) -> np.ndarray:
        """Annualized covariance diag(sigma) @ corr @ diag(sigma)."""
        return self.corr * np.outer(self.sigma, self.sigma)


def cholesky_factor(corr: np.ndarray) -> np.ndarray:
    """Lower-triangular L with L @ L.T = corr.

    Raises FactorizationError naming the first non-positive-definite leading
    principal minor, which is the actionable diagnostic when a hand-entered
    correlation matrix is inconsistent.
    """
    corr = np.asarray(corr, dtype=np.float64)
    try:
        return np.linalg.cholesky(corr)
    except np.linalg.LinAlgError:
        for k in range(1, corr.shape[0] + 1):
            try:
                np.linalg.cholesky(corr[:k, :k])
            except np.linalg.LinAlgError:
                raise FactorizationError(
                    f"correlation matrix is not positive definite: leading "
                    f"principal minor of order {k} is non-positive"
                ) from None
        raise  # unreachable: full factorization failed so some minor must


@dataclass
class RegimeModel:
    """Markov chain over MarketParams; K = 1 recovers a plain GBM market.

    transition is the per-period matrix: P[i, j] = prob of moving to regime j
    over one period given regime i now. initial_dist is the distribution of
    the chain state at the start of the simulated window.
    """

    regimes: list
    transition: np.ndarray
    initial_dist: np.ndarray

    def __post_init__(self):
        self.transition = np.asarray(self.transition, dtype=np.float64)
        self.initial_dist = np.asarray(self.initial_dist, dtype=np.float64)
        self.validate()

    @classmethod
    def single(cls, params: MarketParams) -> "RegimeModel":
        return cls([params], np.ones((1, 1)), np.ones(1))

    @property
    def n_regimes(self) -> int:
        return len(self.regimes)

    @property
    def n_assets(self) -> int:
        return self.regimes[0].n_assets

    def validate(self):
        k = len(self.regimes)
        if k == 0:
            raise ValueError("need at least one regime")
        n = self.regimes[0].n_assets
        for i, reg in enumerate(self.regimes):
            if reg.n_assets != n:
                raise ValueError(
                    f"regime {i} has {reg.n_assets} assets, regime 0 has {n}"
                )
        if self.transition.shape != (k, k):
            raise ValueError(
                f"transition must be ({k}, {k}), got {self.transition.shape}"
            )
        if np.any(self.transition < 0):
            raise ValueError("transition probabilities must be non-negative")
        rows = self.transition.sum(axis=1)
        if not np.allclose(rows, 1.0, atol=1e-9):
            raise ValueError(f"transition rows must sum to 1, got sums {rows}")
        if self.initial_dist.shape != (k,):
            raise ValueError(
                f"initial_dist must have shape ({k},), got {self.initial_dist.shape}"
            )
        if np.any(self.initial_dist < 0) or not np.isclose(
            self.initial_dist.sum(), 1.0, atol=1e-9
        ):
            raise ValueError("initial_dist must be a probability vector")


def rescale_transition(P, from_dt: float, to_dt: float) -> np.ndarray:
    """Re-express a transition matrix at a different period length.

    Passes through the continuous-time generator: P' = expm((to_dt/from_dt)
    * logm(P)). Requires P to be embeddable (real log with non-negative
    off-diagonal generator entries); diagonally dominant 2-state persistence
    chains always are. Output rows are renormalized; entries in (-1e-9, 0)
    are clamped to zero and anything more negative is an error.
    """
    P = np.asarray(P, dtype=np.float64)
    if P.ndim != 2 or P.shape[0] != P.shape[1]:
        raise ValueError(f"transition matrix must be square, got {P.shape}")
    if from_dt <= 0 or to_dt <= 0:
        raise ValueError("period lengths must be positive")
    import scipy.linalg  # deferred: ~0.3 s to import, used only here

    ratio = to_dt / from_dt
    log_P = scipy.linalg.logm(P)
    if np.max(np.abs(np.imag(log_P))) > 1e-9:
        raise RescaleError(
            "transition matrix has no real logarithm (not embeddable in a "
            "continuous-time chain)"
        )
    gen = np.real(log_P)
    off_diag = gen[~np.eye(P.shape[0], dtype=bool)]
    if np.any(off_diag < -1e-9):
        raise RescaleError(
            f"matrix logarithm is not a valid generator: off-diagonal rate "
            f"{off_diag.min():.3e} < 0"
        )
    out = np.real(scipy.linalg.expm(ratio * gen))
    if np.any(out < -1e-9):
        raise RescaleError(
            f"rescaled matrix has negative entry {out.min():.3e} below tolerance"
        )
    out = np.clip(out, 0.0, None)
    return out / out.sum(axis=1, keepdims=True)


def sample_regime_path(model: RegimeModel, n_steps: int, rng) -> np.ndarray:
    """Chain states z[0..n_steps]; z[t] governs period (t, t+1].

    Draw order (relied on by reproducibility tests): one uniform for the
    initial state, then n_steps uniforms as a single array. A single-regime
    model consumes no randomness. Each state is the first index whose CDF
    entry reaches the draw. Every CDF ends at exactly 1, so a row summing to
    just under 1 cannot step past the last state.
    """
    k = model.n_regimes
    if k == 1:
        return np.zeros(n_steps + 1, dtype=np.int64)
    init_cdf = np.cumsum(model.initial_dist)
    cdf = np.cumsum(model.transition, axis=1)
    init_cdf[-1] = 1.0
    cdf[:, -1] = 1.0
    rows = cdf.tolist()
    state = bisect_left(init_cdf.tolist(), rng.random())
    z = [state]
    for u in rng.random(n_steps).tolist():
        state = bisect_left(rows[state], u)
        z.append(state)
    return np.array(z, dtype=np.int64)


@dataclass
class PricePath:
    """One simulated episode: prices[t] is the unaffected price vector S(t).

    prices has shape (n_periods + 1, n_assets) with prices[0] == 1 exactly;
    regimes[t] is the chain state at time t (so the return into row t + 1 was
    generated under regimes[t]). warmup_prices holds the pre-episode history
    used to fill observation windows, normalized on the same scale.
    """

    prices: np.ndarray
    regimes: np.ndarray
    warmup_prices: np.ndarray

    def log_returns(self) -> np.ndarray:
        """Per-period episode log returns, shape (N, n); row t was generated
        under regimes[t]."""
        return np.diff(np.log(self.prices), axis=0)


def generate_path(
    model: RegimeModel, n_periods: int, dt: float, rng, warmup: int = 0
) -> PricePath:
    """Simulate warmup + n_periods periods and normalize so S(0) = 1.

    The regime chain starts `warmup` periods before the episode (the initial
    distribution applies at the warm-up start), so the episode's opening
    state is already mixed. Draw order: regime path first (see
    sample_regime_path), then one (warmup + n_periods, n) standard-normal
    block. Matches a one-step exact GBM loop over the same draws to machine
    precision: tests/test_market.py::test_generate_path_matches_step_prices_loop
    keeps that loop as the oracle.
    """
    if n_periods < 1:
        raise ValueError(f"n_periods must be >= 1, got {n_periods}")
    if warmup < 0:
        raise ValueError(f"warmup must be >= 0, got {warmup}")
    n = model.n_assets
    total = warmup + n_periods
    z = sample_regime_path(model, total, rng)
    draws = rng.standard_normal((total, n))

    increments = np.empty((total, n), dtype=np.float64)
    for k, reg in enumerate(model.regimes):
        mask = z[:-1] == k
        if not np.any(mask):
            continue
        chol = cholesky_factor(reg.corr)
        drift = (reg.mu - 0.5 * reg.sigma**2) * dt
        scale = reg.sigma * np.sqrt(dt)
        increments[mask] = drift + (draws[mask] @ chol.T) * scale

    log_prices = np.vstack([np.zeros((1, n)), np.cumsum(increments, axis=0)])
    # normalize in log space so the episode opens at exactly 1
    log_prices -= log_prices[warmup]
    prices = np.exp(log_prices)
    return PricePath(
        prices=prices[warmup:],
        regimes=z[warmup:],
        warmup_prices=prices[:warmup],
    )
