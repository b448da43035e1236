"""Closed-form log-growth machinery.

For weights w on n stocks (cash absorbs 1 - sum w) in a GBM market with drift
mu, vols sigma, correlation rho, and cash rate r, the long-run log growth is

    L(w) = w0 r + w . mu - (1/2) w' Sigma w,   Sigma_ij = sigma_i sigma_j rho_ij

a concave quadratic whose unconstrained maximizer solves Sigma w = mu - r 1.
Everything here is exact linear algebra; Monte Carlo agreement is checked in
the tests, not assumed.
"""

import numpy as np

from .market import MarketParams


def optimal_weights(params: MarketParams) -> np.ndarray:
    """The growth-optimal stock weights (n,): Sigma w = mu - r, solved."""
    sigma = params.covariance()
    excess = params.mu - params.cash_rate
    try:
        w = np.linalg.solve(sigma, excess)
    except np.linalg.LinAlgError:
        raise ValueError(
            "covariance matrix is singular; growth-optimal weights undefined"
        ) from None
    residual = np.max(np.abs(sigma @ w - excess))
    if residual >= 1e-10:
        raise ValueError(
            f"optimal-weight solve residual {residual:.3e} exceeds 1e-10; "
            f"covariance is badly conditioned"
        )
    return w


def expected_growth(w, params: MarketParams) -> float:
    """Per-annum expected log growth L(w) of a constantly rebalanced portfolio."""
    stocks = np.atleast_1d(np.asarray(w, dtype=np.float64))
    sigma = params.covariance()
    cash_weight = 1.0 - stocks.sum()
    return float(
        cash_weight * params.cash_rate
        + stocks @ params.mu
        - 0.5 * stocks @ sigma @ stocks
    )


def stationary_distribution(P) -> np.ndarray:
    """Solve pi P = pi for an irreducible aperiodic chain (direct solve).

    Raises on reducible or periodic chains, detected as any second
    eigenvalue on the unit circle.
    """
    P = np.asarray(P, dtype=np.float64)
    k = P.shape[0]
    if P.ndim != 2 or P.shape != (k, k):
        raise ValueError(f"transition matrix must be square, got {P.shape}")
    eigvals = np.linalg.eigvals(P)
    on_circle = np.sum(np.abs(eigvals) > 1.0 - 1e-9)
    if on_circle != 1:
        raise ValueError(
            "chain is reducible or periodic (repeated unit-modulus "
            f"eigenvalue); eigenvalue moduli {np.sort(np.abs(eigvals))[::-1]}"
        )
    # replace one balance equation with the normalization constraint
    m = P.T - np.eye(k)
    m[-1, :] = 1.0
    b = np.zeros(k)
    b[-1] = 1.0
    pi = np.linalg.solve(m, b)
    residual = np.max(np.abs(pi @ P - pi))
    if residual >= 1e-12:
        raise ValueError(f"stationary solve residual {residual:.3e} exceeds 1e-12")
    return pi


def switching_growth(regime_growths, pi) -> float:
    """Long-run growth of a policy holding each regime's weights: sum pi_k L_k."""
    growths = np.asarray(regime_growths, dtype=np.float64)
    pi = np.asarray(pi, dtype=np.float64)
    if growths.shape != pi.shape:
        raise ValueError(
            f"growths shape {growths.shape} != distribution shape {pi.shape}"
        )
    return float(pi @ growths)


def q_surface(params: MarketParams, w1_grid, w2_grid) -> np.ndarray:
    """L(w1, w2) over a rectangular grid for a 2-stock market.

    Returns L[i, j] = expected_growth((w1_grid[i], w2_grid[j])). The grid
    argmax brackets the analytic optimum within one cell when the grid
    covers it.
    """
    if params.n_assets != 2:
        raise ValueError(f"q_surface needs a 2-asset market, got {params.n_assets}")
    w1_grid = np.asarray(w1_grid, dtype=np.float64)
    w2_grid = np.asarray(w2_grid, dtype=np.float64)
    sigma = params.covariance()
    w1, w2 = np.meshgrid(w1_grid, w2_grid, indexing="ij")
    cash = 1.0 - w1 - w2
    quad = (
        sigma[0, 0] * w1**2 + 2.0 * sigma[0, 1] * w1 * w2 + sigma[1, 1] * w2**2
    )
    return (
        cash * params.cash_rate + w1 * params.mu[0] + w2 * params.mu[1] - 0.5 * quad
    )
