"""Closed-form growth, optimal weights, and regime-switching aggregates."""

import numpy as np
import pytest

from kellylab.analytic import (
    WeightVector,
    expected_growth,
    fractional_weights,
    optimal_weights,
    q_surface,
    stationary_distribution,
    switching_growth,
)
from kellylab.baselines import FixedWeightPolicy
from kellylab.env import EnvConfig, PortfolioEnv
from kellylab.impact import ImpactParams
from kellylab.market import MarketParams, RegimeModel
from kellylab.training import evaluate

from shipped import regime, shipped

ETF3_STOCKS = np.array(
    [0.766513403674217, 0.6592560500046568, 1.2842178197510679]
)
BULL_STOCKS = np.array(
    [1.943906182221629, 1.680828673417336, 2.1779593440057283]
)
BEAR_STOCKS = np.array(
    [-2.1860251081423785, 1.2150224298308197, 0.40406484796841663]
)


def test_weight_vector_accounting():
    w = WeightVector(np.array([0.7, 0.5]))
    assert w.cash == pytest.approx(-0.2, abs=1e-15)
    assert w.n_assets == 2
    assert w.cash + w.stocks.sum() == pytest.approx(1.0, abs=1e-15)


def test_single_asset_closed_form():
    # w* = (mu - r) / sigma^2, L* = r + (mu - r)^2 / (2 sigma^2)
    w = optimal_weights(regime("single_asset"))
    assert w.stocks[0] == pytest.approx(2.0, abs=1e-12)
    assert w.cash == pytest.approx(-1.0, abs=1e-12)
    assert expected_growth(w, regime("single_asset")) == pytest.approx(
        0.12, abs=1e-14
    )


def test_all_cash_grows_at_the_cash_rate():
    params = regime("etf3")
    assert expected_growth(np.zeros(3), params) == params.cash_rate


def test_growth_accepts_weight_vector_and_array():
    params = regime("etf3")
    w = np.array([0.3, 0.3, 0.2])
    assert expected_growth(w, params) == expected_growth(WeightVector(w), params)


def test_three_asset_optimal_weights():
    params = regime("etf3")
    w = optimal_weights(params)
    assert np.max(np.abs(w.stocks - ETF3_STOCKS)) < 1e-12
    assert w.cash == pytest.approx(-1.7099872734299417, abs=1e-12)
    assert expected_growth(w, params) == pytest.approx(
        0.11416686969548555, abs=1e-14
    )


def test_bull_and_bear_optimal_weights():
    bull = optimal_weights(regime("regimes3", 0))
    assert np.max(np.abs(bull.stocks - BULL_STOCKS)) < 1e-12
    assert bull.cash == pytest.approx(-4.8026941996446935, abs=1e-12)
    assert expected_growth(bull, regime("regimes3", 0)) == pytest.approx(
        0.2734781459394937, abs=1e-14
    )
    bear = optimal_weights(regime("regimes3", 1))
    assert np.max(np.abs(bear.stocks - BEAR_STOCKS)) < 1e-12
    assert bear.cash == pytest.approx(1.5669378303431423, abs=1e-12)
    assert expected_growth(bear, regime("regimes3", 1)) == pytest.approx(
        0.10320190244134217, abs=1e-14
    )


def test_optimal_weights_satisfy_first_order_conditions():
    for params in (regime("etf3"), regime("regimes3", 0), regime("regimes3", 1)):
        w = optimal_weights(params)
        sigma = params.covariance()
        residual = sigma @ w.stocks - (params.mu - params.cash_rate)
        assert np.max(np.abs(residual)) < 1e-10
        # gradient of L vanishes at the optimum
        grad = params.mu - params.cash_rate - sigma @ w.stocks
        assert np.max(np.abs(grad)) < 1e-8


def test_no_perturbation_beats_the_optimum():
    params = regime("etf3")
    w_star = optimal_weights(params)
    best = expected_growth(w_star, params)
    rng = np.random.default_rng(314)
    for _ in range(1000):
        delta = rng.normal(size=3)
        delta *= rng.uniform(0.0, 0.1) / np.linalg.norm(delta)
        assert expected_growth(w_star.stocks + delta, params) <= best


def test_singular_covariance_is_rejected():
    params = MarketParams(
        np.array([0.1, 0.08]), np.array([0.2, 0.0]), np.eye(2), 0.02
    )
    with pytest.raises(ValueError, match="singular"):
        optimal_weights(params)


def test_fractional_weights_scale_stocks_only():
    w = fractional_weights(np.array([2.0]), 0.5)
    assert w.stocks[0] == 1.0
    assert w.cash == 0.0
    assert expected_growth(w, regime("single_asset")) == pytest.approx(
        0.10, abs=1e-14
    )
    same = fractional_weights(WeightVector(np.array([2.0])), 1.0)
    assert same.stocks[0] == 2.0
    for bad in (0.0, -0.2, 1.5):
        with pytest.raises(ValueError, match="fraction"):
            fractional_weights(np.array([2.0]), bad)


def test_fractional_frontier_identity():
    # L(f w) - r = f (L(w) - r) + f (1 - f) w' Sigma w / 2 for every w
    params = regime("etf3")
    sigma = params.covariance()
    r = params.cash_rate
    rng = np.random.default_rng(77)
    for _ in range(20):
        w = rng.normal(scale=1.5, size=3)
        quad = w @ sigma @ w
        base = expected_growth(w, params)
        for f in (0.1, 0.25, 0.5, 0.75, 1.0):
            lhs = expected_growth(f * w, params) - r
            rhs = f * (base - r) + 0.5 * f * (1.0 - f) * quad
            assert lhs == pytest.approx(rhs, abs=1e-12)


def test_portfolio_volatility_scales_linearly_with_fraction():
    params = regime("etf3")
    sigma = params.covariance()
    w = optimal_weights(params).stocks
    vol = np.sqrt(w @ sigma @ w)
    for f in (0.2, 0.5, 0.8):
        fw = fractional_weights(w, f).stocks
        assert np.sqrt(fw @ sigma @ fw) == pytest.approx(f * vol, rel=1e-12)


# -- stationary distributions --------------------------------------------------


def test_stationary_two_state_closed_form():
    pi = stationary_distribution(shipped("regimes3").market.transition)
    assert pi[0] == pytest.approx(0.75, abs=1e-12)
    assert pi[1] == pytest.approx(0.25, abs=1e-12)
    assert pi.sum() == pytest.approx(1.0, abs=1e-14)


def test_stationary_symmetric_chain_is_uniform():
    pi = stationary_distribution(np.array([[0.9, 0.1], [0.1, 0.9]]))
    assert np.max(np.abs(pi - 0.5)) < 1e-14


def test_stationary_three_state_balance():
    P = np.array(
        [[0.8, 0.15, 0.05], [0.2, 0.7, 0.1], [0.25, 0.25, 0.5]]
    )
    pi = stationary_distribution(P)
    assert np.max(np.abs(pi @ P - pi)) < 1e-12
    assert pi.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(pi > 0)


def test_stationary_rejects_reducible_and_periodic_chains():
    with pytest.raises(ValueError, match="reducible or periodic"):
        stationary_distribution(np.eye(2))
    with pytest.raises(ValueError, match="reducible or periodic"):
        stationary_distribution(np.array([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(ValueError, match="square"):
        stationary_distribution(np.ones((2, 3)))


def test_switching_growth_aggregation():
    assert switching_growth([0.27, 0.10], [1.0, 0.0]) == 0.27
    assert switching_growth([0.2, 0.2, 0.2], [0.5, 0.3, 0.2]) == pytest.approx(
        0.2, abs=1e-15
    )
    with pytest.raises(ValueError, match="shape"):
        switching_growth([0.1, 0.2], [1.0])


def test_switching_growth_of_per_regime_optima():
    growths = [
        expected_growth(optimal_weights(regime("regimes3", 0)), regime("regimes3", 0)),
        expected_growth(optimal_weights(regime("regimes3", 1)), regime("regimes3", 1)),
    ]
    pi = stationary_distribution(shipped("regimes3").market.transition)
    assert switching_growth(growths, pi) == pytest.approx(
        0.2309090850649558, rel=1e-9
    )


# -- growth surface -------------------------------------------------------------


def test_q_surface_origin_is_the_cash_rate():
    params = regime("two_asset")
    surf = q_surface(params, np.array([0.0]), np.array([0.0]))
    assert surf.shape == (1, 1)
    assert surf[0, 0] == params.cash_rate


def test_q_surface_matches_expected_growth_pointwise():
    params = regime("two_asset")
    w1 = np.linspace(-1.0, 3.0, 9)
    w2 = np.linspace(-1.0, 3.0, 7)
    surf = q_surface(params, w1, w2)
    assert surf.shape == (9, 7)
    rng = np.random.default_rng(8)
    for _ in range(20):
        i = int(rng.integers(9))
        j = int(rng.integers(7))
        direct = expected_growth(np.array([w1[i], w2[j]]), params)
        assert surf[i, j] == pytest.approx(direct, abs=1e-15)


def test_q_surface_is_concave_along_grid_lines():
    params = regime("two_asset")
    grid = np.linspace(-1.0, 3.0, 41)
    surf = q_surface(params, grid, grid)
    d2_rows = np.diff(surf, n=2, axis=0)
    d2_cols = np.diff(surf, n=2, axis=1)
    assert np.all(d2_rows < 0)
    assert np.all(d2_cols < 0)
    # a quadratic has constant second differences
    assert np.max(np.abs(d2_rows - d2_rows[0, 0])) < 1e-12
    assert np.max(np.abs(d2_cols - d2_cols[0, 0])) < 1e-12


def test_q_surface_argmax_brackets_the_optimum():
    params = regime("two_asset")
    grid = np.linspace(-1.0, 3.0, 41)
    surf = q_surface(params, grid, grid)
    i, j = np.unravel_index(np.argmax(surf), surf.shape)
    w_star = optimal_weights(params).stocks
    h = grid[1] - grid[0]
    assert abs(grid[i] - w_star[0]) <= h
    assert abs(grid[j] - w_star[1]) <= h


def test_q_surface_needs_two_assets():
    with pytest.raises(ValueError, match="2-asset"):
        q_surface(regime("etf3"), np.zeros(2), np.zeros(2))


# -- Monte Carlo consistency -----------------------------------------------------


def test_simulated_growth_matches_analytic_growth():
    # frictionless fixed-w* portfolio: sample mean growth within 3 SE of L(w*)
    params = regime("single_asset")
    config = EnvConfig(
        horizon_years=1.0,
        periods_per_year=256,
        window=2,
        initial_wealth=1000.0,
        market=RegimeModel.single(params),
        impact=ImpactParams(0.0, 0.0),
    )
    policy = FixedWeightPolicy(np.array([2.0]))
    result = evaluate(policy, lambda seed: PortfolioEnv(config, seed),
                      n_episodes=200, seed=0)
    assert result.bankruptcies == 0
    assert result.n_episodes == 200
    se = np.std(result.growths, ddof=1) / np.sqrt(200)
    assert abs(result.mean_growth - 0.12) < 3.0 * se
