"""Market simulator: GBM discretization, regime chains, and path generation."""

import math

import numpy as np
import pytest
import scipy.linalg

from kellylab.errors import FactorizationError, RescaleError
from kellylab.market import (
    MarketParams,
    RegimeModel,
    cholesky_factor,
    generate_path,
    rescale_transition,
    sample_regime_path,
    step_prices,
)
from kellylab.rng import episode_stream, stream

from shipped import regime, shipped


def two_asset(rho=0.5, mu=(0.1, 0.05), sigma=(0.2, 0.3), cash_rate=0.02):
    corr = np.array([[1.0, rho], [rho, 1.0]])
    return MarketParams(np.array(mu), np.array(sigma), corr, cash_rate)


# -- parameter validation and Cholesky ---------------------------------------


def test_cholesky_identity_for_uncorrelated_assets():
    L = cholesky_factor(np.eye(3))
    assert np.array_equal(L, np.eye(3))


def test_cholesky_two_assets_closed_form():
    L = cholesky_factor(np.array([[1.0, 0.5], [0.5, 1.0]]))
    expected = np.array([[1.0, 0.0], [0.5, math.sqrt(0.75)]])
    assert np.max(np.abs(L - expected)) < 1e-15


def test_cholesky_reconstructs_correlation():
    corr = regime("etf3").corr
    L = cholesky_factor(corr)
    assert np.max(np.abs(L @ L.T - corr)) < 1e-12
    assert np.max(np.abs(np.triu(L, k=1))) == 0.0


def test_cholesky_rejects_non_positive_definite():
    corr = np.array([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(FactorizationError, match="order 2"):
        cholesky_factor(corr)
    corr3 = np.array([[1.0, 0.9, -0.9], [0.9, 1.0, 0.9], [-0.9, 0.9, 1.0]])
    with pytest.raises(FactorizationError, match="order 3"):
        cholesky_factor(corr3)


def test_market_params_validation():
    with pytest.raises(ValueError, match="non-negative"):
        MarketParams(np.array([0.1]), np.array([-0.2]), np.eye(1), 0.0)
    with pytest.raises(ValueError, match="symmetric"):
        MarketParams(
            np.zeros(2), np.ones(2), np.array([[1.0, 0.3], [0.2, 1.0]]), 0.0
        )
    with pytest.raises(ValueError, match="unit diagonal"):
        MarketParams(
            np.zeros(2), np.ones(2), np.array([[2.0, 0.0], [0.0, 2.0]]), 0.0
        )
    with pytest.raises(ValueError, match="shapes"):
        MarketParams(np.zeros(2), np.ones(3), np.eye(2), 0.0)
    # sigma = 0 is legal: deterministic growth
    MarketParams(np.array([0.1]), np.array([0.0]), np.eye(1), 0.0)


def test_covariance_matches_outer_product():
    params = regime("etf3")
    cov = params.covariance()
    expected = params.corr * np.outer(params.sigma, params.sigma)
    assert np.array_equal(cov, expected)
    assert np.allclose(np.diag(cov), params.sigma**2)


# -- one-step price dynamics --------------------------------------------------


def test_step_prices_zero_vol_is_pure_drift():
    params = MarketParams(np.array([0.12, -0.05]), np.zeros(2), np.eye(2), 0.0)
    dt = 1.0 / 256
    out = step_prices(np.array([1.0, 2.0]), params, dt, np.array([3.0, -3.0]))
    expected = np.array([math.exp(0.12 * dt), 2.0 * math.exp(-0.05 * dt)])
    assert np.max(np.abs(out - expected)) < 1e-15


def test_step_prices_zero_draws_gives_median_growth():
    params = two_asset()
    dt = 1.0 / 12
    out = step_prices(np.ones(2), params, dt, np.zeros(2))
    expected = np.exp((params.mu - 0.5 * params.sigma**2) * dt)
    assert np.max(np.abs(out - expected)) < 1e-15


def test_step_prices_batch_matches_loop():
    params = regime("etf3")
    rng = np.random.default_rng(11)
    draws = rng.standard_normal((8, 3))
    prices = rng.uniform(0.5, 2.0, size=(8, 3))
    batch = step_prices(prices, params, 1.0 / 256, draws)
    for i in range(8):
        single = step_prices(prices[i], params, 1.0 / 256, draws[i])
        assert np.array_equal(batch[i], single)


def test_step_prices_sample_moments_match_gbm():
    # mean and covariance of one-period log returns vs the exact discretization
    params = regime("etf3")
    dt = 1.0 / 256
    n = 100_000
    rng = np.random.default_rng(2024)
    draws = rng.standard_normal((n, 3))
    out = step_prices(np.ones((n, 3)), params, dt, draws)
    log_ret = np.log(out)

    true_mean = (params.mu - 0.5 * params.sigma**2) * dt
    true_cov = params.covariance() * dt
    per_step_sd = params.sigma * math.sqrt(dt)

    mean_err = np.abs(log_ret.mean(axis=0) - true_mean)
    assert np.all(mean_err < 3.0 * per_step_sd / math.sqrt(n))

    sample_cov = np.cov(log_ret, rowvar=False, ddof=1)
    for i in range(3):
        for j in range(3):
            se = math.sqrt(
                (true_cov[i, i] * true_cov[j, j] + true_cov[i, j] ** 2) / n
            )
            assert abs(sample_cov[i, j] - true_cov[i, j]) < 3.0 * se


# -- regime chains ------------------------------------------------------------


def test_single_regime_consumes_no_randomness():
    model = RegimeModel.single(regime("etf3"))
    rng = episode_stream(0, 0)
    z = sample_regime_path(model, 100, rng)
    assert np.array_equal(z, np.zeros(101, dtype=np.int64))
    # the generator was untouched: a fresh stream gives the same next draw
    assert rng.random() == episode_stream(0, 0).random()


def test_absorbing_chain_stays_put():
    params = two_asset()
    model = RegimeModel(
        [params, params], np.eye(2), np.array([0.0, 1.0])
    )
    z = sample_regime_path(model, 50, episode_stream(1, 2))
    assert np.array_equal(z, np.ones(51, dtype=np.int64))


def test_transition_frequencies_match_matrix():
    model = shipped("regimes3").market
    P = model.transition
    z = sample_regime_path(model, 1_000_000, episode_stream(7, 0))
    src, dst = z[:-1], z[1:]
    for i in range(2):
        n_i = int(np.sum(src == i))
        p_hat = np.sum((src == i) & (dst == 1 - i)) / n_i
        p = P[i, 1 - i]
        se = math.sqrt(p * (1.0 - p) / n_i)
        assert abs(p_hat - p) < 3.0 * se


def test_occupancy_approaches_stationary_distribution():
    # two-state chain: pi = (p10, p01) / (p01 + p10); the 3-sigma band uses the
    # integrated autocorrelation time of the chain, not the iid rate
    model = shipped("regimes3").market
    p01, p10 = model.transition[0, 1], model.transition[1, 0]
    pi0 = p10 / (p01 + p10)
    n = 1_000_000
    z = sample_regime_path(model, n, episode_stream(7, 1))
    occ = np.mean(z == 0)
    tau = (2.0 - p01 - p10) / (p01 + p10)
    se = math.sqrt(pi0 * (1.0 - pi0) * tau / n)
    assert abs(occ - pi0) < 3.0 * se


def test_regime_model_validation():
    params = two_asset()
    with pytest.raises(ValueError, match="sum to 1"):
        RegimeModel([params, params], np.array([[0.9, 0.0], [0.0, 1.0]]),
                    np.array([0.5, 0.5]))
    with pytest.raises(ValueError, match="non-negative"):
        RegimeModel([params, params], np.array([[1.5, -0.5], [0.0, 1.0]]),
                    np.array([0.5, 0.5]))
    with pytest.raises(ValueError, match="probability vector"):
        RegimeModel([params, params], np.eye(2), np.array([0.7, 0.7]))
    one_asset = MarketParams(np.array([0.1]), np.array([0.2]), np.eye(1), 0.0)
    with pytest.raises(ValueError, match="assets"):
        RegimeModel([params, one_asset], np.eye(2), np.array([0.5, 0.5]))


# -- transition rescaling -----------------------------------------------------


def test_rescale_same_period_is_identity():
    P = np.array([[0.997, 0.003], [0.009, 0.991]])
    out = rescale_transition(P, 1.0 / 256, 1.0 / 256)
    assert np.max(np.abs(out - P)) < 1e-12


def test_rescale_double_period_is_matrix_square():
    P = np.array([[0.997, 0.003], [0.009, 0.991]])
    out = rescale_transition(P, 1.0 / 256, 2.0 / 256)
    assert np.max(np.abs(out - P @ P)) < 1e-10


def test_rescale_round_trip():
    P = np.array([[0.997, 0.003], [0.009, 0.991]])
    monthly = rescale_transition(P, 1.0 / 256, 1.0 / 12)
    back = rescale_transition(monthly, 1.0 / 12, 1.0 / 256)
    assert np.max(np.abs(back - P)) < 1e-8
    assert np.allclose(monthly.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(monthly >= 0.0)


def test_rescale_rejects_period_two_chain():
    with pytest.raises(RescaleError, match="no real logarithm"):
        rescale_transition(np.array([[0.0, 1.0], [1.0, 0.0]]), 1.0, 0.5)
    with pytest.raises(RescaleError, match="no real logarithm"):
        rescale_transition(np.array([[0.1, 0.9], [0.9, 0.1]]), 1.0, 0.5)


def test_rescale_rejects_invalid_generator():
    # stochastic matrix whose real logarithm has a negative off-diagonal rate
    G = np.array(
        [[-1.65, 1.8, -0.15], [0.75, -1.5, 0.75], [0.6, 0.9, -1.5]]
    )
    P = scipy.linalg.expm(G)
    assert np.all(P > 0) and np.allclose(P.sum(axis=1), 1.0)
    with pytest.raises(RescaleError, match="generator"):
        rescale_transition(P, 1.0, 0.5)


def test_rescale_input_validation():
    P = np.array([[0.997, 0.003], [0.009, 0.991]])
    with pytest.raises(ValueError, match="square"):
        rescale_transition(np.ones((2, 3)), 1.0, 0.5)
    with pytest.raises(ValueError, match="positive"):
        rescale_transition(P, 0.0, 0.5)
    with pytest.raises(ValueError, match="positive"):
        rescale_transition(P, 1.0, -0.5)


# -- path generation ----------------------------------------------------------


def test_generate_path_opens_at_one():
    model = RegimeModel.single(regime("etf3"))
    path = generate_path(model, 16, 1.0 / 256, episode_stream(0, 0))
    assert np.array_equal(path.prices[0], np.ones(3))
    assert path.prices.shape == (17, 3)
    assert path.regimes.shape == (17,)
    assert path.warmup_prices.size == 0
    assert np.all(path.prices > 0)


def test_generate_path_zero_vol_is_deterministic():
    params = MarketParams(np.array([0.12]), np.array([0.0]), np.eye(1), 0.0)
    model = RegimeModel.single(params)
    dt = 1.0 / 256
    path = generate_path(model, 10, dt, episode_stream(0, 5))
    expected = np.exp(0.12 * dt * np.arange(11))
    assert np.max(np.abs(path.prices[:, 0] - expected)) < 1e-12


def test_generate_path_is_deterministic_in_seed():
    model = shipped("regimes3").market
    a = generate_path(model, 32, 1.0 / 256, episode_stream(9, 4), warmup=5)
    b = generate_path(model, 32, 1.0 / 256, episode_stream(9, 4), warmup=5)
    assert np.array_equal(a.prices, b.prices)
    assert np.array_equal(a.regimes, b.regimes)
    assert np.array_equal(a.warmup_prices, b.warmup_prices)
    c = generate_path(model, 32, 1.0 / 256, episode_stream(9, 5), warmup=5)
    assert not np.array_equal(a.prices, c.prices)


def test_generate_path_matches_step_prices_loop():
    # same draws through the one-step kernel reproduce the whole path
    model = shipped("regimes3").market
    dt = 1.0 / 256
    n = 64
    path = generate_path(model, n, dt, episode_stream(3, 1))

    rng = episode_stream(3, 1)
    z = sample_regime_path(model, n, rng)
    draws = rng.standard_normal((n, model.n_assets))
    assert np.array_equal(z, path.regimes)

    prices = np.ones(model.n_assets)
    rebuilt = [prices]
    for t in range(n):
        prices = step_prices(prices, model.regimes[z[t]], dt, draws[t])
        rebuilt.append(prices)
    rebuilt = np.array(rebuilt)
    assert np.max(np.abs(rebuilt - path.prices) / path.prices) < 1e-12


def test_generate_path_warmup_shares_normalization():
    model = shipped("regimes3").market
    path = generate_path(model, 8, 1.0 / 256, episode_stream(2, 2), warmup=6)
    assert path.warmup_prices.shape == (6, 3)
    assert path.warmup_regimes.shape == (6,)
    assert np.array_equal(path.prices[0], np.ones(3))
    full = np.vstack([path.warmup_prices, path.prices])
    assert full.shape == (15, 3)
    assert np.array_equal(full[6], path.prices[0])
    # warm-up returns flow continuously into the episode
    inc = np.diff(np.log(full), axis=0)
    assert np.all(np.isfinite(inc))


def test_regime_labels_govern_the_following_period():
    # absorbing regime 1 with zero vol: every return is regime 1's drift
    slow = MarketParams(np.array([0.0]), np.array([0.0]), np.eye(1), 0.0)
    fast = MarketParams(np.array([0.5]), np.array([0.0]), np.eye(1), 0.0)
    model = RegimeModel([slow, fast], np.eye(2), np.array([0.0, 1.0]))
    dt = 1.0 / 12
    path = generate_path(model, 6, dt, episode_stream(0, 0))
    assert np.array_equal(path.regimes, np.ones(7, dtype=np.int64))
    assert np.max(np.abs(path.log_returns() - 0.5 * dt)) < 1e-15


def test_log_returns_shape_and_values():
    model = RegimeModel.single(two_asset())
    path = generate_path(model, 12, 1.0 / 256, episode_stream(5, 5))
    ret = path.log_returns()
    assert ret.shape == (12, 2)
    assert np.max(np.abs(ret - np.diff(np.log(path.prices), axis=0))) == 0.0


def test_generate_path_input_validation():
    model = RegimeModel.single(two_asset())
    with pytest.raises(ValueError, match="n_periods"):
        generate_path(model, 0, 1.0 / 256, episode_stream(0, 0))
    with pytest.raises(ValueError, match="warmup"):
        generate_path(model, 4, 1.0 / 256, episode_stream(0, 0), warmup=-1)


def test_price_path_csv_round_trip(tmp_path):
    model = shipped("regimes3").market
    path = generate_path(model, 5, 1.0 / 256, episode_stream(0, 3))
    out = tmp_path / "path.csv"
    path.write_csv(out)
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "t,asset_0,asset_1,asset_2,regime"
    assert len(lines) == 7
    for t, line in enumerate(lines[1:]):
        cells = line.split(",")
        assert int(cells[0]) == t
        parsed = np.array([float(c) for c in cells[1:4]])
        assert np.array_equal(parsed, path.prices[t])
        assert int(cells[4]) == path.regimes[t]


def test_philox_streams_are_stable():
    # the (master_seed, index) -> stream mapping is part of the contract:
    # episode draws must never silently change between releases
    first = stream(0, 0).random(3)
    expected = np.array(
        [0.014067035665647709, 0.2577672456246177, 0.47156538101528966]
    )
    assert np.array_equal(first, expected)
    other = stream(12345, 42).random(2)
    assert np.array_equal(
        other, np.array([0.9356521125727109, 0.9388769973882682])
    )


def test_episode_stream_rejects_negative_episode():
    with pytest.raises(ValueError, match="episode"):
        episode_stream(0, -1)
