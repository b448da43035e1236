"""Execution cost formula and permanent-impact bookkeeping."""

from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from kellylab.impact import ImpactParams, trade_cost


@dataclass
class ImpactState:
    """Cumulative permanent-impact factors, one per asset, starting at 1."""

    multipliers: np.ndarray

    def __post_init__(self):
        self.multipliers = np.asarray(self.multipliers, dtype=np.float64)
        if np.any(self.multipliers <= 0):
            raise ValueError("impact multipliers must stay positive")

    @classmethod
    def initial(cls, n_assets: int) -> "ImpactState":
        return cls(np.ones(n_assets, dtype=np.float64))


def apply_permanent_impact(
    state: ImpactState, shares, params: ImpactParams
) -> ImpactState:
    """Fold one rebalance into the permanent multipliers (new state returned).

    Applied once per period, after the GBM step and before valuation, so the
    multiplier commutes with the scale-invariant future dynamics.
    """
    y = np.asarray(shares, dtype=np.float64)
    return ImpactState(state.multipliers * np.exp(params.gamma * y))


def cost_formula(s0, s1, y, dt, eta, gamma):
    temp = 0.5 * (1.0 + (eta / dt) * y) * (s1 - s0)
    perm = gamma * y * (s1 / 3.0 + s0 / 6.0)
    return y * (temp + perm)


def permanent_term_quadrature(s0, s1, y, dt, gamma):
    # trading uniformly at rate y/dt while cumulative permanent impact
    # gamma * (y t / dt) acts on the linear price path
    def integrand(t):
        s_lin = s0 + (s1 - s0) * t / dt
        return s_lin * gamma * (y * t / dt) * (y / dt)

    value, _ = quad(integrand, 0.0, dt, epsabs=1e-12, epsrel=1e-12)
    return value


def test_no_trade_costs_nothing():
    c = trade_cost(np.ones(3), np.full(3, 1.2), np.zeros(3), 1.0 / 256,
                   ImpactParams(1e-9, 1e-7))
    assert np.array_equal(c, np.zeros(3))


def test_pure_slippage_case():
    # no impact at all: half the price move on the traded shares
    c = trade_cost(1.0, 1.1, 100.0, 1.0 / 256, ImpactParams(0.0, 0.0))
    assert c == pytest.approx(5.0, abs=1e-12)


def test_pure_permanent_case():
    # flat price: only the gamma term survives, (1/3 + 1/6) s = s / 2
    c = trade_cost(1.0, 1.0, 1000.0, 1.0 / 256, ImpactParams(0.0, 1e-4))
    assert c == pytest.approx(50.0, abs=1e-12)


def test_matches_closed_form_on_random_inputs():
    rng = np.random.default_rng(5150)
    for _ in range(200):
        s0 = rng.uniform(0.2, 5.0)
        s1 = s0 * np.exp(rng.normal(0.0, 0.05))
        y = rng.uniform(-2e4, 2e4)
        dt = rng.uniform(1e-3, 0.1)
        eta = rng.uniform(0.0, 1e-6)
        gamma = rng.uniform(0.0, 1e-5)
        c = trade_cost(s0, s1, y, dt, ImpactParams(eta, gamma))
        assert c == pytest.approx(
            cost_formula(s0, s1, y, dt, eta, gamma), rel=1e-14, abs=1e-300
        )


def test_permanent_term_equals_linear_path_integral():
    rng = np.random.default_rng(99)
    for _ in range(100):
        s0 = rng.uniform(0.5, 3.0)
        s1 = s0 * np.exp(rng.normal(0.0, 0.05))
        y = rng.uniform(-1e4, 1e4)
        dt = rng.uniform(1e-3, 0.1)
        gamma = rng.uniform(1e-8, 1e-4)
        term = float(
            trade_cost(s0, s1, y, dt, ImpactParams(0.0, gamma))
            - trade_cost(s0, s1, y, dt, ImpactParams(0.0, 0.0))
        )
        exact = permanent_term_quadrature(s0, s1, y, dt, gamma)
        assert abs(term - exact) <= 1e-8 * max(abs(exact), 1e-12)


def test_sells_mirror_buys_without_impact():
    rng = np.random.default_rng(4)
    params = ImpactParams(0.0, 0.0)
    for _ in range(50):
        s0, s1 = rng.uniform(0.5, 2.0, size=2)
        y = rng.uniform(1.0, 1e4)
        buy = trade_cost(s0, s1, y, 1.0 / 256, params)
        sell = trade_cost(s0, s1, -y, 1.0 / 256, params)
        assert float(sell) == pytest.approx(-float(buy), rel=1e-15)


def test_cost_increases_with_impact_strength_on_rising_prices():
    s0, s1, y, dt = 1.0, 1.02, 500.0, 1.0 / 256
    etas = [0.0, 1e-9, 1e-8, 1e-7]
    costs = [float(trade_cost(s0, s1, y, dt, ImpactParams(e, 0.0))) for e in etas]
    assert all(a < b for a, b in zip(costs, costs[1:]))
    gammas = [0.0, 1e-8, 1e-7, 1e-6]
    costs = [float(trade_cost(s0, s1, y, dt, ImpactParams(0.0, g))) for g in gammas]
    assert all(a < b for a, b in zip(costs, costs[1:]))


def test_eta_term_carries_the_price_move_sign():
    # on falling prices the temporary term rebates a buyer; the formula is
    # linearized around the price move, not clamped at zero
    y, dt, eta = 500.0, 1.0 / 256, 1e-6
    rising = float(trade_cost(1.0, 1.02, y, dt, ImpactParams(eta, 0.0)))
    falling = float(trade_cost(1.0, 0.98, y, dt, ImpactParams(eta, 0.0)))
    no_eta_rising = float(trade_cost(1.0, 1.02, y, dt, ImpactParams(0.0, 0.0)))
    no_eta_falling = float(trade_cost(1.0, 0.98, y, dt, ImpactParams(0.0, 0.0)))
    assert rising > no_eta_rising
    assert falling < no_eta_falling


def test_elementwise_over_assets():
    params = ImpactParams(1e-9, 1e-7)
    s0 = np.array([1.0, 2.0, 0.5])
    s1 = np.array([1.01, 1.9, 0.55])
    y = np.array([100.0, -50.0, 0.0])
    c = trade_cost(s0, s1, y, 1.0 / 256, params)
    assert c.shape == (3,)
    for i in range(3):
        single = trade_cost(s0[i], s1[i], y[i], 1.0 / 256, params)
        assert float(c[i]) == float(single)
    assert c[2] == 0.0


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 12), seed=st.integers(0, 2**32 - 1),
       eta=st.floats(0.0, 1e-5), gamma=st.floats(0.0, 1e-3),
       dt=st.floats(1e-4, 1.0), size=st.floats(0.0, 1e8))
def test_float_calls_give_the_bits_of_the_array_call(n, seed, eta, gamma, dt,
                                                     size):
    # the env prices each asset with a float call; each must carry the bits
    # of its element of the array call
    rng = np.random.default_rng(seed)
    s0 = rng.uniform(1e-3, 1e3, n)
    s1 = s0 * np.exp(rng.normal(0.0, 0.5, n))
    y = size * rng.uniform(-1.0, 1.0, n)
    params = ImpactParams(eta, gamma)
    expected = trade_cost(s0, s1, y, dt, params)
    floats = [trade_cost(a, b, c, dt, params)
              for a, b, c in zip(s0.tolist(), s1.tolist(), y.tolist())]
    assert all(type(c) is float for c in floats)
    assert np.array_equal(np.array(floats).view(np.int64),
                          expected.view(np.int64))


def test_permanent_impact_accumulates_multiplicatively():
    params = ImpactParams(0.0, 1e-7)
    state = ImpactState.initial(2)
    assert np.array_equal(state.multipliers, np.ones(2))
    pushed = apply_permanent_impact(state, np.array([1e5, 0.0]), params)
    assert pushed.multipliers[0] == pytest.approx(np.exp(0.01), rel=1e-15)
    assert pushed.multipliers[1] == 1.0
    # the original state is untouched
    assert np.array_equal(state.multipliers, np.ones(2))


def test_permanent_impact_round_trip_cancels():
    params = ImpactParams(0.0, 3e-6)
    state = ImpactState.initial(1)
    y = np.array([12345.0])
    there = apply_permanent_impact(state, y, params)
    back = apply_permanent_impact(there, -y, params)
    assert abs(back.multipliers[0] - 1.0) < 1e-12


def test_zero_gamma_leaves_multipliers_alone():
    state = ImpactState(np.array([1.5, 0.8]))
    out = apply_permanent_impact(state, np.array([1e6, -1e6]),
                                 ImpactParams(1e-9, 0.0))
    assert np.array_equal(out.multipliers, state.multipliers)


def test_parameter_validation():
    with pytest.raises(ValueError, match="eta"):
        ImpactParams(-1e-9, 0.0)
    with pytest.raises(ValueError, match="gamma"):
        ImpactParams(0.0, -1e-7)
    with pytest.raises(ValueError, match="positive"):
        ImpactState(np.array([1.0, 0.0]))
    with pytest.raises(ValueError, match="dt"):
        trade_cost(1.0, 1.0, 10.0, 0.0, ImpactParams(0.0, 0.0))
