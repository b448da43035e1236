"""Execution costs and permanent price impact.

A trade of Y shares over one period executes while the unaffected price moves
linearly from s_start to s_end and the trade itself pushes the price: a
temporary component proportional to the trading rate (eta * Y/dt) and a
permanent component proportional to shares already executed (gamma * y). The
period cost charged on top of the principal leg Y * s_start is the linearized
closed form

    C = Y * [ (1 + (eta/dt) Y) (s_end - s_start) / 2
              + gamma Y (s_end/3 + s_start/6) ]

whose gamma term equals the exact linear-path integral
int_0^dt S_lin(t) * gamma * (Y t / dt) * (Y / dt) dt. With eta = gamma = 0 the
residual C = Y (s_end - s_start) / 2 is the slippage of executing uniformly
through the period instead of instantly at s_start. Permanent impact
accumulates across periods as a per-asset multiplier exp(gamma * y_net)
applied to the unaffected price.
"""

from dataclasses import dataclass


@dataclass
class ImpactParams:
    """eta: temporary impact (price per share/year rate); gamma: permanent
    impact (per share). Both zero disables impact entirely."""

    eta: float
    gamma: float

    def __post_init__(self):
        if self.eta < 0:
            raise ValueError(f"eta must be >= 0, got {self.eta}")
        if self.gamma < 0:
            raise ValueError(f"gamma must be >= 0, got {self.gamma}")


def trade_cost(s_start, s_end, shares, dt: float, params: ImpactParams):
    """Excess execution cost of trading `shares` over one period of length dt.

    Takes Python floats (one asset) or float64 arrays (elementwise, one cost
    per asset) and returns the same kind. Every operation rounds once in
    either form, so a float call gives the bits of the matching element of
    an array call. A one-lane `PortfolioEnv.step` calls it once per asset,
    on floats; a lockstep wave's step calls it once, on (lanes, n) arrays.
    Signed: selling (Y < 0) mirrors buying in the no-impact limit,
    C(-Y) = -C(Y).
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    temp = 0.5 * (1.0 + (params.eta / dt) * shares) * (s_end - s_start)
    perm = params.gamma * shares * (s_end / 3.0 + s_start / 6.0)
    return shares * (temp + perm)
