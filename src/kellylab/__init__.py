"""Kelly-optimal portfolio lab.

Simulates impact-aware multi-asset markets with optional regime switching,
computes analytic log-growth-optimal policies as ground truth, and trains
on-policy RL agents (A2C, clipped PPO, optionally regime-context-conditioned)
against that ground truth.
"""

__version__ = "0.1.0"

from . import (
    analytic,
    baselines,
    config,
    env,
    hmm,
    impact,
    market,
    nets,
    rl,
    training,
)

__all__ = [
    "analytic",
    "baselines",
    "config",
    "env",
    "hmm",
    "impact",
    "market",
    "nets",
    "rl",
    "training",
    "__version__",
]
