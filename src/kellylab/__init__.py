"""Kelly-optimal portfolio lab.

Simulates impact-aware multi-asset markets with optional regime switching,
computes analytic log-growth-optimal policies as ground truth, and trains
on-policy RL agents (A2C, clipped PPO, optionally regime-context-conditioned)
against that ground truth.
"""

import os

# Every matrix here is small, and one BLAS thread runs them faster than a
# pool whose idle workers spin between calls: on a 2-vCPU Xeon, evaluating
# 100 half-year regimes3 episodes of a context net took 11.4 s at the
# default thread count and 3.9 s at one. The variables take effect only
# if numpy loads after them; a value already in the environment wins.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_USER_SET_BLAS = any(var in os.environ for var in BLAS_VARS)
for _var in BLAS_VARS:
    os.environ.setdefault(_var, "1")

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

# if numpy loaded first, its OpenBLAS runs a thread per core, and calls that
# switch between it and scipy's stall for milliseconds each
_set_threads = None if _USER_SET_BLAS else hmm.openblas_function(
    "scipy_openblas_set_num_threads64_")
if _set_threads is not None:
    _set_threads(1)

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
