"""The shipped experiment configs: configs/ is the one source of the paper's
market parameters, and tests read them from there."""

from pathlib import Path

from kellylab.config import load_config

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def shipped(name: str):
    """The ExperimentConfig in configs/<name>.yaml (a fresh copy per call)."""
    return load_config(CONFIGS / f"{name}.yaml")


def regime(name: str, k: int = 0):
    """Regime k's market parameters in configs/<name>.yaml."""
    return shipped(name).market.regimes[k]
