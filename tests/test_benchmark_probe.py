"""The benchmark's probe still finds every function it times, and still
counts every evaluation step.

perfbench/probe.py wraps kellylab functions by name. A rename that leaves a
name behind would silently zero that layer's metrics, so the probe is
installed here in a child process (it patches modules globally) and must
report nothing missing. It counts evaluation steps through the environments
evaluate's factory builds, which lockstep evaluation reuses across waves.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

INSTALL = """\
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import kellylab.cli
from probe import Probes
probes = Probes()
probes.install_layers()
probes.install_boundaries()
print(json.dumps(probes.missing))
"""


def test_probe_finds_every_layer_and_boundary():
    result = subprocess.run(
        [sys.executable, "-c", INSTALL, str(ROOT / "perfbench"),
         str(ROOT / "src")],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout.splitlines()[-1]) == []


COUNT_EVAL_STEPS = """\
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import numpy as np
import kellylab.cli
import kellylab.training
from kellylab.env import EnvConfig, PortfolioEnv
from kellylab.impact import ImpactParams
from kellylab.market import MarketParams, RegimeModel
from kellylab.nets import PolicyNet
from probe import Probes

probes = Probes()
probes.install_boundaries()
config = EnvConfig(
    horizon_years=0.0625, periods_per_year=256, window=2,
    initial_wealth=1000.0,
    market=RegimeModel.single(MarketParams(
        np.array([0.1]), np.array([1.0]), np.eye(1), 0.04)),
    impact=ImpactParams(0.0, 0.0),
)
steps = [0]

class CountingEnv(PortfolioEnv):
    def step(self, action):
        steps[0] += 1
        return super().step(action)

net = PolicyNet(config.observation_dim, 1, np.random.default_rng(0),
                hidden=(8,))
net.actor.b.value[:] = 5.0  # leverage: some episodes end bankrupt early
result = kellylab.training.evaluate(
    kellylab.training.NetPolicy(net), lambda seed: CountingEnv(config, seed),
    70, 0)
print(json.dumps({"true": steps[0], "counted": probes.stats()["eval_steps"],
                  "bankruptcies": result.bankruptcies,
                  "full": 70 * config.n_periods}))
"""


def test_probe_counts_every_lockstep_evaluation_step():
    # 70 episodes run as a 64-lane wave and a 6-lane wave
    result = subprocess.run(
        [sys.executable, "-c", COUNT_EVAL_STEPS, str(ROOT / "perfbench"),
         str(ROOT / "src")],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    counts = json.loads(result.stdout.splitlines()[-1])
    assert 0 < counts["bankruptcies"] < 70
    assert counts["true"] < counts["full"]
    assert counts["counted"] == counts["true"]
