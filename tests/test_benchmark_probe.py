"""The benchmark's probe still finds every function it times, and still
counts every evaluation step.

perfbench/probe.py wraps kellylab functions by name. A rename that leaves a
name behind would silently zero that layer's metrics, so the probe is
installed here in a child process (it patches modules globally) and must
report nothing missing. It counts evaluation steps through the environments
evaluate's factory builds: one per lane, reset through its own reset() and
reused across waves. The wave sets each lane's clock to its final value when
the lane leaves, and the probe reads it at the lane's next reset and at exit.
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


NET_SPANS = """\
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import numpy as np
import kellylab.cli
from kellylab.nets import ContextPolicyNet, PolicyNet
from probe import Probes

probes = Probes()
probes.install_layers()
rng = np.random.default_rng(0)
obs = rng.normal(size=(2, 3))
nets = {
    "policy": (PolicyNet(3, 1, rng, hidden=(4,)), (obs,)),
    "context_policy": (
        ContextPolicyNet(3, 2, 1, rng, feature_sizes=(4,), regime_sizes=(4,),
                         shared_sizes=(4,)),
        (obs, np.eye(2))),
}
recorded = {}
for kind, (net, inputs) in nets.items():
    first = len(probes.spans)
    net.forward(*inputs)
    net.backward(np.ones((2, 1)), np.ones(2))
    # a nested span stores its name id as -1 - id
    recorded[kind] = sorted(
        probes.names[name_id if name_id >= 0 else -1 - name_id]
        for name_id, _, _, _ in probes.spans[first:])
print(json.dumps(recorded))
"""


def test_probe_records_one_span_per_net_call_of_each_kind():
    # a net class that inherited a method the probe already wrapped on
    # another class would record each of its calls twice
    recorded = run_probe_script(NET_SPANS)
    assert recorded == {kind: ["nets.backward", "nets.forward"]
                        for kind in ("policy", "context_policy")}


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
net = PolicyNet(config.observation_dim, 1, np.random.default_rng(0),
                hidden=(8,))
net.actor.b.value[:] = 5.0  # leverage: some episodes end bankrupt early
policy = kellylab.training.NetPolicy(net)
result = kellylab.training.evaluate(
    policy, lambda seed: PortfolioEnv(config, seed), 70, 0)
counted = probes.stats()["eval_steps"]

# the true count, independently: each episode replayed alone on a one-lane
# env with the float step, acting on the policy mean of the observation the
# step returned, its length read off its clock
true = 0
env = PortfolioEnv(config, 0)
for episode in range(70):
    obs = env.reset(episode=episode)
    while not env.done:
        obs = env.step(net.forward(obs[None])[0][0]).observation
    true += env.t
print(json.dumps({"true": true, "counted": counted,
                  "bankruptcies": result.bankruptcies,
                  "full": 70 * config.n_periods}))
"""


def run_probe_script(script):
    result = subprocess.run(
        [sys.executable, "-c", script, str(ROOT / "perfbench"),
         str(ROOT / "src")],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


def test_probe_counts_every_lockstep_evaluation_step():
    # 70 episodes run as a 64-lane wave and a 6-lane wave
    counts = run_probe_script(COUNT_EVAL_STEPS)
    assert 0 < counts["bankruptcies"] < 70
    assert counts["true"] < counts["full"]
    assert counts["counted"] == counts["true"]


COUNT_GRID_STEPS = """\
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import kellylab.cli
from kellylab.baselines import rs_baseline_grid_search
from kellylab.config import apply_override, build_config, load_config
from probe import Probes

probes = Probes()
probes.install_boundaries()
exp = load_config(sys.argv[3])
exp = build_config(apply_override(exp.to_dict(), "env.horizon_years", 0.125),
                   source="test")
result = rs_baseline_grid_search(exp.env, episodes_per_cell=3,
                                 master_seed=4)
print(json.dumps({
    "counted": probes.stats()["eval_steps"],
    "cells": len(result.table),
    "periods": exp.env.n_periods,
    "bankruptcies": sum(row["bankruptcies"] for row in result.table),
}))
"""


def test_probe_counts_every_grid_search_step():
    # the grid search plays every (cell, episode) as one lane of one wave
    counts = run_probe_script(COUNT_GRID_STEPS.replace(
        "sys.argv[3]", repr(str(ROOT / "configs" / "regimes3.yaml"))))
    assert counts["bankruptcies"] == 0
    assert counts["cells"] == 70
    assert counts["counted"] == 70 * 3 * counts["periods"]
