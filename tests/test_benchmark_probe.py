"""The benchmark's probe still finds every function it times.

perfbench/probe.py wraps kellylab functions by name. A rename that leaves a
name behind would silently zero that layer's metrics, so the probe is
installed here in a child process (it patches modules globally) and must
report nothing missing.
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
