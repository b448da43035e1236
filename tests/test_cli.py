"""Command-line interface: outputs, manifests, overrides, reproducibility."""

import hashlib
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from kellylab import cli
from kellylab.analytic import optimal_weights, q_surface
from kellylab.cli import main
from kellylab.config import load_config

TINY = """\
market:
  mu: [0.12]
  sigma: [0.2]
  corr: [[1.0]]
  cash_rate: 0.04
impact:
  eta: 0.0
  gamma: 0.0
env:
  horizon_years: 0.0625
  periods_per_year: 256
  window: 2
  initial_wealth: 1000.0
algo:
  name: ppo
  total_steps: 16
  rollout_steps: 16
  batch_size: 8
  n_epochs: 2
  init_log_std: -2.0
run:
  seeds: [0]
  eval_episodes: 3
baseline:
  fraction: 0.5
  fractions: [0.5, 1.0]
  adjustment_grid: [1]
  episodes_per_cell: 2
"""

TWO_ASSET = """\
market:
  mu: [0.124, 0.105]
  sigma: [0.255, 0.209]
  corr:
  - [1.0, 0.81]
  - [0.81, 1.0]
  cash_rate: 0.04
impact:
  eta: 0.0
  gamma: 0.0
env:
  horizon_years: 0.0625
  periods_per_year: 256
  window: 2
  initial_wealth: 1000.0
algo:
  name: ppo
  total_steps: 16
  rollout_steps: 16
  batch_size: 8
  n_epochs: 2
run:
  seeds: [0]
  eval_episodes: 2
qsurface:
  w_min: -1.0
  w_max: 3.0
  steps: 41
"""

REGIME = """\
market:
  regimes:
  - mu: [0.5]
    sigma: [0.1]
    corr: [[1.0]]
    cash_rate: 0.05
  - mu: [-0.5]
    sigma: [0.3]
    corr: [[1.0]]
    cash_rate: 0.01
  transition:
  - [0.95, 0.05]
  - [0.1, 0.9]
impact:
  eta: 0.0
  gamma: 0.0
env:
  horizon_years: 0.09375
  periods_per_year: 256
  window: 2
  initial_wealth: 1000.0
algo:
  name: ppo
  total_steps: 264
  rollout_steps: 24
  batch_size: 8
  n_epochs: 2
  context_policy: true
  init_log_std: -2.0
hmm:
  n_states: 2
  n_init: 2
run:
  seeds: [0]
  eval_episodes: 2
  hmm_fit_episodes: 10
  hmm_eval_episodes: 3
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_solve_outputs_and_manifest(tmp_path, capsys):
    config = write(tmp_path, "tiny.yaml", TINY)
    out = tmp_path / "solve_out"
    assert main(["solve", "--config", str(config), "--out", str(out)]) == 0
    assert "regime 0: cash" in capsys.readouterr().out
    lines = (out / "solve.csv").read_text().splitlines()
    assert lines[0] == "regime,cash,w_0,growth"
    assert len(lines) == 2
    assert not (out / "switching.csv").exists()

    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest) == {"command", "config_format", "config_sha256",
                             "seeds", "versions", "wall_time_seconds"}
    assert manifest["command"] == "solve"
    assert manifest["config_format"] == "yaml/1"
    assert manifest["seeds"] == []
    want_sha = hashlib.sha256(
        load_config(config).dump().encode("utf-8")
    ).hexdigest()
    assert manifest["config_sha256"] == want_sha
    assert set(manifest["versions"]) == {"kellylab", "numpy", "scipy", "python"}


def test_solve_regime_switching_summary(tmp_path, capsys):
    config = write(tmp_path, "regime.yaml", REGIME)
    out = tmp_path / "out"
    assert main(["solve", "--config", str(config), "--out", str(out)]) == 0
    assert "switching growth" in capsys.readouterr().out
    lines = (out / "solve.csv").read_text().splitlines()
    assert len(lines) == 3  # header + one row per regime
    switch = (out / "switching.csv").read_text().splitlines()
    assert switch[0] == "pi_0,pi_1,switching_growth"


def test_simulate_writes_reproducible_paths(tmp_path):
    config = write(tmp_path, "tiny.yaml", TINY)
    first = tmp_path / "a"
    second = tmp_path / "b"
    for out in (first, second):
        rc = main(["simulate", "--config", str(config), "--out", str(out),
                   "--episodes", "2", "--seed", "3"])
        assert rc == 0
    for name in ("path_000.csv", "path_001.csv"):
        assert (first / name).read_bytes() == (second / name).read_bytes()
    lines = (first / "path_000.csv").read_text().splitlines()
    assert lines[0] == "t,asset_0,regime"
    assert len(lines) == 1 + 16 + 1  # header plus periods + 1 price rows
    assert (first / "path_000.csv").read_bytes() != (
        first / "path_001.csv"
    ).read_bytes()


def test_train_outputs_and_determinism(tmp_path):
    config = write(tmp_path, "tiny.yaml", TINY)
    first = tmp_path / "a"
    second = tmp_path / "b"
    for out in (first, second):
        assert main(["train", "--config", str(config), "--out", str(out)]) == 0
    for name in ("checkpoint.npz", "training_log.csv", "updates.csv",
                 "eval.csv"):
        assert (first / "seed0" / name).exists()
        assert (first / "seed0" / name).read_bytes() == (
            second / "seed0" / name
        ).read_bytes()
    summary = (first / "train_summary.csv").read_text().splitlines()
    assert summary[0] == "seed,mean_growth,mad,bankruptcies,n_episodes"
    assert len(summary) == 2
    updates = (first / "seed0" / "updates.csv").read_text().splitlines()
    assert len(updates) == 2  # 16 total steps and a 16-step rollout
    log = (first / "seed0" / "training_log.csv").read_text().splitlines()
    assert len(log) == 2  # one finished episode


def test_evaluate_without_checkpoint_equals_baseline(tmp_path):
    config = write(tmp_path, "tiny.yaml", TINY)
    eval_out = tmp_path / "eval"
    base_out = tmp_path / "base"
    assert main(["evaluate", "--config", str(config), "--out", str(eval_out),
                 "--episodes", "2"]) == 0
    assert main(["baseline", "--config", str(config), "--out", str(base_out),
                 "--episodes", "2"]) == 0
    assert (eval_out / "eval.csv").read_bytes() == (
        base_out / "baseline.csv"
    ).read_bytes()


def test_evaluate_checkpoint_and_episode_override(tmp_path):
    config = write(tmp_path, "tiny.yaml", TINY)
    train_out = tmp_path / "train"
    assert main(["train", "--config", str(config), "--out", str(train_out)]) == 0
    eval_out = tmp_path / "eval"
    rc = main([
        "evaluate", "--config", str(config), "--out", str(eval_out),
        "--checkpoint", str(train_out / "seed0" / "checkpoint.npz"),
        "--episodes", "2",
    ])
    assert rc == 0
    lines = (eval_out / "eval.csv").read_text().splitlines()
    assert lines[0] == "seed,mean_growth,mad,bankruptcies,n_episodes"
    cells = lines[1].split(",")
    assert cells[0] == "0"
    assert cells[4] == "2"


def test_seed_override(tmp_path):
    config = write(tmp_path, "tiny.yaml", TINY)
    out = tmp_path / "out"
    assert main(["baseline", "--config", str(config), "--out", str(out),
                 "--seed", "7", "--episodes", "2"]) == 0
    lines = (out / "baseline.csv").read_text().splitlines()
    assert len(lines) == 2
    assert lines[1].split(",")[0] == "7"


def test_context_train_and_checkpoint_evaluate(tmp_path):
    config = write(tmp_path, "regime.yaml", REGIME)
    train_out = tmp_path / "train"
    assert main(["train", "--config", str(config), "--out", str(train_out)]) == 0
    seed_dir = train_out / "seed0"
    assert (seed_dir / "detector.json").exists()
    meta = json.loads(
        dict(np.load(seed_dir / "checkpoint.npz"))["meta_json"].tobytes()
    )
    assert meta["net"]["kind"] == "context_policy"
    assert meta["extra"]["detector_file"] == "detector.json"
    eval_out = tmp_path / "eval"
    rc = main([
        "evaluate", "--config", str(config), "--out", str(eval_out),
        "--checkpoint", str(seed_dir / "checkpoint.npz"), "--episodes", "2",
    ])
    assert rc == 0


def test_context_train_too_short_for_the_detector_fails_up_front(
        tmp_path, capsys):
    # 9 rollouts of 24 steps finish 9 of the 10 episodes the detector needs
    config = write(tmp_path, "short.yaml",
                   REGIME.replace("total_steps: 264", "total_steps: 216"))
    out = tmp_path / "train"
    assert main(["train", "--config", str(config), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert len(err.splitlines()) == 1
    assert "10 episodes" in err
    assert not out.exists()


def test_train_sweep_checks_every_value_before_the_first_run(tmp_path,
                                                              capsys):
    # 264 steps fit the detector; 216 finish only 9 of its 10 episodes
    config = write(tmp_path, "regime.yaml", REGIME)
    sweep = write(tmp_path, "sweep.yaml",
                  "key: algo.total_steps\nvalues: [264, 216]\n")
    out = tmp_path / "out"
    assert main(["train", "--config", str(config), "--out", str(out),
                 "--sweep", str(sweep)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert len(captured.err.splitlines()) == 1
    assert "10 episodes" in captured.err
    assert captured.out == ""
    assert not out.exists()

    # a value that does not parse fails before the valid one trains
    tiny = write(tmp_path, "tiny.yaml", TINY)
    bad = write(tmp_path, "bad.yaml",
                "key: algo.learning_rate\nvalues: [0.001, -1.0]\n")
    assert main(["train", "--config", str(tiny), "--out", str(out),
                 "--sweep", str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.err == (f"error: {bad}: algo.learning_rate=-1.0: algo: "
                            "learning_rate must be positive\n")
    assert re.search(r":\d+:", captured.err) is None  # no line of hidden text
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "evaluate", "baseline"])
@pytest.mark.parametrize("episodes", ["0", "-1"])
def test_episode_counts_below_one_are_rejected(tmp_path, capsys, command,
                                               episodes):
    config = write(tmp_path, "tiny.yaml", TINY)
    out = tmp_path / "out"
    assert main([command, "--config", str(config), "--out", str(out),
                 "--episodes", episodes]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: --episodes must be >= 1, got {episodes}\n"
    assert captured.out == ""
    assert not out.exists()


def test_evaluate_missing_checkpoint_creates_no_output(tmp_path, capsys):
    config = write(tmp_path, "tiny.yaml", TINY)
    out = tmp_path / "eval"
    assert main(["evaluate", "--config", str(config), "--out", str(out),
                 "--checkpoint", str(tmp_path / "missing.npz")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert len(err.splitlines()) == 1
    assert not out.exists()


def test_unexpected_errors_are_one_line(tmp_path, capsys, monkeypatch):
    def fail(args):
        raise RuntimeError("first line\nsecond line")

    monkeypatch.setattr(cli, "cmd_solve", fail)
    config = write(tmp_path, "tiny.yaml", TINY)
    assert main(["solve", "--config", str(config)]) == 1
    assert capsys.readouterr().err == "error: RuntimeError: first line second line\n"

    def interrupt(args):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "cmd_solve", interrupt)
    with pytest.raises(KeyboardInterrupt):
        main(["solve", "--config", str(config)])


IMPORT_CHECK = """\
import sys
sys.path.insert(0, sys.argv[1])
import kellylab.cli
assert "scipy.linalg" not in sys.modules
import numpy as np
from kellylab import hmm
from kellylab.market import rescale_transition
P = np.array([[0.9, 0.1], [0.2, 0.8]])
assert np.allclose(rescale_transition(P, 1.0, 2.0), P @ P, atol=1e-12)
rng = np.random.default_rng(0)
x = np.concatenate([rng.normal(0.01, 0.01, (60, 2)), rng.normal(-0.01, 0.03, (60, 2))])
model = hmm.fit([x], hmm.HmmFitConfig(n_init=2), rng)
assert hmm.decode(model, x).shape == (120,)
print("ok")
"""


def test_cli_import_defers_scipy_linalg():
    # scipy.linalg takes ~0.3 s to import; only the detector and
    # rescale_transition use it, and they import it on first use
    result = subprocess.run(
        [sys.executable, "-c", IMPORT_CHECK,
         str(Path(__file__).resolve().parent.parent / "src")],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "ok"


def test_qsurface_matches_the_library(tmp_path, capsys):
    config = write(tmp_path, "two.yaml", TWO_ASSET)
    out = tmp_path / "out"
    assert main(["qsurface", "--config", str(config), "--out", str(out)]) == 0
    assert "grid argmax" in capsys.readouterr().out
    lines = (out / "qsurface.csv").read_text().splitlines()
    assert lines[0] == "w_1,w_2,growth"
    assert len(lines) == 1 + 41 * 41

    params = load_config(config).market.regimes[0]
    grid = np.linspace(-1.0, 3.0, 41)
    surface = q_surface(params, grid, grid)
    i, j = np.unravel_index(int(np.argmax(surface)), surface.shape)
    rows = [line.split(",") for line in lines[1:]]
    best = max(rows, key=lambda r: float(r[2]))
    assert float(best[0]) == grid[i]
    assert float(best[1]) == grid[j]
    # the argmax cell sits within one grid step of the analytic optimum
    w_star = optimal_weights(params).stocks
    spacing = grid[1] - grid[0]
    assert abs(grid[i] - w_star[0]) <= spacing
    assert abs(grid[j] - w_star[1]) <= spacing


def test_qsurface_rejects_non_two_asset_markets(tmp_path, capsys):
    config = write(tmp_path, "tiny.yaml", TINY)
    rc = main(["qsurface", "--config", str(config),
               "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "2 assets" in err


def test_hmm_fit_outputs(tmp_path, capsys):
    config = write(tmp_path, "regime.yaml", REGIME)
    out = tmp_path / "out"
    assert main(["hmm-fit", "--config", str(config), "--out", str(out)]) == 0
    assert "mean accuracy" in capsys.readouterr().out
    assert (out / "hmm.json").exists()
    lines = (out / "hmm_eval.csv").read_text().splitlines()
    assert lines[0] == "episode,accuracy"
    assert len(lines) == 1 + 3
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "hmm-fit"


def test_gridsearch_outputs(tmp_path, capsys):
    config = write(tmp_path, "tiny.yaml", TINY)
    out = tmp_path / "out"
    assert main(["gridsearch", "--config", str(config), "--out", str(out)]) == 0
    assert "best cell" in capsys.readouterr().out
    lines = (out / "gridsearch.csv").read_text().splitlines()
    assert lines[0] == "fraction,adjustment_periods,mean_growth,bankruptcies"
    assert len(lines) == 1 + 2  # two fractions, one ramp length


def test_train_sweep(tmp_path):
    config = write(tmp_path, "tiny.yaml", TINY)
    sweep = write(tmp_path, "sweep.yaml",
                  "key: algo.gae_lambda\nvalues: [0.5, 0.9]\n")
    out = tmp_path / "out"
    assert main(["train", "--config", str(config), "--out", str(out),
                 "--sweep", str(sweep)]) == 0
    for value in (0.5, 0.9):
        assert (out / f"algo.gae_lambda={value}" / "seed0"
                / "checkpoint.npz").exists()
    summary = (out / "sweep_summary.csv").read_text().splitlines()
    assert summary[0] == ("algo.gae_lambda,seed,mean_growth,mad,"
                          "bankruptcies,n_episodes")
    assert len(summary) == 3


@pytest.mark.parametrize("key, message", [
    ("algo2.gae_lambda", "no such config block 'algo2'"),
    ("env.horizon_years.x", "'env.horizon_years' is not a mapping"),
])
def test_train_sweep_key_outside_the_config_names_the_sweep_line(
        tmp_path, capsys, key, message):
    config = write(tmp_path, "tiny.yaml", TINY)
    sweep = write(tmp_path, "sweep.yaml", f"values: [0.5]\nkey: {key}\n")
    out = tmp_path / "out"
    assert main(["train", "--config", str(config), "--out", str(out),
                 "--sweep", str(sweep)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {sweep}:2: key: {message}\n"
    assert captured.out == ""
    assert not out.exists()


def test_bad_configs_exit_with_errors(tmp_path, capsys):
    bad = write(tmp_path, "bad.yaml", TINY.replace("  eta: 0.0", "  eta: -1.0"))
    assert main(["solve", "--config", str(bad),
                 "--out", str(tmp_path / "o1")]) == 1
    assert capsys.readouterr().err.startswith("error:")
    missing = tmp_path / "missing.yaml"
    assert main(["solve", "--config", str(missing),
                 "--out", str(tmp_path / "o2")]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_default_output_root(tmp_path, monkeypatch):
    config = write(tmp_path, "tiny.yaml", TINY)
    monkeypatch.setenv("KELLYLAB_OUT_ROOT", str(tmp_path / "root"))
    assert main(["solve", "--config", str(config)]) == 0
    assert (tmp_path / "root" / "runs" / "solve" / "tiny" / "solve.csv").exists()
