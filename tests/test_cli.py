"""Command-line interface: outputs, manifests, overrides, reproducibility."""

import ctypes
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

from kellylab import cli, hmm, training
from kellylab.analytic import optimal_weights, q_surface
from kellylab.cli import main
from kellylab.config import load_config
from kellylab.env import episode_path
from kellylab.market import generate_path
from kellylab.nets import ContextPolicyNet, save_checkpoint
from kellylab.rng import episode_stream

from shipped import CONFIGS

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
    assert set(manifest) == {"blas", "command", "config_format",
                             "config_sha256", "seeds", "versions",
                             "wall_time_seconds"}
    assert manifest["command"] == "solve"
    assert manifest["config_format"] == "yaml/1"
    assert manifest["seeds"] == []
    want_sha = hashlib.sha256(
        load_config(config).dump().encode("utf-8")
    ).hexdigest()
    assert manifest["config_sha256"] == want_sha
    assert set(manifest["versions"]) == {"kellylab", "numpy", "scipy", "python"}


def _loaded_openblas_kernel():
    """The core name of the one mapped OpenBLAS library (numpy's; scipy's,
    if mapped, lacks the 64-bit-integer symbol), read through ctypes on the
    file /proc/self/maps names."""
    maps = Path("/proc/self/maps")
    if not maps.exists():
        pytest.skip("no /proc/self/maps")
    paths = {line.split()[-1] for line in maps.read_text().splitlines()
             if "openblas" in line.split()[-1]}
    symbols = [getattr(ctypes.CDLL(path), "scipy_openblas_get_corename64_",
                       None) for path in sorted(paths)]
    symbols = [symbol for symbol in symbols if symbol is not None]
    if len(symbols) != 1:
        pytest.skip(f"not one mapped OpenBLAS with a core name: {paths}")
    corename = symbols[0]
    corename.argtypes = []
    corename.restype = ctypes.c_char_p
    return corename().decode()


def _solve_manifest(tmp_path):
    config = write(tmp_path, "tiny.yaml", TINY)
    out = tmp_path / "out"
    assert main(["solve", "--config", str(config), "--out", str(out)]) == 0
    return json.loads((out / "manifest.json").read_text())


def test_manifest_records_the_blas_kernel_and_thread_variables(tmp_path):
    blas = _solve_manifest(tmp_path)["blas"]
    assert blas["kernel"] == _loaded_openblas_kernel()
    assert set(blas) == {"kernel", *BLAS_VARS}
    for var in BLAS_VARS:
        assert blas[var] == os.environ.get(var)


def test_manifest_blas_kernel_is_null_without_the_symbol(tmp_path,
                                                         monkeypatch):
    monkeypatch.setattr(cli, "OPENBLAS_CORENAME", "no_such_symbol_")
    assert _solve_manifest(tmp_path)["blas"]["kernel"] is None


TRAIN_RUN = """\
import sys
sys.path.insert(0, sys.argv[1])
from kellylab.cli import main
sys.exit(main(["train", "--config", sys.argv[2], "--out", sys.argv[3]]))
"""


def test_the_recorded_blas_kernel_reproduces_the_run(tmp_path):
    # Bits are reproducible per kernel, and the manifest names the kernel:
    # forcing that name through OPENBLAS_CORETYPE must give the same bits,
    # in the nets' matmuls and the detector's solves alike
    config = write(tmp_path, "regime.yaml", REGIME)
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}

    def run(name, **preset):
        out = tmp_path / name
        result = subprocess.run(
            [sys.executable, "-c", TRAIN_RUN,
             str(Path(__file__).resolve().parent.parent / "src"), str(config),
             str(out)],
            capture_output=True, text=True, timeout=300, env={**env, **preset},
        )
        assert result.returncode == 0, result.stderr
        return out, json.loads((out / "manifest.json").read_text())

    default, manifest = run("default")
    kernel = manifest["blas"]["kernel"]
    if kernel is None:
        pytest.skip("the manifest names no BLAS kernel")
    forced, manifest = run("forced", OPENBLAS_CORETYPE=kernel)
    assert manifest["blas"]["kernel"] == kernel
    for name in ("training_log.csv", "updates.csv", "checkpoint.npz",
                 "eval.csv"):
        digests = [hashlib.sha256((out / "seed0" / name).read_bytes()).digest()
                   for out in (default, forced)]
        assert digests[0] == digests[1], name


def test_manifest_scipy_version_without_the_version_file(tmp_path,
                                                         monkeypatch):
    # _scipy_file finds nothing, so the version comes from importing scipy
    monkeypatch.setattr(cli, "_scipy_file", lambda name: None)
    manifest = _solve_manifest(tmp_path)
    assert manifest["versions"]["scipy"] == scipy.__version__


def test_solve_regime_switching_summary(tmp_path, capsys):
    config = write(tmp_path, "regime.yaml", REGIME)
    out = tmp_path / "out"
    assert main(["solve", "--config", str(config), "--out", str(out)]) == 0
    assert "switching growth" in capsys.readouterr().out
    lines = (out / "solve.csv").read_text().splitlines()
    assert len(lines) == 3  # header + one row per regime
    switch = (out / "switching.csv").read_text().splitlines()
    assert switch[0] == "pi_0,pi_1,switching_growth"


def test_solve_on_a_reducible_chain_creates_no_output(tmp_path, capsys):
    # the per-regime solves succeed, and the stationary distribution fails
    config = write(tmp_path, "regime.yaml", REGIME.replace(
        "  - [0.95, 0.05]\n  - [0.1, 0.9]\n",
        "  - [1.0, 0.0]\n  - [0.0, 1.0]\n  initial_dist: [0.5, 0.5]\n"))
    out = tmp_path / "out"
    assert main(["solve", "--config", str(config), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(
        "error: chain is reducible or periodic")
    assert not out.exists()


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


def test_simulate_writes_each_path_losslessly(tmp_path):
    config = CONFIGS / "regimes3.yaml"  # three assets, three regimes
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(config), "--out", str(out),
                 "--episodes", "2", "--seed", "5"]) == 0
    env = load_config(config).env
    for ep in range(2):
        path = episode_path(env, 5, ep)
        lines = (out / f"path_{ep:03d}.csv").read_text().splitlines()
        assert lines[0] == "t,asset_0,asset_1,asset_2,regime"
        rows = [line.split(",") for line in lines[1:]]
        assert [int(row[0]) for row in rows] == list(range(len(path.prices)))
        prices = np.array([[float(c) for c in row[1:4]] for row in rows])
        assert prices.tobytes() == path.prices.tobytes()
        regimes = np.array([int(row[4]) for row in rows])
        assert regimes.tobytes() == path.regimes.tobytes()


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
    assert updates[0] == ("update,loss,policy_loss,value_loss,entropy,"
                          "clip_fraction,approx_kl,grad_norm,n_minibatches")
    assert len(updates) == 2  # 16 total steps and a 16-step rollout
    log = (first / "seed0" / "training_log.csv").read_text().splitlines()
    assert len(log) == 2  # one finished episode


def test_evaluate_without_checkpoint_equals_baseline(tmp_path, monkeypatch):
    # one command under two names: each writes its own CSV and records its
    # own name under the default runs/<command>/<config-stem>/
    config = write(tmp_path, "tiny.yaml", TINY)
    monkeypatch.setenv("KELLYLAB_OUT_ROOT", str(tmp_path / "root"))
    rows = {}
    for command, name, other in [("evaluate", "eval.csv", "baseline.csv"),
                                 ("baseline", "baseline.csv", "eval.csv")]:
        assert main([command, "--config", str(config), "--episodes", "2"]) == 0
        out = tmp_path / "root" / "runs" / command / "tiny"
        assert not (out / other).exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == command
        rows[command] = (out / name).read_bytes()
    assert rows["evaluate"] == rows["baseline"]
    # baseline takes no checkpoint: argparse rejects the flag
    with pytest.raises(SystemExit) as excinfo:
        main(["baseline", "--config", str(config), "--checkpoint", "x"])
    assert excinfo.value.code == 2


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


@pytest.mark.parametrize("seed", [2**32, -1])
@pytest.mark.parametrize("source", ["run.seeds", "--seed"])
@pytest.mark.parametrize("command", ["baseline", "simulate"])
def test_seeds_outside_32_bits_are_rejected(tmp_path, capsys, command,
                                            source, seed):
    # the random streams key on a seed's low 32 bits: 2**32 would replay
    # seed 0, and -1 seed 2**32 - 1, under another label
    out = tmp_path / "out"
    if source == "run.seeds":
        config = write(tmp_path, "tiny.yaml",
                       TINY.replace("seeds: [0]", f"seeds: [0, {seed}]"))
        line = TINY.splitlines().index("  seeds: [0]") + 1
        argv = [command, "--config", str(config)]
        where = f"{config}:{line}: run.seeds[1]"
    else:
        config = write(tmp_path, "tiny.yaml", TINY)
        argv = [command, "--config", str(config), "--seed", str(seed)]
        where = "--seed"
    assert main(argv + ["--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        f"error: {where}: seed {seed} is outside [0, 2**32)\n")
    assert captured.out == ""
    assert not out.exists()


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


def test_context_train_on_episodes_too_short_for_the_detector_creates_no_output(
        tmp_path, capsys):
    # 16-period episodes, where a two-state detector needs 20 return rows
    config = write(tmp_path, "regime.yaml",
                   REGIME.replace("horizon_years: 0.09375",
                                  "horizon_years: 0.0625"))
    out = tmp_path / "out"
    assert main(["train", "--config", str(config), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        "error: episodes of 16 periods are too short to fit a 2-state regime "
        "detector, which needs 20\n")
    assert captured.out == ""
    assert not out.exists()


def test_a_seed_whose_training_fails_leaves_no_seed_directory(tmp_path, capsys):
    # episodes are long enough, but permanent impact this steep bankrupts
    # each one on its first trade, so the detector has nothing to fit on
    config = write(tmp_path, "regime.yaml",
                   REGIME.replace("gamma: 0.0", "gamma: 100.0"))
    out = tmp_path / "out"
    assert main(["train", "--config", str(config), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        "error: first 10 episodes were all too short to fit the regime "
        "detector\n")
    assert not (out / "seed0").exists()
    assert not out.exists()


@pytest.fixture(scope="module")
def two_seed_run(tmp_path_factory):
    """A two-seed context config and the outputs of its complete train."""
    tmp = tmp_path_factory.mktemp("two_seeds")
    config = write(tmp, "regime.yaml",
                   REGIME.replace("seeds: [0]", "seeds: [0, 1]"))
    out = tmp / "out"
    assert main(["train", "--config", str(config), "--out", str(out)]) == 0
    return config, out


def assert_no_stage_left(root):
    assert not [p for p in root.rglob("*") if p.name.endswith(".partial")]


# (writer, the call of it that fails, the seeds finished before that call) in
# a two-seed context train: each seed writes its detector, checkpoint,
# training log and updates CSV, evaluates, and writes its eval CSV; the run
# then writes its summary CSV and the manifest. evaluate's failure is an
# interrupt.
SEED_FAILURES = [
    ("save_checkpoint", 0, 0), ("save_checkpoint", 1, 1),
    ("write_training_log", 0, 0), ("write_training_log", 1, 1),
    ("hmm.save", 0, 0), ("hmm.save", 1, 1),
    ("_write_csv", 0, 0), ("_write_csv", 1, 0), ("_write_csv", 2, 1),
    ("_write_csv", 3, 1), ("_write_csv", 4, 2),
    ("_write_manifest", 0, 2),
    ("evaluate", 0, 0), ("evaluate", 1, 1),
]


@pytest.mark.parametrize("writer, call, finished", SEED_FAILURES)
def test_a_failed_train_leaves_each_seed_whole_or_absent(
        tmp_path, capsys, monkeypatch, two_seed_run, writer, call, finished):
    config, complete = two_seed_run
    module, name = (hmm, "save") if writer == "hmm.save" else (cli, writer)
    real = getattr(module, name)
    calls = []

    def flaky(*args, **kwargs):
        calls.append(args)
        if len(calls) == call + 1:
            raise KeyboardInterrupt if name == "evaluate" else OSError("disk full")
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, flaky)
    out = tmp_path / "out"
    argv = ["train", "--config", str(config), "--out", str(out)]
    if name == "evaluate":
        with pytest.raises(KeyboardInterrupt):
            main(argv)
    else:
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: disk full\n"
    assert len(calls) == call + 1
    assert_no_stage_left(tmp_path)
    if finished == 0:
        assert not out.exists()
        return
    # the finished seeds, byte for byte, and nothing else
    seeds = [f"seed{seed}" for seed in range(finished)]
    assert sorted(p.name for p in out.iterdir()) == seeds
    for seed in seeds:
        files = sorted(p.name for p in (complete / seed).iterdir())
        assert sorted(p.name for p in (out / seed).iterdir()) == files
        for file in files:
            assert (out / seed / file).read_bytes() == (
                complete / seed / file).read_bytes()


def test_a_failed_hmm_fit_leaves_no_output(tmp_path, capsys, monkeypatch):
    def fail(*args):
        raise OSError("disk full")

    monkeypatch.setattr(cli, "_write_csv", fail)  # after hmm.json
    config = write(tmp_path, "regime.yaml", REGIME)
    out = tmp_path / "out"
    assert main(["hmm-fit", "--config", str(config), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: disk full\n"
    assert not out.exists()
    assert_no_stage_left(tmp_path)


def test_an_interrupted_simulate_leaves_no_output(tmp_path, monkeypatch):
    real = cli.episode_path
    paths = []

    def interrupt_second(*args):
        paths.append(args)
        if len(paths) == 2:
            raise KeyboardInterrupt
        return real(*args)

    monkeypatch.setattr(cli, "episode_path", interrupt_second)
    config = write(tmp_path, "tiny.yaml", TINY)
    out = tmp_path / "out"
    with pytest.raises(KeyboardInterrupt):
        main(["simulate", "--config", str(config), "--out", str(out),
              "--episodes", "3"])
    assert not out.exists()
    assert_no_stage_left(tmp_path)


def test_an_existing_out_keeps_other_files_and_gets_new_outputs(tmp_path):
    config = write(tmp_path, "tiny.yaml", TINY)
    fresh = tmp_path / "fresh"
    assert main(["train", "--config", str(config), "--out", str(fresh)]) == 0
    out = tmp_path / "out"
    (out / "seed0").mkdir(parents=True)
    (out / "notes.txt").write_text("mine\n")
    (out / "seed0" / "notes.txt").write_text("mine too\n")
    for name in ("train_summary.csv", "seed0/eval.csv"):
        (out / name).write_text("stale\n")
    assert main(["train", "--config", str(config), "--out", str(out)]) == 0
    assert (out / "notes.txt").read_text() == "mine\n"
    assert (out / "seed0" / "notes.txt").read_text() == "mine too\n"
    for path in fresh.rglob("*.csv"):
        assert (out / path.relative_to(fresh)).read_bytes() == path.read_bytes()
    assert sorted(p.name for p in out.iterdir()) == [
        "manifest.json", "notes.txt", "seed0", "train_summary.csv"]
    assert_no_stage_left(tmp_path)


def test_a_failed_rerun_leaves_the_previous_outputs_as_they_were(
        tmp_path, monkeypatch):
    config = write(tmp_path, "tiny.yaml", TINY)
    out = tmp_path / "out"
    assert main(["train", "--config", str(config), "--out", str(out)]) == 0
    before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
    longer = write(tmp_path, "longer.yaml",
                   TINY.replace("total_steps: 16", "total_steps: 32"))

    def fail(path, header, rows):
        if path.name == "eval.csv":  # after the checkpoint and both logs
            raise OSError("disk full")

    monkeypatch.setattr(cli, "_write_csv", fail)
    assert main(["train", "--config", str(longer), "--out", str(out)]) == 1
    assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before
    assert_no_stage_left(tmp_path)


def test_out_may_be_the_working_directory(tmp_path, capsys, monkeypatch):
    config = write(tmp_path, "tiny.yaml", TINY)
    here = tmp_path / "here"
    here.mkdir()
    monkeypatch.chdir(here)
    for _ in range(2):  # into an empty directory, then over its own outputs
        assert main(["simulate", "--config", str(config), "--out", "."]) == 0
        assert capsys.readouterr().out == "wrote 1 path file(s) to .\n"
        assert sorted(p.name for p in here.iterdir()) == [
            "manifest.json", "path_000.csv"]
    assert_no_stage_left(tmp_path)


def test_an_out_that_is_a_file_fails_before_the_command_runs(tmp_path,
                                                             capsys):
    config = write(tmp_path, "tiny.yaml", TINY)
    taken = write(tmp_path, "taken", "mine\n")
    for out in (taken, taken / "sub"):
        assert main(["solve", "--config", str(config), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: --out {out}: {taken.resolve()} is not a directory\n")
    assert taken.read_text() == "mine\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["taken", "tiny.yaml"]


def test_a_repeated_seed_is_rejected(tmp_path, capsys):
    config = write(tmp_path, "tiny.yaml",
                   TINY.replace("seeds: [0]", "seeds: [0, 0]"))
    line = TINY.splitlines().index("  seeds: [0]") + 1
    out = tmp_path / "out"
    assert main(["train", "--config", str(config), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: {config}:{line}: run.seeds[1]: seed 0 is listed twice\n")
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


@pytest.mark.parametrize("damage", ["truncated", "bit-flipped"])
def test_evaluate_corrupt_checkpoint_names_the_file(tmp_path, capsys, damage):
    config = write(tmp_path, "tiny.yaml", TINY)
    train_out = tmp_path / "train"
    assert main(["train", "--config", str(config), "--out", str(train_out)]) == 0
    checkpoint = train_out / "seed0" / "checkpoint.npz"
    data = bytearray(checkpoint.read_bytes())
    if damage == "truncated":
        data = data[: len(data) // 2]
    else:
        # inside a stored array, whose CRC-32 then fails
        data[len(data) // 2] ^= 0x10
    checkpoint.write_bytes(bytes(data))
    capsys.readouterr()
    out = tmp_path / "eval"
    assert main(["evaluate", "--config", str(config), "--out", str(out),
                 "--checkpoint", str(checkpoint)]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: cannot read checkpoint {checkpoint}: ")
    assert not out.exists()


def evaluate_with_header_field(tmp_path, capsys, field, value):
    """Train TINY, set one net header field of its checkpoint, evaluate it;
    assert one `error:` line naming the file and the field, exit 1, and no
    output directory."""
    config = write(tmp_path, "tiny.yaml", TINY)
    train_out = tmp_path / "train"
    assert main(["train", "--config", str(config), "--out", str(train_out)]) == 0
    checkpoint = train_out / "seed0" / "checkpoint.npz"
    arrays = dict(np.load(checkpoint))
    meta = json.loads(arrays["meta_json"].tobytes())
    meta["net"][field] = value
    arrays["meta_json"] = np.frombuffer(json.dumps(meta).encode("utf-8"),
                                        dtype=np.uint8)
    np.savez(checkpoint, **arrays)
    capsys.readouterr()
    out = tmp_path / "eval"
    assert main(["evaluate", "--config", str(config), "--out", str(out),
                 "--checkpoint", str(checkpoint)]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: cannot read checkpoint {checkpoint}: ")
    assert f"net field {field!r}" in err
    assert not out.exists()


def train_tiny(tmp_path, text):
    config = write(tmp_path, "train.yaml", text)
    train_out = tmp_path / "train"
    assert main(["train", "--config", str(config), "--out", str(train_out)]) == 0
    return train_out / "seed0"


@pytest.mark.parametrize("field", ["obs_dim", "action_dim",
                                   "detector n_states", "detector n_features"])
def test_evaluate_checkpoint_that_does_not_fit_the_config_fails_cleanly(
        tmp_path, capsys, field):
    if field == "obs_dim":
        # 1 asset, window 2: 4 inputs; the two-asset config makes 7
        seed_dir = train_tiny(tmp_path, TINY)
        config = write(tmp_path, "eval.yaml", TWO_ASSET)
        expected = "obs_dim is 4, the config needs 7"
    elif field == "action_dim":
        # 1 asset, window 5: 7 inputs like two assets at window 2
        seed_dir = train_tiny(tmp_path,
                              TINY.replace("window: 2", "window: 5"))
        config = write(tmp_path, "eval.yaml", TWO_ASSET)
        expected = "action_dim is 1, the config needs 2"
    else:
        seed_dir = train_tiny(tmp_path, REGIME)
        config = write(tmp_path, "eval.yaml", REGIME)
        n_states, n_features = (3, 1) if field == "detector n_states" else (2, 2)
        hmm.save(hmm.GaussianHmmModel(
            means=np.zeros((n_states, n_features)),
            covariances=np.tile(np.eye(n_features), (n_states, 1, 1)),
            transition=np.full((n_states, n_states), 1.0 / n_states),
            initial=np.full(n_states, 1.0 / n_states),
        ), seed_dir / "detector.json")
        expected = (f"detector n_states is 3, the config needs 2"
                    if n_states == 3 else
                    "detector n_features is 2, the config needs 1")
    capsys.readouterr()
    checkpoint = seed_dir / "checkpoint.npz"
    out = tmp_path / "eval"
    assert main(["evaluate", "--config", str(config), "--out", str(out),
                 "--checkpoint", str(checkpoint), "--episodes", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.err == (f"error: checkpoint {checkpoint} does not fit the "
                            f"config: {expected}\n")
    assert captured.out == ""
    assert not out.exists()


def test_evaluate_checkpoint_with_empty_hidden_layers_fails_cleanly(
        tmp_path, capsys):
    evaluate_with_header_field(tmp_path, capsys, "hidden", [])


@pytest.mark.parametrize("field", ["obs_dim", "action_dim", "init_log_std"])
def test_evaluate_checkpoint_with_null_scalar_fails_cleanly(
        tmp_path, capsys, field):
    evaluate_with_header_field(tmp_path, capsys, field, None)


@pytest.mark.parametrize("header, expected", [
    ([1, 2], "header must be a JSON object, not list"),
    ({"format_version": 1, "net": [1]},
     "header field 'net' must be a JSON object, not list"),
    ({"format_version": 1}, "header field 'net' is missing"),
    ({"format_version": 1, "net": {"kind": "policy", "action_dim": 1}},
     "net field 'obs_dim' is missing"),
    (lambda meta: {**meta, "extra": [1]},
     "header field 'extra' must be a JSON object, not list"),
    (lambda meta: {**meta, "extra": {**meta["extra"], "detector_file": 1}},
     "a context policy's header field 'extra.detector_file' must name its "
     "detector file, got 1"),
], ids=["list", "net-list", "net-missing", "obs-dim-missing", "extra-list",
        "detector-file-int"])
def test_evaluate_checkpoint_with_a_malformed_header_fails_cleanly(
        tmp_path, capsys, context_run, header, expected):
    # a callable header edits the trained context checkpoint's own
    if callable(header):
        seed_dir = tmp_path / "seed0"
        shutil.copytree(context_run, seed_dir)
        text = REGIME
    else:
        seed_dir = train_tiny(tmp_path, TINY)
        text = TINY
    checkpoint = seed_dir / "checkpoint.npz"
    arrays = dict(np.load(checkpoint))
    if callable(header):
        header = header(json.loads(arrays["meta_json"].tobytes()))
    arrays["meta_json"] = np.frombuffer(json.dumps(header).encode("utf-8"),
                                        dtype=np.uint8)
    np.savez(checkpoint, **arrays)
    config = write(tmp_path, "eval.yaml", text)
    capsys.readouterr()
    out = tmp_path / "eval"
    assert main(["evaluate", "--config", str(config), "--out", str(out),
                 "--checkpoint", str(checkpoint)]) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        f"error: cannot read checkpoint {checkpoint}: {expected}\n")
    assert captured.out == ""
    assert not out.exists()


@pytest.fixture(scope="module")
def context_run(tmp_path_factory):
    """One trained REGIME seed directory: a context checkpoint and its
    detector.json."""
    root = tmp_path_factory.mktemp("context")
    config = write(root, "regime.yaml", REGIME)
    assert main(["train", "--config", str(config), "--out",
                 str(root / "train")]) == 0
    return root / "train" / "seed0"


def drop_means(payload):
    del payload["means"]


def null_means(payload):
    payload["means"] = None


def version_2(payload):
    payload["format_version"] = 2


@pytest.mark.parametrize("corrupt, expected", [
    (drop_means, "field 'means' is missing"),
    (null_means, "field 'means' must be a 2-D array of finite numbers, got null"),
    (version_2, "unsupported model file version 2 in field 'format_version'"),
    (None, ""),  # the file cut off mid-way: the JSON decoder's message
], ids=["missing-means", "null-means", "version-2", "cut-off"])
def test_evaluate_checkpoint_with_corrupt_detector_fails_cleanly(
        tmp_path, capsys, context_run, corrupt, expected):
    seed_dir = tmp_path / "seed0"
    shutil.copytree(context_run, seed_dir)
    detector = seed_dir / "detector.json"
    text = detector.read_text()
    if corrupt is None:
        detector.write_text(text[: len(text) // 2])
    else:
        payload = json.loads(text)
        corrupt(payload)
        detector.write_text(json.dumps(payload))
    config = write(tmp_path, "regime.yaml", REGIME)
    capsys.readouterr()
    out = tmp_path / "eval"
    assert main(["evaluate", "--config", str(config), "--out", str(out),
                 "--checkpoint", str(seed_dir / "checkpoint.npz"),
                 "--episodes", "2"]) == 1
    captured = capsys.readouterr()
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith(
        f"error: cannot read detector file {detector}: {expected}")
    assert captured.out == ""
    assert not out.exists()


def test_evaluate_context_checkpoint_under_window_1_fails_cleanly(
        tmp_path, capsys, context_run):
    # one asset at window 1 makes 3 inputs: a context net of obs_dim 3
    # beside the trained detector fits every width, but its detector has no
    # return row to label
    seed_dir = tmp_path / "seed0"
    shutil.copytree(context_run, seed_dir)
    checkpoint = seed_dir / "checkpoint.npz"
    save_checkpoint(ContextPolicyNet(3, 2, 1, np.random.default_rng(0)),
                    checkpoint, extra_meta={"detector_file": "detector.json"})
    config = write(tmp_path, "regime.yaml",
                   REGIME.replace("window: 2", "window: 1"))
    out = tmp_path / "eval"
    assert main(["evaluate", "--config", str(config), "--out", str(out),
                 "--checkpoint", str(checkpoint), "--episodes", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        f"error: checkpoint {checkpoint} does not fit the config: context "
        "policies need window >= 2 (at least one return row), the config has "
        "window 1\n")
    assert captured.out == ""
    assert not out.exists()


def test_unexpected_errors_are_one_line(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("KELLYLAB_OUT_ROOT", str(tmp_path / "root"))

    def fail(args, exp, out):
        raise RuntimeError("first line\nsecond line")

    monkeypatch.setattr(cli, "cmd_solve", fail)
    config = write(tmp_path, "tiny.yaml", TINY)
    assert main(["solve", "--config", str(config)]) == 1
    assert capsys.readouterr().err == "error: RuntimeError: first line second line\n"

    def interrupt(args, exp, out):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "cmd_solve", interrupt)
    with pytest.raises(KeyboardInterrupt):
        main(["solve", "--config", str(config)])
    assert sorted(p.name for p in tmp_path.iterdir()) == ["tiny.yaml"]


RUN_MAIN = """\
import sys
sys.path.insert(0, sys.argv[1])
from kellylab.cli import main
sys.exit(main(sys.argv[2:]))
"""


IMPORT_CHECK = """\
import sys
sys.path.insert(0, sys.argv[1])
import kellylab.cli
assert "scipy.linalg" not in sys.modules
import numpy as np
from kellylab import hmm
rng = np.random.default_rng(0)
x = np.concatenate([rng.normal(0.01, 0.01, (60, 2)), rng.normal(-0.01, 0.03, (60, 2))])
model = hmm.fit([x], hmm.HmmFitConfig(n_init=2), rng)
assert hmm.decode(model, x).shape == (120,)
prices = np.exp(np.cumsum(x, axis=0))
windows = np.stack([prices[:60], prices[1:61]])
labels = hmm.SlidingLabels(model)
assert hmm.predict_current(labels, 0, np.arange(2), windows).shape == (2,)
assert hmm.predict_current(labels, 1, np.arange(1), windows[1:]).shape == (1,)
assert "scipy.linalg" not in sys.modules
from kellylab.market import rescale_transition
P = np.array([[0.9, 0.1], [0.2, 0.8]])
assert np.allclose(rescale_transition(P, 1.0, 2.0), P @ P, atol=1e-12)
assert "scipy.linalg" in sys.modules
print("ok")
"""


def test_cli_import_defers_scipy_linalg():
    # scipy.linalg takes ~0.2 s and ~17 MB to import. The detector solves in
    # the OpenBLAS numpy bundles, so fitting, decoding and labelling leave it
    # unimported; rescale_transition, its one user, imports it on first use
    result = subprocess.run(
        [sys.executable, "-c", IMPORT_CHECK,
         str(Path(__file__).resolve().parent.parent / "src")],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "ok"


ONE_OPENBLAS_CHECK = """\
import json
import sys
sys.path.insert(0, sys.argv[1])
from kellylab.cli import main
assert main(["train", "--config", sys.argv[2], "--out", sys.argv[3]]) == 0
files = {line.split()[-1] for line in open("/proc/self/maps")}
print(json.dumps([sorted(f for f in files if "openblas" in f),
                  "scipy.linalg._flapack" in sys.modules]))
"""


def test_a_context_train_maps_one_openblas(tmp_path):
    # The detector's solves run in numpy's OpenBLAS, so a context run maps
    # no second build (scipy's, +2.6 MB resident) and no scipy LAPACK module
    if not Path("/proc/self/maps").exists():
        pytest.skip("no /proc/self/maps")
    config = write(tmp_path, "regime.yaml", REGIME)
    result = subprocess.run(
        [sys.executable, "-c", ONE_OPENBLAS_CHECK,
         str(Path(__file__).resolve().parent.parent / "src"), str(config),
         str(tmp_path / "out")],
        capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    libraries, flapack = json.loads(result.stdout.splitlines()[-1])
    assert len(libraries) == 1, libraries
    assert not flapack
    assert json.loads((tmp_path / "out" / "manifest.json").read_text())[
        "blas"]["kernel"] == _loaded_openblas_kernel()


FIXED_COST_CHECK = """\
import gc
import sys
sys.path.insert(0, sys.argv[1])
import kellylab.cli
assert "scipy" not in sys.modules
frozen = gc.get_freeze_count()
assert frozen > 0
for command in ("solve", "gridsearch"):
    out = sys.argv[3] + "/" + command
    assert kellylab.cli.main([command, "--config", sys.argv[2],
                              "--out", out]) == 0
assert "scipy" not in sys.modules
assert gc.get_freeze_count() == frozen
print("ok")
"""


def test_cli_never_imports_scipy_and_freezes_once_at_import(tmp_path):
    # scipy costs ~9 ms to import, and only the manifest's version string
    # needs it, which is read from scipy/version.py instead. The import-time
    # objects are frozen once, so that exit skips tearing them down; main()
    # freezes nothing more
    config = write(tmp_path, "tiny.yaml", TINY)
    result = subprocess.run(
        [sys.executable, "-c", FIXED_COST_CHECK,
         str(Path(__file__).resolve().parent.parent / "src"), str(config),
         str(tmp_path)],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "ok"
    manifest = json.loads((tmp_path / "gridsearch" / "manifest.json").read_text())
    assert manifest["versions"]["scipy"] == scipy.__version__


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_CHECK = f"""\
import os
import sys
sys.path.insert(0, sys.argv[1])
import kellylab.cli
tasks = "/proc/self/task"
print(len(os.listdir(tasks)) if os.path.isdir(tasks) else 1,
      *(os.environ[v] for v in {BLAS_VARS!r}))
"""


def test_cli_loads_numpy_with_one_blas_thread_unless_told_otherwise():
    def run(**preset):
        env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
        result = subprocess.run(
            [sys.executable, "-c", BLAS_CHECK,
             str(Path(__file__).resolve().parent.parent / "src")],
            capture_output=True, text=True, timeout=120,
            env={**env, **preset},
        )
        assert result.returncode == 0, result.stderr
        return result.stdout.split()

    # OpenBLAS starts its worker threads when numpy loads, so one thread in
    # the process means the variables were set first
    assert run() == ["1", "1", "1", "1"]
    assert run(OPENBLAS_NUM_THREADS="2")[1:] == ["2", "1", "1"]


NUMPY_FIRST_CHECK = """\
import sys
import numpy
import scipy.linalg
sys.path.insert(0, sys.argv[1])
from kellylab import hmm
get_threads = hmm.openblas_function("scipy_openblas_get_num_threads64_")
print(None if get_threads is None else get_threads())
"""


@pytest.mark.parametrize("preset, threads", [
    ({}, "1"), ({"OPENBLAS_NUM_THREADS": "2"}, "2")], ids=["unset", "set-2"])
def test_kellylab_imported_after_numpy_sets_its_blas_to_one_thread(preset,
                                                                   threads):
    # Loaded first, numpy's OpenBLAS starts a thread per core, and the
    # variables come too late; the import then sets the library to one
    # thread, unless one of the variables was set
    if len(os.sched_getaffinity(0)) < int(threads):
        pytest.skip(f"fewer than {threads} cores to run threads on")
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    result = subprocess.run(
        [sys.executable, "-c", NUMPY_FIRST_CHECK,
         str(Path(__file__).resolve().parent.parent / "src")],
        capture_output=True, text=True, timeout=120, env={**env, **preset},
    )
    assert result.returncode == 0, result.stderr
    if result.stdout.split() == ["None"]:
        pytest.skip("numpy bundles no OpenBLAS with a thread count")
    assert result.stdout.split() == [threads]


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
    w_star = optimal_weights(params)
    spacing = grid[1] - grid[0]
    assert abs(grid[i] - w_star[0]) <= spacing
    assert abs(grid[j] - w_star[1]) <= spacing


def test_qsurface_rejects_non_two_asset_markets(tmp_path, capsys):
    config = write(tmp_path, "tiny.yaml", TINY)
    out = tmp_path / "out"
    rc = main(["qsurface", "--config", str(config), "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "2 assets" in err
    assert not out.exists()


def test_hmm_fit_outputs(tmp_path, capsys):
    config = write(tmp_path, "regime.yaml", REGIME)
    out = tmp_path / "out"
    assert main(["hmm-fit", "--config", str(config), "--out", str(out)]) == 0
    assert "mean accuracy" in capsys.readouterr().out
    assert list(json.loads((out / "hmm.json").read_text())) == [
        "format_version", "n_states", "n_features", "means", "covariances",
        "transition", "initial", "fit_history"]
    lines = (out / "hmm_eval.csv").read_text().splitlines()
    assert lines[0] == "episode,accuracy"
    assert len(lines) == 1 + 3
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "hmm-fit"


def test_hmm_fit_on_episodes_too_short_for_the_fit_creates_no_output(
        tmp_path, capsys):
    # 16-row episodes, where a two-state fit needs 20 rows a sequence
    config = write(tmp_path, "regime.yaml",
                   REGIME.replace("horizon_years: 0.09375",
                                  "horizon_years: 0.0625"))
    out = tmp_path / "out"
    assert main(["hmm-fit", "--config", str(config), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        "error: sequence 0 has 16 rows; need >= 20 for 2 states\n")
    assert not out.exists()


def test_hmm_fit_scores_equal_per_path_decodes(tmp_path):
    # hmm-fit decodes its held-out paths as one stack; decoding each path on
    # its own must give the same paths and so the same accuracy bytes
    config = write(tmp_path, "regime.yaml", REGIME)
    out = tmp_path / "out"
    assert main(["hmm-fit", "--config", str(config), "--out", str(out)]) == 0
    exp = load_config(config)
    model = hmm.load(out / "hmm.json")
    cfg = exp.env
    paths = [
        generate_path(cfg.market, cfg.n_periods, cfg.dt, episode_stream(0, ep),
                      warmup=cfg.window - 1)
        for ep in range(10, 13)
    ]
    stacked = hmm.decode(model, np.stack([p.log_returns() for p in paths]))
    decodes = [hmm.decode(model, p.log_returns()) for p in paths]
    assert np.array_equal(stacked, np.stack(decodes))
    truths = [p.regimes[:-1] for p in paths]
    perm = hmm.best_permutation(np.concatenate(decodes),
                                np.concatenate(truths))
    rows = [f"{ep},{float(np.mean(perm[d] == t))!r}"
            for ep, d, t in zip(range(10, 13), decodes, truths)]
    lines = (out / "hmm_eval.csv").read_text().splitlines()
    assert lines == ["episode,accuracy"] + rows


def test_gridsearch_outputs(tmp_path, capsys):
    config = write(tmp_path, "tiny.yaml", TINY)
    out = tmp_path / "out"
    assert main(["gridsearch", "--config", str(config), "--out", str(out)]) == 0
    assert "best cell" in capsys.readouterr().out
    lines = (out / "gridsearch.csv").read_text().splitlines()
    assert lines[0] == "fraction,adjustment_periods,mean_growth,bankruptcies"
    assert len(lines) == 1 + 2  # two fractions, one ramp length


def test_every_csv_goes_through_the_one_writer(tmp_path, monkeypatch):
    # the writer under both of its names, as perfbench/probe.py wraps it
    written = []
    for module, name in ((training, "write_csv"), (cli, "_write_csv")):
        def wrapper(path, header, rows, real=getattr(module, name)):
            written.append(Path(path))
            return real(path, header, rows)

        monkeypatch.setattr(module, name, wrapper)
    config = write(tmp_path, "tiny.yaml", TINY)
    for command in ("train", "gridsearch"):
        out = tmp_path / command
        assert main([command, "--config", str(config), "--out", str(out)]) == 0
    # a command writes into its stage directory, .<out name>.<pid>.partial,
    # which then becomes its --out
    stages = [next(p for p in path.parents if p.name.endswith(".partial"))
              for path in written]
    through_writer = {(stage.name.split(".")[1], str(path.relative_to(stage)))
                      for path, stage in zip(written, stages)}
    on_disk = {(command, str(path.relative_to(tmp_path / command)))
               for command in ("train", "gridsearch")
               for path in (tmp_path / command).rglob("*.csv")}
    assert on_disk == {("train", "train_summary.csv"),
                       ("train", "seed0/training_log.csv"),
                       ("train", "seed0/updates.csv"),
                       ("train", "seed0/eval.csv"),
                       ("gridsearch", "gridsearch.csv")}
    assert through_writer == on_disk


def test_gridsearch_where_every_cell_goes_bankrupt_creates_no_output(
        tmp_path, capsys):
    # with temporary impact this steep every cell of the grid goes bankrupt
    # in every episode
    config = write(tmp_path, "tiny.yaml", TINY.replace("eta: 0.0", "eta: 1.0"))
    out = tmp_path / "out"
    assert main(["gridsearch", "--config", str(config), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        "error: every grid cell went bankrupt on every episode\n")
    assert captured.out == ""
    assert not out.exists()


def test_a_failing_command_prints_its_error_line_and_no_numpy_warning(
        tmp_path):
    # with 20 episodes a cell, trade_cost overflows on the way to bankruptcy;
    # run as a process, so that no warning filter of the test runner hides
    # a warning printed ahead of the error line
    config = write(tmp_path, "tiny.yaml",
                   TINY.replace("eta: 0.0", "eta: 1.0")
                   .replace("episodes_per_cell: 2", "episodes_per_cell: 20"))
    out = tmp_path / "out"
    result = subprocess.run(
        [sys.executable, "-c", RUN_MAIN,
         str(Path(__file__).resolve().parent.parent / "src"),
         "gridsearch", "--config", str(config), "--out", str(out)],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 1
    assert result.stderr == (
        "error: every grid cell went bankrupt on every episode\n")
    assert not out.exists()


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


def test_train_sweep_rejects_a_repeated_value(tmp_path, capsys):
    config = write(tmp_path, "tiny.yaml", TINY)
    sweep = write(tmp_path, "sweep.yaml",
                  "key: algo.gae_lambda\nvalues: [0.5, 0.5]\n")
    out = tmp_path / "out"
    assert main(["train", "--config", str(config), "--out", str(out),
                 "--sweep", str(sweep)]) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        f"error: {sweep}:2: values[1]: value 0.5 is listed twice\n")
    assert captured.out == ""
    assert not out.exists()


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


# each command, the config it runs on, and the seeds it uses of run.seeds
# [4, 2]: the first one, all of them, or none
COMMANDS = [
    ("simulate", TINY, [4]),
    ("solve", TINY, []),
    ("train", TINY, [4, 2]),
    ("evaluate", TINY, [4, 2]),
    ("baseline", TINY, [4, 2]),
    ("qsurface", TWO_ASSET, []),
    ("hmm-fit", REGIME, [4]),
    ("gridsearch", TINY, [4]),
]


def test_every_subcommand_is_tested_for_its_manifest():
    usage = cli.build_parser().format_usage()  # "... {simulate,solve,...} ..."
    commands = re.search(r"\{(.*?)\}", usage).group(1).split(",")
    assert sorted(commands) == sorted(command for command, _, _ in COMMANDS)


@pytest.mark.parametrize("command, text, seeds", COMMANDS,
                         ids=[command for command, _, _ in COMMANDS])
def test_every_subcommand_writes_its_manifest(tmp_path, monkeypatch, command,
                                              text, seeds):
    config = write(tmp_path, "small.yaml",
                   text.replace("seeds: [0]", "seeds: [4, 2]"))
    monkeypatch.setenv("KELLYLAB_OUT_ROOT", str(tmp_path / "root"))
    assert main([command, "--config", str(config)]) == 0
    out = tmp_path / "root" / "runs" / command / "small"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == command
    assert manifest["seeds"] == seeds
    assert manifest["config_sha256"] == hashlib.sha256(
        load_config(config).dump().encode("utf-8")).hexdigest()
    assert manifest["versions"]["scipy"] == scipy.__version__


def test_default_output_root(tmp_path, monkeypatch):
    config = write(tmp_path, "tiny.yaml", TINY)
    monkeypatch.setenv("KELLYLAB_OUT_ROOT", str(tmp_path / "root"))
    assert main(["solve", "--config", str(config)]) == 0
    assert (tmp_path / "root" / "runs" / "solve" / "tiny" / "solve.csv").exists()
