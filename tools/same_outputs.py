#!/usr/bin/env python3
"""Check that two kellylab checkouts write the same outputs.

    python3 tools/same_outputs.py PARENT CHANGE [--work DIR]

Runs a fixed set of small commands in each checkout (its src/ on
PYTHONPATH): every subcommand, a sweep, checkpoint evaluation of both net
kinds, evaluations that fill a 64-lane wave and then part of one, context
runs with 1, 2 and 3 detector states and a two-state one at window 2 (one
return row a detector window) whose rollouts end mid-episode, unclipped PPO
with rollouts that end mid-episode, a training run whose log has bankrupt
rows and undefined (nan) diagnostics, and grid searches with bankrupt cells
and with tied cells.
Each side runs in its own directory with the same config files and relative
--out paths, so stdout can be compared too. Then every output file of the
two sides is compared byte for byte, except manifest.json, which is
compared without wall_time_seconds.
Prints each difference and exits 1 if there is any. The summary line also
gives each side's source size, the summed lines of src/kellylab/*.py.

The configs are configs/*.yaml cut to a few short episodes; both sides
together take under 15 s on a 2-vCPU Xeon.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import yaml

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# quarter-year episodes, two seeds, four evaluation episodes
SHORT = {"env.horizon_years": 0.25, "run.seeds": [0, 1],
         "run.eval_episodes": 4, "run.hmm_fit_episodes": 4,
         "run.hmm_eval_episodes": 3, "hmm.n_init": 2, "hmm.max_iter": 20}
TRAIN = {"algo.total_steps": 256, "algo.rollout_steps": 128, "algo.n_epochs": 2}
# a context run fits its detector after 10 episodes (640 steps here)
CONTEXT = {"algo.total_steps": 768, "algo.rollout_steps": 128,
           "algo.n_epochs": 2}
# 96-step rollouts on 64-period episodes: two of three end mid-episode
MID_EPISODE = {"algo.rollout_steps": 96}
NOCLIP = {**MID_EPISODE, "algo.total_steps": 288, "algo.n_epochs": 2,
          "algo.clipping_enabled": False}
GRID = {"baseline.fractions": [0.5, 1.0], "baseline.adjustment_grid": [1, 4],
        "baseline.episodes_per_cell": 2}


def single_market(mu, sigma, cash_rate):
    return {"market.regimes": [{"mu": [mu], "sigma": [sigma], "corr": [[1.0]],
                                "cash_rate": cash_rate}]}


# a wide policy on a volatile asset: most episodes go bankrupt, and rows
# before the first update have nan diagnostics
BANKRUPT = {**single_market(0.12, 1.0, 0.04), "algo.init_log_std": 2.0}
# the default 70-cell grid on a frictionless market at window 2; at w* = 64
# (levered) high fractions go bankrupt, at w* = 0 (tie) every cell ties
DEFAULT_GRID = {"impact.eta": 0.0, "impact.gamma": 0.0, "env.window": 2,
                "baseline.episodes_per_cell": 3}

# name -> (base config, overrides); one YAML file each, shared by both sides
CONFIG_SET = {
    "etf3": ("etf3", {**SHORT, **TRAIN}),
    "a2c": ("single_asset", {**SHORT, **TRAIN, "algo.name": "a2c"}),
    "regimes3": ("regimes3", {**SHORT, **GRID}),
    "noclip": ("etf3", {**SHORT, **NOCLIP}),
    "ctx1": ("regimes3", {**SHORT, **CONTEXT, "hmm.n_states": 1}),
    "ctx2": ("regimes3", {**SHORT, **CONTEXT, "hmm.n_states": 2}),
    "ctx3": ("regimes3", {**SHORT, **CONTEXT, "hmm.n_states": 3}),
    "ctx2w2": ("regimes3", {**SHORT, **CONTEXT, **MID_EPISODE,
                            "hmm.n_states": 2, "env.window": 2}),
    "two_asset": ("two_asset", {**SHORT, "qsurface.steps": 11}),
    "bankrupt": ("single_asset", {**SHORT, **TRAIN, **BANKRUPT}),
    "levered": ("single_asset", {**SHORT, **DEFAULT_GRID,
                                 **single_market(4.0, 0.25, 0.0)}),
    "tie": ("single_asset", {**SHORT, **DEFAULT_GRID,
                             **single_market(0.05, 0.2, 0.05)}),
}

# (case, config, arguments after the subcommand's --config and --out); a
# case may read an earlier case's outputs through its relative --out path
CASES = [
    ("simulate", "regimes3", ["simulate", "--episodes", "2"]),
    ("solve-etf3", "etf3", ["solve"]),
    ("solve-regimes3", "regimes3", ["solve"]),
    ("qsurface", "two_asset", ["qsurface"]),
    ("hmm-fit", "regimes3", ["hmm-fit"]),
    ("gridsearch", "regimes3", ["gridsearch"]),
    ("gridsearch-levered", "levered", ["gridsearch"]),
    ("gridsearch-tie", "tie", ["gridsearch"]),
    ("baseline", "regimes3", ["baseline"]),
    ("evaluate-baseline", "etf3", ["evaluate", "--episodes", "3"]),
    ("train", "etf3", ["train"]),
    ("train-a2c", "a2c", ["train"]),
    ("train-bankrupt", "bankrupt", ["train", "--seed", "0"]),
    ("train-sweep", "a2c", ["train", "--seed", "0",
                            "--sweep", "../sweep_lambda.yaml"]),
    ("evaluate-policy", "etf3",
     ["evaluate", "--checkpoint", "train/seed1/checkpoint.npz"]),
    # 70 episodes: a full 64-lane wave, then a 6-lane wave
    ("evaluate-policy-70", "etf3",
     ["evaluate", "--checkpoint", "train/seed1/checkpoint.npz",
      "--episodes", "70"]),
    ("evaluate-baseline-70", "regimes3", ["evaluate", "--episodes", "70"]),
    ("train-noclip", "noclip", ["train", "--seed", "0"]),
    ("train-ctx1", "ctx1", ["train", "--seed", "0"]),
    ("train-ctx2", "ctx2", ["train", "--seed", "0"]),
    ("evaluate-ctx2", "ctx2",
     ["evaluate", "--checkpoint", "train-ctx2/seed0/checkpoint.npz"]),
    ("train-ctx3", "ctx3", ["train"]),
    ("train-ctx2-window2", "ctx2w2", ["train", "--seed", "0"]),
    ("evaluate-context", "ctx3",
     ["evaluate", "--checkpoint", "train-ctx3/seed0/checkpoint.npz"]),
]


def write_configs(work: Path):
    for name, (base, overrides) in CONFIG_SET.items():
        data = yaml.safe_load((CONFIGS / f"{base}.yaml").read_text())
        for key, value in overrides.items():
            *blocks, leaf = key.split(".")
            node = data
            for block in blocks:
                node = node.setdefault(block, {})
            node[leaf] = value
        (work / f"{name}.yaml").write_text(yaml.safe_dump(data, sort_keys=False))
    (work / "sweep_lambda.yaml").write_text(
        yaml.safe_dump({"key": "algo.gae_lambda", "values": [0.5, 0.95]}))


def run_side(checkout: Path, side: Path) -> dict:
    """Run every case in side/; return case -> (exit code, stdout, stderr)."""
    side.mkdir()
    env = {**os.environ, "PYTHONPATH": str(checkout.resolve() / "src")}
    results = {}
    for case, config, argv in CASES:
        command, *rest = argv
        proc = subprocess.run(
            [sys.executable, "-m", "kellylab.cli", command,
             "--config", f"../{config}.yaml", "--out", case, *rest],
            cwd=side, env=env, capture_output=True, text=True)
        results[case] = (proc.returncode, proc.stdout, proc.stderr)
    return results


def src_lines(checkout: Path) -> int:
    """Lines of src/kellylab/*.py, as `cat src/kellylab/*.py | wc -l`."""
    return sum(p.read_bytes().count(b"\n")
               for p in (checkout / "src" / "kellylab").glob("*.py"))


def same_file(a: Path, b: Path) -> bool:
    if a.name != "manifest.json":
        return a.read_bytes() == b.read_bytes()
    manifests = [json.loads(p.read_text()) for p in (a, b)]
    for manifest in manifests:
        manifest.pop("wall_time_seconds", None)
    return manifests[0] == manifests[1]


def compare(parent: Path, change: Path, runs: dict) -> list:
    """Every difference between the two sides, one line each."""
    problems = []
    for case, _, _ in CASES:
        (p_rc, p_out, p_err), (c_rc, c_out, c_err) = (
            runs["parent"][case], runs["change"][case])
        if p_rc != 0 or c_rc != 0:
            problems.append(f"{case}: exit codes {p_rc} and {c_rc}: "
                            f"{(p_err or c_err).strip()}")
        elif (p_out, p_err) != (c_out, c_err):
            problems.append(f"{case}: stdout or stderr differs")
    files = {p.relative_to(side) for side in (parent, change)
             for p in side.rglob("*") if p.is_file()}
    for rel in sorted(files):
        a, b = parent / rel, change / rel
        if not (a.is_file() and b.is_file()):
            problems.append(f"{rel}: only in {'parent' if a.is_file() else 'change'}")
        elif not same_file(a, b):
            problems.append(f"{rel}: differs")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--work", type=Path, default=None,
                        help="keep the outputs in this new directory "
                             "(default: a temporary one, removed after)")
    args = parser.parse_args(argv)
    work = args.work or Path(tempfile.mkdtemp(prefix="same_outputs."))
    try:
        work.mkdir(parents=True, exist_ok=args.work is None)
        write_configs(work)
        runs = {side: run_side(getattr(args, side), work / side)
                for side in ("parent", "change")}
        problems = compare(work / "parent", work / "change", runs)
        n_files = sum(1 for p in (work / "parent").rglob("*") if p.is_file())
    finally:
        if args.work is None:
            shutil.rmtree(work, ignore_errors=True)
    for line in problems:
        print(line)
    lines = [src_lines(args.parent), src_lines(args.change)]
    print(f"{len(CASES)} commands, {n_files} files on the parent side, "
          f"{len(problems)} difference(s); src/ lines {lines[0]} -> "
          f"{lines[1]} ({lines[1] - lines[0]:+d})")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
