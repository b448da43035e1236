"""The three benchmark workloads: their YAML, their CLI command, and the
correctness check of their outputs.

Each workload derives its YAML from a shipped config under `configs/` and
changes only step, episode and horizon counts, so that one command takes a
few seconds and a run can repeat it. The program sees nothing but that YAML
and its command-line arguments.
"""

import csv
import hashlib
import json
import math
import re
import zipfile
from dataclasses import dataclass, field
from pathlib import Path

import yaml

# Workload seeds fold onto this many master seeds, each with recorded
# reference outputs in reference.json.
N_REFERENCE_SEEDS = 16

# Evaluation statistics and grid-search cells may differ from the reference
# by this relative amount (floating-point reduction order); training outputs
# must match byte for byte.
REL_TOL = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    command: str          # kellylab subcommand
    base_config: str      # shipped config the YAML derives from
    overrides: dict = field(default_factory=dict)  # dotted key -> value

    @property
    def trains(self) -> bool:
        return self.command == "train"


# Why each workload was chosen is in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("train-etf3", "train", "etf3.yaml",
                 {"algo.total_steps": 6400, "run.eval_episodes": 10}),
        # half-year episodes: the detector is fit after episode 10 (step
        # 1280) and labels every step of the second rollout and of the
        # evaluation
        Workload("train-regimes3-ctx", "train", "regimes3.yaml",
                 {"env.horizon_years": 0.5, "algo.total_steps": 2560,
                  "run.eval_episodes": 10}),
        # 70 cells replay the same 2 seeded episodes
        Workload("gridsearch-regimes3", "gridsearch", "regimes3.yaml",
                 {"env.horizon_years": 1.0, "baseline.episodes_per_cell": 2}),
    )
}


def master_seed(seed: int) -> int:
    """The CLI --seed a workload seed runs with."""
    return seed % N_REFERENCE_SEEDS


def set_dotted(data: dict, dotted: str, value):
    node = data
    keys = dotted.split(".")
    for key in keys[:-1]:
        node = node[key]
    if keys[-1] not in node:
        raise KeyError(f"{dotted} is not a key of the base config")
    node[keys[-1]] = value


def write_config(workload: Workload, root: Path, seed: int, dest: Path,
                 overrides=None) -> Path:
    """Write the workload's YAML, derived from the shipped base config."""
    data = yaml.safe_load((root / "configs" / workload.base_config).read_text())
    merged = dict(workload.overrides)
    merged.update(overrides or {})
    merged["run.seeds"] = [seed]
    for key, value in merged.items():
        set_dotted(data, key, value)
    dest.parent.mkdir(parents=True, exist_ok=True)
    dest.write_text(yaml.safe_dump(data, sort_keys=False))
    return dest


def cli_args(workload: Workload, config: Path, seed: int, out: Path) -> list:
    return [workload.command, "--config", str(config), "--seed", str(seed),
            "--out", str(out)]


# -- outputs -----------------------------------------------------------------


def _rows(path: Path) -> list:
    with open(path, newline="") as f:
        return list(csv.reader(f))[1:]


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def checkpoint_digest(path: Path) -> str:
    """SHA-256 over the parameter arrays of a checkpoint, in stored order."""
    digest = hashlib.sha256()
    with zipfile.ZipFile(path) as archive:
        names = sorted(
            (n for n in archive.namelist() if n.startswith("param_")),
            key=lambda n: int(n[len("param_"):-len(".npy")]),
        )
        for name in names:
            digest.update(name.encode())
            digest.update(archive.read(name))
    return digest.hexdigest()


_BEST_CELL = re.compile(
    r"best cell: fraction (\S+), adjustment periods (\d+), mean growth")


def summarize(workload: Workload, config: Path, out: Path, stdout: str,
              seed: int) -> dict:
    """The facts of one command's outputs that the check compares.

    Raises OSError, ValueError, KeyError or IndexError on missing or
    malformed outputs.
    """
    if workload.trains:
        run = out / f"seed{seed}"
        log = _rows(run / "training_log.csv")
        updates = _rows(run / "updates.csv")
        (eval_row,) = _rows(run / "eval.csv")
        summary = {
            "digests": {
                "training_log.csv": _sha256(run / "training_log.csv"),
                "updates.csv": _sha256(run / "updates.csv"),
                "checkpoint_arrays": checkpoint_digest(run / "checkpoint.npz"),
            },
            "training_log_rows": len(log),
            "updates_rows": len(updates),
            "episodes": len(log),
            "bankrupt_episodes": sum(int(r[-3]) for r in log),
            "eval": [float(eval_row[1]), float(eval_row[2]), int(eval_row[3]),
                     int(eval_row[4])],
            "has_detector": (run / "detector.json").is_file(),
        }
        if summary["has_detector"]:
            json.loads((run / "detector.json").read_text())
        summary["bankrupt_episodes"] += summary["eval"][2]
        summary["episodes"] += summary["eval"][3]
        return summary
    table = [[float(r[0]), int(r[1]), float(r[2]), int(r[3])]
             for r in _rows(out / "gridsearch.csv")]
    match = _BEST_CELL.search(stdout)
    best = [float(match.group(1)), int(match.group(2))] if match else None
    per_cell = yaml.safe_load(config.read_text())["baseline"]["episodes_per_cell"]
    return {
        "table": table,
        "best": best,
        "episodes": per_cell * len(table),
        "bankrupt_episodes": sum(row[3] for row in table),
    }


def reference_entry(workload: Workload, summary: dict) -> dict:
    """The part of a summary that reference.json keeps."""
    keys = (("digests", "training_log_rows", "updates_rows", "eval",
             "has_detector") if workload.trains else ("table", "best"))
    return {key: summary[key] for key in keys}


def _close(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0)


def check(workload: Workload, summary: dict, reference: dict) -> list:
    """Differences between a command's outputs and its reference; [] is a pass.

    Training digests must be equal; evaluation statistics and grid cells
    within REL_TOL; counts and the grid argmax exactly.
    """
    problems = []
    if workload.trains:
        for name, digest in reference["digests"].items():
            if summary["digests"].get(name) != digest:
                problems.append(f"{name} digest differs from the reference")
        for key in ("training_log_rows", "updates_rows", "has_detector"):
            if summary[key] != reference[key]:
                problems.append(
                    f"{key} is {summary[key]}, reference {reference[key]}")
        got, want = summary["eval"], reference["eval"]
        if not (_close(got[0], want[0]) and _close(got[1], want[1])
                and got[2:] == want[2:]):
            problems.append(f"eval.csv {got} differs from reference {want}")
        return problems
    got, want = summary["table"], reference["table"]
    if len(got) != len(want):
        problems.append(f"gridsearch.csv has {len(got)} cells, reference "
                        f"{len(want)}")
    for row, ref in zip(got, want):
        if not (row[0] == ref[0] and row[1] == ref[1] and row[3] == ref[3]
                and _close(row[2], ref[2])):
            problems.append(f"grid cell {row} differs from reference {ref}")
            break
    if summary["best"] != reference["best"]:
        problems.append(f"best cell {summary['best']} differs from reference "
                        f"{reference['best']}")
    return problems


def load_reference(path: Path) -> dict:
    return json.loads(path.read_text()) if path.is_file() else {}
