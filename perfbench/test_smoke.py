"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q

Checks that every metric BENCHMARK.json names is emitted with its unit, that
the correctness check passes on real outputs and fails on corrupted copies,
and that the benchmark refuses to run without the program's sources.
"""

import json
import shutil
import subprocess
import sys

import pytest

import metrics
import run
import workloads

SMOKE = run.ROOT / ".bench_work" / "smoke"

TINY = {
    "train-etf3": {
        "env.horizon_years": 0.25, "algo.total_steps": 256,
        "algo.rollout_steps": 128, "algo.n_epochs": 2, "run.eval_episodes": 1,
    },
    # 12 episodes of 64 steps: the detector is fit after the 10th
    "train-regimes3-ctx": {
        "env.horizon_years": 0.25, "algo.total_steps": 768,
        "algo.rollout_steps": 128, "algo.n_epochs": 1, "run.eval_episodes": 1,
        "hmm.n_init": 2,
    },
    "gridsearch-regimes3": {
        "env.horizon_years": 0.25, "baseline.episodes_per_cell": 1,
        "baseline.fractions": [0.5, 1.0], "baseline.adjustment_grid": [1, 4],
    },
}


def tiny_command(name, work):
    """Run the tiny variant once; return (config, out dir, record, summary)."""
    workload = workloads.WORKLOADS[name]
    config = workloads.write_config(workload, run.ROOT, 0, work / "config.yaml",
                                    TINY[name])
    out = work / "out"
    shutil.rmtree(out, ignore_errors=True)
    record = run.run_command(workloads.cli_args(workload, config, 0, out), work,
                             False, 0)
    assert record["exit_code"] == 0, record["stderr"]
    summary = workloads.summarize(workload, config, out, record["stdout"], 0)
    return config, out, record, summary


def test_benchmark_json_matches_metric_tables():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] \
        == metrics.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == metrics.PER_LAYER


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(name):
    work = SMOKE / name
    _, _, _, summary = tiny_command(name, work / "reference")
    reference = workloads.reference_entry(workloads.WORKLOADS[name], summary)
    result = run.measure(workloads.WORKLOADS[name], 0, 0.0, True, work / "run",
                         reference, TINY[name])
    assert result["problems"] == []
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for trace, table in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
        line = run.result_line(result, trace)
        assert line["correct"] and line["attempted"] == 2 and line["failed"] == 0
        assert set(line["metrics"]) == {m["name"] for m in table}
        for m in table:
            emitted = line["metrics"][m["name"]]
            assert emitted["unit"] == m["unit"]
            assert isinstance(emitted["value"], (int, float)), m["name"]
    e2e = run.result_line(result, False)["metrics"]
    assert all(e2e[m["name"]]["value"] > 0 for m in spec["end_to_end"])
    layers = run.result_line(result, True)["metrics"]
    assert layers["env.PortfolioEnv.step.calls"]["value"] > 0
    if name == "train-regimes3-ctx":
        assert layers["hmm.fit.calls"]["value"] == 1
        assert layers["hmm.predict_current.calls"]["value"] > 0


def _corrupt(path, old, new):
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new, 1))


def test_check_fails_on_corrupted_training_outputs():
    workload = workloads.WORKLOADS["train-etf3"]
    work = SMOKE / "corrupt-train"
    config, out, record, summary = tiny_command("train-etf3", work)
    reference = workloads.reference_entry(workload, summary)
    assert workloads.check(workload, summary, reference) == []

    copy = work / "copy"
    shutil.rmtree(copy, ignore_errors=True)
    shutil.copytree(out, copy)
    log = copy / "seed0" / "training_log.csv"
    lines = log.read_text().splitlines(keepends=True)
    # the last digit of the first row's mean_w0: a 1-ulp-sized change
    row = lines[1].split(",")
    row[2] = row[2][:-1] + ("1" if row[2][-1] != "1" else "2")
    lines[1] = ",".join(row)
    log.write_text("".join(lines))
    broken = workloads.summarize(workload, config, copy, record["stdout"], 0)
    assert any("training_log.csv" in p
               for p in workloads.check(workload, broken, reference))

    shutil.rmtree(copy)
    shutil.copytree(out, copy)
    _corrupt(copy / "seed0" / "eval.csv", ",0,1", ",1,1")
    broken = workloads.summarize(workload, config, copy, record["stdout"], 0)
    assert any("eval.csv" in p
               for p in workloads.check(workload, broken, reference))


def test_check_fails_on_corrupted_gridsearch_outputs():
    workload = workloads.WORKLOADS["gridsearch-regimes3"]
    work = SMOKE / "corrupt-grid"
    config, out, record, summary = tiny_command("gridsearch-regimes3", work)
    reference = workloads.reference_entry(workload, summary)
    assert workloads.check(workload, summary, reference) == []

    table = out / "gridsearch.csv"
    original = table.read_text()
    rows = [line.split(",") for line in original.splitlines()]
    rows[1][2] = repr(float(rows[1][2]) * (1 + 1e-6))
    table.write_text("\n".join(",".join(r) for r in rows) + "\n")
    broken = workloads.summarize(workload, config, out, record["stdout"], 0)
    assert any("grid cell" in p
               for p in workloads.check(workload, broken, reference))

    table.write_text(original)
    stdout = record["stdout"].replace("best cell: fraction",
                                      "best cell: fraction 0.25 was")
    broken = workloads.summarize(workload, config, out, stdout, 0)
    assert any("best cell" in p
               for p in workloads.check(workload, broken, reference))


def test_refuses_to_run_without_the_program():
    bare = SMOKE / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(run.HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train-etf3",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    assert "error:" in proc.stderr
