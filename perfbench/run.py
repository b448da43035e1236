"""kellylab benchmark: run one workload's CLI command repeatedly and report.

    python3 perfbench/run.py --workload train-etf3 --seed 0 --seconds 30 --trace 0

Run from anywhere inside a source checkout: the program is imported from
the checkout's `src/`, and the workload YAML is derived from its `configs/`.
Each command runs in a fresh child process, one at a time (a closed loop
with one client), until --seconds have passed. With --trace 0 the result
line holds the end-to-end metrics (medians over the run's commands, scaled
to the nominal machine speed; speed.py measures it before and after each
command); with
--trace 1 the run alternates untraced and traced commands, and the result
line holds the per-layer metrics and the tracing overhead. The last line of
standard output is the JSON result; `--workload all` runs every workload and
prints a combined line. Work files go to `.bench_work/` in the checkout.
"""

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
import workloads  # noqa: E402

ROOT = HERE.parent
REFERENCE = HERE / "reference.json"

# BLAS pools stay single-threaded (at most nproc): the matrices are small and
# one thread keeps the timings steady and the outputs reproducible
THREAD_VARS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
# speed.py's time on the reference machine when it is quiet; end-to-end
# times are reported as if every command ran at that speed
NOMINAL_SPEED_S = 0.25
COMMAND_TIMEOUT_S = 60.0
RUN_CAP_S = 150.0   # start no command that would push a run past this
MIN_COMMANDS = 2    # the repeat check needs two commands per run


def checkout_problem(root: Path):
    """Why root cannot be benchmarked, or None."""
    for rel in ("src/kellylab/cli.py", "configs"):
        if not (root / rel).exists():
            return f"{root / rel} not found: run from a kellylab source checkout"
    return None


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "PYTHONHOME", "KELLYLAB_OUT_ROOT")}
    env.update(THREAD_VARS)
    return env


def stamp(workload: str, seed: int) -> dict:
    """Hardware, versions and thread settings the numbers were taken with."""
    import importlib.metadata

    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
        env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
    )
    return {
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_vars": THREAD_VARS,
        "workload": workload,
        "seed": seed,
        "master_seed": workloads.master_seed(seed),
        "git_commit": commit.stdout.strip() if commit.returncode == 0 else None,
    }


def run_command(cli_args, work: Path, trace: bool, run_id: int) -> dict:
    """Run one CLI command in a fresh child under the probe; time it."""
    work.mkdir(parents=True, exist_ok=True)
    stats_path = work / "stats.json"
    argv = [sys.executable, str(HERE / "probe.py"), str(ROOT), str(stats_path),
            "1" if trace else "0", str(run_id), "--", *cli_args]
    with open(work / "stdout.txt", "w") as out, \
            open(work / "stderr.txt", "w") as err:
        launched = time.monotonic()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(),
                                cwd=ROOT)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        ended = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    stats = None
    if stats_path.is_file():
        stats = json.loads(stats_path.read_text())
        stats_path.unlink()
    return {
        "run_id": run_id,
        "traced": trace,
        "launched": launched,
        "wall_s": ended - launched,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "exit_code": proc.returncode,
        "stats": stats,
        "stdout": (work / "stdout.txt").read_text(),
        "stderr": (work / "stderr.txt").read_text(),
    }


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def speed_sample() -> float:
    """Seconds speed.py's fixed load takes now, in a fresh child."""
    proc = subprocess.run([sys.executable, str(HERE / "speed.py")], cwd=ROOT,
                          env=child_env(), capture_output=True, text=True,
                          check=True, timeout=COMMAND_TIMEOUT_S)
    return float(proc.stdout)


def execute(workload, config: Path, seed: int, work: Path, trace: bool,
            run_id: int, reference, first_digests=None) -> dict:
    """One command plus its correctness check; the record says why it failed."""
    out = work / "out"
    record = run_command(workloads.cli_args(workload, config, seed, out), work,
                         trace, run_id)
    problems = []
    if record["exit_code"] != 0:
        tail_lines = record["stderr"].strip().splitlines()[-1:]
        problems.append(f"exit status {record['exit_code']}: {tail_lines}")
    elif record["stats"] is None:
        problems.append("the probe wrote no statistics")
    else:
        try:
            summary = workloads.summarize(workload, config, out,
                                          record["stdout"], seed)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            problems.append(f"unreadable outputs: {exc!r}")
        else:
            record["summary"] = summary
            record["output_bytes"] = _dir_bytes(out)
            if not (record["stats"]["first_step_monotonic"]
                    and record["stats"]["eval_steps"]):
                problems.append("the command took no evaluation step")
            if reference is None:
                problems.append("no reference outputs recorded for this seed")
            else:
                problems += workloads.check(workload, summary, reference)
            if (first_digests is not None
                    and summary.get("digests") != first_digests):
                problems.append("training digests differ from the run's first "
                                "command with the same seed")
    record["problems"] = problems
    shutil.rmtree(out, ignore_errors=True)
    return record


def measure(workload, seed: int, seconds: float, trace: bool, work: Path,
            reference, config_overrides=None) -> dict:
    """Repeat the workload's command for `seconds`; summarize the run."""
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    master = workloads.master_seed(seed)
    config = workloads.write_config(workload, ROOT, master, work / "config.yaml",
                                    config_overrides)
    # untimed warm-up: byte-compile the package and fill the page cache
    subprocess.run(
        [sys.executable, "-c",
         "import sys; sys.path.insert(0, sys.argv[1]); import kellylab.cli",
         str(ROOT / "src")], env=child_env(), cwd=ROOT, check=True)

    records = []
    speed = [speed_sample()]
    first_digests = None
    start = time.monotonic()
    while True:
        for traced in ((False, True) if trace else (False,)):
            record = execute(workload, config, master, work / "cmd", traced,
                             len(records), reference, first_digests)
            speed.append(speed_sample())
            # the machine's speed during the command: the samples either side
            record["speed_s"] = math.sqrt(speed[-2] * speed[-1])
            records.append(record)
            if first_digests is None and "summary" in record:
                first_digests = record["summary"].get("digests")
        elapsed = time.monotonic() - start
        longest = max(r["wall_s"] for r in records) * (2 if trace else 1)
        if elapsed + longest > RUN_CAP_S or (
                elapsed >= seconds and len(records) >= MIN_COMMANDS):
            break
    return summarize_run(records, trace)


def summarize_run(records, trace: bool) -> dict:
    ok = [r for r in records if not r["problems"]]
    untraced = [r for r in ok if not r["traced"]]
    measured = [metrics.end_to_end(r) for r in untraced]
    scaled = [metrics.at_nominal_speed(v, r["speed_s"] / NOMINAL_SPEED_S)
              for v, r in zip(measured, untraced)]
    names = [m[0] for m in metrics.END_TO_END + metrics.REPORT_ONLY]
    samples = {name: [v[name] for v in scaled if v[name] is not None]
               for name in names}
    result = {
        "attempted": len(records),
        "failed": len(records) - len(ok),
        "failed_ops_ratio": (len(records) - len(ok)) / len(records),
        "problems": [f"command {r['run_id']}: {p}" for r in records
                     for p in r["problems"]],
        "samples": samples,
        "measured": {name: [v[name] for v in measured if v[name] is not None]
                     for name in names},
        "speed_s": [r["speed_s"] for r in records],
    }
    if trace:
        layer_values = [metrics.per_layer(r) for r in ok if r["traced"]]
        layers = {name: metrics.median([v[name] for v in layer_values])
                  for name, _, _ in metrics.PER_LAYER
                  if not name.startswith("trace.")}
        traced_wall = metrics.median([r["wall_s"] for r in ok if r["traced"]])
        plain_wall = metrics.median(result["measured"]["wall_s"])
        if traced_wall is not None and plain_wall is not None:
            layers["trace.overhead_s"] = traced_wall - plain_wall
            layers["trace.overhead_share"] = (traced_wall - plain_wall) / plain_wall
        result["per_layer"] = layers
        result["traced_commands"] = len(layer_values)
        result["missing_layers"] = sorted(
            {t for r in ok if r["traced"] for t in r["stats"]["missing"]})
    return result


def result_line(result: dict, trace: bool) -> dict:
    if trace:
        values = result["per_layer"]
        table = [(name, unit) for name, unit, _ in metrics.PER_LAYER]
    else:
        values = {name: metrics.median(result["samples"][name])
                  for name, _, _ in metrics.END_TO_END}
        table = [(name, unit) for name, unit, _ in metrics.END_TO_END]
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values.get(name), "unit": unit}
                    for name, unit in table},
    }


def report(name: str, result: dict, trace: bool):
    """Human-readable lines: every end-to-end metric by name, unit and count."""
    print(f"== {name}: {result['attempted']} commands, {result['failed']} failed")
    for problem in result["problems"]:
        print(f"   FAILED {problem}")
    print(f"   failed_ops_ratio: {result['failed_ops_ratio']:.6g} ratio "
          f"(n={result['attempted']})")
    print(f"   speed.py: median {metrics.median(result['speed_s']):.6g} s "
          f"(n={len(result['speed_s'])}; nominal {NOMINAL_SPEED_S} s)")
    units = {m[0]: m[1] for m in metrics.END_TO_END + metrics.REPORT_ONLY}
    for metric, values in result["samples"].items():
        if not values:
            print(f"   {metric}: n/a on this workload")
            continue
        line = (f"   {metric}: median {metrics.median(values):.6g} "
                f"{units[metric]} (n={len(values)}; as measured "
                f"{metrics.median(result['measured'][metric]):.6g})")
        high = metrics.tail(values)
        line += (f", p{high[0]:.0f} {high[1]:.6g}" if high is not None
                 else ", too few for a percentile above the median")
        print(line)
    if trace:
        print(f"   traced commands: {result['traced_commands']}")
        for target in result["missing_layers"]:
            print(f"   WARNING {target} not found; its layer reads 0")
        for metric, unit, _ in metrics.PER_LAYER:
            value = result["per_layer"].get(metric)
            print(f"   {metric}: {value:.6g} {unit}" if value is not None
                  else f"   {metric}: n/a")


def main(argv=None) -> int:
    # on SIGTERM, unwind so that run_command stops its child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    problem = checkout_problem(ROOT)
    if problem is not None:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    names = (sorted(workloads.WORKLOADS) if args.workload == "all"
             else [args.workload])
    reference = workloads.load_reference(REFERENCE)
    master = str(workloads.master_seed(args.seed))
    lines = {}
    for name in names:
        info = stamp(name, args.seed)
        print("stamp " + json.dumps(info, sort_keys=True))
        work = ROOT / ".bench_work" / f"{name}-seed{args.seed}-trace{args.trace}"
        result = measure(workloads.WORKLOADS[name], args.seed, args.seconds,
                         trace, work, reference.get(name, {}).get(master))
        report(name, result, trace)
        lines[name] = result_line(result, trace)
        (work / "result.json").write_text(json.dumps(
            {"stamp": info, "result": result, "line": lines[name]}, indent=1))
    if len(names) == 1:
        line = lines[names[0]]
    else:
        line = {
            "correct": all(v["correct"] for v in lines.values()),
            "attempted": sum(v["attempted"] for v in lines.values()),
            "failed": sum(v["failed"] for v in lines.values()),
            "metrics": {f"{name}:{metric}": value
                        for name, v in lines.items()
                        for metric, value in v["metrics"].items()},
        }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
