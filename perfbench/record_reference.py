"""Record the reference outputs the benchmark checks every command against.

    python3 perfbench/record_reference.py [--workload NAME]

Runs each workload's command once per master seed (0 to N_REFERENCE_SEEDS-1)
with tracing off and writes perfbench/reference.json. Record only from a
commit whose outputs are known good: every later benchmark run must match
these training digests byte for byte, and these evaluation statistics and
grid cells within workloads.REL_TOL.
"""

import argparse
import json
import shutil
import sys

import run
import workloads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    args = parser.parse_args(argv)
    problem = run.checkout_problem(run.ROOT)
    if problem is not None:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    reference = workloads.load_reference(run.REFERENCE)
    names = [args.workload] if args.workload else sorted(workloads.WORKLOADS)
    for name in names:
        workload = workloads.WORKLOADS[name]
        entries = {}
        for seed in range(workloads.N_REFERENCE_SEEDS):
            work = run.ROOT / ".bench_work" / "reference" / name
            config = workloads.write_config(workload, run.ROOT, seed,
                                            work / "config.yaml")
            out = work / "out"
            shutil.rmtree(out, ignore_errors=True)
            record = run.run_command(
                workloads.cli_args(workload, config, seed, out), work, False,
                seed)
            if record["exit_code"] != 0:
                print(f"error: {name} seed {seed}: {record['stderr']}",
                      file=sys.stderr)
                return 1
            summary = workloads.summarize(workload, config, out,
                                          record["stdout"], seed)
            entries[str(seed)] = workloads.reference_entry(workload, summary)
            print(f"{name} seed {seed}: recorded", flush=True)
        reference[name] = entries
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True)
                             + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
