"""Metric definitions and the arithmetic that turns command records into them.

END_TO_END are measured with tracing off, one value per command, scaled to
the nominal machine speed (at_nominal_speed) and reported as the median over
a run's commands. PER_LAYER come from the traced commands'
spans. README.md says which end-to-end metric each layer should move, on
which workload.
"""

import statistics

# name, unit, better; the bounds are in BENCHMARK.json
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("loop_steps_per_s", "1/s", "higher"),
    ("eval_steps_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
]

# in the text report only: train_steps_per_s is undefined on
# gridsearch-regimes3, and failed_ops_ratio (0 when all is well) reaches the
# result line as attempted/failed
REPORT_ONLY = [("train_steps_per_s", "1/s")]

# span layers: calls / busy_s / self_s each
SPAN_LAYERS = [
    "market.generate_path",
    "impact.trade_cost",
    "env.PortfolioEnv.step",
    "env.PortfolioEnv.reset",
    "baselines.RegimeSwitchingPolicy.act",
    "rl.act_and_value",
    "nets.forward",
    "rl.ppo_update",
    "rl.loss_and_grads",
    "nets.backward",
    "nets.Adam.step",
    "nets.clip_grad_norm",
    "rl.gae_advantages",
    "hmm.predict_current",
    "hmm.fit",
    "hmm.decode",
    "config.load_config",
    "training.train",
    "training.evaluate",
    "baselines.rs_baseline_grid_search",
]

_SPAN_FIELDS = [("calls", "count", "lower"), ("busy_s", "s", "lower"),
                ("self_s", "s", "lower")]

PER_LAYER = [
    (f"{layer}.{field}", unit, better)
    for layer in SPAN_LAYERS
    for field, unit, better in _SPAN_FIELDS
] + [
    ("market.generate_path.ms_per_path", "ms", "lower"),
    ("env.PortfolioEnv.step.us_per_call", "us", "lower"),
    ("env.bankrupt_ratio", "ratio", "lower"),
    ("rl.minibatch_applied_ratio", "ratio", "higher"),
    ("nets.gflops_computed", "GFLOP/s", "higher"),
    ("training.train.uncovered_share", "ratio", "lower"),
    ("training.evaluate.uncovered_share", "ratio", "lower"),
    ("imports.busy_s", "s", "lower"),
    ("cli.write_s", "s", "lower"),
    ("cli.output_bytes", "bytes", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
]

def median(values):
    return statistics.median(values) if values else None


def tail(values):
    """(percentile, value) for the highest percentile that has at least ten
    samples beyond it, or None when fewer than 21 samples give none above the
    median."""
    n = len(values)
    rank = n - 10  # nearest rank with n - rank samples above it
    if rank < 1 or 100.0 * rank / n <= 50.0:
        return None
    return 100.0 * rank / n, sorted(values)[rank - 1]


def end_to_end(record: dict) -> dict:
    """End-to-end values of one untraced command record."""
    stats = record["stats"]
    clock = stats["clock"]
    train_s = clock["train"] - clock["hmm_fit"]
    train_rate = stats["train_steps"] / train_s if stats["train_steps"] else None
    eval_rate = stats["eval_steps"] / clock["eval"]
    return {
        "setup_s": stats["first_step_monotonic"] - record["launched"],
        "wall_s": record["wall_s"],
        # the main loop: training without the detector fit, or the grid
        # search (which is all evaluation)
        "loop_steps_per_s": train_rate if train_rate is not None else eval_rate,
        "eval_steps_per_s": eval_rate,
        "peak_rss_mb": record["peak_rss_mb"],
        "train_steps_per_s": train_rate,
    }


def at_nominal_speed(values: dict, slowdown: float) -> dict:
    """End-to-end values as if measured at the nominal machine speed.

    slowdown is the speed reference's time around the command over its
    nominal time: times divide by it and rates multiply by it. Memory is
    left as measured.
    """
    out = {}
    for name, value in values.items():
        if value is None or name == "peak_rss_mb":
            out[name] = value
        elif name.endswith("_per_s"):
            out[name] = value * slowdown
        else:
            out[name] = value / slowdown
    return out


def span_table(stats: dict) -> dict:
    """{layer: [calls, busy_s, self_s]} from one traced command's spans."""
    names = stats["span_names"]
    spans = stats["spans"]
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    table = {name: [0, 0.0, 0.0] for name in names}
    for i, (name_id, start, end, _) in enumerate(spans):
        nested = name_id < 0
        row = table[names[-1 - name_id if nested else name_id]]
        row[0] += 1
        if not nested:
            row[1] += end - start
        row[2] += end - start - child[i]
    return table


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(record: dict) -> dict:
    """Per-layer values of one traced command record (0 for absent layers)."""
    stats = record["stats"]
    table = span_table(stats)
    out = {}
    for layer in SPAN_LAYERS:
        calls, busy, self_s = table.get(layer, (0, 0.0, 0.0))
        out[f"{layer}.calls"] = calls
        out[f"{layer}.busy_s"] = busy
        out[f"{layer}.self_s"] = self_s
    counters = stats["counters"]
    summary = record["summary"]
    out["market.generate_path.ms_per_path"] = 1e3 * _ratio(
        out["market.generate_path.busy_s"], out["market.generate_path.calls"])
    out["env.PortfolioEnv.step.us_per_call"] = 1e6 * _ratio(
        out["env.PortfolioEnv.step.busy_s"], out["env.PortfolioEnv.step.calls"])
    out["env.bankrupt_ratio"] = _ratio(summary["bankrupt_episodes"],
                                       summary["episodes"])
    out["rl.minibatch_applied_ratio"] = _ratio(
        counters.get("rl.minibatches_applied", 0),
        counters.get("rl.minibatches_attempted", 0))
    out["nets.gflops_computed"] = 1e-9 * _ratio(
        counters.get("nets.flops_computed", 0), out["rl.loss_and_grads.busy_s"])
    for layer in ("training.train", "training.evaluate"):
        out[f"{layer}.uncovered_share"] = _ratio(out[f"{layer}.self_s"],
                                                 out[f"{layer}.busy_s"])
    out["imports.busy_s"] = stats["import_s"]
    out["cli.write_s"] = table.get("cli.write", (0, 0.0, 0.0))[1]
    out["cli.output_bytes"] = record["output_bytes"]
    return out
