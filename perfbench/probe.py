"""Child side of the benchmark: run one `kellylab` CLI command under probes.

    python3 probe.py ROOT STATS_FILE TRACE RUN_ID -- <kellylab arguments>

Imports kellylab from ROOT/src, installs the probes, calls the CLI entry
point `kellylab.cli.main` with the arguments, and writes what it measured to
STATS_FILE as JSON.

TRACE 0 times only boundaries entered O(1) times per command (train,
evaluate, grid search, hmm.fit) plus the first env step, and counts env steps
with a hook on each environment's reset (once per episode). TRACE 1 also
wraps every layer's public functions in span recorders. The package binds
names with `from .x import y`, so a wrapper replaces every binding of the
original function in every loaded kellylab module, not only the defining one.
"""

import importlib
import json
import os
import sys
import time


class _EnvCounter:
    """Counts an environment's steps: finished episodes plus the current one."""

    def __init__(self, env):
        self.env = env
        self.finished = 0
        reset = type(env).reset

        def counting_reset(*args, **kwargs):
            self.finished += max(env.t, 0)
            return reset(env, *args, **kwargs)

        env.reset = counting_reset

    @property
    def steps(self) -> int:
        return self.finished + max(self.env.t, 0)


class Probes:
    """Boundary clocks, env step counts and (when tracing) layer spans."""

    def __init__(self):
        self.clock = {"train": 0.0, "eval": 0.0, "hmm_fit": 0.0}
        self.counters = {}
        self.envs = {"train": [], "eval": []}
        self.first_step = None
        self.missing = []
        self._eval_depth = 0
        # spans: (name index, start, end, parent span index or -1)
        self.names = []
        self.spans = []
        self._stack = [-1]
        self._active = {}

    # -- patching ------------------------------------------------------------

    def _rebind(self, original, replacement):
        for name, module in list(sys.modules.items()):
            if name == "kellylab" or name.startswith("kellylab."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, replacement)

    def wrap(self, target: str, make_wrapper) -> bool:
        """Replace `module.func` or `module.Class.method` everywhere.

        make_wrapper(original) returns the replacement. Returns False (and
        records the target) when the target does not exist.
        """
        module_name, _, rest = target.partition(":")
        owner = importlib.import_module(module_name)
        parts = rest.split(".")
        for part in parts[:-1]:
            owner = getattr(owner, part, None)
        original = getattr(owner, parts[-1], None) if owner is not None else None
        if original is None:
            self.missing.append(target)
            return False
        replacement = make_wrapper(original)
        if isinstance(owner, type):
            setattr(owner, parts[-1], replacement)
        else:
            self._rebind(original, replacement)
        return True

    # -- boundaries (both modes) ---------------------------------------------

    def _counting_factory(self, factory, phase):
        def make(*args, **kwargs):
            env = factory(*args, **kwargs)
            self.envs[phase].append(_EnvCounter(env))
            return env
        return make

    def _timed(self, key):
        """make_wrapper adding each call's duration to clock[key]."""
        def make_wrapper(original):
            def probe(*args, **kwargs):
                start = time.perf_counter()
                try:
                    return original(*args, **kwargs)
                finally:
                    self.clock[key] += time.perf_counter() - start
            return probe
        return make_wrapper

    def install_boundaries(self):
        def train(original):
            timed = self._timed("train")(original)

            def probe(env_factory, *args, **kwargs):
                return timed(self._counting_factory(env_factory, "train"),
                             *args, **kwargs)
            return probe

        def evaluate(original):
            def probe(policy, env_factory, *args, **kwargs):
                return self._eval_clock(
                    original, policy,
                    self._counting_factory(env_factory, "eval"), *args, **kwargs)
            return probe

        def grid_search(original):
            def probe(*args, **kwargs):
                return self._eval_clock(original, *args, **kwargs)
            return probe

        def first_step(original):
            from kellylab.env import PortfolioEnv

            def probe(env, *args, **kwargs):
                self.first_step = time.monotonic()
                PortfolioEnv.step = original  # one call only
                return original(env, *args, **kwargs)
            return probe

        required = [
            self.wrap("kellylab.training:train", train),
            self.wrap("kellylab.training:evaluate", evaluate),
            self.wrap("kellylab.baselines:rs_baseline_grid_search", grid_search),
            self.wrap("kellylab.hmm:fit", self._timed("hmm_fit")),
            self.wrap("kellylab.env:PortfolioEnv.step", first_step),
        ]
        if not all(required):
            raise SystemExit(f"probe: cannot find {', '.join(self.missing)}")

    def _eval_clock(self, original, *args, **kwargs):
        """Time the outermost of evaluate / grid search (which nests it)."""
        self._eval_depth += 1
        start = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            self._eval_depth -= 1
            if self._eval_depth == 0:
                self.clock["eval"] += time.perf_counter() - start

    # -- spans (TRACE 1) -----------------------------------------------------

    def span(self, name, observe=None):
        """make_wrapper recording one span per call under `name`."""
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, active = self.spans, self._stack, self._active
        active[name_id] = 0
        perf_counter = time.perf_counter

        def make_wrapper(original):
            def traced(*args, **kwargs):
                index = len(spans)
                spans.append(None)
                parent = stack[-1]
                stack.append(index)
                active[name_id] += 1
                start = perf_counter()
                try:
                    result = original(*args, **kwargs)
                finally:
                    end = perf_counter()
                    stack.pop()
                    active[name_id] -= 1
                    # a span inside a span of its own layer is marked nested
                    # (negative name id) so busy time counts it once
                    spans[index] = (name_id if active[name_id] == 0
                                    else -1 - name_id, start, end, parent)
                if observe is not None:
                    observe(args, kwargs, result)
                return result
            return traced
        return make_wrapper

    def _count(self, key, amount):
        self.counters[key] = self.counters.get(key, 0) + amount

    def install_layers(self):
        def updates(args, kwargs, diag):
            applied = int(diag["n_minibatches"])
            self._count("rl.minibatches_applied", applied)
            self._count("rl.minibatches_attempted",
                        applied + (1 if diag.get("aborted") else 0))

        matmul_sizes = {}

        def flops(args, kwargs, terms):
            net, batch = args[0], args[1]
            key = id(net)
            if key not in matmul_sizes:
                matmul_sizes[key] = _dense_matmul_size(net)
            # forward x @ W, backward x.T @ dz and dz @ W.T: 3 matmuls of
            # 2 * rows * n_in * n_out flops each, per dense layer
            rows = len(batch.advantages)
            self._count("nets.flops_computed", 6 * rows * matmul_sizes[key])

        layers = [
            ("market.generate_path", ["kellylab.market:generate_path"], None),
            ("impact.trade_cost", ["kellylab.impact:trade_cost"], None),
            ("env.PortfolioEnv.step", ["kellylab.env:PortfolioEnv.step"], None),
            ("env.PortfolioEnv.reset", ["kellylab.env:PortfolioEnv.reset"],
             None),
            ("baselines.RegimeSwitchingPolicy.act",
             ["kellylab.baselines:RegimeSwitchingPolicy.act"], None),
            ("rl.act_and_value", ["kellylab.rl:act_and_value"], None),
            ("nets.forward", ["kellylab.nets:PolicyNet.forward",
                              "kellylab.nets:ContextPolicyNet.forward"], None),
            ("rl.ppo_update", ["kellylab.rl:ppo_update"], updates),
            ("rl.loss_and_grads", ["kellylab.rl:loss_and_grads"], flops),
            ("nets.backward", ["kellylab.nets:PolicyNet.backward",
                               "kellylab.nets:ContextPolicyNet.backward"], None),
            ("nets.Adam.step", ["kellylab.nets:Adam.step"], None),
            ("nets.clip_grad_norm", ["kellylab.nets:clip_grad_norm"], None),
            ("rl.gae_advantages", ["kellylab.rl:gae_advantages"], None),
            ("hmm.predict_current", ["kellylab.hmm:predict_current"], None),
            ("hmm.fit", ["kellylab.hmm:fit"], None),
            ("hmm.decode", ["kellylab.hmm:decode"], None),
            ("config.load_config", ["kellylab.config:load_config"], None),
            ("training.train", ["kellylab.training:train"], None),
            ("training.evaluate", ["kellylab.training:evaluate"], None),
            ("baselines.rs_baseline_grid_search",
             ["kellylab.baselines:rs_baseline_grid_search"], None),
            ("cli.write", ["kellylab.cli:_write_csv", "kellylab.cli:_write_manifest",
                           "kellylab.nets:save_checkpoint",
                           "kellylab.training:write_training_log",
                           "kellylab.hmm:save"], None),
        ]
        for name, targets, observe in layers:
            make_wrapper = self.span(name, observe)
            for target in targets:
                self.wrap(target, make_wrapper)

    # -- results -------------------------------------------------------------

    def stats(self) -> dict:
        return {
            "clock": self.clock,
            "train_steps": sum(c.steps for c in self.envs["train"]),
            "eval_steps": sum(c.steps for c in self.envs["eval"]),
            "first_step_monotonic": self.first_step,
            "counters": self.counters,
            "missing": self.missing,
        }


def _dense_matmul_size(net) -> int:
    """Sum of n_in * n_out over the net's dense layers (its 2-d parameters)."""
    return sum(p.value.shape[0] * p.value.shape[1] for p in net.params()
               if p.value.ndim == 2)


def main(argv) -> int:
    root, stats_path, trace, run_id = argv[1:5]
    if argv[5] != "--":
        raise SystemExit("usage: probe.py ROOT STATS_FILE TRACE RUN_ID -- ARGS")
    cli_args = argv[6:]
    src = os.path.join(root, "src")
    sys.path.insert(0, src)

    start = time.perf_counter()
    import kellylab
    import kellylab.cli
    import_s = time.perf_counter() - start
    if not os.path.realpath(kellylab.__file__).startswith(os.path.realpath(src)):
        raise SystemExit(f"probe: imported kellylab from {kellylab.__file__}")

    probes = Probes()
    if trace == "1":
        probes.install_layers()  # boundaries wrap outside the layer spans
    probes.install_boundaries()
    code = kellylab.cli.main(cli_args)

    stats = probes.stats()
    stats["exit_code"] = code
    stats["import_s"] = import_s
    stats["run_id"] = int(run_id)
    if trace == "1":
        stats["span_names"] = probes.names
        stats["spans"] = probes.spans
    with open(stats_path, "w") as f:
        json.dump(stats, f)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv))
