"""Experiment command line.

Every pipeline stage is a subcommand: simulate paths, solve for the analytic
optimum, train and evaluate agents, run the baseline and its grid search,
tabulate the growth surface, and fit the regime detector. (config, seed)
fully determines every output byte for byte; the run manifest (which carries
wall time) is the one exception.

Outputs land in --out, or under $KELLYLAB_OUT_ROOT/runs/<command>/<config-stem>/
by default, and appear whole or not at all (see main).
"""

import argparse
import ctypes
import gc
import hashlib
import importlib.util
import json
import os
import platform
import shutil
import sys
import time
from pathlib import Path

import numpy as np

from . import BLAS_VARS, __version__
from . import hmm as hmm_module
from .analytic import (
    expected_growth,
    optimal_weights,
    q_surface,
    stationary_distribution,
    switching_growth,
)
from .baselines import RegimeSwitchingPolicy, rs_baseline_grid_search
from .config import (
    CONFIG_FORMAT,
    ExperimentConfig,
    QSurfaceConfig,
    apply_override,
    build_config,
    load_config,
    load_sweep,
)
from .env import PortfolioEnv, episode_path
from .errors import KellylabError
from .nets import ContextPolicyNet, build_net, load_checkpoint, save_checkpoint
from .rl import DIAGNOSTICS
from .rng import HMM_STREAM, NET_INIT_STREAM, check_seed, stream
from .training import (
    EVAL_EPISODE_OFFSET,
    NetPolicy,
    check_context_window,
    check_detector_budget,
    evaluate,
    fmt as _fmt,
    train,
    write_csv as _write_csv,
    write_training_log,
)

# Once per process, after the imports: exit then skips collecting and freeing
# the ~25k objects numpy, yaml and kellylab make at import, one by one (a
# command exits ~20 ms sooner on a 2-vCPU Xeon). Not in main(), which tests
# call in-process hundreds of times; each freeze there would pin every cycle
# then alive for the rest of the process.
gc.freeze()

OUT_ROOT_VAR = "KELLYLAB_OUT_ROOT"

OPENBLAS_CORENAME = "scipy_openblas_get_corename64_"

EVAL_HEADER = ["seed", "mean_growth", "mad", "bankruptcies", "n_episodes"]


def _out_dir(args) -> Path:
    """The command's output directory, --out as given or its default."""
    if args.out is not None:
        return Path(args.out)
    root = Path(os.environ.get(OUT_ROOT_VAR, "."))
    return root / "runs" / args.command / Path(args.config).stem


def _publish(stage: Path, out: Path):
    """Move stage's entries to out: one rename while out does not exist, else
    one by one, replacing same-named files and keeping everything else."""
    if out.exists():
        for entry in stage.iterdir():
            os.replace(entry, out / entry.name)
        stage.rmdir()
    else:
        out.parent.mkdir(parents=True, exist_ok=True)
        os.rename(stage, out)


def _eval_row(seed: int, ev) -> list:
    """One EVAL_HEADER row of an evaluation result."""
    return [seed, *(_fmt(getattr(ev, k)) for k in EVAL_HEADER[1:])]


def _scipy_file(name):
    """The path of scipy's file name, found without importing scipy, or None."""
    spec = importlib.util.find_spec("scipy")
    for root in (spec.submodule_search_locations or ()) if spec else ():
        if os.path.isfile(os.path.join(root, name)):
            return os.path.join(root, name)
    return None


def _scipy_version() -> str:
    """scipy.__version__, read from scipy/version.py without importing scipy
    (~9 ms and ~0.9 MB that no command needs)."""
    path = _scipy_file("version.py")
    if path is None:
        import scipy

        return scipy.__version__
    spec = importlib.util.spec_from_file_location("scipy.version", path)
    version = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(version)
    return version.version


def _blas_kernel():
    """The core name (e.g. SkylakeX) of the OpenBLAS that numpy's wheel
    bundles and has loaded, which also runs the detector's solves, or None
    without that library or symbol. Output bits are reproducible only under
    the same kernel."""
    corename = hmm_module.openblas_function(OPENBLAS_CORENAME)
    if corename is None:
        return None
    corename.restype = ctypes.c_char_p
    return corename().decode()


def _write_manifest(out: Path, command: str, exp: ExperimentConfig, seeds,
                    started: float):
    manifest = {
        "blas": {"kernel": _blas_kernel(),
                 **{var: os.environ.get(var) for var in BLAS_VARS}},
        "command": command,
        "config_format": CONFIG_FORMAT,
        "config_sha256": hashlib.sha256(exp.dump().encode("utf-8")).hexdigest(),
        "seeds": [int(s) for s in seeds],
        "versions": {
            "kellylab": __version__,
            "numpy": np.__version__,
            "scipy": _scipy_version(),
            "python": platform.python_version(),
        },
        "wall_time_seconds": time.time() - started,
    }
    with open(out / "manifest.json", "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")


def _seeds(args, exp: ExperimentConfig):
    return [args.seed] if args.seed is not None else list(exp.run.seeds)


def _env_factory(exp: ExperimentConfig):
    return lambda master_seed: PortfolioEnv(exp.env, master_seed)


def _baseline_policy(exp: ExperimentConfig):
    """The analytic comparison policy the configuration describes."""
    bcfg = exp.baseline_settings
    targets = np.array([optimal_weights(reg) for reg in exp.market.regimes])
    return RegimeSwitchingPolicy(targets, bcfg.adjustment_periods, bcfg.fraction)


def _build_net(exp: ExperimentConfig, seed: int):
    header = {"kind": "policy", "obs_dim": exp.env.observation_dim,
              "action_dim": exp.env.n_assets, "init_log_std": exp.algo.init_log_std}
    if exp.context_policy:
        header.update(kind="context_policy", context_dim=exp.hmm.n_states)
    return build_net(header, stream(seed, NET_INIT_STREAM))


def _episodes(args, default: int) -> int:
    episodes = args.episodes if args.episodes is not None else default
    if episodes < 1:
        raise KellylabError(f"--episodes must be >= 1, got {episodes}")
    return episodes


# -- subcommands -------------------------------------------------------------
# Each takes (args, exp, out), writes into out and returns its seeds.


def cmd_simulate(args, exp: ExperimentConfig, out: Path):
    episodes = _episodes(args, 1)
    seed = _seeds(args, exp)[0]
    header = ["t", *(f"asset_{i}" for i in range(exp.env.n_assets)), "regime"]
    for ep in range(episodes):
        path = episode_path(exp.env, seed, ep)
        rows = ([t, *map(_fmt, prices), regime] for t, (prices, regime)
                in enumerate(zip(path.prices.tolist(), path.regimes.tolist())))
        _write_csv(out / f"path_{ep:03d}.csv", header, rows)
    print(f"wrote {episodes} path file(s) to {_out_dir(args)}")
    return [seed]


def cmd_solve(args, exp: ExperimentConfig, out: Path):
    market = exp.market
    n = market.n_assets
    rows = []
    growths = []
    for k, reg in enumerate(market.regimes):
        w = optimal_weights(reg)
        cash = 1.0 - float(w.sum())
        g = expected_growth(w, reg)
        growths.append(g)
        rows.append([k, *map(_fmt, (cash, *w, g))])
        weights = ", ".join(f"{x:.6f}" for x in w)
        print(f"regime {k}: cash {cash:.6f}, stocks [{weights}], "
              f"growth {g:.6f}")
    header = ["regime", "cash"] + [f"w_{i}" for i in range(n)] + ["growth"]
    _write_csv(out / "solve.csv", header, rows)
    if market.n_regimes > 1:
        pi = stationary_distribution(market.transition)
        g_switch = switching_growth(growths, pi)
        print(f"stationary distribution {np.array2string(pi, precision=6)}, "
              f"switching growth {g_switch:.6f}")
        _write_csv(
            out / "switching.csv",
            [f"pi_{k}" for k in range(market.n_regimes)] + ["switching_growth"],
            [[_fmt(float(p)) for p in pi] + [_fmt(float(g_switch))]],
        )
    return []


def _train_one(exp: ExperimentConfig, seed: int, out: Path):
    """Train one seed into out/: checkpoint, logs, detector, evaluation."""
    net = _build_net(exp, seed)
    hmm_config = exp.hmm if exp.context_policy else None
    result = train(_env_factory(exp), net, exp.algo, seed, hmm_config=hmm_config)
    out.mkdir()

    extra = {
        "seed": seed,
        "algo": exp.algo.algo,
        "context_policy": exp.context_policy,
    }
    if result.detector is not None:
        hmm_module.save(result.detector, out / "detector.json")
        extra["detector_file"] = "detector.json"
    save_checkpoint(net, out / "checkpoint.npz", extra_meta=extra)
    write_training_log(
        result.log, out / "training_log.csv", n_weights=exp.env.n_assets + 1
    )
    _write_csv(out / "updates.csv", ["update", *DIAGNOSTICS, "n_minibatches"],
               ([i, *(_fmt(d[k]) for k in DIAGNOSTICS), d["n_minibatches"]]
                for i, d in enumerate(result.updates)))

    ev = evaluate(
        NetPolicy(net, result.detector), _env_factory(exp),
        exp.run.eval_episodes, seed, episode_offset=EVAL_EPISODE_OFFSET,
    )
    _write_csv(out / "eval.csv", EVAL_HEADER, [_eval_row(seed, ev)])
    return ev


def cmd_train(args, exp: ExperimentConfig, out: Path):
    seeds = _seeds(args, exp)

    # every config is built and checked before the first run
    if args.sweep is None:
        key, sub_exps = None, [(None, exp)]
    else:
        base = exp.to_dict()
        key, values = load_sweep(args.sweep, base)
        sub_exps = [
            (value, build_config(apply_override(base, key, value),
                                 source=f"{args.sweep}: {key}={value}"))
            for value in values
        ]
    for _, sub_exp in sub_exps:
        if sub_exp.context_policy:
            check_detector_budget(sub_exp.env, sub_exp.algo, sub_exp.hmm)

    summary = []
    for value, sub_exp in sub_exps:
        label = "" if key is None else f"{key}={value}"
        for seed in seeds:
            print(f"training {label + ' ' if label else ''}seed {seed}")
            ev = _train_one(sub_exp, seed, out / f"seed{seed}")
            # whole and at once, while later seeds train or fail
            _publish(out / f"seed{seed}", _out_dir(args) / label / f"seed{seed}")
            row = _eval_row(seed, ev)
            summary.append(row if key is None else [value] + row)
            print(
                f"  eval: mean growth {ev.mean_growth:.6f}, MAD {ev.mad:.6f}, "
                f"bankruptcies {ev.bankruptcies}"
            )
    if key is None:
        _write_csv(out / "train_summary.csv", EVAL_HEADER, summary)
    else:
        _write_csv(out / "sweep_summary.csv", [key] + EVAL_HEADER, summary)
    return seeds


def _check_checkpoint_fits(path, net, detector, exp: ExperimentConfig):
    """Reject a checkpoint whose net or detector does not fit the config."""
    n = exp.env.n_assets
    fields = [("obs_dim", net.obs_dim, exp.env.observation_dim),
              ("action_dim", net.action_dim, n)]
    if detector is not None:
        fields += [("detector n_states", detector.n_states, net.context_dim),
                   ("detector n_features", detector.n_features, n)]
    for field, got, want in fields:
        if got != want:
            raise KellylabError(
                f"checkpoint {path} does not fit the config: {field} is "
                f"{got}, the config needs {want}"
            )
    if detector is not None:
        try:
            check_context_window(exp.env.window)
        except ValueError as err:
            raise KellylabError(
                f"checkpoint {path} does not fit the config: {err}") from None


def cmd_evaluate(args, exp: ExperimentConfig, out: Path):
    """evaluate and baseline: a checkpoint, or without one the analytic
    baseline, across seeds. baseline has no --checkpoint flag."""
    episodes = _episodes(args, exp.run.eval_episodes)
    seeds = _seeds(args, exp)

    checkpoint = getattr(args, "checkpoint", None)
    if checkpoint is not None:
        net, meta = load_checkpoint(checkpoint)
        detector = None
        if isinstance(net, ContextPolicyNet):
            detector_file = meta.get("extra", {}).get("detector_file")
            if not isinstance(detector_file, str):
                raise KellylabError(
                    f"cannot read checkpoint {checkpoint}: a context policy's "
                    f"header field 'extra.detector_file' must name its "
                    f"detector file, got {json.dumps(detector_file)}"
                )
            detector = hmm_module.load(Path(checkpoint).parent / detector_file)
        _check_checkpoint_fits(checkpoint, net, detector, exp)
        policy = NetPolicy(net, detector)
    else:
        policy = _baseline_policy(exp)

    rows = []
    for seed in seeds:
        result = evaluate(
            policy, _env_factory(exp), episodes, seed,
            episode_offset=EVAL_EPISODE_OFFSET,
        )
        rows.append(_eval_row(seed, result))
        print(
            f"seed {seed}: mean growth {result.mean_growth:.6f}, "
            f"MAD {result.mad:.6f}, bankruptcies {result.bankruptcies}"
            f"/{result.n_episodes}"
        )
    name = "eval.csv" if args.command == "evaluate" else "baseline.csv"
    _write_csv(out / name, EVAL_HEADER, rows)
    return seeds


def cmd_qsurface(args, exp: ExperimentConfig, out: Path):
    market = exp.market
    if market.n_regimes != 1 or market.n_assets != 2:
        raise KellylabError(
            "the growth surface needs a single-regime market with exactly "
            "2 assets"
        )
    grid = (exp.qsurface or QSurfaceConfig()).grid()
    surface = q_surface(market.regimes[0], grid, grid)
    rows = [
        [_fmt(float(grid[i])), _fmt(float(grid[j])), _fmt(float(surface[i, j]))]
        for i in range(grid.size)
        for j in range(grid.size)
    ]
    _write_csv(out / "qsurface.csv", ["w_1", "w_2", "growth"], rows)
    i, j = np.unravel_index(int(np.argmax(surface)), surface.shape)
    print(
        f"grid argmax at w = ({grid[i]:.6f}, {grid[j]:.6f}), growth "
        f"{surface[i, j]:.6f}"
    )
    return []


def cmd_hmm_fit(args, exp: ExperimentConfig, out: Path):
    seed = _seeds(args, exp)[0]
    n_fit = exp.run.hmm_fit_episodes
    n_eval = exp.run.hmm_eval_episodes
    fit_paths = [episode_path(exp.env, seed, ep) for ep in range(n_fit)]
    model = hmm_module.fit(
        [p.log_returns() for p in fit_paths], exp.hmm, stream(seed, HMM_STREAM)
    )

    # one global relabeling across all held-out episodes: regimes separate
    # mostly by covariance, so mean-based alignment is unreliable here
    eval_paths = [episode_path(exp.env, seed, ep)
                  for ep in range(n_fit, n_fit + n_eval)]
    # equal-length paths decode as one stack; Viterbi runs row by row
    decodes = hmm_module.decode(
        model, np.stack([p.log_returns() for p in eval_paths])
    )
    # regimes[t] made return t
    truths = np.stack([p.regimes[:-1] for p in eval_paths])
    perm = hmm_module.best_permutation(decodes.ravel(), truths.ravel())
    rows = []
    scores = []
    for ep, predicted, truth in zip(range(n_fit, n_fit + n_eval), decodes, truths):
        score = float(np.mean(perm[predicted] == truth))
        scores.append(score)
        rows.append([ep, _fmt(score)])
    hmm_module.save(model, out / "hmm.json")
    _write_csv(out / "hmm_eval.csv", ["episode", "accuracy"], rows)
    mean_acc = float(np.mean(scores))
    print(
        f"fitted {model.n_states}-state detector on {n_fit} episodes; mean "
        f"accuracy {mean_acc:.6f} over {n_eval} held-out episodes"
    )
    return [seed]


def cmd_gridsearch(args, exp: ExperimentConfig, out: Path):
    seed = _seeds(args, exp)[0]
    bcfg = exp.baseline_settings
    result = rs_baseline_grid_search(
        exp.env,
        fractions=bcfg.fractions,
        adjustment_grid=bcfg.adjustment_grid,
        episodes_per_cell=bcfg.episodes_per_cell,
        master_seed=seed,
    )
    columns = ["fraction", "adjustment_periods", "mean_growth", "bankruptcies"]
    _write_csv(out / "gridsearch.csv", columns,
               ([_fmt(cell[k]) for k in columns] for cell in result.table))
    print(
        f"best cell: fraction {result.fraction}, adjustment periods "
        f"{result.adjustment_periods}, mean growth {result.mean_growth:.6f}"
    )
    return [seed]


# -- entry point -------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kellylab",
        description="Growth-optimal portfolio laboratory: simulate, solve, "
        "train, evaluate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, episodes=False, checkpoint=False, sweep=False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="experiment YAML file")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config's seed list with one seed")
        p.add_argument("--out", default=None,
                       help=f"output directory (default: "
                            f"${OUT_ROOT_VAR}/runs/<command>/<config-stem>)")
        if episodes:
            p.add_argument("--episodes", type=int, default=None,
                           help="episode count override")
        if checkpoint:
            p.add_argument("--checkpoint", default=None,
                           help="trained checkpoint to evaluate (default: "
                                "the analytic baseline)")
        if sweep:
            p.add_argument("--sweep", default=None,
                           help="sweep YAML (key + values) to loop train/eval "
                                "over one config key")
        p.set_defaults(func=func)
        return p

    add("simulate", cmd_simulate, "write simulated price-path CSVs",
        episodes=True)
    add("solve", cmd_solve, "analytic optimal weights and growth rates")
    add("train", cmd_train, "train an agent per seed and evaluate it",
        sweep=True)
    add("evaluate", cmd_evaluate,
        "evaluate a checkpoint (or the analytic baseline) across seeds",
        episodes=True, checkpoint=True)
    add("baseline", cmd_evaluate,
        "evaluate the analytic baseline policy (evaluate without "
        "--checkpoint, writing baseline.csv)", episodes=True)
    add("qsurface", cmd_qsurface, "tabulate the 2-asset growth surface")
    add("hmm-fit", cmd_hmm_fit,
        "fit the regime detector on simulated episodes and score it")
    add("gridsearch", cmd_gridsearch,
        "grid-search the baseline's fraction and ramp length")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.seed is not None:
            check_seed(args.seed, "--seed")
        started = time.time()
        # a hidden stage: a failed or interrupted command creates no directory
        out = _out_dir(args)
        path = out.resolve()
        home = next(p for p in (path, *path.parents) if p.exists())
        if not home.is_dir():
            raise KellylabError(f"--out {out}: {home} is not a directory")
        exp = load_config(args.config)
        stage = home / f".{path.name}.{os.getpid()}.partial"
        stage.mkdir()
        try:
            # a non-finite value ends in bankruptcy or an error line, not a warning
            with np.errstate(all="ignore"):
                seeds = args.func(args, exp, stage)
            _write_manifest(stage, args.command, exp, seeds, started)
            _publish(stage, out)
        finally:
            shutil.rmtree(stage, ignore_errors=True)
        return 0
    except Exception as exc:  # KeyboardInterrupt is no Exception: it propagates
        message = str(exc)
        if not isinstance(exc, (KellylabError, OSError, ValueError)):
            message = f"{type(exc).__name__}: {message}"  # not an expected failure
        print(f"error: {' '.join(message.splitlines())}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
