"""Experiment command line.

Every pipeline stage is a subcommand: simulate paths, solve for the analytic
optimum, train and evaluate agents, run the baseline and its grid search,
tabulate the growth surface, and fit the regime detector. (config, seed)
fully determines every output byte for byte; the run manifest (which carries
wall time) is the one exception.

Outputs land in --out, or under $KELLYLAB_OUT_ROOT/runs/<command>/<config-stem>/
by default.
"""

import argparse
import csv
import hashlib
import json
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from . import hmm as hmm_module
from .analytic import (
    expected_growth,
    fractional_weights,
    optimal_weights,
    q_surface,
    stationary_distribution,
    switching_growth,
)
from .baselines import (
    FixedWeightPolicy,
    RegimeSwitchingPolicy,
    StaggeredPolicy,
    rs_baseline_grid_search,
)
from .config import (
    CONFIG_FORMAT,
    BaselineConfig,
    ExperimentConfig,
    apply_override,
    build_config,
    load_config,
    load_sweep,
)
from .env import PortfolioEnv
from .errors import KellylabError
from .market import generate_path
from .nets import ContextPolicyNet, PolicyNet, load_checkpoint, save_checkpoint
from .rng import HMM_STREAM, NET_INIT_STREAM, episode_stream, stream
from .training import (
    EVAL_EPISODE_OFFSET,
    NetPolicy,
    check_detector_budget,
    evaluate,
    train,
    write_training_log,
)

OUT_ROOT_VAR = "KELLYLAB_OUT_ROOT"

EVAL_HEADER = ["seed", "mean_growth", "mad", "bankruptcies", "n_episodes"]


def _out_dir(args, command: str) -> Path:
    if args.out is not None:
        out = Path(args.out)
    else:
        root = Path(os.environ.get(OUT_ROOT_VAR, "."))
        out = root / "runs" / command / Path(args.config).stem
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)


def _fmt(value) -> str:
    """repr for floats (lossless), str for the rest."""
    if isinstance(value, float):
        return repr(float(value))  # plain float: numpy scalars repr verbosely
    return str(value)


def _write_manifest(out: Path, command: str, exp: ExperimentConfig, seeds,
                    started: float):
    manifest = {
        "command": command,
        "config_format": CONFIG_FORMAT,
        "config_sha256": hashlib.sha256(exp.dump().encode("utf-8")).hexdigest(),
        "seeds": [int(s) for s in seeds],
        "versions": {
            "kellylab": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
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
    bcfg = exp.baseline if exp.baseline is not None else BaselineConfig()
    market = exp.market
    if market.n_regimes == 1:
        w = fractional_weights(optimal_weights(market.regimes[0]), bcfg.fraction)
        if bcfg.adjustment_periods > 1:
            return StaggeredPolicy(w.stocks, bcfg.adjustment_periods)
        return FixedWeightPolicy(w.stocks)
    targets = np.array([optimal_weights(reg).stocks for reg in market.regimes])
    return RegimeSwitchingPolicy(
        targets,
        adjustment_periods=bcfg.adjustment_periods,
        fraction=bcfg.fraction,
        use_true_regime=True,
    )


def _build_net(exp: ExperimentConfig, seed: int):
    init_rng = stream(seed, NET_INIT_STREAM)
    obs_dim = exp.env.observation_dim
    n = exp.env.n_assets
    if exp.context_policy:
        return ContextPolicyNet(
            obs_dim, exp.hmm.n_states, n, init_rng,
            init_log_std=exp.algo.init_log_std,
        )
    return PolicyNet(obs_dim, n, init_rng, init_log_std=exp.algo.init_log_std)


def _episodes(args, default: int) -> int:
    episodes = args.episodes if args.episodes is not None else default
    if episodes < 1:
        raise KellylabError(f"--episodes must be >= 1, got {episodes}")
    return episodes


def _eval_seeds(policy, exp, seeds, episodes):
    rows = []
    for seed in seeds:
        result = evaluate(
            policy, _env_factory(exp), episodes, seed,
            episode_offset=EVAL_EPISODE_OFFSET,
        )
        rows.append(
            [
                seed,
                _fmt(result.mean_growth),
                _fmt(result.mad),
                result.bankruptcies,
                result.n_episodes,
            ]
        )
        print(
            f"seed {seed}: mean growth {result.mean_growth:.6f}, "
            f"MAD {result.mad:.6f}, bankruptcies {result.bankruptcies}"
            f"/{result.n_episodes}"
        )
    return rows


# -- subcommands -------------------------------------------------------------


def cmd_simulate(args) -> int:
    started = time.time()
    exp = load_config(args.config)
    episodes = _episodes(args, 1)
    out = _out_dir(args, "simulate")
    seed = args.seed if args.seed is not None else exp.run.seeds[0]
    cfg = exp.env
    for ep in range(episodes):
        path = generate_path(
            cfg.market,
            cfg.n_periods,
            cfg.dt,
            episode_stream(seed, ep),
            warmup=cfg.window - 1,
        )
        path.write_csv(out / f"path_{ep:03d}.csv")
    print(f"wrote {episodes} path file(s) to {out}")
    _write_manifest(out, "simulate", exp, [seed], started)
    return 0


def cmd_solve(args) -> int:
    started = time.time()
    exp = load_config(args.config)
    out = _out_dir(args, "solve")
    market = exp.market
    n = market.n_assets
    rows = []
    growths = []
    for k, reg in enumerate(market.regimes):
        w = optimal_weights(reg)
        g = expected_growth(w, reg)
        growths.append(g)
        rows.append([k, _fmt(float(w.cash))] + [_fmt(float(x)) for x in w.stocks]
                    + [_fmt(float(g))])
        weights = ", ".join(f"{x:.6f}" for x in w.stocks)
        print(f"regime {k}: cash {w.cash:.6f}, stocks [{weights}], "
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
    _write_manifest(out, "solve", exp, [], started)
    return 0


def _train_one(exp: ExperimentConfig, seed: int, out: Path):
    """Train one seed into out/: checkpoint, logs, detector, evaluation."""
    out.mkdir(parents=True, exist_ok=True)
    net = _build_net(exp, seed)
    hmm_config = exp.hmm if exp.context_policy else None
    result = train(_env_factory(exp), net, exp.algo, seed, hmm_config=hmm_config)

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
    update_rows = [
        [i, _fmt(d["loss"]), _fmt(d["policy_loss"]), _fmt(d["value_loss"]),
         _fmt(d["entropy"]), _fmt(d["clip_fraction"]), _fmt(d["approx_kl"]),
         _fmt(d["grad_norm"]), d["n_minibatches"]]
        for i, d in enumerate(result.updates)
    ]
    _write_csv(
        out / "updates.csv",
        ["update", "loss", "policy_loss", "value_loss", "entropy",
         "clip_fraction", "approx_kl", "grad_norm", "n_minibatches"],
        update_rows,
    )

    ev = evaluate(
        NetPolicy(net, result.detector), _env_factory(exp),
        exp.run.eval_episodes, seed, episode_offset=EVAL_EPISODE_OFFSET,
    )
    _write_csv(
        out / "eval.csv",
        EVAL_HEADER,
        [[seed, _fmt(ev.mean_growth), _fmt(ev.mad), ev.bankruptcies,
          ev.n_episodes]],
    )
    return ev


def cmd_train(args) -> int:
    started = time.time()
    exp = load_config(args.config)
    seeds = _seeds(args, exp)

    # every config is built and checked before the first run
    if args.sweep is None:
        sweep, sub_exps = None, [(None, exp)]
    else:
        base = exp.to_dict()
        sweep = load_sweep(args.sweep, base)
        sub_exps = [
            (value, build_config(apply_override(base, sweep.key, value),
                                 source=f"{args.sweep}: {sweep.key}={value}"))
            for value in sweep.values
        ]
    for _, sub_exp in sub_exps:
        if sub_exp.context_policy:
            check_detector_budget(sub_exp.env, sub_exp.algo)
    out = _out_dir(args, "train")

    summary = []
    for value, sub_exp in sub_exps:
        label = "" if sweep is None else f"{sweep.key}={value}"
        for seed in seeds:
            print(f"training {label + ' ' if label else ''}seed {seed}")
            ev = _train_one(sub_exp, seed, out / label / f"seed{seed}")
            row = [seed, _fmt(ev.mean_growth), _fmt(ev.mad), ev.bankruptcies,
                   ev.n_episodes]
            summary.append(row if sweep is None else [value] + row)
            print(
                f"  eval: mean growth {ev.mean_growth:.6f}, MAD {ev.mad:.6f}, "
                f"bankruptcies {ev.bankruptcies}"
            )
    if sweep is None:
        _write_csv(out / "train_summary.csv", EVAL_HEADER, summary)
    else:
        _write_csv(out / "sweep_summary.csv", [sweep.key] + EVAL_HEADER, summary)
    _write_manifest(out, "train", exp, seeds, started)
    return 0


def cmd_evaluate(args) -> int:
    started = time.time()
    exp = load_config(args.config)
    episodes = _episodes(args, exp.run.eval_episodes)
    seeds = _seeds(args, exp)

    if args.checkpoint is not None:
        net, meta = load_checkpoint(args.checkpoint)
        detector = None
        if isinstance(net, ContextPolicyNet):
            detector_file = meta.get("extra", {}).get("detector_file")
            if detector_file is None:
                raise KellylabError(
                    "checkpoint holds a context policy but records no "
                    "detector file"
                )
            detector = hmm_module.load(Path(args.checkpoint).parent / detector_file)
        policy = NetPolicy(net, detector)
    else:
        policy = _baseline_policy(exp)

    out = _out_dir(args, "evaluate")
    rows = _eval_seeds(policy, exp, seeds, episodes)
    _write_csv(out / "eval.csv", EVAL_HEADER, rows)
    _write_manifest(out, "evaluate", exp, seeds, started)
    return 0


def cmd_baseline(args) -> int:
    started = time.time()
    exp = load_config(args.config)
    episodes = _episodes(args, exp.run.eval_episodes)
    out = _out_dir(args, "baseline")
    seeds = _seeds(args, exp)
    policy = _baseline_policy(exp)
    rows = _eval_seeds(policy, exp, seeds, episodes)
    _write_csv(out / "baseline.csv", EVAL_HEADER, rows)
    _write_manifest(out, "baseline", exp, seeds, started)
    return 0


def cmd_qsurface(args) -> int:
    started = time.time()
    exp = load_config(args.config)
    out = _out_dir(args, "qsurface")
    market = exp.market
    if market.n_regimes != 1 or market.n_assets != 2:
        raise KellylabError(
            "the growth surface needs a single-regime market with exactly "
            "2 assets"
        )
    qcfg = exp.qsurface
    if qcfg is None:
        from .config import QSurfaceConfig

        qcfg = QSurfaceConfig()
    grid = qcfg.grid()
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
    _write_manifest(out, "qsurface", exp, [], started)
    return 0


def cmd_hmm_fit(args) -> int:
    started = time.time()
    exp = load_config(args.config)
    out = _out_dir(args, "hmm-fit")
    seed = args.seed if args.seed is not None else exp.run.seeds[0]
    cfg = exp.env
    n_fit = exp.run.hmm_fit_episodes
    n_eval = exp.run.hmm_eval_episodes

    def episode_paths(lo, hi):
        return [
            generate_path(
                cfg.market, cfg.n_periods, cfg.dt, episode_stream(seed, ep),
                warmup=cfg.window - 1,
            )
            for ep in range(lo, hi)
        ]

    fit_paths = episode_paths(0, n_fit)
    model = hmm_module.fit(
        [p.log_returns() for p in fit_paths], exp.hmm, stream(seed, HMM_STREAM)
    )
    hmm_module.save(model, out / "hmm.json")

    # one global relabeling across all held-out episodes: regimes separate
    # mostly by covariance, so mean-based alignment is unreliable here
    eval_paths = episode_paths(n_fit, n_fit + n_eval)
    decodes = [hmm_module.decode(model, p.log_returns()) for p in eval_paths]
    truths = [p.regimes[:-1] for p in eval_paths]  # regimes[t] made return t
    perm = hmm_module.best_permutation(
        np.concatenate(decodes), np.concatenate(truths)
    )
    rows = []
    scores = []
    for ep, predicted, truth in zip(range(n_fit, n_fit + n_eval), decodes, truths):
        score = float(np.mean(perm[predicted] == truth))
        scores.append(score)
        rows.append([ep, _fmt(score)])
    _write_csv(out / "hmm_eval.csv", ["episode", "accuracy"], rows)
    mean_acc = float(np.mean(scores))
    print(
        f"fitted {model.n_states}-state detector on {n_fit} episodes; mean "
        f"accuracy {mean_acc:.6f} over {n_eval} held-out episodes"
    )
    _write_manifest(out, "hmm-fit", exp, [seed], started)
    return 0


def cmd_gridsearch(args) -> int:
    started = time.time()
    exp = load_config(args.config)
    out = _out_dir(args, "gridsearch")
    seed = args.seed if args.seed is not None else exp.run.seeds[0]
    bcfg = exp.baseline if exp.baseline is not None else BaselineConfig()
    result = rs_baseline_grid_search(
        exp.env,
        fractions=bcfg.fractions,
        adjustment_grid=bcfg.adjustment_grid,
        episodes_per_cell=bcfg.episodes_per_cell,
        master_seed=seed,
    )
    rows = [
        [_fmt(c["fraction"]), c["adjustment_periods"], _fmt(c["mean_growth"]),
         c["bankruptcies"]]
        for c in result.table
    ]
    _write_csv(
        out / "gridsearch.csv",
        ["fraction", "adjustment_periods", "mean_growth", "bankruptcies"],
        rows,
    )
    print(
        f"best cell: fraction {result.fraction}, adjustment periods "
        f"{result.adjustment_periods}, mean growth {result.mean_growth:.6f}"
    )
    _write_manifest(out, "gridsearch", exp, [seed], started)
    return 0


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
    add("baseline", cmd_baseline, "evaluate the analytic baseline policy",
        episodes=True)
    add("qsurface", cmd_qsurface, "tabulate the 2-asset growth surface")
    add("hmm-fit", cmd_hmm_fit,
        "fit the regime detector on simulated episodes and score it")
    add("gridsearch", cmd_gridsearch,
        "grid-search the baseline's fraction and ramp length")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # KeyboardInterrupt is no Exception: it propagates
        message = str(exc)
        if not isinstance(exc, (KellylabError, OSError, ValueError)):
            message = f"{type(exc).__name__}: {message}"  # not an expected failure
        print(f"error: {' '.join(message.splitlines())}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
