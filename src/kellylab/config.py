"""Experiment configuration: a versioned YAML schema with line-precise errors.

One file describes a full experiment: the market (one regime or a Markov
chain of them), impact coefficients, episode geometry, the training
hyperparameters, the regime-detector settings, and the run plan (seeds and
evaluation episode counts).

Each block has one field table below. It maps every YAML key of the block
to its kind, in dump order; "!" marks a required key and "?" a key whose
null means absent. The tables are the only list of a block's keys: _read
rejects unknown keys, reports missing ones and parses the rest by kind,
_build constructs the block's dataclass, and _dump writes it back. Absent
keys are not passed, so their defaults are the dataclasses' own. Numbers
must be finite.

Every violation is a ConfigError with the offending file:line and dotted
key path. to_dict() emits the fully resolved state, so dump/parse round
trips are idempotent byte-for-byte.
"""

import copy
import sys
from dataclasses import dataclass

import numpy as np
import yaml

from .analytic import stationary_distribution
from .env import EnvConfig
from .errors import ConfigError
from .hmm import HmmFitConfig
from .impact import ImpactParams
from .market import MarketParams, RegimeModel
from .rl import TrainConfig

CONFIG_FORMAT = "yaml/1"


def _line_map(root) -> dict:
    """Dotted key path -> 1-based source line, from the YAML node tree."""
    lines = {}

    def walk(node, path):
        if node is None:
            return
        if path not in lines:
            lines[path] = node.start_mark.line + 1
        if isinstance(node, yaml.MappingNode):
            for key_node, value_node in node.value:
                child = f"{path}.{key_node.value}" if path else str(key_node.value)
                lines[child] = key_node.start_mark.line + 1
                walk(value_node, child)
        elif isinstance(node, yaml.SequenceNode):
            for i, item in enumerate(node.value):
                walk(item, f"{path}[{i}]")

    walk(root, "")
    return lines


def _load_yaml(text: str, filename):
    """One SafeLoader pass over text: its data and its line map."""
    loader = yaml.SafeLoader(text)
    try:
        node = loader.get_single_node()
        # map lines first: constructing flattens merge keys in the tree
        lines = _line_map(node)
        data = None if node is None else loader.construct_document(node)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        line = None if mark is None else mark.line + 1
        raise ConfigError(str(exc), line=line, filename=filename) from exc
    finally:
        loader.dispose()
    return data, lines


class _Ctx:
    def __init__(self, lines: dict, filename):
        self.lines = lines
        self.filename = filename

    def fail(self, path, message):
        line = self.lines.get(path)
        raise ConfigError(message, path or None, line, self.filename)


def _join(path: str, key) -> str:
    return f"{path}.{key}" if path else str(key)


def _number(value, path, ctx) -> float:
    # tolerate "1e-9": YAML 1.1 resolves exponent-only floats as strings
    if isinstance(value, str):
        try:
            value = float(value)
        except ValueError:
            pass
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        ctx.fail(path, f"expected a number, got {value!r}")
    if not abs(value) <= sys.float_info.max:  # nan, inf, or an int past float
        ctx.fail(path, f"expected a finite number, got {value!r}")
    return float(value)


def _integer(value, path, ctx) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        ctx.fail(path, f"expected an integer, got {value!r}")
    return value


def _boolean(value, path, ctx) -> bool:
    if not isinstance(value, bool):
        ctx.fail(path, f"expected true/false, got {value!r}")
    return value


def _string(value, path, ctx) -> str:
    if not isinstance(value, str):
        ctx.fail(path, f"expected a string, got {value!r}")
    return value


def _mapping(value, path, ctx) -> dict:
    if not isinstance(value, dict):
        ctx.fail(path, f"expected a mapping, got {type(value).__name__}")
    return value


def _list_of(item, what):
    def parse(value, path, ctx) -> list:
        if not isinstance(value, list) or not value:
            ctx.fail(path, f"expected a non-empty list of {what}")
        return [item(v, f"{path}[{i}]", ctx) for i, v in enumerate(value)]

    return parse


def _row(value, path, ctx) -> list:
    if not isinstance(value, list):
        ctx.fail(path, "expected a list of numbers")
    return [_number(v, f"{path}[{j}]", ctx) for j, v in enumerate(value)]


_numbers = _list_of(_number, "numbers")


def _regime(node, path, ctx) -> MarketParams:
    values = _read(node, path, ctx, _REGIME)
    values.pop("name", None)  # a label for the reader, not a parameter
    return _build(MarketParams, path, ctx, **values)


def _distribution(value, path, ctx):
    if isinstance(value, str):
        if value != "stationary":
            ctx.fail(
                path,
                f"expected 'stationary' or a list of probabilities, got {value!r}",
            )
        return value
    return _numbers(value, path, ctx)


def _floats(values) -> list:
    return [float(x) for x in values]


# kind -> (parse(value, path, ctx), dump(value))
_KINDS = {
    "number": (_number, float),
    "integer": (_integer, int),
    "boolean": (_boolean, bool),
    "string": (_string, str),
    "numbers": (_numbers, _floats),
    "integers": (_list_of(_integer, "integers"), lambda v: [int(x) for x in v]),
    "matrix": (_list_of(_row, "rows"), lambda v: [_floats(row) for row in v]),
    "mapping": (_mapping, dict),
    "regimes": (
        _list_of(_regime, "regime mappings"),
        lambda v: [_dump(p, _REGIME) for p in v],
    ),
    "distribution": (_distribution, _floats),
    "any": (lambda value, path, ctx: value, None),
}

_ROOT = {
    "market": "mapping!",
    "impact": "mapping!",
    "env": "mapping!",
    "algo": "mapping!",
    "hmm": "mapping?",
    "run": "mapping?",
    "baseline": "mapping?",
    "qsurface": "mapping?",
}
_REGIME = {
    "mu": "numbers!",
    "sigma": "numbers!",
    "corr": "matrix!",
    "cash_rate": "number!",
    "name": "any",
}
_MARKET = {
    "regimes": "regimes!",
    "transition": "matrix",
    "initial_dist": "distribution",
}
_IMPACT = {"eta": "number!", "gamma": "number!"}
_ENV = {
    "horizon_years": "number!",
    "periods_per_year": "integer!",
    "window": "integer!",
    "initial_wealth": "number!",
    "discount": "number",
}
_ALGO = {
    "name": "string!",
    "total_steps": "integer!",
    "context_policy": "boolean",
    "learning_rate": "number",
    "rollout_steps": "integer",
    "batch_size": "integer",
    "n_epochs": "integer",
    "clip_range": "number",
    "discount": "number",
    "gae_lambda": "number",
    "value_coef": "number",
    "entropy_coef": "number",
    "max_grad_norm": "number",
    "clipping_enabled": "boolean",
    "init_log_std": "number",
    "advantage_normalization": "boolean",
}
_HMM = {
    "n_states": "integer",
    "n_init": "integer",
    "max_iter": "integer",
    "tol": "number",
    "mean_prior": "number",
    "covar_prior": "number",
    "min_covar": "number",
}
_RUN = {
    "seeds": "integers",
    "eval_episodes": "integer",
    "hmm_fit_episodes": "integer",
    "hmm_eval_episodes": "integer",
}
_BASELINE = {
    "fraction": "number",
    "adjustment_periods": "integer",
    "use_true_regime": "boolean",
    "episodes_per_cell": "integer",
    "fractions": "numbers?",
    "adjustment_grid": "integers?",
}
_QSURFACE = {"w_min": "number", "w_max": "number", "steps": "integer"}
_SWEEP = {"key": "string!", "values": "any!"}


def _read(node, path: str, ctx: _Ctx, table: dict) -> dict:
    """Parse one mapping block by its table; absent keys are left out."""
    _mapping(node, path, ctx)
    for key in node:
        if key not in table:
            ctx.fail(
                _join(path, key),
                f"unknown key {key!r} (expected one of: {', '.join(sorted(table))})",
            )
    values = {}
    for key, kind in table.items():
        if key not in node:
            if kind.endswith("!"):
                ctx.fail(path, f"missing required key {key!r}")
        elif node[key] is not None or not kind.endswith("?"):
            parse = _KINDS[kind.rstrip("!?")][0]
            values[key] = parse(node[key], _join(path, key), ctx)
    return values


def _build(make, path: str, ctx: _Ctx, **values):
    """make(**values), reporting a ValueError at path and a ConfigError at
    its own path, both with the line."""
    try:
        return make(**values)
    except ConfigError as exc:
        ctx.fail(exc.path or path, exc.message)
    except ValueError as exc:
        ctx.fail(path, str(exc))


def _dump(obj, table: dict, **extra) -> dict:
    """A block's resolved values as plain YAML data, in table order."""
    values = {**vars(obj), **extra}
    out = {}
    for key, kind in table.items():
        if values.get(key) is not None:
            out[key] = _KINDS[kind.rstrip("!?")][1](values[key])
    return out


@dataclass
class RunConfig:
    seeds: tuple = (0,)
    eval_episodes: int = 400
    hmm_fit_episodes: int = 10
    hmm_eval_episodes: int = 10

    def __post_init__(self):
        self.seeds = tuple(int(s) for s in self.seeds)
        if not self.seeds:
            raise ValueError("seeds must be non-empty")
        for name in ("eval_episodes", "hmm_fit_episodes", "hmm_eval_episodes"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


@dataclass
class BaselineConfig:
    """Settings for analytic-baseline evaluation and the ramp grid search."""

    fraction: float = 1.0
    adjustment_periods: int = 1
    use_true_regime: bool = True
    episodes_per_cell: int = 20
    fractions: tuple = None
    adjustment_grid: tuple = None

    def __post_init__(self):
        if not 0.0 < self.fraction <= 1.0:
            raise ValueError(f"fraction must be in (0, 1], got {self.fraction}")
        if self.adjustment_periods < 1:
            raise ValueError("adjustment_periods must be >= 1")
        if self.episodes_per_cell < 1:
            raise ValueError("episodes_per_cell must be >= 1")
        if self.fractions is not None:
            self.fractions = tuple(float(f) for f in self.fractions)
        if self.adjustment_grid is not None:
            self.adjustment_grid = tuple(int(n) for n in self.adjustment_grid)


@dataclass
class QSurfaceConfig:
    w_min: float = -1.0
    w_max: float = 3.0
    steps: int = 41

    def __post_init__(self):
        if not self.w_max > self.w_min:
            raise ValueError("w_max must exceed w_min")
        if self.steps < 2:
            raise ValueError("steps must be >= 2")

    def grid(self) -> np.ndarray:
        return np.linspace(self.w_min, self.w_max, self.steps)


@dataclass
class ExperimentConfig:
    env: EnvConfig
    algo: TrainConfig
    context_policy: bool
    hmm: HmmFitConfig
    run: RunConfig
    baseline: BaselineConfig = None
    qsurface: QSurfaceConfig = None

    @property
    def market(self) -> RegimeModel:
        return self.env.market

    @property
    def impact(self) -> ImpactParams:
        return self.env.impact

    def to_dict(self) -> dict:
        return _dump(
            self,
            _ROOT,
            market=_dump(self.market, _MARKET),
            impact=_dump(self.impact, _IMPACT),
            env=_dump(self.env, _ENV),
            algo=_dump(self.algo, _ALGO, name=self.algo.algo,
                       context_policy=self.context_policy),
            hmm=_dump(self.hmm, _HMM),
            run=_dump(self.run, _RUN),
            baseline=self.baseline and _dump(self.baseline, _BASELINE),
            qsurface=self.qsurface and _dump(self.qsurface, _QSURFACE),
        )

    def dump(self) -> str:
        return yaml.safe_dump(self.to_dict(), sort_keys=False)

    def save(self, path):
        with open(path, "w") as fh:
            fh.write(self.dump())


def _parse_market(node: dict, ctx: _Ctx) -> RegimeModel:
    if "regimes" not in node:
        # single-regime sugar: the market block is itself a regime table
        params = _regime(node, "market", ctx)
        return _build(RegimeModel.single, "market", ctx, params=params)
    values = _read(node, "market", ctx, _MARKET)
    k = len(values["regimes"])
    if k > 1 and "transition" not in values:
        ctx.fail("market", f"{k} regimes need a transition matrix")
    transition = values.get("transition", np.ones((1, 1)))
    initial = values.get("initial_dist", "stationary")
    if isinstance(initial, str):
        initial = np.ones(1) if k == 1 else _build(
            stationary_distribution, "market.transition", ctx, P=transition
        )
    return _build(
        RegimeModel, "market", ctx,
        regimes=values["regimes"], transition=transition, initial_dist=initial,
    )


def _parse(data, ctx: _Ctx) -> ExperimentConfig:
    blocks = _read(data, "", ctx, _ROOT)

    def block(key, table, make, **extra):
        values = _read(blocks.get(key, {}), key, ctx, table)
        return _build(make, key, ctx, **extra, **values)

    market = _parse_market(blocks["market"], ctx)
    impact = block("impact", _IMPACT, ImpactParams)
    env = block("env", _ENV, EnvConfig, market=market, impact=impact)

    algo = _read(blocks["algo"], "algo", ctx, _ALGO)
    name = algo.pop("name")
    if name not in ("ppo", "a2c"):
        ctx.fail("algo.name", f"algo must be 'ppo' or 'a2c', got {name!r}")
    context_policy = algo.pop("context_policy", False)
    # the discount lives in the env block; an algo-level value overrides it
    algo.setdefault("discount", env.discount)
    builder = TrainConfig.ppo if name == "ppo" else TrainConfig.a2c
    train = _build(builder, "algo", ctx, **algo)

    if context_policy and "hmm" not in blocks:
        ctx.fail("algo.context_policy", "a context policy needs an explicit "
                 "hmm block for its regime detector")
    hmm = block("hmm", _HMM, HmmFitConfig)
    if context_policy and market.n_regimes < 2:
        ctx.fail("algo.context_policy",
                 "a context policy needs a regime-switching market (>= 2 regimes)")
    baseline = qsurface = None
    if "baseline" in blocks:
        baseline = block("baseline", _BASELINE, BaselineConfig)
    if "qsurface" in blocks:
        qsurface = block("qsurface", _QSURFACE, QSurfaceConfig)
    return ExperimentConfig(
        env=env, algo=train, context_policy=context_policy, hmm=hmm,
        run=block("run", _RUN, RunConfig), baseline=baseline, qsurface=qsurface,
    )


def parse_config(text: str, filename=None) -> ExperimentConfig:
    data, lines = _load_yaml(text, filename)
    return _parse({} if data is None else data, _Ctx(lines, filename))


def build_config(data: dict, source=None) -> ExperimentConfig:
    """The config for an already loaded mapping, such as an override of
    to_dict(). Errors name `source` in place of a file and carry no line."""
    return _parse(data, _Ctx({}, source))


def load_config(path) -> ExperimentConfig:
    with open(path) as fh:
        text = fh.read()
    return parse_config(text, filename=str(path))


@dataclass
class SweepSpec:
    """One dotted config key and the values to sweep it over."""

    key: str
    values: list

    def __post_init__(self):
        if not self.key or "." not in self.key:
            raise ValueError(
                f"sweep key must be a dotted path into the config, got {self.key!r}"
            )
        if not self.values:
            raise ValueError("sweep values must be non-empty")


def load_sweep(path, config: dict) -> SweepSpec:
    """Parse a sweep over `config` (a to_dict() mapping); a key whose parent
    blocks are missing there fails at the key's line."""
    with open(path) as fh:
        text = fh.read()
    data, lines = _load_yaml(text, str(path))
    ctx = _Ctx(lines, str(path))
    spec = _read(data, "", ctx, _SWEEP)
    if not isinstance(spec["values"], list) or not spec["values"]:
        ctx.fail("values", "expected a non-empty list")
    sweep = _build(SweepSpec, "", ctx, **spec)
    try:
        apply_override(config, sweep.key, None)
    except ConfigError as exc:
        ctx.fail("key", exc.message)
    return sweep


def apply_override(data: dict, dotted_key: str, value) -> dict:
    """Set one dotted key in a nested config dict, returning a deep copy.

    The parent blocks must already exist (typo protection); the leaf itself
    may be new, since omitted keys fall back to defaults.
    """
    out = copy.deepcopy(data)
    parts = dotted_key.split(".")
    node = out
    for i, part in enumerate(parts[:-1]):
        if not isinstance(node, dict) or part not in node:
            raise ConfigError(
                f"no such config block {'.'.join(parts[: i + 1])!r}",
                path=dotted_key,
            )
        node = node[part]
    if not isinstance(node, dict):
        raise ConfigError(
            f"{'.'.join(parts[:-1])!r} is not a mapping", path=dotted_key
        )
    node[parts[-1]] = value
    return out
