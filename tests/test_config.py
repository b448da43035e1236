"""YAML experiment configs: parsing, validation, round trips, overrides."""

import re
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from kellylab.config import (
    CONFIG_FORMAT,
    BaselineConfig,
    QSurfaceConfig,
    RunConfig,
    apply_override,
    load_config,
    load_sweep,
    parse_config,
)
from kellylab.errors import ConfigError

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

MINIMAL = """\
market:
  mu: [0.12]
  sigma: [0.2]
  corr: [[1.0]]
  cash_rate: 0.04
impact:
  eta: 0.0
  gamma: 0.0
env:
  horizon_years: 0.0625
  periods_per_year: 256
  window: 2
  initial_wealth: 1000.0
algo:
  name: ppo
  total_steps: 1280
"""

TWO_REGIME = """\
market:
  regimes:
  - mu: [0.10]
    sigma: [0.12]
    corr: [[1.0]]
    cash_rate: 0.05
  - mu: [-0.02]
    sigma: [0.22]
    corr: [[1.0]]
    cash_rate: 0.01
  transition:
  - [0.9, 0.1]
  - [0.2, 0.8]
impact:
  eta: 0.0
  gamma: 0.0
env:
  horizon_years: 0.0625
  periods_per_year: 256
  window: 2
  initial_wealth: 1000.0
algo:
  name: ppo
  total_steps: 1280
"""


def test_config_format_tag():
    assert CONFIG_FORMAT == "yaml/1"


def test_dump_parse_round_trip_for_every_shipped_config():
    for name in ("etf3", "regimes3", "single_asset", "two_asset"):
        config = load_config(CONFIG_DIR / f"{name}.yaml")
        text = config.dump()
        reparsed = parse_config(text, filename=f"{name}.dump")
        assert reparsed.to_dict() == config.to_dict(), name
        assert reparsed.dump() == text, name


def test_minimal_config_parses_with_defaults():
    config = parse_config(MINIMAL)
    assert config.market.n_regimes == 1
    assert config.env.window == 2
    assert config.algo.algo == "ppo"
    assert config.algo.learning_rate == 3e-4
    assert config.algo.discount == 0.99  # env default flows into the algo
    assert not config.context_policy
    assert config.run.seeds == (0,)
    assert config.baseline is None
    assert config.baseline_settings == BaselineConfig()
    assert "baseline" not in config.to_dict()
    assert config.qsurface is None


def test_env_discount_flows_into_algo_unless_overridden():
    text = MINIMAL.replace("  initial_wealth: 1000.0",
                           "  initial_wealth: 1000.0\n  discount: 0.95")
    config = parse_config(text)
    assert config.env.discount == 0.95
    assert config.algo.discount == 0.95
    overridden = parse_config(text + "  discount: 0.9\n")
    assert overridden.env.discount == 0.95
    assert overridden.algo.discount == 0.9


def test_single_regime_sugar_equals_explicit_form():
    explicit = """\
market:
  regimes:
  - mu: [0.12]
    sigma: [0.2]
    corr: [[1.0]]
    cash_rate: 0.04
impact:
  eta: 0.0
  gamma: 0.0
env:
  horizon_years: 0.0625
  periods_per_year: 256
  window: 2
  initial_wealth: 1000.0
algo:
  name: ppo
  total_steps: 1280
"""
    assert parse_config(explicit).to_dict() == parse_config(MINIMAL).to_dict()


def test_stationary_initial_dist():
    config = parse_config(TWO_REGIME)
    # default initial_dist is the stationary distribution of the chain
    assert np.allclose(config.market.initial_dist, [2.0 / 3.0, 1.0 / 3.0],
                       atol=1e-12)
    explicit = TWO_REGIME.replace(
        "  - [0.2, 0.8]", "  - [0.2, 0.8]\n  initial_dist: [0.5, 0.5]"
    )
    assert np.allclose(parse_config(explicit).market.initial_dist, [0.5, 0.5])
    bad = TWO_REGIME.replace(
        "  - [0.2, 0.8]", "  - [0.2, 0.8]\n  initial_dist: warmed-up"
    )
    with pytest.raises(ConfigError, match="stationary"):
        parse_config(bad)


def test_multi_regime_requires_transition():
    text = TWO_REGIME.replace("  transition:\n  - [0.9, 0.1]\n  - [0.2, 0.8]\n",
                              "")
    with pytest.raises(ConfigError, match="need a transition matrix"):
        parse_config(text)


def test_error_carries_file_line_and_path():
    text = MINIMAL.replace("  eta: 0.0", "  eta: -1.0")
    with pytest.raises(ConfigError) as excinfo:
        parse_config(text, filename="exp.yaml")
    err = excinfo.value
    assert err.path == "impact"
    assert err.line == 6  # the impact block starts on line 6
    assert err.filename == "exp.yaml"
    assert str(err).startswith("exp.yaml:6: impact: ")
    assert "eta" in str(err)


def test_error_points_at_the_offending_scalar():
    text = MINIMAL.replace("  window: 2", "  window: soon")
    with pytest.raises(ConfigError) as excinfo:
        parse_config(text, filename="exp.yaml")
    err = excinfo.value
    assert err.path == "env.window"
    assert err.line == 12
    assert "expected an integer" in str(err)


def test_missing_required_key():
    text = MINIMAL.replace("  gamma: 0.0\n", "")
    with pytest.raises(ConfigError, match="missing required key 'gamma'"):
        parse_config(text)
    with pytest.raises(ConfigError, match="missing required key 'market'"):
        parse_config("")


def test_unknown_keys_are_rejected():
    with pytest.raises(ConfigError, match="unknown key 'extra'"):
        parse_config(MINIMAL + "extra: 1\n")
    with pytest.raises(ConfigError) as excinfo:
        parse_config(MINIMAL + "  turbo: true\n")
    assert excinfo.value.path == "algo.turbo"


def test_exponent_only_floats_parse_as_numbers():
    # YAML 1.1 resolves 1e-9 as a string; the loader coerces it anyway
    text = MINIMAL.replace("  eta: 0.0", "  eta: 1e-9")
    assert parse_config(text).impact.eta == 1e-9
    bad = MINIMAL.replace("  eta: 0.0", "  eta: tiny")
    with pytest.raises(ConfigError, match="expected a number"):
        parse_config(bad)


def test_yaml_syntax_error_reports_a_line():
    with pytest.raises(ConfigError) as excinfo:
        parse_config("market: [unclosed\nimpact: {}", filename="broken.yaml")
    assert excinfo.value.filename == "broken.yaml"
    assert excinfo.value.line is not None


def test_a_file_that_is_not_utf8_is_a_config_error_naming_it(tmp_path):
    config = tmp_path / "latin1.yaml"
    config.write_bytes(MINIMAL.encode() + b"# caf\xe9\n")
    with pytest.raises(ConfigError) as excinfo:
        load_config(config)
    assert str(excinfo.value).startswith(f"{config}: not UTF-8 text: ")
    sweep = tmp_path / "sweep.yaml"
    sweep.write_bytes(b"key: algo.gae_lambda\nvalues: [0.5, 0.9]  # \xff\n")
    with pytest.raises(ConfigError) as excinfo:
        load_sweep(sweep, load_config(CONFIG_DIR / "single_asset.yaml").to_dict())
    assert str(excinfo.value).startswith(f"{sweep}: not UTF-8 text: ")


def test_a_nul_byte_is_a_config_error_at_its_line(tmp_path):
    config = tmp_path / "nul.yaml"
    lines = MINIMAL.splitlines(keepends=True)
    lines[2] = lines[2].replace("\n", "\0\n")
    config.write_text("".join(lines))
    with pytest.raises(ConfigError) as excinfo:
        load_config(config)
    assert (excinfo.value.filename, excinfo.value.line) == (str(config), 3)
    assert excinfo.value.message.startswith("unacceptable character #x0000")


def test_context_policy_needs_hmm_and_regimes():
    text = TWO_REGIME.replace("  context_policy: false", "")  # not present
    text = text.replace("  name: ppo", "  name: ppo\n  context_policy: true")
    with pytest.raises(ConfigError) as excinfo:
        parse_config(text)
    assert excinfo.value.path == "algo.context_policy"
    assert "hmm block" in str(excinfo.value)

    with_hmm = text + "hmm:\n  n_states: 2\n"
    config = parse_config(with_hmm)
    assert config.context_policy
    assert config.hmm.n_states == 2

    single = MINIMAL.replace("  name: ppo",
                             "  name: ppo\n  context_policy: true")
    single += "hmm:\n  n_states: 2\n"
    with pytest.raises(ConfigError, match="regime-switching market"):
        parse_config(single)


def test_algo_name_validation():
    text = MINIMAL.replace("  name: ppo", "  name: dqn")
    with pytest.raises(ConfigError) as excinfo:
        parse_config(text)
    assert excinfo.value.path == "algo.name"


def test_a2c_preset_defaults_apply():
    text = MINIMAL.replace("  name: ppo", "  name: a2c")
    config = parse_config(text)
    assert config.algo.algo == "a2c"
    assert config.algo.learning_rate == 1e-4
    assert config.algo.init_log_std == -2.0
    assert not config.algo.advantage_normalization


def test_run_block_validation():
    text = MINIMAL + "run:\n  seeds: []\n"
    with pytest.raises(ConfigError) as excinfo:
        parse_config(text)
    assert excinfo.value.path == "run.seeds"
    with pytest.raises(ValueError, match="seeds must be non-empty"):
        RunConfig(seeds=())
    # a repeated seed would train twice into one directory
    text = MINIMAL + "run:\n  seeds: [3, 0,\n          0]\n"
    with pytest.raises(ConfigError) as excinfo:
        parse_config(text, filename="exp.yaml")
    line = text.splitlines().index("          0]") + 1
    assert str(excinfo.value) == (
        f"exp.yaml:{line}: run.seeds[2]: seed 0 is listed twice")
    with pytest.raises(ValueError, match="eval_episodes must be positive"):
        RunConfig(eval_episodes=0)


def test_qsurface_block():
    config = parse_config(MINIMAL + "qsurface:\n  w_min: 0.0\n  w_max: 2.0\n"
                          "  steps: 5\n")
    assert np.array_equal(config.qsurface.grid(), np.linspace(0.0, 2.0, 5))
    with pytest.raises(ValueError, match="w_max must exceed"):
        QSurfaceConfig(w_min=1.0, w_max=1.0)
    with pytest.raises(ValueError, match="steps must be >= 2"):
        QSurfaceConfig(steps=1)
    with pytest.raises(ConfigError, match="w_max must exceed"):
        parse_config(MINIMAL + "qsurface:\n  w_min: 5.0\n")


def test_baseline_block():
    config = parse_config(
        MINIMAL + "baseline:\n  fraction: 0.5\n  adjustment_periods: 4\n"
        "  fractions: [0.5, 1.0]\n  adjustment_grid: [1, 2]\n"
    )
    assert config.baseline.fraction == 0.5
    assert config.baseline.fractions == (0.5, 1.0)
    assert config.baseline.adjustment_grid == (1, 2)
    assert config.baseline_settings is config.baseline
    with pytest.raises(ConfigError, match="fraction must be in"):
        parse_config(MINIMAL + "baseline:\n  fraction: 1.5\n")


@pytest.mark.parametrize("entries, expected", [
    ("  fractions: [0.5, 1.5]\n",
     "exp.yaml:19: baseline.fractions[1]: fraction must be in (0, 1], got 1.5"),
    ("  adjustment_grid:\n  - 4\n  - 0\n",
     "exp.yaml:21: baseline.adjustment_grid[1]: adjustment_periods must be "
     ">= 1, got 0"),
], ids=["fractions", "adjustment-grid"])
def test_baseline_grid_entries_fail_at_their_line(tmp_path, entries, expected):
    path = tmp_path / "exp.yaml"
    path.write_text(MINIMAL + "baseline:\n  fraction: 0.5\n" + entries)
    with pytest.raises(ConfigError) as excinfo:
        load_config(path)
    assert str(excinfo.value) == expected.replace("exp.yaml", str(path))


def test_load_sweep_file():
    config = load_config(CONFIG_DIR / "single_asset.yaml").to_dict()
    key, values = load_sweep(CONFIG_DIR / "sweep_lambda.yaml", config)
    assert key == "algo.gae_lambda"
    assert values == [0.0, 0.5, 0.9, 0.95, 1.0]


def test_sweep_spec_validation(tmp_path):
    config = load_config(CONFIG_DIR / "single_asset.yaml").to_dict()
    bad = tmp_path / "sweep.yaml"
    bad.write_text("values: [1]\nkey: lambda\n")
    with pytest.raises(ConfigError) as excinfo:
        load_sweep(bad, config)
    assert str(excinfo.value) == (
        f"{bad}:2: key: sweep key must be a dotted path into the config, "
        f"got 'lambda'")
    bad.write_text("key: algo.gae_lambda\nvalues: []\n")
    with pytest.raises(ConfigError, match="non-empty list"):
        load_sweep(bad, config)
    bad.write_text("key: algo.gae_lambda\nvalues: 3\n")
    with pytest.raises(ConfigError, match="non-empty list"):
        load_sweep(bad, config)
    bad.write_text("key: algo.gae_lambda\nvalues: [1]\nwhy: not\n")
    with pytest.raises(ConfigError, match="unknown key 'why'"):
        load_sweep(bad, config)


def test_sweep_rejects_a_value_listed_twice(tmp_path):
    # each value's runs go under key=value, so a repeat would train twice
    # into one directory; values that print alike count as repeats
    config = load_config(CONFIG_DIR / "single_asset.yaml").to_dict()
    bad = tmp_path / "sweep.yaml"
    for values, line, index, text in [
        ("[0.5, 0.5]", 2, 1, "0.5"),
        ("[0.9, 0.5, '0.5']", 2, 2, "0.5"),
        ("\n  - 0.9\n  - 1\n  - 0.9", 5, 2, "0.9"),
    ]:
        bad.write_text(f"key: algo.gae_lambda\nvalues: {values}\n")
        with pytest.raises(ConfigError) as excinfo:
            load_sweep(bad, config)
        assert str(excinfo.value) == (
            f"{bad}:{line}: values[{index}]: value {text} is listed twice")


def test_apply_override():
    data = yaml.safe_load(load_config(CONFIG_DIR / "etf3.yaml").dump())
    out = apply_override(data, "algo.learning_rate", 1e-4)
    assert out["algo"]["learning_rate"] == 1e-4
    assert data["algo"]["learning_rate"] == 3e-4  # deep copy, original intact
    reparsed = parse_config(yaml.safe_dump(out, sort_keys=False))
    assert reparsed.algo.learning_rate == 1e-4

    # a brand-new leaf under an existing block is allowed
    out = apply_override(data, "baseline.fractions", [0.5, 1.0])
    assert out["baseline"]["fractions"] == [0.5, 1.0]

    with pytest.raises(ConfigError, match="no such config block 'nope'"):
        apply_override(data, "nope.key", 1)
    with pytest.raises(ConfigError, match="is not a mapping"):
        apply_override(data, "env.horizon_years.x", 1)


@pytest.mark.parametrize("block", ["market", "impact", "env", "algo"])
def test_empty_required_block_is_reported_at_its_line(block):
    text = re.sub(rf"^{block}:\n(  .*\n)+", f"{block}:\n", MINIMAL, flags=re.M)
    with pytest.raises(ConfigError) as excinfo:
        parse_config(text, filename="exp.yaml")
    line = text.splitlines().index(f"{block}:") + 1
    assert str(excinfo.value) == (
        f"exp.yaml:{line}: {block}: expected a mapping, got NoneType"
    )


def test_env_errors_carry_file_and_line():
    text = MINIMAL.replace("  window: 2", "  window: 0")
    with pytest.raises(ConfigError) as excinfo:
        parse_config(text, filename="exp.yaml")
    assert str(excinfo.value) == "exp.yaml:12: env.window: window must be >= 1"


@pytest.mark.parametrize("value, shown", [
    (".nan", "nan"), (".inf", "inf"), ("-.inf", "-inf"),
    ("1" + "0" * 400, "1" + "0" * 400),  # an int no float can hold
], ids=["nan", "inf", "-inf", "huge-int"])
@pytest.mark.parametrize("old, new, path, line", [
    ("  cash_rate: 0.04", "  cash_rate: {}", "market.cash_rate", 5),
    ("  mu: [0.12]", "  mu: [{}]", "market.mu[0]", 2),
    ("  corr: [[1.0]]", "  corr: [[{}]]", "market.corr[0][0]", 4),
], ids=["scalar", "mu", "corr"])
def test_non_finite_numbers_are_rejected(value, shown, old, new, path, line):
    text = MINIMAL.replace(old, new.format(value))
    with pytest.raises(ConfigError) as excinfo:
        parse_config(text, filename="exp.yaml")
    assert str(excinfo.value) == (
        f"exp.yaml:{line}: {path}: expected a finite number, got {shown}"
    )


def test_run_output_dir_is_an_unknown_key():
    with pytest.raises(ConfigError, match="unknown key 'output_dir'"):
        parse_config(MINIMAL + "run:\n  output_dir: runs/x\n")


def test_baseline_use_true_regime_is_an_unknown_key():
    # the baseline always reads the true regime; the key is no longer a knob
    text = MINIMAL + "baseline:\n  fraction: 0.5\n  use_true_regime: true\n"
    with pytest.raises(ConfigError, match="unknown key 'use_true_regime'") as info:
        parse_config(text)
    err = info.value
    assert err.path == "baseline.use_true_regime"
    assert err.line == text.splitlines().index("  use_true_regime: true") + 1


def _maybe(draw, block, key, strategy):
    if draw(st.booleans()):
        block[key] = draw(strategy)


@st.composite
def valid_configs(draw):
    """A config mapping: optional blocks and keys present or absent."""
    finite = st.floats(-1.0, 1.0)
    positive = st.floats(1e-6, 1.0)
    counts = st.integers(1, 50)
    n = draw(st.integers(1, 3))
    k = draw(st.integers(1, 3))

    def regime():
        rho = draw(st.floats(-0.4, 0.9))
        corr = [[1.0 if i == j else rho for j in range(n)] for i in range(n)]
        return {"mu": draw(st.lists(finite, min_size=n, max_size=n)),
                "sigma": draw(st.lists(st.floats(0.0, 1.0), min_size=n,
                                       max_size=n)),
                "corr": corr,
                "cash_rate": draw(finite)}

    if k == 1 and draw(st.booleans()):
        market = regime()  # single-regime sugar
    else:
        market = {"regimes": [regime() for _ in range(k)]}
        if k > 1 or draw(st.booleans()):
            rows = [draw(st.lists(st.floats(0.1, 1.0), min_size=k, max_size=k))
                    for _ in range(k)]
            market["transition"] = [[x / sum(row) for x in row] for row in rows]
        dist = draw(st.sampled_from(["absent", "stationary", "explicit"]))
        if dist == "stationary":
            market["initial_dist"] = "stationary"
        elif dist == "explicit":
            market["initial_dist"] = [1.0 / k] * k
    env = {"horizon_years": draw(st.sampled_from([0.25, 1.0, 5.0])),
           "periods_per_year": draw(st.sampled_from([12, 256])),
           "window": draw(counts),
           "initial_wealth": draw(st.floats(1.0, 1e6))}
    _maybe(draw, env, "discount", st.floats(0.5, 1.0))
    algo = {"name": draw(st.sampled_from(["ppo", "a2c"])),
            "total_steps": draw(st.integers(1, 10**6))}
    for key in ("learning_rate", "clip_range"):
        _maybe(draw, algo, key, positive)
    for key in ("rollout_steps", "batch_size", "n_epochs"):
        _maybe(draw, algo, key, counts)
    for key in ("value_coef", "entropy_coef", "max_grad_norm", "discount",
                "gae_lambda"):
        _maybe(draw, algo, key, st.floats(0.5, 1.0))
    _maybe(draw, algo, "init_log_std", finite)
    for key in ("clipping_enabled", "advantage_normalization"):
        _maybe(draw, algo, key, st.booleans())
    data = {"market": market,
            "impact": {"eta": draw(st.floats(0.0, 1e-6)),
                       "gamma": draw(st.floats(0.0, 1e-6))},
            "env": env,
            "algo": algo}
    if draw(st.booleans()):
        hmm = data["hmm"] = {}
        for key in ("n_states", "n_init", "max_iter"):
            _maybe(draw, hmm, key, counts)
        for key in ("tol", "mean_prior", "covar_prior", "min_covar"):
            _maybe(draw, hmm, key, positive)
        if k > 1:
            _maybe(draw, algo, "context_policy", st.booleans())
    else:
        _maybe(draw, algo, "context_policy", st.just(False))
    if draw(st.booleans()):
        run = data["run"] = {}
        _maybe(draw, run, "seeds", st.lists(st.integers(0, 99), min_size=1,
                                            max_size=4, unique=True))
        for key in ("eval_episodes", "hmm_fit_episodes", "hmm_eval_episodes"):
            _maybe(draw, run, key, counts)
    if draw(st.booleans()):
        baseline = data["baseline"] = {}
        _maybe(draw, baseline, "fraction", st.floats(0.01, 1.0))
        for key in ("adjustment_periods", "episodes_per_cell"):
            _maybe(draw, baseline, key, counts)
        _maybe(draw, baseline, "fractions",
               st.none() | st.lists(st.floats(0.01, 1.0), min_size=1,
                                    max_size=4))
        _maybe(draw, baseline, "adjustment_grid",
               st.none() | st.lists(counts, min_size=1, max_size=4))
    if draw(st.booleans()):
        qsurface = data["qsurface"] = {}
        _maybe(draw, qsurface, "w_min", st.floats(-2.0, 0.0))
        _maybe(draw, qsurface, "w_max", st.floats(1.0, 4.0))
        _maybe(draw, qsurface, "steps", st.integers(2, 100))
    return data


@settings(max_examples=200, deadline=None)
@given(valid_configs())
def test_dump_parse_round_trip_for_drawn_configs(data):
    config = parse_config(yaml.safe_dump(data, sort_keys=False))
    text = config.dump()
    reparsed = parse_config(text)
    assert reparsed.dump() == text
    assert reparsed.to_dict() == config.to_dict()
    # and the dump keeps every value given outside the market block
    resolved = config.to_dict()
    for block, values in data.items():
        for key, value in values.items():
            if block != "market" and value is not None:
                assert resolved[block][key] == value, (block, key)
