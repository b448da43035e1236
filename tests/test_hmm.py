"""Gaussian HMM fitting, decoding, label permutations, and persistence."""

import itertools
import json

import numpy as np
import pytest
import scipy.linalg
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from kellylab import hmm as hmm_module
from kellylab.errors import FitError
from kellylab.hmm import (
    GaussianHmmModel,
    HmmFitConfig,
    accuracy,
    best_permutation,
    decode,
    fit,
    load,
    predict_current,
    save,
)


def sample_chain(rng, t_len, means, stds, transition):
    """Draw a 1-feature state sequence and its Gaussian emissions."""
    transition = np.asarray(transition)
    states = np.empty(t_len, dtype=np.int64)
    states[0] = 0
    for t in range(1, t_len):
        states[t] = rng.choice(transition.shape[0], p=transition[states[t - 1]])
    x = rng.normal(np.asarray(means)[states], np.asarray(stds)[states])
    return x[:, None], states


def two_state_model():
    return GaussianHmmModel(
        means=np.array([[-0.02], [0.02]]),
        covariances=np.full((2, 1, 1), 2.5e-5),
        transition=np.array([[0.9, 0.1], [0.1, 0.9]]),
        initial=np.array([0.5, 0.5]),
    )


def path_joint_ll(model, x, path):
    """Hand-rolled joint log-likelihood of one state path."""
    ll = np.log(model.initial[path[0]])
    for t, s in enumerate(path):
        ll += scipy.stats.norm.logpdf(
            x[t, 0], model.means[s, 0], np.sqrt(model.covariances[s, 0, 0])
        )
        if t > 0:
            ll += np.log(model.transition[path[t - 1], s])
    return float(ll)


def brute_force_path(model, x):
    """Exhaustive max-probability path; independent of the Viterbi code."""
    k = model.n_states
    best_path, best_ll = None, -np.inf
    for path in itertools.product(range(k), repeat=x.shape[0]):
        ll = path_joint_ll(model, x, path)
        if ll > best_ll:
            best_ll, best_path = ll, path
    return np.asarray(best_path, dtype=np.int64), best_ll


def test_model_validation():
    good = two_state_model()
    with pytest.raises(ValueError, match="covariances must be"):
        GaussianHmmModel(good.means, np.full((2, 2, 2), 1e-4), good.transition,
                         good.initial)
    with pytest.raises(ValueError, match="not symmetric"):
        GaussianHmmModel(
            np.zeros((1, 2)),
            np.array([[[1.0, 0.2], [0.1, 1.0]]]),
            np.ones((1, 1)),
            np.ones(1),
        )
    with pytest.raises(np.linalg.LinAlgError):
        GaussianHmmModel(
            np.zeros((1, 2)),
            np.array([[[1.0, 2.0], [2.0, 1.0]]]),
            np.ones((1, 1)),
            np.ones(1),
        )
    with pytest.raises(ValueError, match="rows must sum to 1"):
        GaussianHmmModel(good.means, good.covariances,
                         np.array([[0.9, 0.2], [0.1, 0.9]]), good.initial)
    with pytest.raises(ValueError, match="non-negative"):
        GaussianHmmModel(good.means, good.covariances,
                         np.array([[1.1, -0.1], [0.1, 0.9]]), good.initial)
    with pytest.raises(ValueError, match="initial must sum to 1"):
        GaussianHmmModel(good.means, good.covariances, good.transition,
                         np.array([0.7, 0.7]))


def test_fit_config_validation():
    with pytest.raises(ValueError, match="n_states must be positive"):
        HmmFitConfig(n_states=0)
    with pytest.raises(ValueError, match="tol must be positive"):
        HmmFitConfig(tol=0.0)


def test_single_state_fit_matches_closed_form():
    rng = np.random.default_rng(5)
    x = rng.normal(0.001, 0.01, size=(200, 1))
    config = HmmFitConfig(n_states=1, n_init=2)
    model = fit([x], config, rng=np.random.default_rng(0))

    mean = x.sum(axis=0) / (200 + config.mean_prior)
    diff = x - mean
    cov = (
        diff.T @ diff
        + config.mean_prior * np.outer(mean, mean)
        + config.covar_prior * np.eye(1)
    ) / 200
    assert model.means[0] == pytest.approx(mean, rel=1e-12)
    assert model.covariances[0, 0, 0] == pytest.approx(cov[0, 0], rel=1e-12)
    assert np.array_equal(model.transition, np.array([[1.0]]))
    assert np.array_equal(model.initial, np.array([1.0]))


def test_two_state_fit_recovers_separated_regimes():
    rng = np.random.default_rng(7)
    x, states = sample_chain(
        rng, 2000, means=[-0.02, 0.02], stds=[0.005, 0.005],
        transition=[[0.95, 0.05], [0.1, 0.9]],
    )
    model = fit([x], HmmFitConfig(n_states=2, n_init=4),
                rng=np.random.default_rng(0))
    decoded = decode(model, x)
    assert accuracy(decoded, states) >= 0.99
    # the winning restart's history is monotone nondecreasing
    assert len(model.fit_history) >= 2
    assert np.all(np.diff(model.fit_history) >= -1e-9)


def test_fit_accepts_multiple_sequences():
    rng = np.random.default_rng(11)
    seqs = []
    truths = []
    for _ in range(3):
        x, states = sample_chain(
            rng, 400, means=[-0.02, 0.02], stds=[0.005, 0.005],
            transition=[[0.95, 0.05], [0.1, 0.9]],
        )
        seqs.append(x)
        truths.append(states)
    model = fit(seqs, HmmFitConfig(n_states=2, n_init=4),
                rng=np.random.default_rng(0))
    pred = np.concatenate([decode(model, x) for x in seqs])
    assert accuracy(pred, np.concatenate(truths)) >= 0.99


def test_fit_input_validation():
    with pytest.raises(ValueError, match="at least one sequence"):
        fit([], HmmFitConfig(n_states=1))
    with pytest.raises(ValueError, match="need >= 20"):
        fit([np.zeros((19, 1))], HmmFitConfig(n_states=2))
    with pytest.raises(ValueError, match="features"):
        fit([np.zeros((30, 1)), np.zeros((30, 2))], HmmFitConfig(n_states=1))


def test_fit_raises_when_states_cannot_separate():
    # identical observations give both states identical emissions, so one
    # state always ends up empty and every restart degenerates
    x = np.full((40, 1), 0.001)
    with pytest.raises(FitError, match="degenerated"):
        fit([x], HmmFitConfig(n_states=2, n_init=3),
            rng=np.random.default_rng(1))


def test_covariance_floor_applies_to_constant_features():
    x = np.full((50, 1), 0.001)
    config = HmmFitConfig(n_states=1, n_init=1, covar_prior=1e-12,
                          min_covar=1e-6)
    model = fit([x], config, rng=np.random.default_rng(0))
    assert model.covariances[0, 0, 0] == pytest.approx(1e-6, rel=1e-12)


def test_decode_matches_brute_force_enumeration():
    model = GaussianHmmModel(
        means=np.array([[0.0], [0.5]]),
        covariances=np.full((2, 1, 1), 0.04),
        transition=np.array([[0.7, 0.3], [0.4, 0.6]]),
        initial=np.array([0.6, 0.4]),
    )
    rng = np.random.default_rng(3)
    x = rng.normal(0.25, 0.3, size=(8, 1))
    expected_path, expected_ll = brute_force_path(model, x)
    got = decode(model, x)
    assert np.array_equal(got, expected_path)
    # and the decoded path really attains the maximum joint likelihood
    assert path_joint_ll(model, x, got) == pytest.approx(expected_ll, rel=1e-12)


def test_decode_respects_forbidden_transitions():
    # both states are absorbing and the chain starts in state 0, so the
    # decode must stay there even when every observation favors state 1
    model = GaussianHmmModel(
        means=np.array([[-0.02], [0.02]]),
        covariances=np.full((2, 1, 1), 2.5e-5),
        transition=np.eye(2),
        initial=np.array([1.0, 0.0]),
    )
    x = np.full((20, 1), 0.02)
    assert np.array_equal(decode(model, x), np.zeros(20, dtype=np.int64))


def test_decode_single_state_shortcut():
    model = GaussianHmmModel(
        means=np.zeros((1, 1)),
        covariances=np.full((1, 1, 1), 1e-4),
        transition=np.ones((1, 1)),
        initial=np.ones(1),
    )
    assert np.array_equal(decode(model, np.zeros((5, 1))),
                          np.zeros(5, dtype=np.int64))


def test_predict_current_returns_the_final_state():
    model = two_state_model()
    assert predict_current(model, np.full((5, 1), 0.019)) == 1
    assert predict_current(model, np.full((5, 1), -0.019)) == 0
    # a window that starts down and ends up resolves to the ending regime
    window = np.array([[-0.02], [-0.02], [0.02], [0.02], [0.02]])
    assert predict_current(model, window) == 1
    assert predict_current(model, [0.019]) == 1
    with pytest.raises(ValueError, match="at least one return row"):
        predict_current(model, np.empty((0, 1)))


def test_best_permutation_and_accuracy():
    assert best_permutation([0, 1, 0, 1], [1, 0, 1, 0]).tolist() == [1, 0]
    assert accuracy([0, 1, 0, 1], [1, 0, 1, 0]) == 1.0
    assert best_permutation([0, 1, 0, 1], [0, 1, 0, 1]).tolist() == [0, 1]
    # exact tie: identity is the lexicographically first permutation
    assert best_permutation([0, 0], [0, 1]).tolist() == [0, 1]
    assert accuracy([0, 1, 0, 1], [0, 1, 1, 1]) == 0.75


def test_best_permutation_validation():
    with pytest.raises(ValueError, match="differ in shape"):
        best_permutation([0, 1], [0, 1, 0])
    with pytest.raises(ValueError, match="empty"):
        best_permutation([], [])
    with pytest.raises(ValueError, match="cap of 8"):
        best_permutation([8], [0])


def test_save_load_round_trip(tmp_path):
    model = two_state_model()
    path = tmp_path / "hmm.json"
    save(model, path)
    loaded = load(path)
    assert np.array_equal(loaded.means, model.means)
    assert np.array_equal(loaded.covariances, model.covariances)
    assert np.array_equal(loaded.transition, model.transition)
    assert np.array_equal(loaded.initial, model.initial)
    assert loaded.fit_history == []


def test_save_load_keeps_the_fit_history(tmp_path):
    rng = np.random.default_rng(7)
    x, _ = sample_chain(rng, 200, means=[-0.02, 0.02], stds=[0.005, 0.005],
                        transition=[[0.95, 0.05], [0.1, 0.9]])
    model = fit([x], HmmFitConfig(n_states=2, n_init=2),
                rng=np.random.default_rng(0))
    path = tmp_path / "hmm.json"
    save(model, path)
    payload = json.loads(path.read_text())
    assert payload["format_version"] == 1
    assert payload["fit_history"] == model.fit_history
    assert load(path).fit_history == model.fit_history
    # files written without the key still load
    del payload["fit_history"]
    path.write_text(json.dumps(payload))
    loaded = load(path)
    assert loaded.fit_history == []
    assert np.array_equal(loaded.means, model.means)


def test_load_rejects_unknown_version(tmp_path):
    model = two_state_model()
    path = tmp_path / "hmm.json"
    save(model, path)
    payload = json.loads(path.read_text())
    payload["format_version"] = 2
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="unsupported model file version 2"):
        load(path)


# -- properties of the fast paths ---------------------------------------------
#
# The oracle below is the straightforward implementation the fast paths
# replace: a fresh Cholesky factor and solve_triangular per state, one
# backpointer Viterbi per sequence, and a fit that decodes each sequence on
# its own and recomputes emissions for the log-likelihood. The fast paths must
# agree with it bit for bit.


def oracle_emissions(model, x):
    t, n = x.shape
    out = np.empty((t, model.n_states))
    for k in range(model.n_states):
        chol = np.linalg.cholesky(model.covariances[k])
        diff = x - model.means[k]
        z = scipy.linalg.solve_triangular(chol, diff.T, lower=True)
        quad = np.sum(z * z, axis=0)
        logdet = 2.0 * np.sum(np.log(np.diag(chol)))
        out[:, k] = -0.5 * (quad + logdet + n * np.log(2.0 * np.pi))
    return out


def oracle_decode(model, sequence):
    x = np.atleast_2d(np.asarray(sequence, dtype=np.float64))
    t_len = x.shape[0]
    k = model.n_states
    if k == 1:
        return np.zeros(t_len, dtype=np.int64)
    with np.errstate(divide="ignore"):
        log_trans = np.log(model.transition)
        log_init = np.log(model.initial)
    emis = oracle_emissions(model, x)
    score = log_init + emis[0]
    backptr = np.empty((t_len, k), dtype=np.int64)
    for t in range(1, t_len):
        cand = score[:, None] + log_trans
        backptr[t] = np.argmax(cand, axis=0)
        score = cand[backptr[t], np.arange(k)] + emis[t]
    path = np.empty(t_len, dtype=np.int64)
    path[-1] = int(np.argmax(score))
    for t in range(t_len - 1, 0, -1):
        path[t - 1] = backptr[t, path[t]]
    return path


def oracle_fit(sequences, config, rng):
    sequences = [np.atleast_2d(np.asarray(s, dtype=np.float64)) for s in sequences]
    x_all = np.vstack(sequences)

    def log_likelihood(model, paths):
        with np.errstate(divide="ignore"):
            log_trans = np.log(model.transition)
            log_init = np.log(model.initial)
        total = 0.0
        for x, z in zip(sequences, paths):
            emis = oracle_emissions(model, x)
            total += log_init[z[0]] + emis[np.arange(len(z)), z].sum()
            total += log_trans[z[:-1], z[1:]].sum()
        return float(total)

    def train_restart(model):
        history = []
        for _ in range(config.max_iter):
            paths = [oracle_decode(model, x) for x in sequences]
            ll = log_likelihood(model, paths)
            if history and ll - history[-1] < config.tol:
                history.append(ll)
                return model, history
            history.append(ll)
            model = hmm_module._m_step(sequences, paths, config)
            if model is None:
                return None
        return model, history

    best_model, best_ll = None, -np.inf
    for _ in range(config.n_init):
        for _ in range(hmm_module._MAX_REINIT_ATTEMPTS):
            trained = train_restart(hmm_module._random_init(x_all, config, rng))
            if trained is not None:
                break
        else:
            continue
        model, history = trained
        if history[-1] > best_ll:
            best_ll, best_model = history[-1], model
            best_model.fit_history = history
    if best_model is None:
        raise FitError("every restart degenerated")
    return best_model


@st.composite
def hmm_models(draw):
    """Random K in {1, 2, 3} models over 1-3 features.

    Transitions and initial distributions may carry exact zeros (forbidden
    moves, impossible starts), and a model may repeat one state's emission
    parameters so that scores tie exactly.
    """
    k = draw(st.integers(1, 3))
    n = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    means = rng.normal(0.0, 0.02, size=(k, n))
    covariances = np.empty((k, n, n))
    for s in range(k):
        a = rng.normal(0.0, 0.01, size=(n, n))
        covariances[s] = a @ a.T + rng.uniform(1e-5, 1e-3) * np.eye(n)
    if k > 1 and draw(st.booleans()):
        means[1], covariances[1] = means[0], covariances[0]
    transition = rng.uniform(size=(k, k))
    initial = rng.uniform(size=k)
    if k > 1:
        transition[rng.uniform(size=(k, k)) < draw(st.sampled_from([0.0, 0.3]))] = 0.0
        transition[np.arange(k), rng.integers(0, k, size=k)] += 0.5
        initial[rng.uniform(size=k) < draw(st.sampled_from([0.0, 0.5]))] = 0.0
        initial[rng.integers(0, k)] += 0.5
    transition /= transition.sum(axis=1, keepdims=True)
    initial /= initial.sum()
    return GaussianHmmModel(means, covariances, transition, initial)


WINDOWS_PER_MODEL = 50


@settings(max_examples=250, deadline=None, derandomize=True)
@given(model=hmm_models(), seed=st.integers(0, 2**32 - 1))
def test_predict_current_equals_the_last_decoded_state(model, seed):
    # 250 models x 50 windows: 12,500 (model, window) pairs
    rng = np.random.default_rng(seed)
    for _ in range(WINDOWS_PER_MODEL):
        t_len = int(rng.integers(1, 81))
        states = rng.integers(0, model.n_states, size=t_len)
        scale = rng.choice([0.5, 1.0, 3.0])
        window = model.means[states] + scale * rng.normal(
            0.0, 0.03, size=(t_len, model.n_features)
        )
        label = predict_current(model, window)
        assert label == decode(model, window)[-1]
        assert label == oracle_decode(model, window)[-1]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(model=hmm_models(), seed=st.integers(0, 2**32 - 1),
       bad=st.sampled_from([np.nan, np.inf, -np.inf]))
def test_non_finite_windows_still_raise(model, seed, bad):
    rng = np.random.default_rng(seed)
    t_len = int(rng.integers(1, 81))
    window = rng.normal(0.0, 0.02, size=(t_len, model.n_features))
    window[rng.integers(0, t_len), rng.integers(0, model.n_features)] = bad
    if model.n_states == 1:
        return  # one state needs no emissions: the label is 0 for any window
    with pytest.raises(ValueError):
        predict_current(model, window)
    with pytest.raises(ValueError):
        decode(model, window)


def test_decode_of_a_stack_is_each_sequence_decoded():
    model = two_state_model()
    rng = np.random.default_rng(4)
    stack = rng.normal(0.0, 0.02, size=(4, 30, 1))
    paths = decode(model, stack)
    assert paths.shape == (4, 30)
    for x, path in zip(stack, paths):
        assert np.array_equal(path, decode(model, x))
        assert np.array_equal(path, oracle_decode(model, x))


def assert_same_model(got, want):
    for name in ("means", "covariances", "transition", "initial"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert got.fit_history == want.fit_history


@settings(max_examples=30, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1),
       lengths=st.sampled_from([(40, 40, 40, 40), (40, 33, 40, 31, 33), (60,)]),
       n_states=st.sampled_from([1, 2, 3]))
def test_fit_equals_the_per_sequence_loop(seed, lengths, n_states):
    rng = np.random.default_rng(seed)
    means = rng.normal(0.0, 0.02, size=(n_states, 2))
    seqs = []
    for t_len in lengths:
        states = np.repeat(rng.integers(0, n_states, size=t_len // 10 + 1), 10)
        seqs.append(means[states[:t_len]] + rng.normal(0.0, 0.01, (t_len, 2)))
    config = HmmFitConfig(n_states=n_states, n_init=2, max_iter=30)
    try:
        want = oracle_fit(seqs, config, np.random.default_rng(seed))
    except FitError:
        with pytest.raises(FitError):
            fit(seqs, config, rng=np.random.default_rng(seed))
        return
    assert_same_model(fit(seqs, config, rng=np.random.default_rng(seed)), want)
