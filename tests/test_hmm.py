"""Gaussian HMM fitting, decoding, label permutations, and persistence."""

import itertools
import json
import zlib

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
    best_permutation,
    decode,
    fit,
    load,
    save,
)

from forwardpass import (assert_open_window_scores, forward_labels,
                         window_label, window_labels)


def accuracy(predicted, true) -> float:
    """Fraction of matching labels under the best label permutation.

    Label indices from a fit are arbitrary, so the score is taken over all
    relabelings of the predictions; pre-aligned labels are unaffected
    (identity is always among the candidates).
    """
    predicted = np.asarray(predicted, dtype=np.int64)
    true = np.asarray(true, dtype=np.int64)
    perm = best_permutation(predicted, true)
    return float(np.mean(perm[predicted] == true))


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


def stack_labels(model, stack):
    """Labels (L,) of a stack of equal-length windows (L, T, n), as
    SlidingLabels labels the windows of a wave's first period: one emission
    solve per state over the whole stack, then the rebuilt forward scores."""
    emis = hmm_module._window_emissions(model, np.asarray(stack, dtype=float))
    return hmm_module.SlidingLabels(model).push(0, np.arange(len(emis)), False,
                                                emis)


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


def test_m_step_counts_transitions_within_each_path():
    # path 0: 0->0, 0->1, 1->1, 1->1; path 1: 1->0, 0->0, 0->0. The step
    # from the end of path 0 to the start of path 1 is no transition.
    x_all = np.random.default_rng(3).normal(0.0, 0.01, size=(9, 2))
    paths = [np.array([0, 0, 1, 1, 1]), np.array([1, 0, 0, 0])]
    model = hmm_module._m_step(x_all, paths, HmmFitConfig(n_states=2))
    assert model.transition.tolist() == [[0.75, 0.25], [1.0 / 3.0, 2.0 / 3.0]]
    assert model.initial.tolist() == [0.5, 0.5]
    # a state no path leaves makes the restart degenerate
    assert hmm_module._m_step(x_all, [np.array([0, 0, 0, 0, 1]),
                                      np.array([0, 0, 0, 0])],
                              HmmFitConfig(n_states=2)) is None


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
    assert window_label(model, np.zeros((5, 1))) == 0
    assert stack_labels(model, np.zeros((3, 5, 1))).tolist() == [0, 0, 0]
    sliding = hmm_module.SlidingLabels(model)
    assert hmm_module.predict_current(
        sliding, 0, np.arange(3), np.ones((3, 6, 1))).tolist() == [0, 0, 0]


def test_predict_current_returns_the_final_state():
    model = two_state_model()

    def labels(returns):
        # price windows (L, T + 1, n) whose log returns are about `returns`
        log_prices = np.cumsum(np.pad(returns, ((0, 0), (1, 0), (0, 0))),
                               axis=1)
        return hmm_module.predict_current(
            hmm_module.SlidingLabels(model), 0, np.arange(len(returns)),
            100.0 * np.exp(log_prices)).tolist()

    assert labels(np.full((1, 5, 1), 0.019)) == [1]
    assert labels(np.full((1, 5, 1), -0.019)) == [0]
    # a window that starts down and ends up resolves to the ending regime
    window = np.array([[-0.02], [-0.02], [0.02], [0.02], [0.02]])
    assert labels(window[None]) == [1]
    assert labels(np.full((1, 1, 1), 0.019)) == [1]
    # a stack of equal-length windows gets each window's own label
    stack = np.stack([np.full((5, 1), 0.019), np.full((5, 1), -0.019), window])
    assert window_labels(model, stack) == [1, 0, 1]
    assert labels(stack) == [1, 0, 1]
    assert stack_labels(model, stack).tolist() == [1, 0, 1]
    assert stack_labels(model, stack[1:2]).tolist() == [0]
    assert stack_labels(model, [[[0.019]], [[-0.019]]]).tolist() == [1, 0]
    assert window_labels(model, [[[0.019]], [[-0.019]]]) == [1, 0]


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
            model = hmm_module._m_step(x_all, paths, config)
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
def hmm_models(draw, states=(1, 3), features=(1, 3)):
    """Random models with K in the states range over a features range
    (default K 1-3, 1-3 features).

    Transitions and initial distributions may carry exact zeros (forbidden
    moves, impossible starts), and a model may repeat one state's emission
    parameters so that scores tie exactly.
    """
    k = draw(st.integers(*states))
    n = draw(st.integers(*features))
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
        # the one-lane label a training step takes
        label = stack_labels(model, window[None])[0]
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
        stack_labels(model, window[None])
    with pytest.raises(ValueError):
        decode(model, window)
    # one bad entry in any one lane of a stack fails the whole solve
    lanes = int(rng.integers(2, 8))
    stack = rng.normal(0.0, 0.02, size=(lanes, t_len, model.n_features))
    stack[rng.integers(0, lanes)] = window
    with pytest.raises(ValueError):
        stack_labels(model, stack)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(model=hmm_models(states=(2, 4), features=(1, 4)),
       t_len=st.one_of(st.just(1), st.integers(1, 60)),
       lanes=st.one_of(st.just(64), st.integers(1, 70)),
       seed=st.integers(0, 2**32 - 1))
def test_stacked_predict_current_equals_each_window_on_its_own(
        model, t_len, lanes, seed):
    # t_len == 1 is drawn often: a stack of one-row windows is one block, and
    # a lone one-row window is solved as that row twice over
    rng = np.random.default_rng(seed)
    states = rng.integers(0, model.n_states, size=(lanes, t_len))
    scale = rng.choice([0.5, 1.0, 3.0], size=(lanes, 1, 1))
    stack = model.means[states] + scale * rng.normal(
        0.0, 0.03, size=(lanes, t_len, model.n_features)
    )
    want = window_labels(model, stack)
    # lanes leave mid-wave as their episodes end, so later calls label a
    # shrinking subset of the stack, in lane order
    live = np.arange(lanes)
    while live.size:
        got = stack_labels(model, stack[live])
        assert got.shape == (live.size,)
        assert got.tolist() == [want[i] for i in live]
        live = live[rng.uniform(size=live.size) < 0.7]


@pytest.mark.parametrize("t_len", [1, 2, 5])
def test_stacked_labels_match_at_the_decision_boundary(t_len):
    # Random windows rarely land within rounding of a tie, where a last-bit
    # change in an emission flips the label. Here the last row moves along
    # the line between the two means to where the label flips, and a stack
    # holds the windows 30 ulps either side of that point.
    rng = np.random.default_rng(t_len)
    boundaries = 0
    for _ in range(30):
        n = int(rng.integers(1, 4))
        a = rng.normal(0.0, 0.01, size=(2, n, n))
        model = GaussianHmmModel(
            means=rng.normal(0.0, 0.02, size=(2, n)),
            covariances=a @ a.transpose(0, 2, 1)
            + rng.uniform(1e-5, 1e-3, size=(2, 1, 1)) * np.eye(n),
            transition=rng.dirichlet([1.0, 1.0], size=2),
            initial=rng.dirichlet([1.0, 1.0]),
        )
        head = model.means[rng.integers(0, 2, size=t_len - 1)]
        head = head + rng.normal(0.0, 0.01, size=head.shape)
        step = model.means[1] - model.means[0]

        def window(a):
            return np.vstack([head, model.means[0] + a * step])

        lo, hi = -3.0, 4.0
        if window_label(model, window(lo)) == window_label(model, window(hi)):
            continue
        while lo < np.nextafter(lo, hi) < hi:
            mid = 0.5 * (lo + hi)
            if window_label(model, window(mid)) == window_label(model, window(lo)):
                lo = mid
            else:
                hi = mid
        boundaries += 1
        shifts = [lo, hi]
        for _ in range(30):
            shifts = [np.nextafter(shifts[0], -np.inf)] + shifts
            shifts.append(np.nextafter(shifts[-1], np.inf))
        stack = np.stack([window(a) for a in shifts])
        want = window_labels(model, stack)
        # stacks centred on the flip, labelled as a wave's first period, and
        # as its second after the windows one row earlier
        earlier = np.concatenate(
            [rng.normal(0.0, 0.01, size=(len(stack), 1, n)), stack], axis=1)
        emis = hmm_module._window_emissions(model, earlier)
        for size in (1, 2, len(stack)):
            first = (len(stack) - size) // 2
            lanes = slice(first, first + size)
            assert stack_labels(model, stack[lanes]).tolist() == want[lanes]
            sliding, live = hmm_module.SlidingLabels(model), np.arange(size)
            sliding.push(0, live, False, emis[lanes, :-1])
            assert sliding.slides(1, live)
            got = sliding.push(1, live, True, emis[lanes, 1:])
            assert got.tolist() == want[lanes]
    assert boundaries >= 10


@st.composite
def symmetric_models(draw):
    """Two-state models whose states share their emission parameters, with
    a symmetric chain and a uniform start: the two states' scores tie
    exactly at every step. A chain that always stays forbids switching."""
    n = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.normal(0.0, 0.01, size=(n, n))
    stay = draw(st.sampled_from([0.5, 0.9, 1.0]))
    return GaussianHmmModel(
        means=np.repeat(rng.normal(0.0, 0.02, size=(1, n)), 2, axis=0),
        covariances=np.repeat((a @ a.T + 1e-4 * np.eye(n))[None], 2, axis=0),
        transition=np.array([[stay, 1.0 - stay], [1.0 - stay, stay]]),
        initial=np.array([0.5, 0.5]),
    )


TWO_STATE_MODELS = st.one_of(hmm_models(states=(2, 2)), symmetric_models())


def odd_emissions(rng, shape, tied, odd):
    """Random emission rows (..., K) where a share `tied` of rows repeat
    state 0's entry in every state and a share `odd` of entries are -inf or
    NaN."""
    emis = rng.normal(3.0, 2.0, size=shape)
    same = rng.uniform(size=shape[:-1]) < tied
    emis[same] = emis[same, :1]
    special = rng.uniform(size=shape) < odd
    emis[special] = rng.choice([-np.inf, np.nan], size=special.sum())
    return emis


@settings(max_examples=300, deadline=None, derandomize=True)
@given(model=TWO_STATE_MODELS, lanes=st.sampled_from([1, 2, 10, 64]),
       t_len=st.integers(1, 30), tied=st.sampled_from([0.0, 0.5, 1.0]),
       odd=st.sampled_from([0.0, 0.05, 0.3]), seed=st.integers(0, 2**32 - 1))
def test_two_state_sliding_labels_equal_the_forward_pass(model, lanes, t_len,
                                                        tied, odd, seed):
    # SlidingLabels' labels, decode's last states and the forward pass
    # oracle's, over five periods of sliding windows. Emission rows whose
    # two entries are equal tie exactly under a symmetric model. -inf is a
    # quadratic form that overflows, and NaN a solve that does; np.maximum
    # and argmax pass a NaN on.
    rng = np.random.default_rng(seed)
    rows = odd_emissions(rng, (lanes, t_len + 4, 2), tied, odd)
    sliding, live = hmm_module.SlidingLabels(model), np.arange(lanes)
    for t in range(5):
        emis = rows[:, t : t + t_len]
        want = forward_labels(model, emis).tolist()
        assert hmm_module._viterbi(model._log_init, model._log_trans,
                                   emis)[:, -1].tolist() == want
        assert sliding.slides(t, live) == (t > 0)
        assert sliding.push(t, live, t > 0, emis).tolist() == want


@settings(max_examples=100, deadline=None, derandomize=True)
@given(model=hmm_models(states=(2, 4), features=(1, 1)),
       lanes=st.sampled_from([1, 2, 10, 64]), t_len=st.integers(1, 60),
       tied=st.sampled_from([0.0, 0.5]), odd=st.sampled_from([0.0, 0.05]),
       seed=st.integers(0, 2**32 - 1))
def test_sliding_scores_are_each_open_windows_forward_pass(
        model, lanes, t_len, tied, odd, seed):
    # Every period of a wave whose lanes leave and whose clock may jump
    # (forward, back or nowhere), the labels are _viterbi's, and each open
    # window's kept score has the bits of the forward pass over its rows so
    # far, ties, -inf and NaN included.
    rng = np.random.default_rng(seed)
    periods = 12
    # a jump lands before `periods`, so the clock stays below 2 * periods
    rows = odd_emissions(rng, (lanes, t_len + 2 * periods, model.n_states),
                         tied, odd)
    sliding, live, t = hmm_module.SlidingLabels(model), np.arange(lanes), 0
    for _ in range(periods):
        emis = rows[live, t : t + t_len]
        slide = sliding.slides(t, live)
        got = sliding.push(t, live, slide, emis)
        assert got.tolist() == hmm_module._viterbi(
            model._log_init, model._log_trans, emis)[:, -1].tolist()
        assert_open_window_scores(sliding, t, emis)
        move = rng.uniform()
        t = int(rng.integers(0, periods)) if move < 0.15 else t + 1
        if move > 0.7 and live.size > 1:
            live = live[rng.uniform(size=live.size) < 0.6]
            if not live.size:
                live = np.array([int(rng.integers(0, lanes))])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(model=TWO_STATE_MODELS, lanes=st.sampled_from([1, 10, 64]),
       far=st.sampled_from([0.0, 0.1]), seed=st.integers(0, 2**32 - 1))
def test_two_state_labels_equal_the_oracle(model, lanes, far, seed):
    # Rows scaled by 1e160 overflow the quadratic form: both emissions of
    # such a row are -inf.
    rng = np.random.default_rng(seed)
    t_len = int(rng.integers(1, 60))
    states = rng.integers(0, 2, size=(lanes, t_len))
    stack = model.means[states] + rng.normal(
        0.0, 0.03, size=(lanes, t_len, model.n_features))
    stack[rng.uniform(size=(lanes, t_len)) < far] *= 1e160
    with np.errstate(over="ignore"):
        want = [oracle_decode(model, w)[-1] for w in stack]
        assert stack_labels(model, stack).tolist() == want
        assert window_labels(model, stack) == want


def test_nan_emissions_label_as_the_decode_does():
    # With a diagonal covariance of 1e-300, a row 1e200 out overflows the
    # solve, whose 0 * inf gives state 0 a NaN emission (state 1's is
    # -inf). The label is decode's wherever the NaN falls.
    model = GaussianHmmModel(
        means=np.zeros((2, 2)),
        covariances=np.array([1e-300 * np.eye(2), 1e-4 * np.eye(2)]),
        transition=np.array([[0.9, 0.1], [0.2, 0.8]]),
        initial=np.array([0.3, 0.7]),
    )
    rng = np.random.default_rng(5)
    stack = rng.normal(0.0, 0.01, size=(4, 5, 2))
    for lane, row in enumerate([0, 2, 4]):  # lane 3 has no NaN
        stack[lane, row] = 1e200
    with np.errstate(over="ignore", invalid="ignore"):
        emis = hmm_module._window_emissions(model, stack)
        assert np.isnan(emis).sum(axis=(1, 2)).tolist() == [1, 1, 1, 0]
        want = [decode(model, w)[-1] for w in stack]
        assert want == [oracle_decode(model, w)[-1] for w in stack]
        assert stack_labels(model, stack).tolist() == want
        assert window_labels(model, stack) == want


def test_blas_solves_a_column_the_same_in_any_block_of_two_or_more():
    # SlidingLabels' full recompute solves every lane's rows in one block,
    # and the fit solves all its sequences' rows in one block; both rely on
    # each row getting the bits of its own window's solve. That holds for
    # the BLAS this package is tested on; a BLAS for which it does not must
    # fail here rather than let labels drift. The solver is the one in use.
    solver = hmm_module._solver()

    def solve(chol, rows):
        z, info = solver(chol, np.array(rows))  # it solves in place
        assert info == 0
        return z

    rng = np.random.default_rng(12)
    for n in (1, 2, 3, 4, 8):
        a = rng.normal(0.0, 0.01, size=(n, n))
        chol = np.linalg.cholesky(a @ a.T + 1e-4 * np.eye(n))
        windows = rng.normal(0.0, 0.02, size=(8, 59, n))
        stacked = solve(chol, windows.reshape(-1, n))
        # a block the size of a fit on ten five-year episodes
        tiled = solve(chol, np.tile(windows.reshape(-1, n), (28, 1)))
        assert tiled[:, -stacked.shape[1]:].tobytes() == stacked.tobytes()
        for w, window in enumerate(windows):
            full = solve(chol, window)
            for i in range(59):
                pair = solve(chol, window[[i, (i + 1) % 59]])
                assert pair[:, 0].tobytes() == full[:, i].tobytes(), (n, i)
                assert stacked[:, w * 59 + i].tobytes() == full[:, i].tobytes()


def test_a_one_row_emission_has_the_bits_of_its_row_in_any_block():
    # A one-row solve rounds differently from the same row in a larger block,
    # so _emission_logprobs solves one row as a block of itself twice over.
    # Every row alone must then have the bits it has inside a 59-row block.
    rng = np.random.default_rng(13)
    for n in (1, 2, 3, 4, 8):
        a = rng.normal(0.0, 0.01, size=(3, n, n))
        model = GaussianHmmModel(
            means=rng.normal(0.0, 0.02, size=(3, n)),
            covariances=a @ a.transpose(0, 2, 1) + 1e-4 * np.eye(n),
            transition=np.full((3, 3), 1.0 / 3.0),
            initial=np.full(3, 1.0 / 3.0),
        )
        block = rng.normal(0.0, 0.02, size=(59, n))
        emis = hmm_module._emission_logprobs(model, block)
        for i, row in enumerate(block):
            alone = hmm_module._emission_logprobs(model, row[None])
            assert alone.shape == (1, 3)
            assert alone.tobytes() == emis[i].tobytes(), (n, i)


def test_the_loaded_dtrtrs_gives_scipy_linalg_lapacks_bits():
    # The detector's solves call dtrtrs in the OpenBLAS bundled with numpy,
    # not the build scipy.linalg.lapack wraps. Where the two differ in any
    # bit, this fails rather than let labels and fits drift.
    from scipy.linalg.lapack import dtrtrs

    solve = hmm_module._solver()
    rng = np.random.default_rng(16)
    cases = 0
    for n in range(1, 9):
        a = rng.normal(0.0, 0.01, size=(n, n))
        chol = np.linalg.cholesky(a @ a.T + 1e-4 * np.eye(n))
        for t_len in (1, 2, 3, 59, 1280):
            rows = rng.normal(0.0, 0.02, size=(t_len, n))
            want, want_info = dtrtrs(chol.T, rows.T, lower=0, trans=1)
            got, info = solve(chol, rows.copy())
            assert (info, want_info) == (0, 0)
            assert got.tobytes() == want.tobytes(), (n, t_len)
            cases += 1
    assert cases == 40


def test_the_scipy_linalg_fallback_gives_the_same_fit_and_labels(monkeypatch):
    # Where numpy's OpenBLAS or its dtrtrs is not found, the solve is
    # scipy.linalg.lapack's; the fit and the labels must not change.
    rng = np.random.default_rng(17)
    seqs = [sample_chain(rng, 200, means=[-0.02, 0.02], stds=[0.01, 0.02],
                         transition=[[0.95, 0.05], [0.1, 0.9]])[0]
            for _ in range(3)]
    windows = np.stack([seqs[0][i : i + 59] for i in range(0, 140, 7)])
    config = HmmFitConfig(n_states=2, n_init=3)
    want = fit(seqs, config, rng=np.random.default_rng(0))
    labels = stack_labels(want, windows).tolist()
    assert hmm_module.openblas_function("scipy_dtrtrs_64_") is not None
    monkeypatch.setattr(hmm_module, "openblas_function", lambda name: None)
    hmm_module._solver.cache_clear()
    try:
        assert hmm_module._solver().__name__ == "<lambda>"
        got = fit(seqs, config, rng=np.random.default_rng(0))
        assert_same_model(got, want)
        assert stack_labels(got, windows).tolist() == labels
    finally:
        hmm_module._solver.cache_clear()


def test_log_returns_of_a_windows_last_rows_keep_the_full_windows_bits():
    # SlidingLabels takes each lane's newest return row from the log of its
    # observation's last two price rows, and relies on it having the bits
    # of that row of the full window's log returns. That holds for the
    # numpy this package is tested on; a build for which it does not must
    # fail here rather than let labels drift.
    rng = np.random.default_rng(14)
    for n in (1, 2, 3, 4):
        for window in (2, 3, 4, 9, 60, 61):
            obs = rng.lognormal(4.0, 0.5, size=(64, window * n + n + 1))
            prices = obs[:, : window * n].reshape(64, window, n)
            full = np.diff(np.log(prices), axis=1)
            for rows in range(2, min(window, 3) + 1):
                last = np.diff(np.log(prices[:, -rows:]), axis=1)
                assert last.tobytes() == full[:, 1 - rows:].tobytes(), (n, window)
                for lane in range(64):
                    alone = np.diff(np.log(prices[lane : lane + 1, -rows:]),
                                    axis=1)
                    assert alone.tobytes() == full[lane, 1 - rows:].tobytes()


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


def run_fit(run, seqs, config, seed):
    """The model run (fit or oracle_fit) returns, None for a FitError, and
    the state its rng is left in."""
    rng = np.random.default_rng(seed)
    try:
        model = run(seqs, config, rng)
    except FitError:
        model = None
    return model, rng.bit_generator.state


def assert_fit_equals_the_loop(seqs, config, seed):
    (want, want_rng), (got, got_rng) = [
        run_fit(run, seqs, config, seed) for run in (oracle_fit, fit)]
    assert got_rng == want_rng
    if want is None:
        assert got is None
    else:
        assert_same_model(got, want)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1),
       lengths=st.sampled_from([(40, 40, 40, 40), (40, 33, 40, 31, 33), (60,)]),
       n_states=st.sampled_from([1, 2, 3]), n_init=st.sampled_from([2, 4, 5]),
       two_clusters=st.booleans())
def test_fit_equals_the_per_sequence_loop(seed, lengths, n_states, n_init,
                                          two_clusters):
    # Restarts often degenerate on this data, more so with three states
    # over two clusters, so about 2 in 5 examples rewind the lockstep fit
    rng = np.random.default_rng(seed)
    clusters = 2 if two_clusters else n_states
    means = rng.normal(0.0, 0.02, size=(clusters, 2))
    seqs = []
    for t_len in lengths:
        states = np.repeat(rng.integers(0, clusters, size=t_len // 10 + 1), 10)
        seqs.append(means[states[:t_len]] + rng.normal(0.0, 0.01, (t_len, 2)))
    config = HmmFitConfig(n_states=n_states, n_init=n_init, max_iter=30)
    assert_fit_equals_the_loop(seqs, config, seed)


@pytest.mark.parametrize("percent_bad", [30, 80, 100])
def test_fit_redraws_scripted_degenerate_restarts_as_the_loop_does(
        monkeypatch, percent_bad):
    # A scripted init moves state 0's mean far from every row whenever the
    # CRC of its drawn means falls under percent_bad, so that restart
    # degenerates at its first m-step. The draw decides, so an rng rewound
    # to a state scripts the same init again. At 80% some restarts use up
    # their attempts; at 100% every restart does, and the fit fails.
    real_init = hmm_module._random_init
    scripted = []  # per draw: scripted to degenerate

    def scripted_init(x_all, config, rng):
        model = real_init(x_all, config, rng)
        scripted.append(zlib.crc32(model.means.tobytes()) % 100 < percent_bad)
        if not scripted[-1]:
            return model
        means = model.means.copy()
        means[0] = x_all.max(axis=0) + 1.0
        return GaussianHmmModel(means, model.covariances, model.transition,
                                model.initial)

    monkeypatch.setattr(hmm_module, "_random_init", scripted_init)
    config = HmmFitConfig(n_states=2, n_init=4, max_iter=30)
    rewound = used_up = 0
    for seed in range(12):
        rng = np.random.default_rng(seed)
        seqs = [sample_chain(rng, t_len, means=[-0.02, 0.02], stds=[0.01, 0.01],
                             transition=[[0.9, 0.1], [0.1, 0.9]])[0]
                for t_len in (40, 40, 33)]
        scripted.clear()
        want, want_rng = run_fit(oracle_fit, seqs, config, seed)
        loop_draws = list(scripted)
        scripted.clear()
        got, got_rng = run_fit(fit, seqs, config, seed)
        assert got_rng == want_rng
        if percent_bad == 100:
            assert want is None and got is None
        else:
            assert_same_model(got, want)
        # the fit drew ahead and rewound
        rewound += len(scripted) > len(loop_draws)
        # ten scripted failures in a row in the loop's draws leave some
        # restart without an attempt
        runs = "".join("x" if bad else "." for bad in loop_draws).split(".")
        used_up += max(map(len, runs)) >= hmm_module._MAX_REINIT_ATTEMPTS
    assert rewound >= 6
    assert used_up >= (2 if percent_bad >= 80 else 0)


def test_fit_equals_the_loop_when_restarts_degenerate_late(monkeypatch):
    # A scripted m-step degenerates whenever the CRC of the paths it gets
    # falls under 30%, so restarts degenerate at any iteration: while
    # earlier restarts still train, and after later ones have converged
    # (whose results the rewind then takes back).
    real_m_step = hmm_module._m_step

    def scripted_m_step(x_all, paths, config):
        if zlib.crc32(np.concatenate(paths).tobytes()) % 100 < 30:
            return None
        return real_m_step(x_all, paths, config)

    monkeypatch.setattr(hmm_module, "_m_step", scripted_m_step)
    config = HmmFitConfig(n_states=2, n_init=5, max_iter=30)
    for seed in range(40):
        rng = np.random.default_rng(seed)
        seqs = [sample_chain(rng, t_len, means=[-0.02, 0.02], stds=[0.01, 0.01],
                             transition=[[0.9, 0.1], [0.1, 0.9]])[0]
                for t_len in (40, 33)]
        assert_fit_equals_the_loop(seqs, config, seed)
