"""Multivariate Gaussian hidden Markov model over per-period log returns.

Fitting is Viterbi training (hard EM): decode the current best state path,
then re-estimate parameters from the hard assignments with small conjugate
priors and a covariance eigenvalue floor. The detection problem here is tiny
(K = 2 states, 3 features), so everything is dense and exact; log-domain
arithmetic keeps million-step sequences from underflowing.

The Viterbi recursion (Rabiner 1989) runs over a stack of equal-length
sequences, one loop over time for the whole stack; one sequence is a stack of
one. The fit trains its restarts in lockstep, decoding all of them in one call
per sequence length, with the bits of training them one after another (see
fit). Emission solves call LAPACK dtrtrs in the OpenBLAS bundled with numpy
(_solver), so one library runs every BLAS and LAPACK call. predict_current
runs only the forward max pass (no backpointers); max is exact, so its label
is decode's last state bit for bit. It labels one window (a training
step's), a two-state model's on Python floats (_label_one). SlidingLabels
gives an evaluation wave's lanes, whose windows slide by one row a period,
predict_current's labels: it keeps the forward scores of every window open
on a lane's newest return row, solves only the newest rows, all lanes' in
one block, and steps every open window on by them; on any other clock it
solves the full windows in one block and rebuilds the scores. A one-row
solve rounds differently from the same row in a larger block, so a one-row
block is solved as that row twice over, to the bits it has in every block.
A model computes its Cholesky factors and log probabilities once, and its
arrays are read-only so they cannot go stale.

The fit works on raw, unlabelled returns, so its state indices are arbitrary
(label switching): best_permutation() maps them onto simulator regimes.
"""

import ctypes
import functools
import itertools
import json
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .errors import CheckpointError, FitError

_MAX_REINIT_ATTEMPTS = 10


@dataclass
class HmmFitConfig:
    n_states: int = 2
    n_init: int = 10
    max_iter: int = 100
    tol: float = 1e-7
    mean_prior: float = 1e-4
    covar_prior: float = 1e-4
    min_covar: float = 1e-6

    def __post_init__(self):
        for name in (f.name for f in fields(self)):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")

    @property
    def min_rows(self) -> int:
        """The return rows that each fitted sequence needs: 10 per state."""
        return self.n_states * 10


@dataclass
class GaussianHmmModel:
    means: np.ndarray
    covariances: np.ndarray
    transition: np.ndarray
    initial: np.ndarray
    # joint log-likelihood per training iteration of the winning restart
    fit_history: list = field(default_factory=list, repr=False, compare=False)

    def __post_init__(self):
        # private read-only copies: the per-model constants below stay valid
        for name in ("means", "covariances", "transition", "initial"):
            value = np.array(getattr(self, name), dtype=np.float64)
            value.flags.writeable = False
            setattr(self, name, value)
        k, n = self.means.shape
        if self.covariances.shape != (k, n, n):
            raise ValueError(
                f"covariances must be ({k}, {n}, {n}), got {self.covariances.shape}"
            )
        self._chol = []
        self._logdet = []
        for i in range(k):
            if not np.allclose(self.covariances[i], self.covariances[i].T, atol=1e-12):
                raise ValueError(f"covariance {i} is not symmetric")
            try:
                chol = np.linalg.cholesky(self.covariances[i])
            except np.linalg.LinAlgError as exc:
                raise np.linalg.LinAlgError(
                    f"covariance {i} is not positive definite"
                ) from exc
            self._chol.append(chol)
            self._logdet.append(2.0 * np.sum(np.log(np.diag(chol))))
        self._logdet = np.array(self._logdet)[:, None]  # (K, 1)
        if self.transition.shape != (k, k) or np.any(self.transition < 0):
            raise ValueError("transition must be a non-negative (K, K) matrix")
        if not np.allclose(self.transition.sum(axis=1), 1.0, atol=1e-9):
            raise ValueError("transition rows must sum to 1")
        if self.initial.shape != (k,) or np.any(self.initial < 0):
            raise ValueError("initial must be a non-negative length-K vector")
        if not np.isclose(self.initial.sum(), 1.0, atol=1e-9):
            raise ValueError("initial must sum to 1")
        with np.errstate(divide="ignore"):
            self._log_trans = np.log(self.transition)
            self._log_init = np.log(self.initial)
        # plain-float copies for the two-state label pass;
        # _log_into[j][i] = log P(i -> j)
        self._log_into = self._log_trans.T.tolist()
        self._log_init_list = self._log_init.tolist()

    @property
    def n_states(self) -> int:
        return self.means.shape[0]

    @property
    def n_features(self) -> int:
        return self.means.shape[1]


_LOG_2PI = np.log(2.0 * np.pi)


@functools.cache
def openblas_function(name):
    """The function name of the OpenBLAS that numpy's wheel bundles and has
    loaded (ctypes), or None without that library or symbol."""
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob(
        "*openblas*"))
    try:
        return getattr(ctypes.CDLL(str(libs[0])), name)
    except (IndexError, OSError, AttributeError):
        return None


@functools.cache
def _solver():
    """solve(chol, rows) -> (z, info): z (n, T) = chol^-1 rows.T, for a lower
    Cholesky factor chol (n, n) and rows (T, n), C-ordered float64 arrays.

    dtrtrs of numpy's OpenBLAS (openblas_function), ILP64, on chol's memory
    read as the upper factor chol.T, transposed, in place: z is rows.T.
    Without that symbol, scipy.linalg.lapack.dtrtrs.
    """
    dtrtrs = openblas_function("scipy_dtrtrs_64_")
    if dtrtrs is None:
        from scipy.linalg.lapack import dtrtrs

        return lambda chol, rows: dtrtrs(chol.T, rows.T, lower=0, trans=1)
    # every argument is a ctypes object of its C type, all but the arrays
    # built once, so no argtypes: their conversion cost ~1.4 us a call
    dtrtrs.restype = None
    n, nrhs, info = ctypes.c_int64(), ctypes.c_int64(), ctypes.c_int64()
    n_ref, nrhs_ref, info_ref = (ctypes.byref(i) for i in (n, nrhs, info))
    upper, trans, nonunit = (ctypes.c_char_p(c) for c in (b"U", b"T", b"N"))
    one = ctypes.c_size_t(1)  # the flags' hidden Fortran string lengths
    ref, memory = ctypes.byref, ctypes.c_char.from_buffer

    def solve(chol, rows):
        nrhs.value, n.value = rows.shape
        dtrtrs(upper, trans, nonunit, n_ref, nrhs_ref, ref(memory(chol)),
               n_ref, ref(memory(rows)), n_ref, info_ref, one, one, one)
        return rows.T, info.value

    return solve


def _emission_logprobs(model: GaussianHmmModel, x: np.ndarray) -> np.ndarray:
    """log N(x_t | mean_k, cov_k) for every (t, k), shape (T, K).

    One triangular solve per state over the whole (T, n) block. A row's
    result is the same in any block of at least 2 rows, but differs in a
    one-row block (tests/test_hmm.py checks this of the running BLAS), so
    one row is solved as a block of itself twice over.
    """
    t, n = x.shape
    if t == 1:
        return _emission_logprobs(model, np.vstack((x, x)))[:1]
    solve = _solver()
    # every state's rows (K, T, n), each state's block C-ordered
    diff = np.subtract(x, model.means[:, None], order="C")
    if not np.isfinite(diff).all():
        raise ValueError("array must not contain infs or NaNs")
    quad = np.empty((model.n_states, t))
    for k, rows in enumerate(diff):
        # the LAPACK call that solve_triangular(chol, rows.T, lower=True)
        # makes, in place on rows; check_finite is the check above
        z, info = solve(model._chol[k], rows)
        if info != 0:
            raise np.linalg.LinAlgError(f"triangular solve failed (info {info})")
        np.sum(z * z, axis=0, out=quad[k])
    return (-0.5 * (quad + model._logdet + n * _LOG_2PI)).T


def _viterbi(log_init, log_trans, emis: np.ndarray, last_only=False):
    """Most-likely state paths (S, T) from stacked emissions (S, T, K).

    log_init (K,) and log_trans (K, K) are one model's, or (S, K) and
    (S, K, K) give each sequence its own model (the fit decodes all its
    restarts in one call); every op is elementwise, so a sequence's path is
    the same either way. With last_only, only each path's last state (S,):
    the forward pass alone, keeping no backpointers. The max over the
    from-states is a fold of np.maximum into a preallocated score (max is
    exact, so it equals cand.max(axis=1), whose reduce made the pass 15-35%
    slower).
    """
    s_len, t_len, k = emis.shape
    steps = emis.transpose(1, 0, 2)  # one (S, K) emission row per step
    score = log_init + steps[0]
    into = score[:, :, None]
    cand = np.empty((s_len, k, k))  # (sequence, from, to)
    from_state = [cand[:, i] for i in range(k)]
    backptr = None if last_only else np.empty((t_len, s_len, k), dtype=np.int64)
    for t in range(1, t_len):
        np.add(into, log_trans, out=cand)
        if backptr is not None:
            cand.argmax(axis=1, out=backptr[t])
        # at K = 1 (only a fit has it) this is the one column with itself
        np.maximum(from_state[0], from_state[-1], out=score)
        for rest in from_state[1:-1]:
            np.maximum(score, rest, out=score)
        np.add(score, steps[t], out=score)
    last = score.argmax(axis=1)
    if last_only:
        return last
    path = np.empty((s_len, t_len), dtype=np.int64)
    path[:, -1] = last
    rows = np.arange(s_len)
    for t in range(t_len - 1, 0, -1):
        path[:, t - 1] = backptr[t, rows, path[:, t]]
    return path


def decode(model: GaussianHmmModel, sequence) -> np.ndarray:
    """Most-likely state path (Viterbi) in log domain.

    sequence is one (T, n) sequence, giving a (T,) path, or a stack of
    equal-length sequences (S, T, n), giving (S, T) paths.
    """
    x = np.asarray(sequence, dtype=np.float64)
    stacked = x.ndim == 3
    xs = x if stacked else np.atleast_2d(x)[None]
    if model.n_states == 1:
        paths = np.zeros(xs.shape[:2], dtype=np.int64)
    else:
        paths = _viterbi(model._log_init, model._log_trans,
                         _window_emissions(model, xs))
    return paths if stacked else paths[0]


def predict_current(model: GaussianHmmModel, window) -> int:
    """Regime label now: final state of the decode over a recent window.

    window is one (T, n) window of return rows. The label is
    decode(model, window)[-1] bit for bit: the forward max-product pass
    keeps no backpointers, but every step takes the same max of the same
    sums as decode.
    """
    x = np.atleast_2d(np.asarray(window, dtype=np.float64))
    if len(x) < 1:
        raise ValueError("window must contain at least one return row")
    if model.n_states == 1:
        return 0
    emis = _emission_logprobs(model, x)
    if model.n_states == 2:
        return _label_one(model, emis.tolist())
    return int(_viterbi(model._log_init, model._log_trans, emis[None],
                        last_only=True)[0])


def _window_emissions(model: GaussianHmmModel, x: np.ndarray) -> np.ndarray:
    """Emissions (L, T, K) of a stack of windows (L, T, n): one solve per
    state over all L * T rows."""
    l_len, t_len, n = x.shape
    emis = _emission_logprobs(model, x.reshape(-1, n))
    return emis.reshape(l_len, t_len, -1)


def _label_one(model: GaussianHmmModel, emis: list) -> int:
    """_viterbi's forward pass over one window's two-state emission rows,
    unrolled on plain floats: the same adds in the same order, and the label
    argmax gives (the lower state on a tie, the first NaN if any).

    np.maximum passes on a NaN from either side (a solve that overflows can
    give a NaN emission), and then every later score is NaN and the label 0.
    Here a NaN in s1 reaches s0 through q, and one in s0 stays there through
    the p != p test; s0 then stays NaN and the label is 0, whatever s1 holds.
    """
    (a00, a10), (a01, a11) = model._log_into
    rows = iter(emis)
    e0, e1 = next(rows)
    s0, s1 = model._log_init_list[0] + e0, model._log_init_list[1] + e1
    for e0, e1 in rows:
        p, q = s0 + a00, s1 + a10
        r, u = s0 + a01, s1 + a11
        s0 = (p if p >= q or p != p else q) + e0
        s1 = (r if r >= u else u) + e1
    return 0 if s0 >= s1 or s0 != s0 else 1


class SlidingLabels:
    """predict_current's labels for the live lanes at clock t from their
    price windows (L, T + 1, n), whose log returns are the detector's
    windows. Each lane's T open windows' forward scores are kept as (K, L,
    T), the one labelled at clock c in slot c % T; each step takes the adds
    and maxes of _viterbi over each window alone. Log returns of a window's
    last rows have the bits of those rows of the full window
    (tests/test_hmm.py checks this of the running numpy)."""

    def __init__(self, model: GaussianHmmModel):
        self.model = model
        # the previous call's clock and live lanes, the open windows' scores
        # (K, L, T) and room for a step's sums (K, K, L, T)
        self._t, self._live, self._scores, self._cand = 0, None, None, None

    def labels(self, t: int, live, prices) -> np.ndarray:
        if self.model.n_states == 1:
            return np.zeros(len(live), dtype=np.int64)
        slide = self.slides(t, live)
        rows = prices[:, -2:] if slide else prices
        return self.push(t, live, slide, _window_emissions(
            self.model, np.diff(np.log(rows), axis=1)))

    def slides(self, t: int, live) -> bool:
        """Whether clock t and the live lanes go on from the previous call's:
        the clock moved by one and lanes only left."""
        return self._scores is not None and t == self._t + 1 and (
            np.array_equal(live, self._live) or np.isin(live, self._live).all())

    def push(self, t: int, live, slide: bool, emis: np.ndarray) -> np.ndarray:
        """Labels (L,) at clock t from the live lanes' window emissions
        (L, T, K). A slide (slides(t, live)) steps every open window on by
        the newest row alone; any other clock rebuilds the scores."""
        if not slide:
            k, t_len = self.model.n_states, emis.shape[1]
            self._scores = np.zeros((k, len(live), t_len))
            self._cand = np.empty((k,) + self._scores.shape)
            for i in range(t_len):
                self._step(emis[:, i], (t + i) % t_len)
        else:
            if len(live) < self._scores.shape[1]:
                self._scores = self._scores[:, np.isin(self._live, live)]
            # the window labelled at t - 1 is done: its slot opens t + T - 1's
            self._step(emis[:, -1], (t - 1) % self._scores.shape[2])
        self._t, self._live = t, live
        return self._scores[:, :, t % self._scores.shape[2]].argmax(axis=0)

    def _step(self, emis, slot):
        """Step every open window on by emission rows (L, K); then slot's
        window starts on them. cand[i, j] = score of i + log P(i -> j)."""
        scores, model = self._scores, self.model
        cand = np.add(scores[:, None], model._log_trans[:, :, None, None],
                      out=self._cand[:, :, : scores.shape[1]])
        np.maximum(cand[0], cand[-1], out=scores)
        for rest in cand[1:-1]:
            np.maximum(scores, rest, out=scores)
        emis = emis.T
        np.add(scores, emis[:, :, None], out=scores)
        np.add(model._log_init[:, None], emis, out=scores[:, :, slot])


def _path_log_likelihood(model, emissions, paths) -> float:
    total = 0.0
    for emis, z in zip(emissions, paths):
        total += model._log_init[z[0]] + emis[np.arange(len(z)), z].sum()
        total += model._log_trans[z[:-1], z[1:]].sum()
    return float(total)


def _floor_covariance(cov: np.ndarray, min_covar: float) -> np.ndarray:
    """Raise eigenvalues to at least min_covar, keeping symmetry exact."""
    cov = 0.5 * (cov + cov.T)
    vals, vecs = np.linalg.eigh(cov)
    if vals[0] >= min_covar:
        return cov
    vals = np.maximum(vals, min_covar)
    floored = (vecs * vals) @ vecs.T
    return 0.5 * (floored + floored.T)


def _m_step(x_all, paths, config: HmmFitConfig):
    """Closed-form penalized re-estimation from hard assignments.

    Means shrink toward zero with weight mean_prior and covariances carry a
    covar_prior * I ridge; both are the exact maximizers of the penalized
    complete-data objective, so training log-likelihood is monotone up to the
    floor. x_all holds the sequences' rows stacked, paths their state paths.
    Returns None when some state received no observations or has no
    outgoing transitions (degenerate restart).
    """
    k = config.n_states
    n = x_all.shape[1]
    z_all = np.concatenate(paths)

    counts = np.bincount(z_all, minlength=k).astype(np.float64)
    if np.any(counts == 0):
        return None

    means = np.empty((k, n))
    covariances = np.empty((k, n, n))
    for s in range(k):
        rows = x_all[z_all == s]
        means[s] = rows.sum(axis=0) / (counts[s] + config.mean_prior)
        diff = rows - means[s]
        scatter = diff.T @ diff
        cov = (
            scatter
            + config.mean_prior * np.outer(means[s], means[s])
            + config.covar_prior * np.eye(n)
        ) / counts[s]
        covariances[s] = _floor_covariance(cov, config.min_covar)

    # exact integer counts, as floats
    trans_counts = sum(np.bincount(z[:-1] * k + z[1:], minlength=k * k)
                       for z in paths).reshape(k, k).astype(np.float64)
    init_counts = np.bincount([z[0] for z in paths], minlength=k)
    row_sums = trans_counts.sum(axis=1)
    if np.any(row_sums == 0):
        return None
    transition = trans_counts / row_sums[:, None]
    initial = init_counts / init_counts.sum()

    return GaussianHmmModel(means, covariances, transition, initial)


def _random_init(x_all, config: HmmFitConfig, rng) -> GaussianHmmModel:
    k = config.n_states
    n = x_all.shape[1]
    idx = rng.choice(x_all.shape[0], size=k, replace=False)
    means = x_all[idx].copy()
    global_cov = np.cov(x_all.T).reshape(n, n)
    cov = _floor_covariance(global_cov, config.min_covar)
    covariances = np.repeat(cov[None], k, axis=0)
    transition = np.full((k, k), 0.2 / max(k - 1, 1))
    np.fill_diagonal(transition, 0.8)
    if k == 1:
        transition = np.ones((1, 1))
    initial = np.full(k, 1.0 / k)
    return GaussianHmmModel(means, covariances, transition, initial)


@dataclass
class _Restart:
    """A restart training in the lockstep fit: its index and attempt, its
    current model and log-likelihoods, and the bit generator's state just
    after its init was drawn."""

    index: int
    attempt: int
    model: GaussianHmmModel
    rng_state: dict
    history: list = field(default_factory=list)


def fit(sequences, config: HmmFitConfig = None, rng=None) -> GaussianHmmModel:
    """Hard-EM fit over a list of (T_i, n) log-return matrices.

    Runs n_init random restarts (re-drawing a restart whose assignment
    degenerates, up to a retry cap) and keeps the best final joint
    log-likelihood. The winning restart's per-iteration log-likelihoods are
    left on the model as fit_history. rng is a numpy Generator.

    The restarts train in lockstep, and the result and the rng's final state
    are those of training them one after another. Inits are drawn in restart
    order; each iteration decodes every training restart at once
    (_decode_restarts), and a restart leaves when it converges or reaches
    max_iter. When restarts degenerate, the lowest-index one, d, decides:
    the restarts after it drew their inits too early, so they are dropped,
    the rng rewinds to its state just after d's draw, and the draws resume
    with d's next attempt.
    """
    if config is None:
        config = HmmFitConfig()
    if rng is None:
        rng = np.random.default_rng(0)
    sequences = [np.atleast_2d(np.asarray(s, dtype=np.float64)) for s in sequences]
    if not sequences:
        raise ValueError("need at least one sequence")
    n = sequences[0].shape[1]
    for i, s in enumerate(sequences):
        if s.shape[1] != n:
            raise ValueError(f"sequence {i} has {s.shape[1]} features, expected {n}")
        if s.shape[0] < config.min_rows:
            raise ValueError(
                f"sequence {i} has {s.shape[0]} rows; need >= "
                f"{config.min_rows} for {config.n_states} states"
            )
    x_all = np.vstack(sequences)
    bounds = np.cumsum([len(s) for s in sequences])[:-1]
    groups = {}  # sequence length -> its sequences' indices
    for i, x in enumerate(sequences):
        groups.setdefault(x.shape[0], []).append(i)

    trained = [None] * config.n_init  # (model, history) per restart
    live = []  # training restarts, in restart order
    index, attempt = 0, 0  # the next init to draw
    while True:
        while index < config.n_init:
            model = _random_init(x_all, config, rng)
            live.append(_Restart(index, attempt, model, rng.bit_generator.state))
            index, attempt = index + 1, 0
        if not live:
            break
        emissions, paths = _decode_restarts(
            [run.model for run in live], x_all, bounds, groups
        )
        still = []
        for run, emis, run_paths in zip(live, emissions, paths):
            ll = _path_log_likelihood(run.model, emis, run_paths)
            converged = bool(run.history) and ll - run.history[-1] < config.tol
            run.history.append(ll)
            if not converged:
                run.model = _m_step(x_all, run_paths, config)
                if run.model is None:
                    # the restarts after this one drew too early: take back
                    # what they trained and redraw from here
                    trained[run.index:] = [None] * (config.n_init - run.index)
                    rng.bit_generator.state = run.rng_state
                    index, attempt = run.index, run.attempt + 1
                    if attempt == _MAX_REINIT_ATTEMPTS:
                        index, attempt = index + 1, 0
                    break
            # a converged model produced history[-1]
            if converged or len(run.history) == config.max_iter:
                trained[run.index] = (run.model, run.history)
            else:
                still.append(run)
        live = still

    if all(result is None for result in trained):
        raise FitError(
            "every restart degenerated (a state kept losing all observations); "
            "data may not support this many states"
        )
    best_model = None
    best_ll = -np.inf
    for result in trained:
        if result is not None and result[1][-1] > best_ll:
            best_model, history = result
            best_ll = history[-1]
            best_model.fit_history = history
    return best_model


def _decode_restarts(models, x_all, bounds, groups):
    """Each model's emissions and Viterbi paths over the fit's sequences:
    per model, a list of each sequence's (T_i, K) emissions and one of its
    (T_i,) paths.

    A model's emissions are one solve per state over all the rows, x_all
    (every sequence has at least 10 rows, and a row's bits are the same in
    any block of two or more rows). The sequences of one length are decoded
    for all the models in one _viterbi call, each row with its own model's
    log probabilities.
    """
    emissions = [np.split(_emission_logprobs(m, x_all), bounds) for m in models]
    paths = [[None] * (len(bounds) + 1) for _ in models]
    log_init = np.stack([m._log_init for m in models])
    log_trans = np.stack([m._log_trans for m in models])
    for members in groups.values():
        per = len(members)
        stack = np.stack([emis[i] for emis in emissions for i in members])
        decoded = _viterbi(np.repeat(log_init, per, axis=0),
                           np.repeat(log_trans, per, axis=0), stack)
        for model_paths, rows in zip(paths, decoded.reshape(len(models), per, -1)):
            for i, path in zip(members, rows):
                model_paths[i] = path
    return emissions, paths


def best_permutation(predicted, true) -> np.ndarray:
    """Relabeling perm (perm[state] = label) maximizing agreement with true.

    The robust label-switching resolution when state means do not separate
    the regimes: exhaustive over permutations (small K), ties broken toward
    the lexicographically first permutation, so identity wins when already
    aligned.
    """
    predicted = np.asarray(predicted, dtype=np.int64)
    true = np.asarray(true, dtype=np.int64)
    if predicted.shape != true.shape:
        raise ValueError(
            f"label sequences differ in shape: {predicted.shape} vs {true.shape}"
        )
    if predicted.size == 0:
        raise ValueError("label sequences are empty")
    k = int(max(predicted.max(), true.max())) + 1
    if k > 8:
        raise ValueError(f"{k} labels is past the permutation-search cap of 8")
    best_perm = None
    best_score = -1.0
    for perm in itertools.permutations(range(k)):
        remap = np.asarray(perm, dtype=np.int64)[predicted]
        score = float(np.mean(remap == true))
        if score > best_score:
            best_score = score
            best_perm = perm
    return np.asarray(best_perm, dtype=np.int64)


def save(model: GaussianHmmModel, path):
    """Plain-text (JSON) parameter file with full round-trip precision.

    fit_history (the winning restart's per-iteration log-likelihoods) is
    written too; load accepts files with or without it.
    """
    payload = {
        "format_version": 1,
        "n_states": model.n_states,
        "n_features": model.n_features,
        **{name: getattr(model, name).tolist() for name in _FILE_ARRAYS},
        "fit_history": [float(ll) for ll in model.fit_history],
    }
    with open(path, "w") as f:
        json.dump(payload, f, indent=2)
        f.write("\n")


# each array field of a model file, in file order, and its number of dimensions
_FILE_ARRAYS = {"means": 2, "covariances": 3, "transition": 2, "initial": 1}


def load(path) -> GaussianHmmModel:
    """The model save wrote to path. A file that cannot be read, or a field
    that is missing or invalid, raises one CheckpointError naming the file
    and the field."""
    try:
        with open(path) as f:
            payload = json.load(f)
        return _model_from_payload(payload)
    except (OSError, ValueError) as exc:
        raise CheckpointError(f"cannot read detector file {path}: {exc}") from exc


def _model_from_payload(payload) -> GaussianHmmModel:
    if not isinstance(payload, dict):
        raise ValueError("the file must hold a JSON object")
    version = payload.get("format_version")
    if version != 1:
        raise ValueError(
            f"unsupported model file version {version!r} in field "
            "'format_version'"
        )
    arrays = {}
    for name, ndim in _FILE_ARRAYS.items():
        if name not in payload:
            raise ValueError(f"field {name!r} is missing")
        try:
            value = np.array(payload[name])
            valid = (value.dtype.kind in "iuf" and value.ndim == ndim
                     and np.isfinite(value).all())
        except ValueError:  # a ragged list
            valid = False
        if not valid:
            raise ValueError(
                f"field {name!r} must be a {ndim}-D array of finite numbers, "
                f"got {json.dumps(payload[name])[:80]}"
            )
        arrays[name] = value
    history = payload.get("fit_history", [])
    if not isinstance(history, list) or not all(
        type(ll) in (int, float) for ll in history
    ):
        raise ValueError(
            "field 'fit_history' must be a list of numbers, got "
            f"{json.dumps(history)[:80]}"
        )
    return GaussianHmmModel(
        fit_history=[float(ll) for ll in history], **arrays
    )
