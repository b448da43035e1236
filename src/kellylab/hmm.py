"""Multivariate Gaussian hidden Markov model over per-period log returns.

Fitting is Viterbi training (hard EM): decode the current best state path,
then re-estimate parameters from the hard assignments with small conjugate
priors and a covariance eigenvalue floor. The detection problem here is tiny
(K = 2 states, 3 features), so everything is dense and exact; log-domain
arithmetic keeps million-step sequences from underflowing.

The Viterbi recursion (Rabiner 1989) runs over a stack of equal-length
sequences, one loop over time for the whole stack; one sequence is a stack of
one, and the fit decodes its sequences grouped by length. predict_current
runs only the forward max pass (no backpointers); max is exact, so its label
is decode's last state bit for bit. A model computes its Cholesky factors and
log probabilities once, and its arrays are read-only so they cannot go stale.

The fit works on raw, unlabelled returns, so its state indices are arbitrary
(label switching): best_permutation() maps them onto simulator regimes, and
accuracy() scores against the best label permutation so callers cannot get it
wrong silently.
"""

import itertools
import json
from dataclasses import dataclass, field
from operator import add

import numpy as np
from scipy.linalg.lapack import dtrtrs

from .errors import FitError

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
        for name in (
            "n_states",
            "n_init",
            "max_iter",
            "tol",
            "mean_prior",
            "covar_prior",
            "min_covar",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


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
            chol = np.linalg.cholesky(self.covariances[i])  # PD check
            self._chol.append(chol)
            self._logdet.append(2.0 * np.sum(np.log(np.diag(chol))))
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
        # plain-float copies for predict_current; _log_into[j][i] = log P(i -> j)
        self._log_into = self._log_trans.T.tolist()
        self._log_init_list = self._log_init.tolist()

    @property
    def n_states(self) -> int:
        return self.means.shape[0]

    @property
    def n_features(self) -> int:
        return self.means.shape[1]


_LOG_2PI = np.log(2.0 * np.pi)


def _emission_logprobs(model: GaussianHmmModel, x: np.ndarray) -> np.ndarray:
    """log N(x_t | mean_k, cov_k) for every (t, k), shape (T, K).

    One triangular solve per state over the whole (T, n) block: the solve's
    result depends on its column count, so a caller that wants the same bits
    must pass the same block.
    """
    t, n = x.shape
    out = np.empty((t, model.n_states))
    for k in range(model.n_states):
        diff = x - model.means[k]
        if not np.isfinite(diff).all():
            raise ValueError("array must not contain infs or NaNs")
        # the LAPACK call that solve_triangular(chol, diff.T, lower=True)
        # makes, without its per-call overhead; the check above is its
        # check_finite
        z, info = dtrtrs(model._chol[k].T, diff.T, lower=0, trans=1)
        if info != 0:
            raise np.linalg.LinAlgError(f"triangular solve failed (info {info})")
        quad = np.sum(z * z, axis=0)
        out[:, k] = -0.5 * (quad + model._logdet[k] + n * _LOG_2PI)
    return out


def _viterbi(model: GaussianHmmModel, emis: np.ndarray) -> np.ndarray:
    """Most-likely state paths (S, T) from stacked emissions (S, T, K)."""
    s_len, t_len, k = emis.shape
    score = model._log_init + emis[:, 0]
    backptr = np.empty((t_len, s_len, k), dtype=np.int64)
    for t in range(1, t_len):
        cand = score[:, :, None] + model._log_trans  # (S, from, to)
        backptr[t] = cand.argmax(axis=1)
        score = cand.max(axis=1) + emis[:, t]
    path = np.empty((s_len, t_len), dtype=np.int64)
    path[:, -1] = np.argmax(score, axis=1)
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
        paths = _viterbi(model, np.stack([_emission_logprobs(model, s) for s in xs]))
    return paths if stacked else paths[0]


def predict_current(model: GaussianHmmModel, window) -> int:
    """Regime label now: final state of the decode over a recent window.

    Runs the forward max-product pass on plain floats and keeps no
    backpointers; every step takes the same max of the same sums as decode,
    so the label is decode(model, window)[-1] exactly.
    """
    window = np.atleast_2d(np.asarray(window, dtype=np.float64))
    if window.shape[0] < 1:
        raise ValueError("window must contain at least one return row")
    if model.n_states == 1:
        return 0
    emis = _emission_logprobs(model, window).tolist()
    score = list(map(add, model._log_init_list, emis[0]))
    for row in emis[1:]:
        score = [
            max(map(add, score, into)) + e for into, e in zip(model._log_into, row)
        ]
    return max(range(len(score)), key=score.__getitem__)


def label_observation(model: GaussianHmmModel, obs, window: int,
                      n_assets: int) -> int:
    """Regime label from an observation that starts with its price window.

    The first window * n_assets entries of obs are the (window, n_assets)
    prices, oldest row first; the detector sees their log returns.
    """
    prices = obs[: n_assets * window].reshape(window, n_assets)
    return predict_current(model, np.diff(np.log(prices), axis=0))


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


def _m_step(sequences, paths, config: HmmFitConfig):
    """Closed-form penalized re-estimation from hard assignments.

    Means shrink toward zero with weight mean_prior and covariances carry a
    covar_prior * I ridge; both are the exact maximizers of the penalized
    complete-data objective, so training log-likelihood is monotone up to the
    floor. Returns None when some state received no observations or has no
    outgoing transitions (degenerate restart).
    """
    k = config.n_states
    n = sequences[0].shape[1]
    x_all = np.vstack(sequences)
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

    trans_counts = np.zeros((k, k))
    init_counts = np.zeros(k)
    for z in paths:
        init_counts[z[0]] += 1
        np.add.at(trans_counts, (z[:-1], z[1:]), 1.0)
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


def fit(sequences, config: HmmFitConfig = None, rng=None) -> GaussianHmmModel:
    """Hard-EM fit over a list of (T_i, n) log-return matrices.

    Runs n_init random restarts (re-drawing a restart whose assignment
    degenerates, up to a retry cap) and keeps the best final joint
    log-likelihood. The winning restart's per-iteration log-likelihoods are
    left on the model as fit_history.
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
        if s.shape[0] < config.n_states * 10:
            raise ValueError(
                f"sequence {i} has {s.shape[0]} rows; need >= "
                f"{config.n_states * 10} for {config.n_states} states"
            )
    x_all = np.vstack(sequences)

    best_model = None
    best_ll = -np.inf
    any_success = False
    for _restart in range(config.n_init):
        for _attempt in range(_MAX_REINIT_ATTEMPTS):
            model = _random_init(x_all, config, rng)
            trained = _train_restart(sequences, model, config)
            if trained is not None:
                break
        else:
            continue
        any_success = True
        model, history = trained
        if history[-1] > best_ll:
            best_ll = history[-1]
            best_model = model
            best_model.fit_history = history
    if not any_success:
        raise FitError(
            "every restart degenerated (a state kept losing all observations); "
            "data may not support this many states"
        )
    return best_model


def _train_restart(sequences, model, config):
    groups = {}
    for i, x in enumerate(sequences):
        groups.setdefault(x.shape[0], []).append(i)
    history = []
    for _iteration in range(config.max_iter):
        emissions = [_emission_logprobs(model, x) for x in sequences]
        paths = [None] * len(sequences)
        for members in groups.values():
            group_paths = _viterbi(model, np.stack([emissions[i] for i in members]))
            for i, path in zip(members, group_paths):
                paths[i] = path
        ll = _path_log_likelihood(model, emissions, paths)
        if history and ll - history[-1] < config.tol:
            history.append(ll)
            return model, history  # converged; model produced history[-1]
        history.append(ll)
        new_model = _m_step(sequences, paths, config)
        if new_model is None:
            return None
        model = new_model
    return model, history


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


def save(model: GaussianHmmModel, path):
    """Plain-text (JSON) parameter file with full round-trip precision.

    fit_history (the winning restart's per-iteration log-likelihoods) is
    written too; load accepts files with or without it.
    """
    payload = {
        "format_version": 1,
        "n_states": model.n_states,
        "n_features": model.n_features,
        "means": model.means.tolist(),
        "covariances": model.covariances.tolist(),
        "transition": model.transition.tolist(),
        "initial": model.initial.tolist(),
        "fit_history": [float(ll) for ll in model.fit_history],
    }
    with open(path, "w") as f:
        json.dump(payload, f, indent=2)
        f.write("\n")


def load(path) -> GaussianHmmModel:
    with open(path) as f:
        payload = json.load(f)
    if payload.get("format_version") != 1:
        raise ValueError(
            f"unsupported model file version {payload.get('format_version')!r}"
        )
    return GaussianHmmModel(
        means=payload["means"],
        covariances=payload["covariances"],
        transition=payload["transition"],
        initial=payload["initial"],
        fit_history=[float(ll) for ll in payload.get("fit_history", [])],
    )
