"""Test-local oracles for the forward scores hmm.SlidingLabels keeps and
the labels hmm.predict_current gives."""

import numpy as np

from kellylab import hmm


def forward_score(model, emis):
    """_viterbi's forward pass over a stack of emission rows (S, R, K), each
    sequence alone, to its last scores (S, K): the same adds in the same
    order and the same np.maximum fold."""
    score = model._log_init + emis[:, 0]
    for row in emis.transpose(1, 0, 2)[1:]:
        cand = score[:, :, None] + model._log_trans
        best = np.maximum(cand[:, 0], cand[:, -1])
        for i in range(1, model.n_states - 1):
            best = np.maximum(best, cand[:, i])
        score = best + row
    return score


def forward_labels(model, emis):
    """The last state (S,) of each sequence's decode over its emission rows
    (S, R, K): the argmax of its forward score."""
    return forward_score(model, emis).argmax(axis=1)


def window_labels(model, windows) -> list:
    """The regime labels of a stack of (T, n) windows of return rows, each
    labelled alone: the argmax of forward_score over the window's own
    emissions, checked against decode's last states."""
    xs = np.asarray(windows, dtype=np.float64)
    emis = np.stack([hmm._emission_logprobs(model, x) for x in xs])
    labels = forward_labels(model, emis).tolist()
    assert labels == hmm.decode(model, xs)[:, -1].tolist()
    return labels


def window_label(model, window) -> int:
    """The regime label of one (T, n) window, as window_labels gives it."""
    return window_labels(model, [window])[0]


def assert_open_window_scores(sliding, t, emis):
    """Each window a SlidingLabels keeps open at clock t has, as its score,
    the bits of forward_score over its rows so far. emis (L, T, K) are the
    live lanes' window emissions at t; the window labelled at t + d has the
    rows d.. of them so far."""
    t_len = emis.shape[1]
    for d in range(t_len):
        want = forward_score(sliding.model, emis[:, d:])
        got = sliding._scores[:, :, (t + d) % t_len].T
        assert got.tobytes() == want.tobytes(), d
