"""A test-local oracle for the forward scores hmm.SlidingLabels keeps."""

import numpy as np


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
