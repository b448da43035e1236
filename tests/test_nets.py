"""Network plumbing: init, the parameter vector, Adam, clipping, checkpoints."""

import io
import json
import zipfile
from types import SimpleNamespace

import numpy as np
import pytest

import kellylab.nets
from kellylab.errors import CheckpointError
from kellylab.nets import (
    LOG_STD_MAX,
    LOG_STD_MIN,
    Adam,
    ContextPolicyNet,
    Dense,
    Param,
    PolicyNet,
    build_net,
    clip_grad_norm,
    global_grad_norm,
    load_checkpoint,
    orthogonal,
    save_checkpoint,
)


def test_orthogonal_square():
    q = orthogonal(np.random.default_rng(0), 8, 8, gain=np.sqrt(2.0))
    assert q.shape == (8, 8)
    assert np.allclose(q.T @ q, 2.0 * np.eye(8), atol=1e-12)


def test_orthogonal_rectangular():
    tall = orthogonal(np.random.default_rng(1), 8, 4, gain=1.0)
    assert tall.shape == (8, 4)
    assert np.allclose(tall.T @ tall, np.eye(4), atol=1e-12)
    wide = orthogonal(np.random.default_rng(2), 4, 8, gain=0.5)
    assert wide.shape == (4, 8)
    assert np.allclose(wide @ wide.T, 0.25 * np.eye(4), atol=1e-12)


def test_policy_net_shapes_and_log_std():
    net = PolicyNet(6, 2, np.random.default_rng(0), init_log_std=0.5,
                    hidden=(8, 8))
    assert len(net.params()) == 9
    assert np.array_equal(net.log_std.value, np.array([0.5, 0.5]))
    mean, value = net.forward(np.zeros((3, 6)))
    assert mean.shape == (3, 2)
    assert value.shape == (3,)
    # zero input through tanh layers with zero biases gives zero outputs
    assert np.array_equal(mean, np.zeros((3, 2)))
    assert np.array_equal(value, np.zeros(3))


def test_policy_net_seed_determinism():
    a = PolicyNet(5, 1, np.random.default_rng(42))
    b = PolicyNet(5, 1, np.random.default_rng(42))
    assert np.array_equal(a.flat, b.flat)
    c = PolicyNet(5, 1, np.random.default_rng(43))
    assert not np.array_equal(a.flat, c.flat)


def test_context_net_shapes():
    net = ContextPolicyNet(
        10, 2, 1, np.random.default_rng(0),
        feature_sizes=(8, 4), regime_sizes=(6, 4), shared_sizes=(4,),
    )
    mean, value = net.forward(np.ones((5, 10)), np.ones((5, 2)))
    assert mean.shape == (5, 1)
    assert value.shape == (5,)


def test_param_names_in_params_order():
    # params() order is the param_i layout every checkpoint stores
    plain = PolicyNet(3, 1, np.random.default_rng(0), hidden=(4, 4))
    assert [p.name for p in plain.params()] == [
        "trunk.0.W", "trunk.0.b", "trunk.1.W", "trunk.1.b",
        "actor.W", "actor.b", "critic.W", "critic.b", "log_std",
    ]
    gated = ContextPolicyNet(3, 2, 1, np.random.default_rng(0),
                             feature_sizes=(4,), regime_sizes=(4,),
                             shared_sizes=(4,))
    assert [p.name for p in gated.params()] == [
        "feature.0.W", "feature.0.b", "regime.0.W", "regime.0.b",
        "shared.0.W", "shared.0.b",
        "actor.W", "actor.b", "critic.W", "critic.b", "log_std",
    ]


def test_context_net_rejects_width_mismatch():
    with pytest.raises(ValueError, match="must match regime width"):
        ContextPolicyNet(
            10, 2, 1, np.random.default_rng(0),
            feature_sizes=(8, 4), regime_sizes=(6, 6), shared_sizes=(4,),
        )


def test_dense_rejects_unknown_activation():
    with pytest.raises(ValueError, match="unknown activation"):
        Dense(2, 2, "sigmoid", 1.0, np.random.default_rng(0), "x")


def test_clamp_log_std():
    net = PolicyNet(3, 2, np.random.default_rng(0))
    net.log_std.value[:] = [-30.0, 5.0]
    net.clamp_log_std()
    assert np.array_equal(net.log_std.value, np.array([LOG_STD_MIN, LOG_STD_MAX]))


def test_flat_round_trip():
    a = PolicyNet(4, 2, np.random.default_rng(0), hidden=(8,))
    b = PolicyNet(4, 2, np.random.default_rng(9), hidden=(8,))
    assert not np.array_equal(a.flat, b.flat)
    b.flat[:] = a.flat
    assert np.array_equal(a.flat, b.flat)
    obs = np.random.default_rng(1).normal(size=(3, 4))
    for got, want in zip(b.forward(obs), a.forward(obs)):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("make", [
    lambda rng: PolicyNet(6, 2, rng, hidden=(8, 16)),
    lambda rng: ContextPolicyNet(39, 3, 3, rng),
])
def test_params_are_views_into_the_flat_vectors(make):
    net = make(np.random.default_rng(0))
    offset = 0
    for p in net.params():
        size = p.value.size
        assert np.shares_memory(p.value, net.flat[offset:offset + size])
        assert np.shares_memory(p.grad, net.flat_grad[offset:offset + size])
        assert p.grad.shape == p.value.shape
        assert p.grad.flags.f_contiguous == p.value.flags.f_contiguous
        assert p.grad.flags.c_contiguous == p.value.flags.c_contiguous
        assert np.array_equal(p.value.ravel(order="K"),
                              net.flat[offset:offset + size])
        offset += size
    assert offset == net.flat.size == net.flat_grad.size
    # orthogonal() returns a transposed (F-ordered) W when n_in < n_out; the
    # view keeps that order, so per-parameter sums add in the same order
    if isinstance(net, ContextPolicyNet):
        first = net.feature.layers[0].W
        assert first.value.shape == (39, 256)
        assert first.value.flags.f_contiguous
        assert not first.value.flags.c_contiguous
        assert first.grad.flags.f_contiguous


def oracle_backward(net, d_mean, d_value):
    """Backward pass that computes every layer's input gradient, as each
    Dense did before the first layers of a stack stopped returning one."""

    def dense(layer, d_out):
        if layer.activation == "tanh":
            dz = d_out * (1.0 - layer._out**2)
        elif layer.activation == "relu":
            dz = d_out * (layer._z > 0.0)
        else:
            dz = d_out
        layer.W.grad[...] = layer._x.T @ dz
        layer.b.grad[...] = dz.sum(axis=0)
        return dz @ layer.W.value.T

    def stack(chain, d_out):
        for layer in reversed(chain.layers):
            d_out = dense(layer, d_out)
        return d_out

    d_feat = dense(net.actor, d_mean)
    d_feat += dense(net.critic, d_value[:, None])
    if isinstance(net, PolicyNet):
        return stack(net.feature, d_feat)
    d_prod = stack(net.shared, d_feat)
    return (stack(net.feature, d_prod * net._regime_out),
            stack(net.regime, d_prod * net._feat_out))


@pytest.mark.parametrize("make", [
    lambda rng: PolicyNet(5, 1, rng),
    lambda rng: PolicyNet(184, 3, rng),
    lambda rng: ContextPolicyNet(39, 3, 3, rng),
    lambda rng: ContextPolicyNet(7, 2, 2, rng, feature_sizes=(8, 4),
                                 regime_sizes=(6, 4), shared_sizes=(4, 4)),
])
def test_backward_matches_an_oracle_that_computes_every_input_gradient(make):
    rng = np.random.default_rng(3)
    net = make(rng)
    rows = 64
    obs = rng.normal(size=(rows, net.obs_dim))
    inputs = (obs,) if isinstance(net, PolicyNet) else (
        obs, rng.dirichlet(np.ones(net.context_dim), size=rows))
    net.forward(*inputs)
    d_mean = rng.normal(size=(rows, net.action_dim))
    d_value = rng.normal(size=rows)
    net.backward(d_mean, d_value)
    got = net.flat_grad.copy()
    got_norm = clip_grad_norm(net, 0.0)
    oracle_backward(net, d_mean, d_value)
    assert np.array_equal(got.view(np.int64), net.flat_grad.view(np.int64))
    # the gradient norm, per parameter in params() order, as it was summed
    want_norm = 0.0
    for p in net.params():
        want_norm += float(np.sum(p.grad**2))
    assert got_norm == np.sqrt(want_norm)
    if isinstance(net, ContextPolicyNet) and net.obs_dim == 39:
        assert net.feature.layers[0].W.value.flags.f_contiguous


def test_stack_input_gradient_only_on_request():
    net = ContextPolicyNet(6, 2, 1, np.random.default_rng(4),
                           feature_sizes=(8, 4), regime_sizes=(6, 4),
                           shared_sizes=(4, 3))
    rng = np.random.default_rng(5)
    net.forward(rng.normal(size=(3, 6)), rng.dirichlet(np.ones(2), size=3))
    d_out = rng.normal(size=(3, 3))
    assert net.shared.backward(d_out) is None
    d_in = net.shared.backward(d_out, input_grad=True)
    want = d_out
    for layer in reversed(net.shared.layers):
        want = (want * (1.0 - layer._out**2)) @ layer.W.value.T
    assert np.array_equal(d_in, want)


def test_adam_single_step_closed_form():
    p = Param(np.array([1.0]), "p")
    p.grad[:] = 0.5
    opt = Adam(SimpleNamespace(flat=p.value, flat_grad=p.grad), learning_rate=0.1)
    opt.step()
    m_hat = (0.1 * 0.5) / (1.0 - 0.9)
    v_hat = (0.001 * 0.25) / (1.0 - 0.999)
    expected = 1.0 - 0.1 * m_hat / (np.sqrt(v_hat) + 1e-8)
    assert p.value[0] == pytest.approx(expected, rel=1e-14)

    p.grad[:] = 0.5
    opt.step()
    m2 = (0.9 * 0.05 + 0.1 * 0.5) / (1.0 - 0.9**2)
    v2 = (0.999 * 0.00025 + 0.001 * 0.25) / (1.0 - 0.999**2)
    expected2 = expected - 0.1 * m2 / (np.sqrt(v2) + 1e-8)
    assert p.value[0] == pytest.approx(expected2, rel=1e-14)


def dividing_adam_step(value, grad, m, v, t, lr, b1=0.9, b2=0.999, eps=1e-8):
    """Oracle: Adam's step with both bias corrections always divided."""
    bias1 = 1.0 - b1**t
    bias2 = 1.0 - b2**t
    m *= b1
    m += np.multiply(grad, 1.0 - b1)
    v *= b2
    v += np.multiply(np.square(grad), 1.0 - b2)
    denom = np.add(np.sqrt(np.divide(v, bias2)), eps)
    step = np.multiply(np.divide(m, bias1), lr)
    value -= np.divide(step, denom)


@pytest.mark.parametrize("t", [1, 354, 355, 356, 357, 1000, 37410, 37411,
                               37412, 37413, 312_400])
def test_adam_skips_only_exact_no_op_bias_divisions(t):
    # 1 - 0.9**t is exactly 1.0 from t = 356, 1 - 0.999**t from t = 37,412;
    # each step on either side of both must keep the dividing step's bits
    rng = np.random.default_rng(t)
    value = rng.normal(size=50)
    grad = rng.normal(size=50) * rng.choice([1e-6, 1.0, 1e3], size=50)
    opt = Adam(SimpleNamespace(flat=value.copy(), flat_grad=grad.copy()),
               learning_rate=3e-4)
    opt._m[:] = rng.normal(size=50) * 0.01
    opt._v[:] = rng.uniform(size=50) * 1e-4
    m, v, expected = opt._m.copy(), opt._v.copy(), value.copy()
    opt.t = t - 1
    for step in range(t, t + 3):
        opt.step()
        dividing_adam_step(expected, grad, m, v, step, 3e-4)
        assert opt.value.tobytes() == expected.tobytes(), step
        assert opt._m.tobytes() == m.tobytes()
        assert opt._v.tobytes() == v.tobytes()


def one_pass_adam_step(opt):
    """Oracle: Adam's step as one pass of each operation over the whole
    vector, through full-length scratch."""
    opt.t += 1
    b1, b2 = 0.9, 0.999
    bias1 = 1.0 - b1**opt.t
    bias2 = 1.0 - b2**opt.t
    m, v, g = opt._m, opt._v, opt.grad
    step, denom = np.empty_like(m), np.empty_like(m)
    m *= b1
    m += np.multiply(g, 1.0 - b1, out=step)
    v *= b2
    v += np.multiply(np.square(g, out=step), 1.0 - b2, out=step)
    v_hat = np.divide(v, bias2, out=denom) if bias2 != 1.0 else v
    np.add(np.sqrt(v_hat, out=denom), 1e-8, out=denom)
    m_hat = np.divide(m, bias1, out=step) if bias1 != 1.0 else m
    np.multiply(m_hat, opt.learning_rate, out=step)
    opt.value -= np.divide(step, denom, out=step)


def test_chunked_adam_has_the_bits_of_one_pass_over_the_vector():
    # two whole chunks and a 5-element tail: every chunk bound is crossed
    size = 2 * kellylab.nets._ADAM_CHUNK + 5
    rng = np.random.default_rng(21)
    value, grad = rng.normal(size=size), np.empty(size)
    chunked = Adam(SimpleNamespace(flat=value.copy(), flat_grad=grad),
                   learning_rate=3e-4)
    oracle = Adam(SimpleNamespace(flat=value.copy(), flat_grad=grad),
                  learning_rate=3e-4)
    assert len(chunked._chunks) == 3
    for _ in range(20):
        grad[...] = rng.normal(size=size) * rng.choice([1e-6, 1.0, 1e3],
                                                       size=size)
        chunked.step()
        one_pass_adam_step(oracle)
        assert chunked.value.tobytes() == oracle.value.tobytes()
        assert chunked._m.tobytes() == oracle._m.tobytes()
        assert chunked._v.tobytes() == oracle._v.tobytes()


def test_grad_norm_and_clipping():
    net = PolicyNet(3, 1, np.random.default_rng(0), hidden=(4,))
    a, b = net.params()[0], net.params()[-1]
    a.grad.flat[0] = 3.0
    b.grad[:] = 4.0
    assert global_grad_norm(net.params()) == pytest.approx(5.0, rel=1e-15)
    returned = clip_grad_norm(net, 1.0)
    assert returned == pytest.approx(5.0, rel=1e-15)
    assert a.grad.flat[0] == pytest.approx(0.6, rel=1e-12)
    assert b.grad[0] == pytest.approx(0.8, rel=1e-12)
    # already inside the ball: untouched
    returned = clip_grad_norm(net, 10.0)
    assert returned == pytest.approx(1.0, rel=1e-12)
    assert a.grad.flat[0] == pytest.approx(0.6, rel=1e-12)
    # max_norm = 0 disables clipping entirely
    returned = clip_grad_norm(net, 0.0)
    assert returned == pytest.approx(1.0, rel=1e-12)
    assert b.grad[0] == pytest.approx(0.8, rel=1e-12)


def test_checkpoint_round_trip(tmp_path):
    net = PolicyNet(4, 2, np.random.default_rng(1), init_log_std=-0.3,
                    hidden=(8,))
    net.log_std.value[:] = [-0.1, 0.7]
    path = tmp_path / "net.npz"
    save_checkpoint(net, path, extra_meta={"episodes": 12})
    loaded, meta = load_checkpoint(path)
    assert isinstance(loaded, PolicyNet)
    assert np.array_equal(loaded.flat, net.flat)
    assert meta["net"]["kind"] == "policy"
    assert meta["net"]["hidden"] == [8]
    assert meta["extra"] == {"episodes": 12}


def test_checkpoint_context_net_round_trip(tmp_path):
    net = ContextPolicyNet(
        6, 2, 2, np.random.default_rng(3),
        feature_sizes=(8, 4), regime_sizes=(4, 4), shared_sizes=(4,),
    )
    net.flat[:] = np.random.default_rng(4).normal(size=net.flat.size)
    path = tmp_path / "ctx.npz"
    save_checkpoint(net, path)
    loaded, meta = load_checkpoint(path)
    assert isinstance(loaded, ContextPolicyNet)
    assert np.array_equal(loaded.flat, net.flat)
    assert all(np.shares_memory(p.value, loaded.flat) for p in loaded.params())
    assert meta["net"]["feature_sizes"] == [8, 4]
    obs = np.ones((2, 6))
    ctx = np.eye(2)
    got = loaded.forward(obs, ctx)
    want = net.forward(obs, ctx)
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])


# the checkpoint header of each net kind, as save_checkpoint writes it
HEADERS = [
    (PolicyNet(3, 2, np.random.default_rng(0), init_log_std=-0.5, hidden=(4, 5)),
     '{"extra": {"seed": 7}, "format_version": 1, "net": {"action_dim": 2, '
     '"hidden": [4, 5], "init_log_std": -0.5, "kind": "policy", "obs_dim": 3}}'),
    (ContextPolicyNet(6, 3, 2, np.random.default_rng(0), init_log_std=-2.0,
                      feature_sizes=(8, 4), regime_sizes=(5, 4),
                      shared_sizes=(4,)),
     '{"extra": {"seed": 7}, "format_version": 1, "net": {"action_dim": 2, '
     '"context_dim": 3, "feature_sizes": [8, 4], "init_log_std": -2.0, '
     '"kind": "context_policy", "obs_dim": 6, "regime_sizes": [5, 4], '
     '"shared_sizes": [4]}}'),
]


@pytest.mark.parametrize("net, header", HEADERS, ids=["policy", "context"])
def test_checkpoint_header_is_pinned(tmp_path, net, header):
    path = tmp_path / "net.npz"
    save_checkpoint(net, path, extra_meta={"seed": 7})
    with np.load(path) as data:
        assert bytes(data["meta_json"]).decode("utf-8") == header


@pytest.mark.parametrize("net, optional", [
    (PolicyNet(3, 2, np.random.default_rng(1)), ["hidden", "init_log_std"]),
    (ContextPolicyNet(6, 3, 2, np.random.default_rng(1)),
     ["feature_sizes", "regime_sizes", "shared_sizes", "init_log_std"]),
], ids=["policy", "context"])
def test_header_fields_left_out_take_the_constructor_defaults(
        tmp_path, net, optional):
    path = tmp_path / "net.npz"
    save_checkpoint(net, path)
    header = {k: v for k, v in net.config_dict().items() if k not in optional}
    rewrite_meta(path, {"format_version": 1, "net": header})
    loaded, _ = load_checkpoint(path)
    assert type(loaded) is type(net)
    assert loaded.config_dict() == net.config_dict()
    assert np.array_equal(loaded.flat, net.flat)


def test_checkpoint_bytes_are_deterministic(tmp_path):
    net = PolicyNet(3, 1, np.random.default_rng(5), hidden=(4,))
    first = tmp_path / "a.npz"
    second = tmp_path / "b.npz"
    save_checkpoint(net, first)
    save_checkpoint(net, second)
    assert first.read_bytes() == second.read_bytes()


def test_checkpoint_rejects_corrupt_file(tmp_path):
    path = tmp_path / "bad.npz"
    path.write_bytes(b"this is not a checkpoint")
    with pytest.raises(CheckpointError, match="cannot read checkpoint"):
        load_checkpoint(path)
    with pytest.raises(CheckpointError, match="cannot read checkpoint"):
        load_checkpoint(tmp_path / "missing.npz")


def test_checkpoint_rejects_unknown_version(tmp_path, monkeypatch):
    net = PolicyNet(3, 1, np.random.default_rng(0), hidden=(4,))
    path = tmp_path / "future.npz"
    monkeypatch.setattr(kellylab.nets, "CHECKPOINT_VERSION", 2)
    save_checkpoint(net, path)
    monkeypatch.undo()
    with pytest.raises(CheckpointError, match="unsupported checkpoint version 2"):
        load_checkpoint(path)


def rewrite_meta(path, meta):
    with np.load(path) as data:
        arrays = {name: data[name] for name in data.files}
    arrays["meta_json"] = np.frombuffer(
        json.dumps(meta, sort_keys=True).encode("utf-8"), dtype=np.uint8
    )
    with zipfile.ZipFile(path, "w", zipfile.ZIP_STORED) as archive:
        for name, array in arrays.items():
            buf = io.BytesIO()
            np.lib.format.write_array(buf, np.ascontiguousarray(array))
            archive.writestr(f"{name}.npy", buf.getvalue())


def test_checkpoint_rejects_shape_mismatch(tmp_path):
    net = PolicyNet(4, 2, np.random.default_rng(1), hidden=(8,))
    path = tmp_path / "net.npz"
    save_checkpoint(net, path)
    meta = {
        "format_version": 1,
        "net": {"kind": "policy", "obs_dim": 4, "action_dim": 2,
                "hidden": [16], "init_log_std": 0.0},
    }
    rewrite_meta(path, meta)
    with pytest.raises(CheckpointError, match="has shape"):
        load_checkpoint(path)


@pytest.mark.parametrize("meta, expected", [
    ([1, 2], "header must be a JSON object, not list"),
    ({"format_version": 1, "net": [1]},
     "header field 'net' must be a JSON object, not list"),
    ({"format_version": 1}, "header field 'net' is missing"),
    ({"format_version": 1, "net": {"kind": "policy", "action_dim": 1}},
     "net field 'obs_dim' is missing"),
    ({"format_version": 1, "net": {"kind": "policy", "obs_dim": 3}},
     "net field 'action_dim' is missing"),
], ids=["list", "net-list", "net-missing", "obs-dim-missing",
        "action-dim-missing"])
def test_checkpoint_rejects_malformed_headers(tmp_path, meta, expected):
    net = PolicyNet(3, 1, np.random.default_rng(0), hidden=(4,))
    path = tmp_path / "header.npz"
    save_checkpoint(net, path)
    rewrite_meta(path, meta)
    with pytest.raises(CheckpointError) as info:
        load_checkpoint(path)
    assert str(info.value) == f"cannot read checkpoint {path}: {expected}"


def test_build_net_rejects_unknown_kind():
    with pytest.raises(CheckpointError, match="unknown net kind 'mystery'"):
        build_net({"kind": "mystery"})


@pytest.mark.parametrize(
    "field, value",
    [("hidden", []), ("hidden", None), ("hidden", [4, 0]),
     ("shared_sizes", []), ("feature_sizes", None)],
    ids=["hidden-empty", "hidden-null", "hidden-zero-width", "shared-empty",
         "feature-null"],
)
def test_checkpoint_rejects_bad_layer_lists(tmp_path, field, value):
    if field == "hidden":
        net = PolicyNet(3, 1, np.random.default_rng(0), hidden=(4,))
    else:
        net = ContextPolicyNet(3, 2, 1, np.random.default_rng(0),
                               feature_sizes=(4,), regime_sizes=(4,),
                               shared_sizes=(4,))
    path = tmp_path / "layers.npz"
    save_checkpoint(net, path)
    meta = {"format_version": 1, "net": dict(net.config_dict(), **{field: value})}
    rewrite_meta(path, meta)
    with pytest.raises(CheckpointError) as info:
        load_checkpoint(path)
    message = str(info.value)
    assert message.startswith(f"cannot read checkpoint {path}: ")
    assert f"net field {field!r}" in message


@pytest.mark.parametrize(
    "field, value",
    [("obs_dim", None), ("obs_dim", 0), ("action_dim", None),
     ("action_dim", True), ("context_dim", None), ("context_dim", 2.0),
     ("init_log_std", None), ("init_log_std", "0.5"),
     ("init_log_std", float("nan"))],
    ids=["obs-null", "obs-zero", "action-null", "action-bool", "context-null",
         "context-float", "log-std-null", "log-std-string", "log-std-nan"],
)
def test_checkpoint_rejects_bad_scalars(tmp_path, field, value):
    if field == "context_dim":
        net = ContextPolicyNet(3, 2, 1, np.random.default_rng(0),
                               feature_sizes=(4,), regime_sizes=(4,),
                               shared_sizes=(4,))
    else:
        net = PolicyNet(3, 1, np.random.default_rng(0), hidden=(4,))
    path = tmp_path / "scalars.npz"
    save_checkpoint(net, path)
    meta = {"format_version": 1, "net": dict(net.config_dict(), **{field: value})}
    rewrite_meta(path, meta)
    with pytest.raises(CheckpointError) as info:
        load_checkpoint(path)
    message = str(info.value)
    assert message.startswith(f"cannot read checkpoint {path}: ")
    assert f"net field {field!r}" in message
