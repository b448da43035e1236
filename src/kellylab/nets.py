"""Policy/value networks with hand-written reverse-mode gradients.

The architectures are small and fixed (a handful of dense layers), so the
backward passes are written out directly in numpy instead of pulling in an
autodiff framework; the finite-difference suite in the tests is the safety
net for every gradient path. Layers cache their last forward inputs, so a
backward call must follow its matching forward.

Both net kinds are one implementation, called forward(obs, context=None);
they differ only in the stacks their constructors build and in their
checkpoint headers. A ContextPolicyNet gates its features by the context.

Conventions: weights are (n_in, n_out) applied as x @ W + b on (batch, n_in)
inputs; orthogonal init with gain sqrt(2) on hidden layers, 0.01 on the actor
head, 1.0 on the critic head, zero biases; log_std is a free state-independent
parameter vector clamped to [-20, 2] after optimizer steps.
"""

import io
import json
import math
import zipfile

import numpy as np

from .errors import CheckpointError

LOG_STD_MIN = -20.0
LOG_STD_MAX = 2.0

CHECKPOINT_VERSION = 1

_ADAM_CHUNK = 2**14  # elements per pass of Adam.step


class Param:
    """A trainable array and its gradient, which each backward writes."""

    __slots__ = ("name", "value", "grad")

    def __init__(self, value, name: str):
        self.name = name
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = np.zeros_like(self.value)


def orthogonal(rng, n_in: int, n_out: int, gain: float) -> np.ndarray:
    """Uniformly random (semi-)orthogonal matrix scaled by gain."""
    flat = rng.standard_normal((max(n_in, n_out), min(n_in, n_out)))
    q, r = np.linalg.qr(flat)
    q *= np.sign(np.diag(r))  # fix QR sign ambiguity for a uniform draw
    if n_in < n_out:
        q = q.T
    return gain * q


class Dense:
    """Fully connected layer with optional tanh/relu activation."""

    def __init__(self, n_in, n_out, activation, gain, rng, name):
        if activation not in ("tanh", "relu", "linear"):
            raise ValueError(f"unknown activation {activation!r}")
        self.activation = activation
        self.W = Param(orthogonal(rng, n_in, n_out, gain), f"{name}.W")
        self.b = Param(np.zeros(n_out), f"{name}.b")
        self._x = None
        self._out = None
        self._z = None

    def params(self):
        return [self.W, self.b]

    def forward(self, x):
        self._x = x
        z = x @ self.W.value
        z += self.b.value
        if self.activation == "tanh":
            self._out = np.tanh(z, out=z)
            return self._out
        if self.activation == "relu":
            self._z = z
            return np.maximum(z, 0.0)
        return z

    def backward(self, d_out, input_grad=True):
        """Write the W and b gradients; return the input gradient if asked."""
        if self.activation == "tanh":
            dz = d_out * (1.0 - self._out**2)
        elif self.activation == "relu":
            dz = d_out * (self._z > 0.0)
        else:
            dz = d_out
        np.matmul(self._x.T, dz, out=self.W.grad)
        np.add.reduce(dz, axis=0, out=self.b.grad)  # np.sum, unwrapped
        return dz @ self.W.value.T if input_grad else None


class _Stack:
    """A chain of Dense layers."""

    def __init__(self, sizes, activation, gain, rng, name):
        self.width = sizes[-1]
        self.layers = [
            Dense(sizes[i], sizes[i + 1], activation, gain, rng, f"{name}.{i}")
            for i in range(len(sizes) - 1)
        ]

    def params(self):
        return [p for layer in self.layers for p in layer.params()]

    def forward(self, x):
        for layer in self.layers:
            x = layer.forward(x)
        return x

    def backward(self, d_out, input_grad=False):
        """Backpropagate; the first layer's input gradient only on request."""
        for layer in reversed(self.layers[1:]):
            d_out = layer.backward(d_out)
        return self.layers[0].backward(d_out, input_grad)


class _NetBase:
    """A feature stack, an optional regime gate, and linear actor/critic heads.

    forward(obs, context=None) runs obs through the feature stack; a net
    with a regime stack multiplies those features elementwise by the regime
    stack's reading of the context and runs the product through the shared
    stack, so the context gates which features reach the heads.

    `flat` holds every parameter and `flat_grad` every gradient, in params()
    order; each Param's value and grad are views into them, made once at
    construction. A view keeps its array's memory order (orthogonal() gives
    an F-ordered W when n_in < n_out), so matmuls and per-parameter sums see
    the same layouts as separately allocated arrays. `_params` keeps the
    params() list for the per-minibatch gradient norm.
    """

    def __init__(self, feature, action_dim, rng, init_log_std,
                 regime=None, shared=None):
        self.feature, self.regime, self.shared = feature, regime, shared
        self._stacks = [feature] if regime is None else [feature, regime, shared]
        self.action_dim = int(action_dim)
        self.init_log_std = float(init_log_std)
        last = self._stacks[-1].width
        self.actor = Dense(last, self.action_dim, "linear", 0.01, rng, "actor")
        self.critic = Dense(last, 1, "linear", 1.0, rng, "critic")
        self.log_std = Param(np.full(self.action_dim, self.init_log_std), "log_std")
        params = self._params = self.params()
        self.flat = np.concatenate([p.value.ravel(order="K") for p in params])
        self.flat_grad = np.zeros_like(self.flat)
        offset = 0
        for p in params:
            end = offset + p.value.size
            order = "C" if p.value.flags.c_contiguous else "F"
            p.value = self.flat[offset:end].reshape(p.value.shape, order=order)
            p.grad = self.flat_grad[offset:end].reshape(p.value.shape, order=order)
            offset = end

    def params(self):
        return (
            [p for stack in self._stacks for p in stack.params()]
            + self.actor.params()
            + self.critic.params()
            + [self.log_std]
        )

    def forward(self, obs, context=None):
        """obs (B, obs_dim) and, for a gated net, context (B, K)
        -> (action mean (B, d), value (B,))."""
        features = self.feature.forward(obs)
        if self.regime is not None:
            self._feat_out = features
            self._regime_out = self.regime.forward(context)
            features = self.shared.forward(features * self._regime_out)
        mean = self.actor.forward(features)
        value = self.critic.forward(features)[:, 0]
        return mean, value

    def backward(self, d_mean, d_value):
        d_feat = self.actor.backward(d_mean)
        d_feat += self.critic.backward(d_value[:, None])
        if self.regime is None:
            self.feature.backward(d_feat)
            return
        d_prod = self.shared.backward(d_feat, input_grad=True)
        self.feature.backward(d_prod * self._regime_out)
        self.regime.backward(d_prod * self._feat_out)

    def clamp_log_std(self):
        v = self.log_std.value  # np.clip's bits, without its wrapper
        np.minimum(np.maximum(v, LOG_STD_MIN, out=v), LOG_STD_MAX, out=v)


class PolicyNet(_NetBase):
    """Ungated: a tanh trunk straight into the heads."""

    kind = "policy"

    def __init__(self, obs_dim, action_dim, rng, init_log_std=0.0, hidden=(64, 64)):
        self.obs_dim = int(obs_dim)
        self.hidden = tuple(int(h) for h in hidden)
        trunk = _Stack((self.obs_dim,) + self.hidden, "tanh", math.sqrt(2.0),
                       rng, "trunk")
        super().__init__(trunk, action_dim, rng, init_log_std)

    def config_dict(self):
        return {
            "kind": self.kind,
            "obs_dim": self.obs_dim,
            "action_dim": self.action_dim,
            "hidden": list(self.hidden),
            "init_log_std": self.init_log_std,
        }


class ContextPolicyNet(_NetBase):
    """Gated: a tanh feature stack on the market observation, a relu regime
    stack on a one-hot (or soft) regime context, of equal output width, and
    a tanh shared stack on their elementwise product.
    """

    kind = "context_policy"

    def __init__(
        self,
        obs_dim,
        context_dim,
        action_dim,
        rng,
        init_log_std=0.0,
        feature_sizes=(256, 128, 64),
        regime_sizes=(64, 64, 64),
        shared_sizes=(64, 64),
    ):
        if feature_sizes[-1] != regime_sizes[-1]:
            raise ValueError(
                f"feature width {feature_sizes[-1]} must match regime width "
                f"{regime_sizes[-1]} for the elementwise product"
            )
        self.obs_dim = int(obs_dim)
        self.context_dim = int(context_dim)
        self.feature_sizes = tuple(int(s) for s in feature_sizes)
        self.regime_sizes = tuple(int(s) for s in regime_sizes)
        self.shared_sizes = tuple(int(s) for s in shared_sizes)
        gain = math.sqrt(2.0)
        feature = _Stack(
            (self.obs_dim,) + self.feature_sizes, "tanh", gain, rng, "feature"
        )
        regime = _Stack(
            (self.context_dim,) + self.regime_sizes, "relu", gain, rng, "regime"
        )
        shared = _Stack(
            (self.feature_sizes[-1],) + self.shared_sizes, "tanh", gain, rng, "shared"
        )
        super().__init__(feature, action_dim, rng, init_log_std, regime, shared)

    def config_dict(self):
        return {
            "kind": self.kind,
            "obs_dim": self.obs_dim,
            "context_dim": self.context_dim,
            "action_dim": self.action_dim,
            "feature_sizes": list(self.feature_sizes),
            "regime_sizes": list(self.regime_sizes),
            "shared_sizes": list(self.shared_sizes),
            "init_log_std": self.init_log_std,
        }


def _layer_sizes(config: dict, field: str, default) -> tuple:
    """A header's hidden-layer widths: a nonempty list of positive integers."""
    sizes = config.get(field, default)
    if (
        not isinstance(sizes, (list, tuple))
        or not sizes
        or not all(type(s) is int and s > 0 for s in sizes)
    ):
        raise CheckpointError(
            f"net field {field!r} must be a nonempty list of positive layer "
            f"widths, got {sizes!r}"
        )
    return tuple(sizes)


def _width(config: dict, field: str) -> int:
    """A header's input, context or action width: a positive integer."""
    if field not in config:
        raise CheckpointError(f"net field {field!r} is missing")
    width = config[field]
    if type(width) is not int or width < 1:
        raise CheckpointError(
            f"net field {field!r} must be a positive integer, got {width!r}"
        )
    return width


def _init_log_std(config: dict) -> float:
    """A header's initial log standard deviation: a finite number."""
    value = config.get("init_log_std", 0.0)
    if type(value) not in (int, float) or not math.isfinite(value):
        raise CheckpointError(
            f"net field 'init_log_std' must be a finite number, got {value!r}"
        )
    return float(value)


def build_net(config: dict, rng=None):
    """Construct an uninitialized-by-seed net from a config_dict payload."""
    if rng is None:
        rng = np.random.default_rng(0)
    kind = config.get("kind")
    if kind == "policy":
        return PolicyNet(
            _width(config, "obs_dim"),
            _width(config, "action_dim"),
            rng,
            init_log_std=_init_log_std(config),
            hidden=_layer_sizes(config, "hidden", (64, 64)),
        )
    if kind == "context_policy":
        return ContextPolicyNet(
            _width(config, "obs_dim"),
            _width(config, "context_dim"),
            _width(config, "action_dim"),
            rng,
            init_log_std=_init_log_std(config),
            feature_sizes=_layer_sizes(config, "feature_sizes", (256, 128, 64)),
            regime_sizes=_layer_sizes(config, "regime_sizes", (64, 64, 64)),
            shared_sizes=_layer_sizes(config, "shared_sizes", (64, 64)),
        )
    raise CheckpointError(f"unknown net kind {kind!r}")


class Adam:
    """Adaptive moment estimation over a net's parameter vector.

    beta1 = 0.9, beta2 = 0.999, eps = 1e-8; bias-corrected first and second
    moments, one shared step counter. The step runs its passes chunk by
    chunk, _ADAM_CHUNK elements at a time, through two chunk-sized scratch
    vectors, so it allocates nothing per call. Every pass is elementwise, so
    the bits are those of each pass over the whole vector.
    """

    def __init__(self, net, learning_rate):
        self.value = net.flat
        self.grad = net.flat_grad
        self.learning_rate = float(learning_rate)
        self.t = 0
        self._m = np.zeros_like(self.value)
        self._v = np.zeros_like(self.value)
        bounds = range(_ADAM_CHUNK, self.value.size, _ADAM_CHUNK)
        scratch = np.empty((2, min(self.value.size, _ADAM_CHUNK)))
        # per chunk: its (value, grad, m, v) views and two scratch rows
        self._chunks = [(*views, *scratch[:, :len(views[0])]) for views in zip(
            *(np.split(a, bounds) for a in (self.value, self.grad, self._m, self._v)))]

    def step(self):
        self.t += 1
        b1, b2 = 0.9, 0.999
        bias1 = 1.0 - b1**self.t
        bias2 = 1.0 - b2**self.t
        for value, g, m, v, step, denom in self._chunks:
            # m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) g^2
            m *= b1
            m += np.multiply(g, 1.0 - b1, out=step)
            v *= b2
            v += np.multiply(np.square(g, out=step), 1.0 - b2, out=step)
            # value -= lr (m / bias1) / (sqrt(v / bias2) + eps); a bias that
            # has rounded to exactly 1.0 divides nothing (x / 1.0 == x), so
            # its division is skipped
            v_hat = np.divide(v, bias2, out=denom) if bias2 != 1.0 else v
            np.add(np.sqrt(v_hat, out=denom), 1e-8, out=denom)
            m_hat = np.divide(m, bias1, out=step) if bias1 != 1.0 else m
            np.multiply(m_hat, self.learning_rate, out=step)
            value -= np.divide(step, denom, out=step)


def global_grad_norm(params) -> float:
    total = 0.0
    for p in params:
        g = p.grad
        total += float(np.add.reduce(g * g, axis=None))
    return math.sqrt(total)


def clip_grad_norm(net, max_norm: float) -> float:
    """Scale the net's gradient so its global L2 norm is at most max_norm.

    The norm sums squares one parameter at a time, in params() order, so it
    is written to the training logs bit for bit. Returns the pre-clip norm.
    """
    norm = global_grad_norm(net._params)
    if max_norm > 0 and norm > max_norm:
        net.flat_grad *= max_norm / norm
    return norm


def save_checkpoint(net, path, extra_meta: dict = None):
    """Single-file checkpoint: parameter arrays plus a versioned JSON header.

    Written as an npz archive with zeroed zip timestamps so the same net
    always produces byte-identical files.
    """
    meta = {
        "format_version": CHECKPOINT_VERSION,
        "net": net.config_dict(),
    }
    if extra_meta:
        meta["extra"] = extra_meta
    arrays = {f"param_{i}": p.value for i, p in enumerate(net.params())}
    arrays["meta_json"] = np.frombuffer(
        json.dumps(meta, sort_keys=True).encode("utf-8"), dtype=np.uint8
    )
    with zipfile.ZipFile(path, "w", zipfile.ZIP_STORED) as archive:
        for name, array in arrays.items():
            buf = io.BytesIO()
            np.lib.format.write_array(buf, np.ascontiguousarray(array))
            info = zipfile.ZipInfo(f"{name}.npy", date_time=(1980, 1, 1, 0, 0, 0))
            archive.writestr(info, buf.getvalue())


def load_checkpoint(path):
    """Rebuild the net stored by save_checkpoint; returns (net, meta)."""
    try:
        with np.load(path) as data:
            meta = json.loads(bytes(data["meta_json"]).decode("utf-8"))
            if not isinstance(meta, dict):
                raise CheckpointError(
                    f"header must be a JSON object, not {type(meta).__name__}")
            if meta.get("format_version") != CHECKPOINT_VERSION:
                raise CheckpointError(
                    f"unsupported checkpoint version {meta.get('format_version')!r}"
                )
            if not isinstance(meta.get("net"), dict):
                raise CheckpointError(
                    "header field 'net' is missing" if "net" not in meta else
                    f"header field 'net' must be a JSON object, not "
                    f"{type(meta['net']).__name__}"
                )
            if not isinstance(meta.get("extra", {}), dict):
                raise CheckpointError(
                    f"header field 'extra' must be a JSON object, not "
                    f"{type(meta['extra']).__name__}"
                )
            net = build_net(meta["net"])
            for i, p in enumerate(net.params()):
                stored = data[f"param_{i}"]
                if stored.shape != p.value.shape:
                    raise CheckpointError(
                        f"parameter {p.name} has shape {stored.shape}, "
                        f"expected {p.value.shape}"
                    )
                p.value[...] = stored
    except (KeyError, OSError, ValueError) as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    return net, meta
