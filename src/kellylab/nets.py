"""Policy/value networks with hand-written reverse-mode gradients.

The architectures are small and fixed (a handful of dense layers), so the
backward passes are written out directly in numpy instead of pulling in an
autodiff framework; the finite-difference suite in the tests is the safety
net for every gradient path. Layers cache their last forward inputs, so a
backward call must follow its matching forward.

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


class Param:
    """A trainable array and its gradient accumulator."""

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
        z = x @ self.W.value + self.b.value
        if self.activation == "tanh":
            self._out = np.tanh(z)
            return self._out
        if self.activation == "relu":
            self._z = z
            return np.maximum(z, 0.0)
        return z

    def backward(self, d_out, input_grad=True):
        """Accumulate W and b gradients; return the input gradient if asked."""
        if self.activation == "tanh":
            dz = d_out * (1.0 - self._out**2)
        elif self.activation == "relu":
            dz = d_out * (self._z > 0.0)
        else:
            dz = d_out
        self.W.grad += self._x.T @ dz
        self.b.grad += dz.sum(axis=0)
        return dz @ self.W.value.T if input_grad else None


class _Stack:
    """A chain of Dense layers."""

    def __init__(self, sizes, activation, gain, rng, name):
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
    """One contiguous parameter vector per net.

    `flat` holds every parameter and `flat_grad` every gradient, in params()
    order; each Param's value and grad are views into them, made once at
    construction. A view keeps its array's memory order (orthogonal() gives
    an F-ordered W when n_in < n_out), so matmuls and per-parameter sums see
    the same layouts as separately allocated arrays. `_params` keeps the
    params() list for the per-minibatch gradient norm.
    """

    def params(self):
        raise NotImplementedError

    def _flatten(self):
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

    def zero_grads(self):
        self.flat_grad.fill(0.0)

    def clamp_log_std(self):
        np.clip(self.log_std.value, LOG_STD_MIN, LOG_STD_MAX, out=self.log_std.value)


class PolicyNet(_NetBase):
    """Shared tanh trunk with linear actor/critic heads and free log_std."""

    kind = "policy"

    def __init__(self, obs_dim, action_dim, rng, init_log_std=0.0, hidden=(64, 64)):
        self.obs_dim = int(obs_dim)
        self.action_dim = int(action_dim)
        self.hidden = tuple(int(h) for h in hidden)
        self.init_log_std = float(init_log_std)
        sizes = (self.obs_dim,) + self.hidden
        self.trunk = _Stack(sizes, "tanh", math.sqrt(2.0), rng, "trunk")
        last = self.hidden[-1]
        self.actor = Dense(last, self.action_dim, "linear", 0.01, rng, "actor")
        self.critic = Dense(last, 1, "linear", 1.0, rng, "critic")
        self.log_std = Param(np.full(self.action_dim, self.init_log_std), "log_std")
        self._flatten()

    def params(self):
        return (
            self.trunk.params()
            + self.actor.params()
            + self.critic.params()
            + [self.log_std]
        )

    def forward(self, obs):
        """obs (B, obs_dim) -> (action mean (B, d), value (B,))."""
        features = self.trunk.forward(obs)
        mean = self.actor.forward(features)
        value = self.critic.forward(features)[:, 0]
        return mean, value

    def backward(self, d_mean, d_value):
        d_feat = self.actor.backward(d_mean)
        d_feat += self.critic.backward(d_value[:, None])
        self.trunk.backward(d_feat)

    def config_dict(self):
        return {
            "kind": self.kind,
            "obs_dim": self.obs_dim,
            "action_dim": self.action_dim,
            "hidden": list(self.hidden),
            "init_log_std": self.init_log_std,
        }


class ContextPolicyNet(_NetBase):
    """Price-feature net modulated elementwise by a regime-context net.

    The feature stack reads the market observation; the regime stack reads a
    one-hot (or soft) regime context; their equal-width outputs multiply
    elementwise before a shared trunk and the linear heads, so the context
    gates which features reach the heads.
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
        self.action_dim = int(action_dim)
        self.feature_sizes = tuple(int(s) for s in feature_sizes)
        self.regime_sizes = tuple(int(s) for s in regime_sizes)
        self.shared_sizes = tuple(int(s) for s in shared_sizes)
        self.init_log_std = float(init_log_std)
        gain = math.sqrt(2.0)
        self.feature = _Stack(
            (self.obs_dim,) + self.feature_sizes, "tanh", gain, rng, "feature"
        )
        self.regime = _Stack(
            (self.context_dim,) + self.regime_sizes, "relu", gain, rng, "regime"
        )
        self.shared = _Stack(
            (self.feature_sizes[-1],) + self.shared_sizes, "tanh", gain, rng, "shared"
        )
        last = self.shared_sizes[-1]
        self.actor = Dense(last, self.action_dim, "linear", 0.01, rng, "actor")
        self.critic = Dense(last, 1, "linear", 1.0, rng, "critic")
        self.log_std = Param(np.full(self.action_dim, self.init_log_std), "log_std")
        self._feat_out = None
        self._regime_out = None
        self._flatten()

    def params(self):
        return (
            self.feature.params()
            + self.regime.params()
            + self.shared.params()
            + self.actor.params()
            + self.critic.params()
            + [self.log_std]
        )

    def forward(self, obs, context):
        """(obs (B, m), context (B, K)) -> (mean (B, d), value (B,))."""
        a = self.feature.forward(obs)
        b = self.regime.forward(context)
        self._feat_out = a
        self._regime_out = b
        shared = self.shared.forward(a * b)
        mean = self.actor.forward(shared)
        value = self.critic.forward(shared)[:, 0]
        return mean, value

    def backward(self, d_mean, d_value):
        d_shared = self.actor.backward(d_mean)
        d_shared += self.critic.backward(d_value[:, None])
        d_prod = self.shared.backward(d_shared, input_grad=True)
        self.feature.backward(d_prod * self._regime_out)
        self.regime.backward(d_prod * self._feat_out)

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


def build_net(config: dict, rng=None):
    """Construct an uninitialized-by-seed net from a config_dict payload."""
    if rng is None:
        rng = np.random.default_rng(0)
    kind = config.get("kind")
    if kind == "policy":
        return PolicyNet(
            config["obs_dim"],
            config["action_dim"],
            rng,
            init_log_std=config.get("init_log_std", 0.0),
            hidden=tuple(config.get("hidden", (64, 64))),
        )
    if kind == "context_policy":
        return ContextPolicyNet(
            config["obs_dim"],
            config["context_dim"],
            config["action_dim"],
            rng,
            init_log_std=config.get("init_log_std", 0.0),
            feature_sizes=tuple(config.get("feature_sizes", (256, 128, 64))),
            regime_sizes=tuple(config.get("regime_sizes", (64, 64, 64))),
            shared_sizes=tuple(config.get("shared_sizes", (64, 64))),
        )
    raise CheckpointError(f"unknown net kind {kind!r}")


class Adam:
    """Adaptive moment estimation over a net's parameter vector.

    beta1 = 0.9, beta2 = 0.999, eps = 1e-8; bias-corrected first and second
    moments, one shared step counter. The step writes through preallocated
    scratch vectors, so it allocates nothing per call.
    """

    def __init__(self, net, learning_rate, beta1=0.9, beta2=0.999, eps=1e-8):
        self.value = net.flat
        self.grad = net.flat_grad
        self.learning_rate = float(learning_rate)
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self._m = np.zeros_like(self.value)
        self._v = np.zeros_like(self.value)
        self._scratch = (np.empty_like(self.value), np.empty_like(self.value))

    def step(self):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bias1 = 1.0 - b1**self.t
        bias2 = 1.0 - b2**self.t
        m, v, g = self._m, self._v, self.grad
        step, denom = self._scratch
        # m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) g^2
        m *= b1
        m += np.multiply(g, 1.0 - b1, out=step)
        v *= b2
        v += np.multiply(np.square(g, out=step), 1.0 - b2, out=step)
        # value -= lr (m / bias1) / (sqrt(v / bias2) + eps)
        np.add(np.sqrt(np.divide(v, bias2, out=denom), out=denom), self.eps,
               out=denom)
        np.multiply(np.divide(m, bias1, out=step), self.learning_rate, out=step)
        self.value -= np.divide(step, denom, out=step)


def global_grad_norm(params) -> float:
    total = 0.0
    for p in params:
        g = p.grad
        total += float((g * g).sum())
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
            if meta.get("format_version") != CHECKPOINT_VERSION:
                raise CheckpointError(
                    f"unsupported checkpoint version {meta.get('format_version')!r}"
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
        if isinstance(exc, CheckpointError):
            raise
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    return net, meta
