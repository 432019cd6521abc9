"""Dense and 1-D convolutional softmax classifiers with manual backprop.

Parameters live in one flat float64 vector. Layout: for each weight layer in
forward order, the weight matrix [fan_in, fan_out] flattened row-major, then
its bias [fan_out]. A conv layer is a dense map applied to im2col patches, so
its weight matrix is [kernel * in_channels, out_channels] with the patch
flattened row-major over (kernel offset, channel). Dense nets flatten the
input window row-major over (timestep, channel), matching the standardizer.

A conv layer builds its patches as a sliding-window view of its input, copied
once into a [batch * positions, kernel * in_channels] matrix. Its forward pass
and its weight gradient are then one 2-D GEMM each, and the input gradient is
one GEMM plus one strided add per kernel offset. The gradient is written
straight into views of one flat buffer laid out like `parameters`.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace
from functools import cached_property
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .data import StandardizationParams, Windows, apply_standardizer, fit_standardizer
from .errors import (
    ConfigurationError,
    TrainingError,
    read_config,
    require_integer,
    require_list,
    require_number,
)
from .seeding import derive_seed


class _Layer(NamedTuple):
    """One weight layer; W starts at `offset` in the flat vector.

    A dense layer maps [N, fan_in] to [N, fan_out]. A conv layer maps
    [N, in_len, in_ch] to [N * out_len, fan_out] through patches of
    fan_in = kernel * in_ch values taken every `stride` steps.
    """

    kind: str
    fan_in: int
    fan_out: int
    offset: int
    kernel: int = 1
    stride: int = 1
    in_len: int = 1
    out_len: int = 1
    in_ch: int = 1


@dataclass(frozen=True)
class NetSpec:
    """Architecture description.

    kind "dense": flatten -> hidden[0] -> hidden[1] -> n_classes (3 weight
    layers). kind "conv": two conv stages (out_channels, kernel, stride) along
    the window axis, no padding or pooling, then the same 3 dense layers on
    the flattened conv output.
    """

    kind: str
    input_shape: tuple[int, int]  # (window, channels)
    n_classes: int
    hidden: tuple[int, int] = (64, 32)
    conv: tuple[tuple[int, int, int], tuple[int, int, int]] = ((8, 5, 1), (16, 5, 1))
    seed: int = 0

    def __post_init__(self):
        for name in ("input_shape", "hidden"):
            sizes = require_list(name, getattr(self, name), require_integer)
            if len(sizes) != 2 or min(sizes) < 1:
                raise ConfigurationError(f"{name} must be 2 positive sizes, got {sizes}", name)
            object.__setattr__(self, name, sizes)
        layers = require_list("conv", self.conv)
        conv = tuple(require_list("conv", layer, require_integer) for layer in layers)
        object.__setattr__(self, "conv", conv)
        if self.kind not in ("dense", "conv"):
            raise ConfigurationError(f"kind must be 'dense' or 'conv', got {self.kind!r}", "kind")
        require_integer("n_classes", self.n_classes, least=2)
        require_integer("seed", self.seed)
        if self.kind == "conv" and ([len(c) for c in conv] != [3, 3] or min(map(min, conv)) < 1):
            raise ConfigurationError(
                f"conv must be 2 layers of positive (filters, kernel, stride), got {conv}", "conv"
            )
        self._layers  # raises if a conv stage collapses below length 1

    @cached_property
    def _layers(self) -> tuple[_Layer, ...]:
        """The weight layers in forward order, resolved once per spec."""
        w, c = self.input_shape
        layers: list[_Layer] = []
        offset = 0
        if self.kind == "conv":
            length, ch = w, c
            for out, kern, stride in self.conv:
                new_len = conv_output_length(length, kern, stride)
                layers.append(_Layer("conv", kern * ch, out, offset, kern, stride, length, new_len, ch))
                offset += (kern * ch + 1) * out
                length, ch = new_len, out
            flat = length * ch
        else:
            flat = w * c
        dims = [flat, self.hidden[0], self.hidden[1], self.n_classes]
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            layers.append(_Layer("dense", fan_in, fan_out, offset))
            offset += (fan_in + 1) * fan_out
        return tuple(layers)

    @property
    def param_count(self) -> int:
        last = self._layers[-1]
        return last.offset + (last.fan_in + 1) * last.fan_out

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "NetSpec":
        return read_config(cls, doc)


def conv_output_length(length: int, kernel: int, stride: int) -> int:
    if kernel > length:
        raise ConfigurationError(f"kernel {kernel} exceeds input length {length}", "conv")
    return (length - kernel) // stride + 1


def unpack_parameters(spec: NetSpec, theta: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Flat vector -> [(W, b), ...] views in layer order."""
    if theta.size != spec.param_count:
        raise ConfigurationError(
            f"parameter vector length {theta.size}, expected {spec.param_count}"
        )
    layers = []
    for layer in spec._layers:
        w_end = layer.offset + layer.fan_in * layer.fan_out
        w = theta[layer.offset : w_end].reshape(layer.fan_in, layer.fan_out)
        layers.append((w, theta[w_end : w_end + layer.fan_out]))
    return layers


def pack_parameters(layers: Sequence[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    return np.concatenate([np.concatenate([w.reshape(-1), b.reshape(-1)]) for w, b in layers])


@dataclass(eq=False)
class NetModel:
    spec: NetSpec
    parameters: np.ndarray

    def __post_init__(self):
        self.parameters = np.asarray(self.parameters, dtype=float).reshape(-1)
        if self.parameters.size != self.spec.param_count:
            raise ConfigurationError(
                f"parameter count {self.parameters.size} != spec count {self.spec.param_count}"
            )
        if not np.all(np.isfinite(self.parameters)):
            raise ConfigurationError("model parameters must be finite")


def init_model(spec: NetSpec) -> NetModel:
    """Seeded uniform init scaled by fan-in (relu-friendly); biases zero."""
    rng = np.random.default_rng(spec.seed)
    layers = []
    for layer in spec._layers:
        limit = np.sqrt(6.0 / layer.fan_in)
        w = rng.uniform(-limit, limit, size=(layer.fan_in, layer.fan_out))
        layers.append((w, np.zeros(layer.fan_out)))
    return NetModel(spec=spec, parameters=pack_parameters(layers))


def _as_batch(spec: NetSpec, batch: np.ndarray) -> np.ndarray:
    x = np.asarray(batch, dtype=float)
    if x.ndim == 2:
        x = x[None, :, :]
    if x.shape[1:] != spec.input_shape:
        raise ConfigurationError(
            f"batch window shape {x.shape[1:]} != spec input {spec.input_shape}"
        )
    if x.shape[0] == 0:
        raise ConfigurationError("empty batch")
    return x


def _patches(a: np.ndarray, n: int, layer: _Layer) -> np.ndarray:
    """im2col: [N * out_len, kernel * in_ch], row-major over (offset, channel)."""
    windows = sliding_window_view(a.reshape(n, layer.in_len, layer.in_ch), layer.kernel, axis=1)
    # windows is [N, in_len - kernel + 1, in_ch, kernel]; reshape makes the one copy
    return windows[:, :: layer.stride].transpose(0, 1, 3, 2).reshape(n * layer.out_len, layer.fan_in)


def _input_gradient(dz: np.ndarray, w: np.ndarray, n: int, layer: _Layer) -> np.ndarray:
    """Gradient at a conv layer's input [N, in_len, in_ch] from dz [N * out_len, fan_out].

    The gradient of the patch rows at kernel offset k is dz @ W_k.T, and it
    lands on input positions k, k + stride, ...: one GEMM and one strided add
    per offset.
    """
    da = np.zeros((n, layer.in_len, layer.in_ch))
    w_by_offset = w.reshape(layer.kernel, layer.in_ch, layer.fan_out)
    span = layer.stride * (layer.out_len - 1) + 1
    for k in range(layer.kernel):
        dpatch = dz @ w_by_offset[k].T
        da[:, k : k + span : layer.stride] += dpatch.reshape(n, layer.out_len, layer.in_ch)
    return da


def _forward_cached(model: NetModel, x: np.ndarray):
    """Returns (logits, caches); caches[i] is layer i's (input rows, output).

    Hidden outputs are relu'd in place, so output > 0 is also the mask that
    backprop needs; the last layer emits raw logits.
    """
    spec = model.spec
    last = len(spec._layers) - 1
    n = x.shape[0]
    caches = []
    a = x
    for i, (layer, (w, b)) in enumerate(zip(spec._layers, unpack_parameters(spec, model.parameters))):
        rows = _patches(a, n, layer) if layer.kind == "conv" else a.reshape(n, layer.fan_in)
        a = rows @ w
        a += b
        if i < last:
            np.maximum(a, 0.0, out=a)
        caches.append((rows, a))
    return a, caches


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def forward(model: NetModel, batch: np.ndarray) -> np.ndarray:
    """Class probabilities of a [B, W, C] batch, shape [B, n_classes]; rows sum to 1."""
    x = _as_batch(model.spec, batch)
    logits, _ = _forward_cached(model, x)
    return _softmax(logits)


def _check_labels(spec: NetSpec, labels, n_rows: int) -> np.ndarray:
    y = np.asarray(labels, dtype=np.int64).reshape(-1)
    if y.size != n_rows:
        raise ConfigurationError(f"{n_rows} samples but {y.size} labels")
    if y.size and (y.min() < 0 or y.max() >= spec.n_classes):
        raise ConfigurationError(f"labels outside [0, {spec.n_classes})")
    return y


_SQUARES_BLOCK = 1 << 20  # elements of the [chunk, fan_in, fan_out] per-sample block


def _squared_gradients(rows: np.ndarray, dz: np.ndarray, n: int, layer: _Layer, gw, gb) -> None:
    """Write sum_i g_i * g_i of one layer's per-sample gradients into gw, gb.

    dz holds each sample's own delta rows, not divided by n. A dense sample's
    weight gradient is the outer product a_i delta_i, so the squared sum is
    (A*A).T (D*D). A conv sample's weight gradient P_i.T D_i sums over its
    out_len positions, so it is formed per sample as one batched matmul in
    chunks of _SQUARES_BLOCK elements, then squared and summed.
    """
    if layer.kind == "dense":
        dz2 = np.square(dz)
        np.matmul(np.square(rows).T, dz2, out=gw)
        np.sum(dz2, axis=0, out=gb)
        return
    patches = rows.reshape(n, layer.out_len, layer.fan_in).transpose(0, 2, 1)
    deltas = dz.reshape(n, layer.out_len, layer.fan_out)
    chunk = max(1, _SQUARES_BLOCK // (layer.fan_in * layer.fan_out))
    gw[...] = 0.0
    for lo in range(0, n, chunk):
        per_sample = np.matmul(patches[lo : lo + chunk], deltas[lo : lo + chunk])
        gw += np.square(per_sample, out=per_sample).sum(axis=0)
    np.sum(np.square(deltas.sum(axis=1)), axis=0, out=gb)


def loss_and_gradient(
    model: NetModel, batch: np.ndarray, labels, penalty=None, per_sample_squares: bool = False
):
    """Mean softmax cross-entropy (plus optional quadratic anchor) and its
    gradient as a flat vector aligned with model.parameters.

    penalty needs fields lam, theta_star, fisher; the term is
    lam/2 * sum(fisher * (theta - theta_star)^2). lam == 0 contributes nothing
    and is skipped outright so a zero-weight run matches the no-penalty code
    path bit for bit.

    With per_sample_squares the same forward and backward pass returns, in
    place of the gradient, sum_i g_i * g_i over the rows' own single-row
    gradients g_i. Backprop is linear in each row's output delta, so the
    undivided delta rows are the per-sample deltas at every layer, and each
    layer squares its per-sample weight gradients before summing them. This
    mode takes no penalty.
    """
    if per_sample_squares and penalty is not None:
        raise ConfigurationError("per_sample_squares takes no penalty")
    spec = model.spec
    x = _as_batch(spec, batch)
    y = _check_labels(spec, labels, x.shape[0])
    logits, caches = _forward_cached(model, x)
    n = x.shape[0]
    rows = np.arange(n)

    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    norm = e.sum(axis=1, keepdims=True)
    loss = float(np.mean(np.log(norm[:, 0]) - shifted[rows, y]))

    dz = e / norm
    dz[rows, y] -= 1.0
    if not per_sample_squares:
        dz /= n

    grad = np.empty(spec.param_count)
    layers = spec._layers
    weights = unpack_parameters(spec, model.parameters)
    grads = unpack_parameters(spec, grad)
    for i in range(len(layers) - 1, -1, -1):
        (w, _), (gw, gb) = weights[i], grads[i]
        if per_sample_squares:
            _squared_gradients(caches[i][0], dz, n, layers[i], gw, gb)
        else:
            np.matmul(caches[i][0].T, dz, out=gw)
            np.sum(dz, axis=0, out=gb)
        if i == 0:
            break
        if layers[i].kind == "conv":
            da = _input_gradient(dz, w, n, layers[i])
        else:
            da = dz @ w.T
        a_prev = caches[i - 1][1]
        dz = da.reshape(a_prev.shape)
        dz *= a_prev > 0

    if penalty is not None and penalty.lam != 0.0:
        theta = model.parameters
        if penalty.theta_star.size != theta.size or penalty.fisher.size != theta.size:
            raise ConfigurationError("penalty vectors do not match parameter count")
        delta = theta - penalty.theta_star
        loss += 0.5 * penalty.lam * float(np.sum(penalty.fisher * delta * delta))
        grad += penalty.lam * penalty.fisher * delta
    return loss, grad


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 100
    batch_size: int = 32
    learning_rate: float = 0.01
    optimizer: str = "sgd_momentum"
    momentum: float = 0.9
    shuffle_seed: int = field(default=0, metadata={"config": False})  # set per member

    def __post_init__(self):
        require_integer("epochs", self.epochs, least=1)
        require_integer("batch_size", self.batch_size, least=1)
        require_number("learning_rate", self.learning_rate, least=0)
        if self.optimizer not in ("sgd", "sgd_momentum"):
            raise ConfigurationError(f"unknown optimizer {self.optimizer!r}", "optimizer")
        require_number("momentum", self.momentum, least=0, below=1)


@dataclass(eq=False)
class TrainResult:
    model: NetModel
    epoch_losses: list[float]


def train(
    model: NetModel,
    samples: Windows,
    config: TrainConfig,
    penalty=None,
) -> TrainResult:
    """Minibatch SGD over seeded shuffles; deterministic given inputs.

    Labels come from samples.y. Records the mean minibatch loss per epoch and
    raises TrainingError the moment a loss stops being finite.
    """
    x = _as_batch(model.spec, samples.x)
    y = _check_labels(model.spec, samples.y, x.shape[0])
    rng = np.random.default_rng(config.shuffle_seed)
    current = NetModel(spec=model.spec, parameters=model.parameters.copy())
    theta = current.parameters  # updated in place, so `current` always holds it
    velocity = np.zeros_like(theta)
    beta = config.momentum if config.optimizer == "sgd_momentum" else 0.0

    losses: list[float] = []
    n = x.shape[0]
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        batch_losses = []
        for batch, start in enumerate(range(0, n, config.batch_size)):
            sel = order[start : start + config.batch_size]
            loss, grad = loss_and_gradient(current, x[sel], y[sel], penalty)
            if not np.isfinite(loss):
                raise TrainingError(f"non-finite loss at epoch {epoch}, batch {batch}")
            if beta > 0.0:
                velocity *= beta
                velocity += grad
            else:
                velocity = grad
            theta -= config.learning_rate * velocity
            if not np.all(np.isfinite(theta)):
                raise TrainingError(f"non-finite parameters at epoch {epoch}, batch {batch}")
            batch_losses.append(loss)
        losses.append(float(np.mean(batch_losses)))
    return TrainResult(model=current, epoch_losses=losses)


def fisher_diagonal(model: NetModel, samples: Windows) -> np.ndarray:
    """Mean over samples of squared per-sample log-likelihood gradients.

    The per-sample gradient of log p(true class | x) is minus the single-row
    cross-entropy gradient; the sign vanishes under squaring. One batched
    loss_and_gradient call with per_sample_squares sums those squares over
    all rows exactly, without a backward pass per row.
    """
    if len(samples) == 0:
        raise ConfigurationError("fisher_diagonal needs at least one sample")
    _, squares = loss_and_gradient(model, samples.x, samples.y, per_sample_squares=True)
    return squares / len(samples)


@dataclass(frozen=True)
class EWCPenalty:
    """Quadratic anchor lam/2 * sum(fisher * (theta - theta_star)^2)."""

    lam: float
    theta_star: np.ndarray
    fisher: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "theta_star", np.asarray(self.theta_star, dtype=float).reshape(-1))
        object.__setattr__(self, "fisher", np.asarray(self.fisher, dtype=float).reshape(-1))
        require_number("lam", self.lam, least=0)
        if self.theta_star.shape != self.fisher.shape:
            raise ConfigurationError("theta_star and fisher must have equal length")
        if not np.all(np.isfinite(self.theta_star)):
            raise ConfigurationError("theta_star must be finite")
        if not np.all(np.isfinite(self.fisher)) or np.any(self.fisher < 0):
            raise ConfigurationError("fisher must be finite and non-negative")


def extend_output(model: NetModel, n_new_classes: int, seed: int) -> NetModel:
    """Append freshly initialized output units; existing weights untouched.

    Old-class logits are unchanged at the moment of extension because every
    shared weight and every pre-existing output column keeps its value.
    """
    require_integer("n_new_classes", n_new_classes, least=1)
    spec = model.spec
    new_spec = replace(spec, n_classes=spec.n_classes + n_new_classes)
    layers = [(w.copy(), b.copy()) for w, b in unpack_parameters(spec, model.parameters)]
    w_out, b_out = layers[-1]
    fan_in = w_out.shape[0]
    rng = np.random.default_rng(seed)
    limit = np.sqrt(6.0 / fan_in)
    w_new = np.concatenate(
        [w_out, rng.uniform(-limit, limit, size=(fan_in, n_new_classes))], axis=1
    )
    b_new = np.concatenate([b_out, np.zeros(n_new_classes)])
    layers[-1] = (w_new, b_new)
    return NetModel(spec=new_spec, parameters=pack_parameters(layers))


def pad_parameters(
    old_spec: NetSpec, new_spec: NetSpec, vector: np.ndarray, fill: float = 0.0
) -> np.ndarray:
    """Re-layout a flat vector of old_spec into new_spec's layout.

    Only output-head growth is supported; coordinates that exist in new_spec
    but not in old_spec (appended output columns and biases) take `fill`.
    Used to carry anchor and fisher vectors across a head extension.
    """
    if replace(old_spec, n_classes=new_spec.n_classes, seed=new_spec.seed) != new_spec:
        raise ConfigurationError("specs differ beyond the output head")
    if new_spec.n_classes < old_spec.n_classes:
        raise ConfigurationError("new spec must not shrink the output head")
    vector = np.asarray(vector, dtype=float).reshape(-1)
    if vector.size != old_spec.param_count:
        raise ConfigurationError("vector length does not match old spec")
    extra = new_spec.n_classes - old_spec.n_classes
    layers = [(w.copy(), b.copy()) for w, b in unpack_parameters(old_spec, vector)]
    w_out, b_out = layers[-1]
    pad_w = np.full((w_out.shape[0], extra), fill)
    pad_b = np.full(extra, fill)
    layers[-1] = (np.concatenate([w_out, pad_w], axis=1), np.concatenate([b_out, pad_b]))
    return pack_parameters(layers)


@dataclass(eq=False)
class Ensemble:
    """Fixed-size committee sharing one standardizer; default 5 members."""

    members: list[NetModel]
    standardizer: StandardizationParams

    def __post_init__(self):
        if not self.members:
            raise ConfigurationError("ensemble needs at least one member")
        n = self.members[0].spec.n_classes
        shape = self.members[0].spec.input_shape
        for m in self.members:
            if m.spec.n_classes != n or m.spec.input_shape != shape:
                raise ConfigurationError("ensemble members disagree on output or input shape")

    @property
    def n_classes(self) -> int:
        return self.members[0].spec.n_classes


def fit_ensemble(
    spec: NetSpec,
    samples: Windows,
    config: TrainConfig,
    seed: int,
    n_members: int = 5,
) -> Ensemble:
    """Standardize on the given mix, then train n_members nets that differ
    only in derived init and shuffle seeds."""
    require_integer("n_members", n_members, least=1)
    standardizer = fit_standardizer(samples)
    standardized = apply_standardizer(standardizer, samples)
    members = []
    for m in range(n_members):
        member_spec = replace(spec, seed=derive_seed(seed, "init", m))
        member_cfg = replace(config, shuffle_seed=derive_seed(seed, "shuffle", m))
        result = train(init_model(member_spec), standardized, member_cfg)
        members.append(result.model)
    return Ensemble(members=members, standardizer=standardizer)


def member_probabilities(ensemble: Ensemble, batch: Windows) -> np.ndarray:
    """Per-member softmax outputs on a standardized batch, [members, B, classes]."""
    x = apply_standardizer(ensemble.standardizer, batch).x
    return np.stack([forward(m, x) for m in ensemble.members])


def predict(ensemble: Ensemble, batch: Windows) -> np.ndarray:
    """Standardize, average member probabilities, argmax (ties to lower class)."""
    probs = member_probabilities(ensemble, batch).mean(axis=0)
    return np.argmax(probs, axis=1)


# ---------------------------------------------------------------------------
# checkpoints: JSON header plus the flat parameter vector in decimal


def save_ensemble(path: str | Path, ensemble: Ensemble) -> None:
    doc = {
        "standardizer": {
            "mean": [float(v) for v in ensemble.standardizer.mean],
            "std": [float(v) for v in ensemble.standardizer.std],
        },
        "members": [
            {"spec": m.spec.to_dict(), "parameters": [float(v) for v in m.parameters]}
            for m in ensemble.members
        ],
    }
    Path(path).write_text(json.dumps(doc), encoding="utf-8")


def load_ensemble(path: str | Path) -> Ensemble:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        std = StandardizationParams(
            mean=np.array(doc["standardizer"]["mean"], dtype=float),
            std=np.array(doc["standardizer"]["std"], dtype=float),
        )
        members = []
        for entry in doc["members"]:
            spec = NetSpec.from_dict(entry["spec"])
            params = np.array(entry["parameters"], dtype=float)
            if params.size != spec.param_count:
                raise ConfigurationError(
                    f"{path}: member holds {params.size} parameters, spec expects {spec.param_count}"
                )
            members.append(NetModel(spec=spec, parameters=params))
    except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
        if isinstance(exc, ConfigurationError):
            raise
        raise ConfigurationError(f"{path}: bad ensemble file: {exc}") from None
    return Ensemble(members=members, standardizer=std)
