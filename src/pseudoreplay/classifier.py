"""Dense and 1-D convolutional softmax classifiers with manual backprop.

Parameters live in one flat float64 vector. Layout: for each weight layer in
forward order, the weight matrix [fan_in, fan_out] flattened row-major, then
its bias [fan_out]. A conv layer is a dense map applied to im2col patches, so
its weight matrix is [kernel * in_channels, out_channels] with the patch
flattened row-major over (kernel offset, channel). Dense nets flatten the
input window row-major over (timestep, channel), matching the standardizer.

A conv layer builds its patches as one strided view of its input, copied
once, a whole patch row at a time, into a [batch * positions, kernel *
in_channels] matrix. Its forward pass and its weight gradient are then one
2-D GEMM each, and the input gradient is one GEMM plus one strided add per
kernel offset. The gradient is written straight into views of one flat
buffer laid out like `parameters`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from typing import NamedTuple, Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .data import StandardizationParams, Windows, apply_standardizer
from .errors import (
    ConfigurationError,
    TrainingError,
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

    @cached_property
    def _views(self) -> tuple[tuple[int, int, int, int, int], ...]:
        """Each layer's (W start, W end, b end, fan_in, fan_out) in the flat vector."""
        return tuple(
            (layer.offset, layer.offset + layer.fan_in * layer.fan_out,
             layer.offset + (layer.fan_in + 1) * layer.fan_out, layer.fan_in, layer.fan_out)
            for layer in self._layers
        )

    @cached_property
    def widest(self) -> int:
        """Elements per window of the largest array a forward pass builds: the
        input, or a layer's rows or output. A conv layer's rows are its im2col
        patches, out_len * fan_in; a dense layer has out_len 1."""
        w, c = self.input_shape
        sizes = (layer.out_len * max(layer.fan_in, layer.fan_out) for layer in self._layers)
        return max(w * c, *sizes)

    @cached_property
    def param_count(self) -> int:
        return self._views[-1][2]


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
    return [
        (theta[w0:w1].reshape(fan_in, fan_out), theta[w1:b1])
        for w0, w1, b1, fan_in, fan_out in spec._views
    ]


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
        self._weight_cache = None  # (parameters array, its views), see `_weights`

    @property
    def _weights(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """unpack_parameters(spec, parameters), built once per parameters array.

        The views see in-place updates; rebinding `parameters` builds them
        anew, as the cache holds the array it was built from.
        """
        cache = self._weight_cache
        if cache is None or cache[0] is not self.parameters:
            cache = self._weight_cache = (self.parameters, unpack_parameters(self.spec, self.parameters))
        return cache[1]

    def __getstate__(self):
        # a copy or a pickle copies the views apart from the parameters they
        # viewed, and keeps the pair's identity, so the cache never travels
        return {**self.__dict__, "_weight_cache": None}


def init_model(spec: NetSpec, seed: int) -> NetModel:
    """Uniform init from `seed`, scaled by fan-in (relu-friendly); biases zero."""
    rng = np.random.default_rng(seed)
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
    """im2col: [N * out_len, kernel * in_ch], row-major over (offset, channel).

    In a C-contiguous input, patch j is the kernel * in_ch elements from
    (j * stride, 0) on, so one read-only strided view holds every patch, and
    reshape copies them a whole patch at a time (or, where the patches tile
    the input exactly, returns a view).
    """
    a = np.ascontiguousarray(a)
    step = layer.in_ch * a.itemsize  # bytes per input position
    strides = (layer.in_len * step, layer.stride * step, a.itemsize)
    view = as_strided(a, (n, layer.out_len, layer.fan_in), strides, writeable=False)
    return view.reshape(n * layer.out_len, layer.fan_in)


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


_ZERO = np.zeros(())  # a 0-d operand skips converting a Python 0.0 on every call
_ZERO.flags.writeable = False


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
    for i, (layer, (w, b)) in enumerate(zip(spec._layers, model._weights)):
        rows = _patches(a, n, layer) if layer.kind == "conv" else a.reshape(n, layer.fan_in)
        a = rows @ w
        if layer.kind == "conv":  # a tiled row adds the broadcast's bits in longer runs
            flat = a.reshape(n, -1)  # a view of a
            flat += np.tile(b, layer.out_len)
        else:
            a += b
        if i < last:
            np.maximum(a, _ZERO, out=a)
        caches.append((rows, a))
    return a, caches


def _softmax(logits: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Logits less their row max, their exponentials e, and e's row sums [B, 1]."""
    # np.add.reduce and np.maximum.reduce are the loops behind sum, mean and
    # max; calling them directly skips the Python wrappers, not any arithmetic
    shifted = logits - np.maximum.reduce(logits, axis=1, keepdims=True)
    e = np.exp(shifted)
    return shifted, e, np.add.reduce(e, axis=1, keepdims=True)


def forward(model: NetModel, batch: np.ndarray) -> np.ndarray:
    """Class probabilities of a [B, W, C] batch, shape [B, n_classes]; rows sum to 1."""
    x = _as_batch(model.spec, batch)
    _, e, norm = _softmax(_forward_cached(model, x)[0])
    return e / norm


def _check_labels(spec: NetSpec, labels, n_rows: int) -> np.ndarray:
    y = np.asarray(labels, dtype=np.int64).reshape(-1)
    if y.size != n_rows:
        raise ConfigurationError(f"{n_rows} samples but {y.size} labels")
    # as unsigned, a negative label wraps above any class count, so one
    # reduction checks both ends
    if y.size and np.maximum.reduce(y.view(np.uint64)) >= spec.n_classes:
        raise ConfigurationError(f"labels outside [0, {spec.n_classes})")
    return y


@lru_cache(maxsize=16)
def _row_starts(n: int, width: int) -> np.ndarray:
    """0, width, 2 * width, ...: the flat index of each row of an [n, width] array."""
    starts = np.arange(0, n * width, width)
    starts.flags.writeable = False
    return starts


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
    n = x.shape[0]
    y = _check_labels(spec, labels, n)
    weights = model._weights
    logits, caches = _forward_cached(model, x)
    # flat index of each row's true-class logit: one 1-D take and one 1-D
    # fancy update in place of two 2-D (rows, y) indexings
    pick = _row_starts(n, spec.n_classes) + y

    shifted, e, norm = _softmax(logits)
    loss = float(np.add.reduce(np.log(norm[:, 0]) - shifted.take(pick)) / n)

    dz = e / norm
    dz.reshape(-1)[pick] -= 1.0
    if not per_sample_squares:
        dz /= n

    grad = np.empty(spec.param_count)
    layers = spec._layers
    grads = unpack_parameters(spec, grad)
    for i in range(len(layers) - 1, -1, -1):
        (w, _), (gw, gb) = weights[i], grads[i]
        if per_sample_squares:
            _squared_gradients(caches[i][0], dz, n, layers[i], gw, gb)
        else:
            np.matmul(caches[i][0].T, dz, out=gw)
            if layers[i].kind == "conv" and layers[i].fan_out > 1:
                # sums rows in order, as the reduce does over 2+ columns, and is
                # faster at conv shapes; the reduce sums 1 column pairwise
                np.einsum("ij->j", dz, out=gb)
            else:
                np.add.reduce(dz, axis=0, out=gb)
        if i == 0:
            break
        if layers[i].kind == "conv":
            da = _input_gradient(dz, w, n, layers[i])
        else:
            da = dz @ w.T
        a_prev = caches[i - 1][1]
        dz = da.reshape(a_prev.shape)
        dz *= a_prev > _ZERO
        # let go of a_prev, and of the rows that view it, once its mask is taken
        caches[i - 1 :] = [(caches[i - 1][0], None)]
        del a_prev

    if penalty is not None and penalty.lam != 0.0:
        theta = model.parameters
        if penalty.theta_star.size != theta.size or penalty.fisher.size != theta.size:
            raise ConfigurationError("penalty vectors do not match parameter count")
        delta = theta - penalty.theta_star
        term = np.multiply(penalty.fisher, delta)
        term *= delta
        loss += 0.5 * penalty.lam * float(np.add.reduce(term))
        grad += np.multiply(penalty.scaled_fisher, delta, out=term)
    return loss, grad


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 100
    batch_size: int = 32
    learning_rate: float = 0.01
    optimizer: str = "sgd_momentum"
    momentum: float = 0.9

    def __post_init__(self):
        require_integer("epochs", self.epochs, least=1)
        require_integer("batch_size", self.batch_size, least=1)
        require_number("learning_rate", self.learning_rate, least=0)
        if self.optimizer not in ("sgd", "sgd_momentum"):
            raise ConfigurationError(f"unknown optimizer {self.optimizer!r}", "optimizer")
        require_number("momentum", self.momentum, least=0, below=1)

    @property
    def beta(self) -> float:
        """The momentum coefficient of the update: 0 for plain sgd."""
        return self.momentum if self.optimizer == "sgd_momentum" else 0.0


@dataclass(eq=False)
class TrainResult:
    model: NetModel
    epoch_losses: list[float]


def train(
    model: NetModel,
    samples: Windows,
    config: TrainConfig,
    seed: int,
    penalty=None,
) -> TrainResult:
    """Minibatch SGD over shuffles drawn from `seed`; deterministic given inputs.

    Labels come from samples.y. Records the mean minibatch loss per epoch and
    raises TrainingError the moment a loss stops being finite.
    """
    x = _as_batch(model.spec, samples.x)
    y = _check_labels(model.spec, samples.y, x.shape[0])
    rng = np.random.default_rng(seed)
    current = NetModel(spec=model.spec, parameters=model.parameters.copy())
    theta = current.parameters  # updated in place, so `current` always holds it
    velocity = np.zeros_like(theta)
    beta = config.beta

    losses: list[float] = []
    n = x.shape[0]
    with np.errstate(over="ignore"):  # for the guard's dot product, once per call, not per step
        for epoch in range(config.epochs):
            order = rng.permutation(n)
            batch_losses = []
            for batch, start in enumerate(range(0, n, config.batch_size)):
                sel = order[start : start + config.batch_size]
                loss, grad = loss_and_gradient(current, x.take(sel, axis=0), y[sel], penalty)
                if not math.isfinite(loss):
                    raise TrainingError(f"non-finite loss at epoch {epoch}, batch {batch}")
                velocity *= beta  # heavy ball; beta is 0 under sgd, so velocity is then grad
                velocity += grad
                # velocity has taken grad in, so the step may overwrite it
                theta -= np.multiply(config.learning_rate, velocity, out=grad)
                # NaN and inf survive a sum of squares, so a finite one proves every
                # entry finite; squares overflow from about 1e154, so the exact
                # check runs when the dot product is not finite
                if not (math.isfinite(theta @ theta) or np.all(np.isfinite(theta))):
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

    @cached_property
    def scaled_fisher(self) -> np.ndarray:
        """lam * fisher, the anchor's gradient per unit of theta - theta_star."""
        return self.lam * self.fisher


def extend_output(model: NetModel, n_new_classes: int, seed: int) -> NetModel:
    """Append freshly initialized output units; existing weights untouched.

    Old-class logits are unchanged at the moment of extension because every
    shared weight and every pre-existing output column keeps its value.
    """
    require_integer("n_new_classes", n_new_classes, least=1)
    spec = model.spec
    new_spec = replace(spec, n_classes=spec.n_classes + n_new_classes)
    parameters = pad_parameters(spec, new_spec, model.parameters)
    w_out = unpack_parameters(new_spec, parameters)[-1][0]
    limit = np.sqrt(6.0 / w_out.shape[0])
    w_out[:, spec.n_classes:] = np.random.default_rng(seed).uniform(
        -limit, limit, size=(w_out.shape[0], n_new_classes)
    )
    return NetModel(spec=new_spec, parameters=parameters)


def pad_parameters(
    old_spec: NetSpec, new_spec: NetSpec, vector: np.ndarray, fill: float = 0.0
) -> np.ndarray:
    """Re-layout a flat vector of old_spec into new_spec's layout.

    Only n_classes may grow; every other field of the specs must be equal.
    Coordinates that new_spec adds (appended output columns and biases) take
    `fill`. Used to carry anchor and fisher vectors across a head extension.
    """
    if replace(old_spec, n_classes=new_spec.n_classes) != new_spec:
        raise ConfigurationError("specs differ beyond the output head")
    if new_spec.n_classes < old_spec.n_classes:
        raise ConfigurationError("new spec must not shrink the output head")
    vector = np.asarray(vector, dtype=float).reshape(-1)
    if vector.size != old_spec.param_count:
        raise ConfigurationError("vector length does not match old spec")
    padded = np.full(new_spec.param_count, fill)
    old_layers = unpack_parameters(old_spec, vector)
    for (w, b), (new_w, new_b) in zip(old_layers, unpack_parameters(new_spec, padded)):
        new_w[:, : w.shape[1]] = w
        new_b[: b.size] = b
    return padded


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
    standardized: Windows,
    standardizer: StandardizationParams,
    config: TrainConfig,
    seed: int,
    n_members: int = 5,
) -> Ensemble:
    """Train n_members nets of the one `spec` that differ only in their
    init and shuffle seeds, derived from `seed` per member, on a mix already
    standardized by `standardizer`, which the ensemble keeps for prediction."""
    require_integer("n_members", n_members, least=1)
    # a generator, so each member's init parameters exist only while it trains
    models = (init_model(spec, derive_seed(seed, "init", m)) for m in range(n_members))
    seeds = [derive_seed(seed, "shuffle", m) for m in range(n_members)]
    return _train_members(models, standardized, standardizer, config, seeds, [None] * n_members)


def _train_members(models, standardized, standardizer, config, seeds, penalties) -> Ensemble:
    """Every ensemble member trains here: one call of this module's global `train`,
    where perfbench wraps it, per model in order, with its seed and penalty."""
    jobs = zip(models, seeds, penalties, strict=True)
    members = [train(model, standardized, config, seed, penalty).model for model, seed, penalty in jobs]
    return Ensemble(members=members, standardizer=standardizer)


def member_probabilities(ensemble: Ensemble, batch: Windows) -> np.ndarray:
    """Per-member softmax outputs on a standardized batch, [members, B, classes]."""
    x = apply_standardizer(ensemble.standardizer, batch).x
    return np.stack([forward(m, x) for m in ensemble.members])


def predict(ensemble: Ensemble, batch: Windows) -> np.ndarray:
    """Standardize, average member probabilities, argmax (ties to lower class)."""
    probs = member_probabilities(ensemble, batch).mean(axis=0)
    return np.argmax(probs, axis=1)

