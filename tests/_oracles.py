"""Independent reference implementations used to cross-check the package.

Everything here is written straight from the mathematical definitions with
deliberately naive algorithms (loops, exhaustive scans, finite differences)
so that agreement with the package is meaningful, or is a frozen copy of
package code as first written (the conv helpers and the training step),
which a rewrite must match byte for byte.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


def knn_bruteforce(memory: np.ndarray, index: int, k: int) -> list[int]:
    """Indices of the k nearest rows to memory[index], self excluded.

    Euclidean distance, ties broken toward the lower index.
    """
    distance = np.sqrt(np.sum((memory - memory[index]) ** 2, axis=1))
    others = np.flatnonzero(np.arange(memory.shape[0]) != index)
    order = np.lexsort((others, distance[others]))  # by distance, then lower index
    return others[order[:k]].tolist()


def direct_neighbor_table(memory: np.ndarray, k: int) -> np.ndarray:
    """k_eff = min(k, M - 1) nearest indices per row, ties to lower index.

    The reference ranking: every squared distance as a direct sum of squared
    differences, then a stable sort of each row.
    """
    m = memory.shape[0]
    k_eff = min(k, m - 1)
    d2 = np.empty((m, m))
    # direct squared differences; chunked to bound the [chunk, M, D] temporary
    step = max(1, int(4e6 // max(1, m * memory.shape[1])))
    for lo in range(0, m, step):
        hi = min(m, lo + step)
        diff = memory[lo:hi, None, :] - memory[None, :, :]
        d2[lo:hi] = np.einsum("ijk,ijk->ij", diff, diff)
    np.fill_diagonal(d2, np.inf)
    order = np.argsort(d2, axis=1, kind="stable")
    return order[:, :k_eff]


def segment_fit(sample: np.ndarray, origin: np.ndarray, end: np.ndarray) -> tuple[float, float]:
    """Least-squares interpolation parameter and residual for
    sample = origin + u * (end - origin)."""
    seg = end - origin
    diff = sample - origin
    denom = float(np.dot(seg, seg))
    if denom == 0.0:
        return 0.0, float(np.max(np.abs(diff)))
    u = float(np.dot(diff, seg)) / denom
    residual = float(np.max(np.abs(diff - u * seg)))
    return u, residual


def on_some_segment(
    sample: np.ndarray, memory: np.ndarray, neighbor_lists: list[list[int]], tol: float
) -> bool:
    """True if the sample lies on a segment from some stored point to one of
    its listed neighbors, with interpolation weight in [0, 1]."""
    scale = max(1.0, float(np.max(np.abs(memory))))
    for j in range(memory.shape[0]):
        for l in neighbor_lists[j]:
            u, residual = segment_fit(sample, memory[j], memory[l])
            if residual <= tol * scale and -tol <= u <= 1.0 + tol:
                return True
    return False


def generate_reference(gen, count: int, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(x, y, source) of `generate(gen, count, seed)`: a frozen copy of its
    first per-stored-window loop, which interpolates each window's rows
    inside the loop (all k_eff segments, then the sorted pick, where the
    quota is at most k_eff)."""
    rng = np.random.default_rng(seed)
    mem = gen.memory.reshape(gen.memory_size, -1)
    m = gen.memory_size
    k_eff = gen.k_effective
    base, extra = divmod(count, m)

    out = np.empty((count, mem.shape[1]))
    filled = 0
    for j in range(m):
        quota = base + (1 if j < extra else 0)
        if quota == 0:
            continue
        nbr = gen.neighbors[j]
        if quota <= k_eff:
            u = rng.uniform(size=k_eff)
            candidates = mem[j] + u[:, None] * (mem[nbr] - mem[j])
            pick = np.sort(rng.choice(k_eff, size=quota, replace=False))
            out[filled : filled + quota] = candidates[pick]
        else:
            segments = rng.integers(0, k_eff, size=quota)
            u = rng.uniform(size=quota)
            out[filled : filled + quota] = mem[j] + u[:, None] * (mem[nbr[segments]] - mem[j])
        filled += quota
    synthetic = np.full(count, -1, dtype=np.int64)  # SYNTHETIC_TRIAL_ID
    source = np.column_stack([synthetic, np.arange(count, dtype=np.int64)])
    return out.reshape((count,) + gen.memory.shape[1:]), np.full(count, gen.class_id, dtype=np.int64), source


def fd_gradient(f, theta: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar function, every coordinate.

    The round-off floor is about ulp(f(theta)) / h in absolute terms, so a
    large loss hides gradient coordinates much smaller than that floor.
    """
    grad = np.zeros_like(theta)
    for i in range(theta.size):
        bumped = theta.copy()
        bumped[i] = theta[i] + h
        f_plus = f(bumped)
        bumped[i] = theta[i] - h
        f_minus = f(bumped)
        grad[i] = (f_plus - f_minus) / (2.0 * h)
    return grad


def quadratic_penalty(theta, theta_star, fisher, lam: float) -> float:
    """lam/2 * sum_i fisher_i * (theta_i - theta_star_i)^2, summed with math.fsum."""
    return 0.5 * lam * math.fsum(
        float(f) * (float(t) - float(s)) ** 2 for t, s, f in zip(theta, theta_star, fisher, strict=True)
    )


def fd_penalty_gradient(theta, theta_star, fisher, lam: float, h: float = 1e-5) -> np.ndarray:
    """Central differences of the quadratic penalty, one coordinate at a time.

    Only coordinate i's own term lam/2 * fisher_i * (t - theta_star_i)^2 is
    differenced, so the round-off floor scales with that term, not with the
    whole penalty.
    """
    grad = np.zeros(len(theta))
    for i, (t, s, f) in enumerate(zip(theta, theta_star, fisher, strict=True)):
        term_plus = 0.5 * lam * f * ((t + h) - s) ** 2
        term_minus = 0.5 * lam * f * ((t - h) - s) ** 2
        grad[i] = (term_plus - term_minus) / (2.0 * h)
    return grad


def relative_errors(analytic: np.ndarray, numeric: np.ndarray) -> np.ndarray:
    """Per-coordinate |a - n| / max(1e-8, |a| + |n|)."""
    denom = np.maximum(1e-8, np.abs(analytic) + np.abs(numeric))
    return np.abs(analytic - numeric) / denom


def relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    return float(np.max(relative_errors(analytic, numeric)))


def sgd_reference(model, samples, config, seed, penalty=None) -> tuple[np.ndarray, list[float]]:
    """Minibatch SGD as a plain loop: the parameters and per-epoch mean losses.

    Each epoch draws the next permutation from `seed`, each minibatch calls the public
    loss_and_gradient on a freshly built model, and the update is out of
    place: v = beta*v + g; theta = theta - lr*v, with beta = 0 for plain sgd.
    """
    from pseudoreplay import NetModel, loss_and_gradient

    x, y = samples.x, samples.y
    rng = np.random.default_rng(seed)
    beta = config.momentum if config.optimizer == "sgd_momentum" else 0.0
    theta = model.parameters.copy()
    v = np.zeros_like(theta)
    losses = []
    for _ in range(config.epochs):
        order = rng.permutation(len(samples))
        batch_losses = []
        for start in range(0, len(samples), config.batch_size):
            sel = order[start : start + config.batch_size]
            loss, g = loss_and_gradient(NetModel(spec=model.spec, parameters=theta), x[sel], y[sel], penalty)
            v = beta * v + g
            theta = theta - config.learning_rate * v
            batch_losses.append(loss)
        losses.append(float(np.mean(batch_losses)))
    return theta, losses


def fisher_per_row(model, samples) -> np.ndarray:
    """Fisher diagonal as one single-row loss_and_gradient call per sample:
    the mean of each row's squared gradient."""
    from pseudoreplay import loss_and_gradient

    acc = np.zeros_like(model.parameters)
    x, y = samples.x, samples.y
    for i in range(len(samples)):
        _, grad = loss_and_gradient(model, x[i : i + 1], y[i : i + 1])
        acc += grad * grad
    return acc / len(samples)


def _unpack_reference(spec, theta) -> list[tuple[np.ndarray, np.ndarray]]:
    if theta.size != spec.param_count:
        raise ValueError(f"parameter vector length {theta.size}, expected {spec.param_count}")
    layers = []
    for layer in spec._layers:
        w_end = layer.offset + layer.fan_in * layer.fan_out
        w = theta[layer.offset : w_end].reshape(layer.fan_in, layer.fan_out)
        layers.append((w, theta[w_end : w_end + layer.fan_out]))
    return layers


# frozen copies of the package's conv helpers as first written; the
# reference step below uses these, never the package's own
_SQUARES_BLOCK = 1 << 20  # elements of the [chunk, fan_in, fan_out] per-sample block


def _patches(a: np.ndarray, n: int, layer) -> np.ndarray:
    """im2col: [N * out_len, kernel * in_ch], row-major over (offset, channel)."""
    windows = sliding_window_view(a.reshape(n, layer.in_len, layer.in_ch), layer.kernel, axis=1)
    # windows is [N, in_len - kernel + 1, in_ch, kernel]; reshape makes the one copy
    return windows[:, :: layer.stride].transpose(0, 1, 3, 2).reshape(n * layer.out_len, layer.fan_in)


def _input_gradient(dz: np.ndarray, w: np.ndarray, n: int, layer) -> np.ndarray:
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


def _squared_gradients(rows: np.ndarray, dz: np.ndarray, n: int, layer, gw, gb) -> None:
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


def _forward_cached_reference(model, x):
    spec = model.spec
    last = len(spec._layers) - 1
    n = x.shape[0]
    caches = []
    a = x
    for i, (layer, (w, b)) in enumerate(zip(spec._layers, _unpack_reference(spec, model.parameters))):
        rows = _patches(a, n, layer) if layer.kind == "conv" else a.reshape(n, layer.fan_in)
        a = rows @ w
        a += b
        if i < last:
            np.maximum(a, 0.0, out=a)
        caches.append((rows, a))
    return a, caches


def forward_reference(model, batch) -> np.ndarray:
    """Class probabilities from the reference forward pass and a max-shifted softmax."""
    from pseudoreplay.classifier import _as_batch

    logits, _ = _forward_cached_reference(model, _as_batch(model.spec, batch))
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def loss_and_gradient_reference(model, batch, labels, penalty=None, per_sample_squares: bool = False):
    """The training step as first written: layer views unpacked per use, the
    reductions through np.sum, np.mean and ndarray.max, the conv helpers above
    (a transposed sliding-window im2col, a broadcast bias add, and bias
    gradients through np.sum), and the anchor as out-of-place products. The
    lean step must match it byte for byte.

    It shares only the package's input checks (_as_batch). The conv helpers
    are frozen copies, so a change to the package's conv kernels is checked
    against them and cannot pass by changing both sides at once.
    """
    from pseudoreplay.classifier import _as_batch

    spec = model.spec
    x = _as_batch(spec, batch)
    y = np.asarray(labels, dtype=np.int64).reshape(-1)
    assert y.size == x.shape[0] and y.min() >= 0 and y.max() < spec.n_classes
    logits, caches = _forward_cached_reference(model, x)
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
    weights = _unpack_reference(spec, model.parameters)
    grads = _unpack_reference(spec, grad)
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
        delta = theta - penalty.theta_star
        loss += 0.5 * penalty.lam * float(np.sum(penalty.fisher * delta * delta))
        grad += penalty.lam * penalty.fisher * delta
    return loss, grad


def counting_confusion(y_true, y_pred, n_classes: int) -> np.ndarray:
    counts = np.zeros((n_classes, n_classes), dtype=np.int64)
    for t, p in zip(y_true, y_pred, strict=True):
        counts[int(t), int(p)] += 1
    return counts


def metric_oracle(cm: np.ndarray) -> dict:
    """Per-class precision/recall/F and macro averages, pure Python loops.

    0/0 cases are defined as 0, matching the package's guard; "zero_division"
    lists the classes where one was hit.
    """
    n = cm.shape[0]
    precision, recall, f_score, zero_division = [], [], [], []
    for c in range(n):
        tp = float(cm[c, c])
        col = float(sum(cm[r, c] for r in range(n)))
        row = float(sum(cm[c, p] for p in range(n)))
        p = tp / col if col > 0 else 0.0
        r = tp / row if row > 0 else 0.0
        f = 2.0 * p * r / (p + r) if (p + r) > 0 else 0.0
        if not (col > 0 and row > 0 and p + r > 0):
            zero_division.append(c)
        precision.append(p)
        recall.append(r)
        f_score.append(f)
    return {
        "precision": precision,
        "recall": recall,
        "f": f_score,
        "zero_division": tuple(zero_division),
        "macro_precision": sum(precision) / n,
        "macro_recall": sum(recall) / n,
        "macro_f": sum(f_score) / n,
    }


def two_pass_moments(values) -> tuple[float, float]:
    """Mean and population standard deviation, computed in two passes."""
    vals = [float(v) for v in values]
    n = len(vals)
    mean = sum(vals) / n
    var = sum((v - mean) ** 2 for v in vals) / n
    return mean, math.sqrt(var)


def split_reference(trials, window, stride=None, train_trials=(1,), class_order=None):
    """TaskSequence.from_trials the long way: check the class order, cut every
    window of every used trial with window_trial, and let TaskSequence's own
    checks refuse an empty split."""
    from pseudoreplay.continual import TaskSequence
    from pseudoreplay.data import Windows, window_trial
    from pseudoreplay.errors import ConfigurationError

    present = sorted({t.class_id for t in trials})
    order = present if class_order is None else list(class_order)
    missing = [c for c in order if c not in present]
    if missing:
        raise ConfigurationError(f"classes {missing} not present in the data")
    if len(set(order)) != len(order):
        raise ConfigurationError("class_order contains duplicates")
    train, test = [], []
    for pos, cid in enumerate(order):
        mine = sorted((t for t in trials if t.class_id == cid), key=lambda t: t.trial_id)
        windows = Windows.concat([window_trial(t, window, stride) for t in mine])
        windows.y[:] = pos
        is_train = np.array([trial_id in train_trials for trial_id in windows.source[:, 0]], dtype=bool)
        train.append(windows.select(is_train))
        test.append([windows.select(~is_train)])
    return TaskSequence(class_ids=order, train=train, test=test)


def split_problems_reference(trials, window, stride=None, train_trials=(1,), class_order=None):
    """Every problem split_trials lists, as (type, message) pairs in order,
    written from its docstring: absent classes, a repeated class, the cut
    (a bad window or stride ends the list; a short trial is listed and ends
    the cut, and no class's split is judged), fewer than 2 classes, and each
    class without training or test windows."""
    from pseudoreplay.data import window_trial
    from pseudoreplay.errors import ConfigurationError, DataFormatError

    present = sorted({t.class_id for t in trials})
    order = present if class_order is None else list(class_order)
    problems = []
    missing = [c for c in order if c not in present]
    if missing:
        problems.append((ConfigurationError, f"classes {missing} not present in the data"))
    if len(set(order)) != len(order):
        problems.append((ConfigurationError, "class_order contains duplicates"))
    used = [c for i, c in enumerate(order) if c in present and c not in order[:i]]
    counts = []  # (class id, training windows, test windows) per used class
    short = False
    for cid in used:
        n_train = n_test = 0
        for t in sorted((t for t in trials if t.class_id == cid), key=lambda t: t.trial_id):
            try:
                n = len(window_trial(t, window, stride))
            except ConfigurationError as exc:
                return problems + [(ConfigurationError, str(exc))]
            except DataFormatError as exc:
                problems.append((DataFormatError, str(exc)))
                short = True
                break
            if t.trial_id in train_trials:
                n_train += n
            else:
                n_test += n
        if short:
            counts = []
            break
        counts.append((cid, n_train, n_test))
    if len(order) < 2:
        problems.append((ConfigurationError, "need at least 2 classes (one task)"))
    for cid, n_train, n_test in counts:
        if n_train == 0:
            problems.append((DataFormatError, f"class {cid}: no training windows"))
        if n_test == 0:
            problems.append((DataFormatError, f"class {cid}: no test windows"))
    return problems
