"""Independent reference implementations used to cross-check the package.

Everything here is written straight from the mathematical definitions with
deliberately naive algorithms (loops, exhaustive scans, finite differences)
so that agreement with the package is meaningful.
"""

from __future__ import annotations

import math

import numpy as np


def knn_bruteforce(memory: np.ndarray, index: int, k: int) -> list[int]:
    """Indices of the k nearest rows to memory[index], self excluded.

    Euclidean distance, ties broken toward the lower index.
    """
    query = memory[index]
    scored = []
    for j in range(memory.shape[0]):
        if j == index:
            continue
        d = math.sqrt(float(np.sum((memory[j] - query) ** 2)))
        scored.append((d, j))
    scored.sort()  # (distance, index) lexicographic: lower index wins ties
    return [j for _, j in scored[:k]]


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


def sgd_reference(model, samples, config, penalty=None) -> tuple[np.ndarray, list[float]]:
    """Minibatch SGD as a plain loop: the parameters and per-epoch mean losses.

    Each epoch draws the seeded permutation, each minibatch calls the public
    loss_and_gradient on a freshly built model, and the update is out of
    place: v = beta*v + g; theta = theta - lr*v, with beta = 0 for plain sgd.
    """
    from pseudoreplay import NetModel, loss_and_gradient

    x, y = samples.x, samples.y
    rng = np.random.default_rng(config.shuffle_seed)
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


def counting_confusion(y_true, y_pred, n_classes: int) -> np.ndarray:
    counts = np.zeros((n_classes, n_classes), dtype=np.int64)
    for t, p in zip(y_true, y_pred, strict=True):
        counts[int(t), int(p)] += 1
    return counts


def metric_oracle(cm: np.ndarray) -> dict:
    """Per-class precision/recall/F and macro averages, pure Python loops.

    0/0 cases are defined as 0, matching the package's guard.
    """
    n = cm.shape[0]
    precision, recall, f_score = [], [], []
    for c in range(n):
        tp = float(cm[c, c])
        col = float(sum(cm[r, c] for r in range(n)))
        row = float(sum(cm[c, p] for p in range(n)))
        p = tp / col if col > 0 else 0.0
        r = tp / row if row > 0 else 0.0
        f = 2.0 * p * r / (p + r) if (p + r) > 0 else 0.0
        precision.append(p)
        recall.append(r)
        f_score.append(f)
    return {
        "precision": precision,
        "recall": recall,
        "f": f_score,
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
