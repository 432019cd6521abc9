"""Per-class interpolation generators for pseudo replay.

A fitted generator keeps a memory of one class's windows, [M, W, C]. New
samples are drawn on the segments between a stored window and one of its k
nearest same-class neighbours (Euclidean over all W * C values, self
excluded, distance ties broken by lower index): s = x_j + u * (x_l - x_j)
with u uniform on [0, 1]. Every output therefore stays inside the
per-value envelope of the memory.

The neighbour table ranks the windows as the rows of memory.reshape(M, -1),
in two passes over fixed-size row blocks: a GEMM gives the block's pairwise
distances in Gram form, and the few columns per row that can still be among
the k nearest, within a forward-error margin, are re-ranked by the direct
difference distance in one lexsort of the block's candidates: by row, then
distance, then column. The table equals a direct ranking of all pairs.
Fitting takes a `Windows` of one class, and `generate(gen, count, seed)`
returns one whose rows are tagged as synthetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import SYNTHETIC_TRIAL_ID, Windows
from .errors import ConfigurationError, DataFormatError, require_integer
from .seeding import derive_seed


@dataclass(eq=False)
class ClassGenerator:
    """One class's windows, unflattened, and their k-NN table; each `generate` call brings its own seed."""

    class_id: int
    memory: np.ndarray  # [M, W, C] windows
    k: int
    neighbors: np.ndarray = field(init=False, repr=False)  # [M, k_eff]

    def __post_init__(self):
        self.memory = np.asarray(self.memory, dtype=float)
        if self.memory.ndim != 3 or self.memory.shape[0] < 2:
            raise ConfigurationError("generator memory must be [M >= 2, W, C]")
        if not np.all(np.isfinite(self.memory)):
            raise DataFormatError(f"class {self.class_id}: non-finite memory")
        require_integer("k", self.k, least=1)
        self.neighbors = _neighbor_table(self.memory.reshape(self.memory_size, -1), self.k)

    @property
    def memory_size(self) -> int:
        return self.memory.shape[0]

    @property
    def k_effective(self) -> int:
        return self.neighbors.shape[1]


# elements of one [rows, M] block of distances (and of its partitioned copy),
# and of a difference temporary; the table does not depend on it
_GRAM_BLOCK = 1 << 16


def _neighbor_table(memory: np.ndarray, k: int) -> np.ndarray:
    """k_eff = min(k, M - 1) nearest indices per row, ties to lower index.

    Squared distances come from GEMMs as |a|^2 + |b|^2 - 2 a.b, one block of
    rows against all M columns at a time, _GRAM_BLOCK elements at most. Each
    row keeps as candidates every column within `margin` of its k_eff-th
    smallest Gram-form distance, and only those are ranked by the direct
    difference distance sum((a - b)^2). The margin is twice the summed
    forward-error bounds of the two forms, so no column the direct ranking
    would pick can fall outside the candidates; where the Gram form cancels
    (rows far from the origin and close together) every column qualifies and
    the table is the direct ranking of the whole row. A row's entry depends
    on that row alone, so the block size cannot change the table.
    """
    m, d = memory.shape
    k_eff = min(k, m - 1)
    sq = np.einsum("ij,ij->i", memory, memory)
    margin = 2.0 * (2 * d + 4) * np.finfo(float).eps * (sq + sq.max())
    table = np.empty((m, k_eff), dtype=np.intp)
    step = max(1, _GRAM_BLOCK // m)
    for lo in range(0, m, step):
        rows = slice(lo, min(m, lo + step))
        table[rows] = _neighbor_rows(memory, sq, margin, rows, k_eff)
    return table


def _neighbor_rows(
    memory: np.ndarray, sq: np.ndarray, margin: np.ndarray, rows: slice, k_eff: int
) -> np.ndarray:
    """The neighbour table's entries for memory[rows], as _neighbor_table ranks them."""
    n = rows.stop - rows.start
    own = (np.arange(n), np.arange(rows.start, rows.stop))
    d2 = memory[rows] @ memory.T
    d2 *= -2.0
    d2 += sq[rows, None]
    d2 += sq[None, :]
    d2[own] = np.inf
    kth = np.partition(d2, k_eff - 1, axis=1)[:, k_eff - 1]
    # "not above" keeps every column of a row whose bound is NaN or inf
    candidate = ~(d2 > (kth + margin[rows])[:, None])
    candidate[own] = False
    del d2, kth  # free both [rows, M] float blocks before the ranking
    block_rows, cols = np.nonzero(candidate)

    exact = np.empty(block_rows.size)
    chunk = max(1, _GRAM_BLOCK // memory.shape[1])  # bounds the [chunk, D] difference temporary
    for lo in range(0, block_rows.size, chunk):
        diff = memory.take(rows.start + block_rows[lo : lo + chunk], axis=0)
        diff -= memory.take(cols[lo : lo + chunk], axis=0)
        exact[lo : lo + chunk] = np.einsum("ij,ij->i", diff, diff)

    # by row, then exact distance, ties to the lower column; np.nonzero lists
    # the rows in order and each has at least k_eff candidates, so row r's
    # nearest k_eff start at its first position
    order = np.lexsort((cols, exact, block_rows))
    first = np.searchsorted(block_rows, np.arange(n))
    return cols[order][first[:, None] + np.arange(k_eff)]


def fit_generator(
    class_id: int,
    samples: Windows,
    k: int = 5,
    memory_budget: int | None = None,
    seed: int = 0,
) -> ClassGenerator:
    """Store (a uniform random subset of) one class's windows.

    memory_budget None keeps everything, as `samples.x` itself (a view stays a
    view); a budget below the sample count keeps a seeded uniform subset, a
    copy in original index order.
    """
    n = len(samples)
    if n < 2:
        raise DataFormatError(f"need at least 2 samples to fit a generator, got {n}")
    wrong = samples.y[samples.y != class_id]
    if wrong.size:
        raise DataFormatError(
            f"sample of class {wrong[0]} passed to generator for class {class_id}"
        )
    if memory_budget is not None:
        require_integer("memory_budget", memory_budget, least=2)

    memory = samples.x
    if memory_budget is not None and memory_budget < n:
        rng = np.random.default_rng(derive_seed(seed, "subsample", class_id))
        memory = memory[np.sort(rng.choice(n, size=memory_budget, replace=False))]
    return ClassGenerator(class_id=class_id, memory=memory, k=k)


def generate(gen: ClassGenerator, count: int, seed: int) -> Windows:
    """Draw exactly `count` samples, deterministic in (memory, k, seed).

    The count is split across stored samples: floor(S / M) each, with the
    first S mod M samples (index order) taking one extra. A sample with quota
    q <= k_eff draws a u per neighbour segment and keeps a uniform subset of
    q segments in neighbour order; with q > k_eff every draw picks a segment
    uniformly with replacement and a fresh u. The loop over stored samples
    only draws; one pass after it interpolates every row. Rows come out in
    stored-sample order, and row i carries source (SYNTHETIC_TRIAL_ID, i).
    """
    s_total = require_integer("count", count, least=1)
    rng = np.random.default_rng(seed)
    m, k_eff = gen.memory_size, gen.k_effective
    base, extra = divmod(s_total, m)
    quotas = base + (np.arange(min(m, s_total)) < extra)
    segments, u = [], []
    for quota in quotas.tolist():
        if quota <= k_eff:
            per_segment = rng.uniform(size=k_eff)
            segments.append(np.sort(rng.choice(k_eff, size=quota, replace=False)))
            u.append(per_segment[segments[-1]])
        else:
            segments.append(rng.integers(0, k_eff, size=quota))
            u.append(rng.uniform(size=quota))
    stored = np.repeat(np.arange(quotas.size), quotas)
    start = gen.memory[stored]
    # x_l - x_j, times u, plus x_j: each element rounds as x_j + u * (x_l - x_j)
    out = gen.memory[gen.neighbors[stored, np.concatenate(segments)]]
    out -= start
    out *= np.concatenate(u)[:, None, None]
    out += start
    draws = np.arange(s_total, dtype=np.int64)
    return Windows(
        x=out,
        y=np.full(s_total, gen.class_id, dtype=np.int64),
        source=np.column_stack([np.full(s_total, SYNTHETIC_TRIAL_ID, dtype=np.int64), draws]),
    )
