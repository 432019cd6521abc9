import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pseudoreplay import (
    SYNTHETIC_TRIAL_ID,
    ClassGenerator,
    TimeSeriesTrial,
    Windows,
    fit_generator,
    generate,
    window_trial,
)
from pseudoreplay.errors import ConfigurationError, DataFormatError
from pseudoreplay import generator
from pseudoreplay.generator import _neighbor_table

from _oracles import (
    direct_neighbor_table,
    generate_reference,
    knn_bruteforce,
    on_some_segment,
    segment_fit,
)
from conftest import make_samples


def generator_from_rows(rows, k=2, **kwargs) -> ClassGenerator:
    return fit_generator(0, make_samples(np.asarray(rows, dtype=float)), k=k, **kwargs)


def flat_rows(windows) -> np.ndarray:
    return windows.x.reshape(len(windows), -1)


def flat_memory(gen) -> np.ndarray:
    return gen.memory.reshape(gen.memory_size, -1)


def check_samples(gen, produced, expect_count):
    """Count, envelope and segment membership for every produced sample."""
    assert len(produced) == expect_count
    lists = [gen.neighbors[j].tolist() for j in range(gen.memory_size)]
    memory = flat_memory(gen)
    lo = memory.min(axis=0) - 1e-12
    hi = memory.max(axis=0) + 1e-12
    assert np.all(produced.source[:, 0] == SYNTHETIC_TRIAL_ID)
    assert produced.source[:, 1].tolist() == list(range(expect_count))
    assert np.all(produced.y == gen.class_id)
    for flat in flat_rows(produced):
        assert np.all(flat >= lo) and np.all(flat <= hi)
        assert on_some_segment(flat, memory, lists, tol=1e-9)


# -------------------------------------------------------------------- fitting


def test_budget_not_binding_keeps_everything():
    rows = np.random.default_rng(0).normal(size=(125, 4))
    gen = fit_generator(0, make_samples(rows), k=3, memory_budget=125)
    assert gen.memory_size == 125
    np.testing.assert_array_equal(flat_memory(gen), rows)


def test_budget_subsamples_reproducibly():
    rows = np.random.default_rng(1).normal(size=(125, 4))
    a = fit_generator(0, make_samples(rows), k=3, memory_budget=40, seed=9)
    b = fit_generator(0, make_samples(rows), k=3, memory_budget=40, seed=9)
    assert a.memory_size == 40
    np.testing.assert_array_equal(a.memory, b.memory)
    # retained rows are a subset, in original order
    row_set = {tuple(r) for r in rows}
    assert all(tuple(r) in row_set for r in flat_memory(a))


def test_single_sample_is_an_error():
    with pytest.raises(DataFormatError, match="at least 2"):
        fit_generator(0, make_samples(np.zeros((1, 3))))


def test_wrong_class_rejected():
    samples = make_samples(np.zeros((3, 2)), class_id=1)
    with pytest.raises(DataFormatError, match="class 1"):
        fit_generator(0, samples)


def test_bad_k_and_budget_rejected():
    samples = make_samples(np.random.default_rng(2).normal(size=(4, 2)))
    with pytest.raises(ConfigurationError):
        fit_generator(0, samples, k=0)
    with pytest.raises(ConfigurationError):
        fit_generator(0, samples, memory_budget=1)


# ---------------------------------------------------------- nearest neighbours


def test_neighbors_on_a_line():
    gen = generator_from_rows([[0.0], [1.0], [3.0], [7.0]], k=2)
    values = sorted(gen.memory[i, 0, 0] for i in gen.neighbors[0].tolist())
    assert values == [1.0, 3.0]


def test_k_equal_m_minus_one_returns_all_others():
    gen = generator_from_rows(np.random.default_rng(3).normal(size=(6, 2)), k=5)
    for j in range(6):
        assert sorted(gen.neighbors[j].tolist()) == [i for i in range(6) if i != j]


def test_k_larger_than_memory_is_clamped():
    gen = generator_from_rows([[0.0], [1.0], [2.0]], k=10)
    assert gen.k_effective == 2


def test_distance_ties_prefer_the_lower_index():
    # index 1 and 2 are both at distance 1 from index 0
    gen = generator_from_rows([[0.0], [1.0], [-1.0], [5.0]], k=1)
    assert gen.neighbors[0].tolist() == [1]


def test_neighbors_match_exhaustive_scan():
    rng = np.random.default_rng(4)
    memory = rng.normal(size=(200, 100))
    gen = fit_generator(0, make_samples(memory), k=7)
    for j in range(200):
        assert gen.neighbors[j].tolist() == knn_bruteforce(memory, j, 7)


@pytest.mark.parametrize("block_rows", [None, 1, 3])
def test_gemm_ranked_table_equals_the_direct_ranking(block_rows, monkeypatch):
    rng = np.random.default_rng(13)
    normal = rng.normal(size=(200, 100))
    cases = {
        "normal 200x100": (normal, (1, 5, 7)),
        # every distance in a group of copies ties, so only the index decides
        "duplicate rows": (np.repeat(rng.normal(size=(12, 6)), 4, axis=0), (1, 3, 5)),
        # |a|^2 ~ 2e7 against distances ~ 4e-11: the Gram form cancels, so
        # every column is a candidate and the direct distance decides alone
        "offset 1e3, spread 1e-6": (1e3 + 1e-6 * rng.normal(size=(60, 20)), (1, 5)),
        "k >= M - 1": (normal[:30], (29, 40)),
        "M = 2": (normal[:2], (1, 5)),
    }
    for name, (memory, ks) in cases.items():
        if block_rows is not None:  # row blocks of block_rows rows against all M columns
            monkeypatch.setattr(generator, "_GRAM_BLOCK", block_rows * len(memory))
        for k in ks:
            got = _neighbor_table(memory, k)
            want = direct_neighbor_table(memory, k)
            assert got.shape == want.shape, f"{name}, k={k}"
            assert np.array_equal(got, want), f"{name}, k={k}: tables differ"


@pytest.mark.parametrize("block_rows", [None, 1, 7])
def test_a_generator_on_an_overlapping_view_matches_one_on_a_copy(block_rows, monkeypatch):
    # a class's one training trial reaches fit_generator as window_trial's
    # read-only view, whose rows overlap at a stride below the window
    trial = TimeSeriesTrial(class_id=0, trial_id=1, channels=np.random.default_rng(15).normal(size=(600, 2)))
    view = window_trial(trial, 50, stride=5)
    copy = Windows(view.x.copy(), view.y, view.source)
    if block_rows is not None:
        monkeypatch.setattr(generator, "_GRAM_BLOCK", block_rows * len(view))
    on_view, on_copy = fit_generator(0, view, k=5, seed=2), fit_generator(0, copy, k=5, seed=2)
    assert np.shares_memory(on_view.memory, trial.channels)  # the memory is the view itself
    np.testing.assert_array_equal(on_view.neighbors, on_copy.neighbors)
    np.testing.assert_array_equal(on_view.neighbors, direct_neighbor_table(flat_memory(on_copy), 5))
    for count in (30, 400):
        drawn_view, drawn_copy = generate(on_view, count, seed=4), generate(on_copy, count, seed=4)
        assert drawn_view.x.tobytes() == drawn_copy.x.tobytes()


def test_neighbor_table_memory_stays_bounded_as_the_memory_grows():
    rng = np.random.default_rng(14)
    bound = 6 << 20  # bytes; one [M, M] distance matrix at M = 3000 is 72 MB
    for m in (375, 3000):
        memory = rng.normal(size=(m, 20))
        tracemalloc.start()
        try:
            _neighbor_table(memory, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, f"M = {m}: peak {peak} bytes"


# ------------------------------------------------------------------ generation


def test_two_point_memory_yields_points_on_the_diagonal():
    gen = fit_generator(0, make_samples(np.array([[0.0, 0.0], [1.0, 1.0]])), k=1)
    out = generate(gen, 2, seed=5)
    assert len(out) == 2
    for x, y in flat_rows(out):
        assert x == pytest.approx(y, abs=1e-12)
        assert 0.0 <= x <= 1.0


def test_identical_memory_collapses_to_that_vector():
    gen = generator_from_rows(np.full((4, 3), 2.5), k=2)
    out = generate(gen, 9, seed=1)
    for flat in flat_rows(out):
        np.testing.assert_array_equal(flat, [2.5, 2.5, 2.5])


def test_quota_equal_k_uses_each_neighbor_segment_once():
    # 4 stored points, 3 neighbours each, 12 requested: every stored point
    # contributes exactly one candidate per neighbour segment
    rng = np.random.default_rng(6)
    memory = rng.normal(size=(4, 5))
    gen = fit_generator(0, make_samples(memory), k=3)
    out = generate(gen, 12, seed=2)
    assert len(out) == 12
    for j in range(4):
        segment_hits = set()
        for flat in flat_rows(out)[3 * j : 3 * (j + 1)]:
            hits = []
            for l in gen.neighbors[j].tolist():
                u, residual = segment_fit(flat, memory[j], memory[l])
                if residual <= 1e-9 and -1e-9 <= u <= 1 + 1e-9:
                    hits.append(l)
            assert hits, "candidate not on any segment of its source point"
            segment_hits.add(hits[0])
        assert len(segment_hits) == 3


def test_count_exactness_when_not_divisible():
    gen = generator_from_rows(np.random.default_rng(7).normal(size=(5, 3)), k=2)
    for s_total in (1, 2, 3, 4, 5, 7, 11, 12, 13):
        out = generate(gen, s_total, seed=3)
        assert len(out) == s_total
    for bad in (0, 2.5, True):
        with pytest.raises(ConfigurationError, match="count"):
            generate(gen, bad, seed=3)


def test_generation_is_deterministic():
    rows = np.random.default_rng(8).normal(size=(10, 4))
    a = fit_generator(0, make_samples(rows), k=3, seed=21)
    b = fit_generator(0, make_samples(rows), k=3, seed=21)
    out_a = generate(a, 25, seed=21)
    out_b = generate(b, 25, seed=21)
    assert out_a.x.tobytes() == out_b.x.tobytes()
    assert out_a.source.tobytes() == out_b.source.tobytes()


def reference_cases():
    """(generator, count) pairs that reach every quota regime of `generate`."""
    rng = np.random.default_rng(16)
    six = fit_generator(0, make_samples(rng.normal(size=(6, 5))), k=3)  # k_eff 3
    trial = TimeSeriesTrial(class_id=0, trial_id=1, channels=rng.normal(size=(120, 2)))
    view = fit_generator(0, window_trial(trial, 20, stride=5), k=4)  # 21 read-only rows
    wide = TimeSeriesTrial(class_id=0, trial_id=1, channels=np.random.default_rng(17).normal(size=(70, 3)))
    non_square = {s: fit_generator(0, window_trial(wide, 7, stride=s), k=3) for s in (1, 7)}
    return {
        "count 1": (six, 1),
        "count < M": (six, 4),
        "count = M, quota 1": (six, 6),
        "quota 2": (six, 12),
        "quotas 3 and 2": (six, 15),
        "quota 3 = k_eff": (six, 18),
        "quotas 4 and 3, both regimes": (six, 21),
        "quota 10 > k_eff": (six, 60),
        "k = M - 1": (fit_generator(0, make_samples(rng.normal(size=(6, 5))), k=5), 17),
        "k > M - 1": (fit_generator(0, make_samples(rng.normal(size=(4, 3))), k=8), 9),
        "k > M - 1, quota > k_eff": (fit_generator(0, make_samples(rng.normal(size=(4, 3))), k=8), 23),
        "read-only window_trial view": (view, 70),
        "read-only view, count < M": (view, 8),
        "(7, 3) windows, stride 1": (non_square[1], 50),
        "(7, 3) windows, stride 7": (non_square[7], 25),
    }


@pytest.mark.parametrize("case", list(reference_cases()))
def test_generate_equals_the_reference_loop_byte_for_byte(case):
    gen, count = reference_cases()[case]
    for seed in (0, 7):
        got = generate(gen, count, seed=seed)
        x, y, source = generate_reference(gen, count, seed=seed)
        assert got.x.shape == x.shape and got.x.tobytes() == x.tobytes(), f"{case}, seed {seed}: x"
        assert got.y.tobytes() == y.tobytes(), f"{case}, seed {seed}: y"
        assert got.source.tobytes() == source.tobytes(), f"{case}, seed {seed}: source"


def test_a_memory_that_is_not_windows_is_refused():
    for memory in (np.zeros((4, 3)), np.zeros((1, 7, 3))):
        with pytest.raises(ConfigurationError, match=r"generator memory must be \[M >= 2, W, C\]"):
            ClassGenerator(class_id=0, memory=memory, k=1)


def test_different_seeds_give_different_draws():
    gen = generator_from_rows(np.random.default_rng(9).normal(size=(8, 4)), k=3)
    a = generate(gen, 16, seed=1).x
    b = generate(gen, 16, seed=2).x
    assert not np.array_equal(a, b)


def test_membership_and_envelope_both_quota_regimes():
    rng = np.random.default_rng(10)
    memory = rng.normal(size=(6, 8))
    gen = fit_generator(0, make_samples(memory), k=3)
    # quota 2 <= k_eff 3
    check_samples(gen, generate(gen, 12, seed=4), 12)
    # quota 10 > k_eff 3, with-replacement regime
    check_samples(gen, generate(gen, 60, seed=4), 60)


def test_synthetic_spread_contracts_toward_the_memory():
    rng = np.random.default_rng(11)
    memory = rng.normal(loc=3.0, scale=2.0, size=(60, 5))
    gen = fit_generator(0, make_samples(memory), k=4)
    out = flat_rows(generate(gen, 600, seed=6))
    mem_mean = memory.mean(axis=0)
    mem_var = memory.var(axis=0)
    # interpolation keeps the mean (up to memory and draw noise) and shrinks spread
    tol = 3.0 * np.sqrt(mem_var / 60) + 3.0 * np.sqrt(mem_var / out.shape[0])
    assert np.all(np.abs(out.mean(axis=0) - mem_mean) <= tol)
    assert np.all(out.var(axis=0) <= mem_var)


@settings(max_examples=25, deadline=None)
@given(
    m=st.integers(min_value=2, max_value=12),
    d=st.integers(min_value=1, max_value=6),
    k=st.integers(min_value=1, max_value=5),
    s_total=st.integers(min_value=1, max_value=40),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_generation_properties_hold_across_shapes(m, d, k, s_total, seed):
    rng = np.random.default_rng(seed)
    memory = rng.normal(size=(m, d))
    gen = fit_generator(0, make_samples(memory), k=k, seed=seed)
    check_samples(gen, generate(gen, s_total, seed=seed), s_total)

