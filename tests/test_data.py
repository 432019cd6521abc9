import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pseudoreplay import (
    SYNTHETIC_TRIAL_ID,
    ClassSignal,
    StandardizationParams,
    SyntheticStreamConfig,
    TimeSeriesTrial,
    Windows,
    apply_standardizer,
    default_synthetic_config,
    fit_standardizer,
    load_trials,
    save_trials,
    synthesize_stream,
    window_trial,
)
from pseudoreplay import data
from pseudoreplay.data import window_count
from pseudoreplay.errors import ConfigurationError, DataFormatError

from _oracles import two_pass_moments


def trial_of(values: np.ndarray, class_id: int = 0, trial_id: int = 1) -> TimeSeriesTrial:
    return TimeSeriesTrial(class_id=class_id, trial_id=trial_id, channels=values)


# ---------------------------------------------------------------- windowing


def test_nonoverlapping_window_count_250():
    trial = trial_of(np.zeros((250, 2)))
    windows = window_trial(trial, window=50, stride=50)
    assert len(windows) == 5
    assert windows.x.shape[1:] == (50, 2)


def test_nonoverlapping_window_count_6250():
    trial = trial_of(np.zeros((6250, 1)))
    assert len(window_trial(trial, window=50)) == 125


def test_window_longer_than_trial_is_an_error():
    trial = trial_of(np.zeros((49, 1)), class_id=2, trial_id=3)
    with pytest.raises(DataFormatError, match="trial 3 of class 2"):
        window_trial(trial, window=50)


def test_nonpositive_window_or_stride_rejected():
    trial = trial_of(np.zeros((10, 1)))
    with pytest.raises(ConfigurationError):
        window_trial(trial, window=0)
    with pytest.raises(ConfigurationError):
        window_trial(trial, window=5, stride=0)


def test_windows_carry_class_and_source():
    trial = trial_of(np.arange(20.0).reshape(10, 2), class_id=1, trial_id=4)
    windows = window_trial(trial, window=4, stride=3)
    assert windows.source.tolist() == [[4, 0], [4, 3], [4, 6]]
    assert np.all(windows.y == 1)
    assert windows.source[0, 0] != SYNTHETIC_TRIAL_ID


def test_default_stride_partitions_the_trial_exactly():
    trial = trial_of(np.random.default_rng(3).normal(size=(120, 2)))
    windows = window_trial(trial, window=30)
    rebuilt = windows.x.reshape(-1, 2)
    np.testing.assert_array_equal(rebuilt, trial.channels)


@settings(max_examples=60, deadline=None)
@given(
    t=st.integers(min_value=1, max_value=300),
    window=st.integers(min_value=1, max_value=60),
    stride=st.integers(min_value=1, max_value=60),
)
def test_window_count_formula_and_slices(t, window, stride):
    trial = trial_of(np.arange(float(t)).reshape(-1, 1))
    if window > t:
        assert window_count(t, window, stride) == 0
        with pytest.raises(DataFormatError):
            window_trial(trial, window, stride)
        return
    windows = window_trial(trial, window, stride)
    assert len(windows) == (t - window) // stride + 1 == window_count(t, window, stride)
    for i, w in enumerate(windows.x):
        np.testing.assert_array_equal(
            w, trial.channels[i * stride : i * stride + window]
        )


def test_windows_check_shapes_and_name_a_non_finite_row():
    x = np.zeros((3, 2, 1))
    source = np.array([[1, 0], [1, 2], [1, 4]])
    with pytest.raises(DataFormatError, match="3-D"):
        Windows(x=np.zeros((3, 2)), y=np.zeros(3), source=source)
    with pytest.raises(DataFormatError, match="need y of shape"):
        Windows(x=x, y=np.zeros(2), source=source)
    with pytest.raises(DataFormatError, match="need y of shape"):
        Windows(x=x, y=np.zeros(3), source=source[:, :1])
    x[1, 1, 0] = np.nan
    with pytest.raises(DataFormatError, match=r"window from \(1, 2\): non-finite"):
        Windows(x=x, y=np.zeros(3), source=source)


def test_concat_and_select_keep_row_order():
    trial = trial_of(np.arange(20.0).reshape(10, 2), class_id=1, trial_id=4)
    a = window_trial(trial, window=4, stride=3)
    b = window_trial(trial_of(np.ones((4, 2)), trial_id=5), window=4)
    both = Windows.concat([a, b])
    assert len(both) == 4
    assert both.source.tolist() == [[4, 0], [4, 3], [4, 6], [5, 0]]
    assert both.y.tolist() == [1, 1, 1, 0]
    np.testing.assert_array_equal(both.x[:3], a.x)
    picked = both.select(np.array([False, True, False, True]))
    assert picked.source.tolist() == [[4, 3], [5, 0]]
    assert len(both.select(np.zeros(4, dtype=bool))) == 0


# ----------------------------------------------------------- standardization


def samples_from_rows(rows) -> Windows:
    rows = np.asarray(rows, dtype=float)
    n = rows.shape[0]
    return Windows(
        x=rows.reshape(n, -1, 1),
        y=np.zeros(n),
        source=np.column_stack([np.ones(n), np.arange(n)]),
    )


def test_two_point_standardizer():
    params = fit_standardizer(samples_from_rows([[0.0], [2.0]]))
    assert params.mean[0] == 1.0
    assert params.std[0] == 1.0  # population std of {0, 2}


def test_constant_feature_gets_unit_std():
    params = fit_standardizer(samples_from_rows([[5.0], [5.0], [5.0]]))
    assert params.mean[0] == 5.0
    assert params.std[0] == 1.0


def test_standardized_moments_are_zero_one():
    rng = np.random.default_rng(0)
    samples = samples_from_rows(rng.normal(3.0, 2.5, size=(100, 6)))
    params = fit_standardizer(samples)
    out = apply_standardizer(params, samples).x.reshape(len(samples), -1)
    for col in range(out.shape[1]):
        mean, std = two_pass_moments(out[:, col])
        assert abs(mean) <= 1e-9
        assert abs(std - 1.0) <= 1e-9


def test_identity_params_change_nothing():
    params = StandardizationParams(mean=np.zeros(4), std=np.ones(4))
    sample = samples_from_rows([[1.0, -2.0, 3.0, 0.5]])
    np.testing.assert_array_equal(apply_standardizer(params, sample).x, sample.x)


def test_sample_at_the_mean_maps_to_zero():
    samples = samples_from_rows([[2.0, 4.0], [6.0, 8.0]])
    params = fit_standardizer(samples)
    center = samples_from_rows(params.mean[None, :])
    assert np.all(apply_standardizer(params, center).x == 0.0)


def test_standardize_round_trip():
    rng = np.random.default_rng(5)
    samples = samples_from_rows(rng.normal(size=(30, 8)))
    params = fit_standardizer(samples)
    flat = apply_standardizer(params, samples).x.reshape(len(samples), -1)
    back = flat * params.std + params.mean
    np.testing.assert_allclose(back.reshape(samples.x.shape), samples.x, atol=1e-9)


def test_fit_standardizer_is_bit_equal_to_numpy():
    rng = np.random.default_rng(12)
    # in the last three a block's 64k-element budget holds fewer than two
    # whole features, so a block cut by the budget alone would be one feature
    # wide, and numpy sums a lone strided column in another order
    shapes = [
        (326, 100), (327, 100), (328, 100), (988, 100), (98_309, 1),
        (33_000, 2), (40_000, 3), (70_001, 5),
    ]
    for n, d in shapes:
        x = rng.normal(3.0, 2.0, size=(n, d)) * rng.uniform(0.1, 10.0, size=d)
        if d > 1:
            x[:, 7 % d] = 0.1  # a constant feature, whose std falls back to 1.0
        params = fit_standardizer(Windows(x.reshape(n, -1, 1), np.zeros(n), np.zeros((n, 2))))
        sd = x.std(axis=0)
        for name, got, want in (
            ("mean", params.mean, x.mean(axis=0)),
            ("std", params.std, np.where(sd < 1e-12, 1.0, sd)),
        ):
            assert got.tobytes() == want.tobytes(), (
                f"[{n}, {d}]: fit_standardizer's {name} differs from numpy's x.{name}(axis=0),"
                " so a run's floats would change"
            )


def test_fitting_a_standardizer_holds_a_block_of_the_mix_not_a_copy():
    # rcl's task-2 mix on window_flood: 3,723 windows of (50, 2); numpy's
    # x.std(axis=0) over the whole mix makes a centred copy of it, a peak of 1.02
    rng = np.random.default_rng(16)
    n = 3723
    samples = Windows(rng.normal(3.0, 2.0, size=(n, 50, 2)), np.zeros(n), np.zeros((n, 2)))
    fit_standardizer(samples)  # numpy's first-call allocations stay out of the peak
    tracemalloc.start()
    try:
        fit_standardizer(samples)
        peak = tracemalloc.get_traced_memory()[1] / samples.x.nbytes
    finally:
        tracemalloc.stop()
    assert peak < 1 / 3, f"peak {peak:.2f} x the mix"


def test_standardizing_in_place_equals_the_copy():
    rng = np.random.default_rng(14)
    samples = samples_from_rows(rng.normal(3.0, 2.5, size=(40, 6)))
    params = fit_standardizer(samples)
    copy = apply_standardizer(params, samples)
    x = samples.x
    in_place = apply_standardizer(params, samples, out=samples.x)
    assert in_place.x is x and copy.x is not x
    assert in_place.x.tobytes() == copy.x.tobytes()


def test_standardizer_rejects_mixed_shapes():
    # windows of two shapes can only meet in a concat, which refuses them
    a = samples_from_rows([[0.0, 0.0]])
    b = samples_from_rows([[0.0, 0.0, 0.0]])
    with pytest.raises(DataFormatError, match="inconsistent window shapes"):
        fit_standardizer(Windows.concat([a, b]))


# ------------------------------------------------------------------ trial CSV


def test_csv_round_trip_is_bit_identical(tmp_path):
    rng = np.random.default_rng(9)
    trials = [
        trial_of(rng.normal(size=(7, 3)) * 10.0 ** float(rng.integers(-8, 8)), class_id=c, trial_id=t)
        for c in range(2)
        for t in (1, 2)
    ]
    path = tmp_path / "trials.csv"
    save_trials(path, trials)
    loaded = load_trials(path)
    assert len(loaded) == len(trials)
    by_key = {(t.class_id, t.trial_id): t for t in loaded}
    for t in trials:
        np.testing.assert_array_equal(by_key[(t.class_id, t.trial_id)].channels, t.channels)


def test_minimal_two_row_file(tmp_path):
    path = tmp_path / "mini.csv"
    path.write_text(
        "class_id,trial_id,step,ch1,ch2\n0,1,0,1.5,2.5\n0,1,1,3.5,4.5\n"
    )
    (trial,) = load_trials(path)
    assert trial.length == 2 and trial.n_channels == 2
    np.testing.assert_array_equal(trial.channels, [[1.5, 2.5], [3.5, 4.5]])


def test_nan_value_names_the_row(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("class_id,trial_id,step,ch1\n0,1,0,1.0\n0,1,1,nan\n")
    with pytest.raises(DataFormatError, match="row 3"):
        load_trials(path)


def test_unsorted_steps_name_the_first_offending_row(tmp_path):
    path = tmp_path / "shuffled.csv"
    path.write_text(
        "class_id,trial_id,step,ch1\n0,1,0,1.0\n0,1,2,2.0\n0,1,1,3.0\n"
    )
    with pytest.raises(DataFormatError, match="row 4"):
        load_trials(path)


def test_bad_header_rejected(tmp_path):
    path = tmp_path / "hdr.csv"
    path.write_text("a,b,c,ch1\n0,1,0,1.0\n")
    with pytest.raises(DataFormatError, match="row 1"):
        load_trials(path)


def test_noncontiguous_trial_rows_rejected(tmp_path):
    path = tmp_path / "split.csv"
    path.write_text(
        "class_id,trial_id,step,ch1\n0,1,0,1.0\n0,2,0,2.0\n0,1,1,3.0\n"
    )
    with pytest.raises(DataFormatError, match="not contiguous"):
        load_trials(path)


HEADER_2 = "class_id,trial_id,step,ch1,ch2\n"


def assert_loads_as_written(path, written):
    """load_trials gives back the written trials, sorted by key, to the byte."""
    loaded = load_trials(path)
    written = sorted(written, key=lambda t: (t.class_id, t.trial_id))
    assert [(t.class_id, t.trial_id) for t in loaded] == [
        (t.class_id, t.trial_id) for t in written
    ]
    for got, want in zip(loaded, written):
        assert type(got.class_id) is int and type(got.trial_id) is int
        assert got.channels.dtype == np.float64 and got.channels.flags.c_contiguous
        assert got.channels.shape == want.channels.shape
        assert got.channels.tobytes() == want.channels.tobytes()


def assert_names_the_file(path, needle):
    with pytest.raises(DataFormatError) as err:
        load_trials(path)
    assert str(err.value).startswith(str(path))
    assert needle in str(err.value)


@pytest.mark.parametrize("n_chan", [1, 2, 3, 4])
def test_saved_trials_load_as_written(tmp_path, n_chan):
    rng = np.random.default_rng(n_chan)
    trials = [
        trial_of(rng.normal(size=(5 + c + t, n_chan)), class_id=c, trial_id=t)
        for c in (3, 0, 1)
        for t in (7, 1, 2)
    ]
    path = tmp_path / "trials.csv"
    save_trials(path, trials)
    assert_loads_as_written(path, trials)


def test_extreme_values_load_as_written(tmp_path):
    values = np.array(
        [1e-300, -1e300, -0.0, 0.0, 5e-324, -1e-310, 2.2250738585072014e-308,
         1e300, 1.7976931348623157e308, 0.1, 1.0 / 3.0, -123456.789]
    ).reshape(-1, 2)
    path = tmp_path / "extreme.csv"
    written = [trial_of(values), trial_of(values[::-1].copy(), trial_id=2)]
    save_trials(path, written)
    assert_loads_as_written(path, written)
    (first, _) = load_trials(path)
    assert np.signbit(first.channels[1, 0])  # -0.0 keeps its sign


@pytest.mark.parametrize(
    "line_end, final",
    [("\n", "\n"), ("\n", ""), ("\r\n", "\r\n"), ("\r\n", ""), ("\r", "\r")],
)
def test_every_line_end_loads_as_written(tmp_path, line_end, final):
    lines = [HEADER_2.strip(), "0,1,0,1.5,2.5", "0,1,1,3.5,4.5", "1,1,0,-1,1e-5"]
    path = tmp_path / "ends.csv"
    path.write_bytes((line_end.join(lines) + final).encode())
    written = [
        trial_of(np.array([[1.5, 2.5], [3.5, 4.5]])),
        trial_of(np.array([[-1.0, 1e-5]]), class_id=1),
    ]
    assert_loads_as_written(path, written)


MALFORMED = [
        ("0,1,0,1.5,2.5\n0,1,1,3.5\n", "row 3: expected 5 columns, got 4"),
        ("0,1,0,1.5,2.5\n\n0,1,1,3.5,4.5\n", "row 3: expected 5 columns, got 0"),
        ("0,1,0,1.5,2.5\n0,1,1,abc,4.5\n", "row 3"),
        ("0,1,0,1.5,2.5\n1.0,1,0,3.5,4.5\n", "row 3"),
        ("0,1,0,1.5,2.5\n0,1,1,inf,4.5\n", "row 3: non-finite value"),
        ("1,1,0,1.5,2.5\n0,1,0,3.5,4.5\n", "row 3: rows not sorted"),
        ("0,1,0,1.5,2.5\n0,2,0,3.5,4.5\n0,1,1,3.5,4.5\n", "row 4: rows of class 0 trial 1 are not contiguous"),
        ("0,1,0,1.5,2.5\n0,1,0,3.5,4.5\n", "row 3: step 0 not increasing"),
        ("0,1,-1,1.5,2.5\n", "row 2: step -1 not increasing"),
        ("-1,1,0,1.5,2.5\n", "row 2: class_id must be >= 0, got -1"),
        ("0,1,0,1.5,2.5\n1,0,0,3.5,4.5\n", "row 3: trial_id must be >= 1, got 0"),
        ("", ": no data rows"),
]


@pytest.mark.parametrize("body, needle", MALFORMED)
def test_malformed_files_name_the_first_bad_row(tmp_path, body, needle):
    path = tmp_path / "bad.csv"
    path.write_text(HEADER_2 + body)
    assert_names_the_file(path, needle)


@pytest.mark.parametrize(
    "row",
    [
        '0,1,1,"3.5",4.5',
        "0,1,1,1_000,4.5",
        "0,1,1_0,3.5,4.5",
        "0,1,1,\u0663,4.5",  # an Arabic-Indic digit
        "0,99999999999999999999,1,3.5,4.5",
        "0,1,-9223372036854775809,3.5,4.5",
    ],
)
def test_spellings_beyond_plain_ascii_numbers_name_the_row(tmp_path, row):
    path = tmp_path / "spelled.csv"
    path.write_text(HEADER_2 + "0,1,0,1.5,2.5\n" + row + "\n", encoding="utf-8")
    assert_names_the_file(path, f"row 3: cannot read {row!r}")


@pytest.mark.parametrize(
    "edits, needle",
    [
        ({5: b"0,1,3,nan,1", 10: b"0,1,8,x,1"}, "row 5:"),
        ({5: b"0,1,2,1,1", 10: b"0,0,0,1,1"}, "row 5:"),
        ({5: b"0,1,3,x,1", 10: b"0,1,8,nan,1"}, "row 5:"),
        # a text-mode reader decodes about 8 KB at a time, so these bytes fail a parse under way
        ({5: b"0,1,3,nan,1", 1502: b"0,1,1500,\xff,1"}, "row 5:"),
        (
            {1502: b"0,1,1500,\xff,1", 1600: b"0,1,0,1,1"},
            "not UTF-8 text: 'utf-8' codec can't decode byte 0xff in position 24820",
        ),
    ],
)
def test_the_first_of_two_problems_is_reported(tmp_path, edits, needle):
    rows = [f"0,1,{step},{step}.5,1".encode() for step in range(1800)]  # about 30 KB
    for row, line in edits.items():
        rows[row - 2] = line  # file row 1 is the header
    path = tmp_path / "two.csv"
    path.write_bytes(HEADER_2.encode() + b"\n".join(rows) + b"\n")
    assert_names_the_file(path, needle)


@pytest.mark.parametrize("bad_row", ["0,1,x,1,1", "0,1", ""])
def test_a_bad_last_line_is_found_in_log_n_parses(tmp_path, monkeypatch, bad_row):
    n = 20_000
    rows = [f"0,1,{step},{step}.5,1" for step in range(n - 1)] + [bad_row]
    path = tmp_path / "long.csv"
    path.write_text(HEADER_2 + "\n".join(rows) + "\n")
    calls = []
    real = np.loadtxt

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", counting)
    assert_names_the_file(path, f"row {n + 1}: ")
    assert len(calls) <= math.ceil(math.log2(n)) + 2, len(calls)


IDS = st.sampled_from(["0", "1", "2", "-1", " 3"])
VALUES = st.sampled_from(["1.5", "-0.0", "1e5", "nan", "inf"])
ODD_FIELDS = st.sampled_from(["", "x", "1_0", '"1"', "1.0", "99999999999999999999", "\u0663", "\t"])
CSV_TEXT = st.lists(
    st.one_of(
        st.tuples(IDS, IDS, IDS, VALUES, VALUES).map(",".join),
        st.lists(st.one_of(IDS, VALUES, ODD_FIELDS), min_size=1, max_size=6).map(",".join),
    ),
    max_size=6,
).map(lambda rows: HEADER_2 + "\n".join(rows))


ANY_BYTES = st.one_of(
    CSV_TEXT.map(str.encode),
    st.tuples(CSV_TEXT, st.binary(max_size=12)).map(lambda p: p[0].encode() + p[1]),
    st.tuples(CSV_TEXT, st.sampled_from(["\r\n", "\r"]), st.binary(max_size=6)).map(
        lambda p: p[0].replace("\n", p[1]).encode() + p[2]
    ),
    st.binary(max_size=60),
)
FUZZ_NAMES = itertools.count()


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(raw=ANY_BYTES)
def test_any_bytes_load_or_raise_a_data_format_error(tmp_path, raw):
    # a fresh name per example: overwriting a written file costs far more than a new one
    path = tmp_path / f"fuzz{next(FUZZ_NAMES)}.csv"
    path.write_bytes(raw)
    try:
        trials = load_trials(path)
    except DataFormatError as exc:
        assert re.match(rf"{re.escape(str(path))}( row [1-9][0-9]*)?: ", str(exc)), str(exc)
        return
    assert trials and all(isinstance(t, TimeSeriesTrial) for t in trials)


def load_outcome(path):
    """The loaded trials' ids and channel bytes, or the DataFormatError's message."""
    try:
        return [(t.class_id, t.trial_id, t.channels.shape, t.channels.tobytes()) for t in load_trials(path)]
    except DataFormatError as exc:
        return str(exc)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(raw=ANY_BYTES)
def test_the_error_path_changes_no_trial_and_no_message(tmp_path, monkeypatch, raw):
    path = tmp_path / f"fuzz{next(FUZZ_NAMES)}.csv"
    path.write_bytes(raw)
    one_pass = load_outcome(path)
    real = data._parse_rows

    def lists_only(lines, n_chan):  # the one pass hands over the open file, the error path lists
        if not isinstance(lines, list):
            raise ValueError("one pass refused")
        return real(lines, n_chan)

    with monkeypatch.context() as patch:
        patch.setattr(data, "_parse_rows", lists_only)
        assert load_outcome(path) == one_pass


# A text-mode reader decodes the file about 8 KB at a time.
CHUNK = 8192


@pytest.mark.parametrize("line_end", ["\n", "\r\n", "\r"])
def test_a_line_end_across_a_decode_chunk_ends_one_line(tmp_path, line_end):
    n = 1200  # about 20 KB, so two chunk ends
    expected = np.column_stack([np.arange(n) + 0.5, np.ones(n)])
    for pad in range(20):  # longer than a row: some line end meets each byte of a chunk end
        rows = [f"0,1,0,0.5{'0' * pad},1"] + [f"0,1,{step},{step}.5,1" for step in range(1, n)]
        path = tmp_path / f"ends{pad}.csv"
        path.write_bytes((HEADER_2.strip() + line_end + line_end.join(rows) + line_end).encode())
        (trial,) = load_trials(path)
        assert (trial.class_id, trial.trial_id) == (0, 1)
        assert np.array_equal(trial.channels, expected), pad


def rows_of_length(n_bytes: int) -> bytes:
    """A header and rows of trial (0, 1), n_bytes long in all."""
    raw, step = HEADER_2.encode(), 0
    while n_bytes - len(raw) > 64:
        raw += f"0,1,{step},{step}.5,1\n".encode()
        step += 1
    pad = n_bytes - len(raw) - len(f"0,1,{step},{step}.5,1\n")
    return raw + f"0,1,{step},{step}.5{'0' * pad},1\n".encode()


# a cut 3-byte sequence early, across the first chunk end, at its start, across the third
@pytest.mark.parametrize("at", [100, CHUNK - 1, CHUNK, 3 * CHUNK - 1])
def test_a_byte_that_is_not_utf8_is_placed_in_the_file(tmp_path, at):
    raw = rows_of_length(at - len("0,1,")) + b"0,1,\xe2\x82,1,1\n" + b"0,1,0,1,1\n" * 10
    assert raw.index(b"\xe2") == at
    path = tmp_path / "latin.csv"
    path.write_bytes(raw)
    assert_names_the_file(path, f"not UTF-8 text: 'utf-8' codec can't decode bytes in position {at}-{at + 1}")


def test_loading_holds_a_small_multiple_of_the_returned_channels(tmp_path):
    path = tmp_path / "big.csv"
    save_trials(path, synthesize_stream(default_synthetic_config(seed=3)))  # 4.4 MB
    tracemalloc.start()
    try:
        trials = load_trials(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    channels = sum(t.channels.nbytes for t in trials)  # 1.5 MB
    assert peak < 4 * channels, f"peak {peak} bytes for {channels} bytes of channels"


# ------------------------------------------------------------ synthetic data


def test_degenerate_signal_is_the_constant_mean():
    config = SyntheticStreamConfig(
        n_classes=2,
        channels=2,
        trial_length=40,
        trials_per_class=1,
        class_signals=(
            ClassSignal(mean=(1.0, -1.0), amplitude=0.0, frequency=0.1, noise_std=0.0),
            ClassSignal(mean=(3.0, 2.0), amplitude=0.0, frequency=0.1, noise_std=0.0),
        ),
        seed=0,
    )
    trials = synthesize_stream(config)
    np.testing.assert_array_equal(trials[0].channels, np.tile([1.0, -1.0], (40, 1)))
    np.testing.assert_array_equal(trials[1].channels, np.tile([3.0, 2.0], (40, 1)))


def test_same_seed_gives_identical_streams(small_stream_config):
    a = synthesize_stream(small_stream_config)
    b = synthesize_stream(small_stream_config)
    for ta, tb in zip(a, b, strict=True):
        np.testing.assert_array_equal(ta.channels, tb.channels)


def test_trials_of_one_class_differ_by_noise_and_phase(small_stream_config):
    trials = synthesize_stream(small_stream_config)
    first = [t for t in trials if t.class_id == 0]
    assert not np.array_equal(first[0].channels, first[1].channels)


def test_stream_shape_and_counts(small_stream_config):
    trials = synthesize_stream(small_stream_config)
    assert len(trials) == 6  # 3 classes x 2 trials
    assert all(t.channels.shape == (450, 2) for t in trials)
    assert sorted({t.class_id for t in trials}) == [0, 1, 2]


def test_default_config_class_means_are_well_separated():
    config = default_synthetic_config()
    trials = synthesize_stream(config)
    channel_means = []
    for cid in range(config.n_classes):
        stacked = np.concatenate([t.channels for t in trials if t.class_id == cid])
        channel_means.append(stacked.mean(axis=0))
    noise = max(sig.noise_std for sig in config.class_signals)
    for a in range(len(channel_means)):
        for b in range(a + 1, len(channel_means)):
            gap = np.max(np.abs(channel_means[a] - channel_means[b]))
            assert gap > 3.0 * noise


def test_default_config_yields_125_windows_per_trial():
    trials = synthesize_stream(default_synthetic_config())
    assert len(trials) == 15
    assert all(len(window_trial(t, 50)) == 125 for t in trials)


def test_synthetic_config_validation_names_fields():
    with pytest.raises(ConfigurationError, match="n_classes"):
        SyntheticStreamConfig(
            n_classes=0, channels=1, trial_length=10, trials_per_class=1,
            class_signals=(), seed=0,
        )
    with pytest.raises(ConfigurationError, match="duplicate"):
        sig = ClassSignal(mean=(0.0,), amplitude=1.0, frequency=0.1, noise_std=0.1)
        SyntheticStreamConfig(
            n_classes=2, channels=1, trial_length=10, trials_per_class=1,
            class_signals=(sig, sig), seed=0,
        )


def test_synthetic_config_dict_round_trip(small_stream_config):
    doc = small_stream_config.to_dict()
    assert SyntheticStreamConfig.from_dict(doc) == small_stream_config
