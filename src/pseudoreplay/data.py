"""Trial ingestion, windowing, feature standardization, and synthetic streams.

A trial is one continuous multichannel recording of a single class. Trials are
cut into fixed-length windows. A set of windows is one `Windows` struct of
arrays: features x [N, W, C], classes y [N] and provenance source [N, 2] as
(trial_id, start). Windowing, standardizing, generating and predicting each
act on a whole `Windows` at once. A window flattens row-major over
(timestep, channel), i.e. feature index = t * C + c, and every consumer of
flat vectors in this package uses that same ordering.

`load_trials` parses a trial CSV in one pass, one np.loadtxt call, and checks
it with array operations; the file is re-read whole only to name an error, and
its errors name the file and first bad row.
"""

from __future__ import annotations

import csv
import itertools
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    ConfigurationError,
    DataFormatError,
    read_config,
    require_integer,
    require_list,
    require_number,
)

# trial_id used to tag generator output in Windows.source
SYNTHETIC_TRIAL_ID = -1


@dataclass(eq=False)
class TimeSeriesTrial:
    """One recording: channels has shape [T, C]."""

    class_id: int
    trial_id: int
    channels: np.ndarray

    def __post_init__(self):
        self.channels = np.asarray(self.channels, dtype=float)
        if self.channels.ndim != 2:
            raise DataFormatError(
                f"trial {self.trial_id} of class {self.class_id}: channels must be 2-D [T, C]"
            )
        t, c = self.channels.shape
        if t < 1 or c < 1:
            raise DataFormatError(
                f"trial {self.trial_id} of class {self.class_id}: empty shape {self.channels.shape}"
            )
        if not np.all(np.isfinite(self.channels)):
            raise DataFormatError(
                f"trial {self.trial_id} of class {self.class_id}: non-finite values"
            )
        if self.class_id < 0:
            raise DataFormatError(f"class_id must be >= 0, got {self.class_id}")
        if self.trial_id < 1:
            raise DataFormatError(f"trial_id must be >= 1, got {self.trial_id}")

    @property
    def length(self) -> int:
        return self.channels.shape[0]

    @property
    def n_channels(self) -> int:
        return self.channels.shape[1]


@dataclass(eq=False)
class Windows:
    """N classifier inputs of one shape, as a struct of arrays.

    x is float64 [N, W, C], y is int64 [N] (the class of each row) and source
    is int64 [N, 2] holding (trial_id, start index). x is a view of the trial,
    read-only, after window_trial (and select with a slice of it); concat copies.
    Generator output carries trial_id == SYNTHETIC_TRIAL_ID with start = draw
    index, which is what the replay-purity audit keys on.
    """

    x: np.ndarray
    y: np.ndarray
    source: np.ndarray

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.y = np.asarray(self.y, dtype=np.int64)
        self.source = np.asarray(self.source, dtype=np.int64)
        if self.x.ndim != 3:
            raise DataFormatError("window features must be 3-D [N, W, C]")
        n = self.x.shape[0]
        if self.y.shape != (n,) or self.source.shape != (n, 2):
            raise DataFormatError(
                f"{n} windows need y of shape ({n},) and source of shape ({n}, 2), "
                f"got {self.y.shape} and {self.source.shape}"
            )
        if not np.all(np.isfinite(self.x)):
            bad = int(np.argwhere(~np.isfinite(self.x))[0, 0])
            raise DataFormatError(
                f"window from {tuple(self.source[bad].tolist())}: non-finite values"
            )

    def __len__(self) -> int:
        return self.x.shape[0]

    @property
    def window_shape(self) -> tuple[int, int]:
        return self.x.shape[1:]

    def select(self, index) -> "Windows":
        """The rows picked by an integer index array or a boolean mask."""
        return Windows(self.x[index], self.y[index], self.source[index])

    @staticmethod
    def concat(parts: "list[Windows]") -> "Windows":
        """Rows of every part, in order; all parts must share one window shape."""
        if not parts:
            raise ConfigurationError("no windows to concatenate")
        shape = parts[0].window_shape
        for part in parts:
            if part.window_shape != shape:
                raise DataFormatError(
                    f"inconsistent window shapes: {part.window_shape} vs {shape}"
                )
        return Windows(
            np.concatenate([p.x for p in parts]),
            np.concatenate([p.y for p in parts]),
            np.concatenate([p.source for p in parts]),
        )


def window_count(length: int, window: int, stride: int | None = None) -> int:
    """Windows of `window` steps every `stride` steps (default: window) that
    fit in `length` steps: floor((length - window) / stride) + 1, or 0."""
    if stride is None:
        stride = window
    if window < 1 or stride < 1:
        raise ConfigurationError(f"window and stride must be >= 1, got {window}, {stride}")
    return max(0, (length - window) // stride + 1)


def window_trial(trial: TimeSeriesTrial, window: int, stride: int | None = None) -> Windows:
    """Cut a trial into its window_count windows of length `window` every
    `stride` steps. Default stride equals window (non-overlapping
    partition); the trailing remainder is dropped.
    """
    if stride is None:
        stride = window
    t = trial.length
    n = window_count(t, window, stride)
    if n == 0:
        raise DataFormatError(
            f"trial {trial.trial_id} of class {trial.class_id}: length {t} < window {window}"
        )
    # [T - window + 1, C, window] view; its [n, window, C] transpose copies nothing
    views = sliding_window_view(trial.channels, window, axis=0)[::stride]
    starts = np.arange(n, dtype=np.int64) * stride
    return Windows(
        x=views.transpose(0, 2, 1),
        y=np.full(n, trial.class_id, dtype=np.int64),
        source=np.column_stack([np.full(n, trial.trial_id, dtype=np.int64), starts]),
    )


@dataclass(eq=False)
class StandardizationParams:
    """Per-feature affine transform over flattened windows."""

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=float).reshape(-1)
        self.std = np.asarray(self.std, dtype=float).reshape(-1)
        if self.mean.shape != self.std.shape:
            raise ConfigurationError("mean and std must have equal length")
        if not (np.all(np.isfinite(self.mean)) and np.all(np.isfinite(self.std))):
            raise ConfigurationError("standardization params must be finite")
        if np.any(self.std <= 0):
            raise ConfigurationError("std entries must be strictly positive")


_STD_BLOCK = 1 << 16


def fit_standardizer(windows: Windows) -> StandardizationParams:
    """Per-feature mean and population std over flattened windows.

    Features with std below 1e-12 get std 1.0 so constant channels pass
    through centered instead of dividing by ~0.

    The std is numpy's x.std(axis=0), taken over blocks of whole feature
    columns of roughly _STD_BLOCK to twice that many elements, each with its
    slice of x.mean(axis=0), so its centred temporary is one block, not the
    whole mix, and no mean is taken twice. A block holds every row, because
    numpy sums axis 0 one row after another and a split of the rows would
    change the sums' bits. A block is at least two features wide, because
    numpy sums a lone strided column pairwise instead; a one-feature input
    stays whole.
    """
    n = len(windows)
    if not n:
        raise ConfigurationError("cannot fit standardizer on no windows")
    x = windows.x.reshape(n, -1)
    mean = x.mean(axis=0)
    step = max(2, _STD_BLOCK // n)
    splits = max(1, x.shape[1] // step)
    blocks = zip(np.array_split(x, splits, axis=1), np.array_split(mean[None], splits, axis=1))
    sd = np.concatenate([block.std(axis=0, mean=block_mean) for block, block_mean in blocks])
    return StandardizationParams(mean=mean, std=np.where(sd < 1e-12, 1.0, sd))


def apply_standardizer(
    params: StandardizationParams, windows: Windows, out: np.ndarray | None = None
) -> Windows:
    """(x - mean) / std per feature; y and source are kept. The result is a
    new array, or `out` when given, which may be windows.x itself."""
    n, w, c = windows.x.shape
    if w * c != params.mean.shape[0]:
        raise ConfigurationError(
            f"standardizer expects {params.mean.shape[0]} features, window has {w * c}"
        )
    x = np.subtract(windows.x, params.mean.reshape(w, c), out=out)
    x /= params.std.reshape(w, c)
    return Windows(x, windows.y, windows.source)


# ---------------------------------------------------------------------------
# trial CSV: header class_id,trial_id,step,ch1..chC; rows sorted by
# (class_id, trial_id, step); full float precision; UTF-8


def save_trials(path: str | Path, trials: list[TimeSeriesTrial]) -> None:
    if not trials:
        raise ConfigurationError("no trials to save")
    c = trials[0].n_channels
    for t in trials:
        if t.n_channels != c:
            raise DataFormatError("trials disagree on channel count")
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["class_id", "trial_id", "step"] + [f"ch{i + 1}" for i in range(c)])
        for t in sorted(trials, key=lambda t: (t.class_id, t.trial_id)):
            for step in range(t.length):
                row = [t.class_id, t.trial_id, step]
                row += [format(v, ".17g") for v in t.channels[step]]
                writer.writerow(row)


def load_trials(path: str | Path) -> list[TimeSeriesTrial]:
    """Parse a trial CSV; errors name the file and the first bad 1-based row.

    The data lines are parsed in one pass, by one np.loadtxt call: three int64
    ids and one float64 per channel, unquoted and comma-separated. The table is
    then checked as a whole: finite values, class_id >= 0, trial_id >= 1,
    contiguous (class_id, trial_id) groups in strictly increasing order and
    steps strictly increasing from >= 0 within a group. If the pass fails, the
    file is re-read whole to name the problem: the first failing line is found
    by bisection, and the checks run on the rows before it, so of several
    problems (bytes that are not UTF-8 included) the earliest is reported.
    """
    path = Path(path)
    try:
        with path.open(encoding="utf-8") as fh:  # universal newlines: each line ends in \n
            n_chan = _channel_count(path, fh.readline().removesuffix("\n"))
            table, problem = _parse_rows(fh, n_chan), None
    except ValueError:  # a bad header, a line that does not parse, or bytes that are not UTF-8
        table, problem = _parse_to_first_problem(path)
    key = table["key"]
    starts = np.ones(len(key), dtype=bool)  # the first row of each trial
    starts[1:] = np.any(key[1:, :2] != key[:-1, :2], axis=1)
    problem = _first_table_problem(key, table["ch"], starts) or problem
    if problem or not len(key):
        raise DataFormatError(f"{path}{problem or ': no data rows'}")
    parts = np.split(np.ascontiguousarray(table["ch"]), np.flatnonzero(starts)[1:])
    return [TimeSeriesTrial(c, t, part) for (c, t), part in zip(key[starts, :2].tolist(), parts)]


def _parse_to_first_problem(path: Path) -> tuple[np.ndarray, str | None]:
    """The parsed rows of a trial CSV before its first data line that does not
    parse, and that line's problem or, if it comes first, the first bytes that
    are not UTF-8; a bad header raises. The file is decoded whole, so a decode
    error's position is its offset in the file."""
    raw = path.read_bytes()
    try:
        text, problem = raw.decode("utf-8"), None
    except UnicodeDecodeError as exc:
        good = raw[: exc.start]
        text = good[: max(good.rfind(b"\n"), good.rfind(b"\r")) + 1].decode()  # its whole lines
        problem = f": not UTF-8 text: {exc}"
    if problem and not text:
        raise DataFormatError(f"{path}{problem}")
    # a final line end adds no line
    rows = text.replace("\r\n", "\n").replace("\r", "\n").removesuffix("\n").split("\n")
    n_chan = _channel_count(path, rows[0])
    table, bad = _parse_until_bad(rows[1:], n_chan)
    if bad is not None:
        problem = f" row {bad + 2}: {_line_problem(rows[bad + 1], n_chan)}"
    return table, problem


def _channel_count(path: Path, header: str) -> int:
    """C for the header line class_id,trial_id,step,ch1..chC; any other line raises."""
    names = header.split(",")
    n_chan = len(names) - 3
    if n_chan < 1 or names != ["class_id", "trial_id", "step"] + [f"ch{i + 1}" for i in range(n_chan)]:
        raise DataFormatError(f"{path} row 1: header must be class_id,trial_id,step,ch1..chN")
    return n_chan


def _parse_rows(lines, n_chan: int) -> np.ndarray:
    """One record per line: int64 key (class_id, trial_id, step), float64 ch.
    A blank line, which np.loadtxt would skip, raises a ValueError as a line
    that does not parse does."""
    dtype = np.dtype([("key", np.int64, (3,)), ("ch", np.float64, (n_chan,))])
    lines = iter(lines)
    first = next(lines, None)
    if first is None:  # np.loadtxt would warn of no data
        return np.zeros(0, dtype=dtype)
    lines = map(_not_blank, itertools.chain([first], lines))
    return np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None, quotechar=None, ndmin=1)


def _not_blank(line: str) -> str:
    if line in ("", "\n"):
        raise ValueError("blank line")
    return line


def _parse_until_bad(rows: list[str], n_chan: int) -> tuple[np.ndarray, int | None]:
    """The parsed rows before the first line that does not parse, and that
    line's index (None if every line parses).

    Whether a line parses depends on that line alone, so halving the range
    known to hold the first bad line finds it in O(log n) parse calls that
    read about 2n lines in all.
    """
    parsed, lo, hi = [_parse_rows([], n_chan)], 0, len(rows) + 1
    while hi - lo > 1:  # rows[:lo] parse; the first bad line is in [lo, hi), len(rows) for none
        mid = (lo + hi) // 2
        try:
            parsed.append(_parse_rows(rows[lo:mid], n_chan))
            lo = mid
        except ValueError:
            hi = mid
    return np.concatenate(parsed), lo if lo < len(rows) else None


def _line_problem(row: str, n_chan: int) -> str | None:
    """Why one data line does not parse, or None if it does."""
    n_fields = len(row.split(",")) if row else 0
    if n_fields != 3 + n_chan:
        return f"expected {3 + n_chan} columns, got {n_fields}"
    try:
        _parse_rows([row], n_chan)
    except ValueError:
        return f"cannot read {row!r} as 3 integers and {n_chan} numbers"
    return None


def _first_table_problem(key, ch, starts) -> str | None:
    """The message ' row N: reason' for the earliest row the table checks
    reject, given the key and channel rows and which rows start a trial."""
    cls, trial, step = key.T
    decreasing, step_back = np.zeros(len(key), dtype=bool), np.zeros(len(key), dtype=bool)
    decreasing[1:] = (cls[1:] < cls[:-1]) | ((cls[1:] == cls[:-1]) & (trial[1:] < trial[:-1]))
    step_back[1:] = step[1:] <= step[:-1]

    def unordered(i: int) -> str:
        c, t = key[i, :2].tolist()
        if np.all(key[:i, :2] == (c, t), axis=1).any():
            return f"rows of class {c} trial {t} are not contiguous"
        return "rows not sorted by (class_id, trial_id)"

    checks = [
        (~np.isfinite(ch).all(axis=1), lambda i: "non-finite value"),
        (cls < 0, lambda i: f"class_id must be >= 0, got {cls[i]}"),
        (trial < 1, lambda i: f"trial_id must be >= 1, got {trial[i]}"),
        (decreasing, unordered),
        (np.where(starts, step < 0, step_back),
         lambda i: f"step {step[i]} not increasing within trial {trial[i]}"),
    ]
    found = [(int(np.flatnonzero(bad)[0]), say) for bad, say in checks if bad.any()]
    if not found:
        return None
    i, say = min(found, key=lambda f: f[0])
    return f" row {i + 2}: {say(i)}"  # file row 1 is the header


# ---------------------------------------------------------------------------
# synthetic surrogate streams


@dataclass(frozen=True)
class ClassSignal:
    """Signal recipe for one class: per-channel offset plus a shared sinusoid."""

    mean: tuple[float, ...]
    amplitude: float
    frequency: float  # cycles per sample
    noise_std: float

    def __post_init__(self):
        object.__setattr__(self, "mean", require_list("mean", self.mean, require_number))
        for name in ("amplitude", "frequency"):
            object.__setattr__(self, name, require_number(name, getattr(self, name)))
        object.__setattr__(self, "noise_std", require_number("noise_std", self.noise_std, least=0))


@dataclass(frozen=True)
class SyntheticStreamConfig:
    n_classes: int
    channels: int
    trial_length: int
    trials_per_class: int
    class_signals: tuple[ClassSignal, ...]
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "class_signals", require_list("class_signals", self.class_signals))
        require_integer("n_classes", self.n_classes, least=2)
        for name in ("channels", "trial_length", "trials_per_class"):
            require_integer(name, getattr(self, name), least=1)
        require_integer("seed", self.seed, least=0)
        if len(self.class_signals) != self.n_classes:
            raise ConfigurationError(
                f"need {self.n_classes} class_signals, got {len(self.class_signals)}",
                "class_signals",
            )
        for i, sig in enumerate(self.class_signals):
            if len(sig.mean) != self.channels:
                raise ConfigurationError(
                    f"mean vector length {len(sig.mean)} != channels {self.channels}",
                    f"class_signals[{i}].mean",
                )
            if sig in self.class_signals[:i]:
                raise ConfigurationError("duplicate signal parameters", f"class_signals[{i}]")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "SyntheticStreamConfig":
        return read_config(cls, doc)


def synthesize_stream(config: SyntheticStreamConfig) -> list[TimeSeriesTrial]:
    """Generate trials for every class; pure function of the config.

    Per trial each channel is mean + amplitude * sin(2*pi*f*t + phase) plus
    Gaussian noise; the phase is redrawn per (trial, channel) so trials of one
    class differ only by phase and noise realization.
    """
    rng = np.random.default_rng(config.seed)
    t_axis = np.arange(config.trial_length)
    trials = []
    for class_id, sig in enumerate(config.class_signals):
        for trial_id in range(1, config.trials_per_class + 1):
            phases = rng.uniform(0.0, 2.0 * np.pi, size=config.channels)
            noise = rng.normal(0.0, 1.0, size=(config.trial_length, config.channels))
            wave = sig.amplitude * np.sin(
                2.0 * np.pi * sig.frequency * t_axis[:, None] + phases[None, :]
            )
            channels = np.asarray(sig.mean)[None, :] + wave + sig.noise_std * noise
            trials.append(
                TimeSeriesTrial(class_id=class_id, trial_id=trial_id, channels=channels)
            )
    return trials


def default_synthetic_config(
    seed: int = 7, trial_length: int = 6250, trials_per_class: int = 5
) -> SyntheticStreamConfig:
    """Three well-separated classes on two channels.

    Channel offsets sit 4x the noise std apart so the benchmark stays easily
    separable; trial_length 6250 yields 125 non-overlapping windows of 50.
    """
    signals = (
        ClassSignal(mean=(0.0, 0.5), amplitude=0.6, frequency=0.05, noise_std=0.5),
        ClassSignal(mean=(2.0, 2.5), amplitude=0.8, frequency=0.11, noise_std=0.5),
        ClassSignal(mean=(4.0, 4.5), amplitude=1.0, frequency=0.23, noise_std=0.5),
    )
    return SyntheticStreamConfig(
        n_classes=3,
        channels=2,
        trial_length=trial_length,
        trials_per_class=trials_per_class,
        class_signals=signals,
        seed=seed,
    )
