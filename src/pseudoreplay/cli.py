"""Command line interface: synth, run, validate.

Exit statuses: 0 success, 1 runtime failure, 2 configuration or validation
failure. Given one config and master seed, `run` writes byte-identical
metrics.csv across invocations.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .classifier import NetSpec, TrainConfig
from .continual import (
    STRATEGIES,
    GeneratorConfig,
    RunSettings,
    TaskSequence,
    carried_problems,
    check_strategies,
    check_variant_name,
    compare_strategies,
    replay_problems,
    split_trials,
)
from .data import (
    SyntheticStreamConfig,
    TimeSeriesTrial,
    load_trials,
    save_trials,
    synthesize_stream,
)
from .errors import (
    ConfigurationError,
    DataFormatError,
    PseudoreplayError,
    read_config,
    require_integer,
    require_list,
    require_number,
    require_string,
)
from .reporting import RESULT_FILES, atomic_write, build_manifest, manifest_json, metrics_csv, render_report


@dataclass(frozen=True)
class DataSource:
    """Where the trials come from: a synthetic stream or a trial CSV."""

    synthetic: SyntheticStreamConfig | None = None
    csv: str | None = None

    def __post_init__(self):
        if (self.synthetic is None) == (self.csv is None):
            raise ConfigurationError("exactly one of 'synthetic' or 'csv' is required")
        if self.csv is not None:
            require_string("csv", self.csv)


@dataclass(frozen=True)
class Variant:
    """A named net doc that replaces `net` for the final task. The name
    labels methods, so check_variant_name must accept it."""

    name: str
    net: dict

    def __post_init__(self):
        check_variant_name(self.name)


@dataclass(eq=False)
class ExperimentConfig:
    """Parsed and validated run configuration (see README for the schema).
    `net` and each variant's net stay objects: _net_template builds their
    NetSpec once the data's channel count is known."""

    data: DataSource
    window: int = 50
    stride: int | None = None
    classes: list[int] | None = None
    train_trials: tuple[int, ...] = (1,)
    strategies: tuple[str, ...] = STRATEGIES
    repetitions: int = 5
    seed: int = 0
    out_dir: str = "results"
    net: dict = field(default_factory=lambda: {"kind": "dense"})
    train: TrainConfig = TrainConfig()
    generator: GeneratorConfig = GeneratorConfig()
    ewc_lambda: float = 100.0
    ensemble_size: int = 5
    variants: list[Variant] = field(default_factory=list)

    def __post_init__(self):
        for name in ("window", "repetitions", "ensemble_size"):
            require_integer(name, getattr(self, name), least=1)
        require_integer("seed", self.seed)
        if self.stride is not None:
            require_integer("stride", self.stride, least=1)
        if self.classes is not None:
            self.classes = list(require_list("classes", self.classes, require_integer))
            if len(set(self.classes)) != len(self.classes):
                raise ConfigurationError(f"classes must not repeat, got {self.classes}", "classes")
        self.train_trials = require_list("train_trials", self.train_trials, require_integer)
        require_string("out_dir", self.out_dir)
        self.strategies = require_list("strategies", self.strategies)
        check_strategies(self.strategies)
        self.ewc_lambda = require_number("ewc_lambda", self.ewc_lambda, least=0)
        names = [v.name for v in self.variants]
        if len(set(names)) != len(names):
            raise ConfigurationError("duplicate variant names", "variants")

    def to_dict(self) -> dict:
        doc = asdict(self)
        doc["data"] = {key: value for key, value in doc["data"].items() if value is not None}
        if not self.variants:
            del doc["variants"]
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        return read_config(cls, doc)


def _read_file(path: str, what: str, size: int = -1):
    """A file the user named, in blocks of `size` bytes, or a ConfigurationError naming it."""
    try:
        with Path(path).open("rb") as fh:
            while block := fh.read(size):
                yield block
    except FileNotFoundError:
        raise ConfigurationError(f"{what} file not found: {path}") from None
    except OSError as exc:
        raise ConfigurationError(f"cannot read {what} file {path!r}: {exc.strerror}") from None


def _read_json(path: str):
    try:
        return json.loads(b"".join(_read_file(path, "config")).decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"{path}: not UTF-8 text: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{path}: invalid JSON: {exc}") from None


def _net_template(path: str, net_doc: dict, window: int, channels: int) -> NetSpec:
    """The architecture a net doc describes; the run sets the input shape and
    n_classes per task, and init_model and train take each member's seeds."""
    return read_config(
        NetSpec, {"kind": "dense", **net_doc}, path, input_shape=(window, channels), n_classes=2
    )


def _load_data(cfg: ExperimentConfig) -> tuple[list[TimeSeriesTrial], str]:
    if cfg.data.synthetic is not None:
        trials = synthesize_stream(cfg.data.synthetic)
        h = hashlib.sha256()
        for t in trials:
            h.update(f"{t.class_id},{t.trial_id};".encode())
            h.update(np.ascontiguousarray(t.channels).tobytes())
        return trials, h.hexdigest()
    h = hashlib.sha256()
    for block in _read_file(cfg.data.csv, "data", 1 << 20):
        h.update(block)
    return load_trials(cfg.data.csv), h.hexdigest()


def _plan(
    cfg: ExperimentConfig, trials: list[TimeSeriesTrial]
) -> tuple[TaskSequence | None, NetSpec | None, dict[str, NetSpec], list]:
    """The task sequence and net `run` trains, each variant's final-task net,
    and every reason it would stop before training: the task split's
    problems, classes too small for rcl's generators, the nets' build errors,
    then carried strategies that cannot follow a variant's net."""
    seq, problems = split_trials(trials, cfg.window, cfg.stride, cfg.train_trials, cfg.classes)
    problems = problems or replay_problems(cfg.strategies, seq)
    n_tasks = len(cfg.classes if cfg.classes is not None else {t.class_id for t in trials}) - 1
    docs = {"net": cfg.net} | {f"variants[{i}].net": v.net for i, v in enumerate(cfg.variants)}
    specs = {}
    for path, doc in docs.items():
        try:
            specs[path] = _net_template(path, doc, cfg.window, trials[0].n_channels)
        except ConfigurationError as exc:
            problems.append(exc)
    variants = {}
    for i, variant in enumerate(cfg.variants):
        path = f"variants[{i}].net"
        if {"net", path} <= specs.keys():  # the variant's net replaces the final task's
            variants[variant.name] = specs[path]
            carried = carried_problems(cfg.strategies, specs["net"], specs[path], n_tasks)
            problems += [ConfigurationError(f"field '{path}': {exc}") for exc in carried]
    return seq, specs.get("net"), variants, problems


def _out_dir_problems(out: Path) -> list[ConfigurationError]:
    """Why `out` cannot be made an output directory, or a result file written
    in it: its nearest existing path is not a directory or not writable, or
    a directory holds a result file's name. Judged without creating anything."""
    existing = next((p for p in (out, *out.parents) if os.path.exists(p)), Path("."))
    if not os.path.isdir(existing):
        return [ConfigurationError(f"cannot create output directory {out}: {existing} is not a directory")]
    if not os.access(existing, os.W_OK | os.X_OK):
        return [ConfigurationError(f"cannot write in output directory {out}: {existing} is not writable")]
    return [
        ConfigurationError(f"cannot write {out / name}: Is a directory")
        for name in RESULT_FILES if os.path.isdir(out / name)
    ]


def _read_run_config(
    config_path: str, out_dir: str | None, repetitions: int | None
) -> tuple[ExperimentConfig, Path]:
    """The config with --repetitions applied, and the output directory:
    --out, else the config's out_dir."""
    cfg = ExperimentConfig.from_dict(_read_json(config_path))
    if repetitions is not None:
        cfg.repetitions = require_integer("--repetitions", repetitions, least=1)
    return cfg, Path(out_dir if out_dir is not None else cfg.out_dir)


def cmd_synth(config_path: str, out_path: str) -> int:
    """Generate a trial CSV from a SyntheticStreamConfig JSON document."""
    config = SyntheticStreamConfig.from_dict(_read_json(config_path))
    trials = synthesize_stream(config)
    out = Path(out_path)
    try:
        out.parent.mkdir(parents=True, exist_ok=True)
        save_trials(out, trials)
    except OSError as exc:  # out is a directory, or a parent of it is a file
        raise ConfigurationError(f"cannot write {out_path!r}: {exc.strerror}") from None
    print(f"wrote {out}")
    for cid in range(config.n_classes):
        cls_trials = [t for t in trials if t.class_id == cid]
        stacked = np.concatenate([t.channels for t in cls_trials])
        means = ", ".join(f"{v:.3f}" for v in stacked.mean(axis=0))
        stds = ", ".join(f"{v:.3f}" for v in stacked.std(axis=0))
        print(
            f"class {cid}: {len(cls_trials)} trials x {cls_trials[0].length} steps, "
            f"channel means [{means}], stds [{stds}]"
        )
    return 0


def cmd_run(
    config_path: str,
    out_dir: str | None = None,
    seed: int | None = None,
    repetitions: int | None = None,
) -> int:
    """Run the configured strategies and write manifest, metrics and report."""
    cfg, out = _read_run_config(config_path, out_dir, repetitions)
    if seed is not None:
        cfg.seed = seed
    if bad_out := _out_dir_problems(out):  # judged before the data, which can take long to read
        raise bad_out[0]
    trials, digest = _load_data(cfg)
    seq, net, variants, problems = _plan(cfg, trials)
    if problems:
        raise problems[0]
    del trials  # the test windows are views of the trials, so this frees no channels
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # e.g. no permission, as _plan has refused a file in the way
        raise ConfigurationError(f"cannot create output directory {out}: {exc.strerror}") from None

    settings = RunSettings(
        net=net, train=cfg.train, generator=cfg.generator,
        ewc_lambda=cfg.ewc_lambda, n_members=cfg.ensemble_size,
    )
    comp = compare_strategies(seq, settings, cfg.strategies, cfg.repetitions, cfg.seed, variants)
    manifest = build_manifest(cfg.to_dict(), comp, digest)
    texts = [manifest_json(manifest), metrics_csv(comp), render_report(comp)]
    for name, text in zip(RESULT_FILES, texts):
        try:
            atomic_write(out / name, text)
        except OSError as exc:  # e.g. a full disk, after training: a runtime failure
            raise PseudoreplayError(f"cannot write {out / name}: {exc.strerror}") from None
    for method, message in comp.failures.items():
        print(f"FAILED {method}: {message}", file=sys.stderr)
    if comp.failures:
        return 1
    print("wrote " + ", ".join(str(out / name) for name in RESULT_FILES))
    return 0


def cmd_validate(config_path: str, out_dir: str | None = None, repetitions: int | None = None) -> int:
    """Check the config, its data and run's --out and --repetitions: list
    every reason `run` would stop before training, from run's own pre-flight,
    or count the windows of the split it would train on."""
    cfg, out = _read_run_config(config_path, out_dir, repetitions)
    try:
        trials, _ = _load_data(cfg)
    except (ConfigurationError, DataFormatError) as exc:
        problems = [exc]
    else:
        seq, *_, problems = _plan(cfg, trials)
    problems += _out_dir_problems(out)
    for problem in problems:
        print(f"violation: {problem}")
    if problems:
        return 2

    stride = cfg.stride if cfg.stride is not None else cfg.window
    print(f"config ok: {len(seq.class_ids)} classes, window {cfg.window}, stride {stride}")
    for c, train, test in zip(seq.class_ids, seq.train, seq.test):
        windows = len(train) + sum(map(len, test))
        print(f"class {c}: {sum(t.class_id == c for t in trials)} trials, {windows} windows")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="pseudoreplay",
        description="Pseudo-replay continual learning benchmark for windowed sensor streams",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="write a synthetic trial CSV")
    p_synth.add_argument("--config", required=True, help="SyntheticStreamConfig JSON")
    p_synth.add_argument("--out", required=True, help="output CSV path")

    p_run = sub.add_parser("run", help="run strategies and write results")
    p_run.add_argument("--config", required=True, help="experiment config JSON")
    p_run.add_argument("--out", default=None, help="output directory (overrides config)")
    p_run.add_argument("--seed", type=int, default=None, help="master seed override")
    p_run.add_argument("--repetitions", type=int, default=None, help="repetition override")

    p_val = sub.add_parser("validate", help="check a config and its data")
    p_val.add_argument("--config", required=True, help="experiment config JSON")
    p_val.add_argument("--out", default=None, help="output directory, as for run")
    p_val.add_argument("--repetitions", type=int, default=None, help="repetition override, as for run")

    args = parser.parse_args(argv)
    try:
        if args.command == "synth":
            return cmd_synth(args.config, args.out)
        if args.command == "run":
            return cmd_run(args.config, args.out, args.seed, args.repetitions)
        return cmd_validate(args.config, args.out, args.repetitions)
    except (ConfigurationError, DataFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PseudoreplayError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
