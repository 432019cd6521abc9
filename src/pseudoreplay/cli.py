"""Command line interface: synth, run, validate.

Exit statuses: 0 success, 1 runtime failure, 2 configuration or validation
failure. Given one config and master seed, `run` writes byte-identical
metrics.csv across invocations.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .classifier import NetSpec, TrainConfig
from .continual import (
    CARRIED,
    STRATEGIES,
    ComparisonReport,
    GeneratorConfig,
    RunSettings,
    TaskSequence,
    compare_strategies,
    switches_architecture,
)
from .data import (
    SyntheticStreamConfig,
    TimeSeriesTrial,
    load_trials,
    save_trials,
    synthesize_stream,
    window_count,
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
from .reporting import atomic_write, build_manifest, manifest_json, metrics_csv, render_report


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
    """A named net doc that replaces `net` for the final task."""

    name: str
    net: dict

    def __post_init__(self):
        require_string("name", self.name)


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
        if not self.strategies:
            raise ConfigurationError("strategies must not be empty", "strategies")
        for s in self.strategies:
            if s not in STRATEGIES:
                raise ConfigurationError(
                    f"unknown strategy {s!r}; choose from {STRATEGIES}", "strategies"
                )
        if len(set(self.strategies)) != len(self.strategies):
            raise ConfigurationError(
                f"strategies must not repeat, got {list(self.strategies)}", "strategies"
            )
        self.ewc_lambda = require_number("ewc_lambda", self.ewc_lambda, least=0)
        names = [v.name for v in self.variants]
        if len(set(names)) != len(names):
            raise ConfigurationError("duplicate variant names", "variants")

    def to_dict(self) -> dict:
        doc = asdict(self)
        doc["data"] = {key: value for key, value in doc["data"].items() if value is not None}
        del doc["train"]["shuffle_seed"]
        if not self.variants:
            del doc["variants"]
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        return read_config(cls, doc)


def _read_json(path: str):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigurationError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{path}: invalid JSON: {exc}") from None


def _net_template(path: str, net_doc: dict, window: int, channels: int) -> NetSpec:
    """The spec a net doc describes. The run sets the input shape, replaces
    n_classes per task and derives each member's seed."""
    return read_config(
        NetSpec, {"kind": "dense", **net_doc}, path,
        input_shape=(window, channels), n_classes=2, seed=0,
    )


def _variant_task_nets(
    cfg: ExperimentConfig, i: int, base: NetSpec, net: NetSpec, n_tasks: int
) -> list[NetSpec]:
    """Variant i's net per task: `base` for every task but the last, `net`
    for the last. A carried strategy that could not follow the switch is
    rejected here, as run_strategy would reject it only after training."""
    nets = [base] * (n_tasks - 1) + [net]
    carried = [s for s in cfg.strategies if s in CARRIED]
    if carried and switches_architecture(nets):
        raise ConfigurationError(
            f"field 'variants[{i}].net': {carried[0]} carries one model across tasks,"
            " so a variant net must match 'net' apart from the head"
        )
    return nets


def _load_data(cfg: ExperimentConfig) -> tuple[list[TimeSeriesTrial], str]:
    if cfg.data.synthetic is not None:
        trials = synthesize_stream(cfg.data.synthetic)
        h = hashlib.sha256()
        for t in trials:
            h.update(f"{t.class_id},{t.trial_id};".encode())
            h.update(np.ascontiguousarray(t.channels).tobytes())
        return trials, h.hexdigest()
    try:
        raw = Path(cfg.data.csv).read_bytes()
    except FileNotFoundError:
        raise ConfigurationError(f"data file not found: {cfg.data.csv}") from None
    except OSError as exc:  # a directory, "" among them, or an unreadable file
        raise ConfigurationError(
            f"cannot read data file {cfg.data.csv!r}: {exc.strerror}"
        ) from None
    return load_trials(cfg.data.csv), hashlib.sha256(raw).hexdigest()


def cmd_synth(config_path: str, out_path: str) -> int:
    """Generate a trial CSV from a SyntheticStreamConfig JSON document."""
    config = SyntheticStreamConfig.from_dict(_read_json(config_path))
    trials = synthesize_stream(config)
    out = Path(out_path)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_trials(out, trials)
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
    cfg = ExperimentConfig.from_dict(_read_json(config_path))
    if seed is not None:
        cfg.seed = seed
    if repetitions is not None:
        cfg.repetitions = require_integer("--repetitions", repetitions, least=1)
    trials, digest = _load_data(cfg)
    seq = TaskSequence.from_trials(
        trials,
        window=cfg.window,
        stride=cfg.stride,
        train_trials=cfg.train_trials,
        class_order=cfg.classes,
    )
    del trials  # the windows hold their own copy, so the raw trials can go
    base_net = _net_template("net", cfg.net, cfg.window, seq.channels)

    # each variant swaps the final task's classifier; "" is the primary run
    variant_nets: dict[str, object] = {"": base_net}
    if cfg.variants:
        variant_nets = {}
        for i, variant in enumerate(cfg.variants):
            vnet = _net_template(f"variants[{i}].net", variant.net, cfg.window, seq.channels)
            variant_nets[variant.name] = _variant_task_nets(cfg, i, base_net, vnet, seq.n_tasks)
    out = Path(out_dir if out_dir is not None else cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    comparisons: dict[str, ComparisonReport] = {}
    failures: dict[str, str] = {}
    for vname in sorted(variant_nets):
        settings = RunSettings(
            net=variant_nets[vname],
            train=cfg.train,
            generator=cfg.generator,
            ewc_lambda=cfg.ewc_lambda,
            n_members=cfg.ensemble_size,
        )
        comp = compare_strategies(
            seq,
            settings,
            strategies=cfg.strategies,
            repetitions=cfg.repetitions,
            master_seed=cfg.seed,
        )
        for strat, message in comp.failures.items():
            failures[strat if not vname else f"{strat}/{vname}"] = message
        if comp.strategies:
            comparisons[vname] = comp

    manifest = build_manifest(cfg.to_dict(), comparisons, digest, failures or None)
    atomic_write(out / "manifest.json", manifest_json(manifest))
    if comparisons:
        atomic_write(out / "metrics.csv", metrics_csv(comparisons))
        atomic_write(out / "report.md", render_report(comparisons))
    if failures:
        for label, message in failures.items():
            print(f"FAILED {label}: {message}", file=sys.stderr)
        return 1
    print(f"wrote {out / 'manifest.json'}, {out / 'metrics.csv'}, {out / 'report.md'}")
    return 0


def cmd_validate(config_path: str) -> int:
    """Check the config and its data; list violations instead of stopping at
    the first one where practical."""
    violations: list[str] = []
    cfg = ExperimentConfig.from_dict(_read_json(config_path))
    try:
        trials, _ = _load_data(cfg)
    except (ConfigurationError, DataFormatError) as exc:
        print(f"violation: {exc}")
        return 2

    present = sorted({t.class_id for t in trials})
    wanted = cfg.classes if cfg.classes is not None else present
    for c in wanted:
        if c not in present:
            violations.append(f"class {c} not present in the data")
    shortest = min(t.length for t in trials)
    if cfg.window > shortest:
        violations.append(f"window {cfg.window} exceeds shortest trial length {shortest}")
    train_ids = set(cfg.train_trials)
    for c in wanted:
        if c not in present:
            continue
        ids = {t.trial_id for t in trials if t.class_id == c}
        if not ids & train_ids:
            violations.append(f"class {c}: no training trials among {sorted(train_ids)}")
        if not ids - train_ids:
            violations.append(f"class {c}: no evaluation trials left")
    if len(wanted) < 2:
        violations.append(f"need at least 2 classes, found {len(wanted)}")
    nets = [("net", cfg.net)] + [(f"variants[{i}].net", v.net) for i, v in enumerate(cfg.variants)]
    specs = []
    for path, net_doc in nets:
        try:
            specs.append(_net_template(path, net_doc, cfg.window, trials[0].n_channels))
        except ConfigurationError as exc:
            violations.append(str(exc))
    if len(specs) == len(nets) and len(wanted) >= 2:
        for i, vnet in enumerate(specs[1:]):
            try:
                _variant_task_nets(cfg, i, specs[0], vnet, len(wanted) - 1)
            except ConfigurationError as exc:
                violations.append(str(exc))

    if violations:
        for v in violations:
            print(f"violation: {v}")
        return 2

    stride = cfg.stride if cfg.stride is not None else cfg.window
    print(f"config ok: {len(wanted)} classes, window {cfg.window}, stride {stride}")
    for c in wanted:
        cls_trials = [t for t in trials if t.class_id == c]
        windows = sum(window_count(t.length, cfg.window, cfg.stride) for t in cls_trials)
        print(f"class {c}: {len(cls_trials)} trials, {windows} windows")
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

    args = parser.parse_args(argv)
    try:
        if args.command == "synth":
            return cmd_synth(args.config, args.out)
        if args.command == "run":
            return cmd_run(args.config, args.out, args.seed, args.repetitions)
        return cmd_validate(args.config)
    except (ConfigurationError, DataFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PseudoreplayError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
