"""Command line interface: synth, run, validate.

Exit statuses: 0 success, 1 runtime failure, 2 configuration or validation
failure. Given one config and master seed, `run` writes byte-identical
metrics.csv across invocations.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import numbers
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .classifier import NetSpec, TrainConfig
from .continual import (
    STRATEGIES,
    ComparisonReport,
    GeneratorConfig,
    RunSettings,
    TaskSequence,
    compare_strategies,
)
from .data import (
    SyntheticStreamConfig,
    TimeSeriesTrial,
    load_trials,
    save_trials,
    synthesize_stream,
    window_trial,
)
from .errors import ConfigurationError, DataFormatError, PseudoreplayError, require_integer
from .reporting import atomic_write, build_manifest, manifest_json, metrics_csv, render_report


def _require_integer_list(name: str, value) -> tuple[int, ...]:
    if not isinstance(value, (list, tuple)):
        raise ConfigurationError(f"field '{name}': must be a list of integers, got {value!r}")
    return tuple(require_integer(f"field '{name}':", entry) for entry in value)


def _require_string(name: str, value) -> str:
    if not isinstance(value, str):
        raise ConfigurationError(f"field '{name}': must be a string, got {value!r}")
    return value


def _require_object(name: str, value) -> dict:
    if not isinstance(value, dict):
        raise ConfigurationError(f"field '{name}': must be an object, got {value!r}")
    return dict(value)


@dataclass(eq=False)
class ExperimentConfig:
    """Parsed and validated run configuration (see README for the schema)."""

    synthetic: SyntheticStreamConfig | None
    csv_path: str | None
    window: int = 50
    stride: int | None = None
    classes: list[int] | None = None
    train_trials: tuple[int, ...] = (1,)
    strategies: tuple[str, ...] = STRATEGIES
    repetitions: int = 5
    seed: int = 0
    out_dir: str = "results"
    net: dict = field(default_factory=lambda: {"kind": "dense"})
    variants: list[tuple[str, dict]] = field(default_factory=list)
    train: TrainConfig = TrainConfig()
    generator: GeneratorConfig = GeneratorConfig()
    ewc_lambda: float = 100.0
    ensemble_size: int = 5

    def __post_init__(self):
        if (self.synthetic is None) == (self.csv_path is None):
            raise ConfigurationError(
                "field 'data': exactly one of 'synthetic' or 'csv' is required"
            )
        for name in ("window", "repetitions", "seed", "ensemble_size"):
            require_integer(f"field '{name}':", getattr(self, name))
        if self.stride is not None:
            require_integer("field 'stride':", self.stride)
        if self.classes is not None:
            self.classes = list(_require_integer_list("classes", self.classes))
        self.train_trials = _require_integer_list("train_trials", self.train_trials)
        _require_string("out_dir", self.out_dir)
        if not isinstance(self.strategies, (list, tuple)):
            raise ConfigurationError(
                f"field 'strategies': must be a list of strategy names, got {self.strategies!r}"
            )
        self.strategies = tuple(self.strategies)
        lam = self.ewc_lambda
        if isinstance(lam, bool) or not isinstance(lam, numbers.Real) or not math.isfinite(lam) or lam < 0:
            raise ConfigurationError(f"field 'ewc_lambda': must be a finite number >= 0, got {lam!r}")
        self.ewc_lambda = float(lam)
        if self.window < 1:
            raise ConfigurationError(f"field 'window': must be >= 1, got {self.window}")
        if self.stride is not None and self.stride < 1:
            raise ConfigurationError(f"field 'stride': must be >= 1, got {self.stride}")
        if self.repetitions < 1:
            raise ConfigurationError(
                f"field 'repetitions': must be >= 1, got {self.repetitions}"
            )
        if not self.strategies:
            raise ConfigurationError("field 'strategies': must not be empty")
        for s in self.strategies:
            if s not in STRATEGIES:
                raise ConfigurationError(
                    f"field 'strategies': unknown strategy {s!r}; choose from {STRATEGIES}"
                )
        if self.ensemble_size < 1:
            raise ConfigurationError(
                f"field 'ensemble_size': must be >= 1, got {self.ensemble_size}"
            )
        names = [_require_string("variants", name) for name, _ in self.variants]
        if len(set(names)) != len(names):
            raise ConfigurationError("field 'variants': duplicate variant names")

    def to_dict(self) -> dict:
        doc: dict = {
            "data": (
                {"synthetic": self.synthetic.to_dict()}
                if self.synthetic is not None
                else {"csv": self.csv_path}
            ),
            "window": self.window,
            "stride": self.stride,
            "classes": self.classes,
            "train_trials": list(self.train_trials),
            "strategies": list(self.strategies),
            "repetitions": self.repetitions,
            "seed": self.seed,
            "out_dir": self.out_dir,
            "net": self.net,
            "train": {
                "epochs": self.train.epochs,
                "batch_size": self.train.batch_size,
                "learning_rate": self.train.learning_rate,
                "optimizer": self.train.optimizer,
                "momentum": self.train.momentum,
            },
            "generator": {
                "k": self.generator.k,
                "memory_budget": self.generator.memory_budget,
                "pseudo_per_class": self.generator.pseudo_per_class,
            },
            "ewc_lambda": self.ewc_lambda,
            "ensemble_size": self.ensemble_size,
        }
        if self.variants:
            doc["variants"] = [{"name": n, "net": d} for n, d in self.variants]
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        if not isinstance(doc, dict):
            raise ConfigurationError("config must be a JSON object")
        known = {
            "data", "window", "stride", "classes", "train_trials", "strategies",
            "repetitions", "seed", "out_dir", "net", "variants", "train",
            "generator", "ewc_lambda", "ensemble_size",
        }
        unknown = set(doc) - known
        if unknown:
            raise ConfigurationError(f"unknown config fields: {sorted(unknown)}")
        data = doc.get("data")
        if not isinstance(data, dict):
            raise ConfigurationError("field 'data': required object with 'synthetic' or 'csv'")
        synthetic = None
        csv_path = None
        if "synthetic" in data:
            synthetic = SyntheticStreamConfig.from_dict(data["synthetic"])
        if "csv" in data:
            csv_path = str(data["csv"])
        train_doc = doc.get("train", {})
        gen_doc = doc.get("generator", {})
        try:
            train_cfg = TrainConfig(**train_doc)
        except (TypeError, ConfigurationError) as exc:
            raise ConfigurationError(f"field 'train': {exc}") from None
        try:
            gen_cfg = GeneratorConfig(**gen_doc)
        except (TypeError, ConfigurationError) as exc:
            raise ConfigurationError(f"field 'generator': {exc}") from None
        variants = []
        for entry in doc.get("variants", []):
            if not isinstance(entry, dict) or "name" not in entry or "net" not in entry:
                raise ConfigurationError("field 'variants': entries need 'name' and 'net'")
            variants.append((entry["name"], _require_object("variants", entry["net"])))
        return cls(
            synthetic=synthetic,
            csv_path=csv_path,
            window=doc.get("window", 50),
            stride=doc.get("stride"),
            classes=doc.get("classes"),
            train_trials=doc.get("train_trials", [1]),
            strategies=doc.get("strategies", STRATEGIES),
            repetitions=doc.get("repetitions", 5),
            seed=doc.get("seed", 0),
            out_dir=doc.get("out_dir", "results"),
            net=_require_object("net", doc.get("net", {"kind": "dense"})),
            variants=variants,
            train=train_cfg,
            generator=gen_cfg,
            ewc_lambda=doc.get("ewc_lambda", 100.0),
            ensemble_size=doc.get("ensemble_size", 5),
        )


def _read_json(path: str):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigurationError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{path}: invalid JSON: {exc}") from None


def _net_template(label: str, net_doc: dict, window: int, channels: int) -> NetSpec:
    doc = dict(net_doc)
    doc.setdefault("kind", "dense")
    doc["input_shape"] = [window, channels]
    doc["n_classes"] = 2  # replaced per task
    try:
        return NetSpec.from_dict(doc)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{label}: {exc}") from None


def _load_data(cfg: ExperimentConfig) -> tuple[list[TimeSeriesTrial], str]:
    if cfg.synthetic is not None:
        trials = synthesize_stream(cfg.synthetic)
        h = hashlib.sha256()
        for t in trials:
            h.update(f"{t.class_id},{t.trial_id};".encode())
            h.update(np.ascontiguousarray(t.channels).tobytes())
        return trials, h.hexdigest()
    try:
        raw = Path(cfg.csv_path).read_bytes()
    except FileNotFoundError:
        raise ConfigurationError(f"data file not found: {cfg.csv_path}") from None
    return load_trials(cfg.csv_path), hashlib.sha256(raw).hexdigest()


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
        if repetitions < 1:
            raise ConfigurationError(f"--repetitions must be >= 1, got {repetitions}")
        cfg.repetitions = repetitions
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
        for name, net_doc in cfg.variants:
            vnet = _net_template(f"variant {name!r}", net_doc, cfg.window, seq.channels)
            variant_nets[name] = [base_net] * (seq.n_tasks - 1) + [vnet]
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
    nets = [("net", cfg.net)] + [(f"variant {name!r}", doc) for name, doc in cfg.variants]
    for label, net_doc in nets:
        try:
            _net_template(label, net_doc, cfg.window, trials[0].n_channels)
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
        windows = sum(len(window_trial(t, cfg.window, cfg.stride)) for t in cls_trials)
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
