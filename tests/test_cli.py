import copy
import dataclasses
import errno
import hashlib
import json
import os
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pseudoreplay import (
    ClassSignal,
    GeneratorConfig,
    NetSpec,
    SyntheticStreamConfig,
    TimeSeriesTrial,
    TrainConfig,
    cli,
    default_synthetic_config,
    load_trials,
    save_trials,
    synthesize_stream,
)
from pseudoreplay.cli import DataSource, ExperimentConfig, Variant, main
from pseudoreplay import continual, data
from pseudoreplay.errors import ConfigurationError, TrainingError
from pseudoreplay.reporting import numeric_environment

pytestmark = pytest.mark.filterwarnings("ignore::pseudoreplay.metrics.MetricWarning")


def small_data_doc() -> dict:
    return {
        "synthetic": default_synthetic_config(
            seed=11, trial_length=450, trials_per_class=2
        ).to_dict()
    }


def run_config_doc(**overrides) -> dict:
    doc = {
        "data": small_data_doc(),
        "window": 50,
        "strategies": ["baseline", "rcl"],
        "repetitions": 1,
        "seed": 5,
        "ensemble_size": 2,
        "net": {"kind": "dense", "hidden": [8, 4]},
        "train": {"epochs": 10, "batch_size": 16, "learning_rate": 0.01},
    }
    doc.update(overrides)
    return doc


def synthetic_override(**fields) -> dict:
    """A run-config override replacing fields of the synthetic stream."""
    return {"data": {"synthetic": {**small_data_doc()["synthetic"], **fields}}}


DROP = object()  # a signal_stream value that removes the key


def signal_stream(**fields) -> dict:
    """The small synthetic stream with fields of its first class signal
    replaced, or removed where the value is DROP."""
    stream = small_data_doc()["synthetic"]
    first = {**stream["class_signals"][0], **fields}
    first = {key: value for key, value in first.items() if value is not DROP}
    return {**stream, "class_signals": [first, *stream["class_signals"][1:]]}


# each holds one fault in data.synthetic.class_signals[0], at its only key
BAD_SIGNALS = [
    {"amplitude": "x"},
    {"mean": "ab"},
    {"amplitude": True},
    {"frequency": "0.1"},
    {"mean": ["0.5"]},
    {"frequency": DROP},
    {"extra": 1},
]


def write_json(path, doc) -> str:
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


# ----------------------------------------------------------------------- synth


def test_synth_writes_loadable_csv(tmp_path, capsys):
    cfg = write_json(tmp_path / "stream.json", small_data_doc()["synthetic"])
    out = tmp_path / "trials.csv"
    assert main(["synth", "--config", cfg, "--out", str(out)]) == 0
    msg = capsys.readouterr().out
    assert f"wrote {out}" in msg
    assert "class 0: 2 trials x 450 steps" in msg
    trials = load_trials(out)
    assert len(trials) == 6
    assert sorted({t.class_id for t in trials}) == [0, 1, 2]


def test_synth_same_seed_same_bytes(tmp_path):
    cfg = write_json(tmp_path / "stream.json", small_data_doc()["synthetic"])
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["synth", "--config", cfg, "--out", str(a)]) == 0
    assert main(["synth", "--config", cfg, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_synth_invalid_stream_config_exits_2(tmp_path, capsys):
    doc = small_data_doc()["synthetic"]
    doc["n_classes"] = 0
    cfg = write_json(tmp_path / "stream.json", doc)
    assert main(["synth", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2
    assert "n_classes" in capsys.readouterr().err


@pytest.mark.parametrize("fields", BAD_SIGNALS)
def test_synth_rejects_bad_class_signals_naming_the_field(tmp_path, capsys, fields):
    cfg = write_json(tmp_path / "stream.json", signal_stream(**fields))
    out = tmp_path / "x.csv"
    assert main(["synth", "--config", cfg, "--out", str(out)]) == 2
    field = f"class_signals[0].{next(iter(fields))}"
    assert capsys.readouterr().err.startswith(f"error: field '{field}':")
    assert not out.exists()


def test_missing_config_file_exits_2(tmp_path, capsys):
    assert main(["synth", "--config", str(tmp_path / "nope.json"), "--out", "x.csv"]) == 2
    assert "config file not found" in capsys.readouterr().err


# ------------------------------------------------------------------------- run


def test_run_writes_result_files(tmp_path, capsys):
    cfg = write_json(tmp_path / "exp.json", run_config_doc())
    out = tmp_path / "results"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    assert capsys.readouterr().out.startswith("wrote ")

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "ok"
    assert sorted(manifest["seeds"]) == ["baseline", "rcl"]
    assert len(manifest["data_digest"]) == 64
    assert manifest["config"]["window"] == 50

    lines = (out / "metrics.csv").read_text().splitlines()
    # 2 strategies x 1 rep x (2 classes task 1 + 3 classes task 2)
    assert len(lines) == 1 + 2 * 5
    methods = {row.split(",")[0] for row in lines[1:]}
    assert methods == {"baseline", "rcl"}

    report = (out / "report.md").read_text()
    assert "| Baseline |" in report and "| RCL |" in report


def test_run_is_byte_identical_across_invocations(tmp_path):
    cfg = write_json(tmp_path / "exp.json", run_config_doc())
    first, second = tmp_path / "r1", tmp_path / "r2"
    assert main(["run", "--config", cfg, "--out", str(first)]) == 0
    assert main(["run", "--config", cfg, "--out", str(second)]) == 0
    for name in ("metrics.csv", "report.md", "manifest.json"):
        assert (first / name).read_bytes() == (second / name).read_bytes(), name


def test_manifest_records_the_numeric_environment(tmp_path, monkeypatch):
    import platform

    import numpy as np

    for var in ("OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    cfg = write_json(tmp_path / "exp.json", run_config_doc(strategies=["baseline"]))
    envs = []
    for out in (tmp_path / "r1", tmp_path / "r2"):
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        envs.append(json.loads((out / "manifest.json").read_text())["environment"])
    assert envs[0] == envs[1]
    env = envs[0]
    assert sorted(env) == ["blas", "blas_threads", "numpy", "python"]
    assert env["python"] == platform.python_version() and env["numpy"] == np.__version__
    assert env["blas_threads"] == {"OPENBLAS_NUM_THREADS": "1"}
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    assert env["blas"] == f"{blas['name']} {blas['version']}"


def test_run_seed_override_changes_results(tmp_path):
    cfg = write_json(tmp_path / "exp.json", run_config_doc())
    base, other = tmp_path / "r1", tmp_path / "r2"
    assert main(["run", "--config", cfg, "--out", str(base)]) == 0
    assert main(["run", "--config", cfg, "--out", str(other), "--seed", "99"]) == 0
    a = json.loads((base / "manifest.json").read_text())["seeds"]
    b = json.loads((other / "manifest.json").read_text())["seeds"]
    assert a["rcl"] != b["rcl"]


def test_run_repetition_override(tmp_path):
    cfg = write_json(tmp_path / "exp.json", run_config_doc(strategies=["baseline"]))
    out = tmp_path / "results"
    assert main(["run", "--config", cfg, "--out", str(out), "--repetitions", "2"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert len(manifest["seeds"]["baseline"]) == 2
    lines = (out / "metrics.csv").read_text().splitlines()
    assert len(lines) == 1 + 2 * 5
    assert main(["run", "--config", cfg, "--out", str(out), "--repetitions", "0"]) == 2


def test_run_with_classifier_variants(tmp_path):
    doc = run_config_doc(
        variants=[
            {"name": "mlp", "net": {"kind": "dense", "hidden": [8, 4]}},
            {"name": "cnn", "net": {"kind": "conv", "hidden": [8, 4], "conv": [[4, 5, 2], [8, 5, 2]]}},
        ]
    )
    cfg = write_json(tmp_path / "exp.json", doc)
    out = tmp_path / "results"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert sorted(manifest["seeds"]) == [
        "baseline/cnn", "baseline/mlp", "rcl/cnn", "rcl/mlp",
    ]
    report = (out / "report.md").read_text()
    assert "## Final-task comparison across classifiers" in report
    methods = {row.split(",")[0] for row in (out / "metrics.csv").read_text().splitlines()[1:]}
    assert methods == {"baseline/cnn", "baseline/mlp", "rcl/cnn", "rcl/mlp"}


# sha256 of the pinned runs' files, and the numeric environment that made them
PINNED_ENVIRONMENT = {"python": "3.11.7", "numpy": "2.4.6", "blas": "scipy-openblas 0.3.31.188.0"}
PINNED_DIGESTS = {
    "variants": {
        "metrics.csv": "87ac797322e76a563374d4c60e1e4f2cb16a4bd2e9b2eb4eb2569cc9e53b02a8",
        "report.md": "cff545f2f8a3e1615077203d1f936a2e3a20670b9c4bacca5ae4760a8f55f6b0",
    },
    "csv": {
        "metrics.csv": "2df9cd791c9d1f0d22d3480473a9b1a5f82875c5a81512b3d0f605ae27b6d15b",
        "report.md": "eec3a3ba5044c04d705ba119a09633c77e823ee10555fb1d90f5447c9fdc2c70",
    },
}


def pinned_run_doc(case: str, tmp_path) -> dict:
    if case == "variants":
        # finetune and ewc cannot follow a net that switches, so both variants
        # keep the base architecture; they are listed out of name order on purpose
        return run_config_doc(
            strategies=["rcl", "ewc", "finetune", "baseline"], repetitions=2, ensemble_size=1,
            train={"epochs": 2, "batch_size": 16, "learning_rate": 0.01},
            variants=[{"name": name, "net": {"kind": "dense", "hidden": [8, 4]}} for name in "ba"],
        )
    # a trial CSV at stride 5: the loader, the standardizer, ewc's Fisher and
    # rcl's generator all see overlapping windows
    csv_path = tmp_path / "trials.csv"
    stream = default_synthetic_config(seed=11, trial_length=450, trials_per_class=2)
    save_trials(csv_path, synthesize_stream(stream))
    return run_config_doc(
        data={"csv": str(csv_path)}, stride=5, strategies=["ewc", "rcl"], ensemble_size=1,
        train={"epochs": 2, "batch_size": 16, "learning_rate": 0.01},
    )


@pytest.mark.parametrize("case", sorted(PINNED_DIGESTS))
def test_a_small_variant_run_writes_pinned_bytes(tmp_path, case):
    env = {key: numeric_environment()[key] for key in PINNED_ENVIRONMENT}
    if env != PINNED_ENVIRONMENT:
        pytest.skip(f"digests pinned under {PINNED_ENVIRONMENT}, this is {env}")
    cfg = write_json(tmp_path / "exp.json", pinned_run_doc(case, tmp_path))
    out = tmp_path / "r"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    want = PINNED_DIGESTS[case]
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in want}
    assert digests == want


def test_run_strategy_failure_exits_1_with_failed_manifest(tmp_path, capsys):
    # an anchor far past its stability limit makes ewc diverge at task 2,
    # after training has begun, while baseline still completes
    doc = run_config_doc(strategies=["baseline", "ewc"], ewc_lambda=1e300)
    cfg = write_json(tmp_path / "exp.json", doc)
    out = tmp_path / "results"
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["run", "--config", cfg, "--out", str(out)]) == 1
    assert "FAILED ewc: non-finite loss at epoch" in capsys.readouterr().err
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "FAILED"
    assert "ewc" in manifest["failures"]
    methods = {row.split(",")[0] for row in (out / "metrics.csv").read_text().splitlines()[1:]}
    assert methods == {"baseline"}


def test_a_run_that_fails_every_method_leaves_only_its_own_files(tmp_path, capsys, monkeypatch):
    cfg = write_json(tmp_path / "exp.json", run_config_doc(train={"epochs": 1}))
    out = tmp_path / "results"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0

    def diverging(strategy, seq, settings, seed):
        raise TrainingError(f"{strategy} diverged")

    monkeypatch.setattr(continual, "run_strategy", diverging)
    assert main(["run", "--config", cfg, "--out", str(out)]) == 1
    assert "FAILED rcl: rcl diverged" in capsys.readouterr().err
    manifest = json.loads((out / "manifest.json").read_text())
    assert (manifest["status"], manifest["seeds"]) == ("FAILED", {})
    assert sorted(p.name for p in out.iterdir()) == sorted(manifest["outputs"] + ["manifest.json"])
    assert (out / "metrics.csv").read_text() == "method,task,repetition,class,precision,recall,f\n"
    report = (out / "report.md").read_text()
    assert "|" not in report
    assert report.endswith("## Failed methods\n\n- baseline: baseline diverged\n- rcl: rcl diverged\n")


@pytest.mark.parametrize("failing", cli.RESULT_FILES)
def test_a_write_error_after_training_exits_1_naming_the_path(tmp_path, capsys, monkeypatch, failing):
    real = cli.atomic_write

    def full_disk(path, text):
        if path.name == failing:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        real(path, text)

    monkeypatch.setattr(cli, "atomic_write", full_disk)
    doc = run_config_doc(strategies=["baseline"], train={"epochs": 1})
    cfg = write_json(tmp_path / "exp.json", doc)
    out = tmp_path / "results"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: cannot write {out / failing}: {os.strerror(errno.ENOSPC)}\n"
    written = cli.RESULT_FILES[: cli.RESULT_FILES.index(failing)]
    assert sorted(p.name for p in out.iterdir()) == sorted(written)


MLP_AND_CNN = [
    {"name": "a_mlp", "net": {"kind": "dense"}},
    {"name": "b_cnn", "net": {"kind": "conv"}},
]


@pytest.mark.parametrize("carried", ["finetune", "ewc"])
def test_a_carried_strategy_with_a_switching_variant_exits_2_before_training(
    tmp_path, capsys, carried
):
    cfg = write_json(
        tmp_path / "exp.json",
        run_config_doc(strategies=["rcl", carried], net={"kind": "dense"}, variants=MLP_AND_CNN),
    )
    needle = f"field 'variants[1].net': {carried} carries one model across tasks"
    assert main(["validate", "--config", cfg]) == 2
    out = capsys.readouterr().out
    assert f"violation: {needle}" in out
    assert "variants[0]" not in out  # the dense variant is the base net's architecture
    results = tmp_path / "r"
    assert main(["run", "--config", cfg, "--out", str(results)]) == 2
    assert needle in capsys.readouterr().err
    assert not results.exists()
    # with two classes there is one task, so no model is carried to a new net
    two = write_json(
        tmp_path / "two.json",
        run_config_doc(strategies=["rcl", carried], variants=MLP_AND_CNN, classes=[0, 1]),
    )
    assert main(["validate", "--config", two]) == 0


def ewc_variant_doc(variant_net: dict) -> dict:
    return run_config_doc(
        strategies=["ewc"], net={"kind": "dense"}, variants=[{"name": "mlp", "net": variant_net}],
        train={"epochs": 3, "batch_size": 16, "learning_rate": 0.01},
    )


def test_a_dense_variant_restating_conv_is_the_carried_net(tmp_path, capsys):
    # a dense net builds nothing from conv, so ewc's carried model follows the
    # variant and the run reads as if the key were absent
    metrics = []
    for name, variant_net in [
        ("restated", {"kind": "dense", "conv": [[4, 3, 1], [4, 3, 1]]}),
        ("absent", {"kind": "dense"}),
    ]:
        cfg = write_json(tmp_path / f"{name}.json", ewc_variant_doc(variant_net))
        assert main(["validate", "--config", cfg]) == 0
        assert main(["run", "--config", cfg, "--out", str(tmp_path / name)]) == 0
        metrics.append((tmp_path / name / "metrics.csv").read_bytes())
    assert "violation" not in capsys.readouterr().out
    assert metrics[0] == metrics[1]


def test_a_dense_variant_with_other_hidden_sizes_is_refused(tmp_path, capsys):
    cfg = write_json(tmp_path / "exp.json", ewc_variant_doc({"kind": "dense", "hidden": [32, 32]}))
    assert main(["validate", "--config", cfg]) == 2
    assert (
        "violation: field 'variants[0].net': ewc carries one model across tasks and cannot switch"
        " architectures; every task's net must match the first apart from the head"
    ) in capsys.readouterr().out


def test_a_strategy_failing_under_one_variant_still_writes_the_report(
    tmp_path, capsys, monkeypatch
):
    real = continual.run_strategy

    def diverging_cnn(strategy, seq, settings, seed):
        if strategy == "rcl" and settings.final_net.kind == "conv":
            raise TrainingError("loss diverged")
        return real(strategy, seq, settings, seed)

    monkeypatch.setattr(continual, "run_strategy", diverging_cnn)
    cfg = write_json(
        tmp_path / "exp.json", run_config_doc(variants=MLP_AND_CNN, train={"epochs": 1})
    )
    out = tmp_path / "r"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 1
    assert "FAILED rcl/b_cnn: loss diverged" in capsys.readouterr().err
    report = (out / "report.md").read_text()
    rcl_row = next(line for line in report.splitlines() if line.startswith("| RCL | "))
    assert rcl_row.endswith(" | failed | failed | failed |")
    methods = {row.split(",")[0] for row in (out / "metrics.csv").read_text().splitlines()[1:]}
    assert methods == {"baseline/a_mlp", "baseline/b_cnn", "rcl/a_mlp"}


def test_run_rejects_unknown_config_fields(tmp_path, capsys):
    cfg = write_json(tmp_path / "exp.json", run_config_doc(extra_field=1))
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "r")]) == 2
    assert "field 'extra_field': unknown key" in capsys.readouterr().err


@pytest.mark.parametrize(
    "train_doc",
    [
        {"epochs": 2.7},
        {"epochs": True},
        {"batch_size": 4.5},
        {"learning_rate": float("nan")},
        {"momentum": float("nan")},
    ],
)
def test_run_rejects_bad_train_values_before_training(tmp_path, capsys, train_doc):
    cfg = write_json(tmp_path / "exp.json", run_config_doc(train=train_doc))
    out = tmp_path / "r"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 2
    field = next(iter(train_doc))
    assert field in capsys.readouterr().err
    assert not out.exists()  # rejected while parsing, before any training


@pytest.mark.parametrize(
    "gen_doc", [{"k": 0}, {"k": True}, {"memory_budget": 1}, {"pseudo_per_class": 0}]
)
def test_run_rejects_bad_generator_values_before_training(tmp_path, capsys, gen_doc):
    cfg = write_json(tmp_path / "exp.json", run_config_doc(generator=gen_doc))
    out = tmp_path / "r"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 2
    assert f"field 'generator.{next(iter(gen_doc))}'" in capsys.readouterr().err
    assert not out.exists()  # rejected while parsing, before any training


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize(
    "override, field",
    [
        ({"window": "abc"}, "window"),
        ({"window": 2.7}, "window"),
        ({"stride": 2.5}, "stride"),
        ({"repetitions": True}, "repetitions"),
        ({"seed": 1.5}, "seed"),
        ({"ensemble_size": 2.9}, "ensemble_size"),
        ({"classes": "01"}, "classes"),
        ({"classes": [0, 1.0]}, "classes"),
        ({"train_trials": "x"}, "train_trials"),
        ({"train_trials": [True]}, "train_trials"),
        ({"ewc_lambda": "x"}, "ewc_lambda"),
        ({"ewc_lambda": float("nan")}, "ewc_lambda"),
        ({"ewc_lambda": float("inf")}, "ewc_lambda"),
        ({"net": "dense"}, "net"),
        ({"variants": [{"name": "a", "net": "dense"}]}, "variants[0].net"),
        ({"strategies": "rcl"}, "strategies"),
        ({"out_dir": 5}, "out_dir"),
        ({"variants": [{"name": 3, "net": {"kind": "dense"}}]}, "variants[0].name"),
        *[
            ({"variants": [{"name": name, "net": {"kind": "dense"}}]}, "variants[0].name")
            for name in ("", "a,b", "a/b", "a|b", "a\nb", "a\tb", "\x85")
        ],
        (synthetic_override(trial_length=300.7), "data.synthetic.trial_length"),
        (synthetic_override(channels="2"), "data.synthetic.channels"),
        (synthetic_override(trials_per_class=True), "data.synthetic.trials_per_class"),
        (synthetic_override(seed=1.5), "data.synthetic.seed"),
        *[
            ({"data": {"synthetic": signal_stream(**fields)}},
             f"data.synthetic.class_signals[0].{next(iter(fields))}")
            for fields in BAD_SIGNALS
        ],
        ({"data": {**small_data_doc(), "extra": 1}}, "data.extra"),
        (synthetic_override(extra=1), "data.synthetic.extra"),
        ({"variants": [{"name": "a", "net": {"kind": "dense"}, "extra": 1}]}, "variants[0].extra"),
        ({"train": {"epochs": 2, "shuffle_seed": 3}}, "train.shuffle_seed"),
        ({"classes": [0, 0, 1]}, "classes"),
        ({"data": {"csv": 5}}, "data.csv"),
        (synthetic_override(seed=-1), "data.synthetic.seed"),
        ({"strategies": ["baseline", "baseline"]}, "strategies"),
    ],
)
def test_wrongly_typed_config_values_exit_2_naming_the_field(
    tmp_path, capsys, command, override, field
):
    doc = run_config_doc(**{"strategies": ["baseline", "ewc"], **override})
    cfg = write_json(tmp_path / "exp.json", doc)
    out = tmp_path / "r"
    argv = [command, "--config", cfg] + (["--out", str(out)] if command == "run" else [])
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: field '{field}':")
    assert captured.out == ""
    assert not out.exists()  # rejected while parsing, before any training


def test_run_with_missing_csv_exits_2_naming_the_path(tmp_path, capsys):
    missing = tmp_path / "absent.csv"
    cfg = write_json(tmp_path / "exp.json", run_config_doc(data={"csv": str(missing)}))
    out = tmp_path / "r"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "data file not found" in err and str(missing) in err
    assert not out.exists()


def test_run_rejects_invalid_json(tmp_path, capsys):
    path = tmp_path / "exp.json"
    path.write_text("{not json", encoding="utf-8")
    assert main(["run", "--config", str(path)]) == 2
    assert "invalid JSON" in capsys.readouterr().err


def test_csv_data_source_round_trips(tmp_path):
    trials = synthesize_stream(
        default_synthetic_config(seed=11, trial_length=450, trials_per_class=2)
    )
    csv_path = tmp_path / "trials.csv"
    save_trials(csv_path, trials)
    doc = run_config_doc(data={"csv": str(csv_path)}, strategies=["baseline"])
    cfg = write_json(tmp_path / "exp.json", doc)
    out = tmp_path / "results"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["data"] == {"csv": str(csv_path)}


# -------------------------------------------------------------------- validate


def test_validate_ok_prints_counts(tmp_path, capsys):
    cfg = write_json(tmp_path / "exp.json", run_config_doc())
    assert main(["validate", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "config ok: 3 classes, window 50, stride 50" in out
    assert "class 0: 2 trials, 18 windows" in out


@pytest.mark.parametrize(
    "path", sorted((Path(__file__).parents[1] / "configs").glob("*.json")), ids=lambda p: p.name
)
def test_committed_configs_validate(tmp_path, capsys, path):
    assert main(["validate", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    assert "config ok: " in capsys.readouterr().out


@pytest.mark.parametrize(
    "override, n_trials",
    [
        ({}, 2),
        # two training trials a class: the training windows are a copy, not a view
        ({"train_trials": [1, 2], **synthetic_override(trials_per_class=3)}, 3),
    ],
    ids=["one-training-trial", "two-training-trials"],
)
def test_validate_counts_the_windows_run_cuts(tmp_path, capsys, override, n_trials):
    doc = run_config_doc(stride=7, **override)
    trials = synthesize_stream(SyntheticStreamConfig.from_dict(doc["data"]["synthetic"]))
    want = {
        c: sum(len(data.window_trial(t, 50, 7)) for t in trials if t.class_id == c)
        for c in (0, 1, 2)
    }
    assert main(["validate", "--config", write_json(tmp_path / "exp.json", doc)]) == 0
    out = capsys.readouterr().out
    for c, windows in want.items():
        assert f"class {c}: {n_trials} trials, {windows} windows" in out


def test_validate_flags_oversized_window(tmp_path, capsys):
    cfg = write_json(tmp_path / "exp.json", run_config_doc(window=451))
    assert main(["validate", "--config", cfg]) == 2
    assert "violation: trial 1 of class 0: length 450 < window 451" in capsys.readouterr().out


def test_validate_flags_missing_class_and_split_problems(tmp_path, capsys):
    cfg = write_json(tmp_path / "exp.json", run_config_doc(classes=[0, 7]))
    assert main(["validate", "--config", cfg]) == 2
    out = capsys.readouterr().out
    assert "violation: classes [7] not present in the data" in out

    cfg = write_json(tmp_path / "exp.json", run_config_doc(train_trials=[1, 2]))
    assert main(["validate", "--config", cfg]) == 2
    assert "violation: class 0: no test windows" in capsys.readouterr().out

    cfg = write_json(tmp_path / "exp.json", run_config_doc(train_trials=[9]))
    assert main(["validate", "--config", cfg]) == 2
    assert "violation: class 0: no training windows" in capsys.readouterr().out


def test_validate_reports_multiple_violations(tmp_path, capsys):
    cfg = write_json(
        tmp_path / "exp.json", run_config_doc(window=500, classes=[0, 7])
    )
    assert main(["validate", "--config", cfg]) == 2
    out = capsys.readouterr().out
    assert out.count("violation:") == 2


def test_validate_surfaces_data_format_errors(tmp_path, capsys):
    csv_path = tmp_path / "bad.csv"
    csv_path.write_text(
        "class_id,trial_id,step,ch1\n0,1,1,0.0\n0,1,0,0.0\n", encoding="utf-8"
    )
    cfg = write_json(tmp_path / "exp.json", run_config_doc(data={"csv": str(csv_path)}))
    assert main(["validate", "--config", cfg]) == 2
    out = capsys.readouterr().out
    assert "violation:" in out and "row 3" in out


@pytest.mark.parametrize(
    "data, needle",
    [
        (b"0,1,0,1.5,2\xe9\n", ": not UTF-8 text"),
        (b"-1,1,0,1.5,2.5\n", " row 2: class_id must be >= 0, got -1"),
        (b"0,1,0,1.5,2.5\n0,0,0,1.5,2.5\n", " row 3: trial_id must be >= 1, got 0"),
    ],
)
def test_bad_data_file_exits_2_naming_the_file(tmp_path, capsys, data, needle):
    csv_path = tmp_path / "data.csv"
    csv_path.write_bytes(b"class_id,trial_id,step,ch1,ch2\n" + data)
    cfg = write_json(tmp_path / "exp.json", run_config_doc(data={"csv": str(csv_path)}))
    assert main(["validate", "--config", cfg]) == 2
    assert f"violation: {csv_path}{needle}" in capsys.readouterr().out
    out = tmp_path / "r"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {csv_path}{needle}")
    assert not out.exists()


@pytest.mark.parametrize(
    "override, needle",
    [
        (
            {"net": {"kind": "dense", "hidden": [0, 4]}},
            "violation: field 'net.hidden': hidden must be 2 positive",
        ),
        ({"net": {"kind": "xyz"}}, "violation: field 'net.kind': kind must be 'dense' or 'conv'"),
        (
            {"variants": [{"name": "wide", "net": {"kind": "conv", "conv": [[4, 60, 1], [8, 5, 1]]}}]},
            "violation: field 'variants[0].net.conv': kernel 60 exceeds input length 50",
        ),
        (
            {"net": {"kind": "dense", "hidden": ["a", 4]}},
            "violation: field 'net.hidden': hidden must be an integer, got 'a'",
        ),
        (
            {"net": {"kind": "conv", "conv": "x"}},
            "violation: field 'net.conv': conv must be a list, got 'x'",
        ),
        ({"net": {"kind": "dense", "extra": 1}}, "violation: field 'net.extra': unknown key"),
        ({"net": {"kind": "dense", "seed": 3}}, "violation: field 'net.seed': unknown key"),
        (
            {"net": {"kind": "dense", "input_shape": [50, 2]}},
            "violation: field 'net.input_shape': unknown key",
        ),
        (
            {"net": {"kind": "dense", "n_classes": 3}},
            "violation: field 'net.n_classes': unknown key",
        ),
        ({"data": {"csv": ""}}, "violation: cannot read data file '': Is a directory"),
        pytest.param(
            {"data": {"csv": str(Path(__file__).parent)}},
            f"violation: cannot read data file {str(Path(__file__).parent)!r}: Is a directory",
            id="data-csv-is-the-tests-directory",
        ),
    ],
)
def test_validate_builds_the_nets_run_builds(tmp_path, capsys, override, needle):
    cfg = write_json(tmp_path / "exp.json", run_config_doc(**override))
    assert main(["validate", "--config", cfg]) == 2
    assert needle in capsys.readouterr().out
    out = tmp_path / "r"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 2
    assert needle.removeprefix("violation: ") in capsys.readouterr().err
    assert not out.exists()  # rejected before any training


def test_validate_needs_two_classes(tmp_path, capsys):
    cfg = write_json(tmp_path / "exp.json", run_config_doc(classes=[1]))
    assert main(["validate", "--config", cfg]) == 2
    assert "need at least 2 classes" in capsys.readouterr().out


def test_validate_and_run_accept_a_short_trial_of_an_unused_class(tmp_path, capsys):
    trials = synthesize_stream(
        default_synthetic_config(seed=11, trial_length=450, trials_per_class=2)
    )
    trials = [
        TimeSeriesTrial(2, 1, t.channels[:30]) if (t.class_id, t.trial_id) == (2, 1) else t
        for t in trials
    ]
    csv_path = tmp_path / "trials.csv"
    save_trials(csv_path, trials)
    doc = run_config_doc(
        data={"csv": str(csv_path)}, strategies=["baseline"], train={"epochs": 1}
    )
    cfg = write_json(tmp_path / "exp.json", {**doc, "classes": [0, 1]})
    assert main(["validate", "--config", cfg]) == 0
    assert "config ok: 2 classes, window 50, stride 50" in capsys.readouterr().out
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "r")]) == 0
    # with class 2 in use both refuse it, with the same message
    cfg = write_json(tmp_path / "all.json", doc)
    needle = "trial 1 of class 2: length 30 < window 50"
    assert main(["validate", "--config", cfg]) == 2
    assert f"violation: {needle}" in capsys.readouterr().out
    out = tmp_path / "r2"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {needle}\n"
    assert not out.exists()


def test_rcl_with_a_one_window_class_exits_2_before_training(tmp_path, capsys, monkeypatch):
    trials = synthesize_stream(
        default_synthetic_config(seed=11, trial_length=450, trials_per_class=2)
    )
    trials = [
        TimeSeriesTrial(2, 1, t.channels[:50]) if (t.class_id, t.trial_id) == (2, 1) else t
        for t in trials
    ]
    csv_path = tmp_path / "trials.csv"
    save_trials(csv_path, trials)
    cfg = write_json(tmp_path / "exp.json", run_config_doc(
        data={"csv": str(csv_path)}, strategies=["rcl"], train={"epochs": 1}
    ))

    def no_training(*args, **kwargs):
        raise AssertionError("trained despite a failed pre-flight")

    monkeypatch.setattr(continual, "fit_ensemble", no_training)
    needle = "class 2: rcl needs 2 training windows to fit a generator, got 1"
    assert main(["validate", "--config", cfg]) == 2
    assert capsys.readouterr().out == f"violation: {needle}\n"
    out = tmp_path / "r"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {needle}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "command, fault",
    [
        *[
            (command, fault)
            for command in ("synth", "validate", "run")
            for fault in ("config is a directory", "config is not UTF-8")
        ],
        ("run", "--out is a file"),
        ("run", "--out is a file and the data CSV is bad"),
        ("run", "--out lies under a file"),
        ("run", "out_dir lies under a file"),
        ("validate", "out_dir is a file"),
        ("validate", "out_dir lies under a file"),
        ("validate", "out_dir lies under a file and the data CSV is bad"),
        ("validate", "out_dir holds a directory named metrics.csv"),
        ("run", "--out holds a directory named metrics.csv"),
        ("synth", "--out lies under a file"),
        ("synth", "--out is a directory"),
        ("run", "--out is read-only"),
        ("run", "--out lies under a read-only directory"),
        ("validate", "out_dir is read-only"),
        ("validate", "out_dir lies under a read-only directory"),
        ("run", "--out lies under a directory os.access denies"),
        ("validate", "out_dir lies under a directory os.access denies"),
    ],
)
def test_unusable_paths_exit_2_naming_the_path(tmp_path, capsys, monkeypatch, command, fault):
    blocker = tmp_path / "blocker.txt"
    blocker.write_text("x", encoding="utf-8")
    locked = tmp_path / "locked"
    if "read-only" in fault:
        if os.geteuid() == 0:
            pytest.skip("root writes anywhere, so os.access allows a read-only directory")
        locked.mkdir(mode=0o555)
    elif "os.access denies" in fault:
        locked.mkdir()
        real_access = os.access
        monkeypatch.setattr(os, "access", lambda path, mode: Path(path) != locked and real_access(path, mode))
    out = {
        "--out is read-only": locked,
        "out_dir is read-only": locked,
        "--out lies under a read-only directory": locked / "r",
        "out_dir lies under a read-only directory": locked / "r",
        "--out lies under a directory os.access denies": locked / "r",
        "out_dir lies under a directory os.access denies": locked / "r",
        "--out is a file": blocker,
        "--out is a file and the data CSV is bad": blocker,
        "out_dir is a file": blocker,
        "--out lies under a file": blocker / "r",
        "out_dir lies under a file": blocker / "r",
        "out_dir lies under a file and the data CSV is bad": blocker / "r",
        "--out is a directory": tmp_path / "dir",
        "out_dir holds a directory named metrics.csv": tmp_path / "dir",
        "--out holds a directory named metrics.csv": tmp_path / "dir",
    }.get(fault, tmp_path / "r")
    doc = small_data_doc()["synthetic"] if command == "synth" else run_config_doc()
    if fault.endswith("the data CSV is bad"):  # run judges the path first; validate lists both
        (tmp_path / "data.csv").write_text("not a trial CSV\n", encoding="utf-8")
        doc["data"] = {"csv": str(tmp_path / "data.csv")}
    cfg = tmp_path / "exp.json"
    argv = [command, "--config", str(cfg)]
    if fault.startswith("out_dir"):
        doc["out_dir"] = str(out)
    elif command != "validate":
        argv += ["--out", str(out)]
    if fault == "config is a directory":
        cfg.mkdir()
    elif fault == "config is not UTF-8":
        cfg.write_bytes(json.dumps(doc).encode() + b" \xe9")
    else:
        write_json(cfg, doc)
    left = ["metrics.csv"] if fault.endswith("named metrics.csv") else []
    if fault == "--out is a directory":
        out.mkdir()
    for name in left:
        (out / name).mkdir(parents=True)
    assert main(argv) == 2
    named = cfg if fault.startswith("config") else out / left[0] if left else out
    captured = capsys.readouterr()
    # validate prints a config it could read, but cannot run, as violations on stdout
    printed = captured.out if command == "validate" and named != cfg else captured.err
    assert str(named) in printed
    if command == "validate" and fault.endswith("the data CSV is bad"):
        assert "header must be" in printed
    assert blocker.read_text(encoding="utf-8") == "x"
    assert not (tmp_path / "r").exists()
    assert not out.is_dir() or sorted(p.name for p in out.iterdir()) == left


# ------------------------------------------------------------------ config API


def test_config_round_trip():
    cfg = ExperimentConfig.from_dict(run_config_doc())
    again = ExperimentConfig.from_dict(cfg.to_dict())
    assert again.to_dict() == cfg.to_dict()


def test_config_requires_exactly_one_data_source():
    doc = run_config_doc()
    doc["data"] = {}
    with pytest.raises(ConfigurationError, match="'synthetic' or 'csv'"):
        ExperimentConfig.from_dict(doc)
    doc["data"] = {"csv": "x.csv", "synthetic": small_data_doc()["synthetic"]}
    with pytest.raises(ConfigurationError, match="exactly one"):
        ExperimentConfig.from_dict(doc)


def test_config_validation_messages_name_fields():
    for field, value, needle in [
        ("window", 0, "field 'window'"),
        ("repetitions", 0, "field 'repetitions'"),
        ("strategies", ["gan"], "unknown strategy"),
        ("ensemble_size", 0, "field 'ensemble_size'"),
        ("ewc_lambda", -1.0, "field 'ewc_lambda'"),
        ("ewc_lambda", float("nan"), "field 'ewc_lambda'"),
        ("ewc_lambda", float("inf"), "field 'ewc_lambda'"),
        ("train", {"epochs": "many"}, "field 'train.epochs'"),
    ]:
        with pytest.raises(ConfigurationError, match=needle):
            ExperimentConfig.from_dict(run_config_doc(**{field: value}))


# values small enough that no accepted draw asks for large data or long training
FUZZ_VALUES = [
    *range(-2, 5), 2.5, float("nan"), float("inf"), 1e300, True, None, "x", [], {}, [1, "a"],
]
# keys a draw may insert: every field of every config class, plus one no class has
CONFIG_CLASSES = (
    ExperimentConfig, DataSource, SyntheticStreamConfig, ClassSignal, NetSpec, TrainConfig,
    GeneratorConfig, Variant,
)
FUZZ_KEYS = sorted({f.name for cls in CONFIG_CLASSES for f in dataclasses.fields(cls)} | {"extra"})


def _containers(doc):
    """doc and every object or list nested in it."""
    yield doc
    for value in doc.values() if isinstance(doc, dict) else doc:
        if isinstance(value, (dict, list)):
            yield from _containers(value)


@st.composite
def fuzzed_config(draw):
    """run_config_doc with one or two keys replaced or inserted at any depth."""
    doc = json.loads(json.dumps(run_config_doc()))
    for _ in range(draw(st.integers(1, 2))):
        targets = [c for c in _containers(doc) if isinstance(c, dict) or c]
        target = targets[draw(st.integers(0, len(targets) - 1))]
        if isinstance(target, dict):  # replace one of its keys, or insert any key
            replace = target and draw(st.booleans())
            key = draw(st.sampled_from(sorted(target) if replace else FUZZ_KEYS))
        else:
            key = draw(st.integers(0, len(target) - 1))
        target[key] = copy.deepcopy(draw(st.sampled_from(FUZZ_VALUES)))
    return doc


class ReachedTraining(Exception):
    pass


@settings(
    max_examples=300, deadline=None, derandomize=True, database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(doc=fuzzed_config())
def test_fuzzed_configs_exit_0_or_2_and_run_agrees_with_validate(monkeypatch, doc):
    def reached_training(*args, **kwargs):
        raise ReachedTraining

    monkeypatch.setattr(cli, "compare_strategies", reached_training)
    with tempfile.TemporaryDirectory() as tmp:
        cfg = write_json(Path(tmp) / "exp.json", doc)
        out = Path(tmp) / "r"
        status = main(["validate", "--config", cfg])
        assert status in (0, 2)
        run = ["run", "--config", cfg, "--out", str(out)]
        if status == 2:
            assert main(run) == 2
            assert not out.exists()
        else:
            with pytest.raises(ReachedTraining):
                main(run)


SHORT_STREAM = synthesize_stream(default_synthetic_config(seed=11, trial_length=40, trials_per_class=3))


@st.composite
def small_runs(draw):
    """Uneven short trials of three classes, at most one of them shorter than
    the window, a config over them with a random window, stride,
    train_trials, classes and strategies, and the --out (by kind) and
    --repetitions that validate and run both take. One epoch of one small
    member keeps every run to milliseconds."""
    window = draw(st.integers(2, 8))
    stride = draw(st.none() | st.integers(1, 2 * window))
    short = draw(st.sampled_from(range(-2 * len(SHORT_STREAM), len(SHORT_STREAM))))  # < 0: none
    trials = [
        TimeSeriesTrial(t.class_id, t.trial_id, t.channels[: window - 1 if i == short else length])
        for i, t in enumerate(SHORT_STREAM)
        for length in [draw(st.integers(window, 4 * window))]
    ]
    doc = run_config_doc(
        window=window, stride=stride,
        train_trials=draw(st.lists(st.integers(1, 3), min_size=1, max_size=2, unique=True)),
        classes=draw(st.none() | st.lists(st.integers(0, 3), min_size=2, max_size=3, unique=True)),
        strategies=draw(st.lists(st.sampled_from(continual.STRATEGIES), min_size=1, max_size=4, unique=True)),
        ensemble_size=1, net={"kind": "dense", "hidden": [4, 4]}, train={"epochs": 1, "batch_size": 8},
    )
    out = draw(st.sampled_from(["fresh", "under_a_file", "holding_metrics_csv"]))
    return trials, doc, out, draw(st.sampled_from([None, -1, 0, 1, 2]))


@settings(
    max_examples=150, deadline=None, derandomize=True, database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(case=small_runs())
def test_a_run_that_validates_never_stops_on_a_config_or_data_error(monkeypatch, case):
    trials, doc, out_kind, repetitions = case
    raised = []
    real = continual.run_strategy

    def recording(*args):
        try:
            return real(*args)
        except Exception as exc:
            raised.append(exc)
            raise

    monkeypatch.setattr(continual, "run_strategy", recording)
    with tempfile.TemporaryDirectory() as tmp:
        save_trials(Path(tmp) / "trials.csv", trials)
        cfg = write_json(Path(tmp) / "exp.json", {**doc, "data": {"csv": str(Path(tmp) / "trials.csv")}})
        (Path(tmp) / "blocker").write_text("x", encoding="utf-8")
        out = Path(tmp) / ("blocker/r" if out_kind == "under_a_file" else "r")
        if out_kind == "holding_metrics_csv":
            (out / "metrics.csv").mkdir(parents=True)
        flags = ["--out", str(out)] + ([] if repetitions is None else ["--repetitions", str(repetitions)])
        status = main(["validate", "--config", cfg, *flags])
        assert status in (0, 2)
        ran = main(["run", "--config", cfg, *flags])
    if status == 2:
        assert ran == 2 and not raised
    else:
        assert ran == (1 if raised else 0)
        assert all(isinstance(exc, TrainingError) for exc in raised), raised


def test_config_rejects_duplicate_variant_names():
    doc = run_config_doc(
        variants=[
            {"name": "a", "net": {"kind": "dense"}},
            {"name": "a", "net": {"kind": "dense"}},
        ]
    )
    with pytest.raises(ConfigurationError, match="duplicate variant names"):
        ExperimentConfig.from_dict(doc)


def test_readme_field_table_lists_exactly_the_config_keys():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Config schema", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"^\| `(\w+)` \|", section, flags=re.MULTILINE)
    assert sorted(listed) == sorted(f.name for f in dataclasses.fields(ExperimentConfig))
