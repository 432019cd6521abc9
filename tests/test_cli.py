import copy
import dataclasses
import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pseudoreplay import (
    ClassSignal,
    GeneratorConfig,
    NetSpec,
    SyntheticStreamConfig,
    TrainConfig,
    cli,
    default_synthetic_config,
    load_trials,
    save_trials,
    synthesize_stream,
)
from pseudoreplay.cli import DataSource, ExperimentConfig, Variant, main
from pseudoreplay.errors import ConfigurationError

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


def test_run_strategy_failure_exits_1_with_failed_manifest(tmp_path, capsys):
    # window == trial length leaves one window per class, too few to fit a
    # generator, so rcl fails while baseline still completes
    cfg = write_json(tmp_path / "exp.json", run_config_doc(window=450))
    out = tmp_path / "results"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 1
    assert "FAILED rcl:" in capsys.readouterr().err
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "FAILED"
    assert "rcl" in manifest["failures"]
    methods = {row.split(",")[0] for row in (out / "metrics.csv").read_text().splitlines()[1:]}
    assert methods == {"baseline"}


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


def test_validate_flags_oversized_window(tmp_path, capsys):
    cfg = write_json(tmp_path / "exp.json", run_config_doc(window=451))
    assert main(["validate", "--config", cfg]) == 2
    assert "violation: window 451 exceeds shortest trial length 450" in capsys.readouterr().out


def test_validate_flags_missing_class_and_split_problems(tmp_path, capsys):
    cfg = write_json(tmp_path / "exp.json", run_config_doc(classes=[0, 7]))
    assert main(["validate", "--config", cfg]) == 2
    out = capsys.readouterr().out
    assert "violation: class 7 not present in the data" in out

    cfg = write_json(tmp_path / "exp.json", run_config_doc(train_trials=[1, 2]))
    assert main(["validate", "--config", cfg]) == 2
    assert "no evaluation trials left" in capsys.readouterr().out

    cfg = write_json(tmp_path / "exp.json", run_config_doc(train_trials=[9]))
    assert main(["validate", "--config", cfg]) == 2
    assert "no training trials" in capsys.readouterr().out


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
