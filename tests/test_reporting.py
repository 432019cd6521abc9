import dataclasses
from dataclasses import replace

import numpy as np
import pytest

from pseudoreplay import NetSpec, RunSettings, TrainConfig, compare_strategies, continual
from pseudoreplay.errors import TrainingError
from pseudoreplay.reporting import (
    METRICS_HEADER,
    atomic_write,
    build_manifest,
    comparison_table,
    manifest_json,
    metrics_csv,
    render_report,
    spread_section,
    storage_section,
    variant_table,
)


NET = NetSpec(kind="dense", input_shape=(50, 2), n_classes=2, hidden=(16, 8))
NARROW = NetSpec(kind="dense", input_shape=(50, 2), n_classes=2, hidden=(8, 4))
SETTINGS = RunSettings(
    net=NET, train=TrainConfig(epochs=15, batch_size=16, learning_rate=0.01), n_members=2
)
# one epoch leaves the repetitions apart, so a figure drawn from one run shows
FROZEN_SETTINGS = replace(SETTINGS, train=replace(SETTINGS.train, epochs=1))


@pytest.fixture(scope="module")
def comparison(small_seq):
    return compare_strategies(
        small_seq, SETTINGS, strategies=("baseline", "rcl"), repetitions=2, master_seed=3
    )


@pytest.fixture(scope="module")
def variant_comparison(small_seq):
    return compare_strategies(
        small_seq, SETTINGS, ("baseline", "rcl"), 1, 3, variants={"mlp": NET, "cnn": NET}
    )


def test_metrics_csv_layout(comparison):
    text = metrics_csv(comparison)
    lines = text.splitlines()
    assert lines[0] == METRICS_HEADER
    # 2 strategies x 2 reps x (2 + 3 classes over the two tasks)
    assert len(lines) == 1 + 2 * 2 * 5
    first = lines[1].split(",")
    assert first[0] == "baseline" and first[1] == "1" and first[2] == "0"
    assert text.endswith("\n")
    for row in lines[1:]:
        parts = row.split(",")
        assert len(parts) == 7
        for v in parts[4:]:
            assert 0.0 <= float(v) <= 1.0


def test_metrics_csv_is_deterministic_text(comparison):
    assert metrics_csv(comparison) == metrics_csv(comparison)


def test_variant_labels_in_csv_and_seeds(variant_comparison):
    text = metrics_csv(variant_comparison)
    assert text.splitlines()[1].startswith("baseline/cnn,")
    manifest = build_manifest({}, variant_comparison, "d" * 64)
    assert sorted(manifest["seeds"]) == ["baseline/cnn", "baseline/mlp", "rcl/cnn", "rcl/mlp"]
    assert all(len(v) == 1 for v in manifest["seeds"].values())


def test_comparison_table_shape(comparison):
    table = comparison_table(comparison, "")
    lines = table.splitlines()
    assert len(lines) == 2 + 2  # header, rule, one row per strategy
    assert lines[0].startswith("| Method | Task 1 Precision |")
    assert lines[2].startswith("| Baseline |")
    assert lines[3].startswith("| RCL |")
    # cells carry the fixed mean (std) format
    assert " (0." in lines[2] or " (1." in lines[2] or " (0.000)" in lines[2]


def test_report_sections(comparison):
    text = render_report(comparison)
    assert text.startswith("# Continual learning benchmark")
    assert "## Strategy comparison" in text
    assert "## Storage" in text
    assert "## Ensemble member spread" in text
    assert "Final-task comparison" not in text  # single classifier
    storage = storage_section(comparison, "")
    assert "| Baseline |" in storage and "Raw windows retained" in storage
    spread = spread_section(comparison, "")
    assert "member F std" in spread


def test_multi_variant_report_adds_final_task_table(variant_comparison):
    text = render_report(variant_comparison)
    assert "## Strategy comparison - classifier: cnn" in text
    assert "## Strategy comparison - classifier: mlp" in text
    assert "## Final-task comparison across classifiers" in text
    table = variant_table(variant_comparison)
    assert table.splitlines()[0] == (
        "| Method | cnn Precision | cnn Recall | cnn F-score"
        " | mlp Precision | mlp Recall | mlp F-score |"
    )


def test_variant_table_marks_a_strategy_that_failed_under_one_variant(variant_comparison):
    kept = [m for m in variant_comparison.runs if m != "rcl/mlp"]
    comp = dataclasses.replace(
        variant_comparison,
        runs={m: variant_comparison.runs[m] for m in kept},
        failures={"rcl/mlp": "training diverged"},
    )
    lines = variant_table(comp).splitlines()
    assert [line.split(" |")[0] for line in lines[2:]] == ["| Baseline", "| RCL"]
    assert "failed" not in lines[2]
    assert lines[3].endswith(" | failed | failed | failed |")
    assert lines[3].count("failed") == 3
    report = render_report(comp)
    assert "## Final-task comparison across classifiers" in report
    assert report.endswith("\n## Failed methods\n\n- rcl/mlp: training diverged\n")


def test_a_report_with_no_completed_method_names_each_failure_and_draws_no_table(comparison):
    failed = dataclasses.replace(
        comparison, runs={}, failures={"rcl": "boom", "baseline": "diverged"}
    )
    report = render_report(failed)
    assert "|" not in report
    assert report.endswith("\n## Failed methods\n\n- rcl: boom\n- baseline: diverged\n")
    assert metrics_csv(failed) == METRICS_HEADER + "\n"


def test_manifest_json_stable_and_failures(comparison):
    ok = build_manifest({"seed": 1}, comparison, "a" * 64)
    assert ok["status"] == "ok"
    assert manifest_json(ok) == manifest_json(ok)
    failed = dataclasses.replace(comparison, runs={}, failures={"rcl": "boom"})
    bad = build_manifest({"seed": 1}, failed, "a" * 64)
    assert bad["status"] == "FAILED"
    assert bad["failures"] == {"rcl": "boom"}


def test_atomic_write_replaces_and_leaves_no_droppings(tmp_path):
    target = tmp_path / "out.txt"
    atomic_write(target, "first\n")
    atomic_write(target, "second\n")
    assert target.read_text() == "second\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def test_csv_floats_round_trip_exactly(comparison):
    text = metrics_csv(comparison)
    run = comparison.runs["baseline"][0]
    want = run.tasks[0].report.precision[0]
    got = float(text.splitlines()[1].split(",")[4])
    assert got == want


# report.md and metrics.csv of FROZEN_SETTINGS on small_seq: 2 repetitions,
# variants "narrow" and "wide", rcl failed under "wide". Every figure is a
# ratio of confusion counts or a mean or std of such ratios, so a BLAS moves
# none of them unless it flips a prediction.
FROZEN_REPORT = """\
# Continual learning benchmark

Classes (task order): 0, 1, 2. Repetitions per strategy: 2. Cells are macro averages over classes as 'mean (std)' across repetitions.

## Strategy comparison - classifier: narrow

| Method | Task 1 Precision | Task 1 Recall | Task 1 F-score | Task 2 Precision | Task 2 Recall | Task 2 F-score |
|---|---|---|---|---|---|---|
| Baseline (narrow) | 0.975 (0.025) | 0.972 (0.028) | 0.972 (0.028) | 0.634 (0.137) | 0.574 (0.093) | 0.539 (0.103) |
| RCL (narrow) | 0.673 (0.173) | 0.639 (0.139) | 0.626 (0.140) | 0.807 (0.007) | 0.741 (0.000) | 0.704 (0.024) |

## Strategy comparison - classifier: wide

| Method | Task 1 Precision | Task 1 Recall | Task 1 F-score | Task 2 Precision | Task 2 Recall | Task 2 F-score |
|---|---|---|---|---|---|---|
| Baseline (wide) | 0.975 (0.025) | 0.972 (0.028) | 0.972 (0.028) | 0.829 (0.015) | 0.722 (0.019) | 0.655 (0.024) |

## Final-task comparison across classifiers

| Method | narrow Precision | narrow Recall | narrow F-score | wide Precision | wide Recall | wide F-score |
|---|---|---|---|---|---|---|
| Baseline | 0.634 (0.137) | 0.574 (0.093) | 0.539 (0.103) | 0.829 (0.015) | 0.722 (0.019) | 0.655 (0.024) |
| RCL | 0.807 (0.007) | 0.741 (0.000) | 0.704 (0.024) | failed | failed | failed |

## Storage

| Method | Raw windows retained | Pseudo samples per task |
|---|---|---|
| Baseline | 27 | task 1: none; task 2: none |
| RCL | 27 | task 1: class 0: 9; task 2: class 0: 9, class 1: 9 |

## Ensemble member spread

| Method | Task 1 member F std | Task 2 member F std |
|---|---|---|
| Baseline | 0.014 | 0.022 |
| RCL | 0.021 | 0.128 |

## Failed methods

- rcl/wide: loss diverged
"""
FROZEN_CSV = """\
method,task,repetition,class,precision,recall,f
baseline/narrow,1,0,0,1,1,1
baseline/narrow,1,0,1,1,1,1
baseline/narrow,2,0,0,0.66666666666666663,0.22222222222222221,0.33333333333333331
baseline/narrow,2,0,1,0.22222222222222221,0.22222222222222221,0.22222222222222221
baseline/narrow,2,0,2,0.59999999999999998,1,0.74999999999999989
baseline/narrow,1,1,0,0.90000000000000002,1,0.94736842105263164
baseline/narrow,1,1,1,1,0.88888888888888884,0.94117647058823528
baseline/narrow,2,1,0,0.5625,1,0.71999999999999997
baseline/narrow,2,1,1,1,0.33333333333333331,0.5
baseline/narrow,2,1,2,0.75,0.66666666666666663,0.70588235294117652
rcl/narrow,1,0,0,0.5,0.33333333333333331,0.40000000000000002
rcl/narrow,1,0,1,0.5,0.66666666666666663,0.57142857142857151
rcl/narrow,2,0,0,0.75,1,0.8571428571428571
rcl/narrow,2,0,1,1,0.22222222222222221,0.36363636363636359
rcl/narrow,2,0,2,0.69230769230769229,1,0.81818181818181812
rcl/narrow,1,1,0,0.69230769230769229,1,0.81818181818181812
rcl/narrow,1,1,1,1,0.55555555555555558,0.7142857142857143
rcl/narrow,2,1,0,0.81818181818181823,1,0.90000000000000002
rcl/narrow,2,1,1,0.58333333333333337,0.77777777777777779,0.66666666666666663
rcl/narrow,2,1,2,1,0.44444444444444442,0.61538461538461531
baseline/wide,1,0,0,1,1,1
baseline/wide,1,0,1,1,1,1
baseline/wide,2,0,0,0.75,1,0.8571428571428571
baseline/wide,2,0,1,1,0.22222222222222221,0.36363636363636359
baseline/wide,2,0,2,0.69230769230769229,1,0.81818181818181812
baseline/wide,1,1,0,0.90000000000000002,1,0.94736842105263164
baseline/wide,1,1,1,1,0.88888888888888884,0.94117647058823528
baseline/wide,2,1,0,0.52941176470588236,1,0.6923076923076924
baseline/wide,2,1,1,1,0.1111111111111111,0.19999999999999998
baseline/wide,2,1,2,1,1,1
"""


@pytest.mark.filterwarnings("ignore::pseudoreplay.metrics.MetricWarning")
def test_a_real_comparison_renders_frozen_report_and_metrics(small_seq, monkeypatch):
    real = continual.run_strategy

    def failing_wide_rcl(strategy, seq, run_settings, seed):
        if strategy == "rcl" and run_settings.final_net == NET:
            raise TrainingError("loss diverged")
        return real(strategy, seq, run_settings, seed)

    monkeypatch.setattr(continual, "run_strategy", failing_wide_rcl)
    comp = compare_strategies(
        small_seq, FROZEN_SETTINGS, ("baseline", "rcl"), 2, 3, {"wide": NET, "narrow": NARROW}
    )
    # the repetitions differ in a table cell and in a member spread, so a
    # figure drawn from one run, or the wrong reduction over runs, shows
    first, second = (run.tasks[0] for run in comp.runs["baseline/narrow"])
    assert first.report.macro_f != second.report.macro_f
    assert first.member_f_std != second.member_f_std
    assert render_report(comp) == FROZEN_REPORT
    assert metrics_csv(comp) == FROZEN_CSV
