import dataclasses

import numpy as np
import pytest

from pseudoreplay import NetSpec, RunSettings, TrainConfig, compare_strategies
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
SETTINGS = RunSettings(
    net=NET, train=TrainConfig(epochs=15, batch_size=16, learning_rate=0.01), n_members=2
)


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
        summaries={m: variant_comparison.summaries[m] for m in kept},
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
        comparison, summaries={}, runs={}, failures={"rcl": "boom", "baseline": "diverged"}
    )
    report = render_report(failed)
    assert "|" not in report
    assert report.endswith("\n## Failed methods\n\n- rcl: boom\n- baseline: diverged\n")
    assert metrics_csv(failed) == METRICS_HEADER + "\n"


def test_manifest_json_stable_and_failures(comparison):
    ok = build_manifest({"seed": 1}, comparison, "a" * 64)
    assert ok["status"] == "ok"
    assert manifest_json(ok) == manifest_json(ok)
    failed = dataclasses.replace(comparison, summaries={}, runs={}, failures={"rcl": "boom"})
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
