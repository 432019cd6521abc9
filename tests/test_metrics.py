import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pseudoreplay.metrics import (
    ConfusionMatrix,
    MetricWarning,
    aggregate,
    confusion,
    format_cell,
    metrics,
)
from _oracles import counting_confusion, metric_oracle, two_pass_moments


def warned_classes(caught) -> tuple[int, ...]:
    """The class ids that the MetricWarnings among `caught` name."""
    return tuple(
        int(c)
        for w in caught if issubclass(w.category, MetricWarning)
        for c in re.search(r"classes \[([^\]]*)\]", str(w.message)).group(1).split(", ")
    )


def test_perfect_predictions_give_a_diagonal_matrix():
    y = [0, 1, 2, 1, 0, 2, 2]
    cm = confusion(y, y, n_classes=3)
    np.testing.assert_array_equal(cm.counts, np.diag([2, 2, 3]))


def test_constant_predictor_fills_one_column():
    cm = confusion([0, 1, 2, 2], [0, 0, 0, 0], n_classes=3)
    assert np.all(cm.counts[:, 1:] == 0)
    np.testing.assert_array_equal(cm.counts[:, 0], [1, 1, 2])


def test_confusion_matches_a_counting_oracle():
    rng = np.random.default_rng(17)
    y_true = rng.integers(0, 4, size=1000)
    y_pred = rng.integers(0, 4, size=1000)
    cm = confusion(y_true, y_pred, n_classes=4)
    np.testing.assert_array_equal(cm.counts, counting_confusion(y_true, y_pred, 4))


def test_confusion_input_validation():
    with pytest.raises(ValueError):
        confusion([0, 1], [0], n_classes=2)
    with pytest.raises(ValueError):
        confusion([0, 2], [0, 1], n_classes=2)
    with pytest.raises(ValueError):
        confusion([0, -1], [0, 1], n_classes=2)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=60))
def test_self_agreement_scores_all_ones(labels):
    import warnings

    n = max(labels) + 1
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", MetricWarning)  # classes absent from labels
        report = metrics(confusion(labels, labels, n_classes=n))
    present = sorted(set(labels))
    for c in present:
        assert report.precision[c] == 1.0
        assert report.recall[c] == 1.0
        assert report.f_score[c] == 1.0


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 2), st.integers(0, 2)), min_size=1, max_size=80
    ),
    st.randoms(use_true_random=False),
)
def test_confusion_is_permutation_invariant(pairs, rnd):
    y_true = [t for t, _ in pairs]
    y_pred = [p for _, p in pairs]
    cm = confusion(y_true, y_pred, n_classes=3)
    rnd.shuffle(pairs)
    cm2 = confusion([t for t, _ in pairs], [p for _, p in pairs], n_classes=3)
    np.testing.assert_array_equal(cm.counts, cm2.counts)


def test_diagonal_matrix_scores_all_ones():
    report = metrics(ConfusionMatrix(counts=np.diag([5, 3, 9])))
    assert report.macro_precision == report.macro_recall == report.macro_f == 1.0
    assert np.all(report.precision == 1.0)


def test_hand_worked_two_class_example():
    report = metrics(ConfusionMatrix(counts=np.array([[1, 1], [0, 2]])))
    assert report.precision[0] == 1.0
    assert report.recall[0] == 0.5
    assert report.precision[1] == pytest.approx(2.0 / 3.0)
    assert report.recall[1] == 1.0
    assert report.macro_precision == pytest.approx(5.0 / 6.0)
    assert report.macro_recall == pytest.approx(0.75)
    # per-class F: 2/3 and 4/5
    assert report.macro_f == pytest.approx((2.0 / 3.0 + 4.0 / 5.0) / 2.0)


def test_absent_class_scores_zero_with_a_warning():
    cm = ConfusionMatrix(counts=np.array([[2, 0, 0], [0, 3, 0], [0, 0, 0]]))
    with pytest.warns(MetricWarning) as caught:
        report = metrics(cm)
    assert report.precision[2] == report.recall[2] == report.f_score[2] == 0.0
    assert warned_classes(caught) == (2,)


def test_empty_confusion_matrix_rejected():
    with pytest.raises(ValueError):
        metrics(ConfusionMatrix(counts=np.zeros((2, 2), dtype=np.int64)))


def test_symmetric_errors_make_macro_recall_equal_accuracy():
    # balanced classes, symmetric off-diagonal mass
    counts = np.array([[8, 1, 1], [1, 8, 1], [1, 1, 8]])
    cm = ConfusionMatrix(counts=counts)
    assert metrics(cm).macro_recall == pytest.approx(np.trace(counts) / counts.sum())


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(0, 20), min_size=3, max_size=3), min_size=3, max_size=3
    )
)
def test_all_metric_values_lie_in_unit_interval(rows):
    counts = np.array(rows)
    if counts.sum() == 0:
        return
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", MetricWarning)
        report = metrics(ConfusionMatrix(counts=counts))
    for vec in (report.precision, report.recall, report.f_score):
        assert np.all(vec >= 0.0) and np.all(vec <= 1.0)
    for v in (report.macro_precision, report.macro_recall, report.macro_f):
        assert 0.0 <= v <= 1.0


def test_oracle_agreement_on_1000_random_matrices():
    rng = np.random.default_rng(23)
    for _ in range(1000):
        n = int(rng.integers(2, 6))
        counts = rng.integers(0, 30, size=(n, n))
        if counts.sum() == 0:
            counts[0, 0] = 1
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", MetricWarning)
            report = metrics(ConfusionMatrix(counts=counts))
        want = metric_oracle(counts)
        # every per-class value is one IEEE operation chain, so it matches to
        # the bit; the macro values may not, as np.mean and sum associate differently
        got = {"precision": report.precision, "recall": report.recall, "f": report.f_score}
        for name, vector in got.items():
            assert vector.tobytes() == np.array(want[name]).tobytes(), (name, counts)
        assert warned_classes(caught) == want["zero_division"]
        assert abs(report.macro_f - want["macro_f"]) <= 1e-12


# ------------------------------------------------------------- aggregation


def _report_from(cm_counts):
    return metrics(ConfusionMatrix(counts=np.array(cm_counts)))


def test_single_report_has_zero_std():
    report = _report_from([[3, 1], [1, 3]])
    mean, std = aggregate([report])
    assert std.macro_f == 0.0
    assert np.all(std.precision == 0.0)
    assert mean.macro_f == report.macro_f


def test_two_point_aggregate():
    # macro F values 0.7 and 0.9 -> mean 0.8, population std 0.1
    a = _report_from([[7, 3], [3, 7]])  # macro F 0.7
    b = _report_from([[9, 1], [1, 9]])  # macro F 0.9
    assert a.macro_f == pytest.approx(0.7)
    assert b.macro_f == pytest.approx(0.9)
    mean, std = aggregate([a, b])
    assert mean.macro_f == pytest.approx(0.8)
    assert std.macro_f == pytest.approx(0.1)


def test_aggregate_matches_two_pass_moment_oracle():
    rng = np.random.default_rng(31)
    reports = []
    for _ in range(5):
        counts = rng.integers(1, 20, size=(3, 3))
        reports.append(_report_from(counts))
    mean, std = aggregate(reports)
    want_mean, want_std = two_pass_moments([r.macro_f for r in reports])
    assert abs(mean.macro_f - want_mean) <= 1e-12
    assert abs(std.macro_f - want_std) <= 1e-12
    for c in range(3):
        want_mean_c, want_std_c = two_pass_moments([r.recall[c] for r in reports])
        assert abs(mean.recall[c] - want_mean_c) <= 1e-12
        assert abs(std.recall[c] - want_std_c) <= 1e-12


def test_aggregate_rejects_mixed_sizes():
    with pytest.raises(ValueError):
        aggregate([_report_from([[1, 0], [0, 1]]), _report_from(np.eye(3, dtype=int) * 2)])


def test_cell_formatting():
    assert format_cell(0.8, 0.1) == "0.800 (0.100)"
    assert format_cell(1.0, 0.0) == "1.000 (0.000)"
