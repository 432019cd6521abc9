import copy
import math
import pickle
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pseudoreplay import (
    Ensemble,
    EWCPenalty,
    NetModel,
    NetSpec,
    TrainConfig,
    Windows,
    extend_output,
    fisher_diagonal,
    fit_ensemble,
    forward,
    init_model,
    loss_and_gradient,
    predict,
    train,
)
from pseudoreplay.classifier import (
    conv_output_length,
    pack_parameters,
    pad_parameters,
    unpack_parameters,
)
from pseudoreplay import classifier
from pseudoreplay.errors import ConfigurationError, TrainingError
from pseudoreplay.seeding import derive_seed

from _oracles import (
    fd_gradient,
    fisher_per_row,
    forward_reference,
    loss_and_gradient_reference,
    relative_error,
    sgd_reference,
)
from conftest import standardized_mix


def dense_spec(**kwargs) -> NetSpec:
    base = dict(kind="dense", input_shape=(4, 1), n_classes=3, hidden=(5, 4))
    base.update(kwargs)
    return NetSpec(**base)


def conv_spec(**kwargs) -> NetSpec:
    base = dict(
        kind="conv",
        input_shape=(12, 2),
        n_classes=3,
        hidden=(6, 4),
        conv=((3, 3, 2), (4, 2, 1)),
    )
    base.update(kwargs)
    return NetSpec(**base)


def batch_of(spec: NetSpec, n: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n,) + spec.input_shape)


def windows_of(x, labels) -> Windows:
    """Windows from a [N, W, C] array and N labels, sourced from trial 1."""
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    return Windows(x=x, y=labels, source=np.column_stack([np.ones(n), np.arange(n)]))


def bench_spec(**kwargs) -> NetSpec:
    """The dense net of the benchmark workloads: 50 x 2 windows, hidden (64, 32)."""
    base = dict(kind="dense", input_shape=(50, 2), n_classes=3, hidden=(64, 32))
    base.update(kwargs)
    return NetSpec(**base)


def cluster_samples(n_per_class: int = 20, seed: int = 0) -> Windows:
    """Two linearly separable 2-D clusters as (2, 1) windows."""
    rng = np.random.default_rng(seed)
    pts = [
        rng.normal(loc=center, scale=0.4, size=(n_per_class, 2))
        for center in ((-2.0, -2.0), (2.0, 2.0))
    ]
    return windows_of(np.concatenate(pts).reshape(-1, 2, 1), np.repeat([0, 1], n_per_class))


# ------------------------------------------------------------ spec and layout


def test_dense_parameter_count_at_benchmark_shape():
    spec = NetSpec(kind="dense", input_shape=(50, 2), n_classes=3, hidden=(64, 32))
    flat = 50 * 2
    expected = (flat * 64 + 64) + (64 * 32 + 32) + (32 * 3 + 3)
    assert expected == 8643
    assert spec.param_count == expected


def test_conv_parameter_count_at_benchmark_shape():
    spec = NetSpec(kind="conv", input_shape=(50, 2), n_classes=3, hidden=(64, 32))
    # (8 ch, kernel 5, stride 1) then (16 ch, kernel 5, stride 1): 50 -> 46 -> 42
    expected = (
        (5 * 2 * 8 + 8)
        + (5 * 8 * 16 + 16)
        + (42 * 16 * 64 + 64)
        + (64 * 32 + 32)
        + (32 * 3 + 3)
    )
    assert spec.param_count == expected


def test_widest_forward_array_per_window():
    # the benchmark's dense net: the 100-element input beats every layer output
    assert NetSpec(kind="dense", input_shape=(50, 2), n_classes=3, hidden=(64, 32)).widest == 100
    # a hidden layer wider than the input
    assert NetSpec(kind="dense", input_shape=(50, 2), n_classes=3, hidden=(256, 32)).widest == 256
    # the default conv net: layer 2's patches, 42 positions of kernel 5 x 8 channels
    conv = NetSpec(kind="conv", input_shape=(50, 2), n_classes=3, hidden=(64, 32))
    assert conv.widest == 42 * 5 * 8 == 1680
    # a conv layer's output: 48 positions x 64 channels, ahead of layer 2's
    # 24 x 64 patches at stride 2
    wide = NetSpec(kind="conv", input_shape=(50, 2), n_classes=3, conv=((64, 3, 1), (8, 1, 2)))
    assert wide.widest == 48 * 64 == 3072


def test_conv_output_length_formula():
    assert conv_output_length(50, 5, 1) == 46
    assert conv_output_length(12, 3, 2) == 5
    with pytest.raises(ConfigurationError):
        conv_output_length(4, 5, 1)


def test_spec_validation():
    with pytest.raises(ConfigurationError):
        dense_spec(kind="rnn")
    with pytest.raises(ConfigurationError):
        dense_spec(n_classes=1)
    with pytest.raises(ConfigurationError):
        dense_spec(hidden=(5,))
    with pytest.raises(ConfigurationError):
        conv_spec(input_shape=(3, 2))  # first kernel no longer fits


@settings(max_examples=30, deadline=None)
@given(
    w=st.integers(2, 20),
    c=st.integers(1, 3),
    h1=st.integers(1, 10),
    h2=st.integers(1, 10),
    n=st.integers(2, 5),
)
def test_pack_unpack_round_trip(w, c, h1, h2, n):
    spec = NetSpec(kind="dense", input_shape=(w, c), n_classes=n, hidden=(h1, h2))
    theta = np.random.default_rng(0).normal(size=spec.param_count)
    repacked = pack_parameters(unpack_parameters(spec, theta))
    np.testing.assert_array_equal(repacked, theta)


def test_unpack_rejects_wrong_length():
    with pytest.raises(ConfigurationError):
        unpack_parameters(dense_spec(), np.zeros(3))


# -------------------------------------------------------------- initialization


def test_init_is_deterministic_given_seed():
    spec = dense_spec()
    a = init_model(spec, 5)
    b = init_model(spec, 5)
    np.testing.assert_array_equal(a.parameters, b.parameters)
    c = init_model(spec, 6)
    assert not np.array_equal(a.parameters, c.parameters)


def test_init_biases_zero_and_weights_bounded():
    for spec in (dense_spec(), conv_spec()):
        model = init_model(spec, 1)
        for (w, b), (fan_in, _) in zip(
            unpack_parameters(spec, model.parameters),
            [(wt.shape[0], wt.shape[1]) for wt, _ in unpack_parameters(spec, model.parameters)],
        ):
            assert np.all(b == 0.0)
            limit = np.sqrt(6.0 / fan_in)
            assert np.all(np.abs(w) <= limit)


def test_model_must_be_finite_and_sized():
    spec = dense_spec()
    with pytest.raises(ConfigurationError):
        NetModel(spec=spec, parameters=np.zeros(spec.param_count - 1))
    bad = np.zeros(spec.param_count)
    bad[0] = np.inf
    with pytest.raises(ConfigurationError):
        NetModel(spec=spec, parameters=bad)


# ------------------------------------------------------------------- forward


def test_probability_rows_sum_to_one():
    for spec in (dense_spec(), conv_spec()):
        model = init_model(spec, 2)
        probs = forward(model, batch_of(spec, 17, seed=3))
        assert probs.shape == (17, 3)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(probs >= 0.0)


def test_zeroed_output_layer_gives_uniform_probabilities():
    spec = dense_spec()
    model = init_model(spec, 0)
    layers = [(w.copy(), b.copy()) for w, b in unpack_parameters(spec, model.parameters)]
    layers[-1] = (np.zeros_like(layers[-1][0]), np.zeros_like(layers[-1][1]))
    model = NetModel(spec=spec, parameters=pack_parameters(layers))
    probs = forward(model, batch_of(spec, 5))
    np.testing.assert_allclose(probs, 1.0 / 3.0, atol=1e-12)


def test_uniform_prediction_loss_is_log_n_classes():
    spec = dense_spec()
    theta = np.zeros(spec.param_count)  # all-zero net emits equal logits
    model = NetModel(spec=spec, parameters=theta)
    loss, _ = loss_and_gradient(model, batch_of(spec, 8), [0, 1, 2, 0, 1, 2, 0, 1])
    assert loss == pytest.approx(np.log(3.0), abs=1e-12)


def test_confident_correct_predictions_drive_loss_to_zero():
    spec = dense_spec(n_classes=2)
    model = init_model(spec, 0)
    layers = [(np.zeros_like(w), np.zeros_like(b)) for w, b in unpack_parameters(spec, model.parameters)]
    layers[-1] = (layers[-1][0], np.array([30.0, -30.0]))  # logit gap 60 for class 0
    model = NetModel(spec=spec, parameters=pack_parameters(layers))
    loss, _ = loss_and_gradient(model, batch_of(spec, 4), [0, 0, 0, 0])
    assert loss == pytest.approx(0.0, abs=1e-12)


def test_batch_shape_mismatch_rejected():
    model = init_model(dense_spec(), 0)
    with pytest.raises(ConfigurationError):
        forward(model, np.zeros((2, 5, 1)))


_BAD_LABELS = {  # for 3 rows of a 3-class net: (labels, message)
    "minus_one": ([0, -1, 2], "labels outside [0, 3)"),
    "int64_min": ([0, np.iinfo(np.int64).min, 1], "labels outside [0, 3)"),
    "n_classes": ([0, 3, 1], "labels outside [0, 3)"),
    "count": ([0, 1], "3 samples but 2 labels"),
}


@pytest.mark.parametrize("case", sorted(_BAD_LABELS))
def test_loss_and_gradient_and_train_refuse_bad_labels(case):
    # the range check reads the labels as unsigned, so a negative one must
    # wrap above the class count, the most negative int64 included
    labels, message = _BAD_LABELS[case]
    spec = dense_spec()
    x = batch_of(spec, 3, seed=1)
    with pytest.raises(ConfigurationError) as caught:
        loss_and_gradient(init_model(spec, 0), x, labels)
    assert str(caught.value) == message
    samples = SimpleNamespace(x=x, y=np.asarray(labels))  # Windows would refuse a short y
    with pytest.raises(ConfigurationError) as caught:
        train(init_model(spec, 0), samples, TrainConfig(epochs=1, batch_size=2), 0)
    assert str(caught.value) == message


def test_a_plain_list_of_valid_labels_passes():
    spec = dense_spec()
    x = batch_of(spec, 3, seed=1)
    loss, grad = loss_and_gradient(init_model(spec, 0), x, [0, 2, 1])
    want_loss, want_grad = loss_and_gradient(init_model(spec, 0), x, np.array([0, 2, 1]))
    assert (loss.hex(), grad.tobytes()) == (want_loss.hex(), want_grad.tobytes())
    samples = SimpleNamespace(x=x, y=[0, 2, 1])
    result = train(init_model(spec, 0), samples, TrainConfig(epochs=2, batch_size=2), 0)
    assert len(result.epoch_losses) == 2


# ------------------------------------------------------------------ gradients


def _fd_case(spec, seed, penalty=None, batch_seed=0):
    rng = np.random.default_rng(41)
    model = init_model(spec, seed)
    # move off the init point so relu patterns are generic
    theta = model.parameters + 0.05 * rng.normal(size=spec.param_count)
    model = NetModel(spec=spec, parameters=theta)
    x = batch_of(spec, 6, seed=batch_seed)
    y = np.arange(6) % spec.n_classes
    _, analytic = loss_and_gradient(model, x, y, penalty)

    def loss_at(vec):
        return loss_and_gradient(NetModel(spec=spec, parameters=vec), x, y, penalty)[0]

    numeric = fd_gradient(loss_at, theta, h=1e-5)
    return relative_error(analytic, numeric)


def test_dense_gradient_matches_finite_differences():
    assert _fd_case(dense_spec(), 8) < 1e-4


def test_conv_gradient_matches_finite_differences():
    # every (kernel, stride) regime the input-gradient scatter handles: patches
    # that overlap, that tile the input exactly, and that leave gaps whose
    # positions get no gradient
    specs = {"default": conv_spec()}
    for name, (kernel, stride) in {"overlap": (5, 1), "tiling": (2, 2), "gaps": (2, 3)}.items():
        conv = ((3, kernel, stride), (4, kernel, stride))
        specs[f"{name} {(kernel, stride)}"] = conv_spec(input_shape=(20, 2), conv=conv)
    for name, spec in specs.items():
        err = _fd_case(spec, 8)
        assert err < 1e-4, f"{name}: max relative error {err:.2e}"


def test_gradient_with_penalty_matches_finite_differences():
    for spec in (dense_spec(), conv_spec()):
        rng = np.random.default_rng(1)
        penalty = EWCPenalty(
            lam=3.7,
            theta_star=rng.normal(size=spec.param_count),
            fisher=rng.uniform(0.0, 2.0, size=spec.param_count),
        )
        assert _fd_case(spec, 9, penalty=penalty) < 1e-4


def test_penalty_adds_the_expected_quadratic_term():
    spec = dense_spec()
    model = init_model(spec, 10)
    x = batch_of(spec, 3)
    y = [0, 1, 2]
    theta_star = np.zeros(spec.param_count)
    fisher = np.ones(spec.param_count)
    plain, grad_plain = loss_and_gradient(model, x, y)
    shifted, grad_shifted = loss_and_gradient(
        model, x, y, EWCPenalty(lam=2.0, theta_star=theta_star, fisher=fisher)
    )
    want = plain + 0.5 * 2.0 * float(np.sum(model.parameters**2))
    assert shifted == pytest.approx(want, rel=1e-12)
    np.testing.assert_allclose(
        grad_shifted, grad_plain + 2.0 * model.parameters, atol=1e-12
    )


def test_zero_weight_penalty_is_bitwise_inert():
    spec = dense_spec()
    model = init_model(spec, 11)
    x = batch_of(spec, 5)
    y = [0, 1, 2, 0, 1]
    penalty = EWCPenalty(
        lam=0.0,
        theta_star=np.full(spec.param_count, 9.9),
        fisher=np.ones(spec.param_count),
    )
    plain_loss, plain_grad = loss_and_gradient(model, x, y)
    loss, grad = loss_and_gradient(model, x, y, penalty)
    assert loss == plain_loss
    np.testing.assert_array_equal(grad, plain_grad)


# the conv stages of each conv step case: the benchmark's, one filter a
# stage, stride 2 (gate 2's), a second kernel as long as its input, and
# patches that tile their input exactly
_STEP_CONV = {
    "conv": ((8, 5, 1), (16, 5, 1)),
    "conv_one_filter": ((1, 3, 1), (1, 4, 3)),
    "conv_stride2": ((4, 5, 2), (8, 5, 2)),
    "conv_full_kernel": ((4, 5, 1), (8, 46, 1)),
    "conv_tiled": ((4, 5, 5), (8, 2, 2)),
}
_STEP_CONV.update(conv_n1=_STEP_CONV["conv"], conv_n7=_STEP_CONV["conv"])
_STEP_CONV.update({f"squares_{c}": _STEP_CONV[c] for c in ("conv", "conv_one_filter", "conv_stride2")})


def _step_case(case: str):
    """(model, batch, labels, penalty, per_sample_squares) of one step case."""
    rng = np.random.default_rng(23)
    rows, penalty, squares = 32, None, case.startswith("squares")
    if case in ("bench", "bench_tail", "lam_zero", "squares_dense"):
        spec = bench_spec()
        rows = 7 if case == "bench_tail" else rows
    elif case in _STEP_CONV:
        spec = conv_spec(input_shape=(50, 2), hidden=(64, 32), conv=_STEP_CONV[case])
        rows = {"conv_n1": 1, "conv_n7": 7}.get(case, rows)
    if case == "anchored":
        old = init_model(bench_spec(n_classes=2), 25)
        model = extend_output(old, 1, seed=26)
        spec = model.spec
        anchor = old.parameters + 0.01 * rng.normal(size=old.spec.param_count)
        fisher = rng.uniform(0.0, 1.0, size=old.spec.param_count)
        penalty = EWCPenalty(
            lam=100.0,
            theta_star=pad_parameters(old.spec, spec, anchor),
            fisher=pad_parameters(old.spec, spec, fisher),
        )
    else:
        model = init_model(spec, 24)
    if case == "lam_zero":
        penalty = EWCPenalty(
            lam=0.0, theta_star=rng.normal(size=spec.param_count), fisher=np.ones(spec.param_count)
        )
    labels = rng.integers(0, spec.n_classes, size=rows)
    return model, batch_of(spec, rows, seed=27), labels, penalty, squares


@pytest.mark.parametrize(
    "case", ["bench", "bench_tail", "anchored", "lam_zero", "squares_dense", *_STEP_CONV]
)
def test_loss_and_gradient_match_the_frozen_reference_bytes(case):
    # the step reorganises calls, never arithmetic: every float matches the
    # step as first written, at the real shapes where BLAS takes its own paths
    model, x, y, penalty, squares = _step_case(case)
    loss, grad = loss_and_gradient(model, x, y, penalty, per_sample_squares=squares)
    want_loss, want_grad = loss_and_gradient_reference(model, x, y, penalty, per_sample_squares=squares)
    assert loss.hex() == want_loss.hex()
    assert grad.dtype == want_grad.dtype and grad.shape == want_grad.shape
    assert grad.tobytes() == want_grad.tobytes()
    if squares:  # the Fisher diagonal is this sum over its rows
        fisher = fisher_diagonal(model, windows_of(x, y))
        assert fisher.tobytes() == (want_grad / len(y)).tobytes()


@pytest.mark.parametrize("case", [c for c in _STEP_CONV if not c.startswith("squares")])
def test_conv_forward_matches_the_frozen_reference_bytes(case):
    # evaluation reads these probabilities, so they keep every bit too
    model, x, _, _, _ = _step_case(case)
    got, want = forward(model, x), forward_reference(model, x)
    assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())


def _step_bytes(model, x, y) -> tuple[str, bytes, bytes]:
    loss, grad = loss_and_gradient(model, x, y)
    return loss.hex(), grad.tobytes(), forward(model, x).tobytes()


@pytest.mark.parametrize("how", ["in_place", "rebind", "deepcopy", "pickle"])
def test_cached_weight_views_follow_the_parameters(how):
    # a model's weight views are built once per parameters array; after each
    # change the step must match a freshly built model's bytes
    spec = bench_spec()
    x, y = batch_of(spec, 32, seed=5), np.arange(32) % 3
    nudge = 0.1 * np.random.default_rng(6).normal(size=spec.param_count)
    model = init_model(spec, 4)
    before = _step_bytes(model, x, y)  # builds the views
    original = model
    if how == "deepcopy":
        model = copy.deepcopy(model)
    elif how == "pickle":
        model = pickle.loads(pickle.dumps(model))
    if how == "rebind":
        model.parameters = model.parameters + nudge
    else:
        model.parameters += nudge
    fresh = NetModel(spec=spec, parameters=model.parameters.copy())
    assert _step_bytes(model, x, y) == _step_bytes(fresh, x, y) != before
    if model is not original:  # the copy's update leaves its source alone
        assert _step_bytes(original, x, y) == before


def test_penalty_validation():
    with pytest.raises(ConfigurationError):
        EWCPenalty(lam=-1.0, theta_star=np.zeros(3), fisher=np.zeros(3))
    with pytest.raises(ConfigurationError):
        EWCPenalty(lam=1.0, theta_star=np.zeros(3), fisher=np.zeros(4))
    with pytest.raises(ConfigurationError):
        EWCPenalty(lam=1.0, theta_star=np.zeros(3), fisher=-np.ones(3))
    for lam in (math.nan, math.inf):
        with pytest.raises(ConfigurationError, match="finite"):
            EWCPenalty(lam=lam, theta_star=np.zeros(3), fisher=np.zeros(3))


# ------------------------------------------------------------------- training


def test_separable_clusters_reach_full_training_accuracy():
    samples = cluster_samples(20, seed=1)
    spec = NetSpec(kind="dense", input_shape=(2, 1), n_classes=2, hidden=(8, 4))
    config = TrainConfig(epochs=200, batch_size=8, learning_rate=0.05)
    result = train(init_model(spec, 3), samples, config, 0)
    preds = np.argmax(forward(result.model, samples.x), axis=1)
    assert np.all(preds == samples.y)
    assert len(result.epoch_losses) == 200
    assert result.epoch_losses[-1] < result.epoch_losses[0]


def test_zero_learning_rate_changes_nothing():
    samples = cluster_samples(5, seed=2)
    spec = NetSpec(kind="dense", input_shape=(2, 1), n_classes=2, hidden=(4, 3))
    model = init_model(spec, 0)
    before = model.parameters.copy()
    result = train(model, samples, TrainConfig(epochs=3, batch_size=4, learning_rate=0.0), 0)
    np.testing.assert_array_equal(result.model.parameters, before)
    np.testing.assert_array_equal(model.parameters, before)  # input untouched


def test_training_is_deterministic():
    samples = cluster_samples(10, seed=3)
    spec = NetSpec(kind="dense", input_shape=(2, 1), n_classes=2, hidden=(6, 4))
    config = TrainConfig(epochs=15, batch_size=4, learning_rate=0.02)
    a = train(init_model(spec, 1), samples, config, 7)
    b = train(init_model(spec, 1), samples, config, 7)
    np.testing.assert_array_equal(a.model.parameters, b.model.parameters)
    assert a.epoch_losses == b.epoch_losses


def test_shuffle_seed_matters():
    samples = cluster_samples(10, seed=4)
    spec = NetSpec(kind="dense", input_shape=(2, 1), n_classes=2, hidden=(6, 4))
    config = TrainConfig(epochs=5, batch_size=4, learning_rate=0.02)
    a = train(init_model(spec, 1), samples, config, 1)
    b = train(init_model(spec, 1), samples, config, 2)
    assert not np.array_equal(a.model.parameters, b.model.parameters)


def _first_non_finite_step(model, samples, config, seed, penalty) -> str:
    """Where plain SGD, shuffled by `seed`, first meets a non-finite loss or
    parameter, checking every loss and every parameter after every step."""
    rng = np.random.default_rng(seed)
    theta = model.parameters.copy()
    for epoch in range(config.epochs):
        order = rng.permutation(len(samples))
        for batch, start in enumerate(range(0, len(samples), config.batch_size)):
            sel = order[start : start + config.batch_size]
            loss, g = loss_and_gradient(
                NetModel(spec=model.spec, parameters=theta), samples.x[sel], samples.y[sel], penalty
            )
            if not np.isfinite(loss):
                return f"non-finite loss at epoch {epoch}, batch {batch}"
            theta = theta - config.learning_rate * g
            if not np.all(np.isfinite(theta)):
                return f"non-finite parameters at epoch {epoch}, batch {batch}"
    raise AssertionError("the run never diverged")


def test_divergence_raises_a_located_training_error():
    # an anchor stiff beyond the step-size stability limit oscillates with
    # exponentially growing amplitude until parameters overflow
    samples = cluster_samples(10, seed=5)
    spec = NetSpec(kind="dense", input_shape=(2, 1), n_classes=2, hidden=(6, 4))
    config = TrainConfig(epochs=50, batch_size=4, learning_rate=1e6, optimizer="sgd")
    penalty = EWCPenalty(
        lam=1e6,
        theta_star=np.zeros(spec.param_count),
        fisher=np.ones(spec.param_count),
    )
    with np.errstate(over="ignore", invalid="ignore"):
        where = _first_non_finite_step(init_model(spec, 1), samples, config, 0, penalty)
        with pytest.raises(TrainingError, match=r"epoch \d+, batch \d+") as caught:
            train(init_model(spec, 1), samples, config, 0, penalty=penalty)
    assert str(caught.value) == where


def _train_with_huge_first_layer(value: float) -> np.ndarray:
    """Trains a net whose first-layer weights are all `value` on zero inputs,
    which keep them out of the loss and give them a zero gradient, so they
    stay finite; returns the parameters it started from."""
    spec = NetSpec(kind="dense", input_shape=(2, 1), n_classes=2, hidden=(6, 4))
    theta = init_model(spec, 3).parameters.copy()
    w1, _ = unpack_parameters(spec, theta)[0]
    w1[...] = value
    samples = windows_of(np.zeros((8, 2, 1)), np.arange(8) % 2)
    config = TrainConfig(epochs=2, batch_size=4, learning_rate=0.1)
    with np.errstate(over="ignore"):
        result = train(NetModel(spec=spec, parameters=theta), samples, config, 0)
    assert np.all(np.isfinite(result.model.parameters))
    np.testing.assert_array_equal(unpack_parameters(spec, result.model.parameters)[0][0], w1)
    assert all(np.isfinite(result.epoch_losses))
    return theta


def test_huge_finite_parameters_whose_sum_overflows_do_not_raise():
    theta = _train_with_huge_first_layer(1e308)
    with np.errstate(over="ignore"):
        assert not np.isfinite(np.sum(theta))


def test_huge_finite_parameters_whose_squares_overflow_do_not_raise():
    # squares overflow from about 1e154, so the dot-product guard fails here
    # and only the exact check can pass these parameters
    theta = _train_with_huge_first_layer(1e200)
    assert np.isfinite(np.sum(theta))
    with np.errstate(over="ignore"):
        assert not np.isfinite(theta @ theta)


def test_train_config_validation():
    with pytest.raises(ConfigurationError):
        TrainConfig(epochs=0)
    with pytest.raises(ConfigurationError):
        TrainConfig(batch_size=0)
    with pytest.raises(ConfigurationError):
        TrainConfig(learning_rate=-0.1)
    with pytest.raises(ConfigurationError):
        TrainConfig(optimizer="adam")
    with pytest.raises(ConfigurationError):
        TrainConfig(momentum=1.0)
    for bad in (
        dict(epochs=2.7),
        dict(epochs=True),
        dict(epochs="3"),
        dict(batch_size=4.5),
        dict(batch_size=False),
        dict(learning_rate=float("nan")),
        dict(learning_rate=float("inf")),
        dict(learning_rate="0.01"),
        dict(learning_rate=True),
        dict(momentum=float("nan")),
        dict(momentum=None),
    ):
        with pytest.raises(ConfigurationError):
            TrainConfig(**bad)
    TrainConfig(epochs=np.int64(2), batch_size=3, learning_rate=1, momentum=np.float64(0.5))


@pytest.mark.parametrize("case", ["plain", "ewc", "sgd", "conv", "bench_ewc"])
def test_train_matches_the_reference_loop_bit_for_bit(case):
    samples = cluster_samples(11, seed=6)  # 22 samples: the last batch is short
    spec = NetSpec(kind="dense", input_shape=(2, 1), n_classes=2, hidden=(6, 4))
    batch_size = 5
    if case in ("conv", "bench_ewc"):
        # the real shapes reach BLAS paths that the tiny net does not;
        # 70 samples in batches of 32 leave a short last batch
        spec = conv_spec(n_classes=2) if case == "conv" else bench_spec(n_classes=2)
        labels = np.arange(70) % 2
        samples = windows_of(batch_of(spec, 70, seed=7) + labels[:, None, None], labels)
        batch_size = 32
    config = TrainConfig(
        epochs=4,
        batch_size=batch_size,
        learning_rate=0.05,
        optimizer="sgd" if case == "sgd" else "sgd_momentum",
    )
    penalty = None
    if case in ("ewc", "bench_ewc"):
        rng = np.random.default_rng(5)
        penalty = EWCPenalty(
            lam=0.7,
            theta_star=rng.normal(size=spec.param_count),
            fisher=rng.uniform(0.0, 1.0, size=spec.param_count),
        )
    model = init_model(spec, 2)
    before = model.parameters.copy()
    result = train(model, samples, config, 3, penalty=penalty)
    theta, losses = sgd_reference(model, samples, config, 3, penalty)
    np.testing.assert_array_equal(result.model.parameters, theta)
    assert result.epoch_losses == losses
    np.testing.assert_array_equal(model.parameters, before)  # input untouched


def test_train_and_fisher_call_loss_and_gradient_per_batch_and_per_sample(monkeypatch):
    # perfbench counts these calls: its tracer wraps the module attribute
    # classifier.loss_and_gradient and reads (model, batch, labels) and the
    # penalty, positional or by name, to key each call by net kind, anchoring
    # and rows. So train, reached directly or through continual, makes one
    # call per member minibatch, and fisher_diagonal one call whose rows are
    # every sample.
    from pseudoreplay import continual

    calls = []  # (kind, rows, anchored) per call, read the way the tracer reads them
    real = classifier.loss_and_gradient

    def counting(*args, **kwargs):
        model, batch, labels = args[:3]
        penalty = args[3] if len(args) > 3 else kwargs.get("penalty")
        assert batch.shape[0] == len(labels)
        calls.append((model.spec.kind, len(labels), penalty is not None and penalty.lam != 0.0))
        return real(*args, **kwargs)

    monkeypatch.setattr(classifier, "loss_and_gradient", counting)
    samples = cluster_samples(11, seed=6)  # 22 rows: the last batch of 5 is short
    n, epochs, batch = len(samples), 3, 5
    steps = math.ceil(n / batch) * epochs
    config = TrainConfig(epochs=epochs, batch_size=batch, learning_rate=0.05)
    model = init_model(NetSpec(kind="dense", input_shape=(2, 1), n_classes=2, hidden=(6, 4)), 2)
    train(model, samples, config, 0)
    assert len(calls) == steps and sum(c[1] for c in calls) == n * epochs
    assert all(c[0] == "dense" and not c[2] for c in calls)

    calls.clear()
    fisher_diagonal(model, samples)
    assert calls == [("dense", n, False)]

    # the anchored path, and a conv net
    penalty = EWCPenalty(lam=0.5, theta_star=model.parameters, fisher=np.ones(model.spec.param_count))
    calls.clear()
    train(model, samples, config, 0, penalty)
    train(model, samples, config, 0, penalty=penalty)
    assert len(calls) == 2 * steps and all(c[0] == "dense" and c[2] for c in calls)
    conv_samples = windows_of(batch_of(conv_spec(), n, seed=3), np.arange(n) % 3)
    calls.clear()
    train(init_model(conv_spec(), 4), conv_samples, config, 0)
    assert len(calls) == steps and sum(c[1] for c in calls) == n * epochs
    assert all(c[0] == "conv" and not c[2] for c in calls)

    # through continual: every member's every step reaches the module attribute
    settings = continual.RunSettings(net=model.spec, train=config, ewc_lambda=0.5, n_members=2)
    calls.clear()
    ens = continual.fit_ensemble(model.spec, *standardized_mix(samples), config, seed=5, n_members=2)
    assert len(calls) == 2 * steps and not any(c[2] for c in calls)
    snapshot = ([m.parameters for m in ens.members], [np.ones(model.spec.param_count)] * 2)
    calls.clear()
    continual._carry_forward(ens, *standardized_mix(samples), settings, seed=5, task_index=2, snapshot=snapshot)
    assert len(calls) == 2 * steps and all(c[2] for c in calls)


# ------------------------------------------------------------- fisher diagonal


def _fisher_case(case: str) -> tuple[NetModel, Windows]:
    """(model, samples) of one batched-Fisher case, named "<kind>_<rows>"."""
    if case == "grown_head":
        model = extend_output(init_model(dense_spec(n_classes=2), 16), 2, seed=3)
        n, labels = 12, np.arange(12) % 4
    else:
        kind, rows = case.split("_", 1)
        model = init_model(conv_spec(), 17) if kind == "conv" else init_model(dense_spec(), 18)
        n = {"mixed": 13, "n1": 1, "one_class": 10, "chunks": 23}[rows]
        labels = np.full(n, 2) if rows == "one_class" else np.arange(n) % 3
    return model, windows_of(batch_of(model.spec, n, seed=10), labels)


@pytest.mark.parametrize(
    "case",
    ["dense_mixed", "conv_mixed", "dense_n1", "conv_n1", "dense_one_class", "conv_one_class",
     "grown_head", "conv_chunks"],
)
def test_batched_fisher_matches_the_per_row_loop(monkeypatch, case):
    model, samples = _fisher_case(case)
    if case == "conv_chunks":
        # both conv layers hold 6 x (3 or 4) weights, so 50 elements make
        # chunks of 2 samples: 23 rows span 12 chunks, the last one short
        monkeypatch.setattr(classifier, "_SQUARES_BLOCK", 50)
    got = fisher_diagonal(model, samples)
    want = fisher_per_row(model, samples)
    assert np.max(want) > 0.0
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.max(want))


def test_per_sample_squares_take_no_penalty():
    spec = dense_spec()
    model = init_model(spec, 19)
    penalty = EWCPenalty(
        lam=0.0, theta_star=model.parameters.copy(), fisher=np.ones(spec.param_count)
    )
    with pytest.raises(ConfigurationError, match="no penalty"):
        loss_and_gradient(model, batch_of(spec, 3), [0, 1, 2], penalty, per_sample_squares=True)


def test_fisher_is_nonnegative():
    spec = dense_spec()
    model = init_model(spec, 12)
    samples = windows_of(batch_of(spec, 6, seed=6), np.arange(6) % 3)
    fisher = fisher_diagonal(model, samples)
    assert fisher.shape == model.parameters.shape
    assert np.all(fisher >= 0.0)


def test_fisher_is_zero_where_logits_cannot_move():
    # zero output weights: logits equal the output bias regardless of the
    # earlier layers, so every coordinate below the head has zero gradient
    spec = dense_spec()
    model = init_model(spec, 13)
    layers = [(w.copy(), b.copy()) for w, b in unpack_parameters(spec, model.parameters)]
    layers[-1] = (np.zeros_like(layers[-1][0]), layers[-1][1])
    model = NetModel(spec=spec, parameters=pack_parameters(layers))
    samples = windows_of(batch_of(spec, 4, seed=7), np.arange(4) % 3)
    fisher = fisher_diagonal(model, samples)
    head_size = layers[-1][0].size + layers[-1][1].size
    assert np.all(fisher[:-head_size] == 0.0)
    assert np.any(fisher[-head_size:] > 0.0)


def test_fisher_matches_per_sample_finite_differences():
    # 10-parameter model: 3x1 window, hidden (1, 1), 2 classes
    spec = NetSpec(kind="dense", input_shape=(3, 1), n_classes=2, hidden=(1, 1))
    assert spec.param_count == 10
    rng = np.random.default_rng(2)
    model = NetModel(spec=spec, parameters=rng.normal(size=10))
    samples = windows_of(rng.normal(size=(4, 3, 1)), [0, 1, 0, 1])
    fisher = fisher_diagonal(model, samples)

    acc = np.zeros(10)
    for features, label in zip(samples.x, samples.y):
        def single_loss(vec, features=features, label=label):
            return loss_and_gradient(
                NetModel(spec=spec, parameters=vec), features[None], [label]
            )[0]

        g = fd_gradient(single_loss, model.parameters, h=1e-6)
        acc += g * g
    want = acc / len(samples)
    denom = np.maximum(1e-8, np.abs(fisher) + np.abs(want))
    assert np.max(np.abs(fisher - want) / denom) < 1e-4


# ------------------------------------------------------------- head extension


def test_extend_output_preserves_old_logits():
    spec = dense_spec(n_classes=2)
    model = init_model(spec, 15)
    x = batch_of(spec, 9, seed=8)
    from pseudoreplay.classifier import _forward_cached

    old_logits, _ = _forward_cached(model, x)
    grown = extend_output(model, 1, seed=99)
    assert grown.spec.n_classes == 3
    new_logits, _ = _forward_cached(grown, x)
    np.testing.assert_array_equal(new_logits[:, :2], old_logits)


def test_extend_output_is_deterministic_and_seed_sensitive():
    model = init_model(dense_spec(n_classes=2), 16)
    a = extend_output(model, 2, seed=1)
    b = extend_output(model, 2, seed=1)
    c = extend_output(model, 2, seed=2)
    np.testing.assert_array_equal(a.parameters, b.parameters)
    assert not np.array_equal(a.parameters, c.parameters)


def test_pad_parameters_layout_and_fill():
    old = dense_spec(n_classes=2)
    new = dense_spec(n_classes=4)
    vec = np.arange(float(old.param_count))
    padded = pad_parameters(old, new, vec, fill=-1.0)
    assert padded.size == new.param_count
    old_layers = unpack_parameters(old, vec)
    new_layers = unpack_parameters(new, padded)
    for (wo, bo), (wn, bn) in zip(old_layers[:-1], new_layers[:-1]):
        np.testing.assert_array_equal(wo, wn)
        np.testing.assert_array_equal(bo, bn)
    wo, bo = old_layers[-1]
    wn, bn = new_layers[-1]
    np.testing.assert_array_equal(wn[:, :2], wo)
    np.testing.assert_array_equal(bn[:2], bo)
    assert np.all(wn[:, 2:] == -1.0) and np.all(bn[2:] == -1.0)


def test_pad_parameters_rejects_other_shape_changes():
    old = dense_spec(n_classes=2)
    with pytest.raises(ConfigurationError):
        pad_parameters(old, dense_spec(n_classes=2, hidden=(7, 4)), np.zeros(old.param_count))
    with pytest.raises(ConfigurationError):
        pad_parameters(dense_spec(n_classes=3), dense_spec(n_classes=2), np.zeros(dense_spec(n_classes=3).param_count))


# ------------------------------------------------------------------- ensembles


def ensemble_batch(samples):
    return samples


def test_identical_members_match_a_single_member():
    samples = cluster_samples(8, seed=6)
    spec = NetSpec(kind="dense", input_shape=(2, 1), n_classes=2, hidden=(4, 3))
    single = fit_ensemble(
        spec, *standardized_mix(samples), TrainConfig(epochs=5, batch_size=4, learning_rate=0.01), seed=0, n_members=1
    )
    member = single.members[0]
    tripled = Ensemble(members=[member, member, member], standardizer=single.standardizer)
    np.testing.assert_array_equal(predict(tripled, samples), predict(single, samples))


def test_averaged_probabilities_decide_the_prediction():
    # member A is mildly sure of class 0, member B is emphatic about class 1
    spec = NetSpec(kind="dense", input_shape=(2, 1), n_classes=3, hidden=(4, 3))

    def biased_model(bias):
        layers = [
            (np.zeros_like(w), np.zeros_like(b))
            for w, b in unpack_parameters(spec, init_model(spec, 0).parameters)
        ]
        layers[-1] = (layers[-1][0], np.asarray(bias, dtype=float))
        return NetModel(spec=spec, parameters=pack_parameters(layers))

    from pseudoreplay.data import StandardizationParams

    ens = Ensemble(
        members=[biased_model([2.0, 0.0, 0.0]), biased_model([0.0, 10.0, 0.0])],
        standardizer=StandardizationParams(mean=np.zeros(2), std=np.ones(2)),
    )
    sample = windows_of(np.zeros((1, 2, 1)), [0])
    assert predict(ens, sample).tolist() == [1]


def test_prediction_ties_break_toward_the_lower_class():
    spec = NetSpec(kind="dense", input_shape=(2, 1), n_classes=2, hidden=(4, 3))
    layers = [
        (np.zeros_like(w), np.zeros_like(b))
        for w, b in unpack_parameters(spec, init_model(spec, 0).parameters)
    ]
    model = NetModel(spec=spec, parameters=pack_parameters(layers))
    from pseudoreplay.data import StandardizationParams

    ens = Ensemble(
        members=[model],
        standardizer=StandardizationParams(mean=np.zeros(2), std=np.ones(2)),
    )
    sample = windows_of(np.zeros((1, 2, 1)), [0])
    assert predict(ens, sample).tolist() == [0]


def test_ensemble_accuracy_at_least_median_member_minus_margin():
    train_samples = cluster_samples(30, seed=7)
    held_out = cluster_samples(30, seed=8)
    spec = NetSpec(kind="dense", input_shape=(2, 1), n_classes=2, hidden=(8, 4))
    ens = fit_ensemble(
        spec, *standardized_mix(train_samples), TrainConfig(epochs=30, batch_size=8, learning_rate=0.02), seed=4,
        n_members=5,
    )
    labels = held_out.y
    ens_acc = float(np.mean(predict(ens, held_out) == labels))
    from pseudoreplay.classifier import member_probabilities

    probs = member_probabilities(ens, held_out)
    member_accs = sorted(float(np.mean(np.argmax(p, axis=1) == labels)) for p in probs)
    median = member_accs[len(member_accs) // 2]
    assert ens_acc >= median - 0.02


def test_fit_ensemble_members_differ_and_are_deterministic():
    samples = cluster_samples(10, seed=9)
    spec = NetSpec(kind="dense", input_shape=(2, 1), n_classes=2, hidden=(4, 3))
    config = TrainConfig(epochs=5, batch_size=4, learning_rate=0.01)
    a = fit_ensemble(spec, *standardized_mix(samples), config, seed=5, n_members=3)
    b = fit_ensemble(spec, *standardized_mix(samples), config, seed=5, n_members=3)
    assert not np.array_equal(a.members[0].parameters, a.members[1].parameters)
    for ma, mb in zip(a.members, b.members, strict=True):
        np.testing.assert_array_equal(ma.parameters, mb.parameters)


def test_fit_ensemble_members_share_the_spec_and_train_on_their_derived_seeds():
    # member m is init_model on ("init", m) trained with shuffles from
    # ("shuffle", m), bit for bit; the members hold the one spec they were given
    samples = cluster_samples(10, seed=9)
    spec = NetSpec(kind="dense", input_shape=(2, 1), n_classes=2, hidden=(4, 3))
    config = TrainConfig(epochs=3, batch_size=4, learning_rate=0.05)
    mix, standardizer = standardized_mix(samples)
    ens = fit_ensemble(spec, mix, standardizer, config, seed=5, n_members=3)
    assert all(member.spec is spec for member in ens.members)
    for m, member in enumerate(ens.members):
        want = train(init_model(spec, derive_seed(5, "init", m)), mix, config, derive_seed(5, "shuffle", m))
        assert member.parameters.tobytes() == want.model.parameters.tobytes(), f"member {m}"
