import math

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
    load_ensemble,
    loss_and_gradient,
    predict,
    save_ensemble,
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

from _oracles import fd_gradient, fisher_per_row, relative_error, sgd_reference


def dense_spec(**kwargs) -> NetSpec:
    base = dict(kind="dense", input_shape=(4, 1), n_classes=3, hidden=(5, 4), seed=0)
    base.update(kwargs)
    return NetSpec(**base)


def conv_spec(**kwargs) -> NetSpec:
    base = dict(
        kind="conv",
        input_shape=(12, 2),
        n_classes=3,
        hidden=(6, 4),
        conv=((3, 3, 2), (4, 2, 1)),
        seed=0,
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
    a = init_model(dense_spec(seed=5))
    b = init_model(dense_spec(seed=5))
    np.testing.assert_array_equal(a.parameters, b.parameters)
    c = init_model(dense_spec(seed=6))
    assert not np.array_equal(a.parameters, c.parameters)


def test_init_biases_zero_and_weights_bounded():
    for spec in (dense_spec(seed=1), conv_spec(seed=1)):
        model = init_model(spec)
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
    for spec in (dense_spec(seed=2), conv_spec(seed=2)):
        model = init_model(spec)
        probs = forward(model, batch_of(spec, 17, seed=3))
        assert probs.shape == (17, 3)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(probs >= 0.0)


def test_zeroed_output_layer_gives_uniform_probabilities():
    spec = dense_spec()
    model = init_model(spec)
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
    model = init_model(spec)
    layers = [(np.zeros_like(w), np.zeros_like(b)) for w, b in unpack_parameters(spec, model.parameters)]
    layers[-1] = (layers[-1][0], np.array([30.0, -30.0]))  # logit gap 60 for class 0
    model = NetModel(spec=spec, parameters=pack_parameters(layers))
    loss, _ = loss_and_gradient(model, batch_of(spec, 4), [0, 0, 0, 0])
    assert loss == pytest.approx(0.0, abs=1e-12)


def test_batch_shape_mismatch_rejected():
    model = init_model(dense_spec())
    with pytest.raises(ConfigurationError):
        forward(model, np.zeros((2, 5, 1)))


# ------------------------------------------------------------------ gradients


def _fd_case(spec, penalty=None, batch_seed=0):
    rng = np.random.default_rng(41)
    model = init_model(spec)
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
    assert _fd_case(dense_spec(seed=8)) < 1e-4


def test_conv_gradient_matches_finite_differences():
    # every (kernel, stride) regime the input-gradient scatter handles: patches
    # that overlap, that tile the input exactly, and that leave gaps whose
    # positions get no gradient
    specs = {"default": conv_spec(seed=8)}
    for name, (kernel, stride) in {"overlap": (5, 1), "tiling": (2, 2), "gaps": (2, 3)}.items():
        conv = ((3, kernel, stride), (4, kernel, stride))
        specs[f"{name} {(kernel, stride)}"] = conv_spec(seed=8, input_shape=(20, 2), conv=conv)
    for name, spec in specs.items():
        err = _fd_case(spec)
        assert err < 1e-4, f"{name}: max relative error {err:.2e}"


def test_gradient_with_penalty_matches_finite_differences():
    for spec in (dense_spec(seed=9), conv_spec(seed=9)):
        rng = np.random.default_rng(1)
        penalty = EWCPenalty(
            lam=3.7,
            theta_star=rng.normal(size=spec.param_count),
            fisher=rng.uniform(0.0, 2.0, size=spec.param_count),
        )
        assert _fd_case(spec, penalty=penalty) < 1e-4


def test_penalty_adds_the_expected_quadratic_term():
    spec = dense_spec(seed=10)
    model = init_model(spec)
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
    spec = dense_spec(seed=11)
    model = init_model(spec)
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
    spec = NetSpec(kind="dense", input_shape=(2, 1), n_classes=2, hidden=(8, 4), seed=3)
    config = TrainConfig(epochs=200, batch_size=8, learning_rate=0.05)
    result = train(init_model(spec), samples, config)
    preds = np.argmax(forward(result.model, samples.x), axis=1)
    assert np.all(preds == samples.y)
    assert len(result.epoch_losses) == 200
    assert result.epoch_losses[-1] < result.epoch_losses[0]


def test_zero_learning_rate_changes_nothing():
    samples = cluster_samples(5, seed=2)
    spec = NetSpec(kind="dense", input_shape=(2, 1), n_classes=2, hidden=(4, 3), seed=0)
    model = init_model(spec)
    before = model.parameters.copy()
    result = train(model, samples, TrainConfig(epochs=3, batch_size=4, learning_rate=0.0))
    np.testing.assert_array_equal(result.model.parameters, before)
    np.testing.assert_array_equal(model.parameters, before)  # input untouched


def test_training_is_deterministic():
    samples = cluster_samples(10, seed=3)
    spec = NetSpec(kind="dense", input_shape=(2, 1), n_classes=2, hidden=(6, 4), seed=1)
    config = TrainConfig(epochs=15, batch_size=4, learning_rate=0.02, shuffle_seed=7)
    a = train(init_model(spec), samples, config)
    b = train(init_model(spec), samples, config)
    np.testing.assert_array_equal(a.model.parameters, b.model.parameters)
    assert a.epoch_losses == b.epoch_losses


def test_shuffle_seed_matters():
    samples = cluster_samples(10, seed=4)
    spec = NetSpec(kind="dense", input_shape=(2, 1), n_classes=2, hidden=(6, 4), seed=1)
    a = train(init_model(spec), samples, TrainConfig(epochs=5, batch_size=4, learning_rate=0.02, shuffle_seed=1))
    b = train(init_model(spec), samples, TrainConfig(epochs=5, batch_size=4, learning_rate=0.02, shuffle_seed=2))
    assert not np.array_equal(a.model.parameters, b.model.parameters)


def test_divergence_raises_a_located_training_error():
    # an anchor stiff beyond the step-size stability limit oscillates with
    # exponentially growing amplitude until parameters overflow
    samples = cluster_samples(10, seed=5)
    spec = NetSpec(kind="dense", input_shape=(2, 1), n_classes=2, hidden=(6, 4), seed=1)
    config = TrainConfig(epochs=50, batch_size=4, learning_rate=1e6, optimizer="sgd")
    penalty = EWCPenalty(
        lam=1e6,
        theta_star=np.zeros(spec.param_count),
        fisher=np.ones(spec.param_count),
    )
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainingError, match=r"epoch \d+, batch \d+"):
            train(init_model(spec), samples, config, penalty=penalty)


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


@pytest.mark.parametrize("case", ["plain", "ewc", "sgd"])
def test_train_matches_the_reference_loop_bit_for_bit(case):
    samples = cluster_samples(11, seed=6)  # 22 samples: the last batch is short
    spec = NetSpec(kind="dense", input_shape=(2, 1), n_classes=2, hidden=(6, 4), seed=2)
    config = TrainConfig(
        epochs=4,
        batch_size=5,
        learning_rate=0.05,
        shuffle_seed=3,
        optimizer="sgd" if case == "sgd" else "sgd_momentum",
    )
    penalty = None
    if case == "ewc":
        rng = np.random.default_rng(5)
        penalty = EWCPenalty(
            lam=0.7,
            theta_star=rng.normal(size=spec.param_count),
            fisher=rng.uniform(0.0, 1.0, size=spec.param_count),
        )
    model = init_model(spec)
    before = model.parameters.copy()
    result = train(model, samples, config, penalty=penalty)
    theta, losses = sgd_reference(model, samples, config, penalty)
    np.testing.assert_array_equal(result.model.parameters, theta)
    assert result.epoch_losses == losses
    np.testing.assert_array_equal(model.parameters, before)  # input untouched


def test_train_and_fisher_call_loss_and_gradient_per_batch_and_per_sample(monkeypatch):
    # the benchmark's tracer counts these calls at the module attribute, so
    # train must make one call per minibatch and fisher_diagonal one call
    # whose rows are every sample
    rows = []
    real = classifier.loss_and_gradient

    def counting(model, batch, labels, penalty=None, **kwargs):
        assert batch.shape[0] == len(labels)
        rows.append(len(labels))
        return real(model, batch, labels, penalty, **kwargs)

    monkeypatch.setattr(classifier, "loss_and_gradient", counting)
    samples = cluster_samples(11, seed=6)  # 22 rows: the last batch of 5 is short
    n, epochs, batch = len(samples), 3, 5
    model = init_model(NetSpec(kind="dense", input_shape=(2, 1), n_classes=2, hidden=(6, 4), seed=2))
    train(model, samples, TrainConfig(epochs=epochs, batch_size=batch, learning_rate=0.05))
    assert len(rows) == math.ceil(n / batch) * epochs
    assert sum(rows) == n * epochs

    rows.clear()
    fisher_diagonal(model, samples)
    assert rows == [n]


# ------------------------------------------------------------- fisher diagonal


def _fisher_case(case: str) -> tuple[NetModel, Windows]:
    """(model, samples) of one batched-Fisher case, named "<kind>_<rows>"."""
    if case == "grown_head":
        model = extend_output(init_model(dense_spec(n_classes=2, seed=16)), 2, seed=3)
        n, labels = 12, np.arange(12) % 4
    else:
        kind, rows = case.split("_", 1)
        model = init_model(conv_spec(seed=17) if kind == "conv" else dense_spec(seed=18))
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
    spec = dense_spec(seed=19)
    model = init_model(spec)
    penalty = EWCPenalty(
        lam=0.0, theta_star=model.parameters.copy(), fisher=np.ones(spec.param_count)
    )
    with pytest.raises(ConfigurationError, match="no penalty"):
        loss_and_gradient(model, batch_of(spec, 3), [0, 1, 2], penalty, per_sample_squares=True)


def test_fisher_is_nonnegative():
    spec = dense_spec(seed=12)
    model = init_model(spec)
    samples = windows_of(batch_of(spec, 6, seed=6), np.arange(6) % 3)
    fisher = fisher_diagonal(model, samples)
    assert fisher.shape == model.parameters.shape
    assert np.all(fisher >= 0.0)


def test_fisher_is_zero_where_logits_cannot_move():
    # zero output weights: logits equal the output bias regardless of the
    # earlier layers, so every coordinate below the head has zero gradient
    spec = dense_spec(seed=13)
    model = init_model(spec)
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
    spec = NetSpec(kind="dense", input_shape=(3, 1), n_classes=2, hidden=(1, 1), seed=14)
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
    spec = dense_spec(n_classes=2, seed=15)
    model = init_model(spec)
    x = batch_of(spec, 9, seed=8)
    from pseudoreplay.classifier import _forward_cached

    old_logits, _ = _forward_cached(model, x)
    grown = extend_output(model, 1, seed=99)
    assert grown.spec.n_classes == 3
    new_logits, _ = _forward_cached(grown, x)
    np.testing.assert_array_equal(new_logits[:, :2], old_logits)


def test_extend_output_is_deterministic_and_seed_sensitive():
    model = init_model(dense_spec(n_classes=2, seed=16))
    a = extend_output(model, 2, seed=1)
    b = extend_output(model, 2, seed=1)
    c = extend_output(model, 2, seed=2)
    np.testing.assert_array_equal(a.parameters, b.parameters)
    assert not np.array_equal(a.parameters, c.parameters)


def test_pad_parameters_layout_and_fill():
    old = dense_spec(n_classes=2, seed=17)
    new = dense_spec(n_classes=4, seed=17)
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
    spec = NetSpec(kind="dense", input_shape=(2, 1), n_classes=2, hidden=(4, 3), seed=2)
    single = fit_ensemble(spec, samples, TrainConfig(epochs=5, batch_size=4, learning_rate=0.01), seed=0, n_members=1)
    member = single.members[0]
    tripled = Ensemble(members=[member, member, member], standardizer=single.standardizer)
    np.testing.assert_array_equal(predict(tripled, samples), predict(single, samples))


def test_averaged_probabilities_decide_the_prediction():
    # member A is mildly sure of class 0, member B is emphatic about class 1
    spec = NetSpec(kind="dense", input_shape=(2, 1), n_classes=3, hidden=(4, 3), seed=0)

    def biased_model(bias):
        layers = [
            (np.zeros_like(w), np.zeros_like(b))
            for w, b in unpack_parameters(spec, init_model(spec).parameters)
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
    spec = NetSpec(kind="dense", input_shape=(2, 1), n_classes=2, hidden=(4, 3), seed=0)
    layers = [
        (np.zeros_like(w), np.zeros_like(b))
        for w, b in unpack_parameters(spec, init_model(spec).parameters)
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
        spec, train_samples, TrainConfig(epochs=30, batch_size=8, learning_rate=0.02), seed=4, n_members=5
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
    a = fit_ensemble(spec, samples, config, seed=5, n_members=3)
    b = fit_ensemble(spec, samples, config, seed=5, n_members=3)
    assert not np.array_equal(a.members[0].parameters, a.members[1].parameters)
    for ma, mb in zip(a.members, b.members, strict=True):
        np.testing.assert_array_equal(ma.parameters, mb.parameters)


# ----------------------------------------------------------------- checkpoints


def test_ensemble_checkpoint_round_trip(tmp_path):
    samples = cluster_samples(6, seed=11)
    spec = NetSpec(kind="dense", input_shape=(2, 1), n_classes=2, hidden=(4, 3))
    ens = fit_ensemble(samples=samples, spec=spec, config=TrainConfig(epochs=2, batch_size=4, learning_rate=0.01), seed=1, n_members=2)
    path = tmp_path / "ens.json"
    save_ensemble(path, ens)
    loaded = load_ensemble(path)
    np.testing.assert_array_equal(loaded.standardizer.mean, ens.standardizer.mean)
    for ma, mb in zip(loaded.members, ens.members, strict=True):
        np.testing.assert_array_equal(ma.parameters, mb.parameters)
    np.testing.assert_array_equal(predict(loaded, samples), predict(ens, samples))


def test_checkpoint_parameter_count_is_verified(tmp_path):
    import json

    spec = dense_spec()
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "standardizer": {"mean": [0.0], "std": [1.0]},
        "members": [{"spec": spec.to_dict(), "parameters": [0.0, 1.0]}],
    }))
    with pytest.raises(ConfigurationError, match="parameters"):
        load_ensemble(path)
