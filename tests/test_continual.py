import gc
import pickle
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pseudoreplay import (
    GeneratorConfig,
    NetSpec,
    RunSettings,
    TrainConfig,
    audit_memory,
    audit_replay_purity,
    compare_strategies,
    default_synthetic_config,
    generate,
    run_strategy,
    synthesize_stream,
)
from _oracles import (
    counting_confusion,
    metric_oracle,
    split_problems_reference,
    split_reference,
    two_pass_moments,
)
from conftest import fisher_weighted_movement, standardized_mix, task1_fishers
from pseudoreplay import classifier, continual
from pseudoreplay.classifier import (
    Ensemble,
    EWCPenalty,
    NetModel,
    extend_output,
    fisher_diagonal,
    fit_ensemble,
    init_model,
    pad_parameters,
    predict,
    train,
    unpack_parameters,
)
from pseudoreplay.continual import STRATEGIES, TaskSequence, split_trials
from pseudoreplay.data import (
    SYNTHETIC_TRIAL_ID,
    ClassSignal,
    SyntheticStreamConfig,
    TimeSeriesTrial,
    Windows,
    apply_standardizer,
    fit_standardizer,
)
from pseudoreplay.errors import ConfigurationError, DataFormatError, PseudoreplayError, TrainingError
from pseudoreplay.metrics import aggregate, confusion
from pseudoreplay.seeding import derive_seed

pytestmark = pytest.mark.filterwarnings("ignore::pseudoreplay.metrics.MetricWarning")


def small_net(n_classes: int = 2) -> NetSpec:
    return NetSpec(kind="dense", input_shape=(50, 2), n_classes=n_classes, hidden=(16, 8))


def small_conv() -> NetSpec:
    return NetSpec(kind="conv", input_shape=(50, 2), n_classes=2, hidden=(8, 4), conv=((4, 5, 2), (8, 5, 2)))


FAST = TrainConfig(epochs=40, batch_size=16, learning_rate=0.01)


def strategy_run(strategy: str, seq, seed: int, **settings):
    """run_strategy with RunSettings defaulting to small_net() and FAST."""
    settings = {"net": small_net(), "train": FAST, **settings}
    return run_strategy(strategy, seq, RunSettings(**settings), seed=seed)


def shared_movement(run) -> float:
    """Max-norm change of pre-extension coordinates between the task-1 and
    task-2 ensembles of a sequential run."""
    worst = 0.0
    for m1, m2 in zip(run.ensembles[0].members, run.ensembles[1].members):
        anchor = pad_parameters(m1.spec, m2.spec, m1.parameters)
        mask = pad_parameters(m1.spec, m2.spec, np.ones(m1.parameters.size), fill=0.0) == 1.0
        worst = max(worst, float(np.abs(m2.parameters - anchor)[mask].max()))
    return worst


# -------------------------------------------------------------- task sequence


def test_sequence_relabels_classes_by_position(small_stream_config):
    trials = synthesize_stream(small_stream_config)
    seq = TaskSequence.from_trials(trials, window=50, class_order=[2, 0, 1])
    assert seq.class_ids == [2, 0, 1]
    assert seq.n_tasks == 2
    for pos in range(3):
        assert np.all(seq.train[pos].y == pos)
        assert all(np.all(part.y == pos) for part in seq.test[pos])
    # trial 1 trains, trial 2 tests, 9 windows each at width 50
    assert [len(t) for t in seq.train] == [9, 9, 9]
    assert [sum(map(len, t)) for t in seq.test] == [9, 9, 9]


def test_sequence_rejects_bad_class_orders(small_stream_config):
    trials = synthesize_stream(small_stream_config)
    with pytest.raises(ConfigurationError, match="not present"):
        TaskSequence.from_trials(trials, window=50, class_order=[0, 7])
    with pytest.raises(ConfigurationError, match="duplicates"):
        TaskSequence.from_trials(trials, window=50, class_order=[0, 0, 1])


def test_sequence_requires_train_and_test_windows(small_stream_config):
    trials = synthesize_stream(small_stream_config)
    with pytest.raises(DataFormatError, match="no training windows"):
        TaskSequence.from_trials(trials, window=50, train_trials=(9,))
    with pytest.raises(DataFormatError, match="no test windows"):
        TaskSequence.from_trials(trials, window=50, train_trials=(1, 2))


def test_sequence_refuses_trials_that_disagree_on_channel_count():
    rng = np.random.default_rng(0)
    trials = [
        TimeSeriesTrial(class_id=c, trial_id=t, channels=rng.normal(size=(40, 3 if c == 2 else 2)))
        for c in range(3) for t in (1, 2)
    ]
    seq, problems = split_trials(trials, window=8)
    assert seq is None
    assert [(type(p), str(p)) for p in problems] == [(DataFormatError, "trials disagree on channel count")]
    with pytest.raises(DataFormatError, match="^trials disagree on channel count$"):
        TaskSequence.from_trials(trials, window=8)


def test_sequence_window_longer_than_trials_fails(small_stream_config):
    trials = synthesize_stream(small_stream_config)
    with pytest.raises(DataFormatError, match="< window"):
        TaskSequence.from_trials(trials, window=451)


@st.composite
def split_arguments(draw):
    """from_trials arguments: up to four classes of trials of uneven length
    (trial ids may repeat within a class), a class order that may skip,
    repeat or name an absent class, train ids that may match nothing, and
    small windows and strides, zero included. About half the draws keep to
    values that split cleanly, so that both outcomes are common."""
    clean = draw(st.booleans())
    classes = [[0, 1, 2], [2, 0], [0, 1], [3, 1, 2]] + ([] if clean else [[1], []])
    ids = [[1, 2], [2, 1, 3], [1, 1, 2]] + ([] if clean else [[2], [1], [3, 3]])
    trials = [
        TimeSeriesTrial(class_id=cid, trial_id=trial_id, channels=np.zeros((length, 1)))
        for cid in draw(st.sampled_from(classes))
        for trial_id in draw(st.sampled_from(ids))
        for length in [draw(st.integers(6 if clean else 1, 30))]
    ]
    present = sorted({t.class_id for t in trials})
    return (
        draw(st.permutations(trials)),
        draw(st.integers(1 if clean else 0, 6)),
        draw(st.none() | st.integers(1 if clean else 0, 3)),
        (1,) if clean else tuple(draw(st.lists(st.integers(0, 4), max_size=3))),
        draw(st.none() | st.permutations(present))
        if clean else draw(st.none() | st.lists(st.integers(0, 4), max_size=4)),
    )


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(args=split_arguments())
def test_split_trials_matches_from_trials_and_the_reference(args):
    seq, problems = split_trials(*args)
    assert [(type(p), str(p)) for p in problems] == split_problems_reference(*args)
    try:
        want = split_reference(*args)
    except PseudoreplayError as exc:
        assert seq is None and problems, f"split_trials missed {exc!r}"
        assert (type(problems[0]), str(problems[0])) == (type(exc), str(exc))
        with pytest.raises(PseudoreplayError) as raised:
            TaskSequence.from_trials(*args)
        assert (type(raised.value), str(raised.value)) == (type(exc), str(exc))
        return
    assert problems == []
    for got in (seq, TaskSequence.from_trials(*args)):
        assert got.class_ids == want.class_ids
        for mine, ref in zip(got.train + got.test, want.train + want.test, strict=True):
            mine, ref = (Windows.concat(w) if isinstance(w, list) else w for w in (mine, ref))
            for name in ("x", "y", "source"):
                a, b = getattr(mine, name), getattr(ref, name)
                assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


def split_memory(test_trials: int) -> tuple[int, int]:
    """tracemalloc's peak and retained bytes of from_trials over two classes
    of one training trial and `test_trials` test trials each, every trial 400
    steps of 2 channels cut at stride 1 into 351 windows of 50."""
    rng = np.random.default_rng(2)
    trials = [
        TimeSeriesTrial(class_id=c, trial_id=t, channels=rng.normal(size=(400, 2)))
        for c in (0, 1) for t in range(1, 2 + test_trials)
    ]
    tracemalloc.start()
    try:
        seq = TaskSequence.from_trials(trials, window=50, stride=1)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [sum(map(len, parts)) for parts in seq.test] == [351 * test_trials] * 2
    return peak, retained


def test_splitting_copies_no_test_window():
    (peak_2, kept_2), (peak_4, kept_4) = split_memory(2), split_memory(4)
    added = 2 * 2 * 351  # test windows; a copy of each would take 800 bytes
    # y and source take 24 bytes per window; the windows themselves are views
    assert kept_4 - kept_2 < 48 * added, (kept_2, kept_4)
    assert peak_4 - peak_2 < 48 * added, (peak_2, peak_4)


def training_split(stride: int, train_trials: tuple[int, ...]):
    """from_trials over two classes of three 400-step trials of 2 channels,
    windows of 50: the sequence, its trials and the bytes it retains."""
    rng = np.random.default_rng(3)
    trials = [
        TimeSeriesTrial(class_id=c, trial_id=t, channels=rng.normal(size=(400, 2)))
        for c in (0, 1) for t in (1, 2, 3)
    ]
    tracemalloc.start()
    try:
        seq = TaskSequence.from_trials(trials, window=50, stride=stride, train_trials=train_trials)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return seq, trials, retained


def test_a_one_trial_training_split_is_a_view_of_its_trial():
    (coarse, _, kept_50), (fine, trials, kept_5) = training_split(50, (1,)), training_split(5, (1,))
    for p in (0, 1):
        assert np.shares_memory(fine.train[p].x, trials[3 * p].channels)  # trial 1 of class p
        assert not fine.train[p].x.flags.writeable
    added = sum(len(fine.train[p]) + sum(map(len, fine.test[p])) for p in (0, 1))
    added -= sum(len(coarse.train[p]) + sum(map(len, coarse.test[p])) for p in (0, 1))
    # y and source take 24 bytes per window; a copy of a training window would take 800
    assert kept_5 - kept_50 < 32 * added, (kept_50, kept_5)

    both, trials, _ = training_split(5, (1, 2))
    for p in (0, 1):
        assert len(both.train[p]) == 2 * 71
        assert not any(np.shares_memory(both.train[p].x, t.channels) for t in trials)


def ewc_peak_in_mix_bytes() -> float:
    """tracemalloc's peak while a 2-member ewc run trains and evaluates two
    tasks, in bytes of its task-1 training mix (4,002 windows of (50, 2))."""
    rng = np.random.default_rng(9)
    trials = [
        TimeSeriesTrial(class_id=c, trial_id=t, channels=rng.normal(3.0 * c, 1.0, size=(10050, 2)))
        for c in range(3) for t in (1, 2)
    ]
    seq = TaskSequence.from_trials(trials, window=50, stride=5)
    net = NetSpec(kind="dense", input_shape=(50, 2), n_classes=2, hidden=(4, 4))
    settings = RunSettings(net=net, train=TrainConfig(epochs=1, batch_size=256), n_members=2)
    mix_bytes = (len(seq.train[0]) + len(seq.train[1])) * seq.train[0].x[0].nbytes
    tracemalloc.start()
    try:
        run_strategy("ewc", seq, settings, seed=1)
        return tracemalloc.get_traced_memory()[1] / mix_bytes
    finally:
        tracemalloc.stop()


def test_an_ewc_task_holds_its_training_mix_once():
    # the mix itself, the Fisher's squared input rows and narrow activations;
    # one more standardized copy of the mix would take the peak past 3
    peak = ewc_peak_in_mix_bytes()
    assert peak < 2.75, f"peak {peak:.2f} x the training mix"


# ------------------------------------------------------------------ pseudo replay


def test_single_anomaly_run_structure(small_seq, small_stream_config):
    trials = synthesize_stream(small_stream_config)
    two_class = TaskSequence.from_trials(trials, window=50, class_order=[0, 1])
    run = strategy_run("rcl", two_class, seed=1, n_members=2)
    assert sorted(run.generators) == [0, 1]
    assert len(run.ensembles) == 1
    assert run.ensembles[0].n_classes == 2
    assert len(run.tasks) == 1


def test_evaluation_runs_each_member_forward_once(small_seq, monkeypatch):
    # runs of 4 windows split each 9-window test trial unevenly
    monkeypatch.setattr(continual, "_EVAL_BLOCK", 4 * 50 * 2)
    ens = fit_ensemble(
        small_net(3), *standardized_mix(Windows.concat(small_seq.train)), TrainConfig(epochs=2), seed=3,
        n_members=3,
    )
    seen = {id(m): [] for m in ens.members}
    real = classifier.forward

    def recording(model, batch):
        seen[id(model)].append(batch.copy())
        return real(model, batch)

    monkeypatch.setattr(classifier, "forward", recording)
    cm, _, _ = continual._evaluate(ens, small_seq, 2)
    batch = Windows.concat([part for parts in small_seq.test for part in parts])
    standardized = apply_standardizer(ens.standardizer, batch).x
    for batches in seen.values():  # every window once per member, in order
        assert len(batches) > 1
        np.testing.assert_array_equal(np.concatenate(batches), standardized)
    want = confusion(batch.y, predict(ens, batch), 3)
    np.testing.assert_array_equal(cm.counts, want.counts)


def test_blocked_evaluation_equals_one_block(small_seq, monkeypatch):
    for net in (small_net(3), replace(small_net(3), kind="conv")):
        ens = fit_ensemble(
            net, *standardized_mix(Windows.concat(small_seq.train)), TrainConfig(epochs=5), seed=4,
            n_members=4,
        )
        monkeypatch.setattr(continual, "_EVAL_BLOCK", 1 << 30)
        cm, report, spread = continual._evaluate(ens, small_seq, 2)
        for rows in (4, 5, 13):  # runs of 4 and 5 split the 9-window test trials; 13 holds each whole
            monkeypatch.setattr(continual, "_EVAL_BLOCK", rows * net.widest)
            got_cm, got_report, got_spread = continual._evaluate(ens, small_seq, 2)
            np.testing.assert_array_equal(got_cm.counts, cm.counts)
            for name in ("precision", "recall", "f_score"):
                np.testing.assert_array_equal(getattr(got_report, name), getattr(report, name))
            assert got_report.macro_f == report.macro_f
            assert got_spread == spread


def test_evaluation_reads_each_test_trial_where_it_lies(small_seq, monkeypatch):
    # runs of 4 windows split each 9-window test trial 4, 4, 1; every run is
    # a view of its own trial, and no block of test windows is copied
    monkeypatch.setattr(continual, "_EVAL_BLOCK", 4 * 50 * 2)
    ens = Ensemble(
        [init_model(small_net(3), s) for s in range(2)], fit_standardizer(Windows.concat(small_seq.train))
    )
    batches = []
    real = continual.member_probabilities

    def recording(ensemble, batch):
        batches.append(batch)
        return real(ensemble, batch)

    def refusing(parts):
        raise AssertionError("evaluation copied test windows with Windows.concat")

    monkeypatch.setattr(continual, "member_probabilities", recording)
    monkeypatch.setattr(Windows, "concat", staticmethod(refusing))
    continual._evaluate(ens, small_seq, 2)
    trials = [part for parts in small_seq.test for part in parts]
    assert [len(b) for b in batches] == [4, 4, 1] * len(trials)
    for batch, trial in zip(batches, (trial for trial in trials for _ in range(3))):
        assert np.shares_memory(batch.x, trial.x)


def test_member_spread_is_the_population_std_of_member_macro_f(small_seq):
    # untrained members with different init seeds disagree on the test windows
    members = [init_model(small_net(3), s) for s in range(4)]
    standardizer = fit_standardizer(Windows.concat(small_seq.train))
    _, _, spread = continual._evaluate(Ensemble(members, standardizer), small_seq, 2)
    batch = Windows.concat([part for parts in small_seq.test for part in parts])
    member_f = [
        metric_oracle(counting_confusion(batch.y, predict(Ensemble([m], standardizer), batch), 3))["macro_f"]
        for m in members
    ]
    assert len(set(member_f)) > 1, member_f
    assert spread == pytest.approx(two_pass_moments(member_f)[1], rel=1e-12, abs=0.0)


def test_evaluation_breaks_ties_toward_the_lower_class(small_seq):
    # a zero output layer gives every class one probability, so each
    # window's prediction is the tie rule's alone, as it is for predict
    parameters = init_model(small_net(3), 0).parameters
    for array in unpack_parameters(small_net(3), parameters)[-1]:
        array[:] = 0.0
    ens = Ensemble([NetModel(small_net(3), parameters)], fit_standardizer(Windows.concat(small_seq.train)))
    cm, _, _ = continual._evaluate(ens, small_seq, 2)
    assert cm.counts[:, 1:].sum() == 0
    assert cm.counts[:, 0].sum() == sum(len(part) for parts in small_seq.test for part in parts)


def evaluation_peak(net: NetSpec, per_class: int) -> int:
    """tracemalloc's peak in bytes while a 3-member ensemble of net evaluates
    a 3-class test set of per_class windows of shape (50, 2) per class."""
    rng = np.random.default_rng(8)
    ens = Ensemble(
        [init_model(net, s) for s in range(3)],
        fit_standardizer(Windows(rng.normal(size=(8, 50, 2)), np.zeros(8), np.zeros((8, 2)))),
    )
    parts = [
        Windows(rng.normal(p, 1.0, size=(per_class, 50, 2)), np.full(per_class, p),
                np.zeros((per_class, 2)))
        for p in range(3)
    ]
    seq = TaskSequence([0, 1, 2], parts, [[p] for p in parts])
    tracemalloc.start()
    try:
        continual._evaluate(ens, seq, 2)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_evaluation_memory_stays_bounded_as_the_test_set_grows():
    net = NetSpec(kind="dense", input_shape=(50, 2), n_classes=3, hidden=(16, 8))
    bound = 4 << 20  # bytes; one full copy of the larger test set is 7.7 MB
    for per_class in (400, 3200):
        peak = evaluation_peak(net, per_class)
        assert peak < bound, f"{per_class} windows per class: peak {peak} bytes"


def test_conv_evaluation_memory_stays_bounded_as_the_test_set_grows():
    # the second conv layer's patch matrix holds 1,680 elements per window,
    # 17 times the window itself, so blocks sized by the window overshoot
    net = NetSpec(kind="conv", input_shape=(50, 2), n_classes=3, hidden=(16, 8))
    bound = 4 << 20  # bytes; one full copy of the larger test set is 7.7 MB
    for per_class in (400, 3200):
        peak = evaluation_peak(net, per_class)
        assert peak < bound, f"{per_class} windows per class: peak {peak} bytes"


def test_well_separated_sequence_keeps_high_scores(small_seq):
    run = strategy_run("rcl", small_seq, seed=5, n_members=3)
    assert run.tasks[1].report.macro_f >= 0.95
    assert run.tasks[0].report.macro_f >= 0.95


def test_replay_mix_is_pure_and_counted(small_seq):
    run = strategy_run("rcl", small_seq, seed=5, n_members=3)
    audit = audit_replay_purity(run)
    assert audit.clean, audit.violations
    # task 2 trains on pseudo windows for both previous positions
    prov = run.tasks[1].train_provenance
    pseudo = [p for p in prov if p[1] == SYNTHETIC_TRIAL_ID]
    raw = [p for p in prov if p[1] != SYNTHETIC_TRIAL_ID]
    assert {p[0] for p in pseudo} == {0, 1}
    assert {p[0] for p in raw} == {2}
    assert run.tasks[1].replay_counts == {0: len(small_seq.train[2]), 1: len(small_seq.train[2])}
    assert run.memory_footprint == sum(len(t) for t in small_seq.train)


def test_purity_audit_flags_planted_raw_leakage(small_seq):
    run = strategy_run("rcl", small_seq, seed=5, n_members=2)
    run.tasks[1].train_provenance[0] = (0, 1, 0)  # raw window of an old class
    audit = audit_replay_purity(run)
    assert not audit.clean
    assert "task 2" in audit.violations[0]


def test_memory_audit_checks_footprint_and_budgets(small_seq):
    gen_cfg = GeneratorConfig(memory_budget=5)
    run = strategy_run("rcl", small_seq, seed=5, generator=gen_cfg, n_members=2)
    assert all(g.memory_size == 5 for g in run.generators.values())
    assert run.memory_footprint == 15
    assert audit_memory(run, gen_cfg).clean
    assert run.tasks[1].report.macro_f >= 0.9

    run.memory_footprint += 1
    assert not audit_memory(run, gen_cfg).clean
    run.memory_footprint -= 1
    assert not audit_memory(run, GeneratorConfig(memory_budget=4)).clean


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_memory_audit_judges_only_an_rcl_footprint_against_generator_memory(strategy):
    # finetune and ewc retain 12 raw normal windows and baseline all 36, none
    # of them in a generator; rcl's 36 are its generators' memory
    seq = TaskSequence.from_trials(
        synthesize_stream(default_synthetic_config(trial_length=600, trials_per_class=2)), window=50
    )
    run = strategy_run(strategy, seq, seed=0, train=TrainConfig(epochs=1), n_members=1)
    assert run.memory_footprint == {"finetune": 12, "ewc": 12}.get(strategy, 36)
    audit = audit_memory(run, GeneratorConfig())
    assert audit.clean, audit.violations


def test_pseudo_set_size_override(small_seq):
    run = strategy_run(
        "rcl", small_seq, seed=5, generator=GeneratorConfig(pseudo_per_class=4), n_members=2
    )
    assert run.tasks[1].replay_counts == {0: 4, 1: 4}


def test_generator_config_validation():
    GeneratorConfig(k=np.int64(3), memory_budget=2, pseudo_per_class=1)
    for bad, needle in (
        (dict(k=0), "k must be >= 1"),
        (dict(k=True), "k must be an integer"),
        (dict(k=2.5), "k must be an integer"),
        (dict(k=None), "k must be an integer"),
        (dict(memory_budget=1), "memory_budget must be >= 2"),
        (dict(memory_budget=False), "memory_budget must be an integer"),
        (dict(memory_budget=4.0), "memory_budget must be an integer"),
        (dict(pseudo_per_class=0), "pseudo_per_class must be >= 1"),
        (dict(pseudo_per_class="9"), "pseudo_per_class must be an integer"),
    ):
        with pytest.raises(ConfigurationError, match=needle):
            GeneratorConfig(**bad)


def test_replay_draws_differ_across_tasks(small_seq):
    # the same generator is asked for fresh draws at every task
    run = strategy_run("rcl", small_seq, seed=5, n_members=2)
    gen = run.generators[0]
    first = generate(gen, 9, seed=derive_seed(5, "replay", 1, 0))
    second = generate(gen, 9, seed=derive_seed(5, "replay", 2, 0))
    assert not np.array_equal(first.x, second.x)


def test_rcl_asks_every_previous_generator_for_its_task_seeded_draws(small_seq, monkeypatch):
    calls = []
    real = continual.generate

    def recording(gen, count, seed):
        calls.append((gen.class_id, count, seed))
        return real(gen, count, seed)

    monkeypatch.setattr(continual, "generate", recording)
    strategy_run("rcl", small_seq, seed=5, train=TrainConfig(epochs=1), n_members=1)
    assert calls == [
        (pos, len(small_seq.train[i]), derive_seed(5, "replay", i, pos))
        for i in range(1, small_seq.n_tasks + 1)
        for pos in range(i)
    ]


@pytest.mark.parametrize("strategy", ["ewc", "rcl"])
def test_each_traced_stage_is_called_through_its_continual_name(small_seq, monkeypatch, strategy):
    # perfbench times these stages by wrapping these names of continual, so a
    # call that bypasses one, or calls it another number of times, changes
    # what its per-layer metrics read without failing its checks
    log = []

    def counting(name, detail=lambda *args: None):
        real = getattr(continual, name)

        def wrapper(*args, **kwargs):
            log.append((name, detail(*args)))
            return real(*args, **kwargs)

        monkeypatch.setattr(continual, name, wrapper)

    counting("_task_step")  # marks where each task starts
    counting("member_probabilities", lambda ens, batch: np.column_stack([batch.y, batch.source]))
    counting("fisher_diagonal", lambda model, samples: id(model))
    counting("fit_generator", lambda pos, *rest: pos)
    counting("fit_standardizer")
    counting("apply_standardizer")
    run = strategy_run(strategy, small_seq, seed=5, train=TrainConfig(epochs=1), n_members=2)

    tasks = []
    for name, detail in log:
        if name == "_task_step":
            tasks.append([])
        else:
            tasks[-1].append((name, detail))
    assert len(tasks) == small_seq.n_tasks == 2
    generators = []
    for i, events in enumerate(tasks, 1):
        details = {name: [d for n, d in events if n == name] for name, _ in events}
        test = [part for parts in small_seq.test[: i + 1] for part in parts]
        windows = np.concatenate(details["member_probabilities"])
        assert len(windows) == 9 * (i + 1)  # 18 windows, then 27
        np.testing.assert_array_equal(windows, np.concatenate([np.column_stack([p.y, p.source]) for p in test]))
        fishers = [id(m) for m in run.ensembles[0].members] if strategy == "ewc" and i == 1 else []
        assert details.get("fisher_diagonal", []) == fishers
        assert len(details["fit_standardizer"]) == len(details["apply_standardizer"]) == 1
        generators += details.get("fit_generator", [])
    assert generators == ([0, 1, 2] if strategy == "rcl" else [])


def test_rcl_task1_tracks_baseline_on_separable_data(small_seq):
    rcl = strategy_run("rcl", small_seq, seed=5, n_members=3)
    base = strategy_run("baseline", small_seq, seed=5, n_members=3)
    assert abs(rcl.tasks[0].report.macro_f - base.tasks[0].report.macro_f) < 0.05


def test_rcl_is_deterministic(small_seq):
    a = strategy_run("rcl", small_seq, seed=9, n_members=2)
    b = strategy_run("rcl", small_seq, seed=9, n_members=2)
    for ta, tb in zip(a.tasks, b.tasks):
        np.testing.assert_array_equal(ta.cm.counts, tb.cm.counts)
    for ea, eb in zip(a.ensembles, b.ensembles):
        for ma, mb in zip(ea.members, eb.members):
            np.testing.assert_array_equal(ma.parameters, mb.parameters)


def test_generator_failure_names_task_and_class(small_stream_config):
    trials = synthesize_stream(small_stream_config)
    seq = TaskSequence.from_trials(trials, window=450)  # 1 window per trial
    net = NetSpec(kind="dense", input_shape=(450, 2), n_classes=2, hidden=(4, 3))
    message = "class 0: rcl needs 2 training windows to fit a generator, got 1"
    with pytest.raises(DataFormatError, match=message):
        strategy_run("rcl", seq, seed=0, net=net, n_members=1)


def count_training(monkeypatch) -> list[str]:
    """The names of the continual.fit_ensemble and classifier.train calls made
    from here on; every member, fresh or carried, trains through classifier.train."""
    calls = []
    for module, name in ((continual, "fit_ensemble"), (classifier, "train")):
        def counting(*args, real=getattr(module, name), name=name, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
    return calls


def test_rcl_refuses_a_too_small_last_class_before_it_trains(small_stream_config, monkeypatch):
    # only the last class's training trial is cut to one window, so a check
    # made when its generator is fitted would come after tasks 1 and 2 train
    trials = [
        replace(t, channels=t.channels[:50]) if (t.class_id, t.trial_id) == (2, 1) else t
        for t in synthesize_stream(small_stream_config)
    ]
    seq = TaskSequence.from_trials(trials, window=50)
    assert [len(t) for t in seq.train] == [9, 9, 1]
    calls = count_training(monkeypatch)
    message = "class 2: rcl needs 2 training windows to fit a generator, got 1"
    with pytest.raises(DataFormatError, match=message):
        strategy_run("rcl", seq, seed=0)
    assert calls == []
    settings = RunSettings(net=small_net(), train=TrainConfig(epochs=1), n_members=1)
    comp = compare_strategies(seq, settings, strategies=("rcl", "baseline"), repetitions=1)
    assert comp.failures == {"rcl": message}
    assert list(comp.runs) == ["baseline"]
    assert calls == ["fit_ensemble", "train"] * seq.n_tasks


def test_a_final_net_too_big_for_the_window_is_refused_before_training(monkeypatch):
    # the conv net is given at window 50, where it builds; at the sequence's
    # window of 8 its second stage has 4 steps for a kernel of 5
    trials = synthesize_stream(default_synthetic_config(trial_length=80, trials_per_class=2))
    seq = TaskSequence.from_trials(trials, window=8)
    conv = NetSpec(kind="conv", input_shape=(50, 2), n_classes=2)
    settings = RunSettings(net=small_net(), final_net=conv, train=TrainConfig(epochs=1), n_members=1)
    calls = count_training(monkeypatch)
    message = "kernel 5 exceeds input length 4"
    with pytest.raises(ConfigurationError, match=f"^{message}$"):
        run_strategy("rcl", seq, settings, seed=0)
    assert calls == []
    comp = compare_strategies(seq, settings, strategies=("rcl", "baseline"), repetitions=1)
    assert comp.failures == {"rcl": message, "baseline": message}
    assert comp.runs == {} and calls == []


# ------------------------------------------------------- sequential strategies


def test_finetune_task1_equals_a_plain_ensemble(small_seq):
    run = strategy_run("finetune", small_seq, seed=5, n_members=3)
    mix = Windows.concat([small_seq.train[0], small_seq.train[1]])
    plain = fit_ensemble(
        NetSpec(kind="dense", input_shape=(50, 2), n_classes=2, hidden=(16, 8)),
        *standardized_mix(mix),
        FAST,
        seed=derive_seed(5, "task", 1),
        n_members=3,
    )
    for ma, mb in zip(run.ensembles[0].members, plain.members, strict=True):
        np.testing.assert_array_equal(ma.parameters, mb.parameters)


def test_finetune_forgets_the_middle_class(small_seq):
    ft = strategy_run("finetune", small_seq, seed=5, n_members=3)
    rcl = strategy_run("rcl", small_seq, seed=5, n_members=3)
    drop = rcl.tasks[1].report.recall[1] - ft.tasks[1].report.recall[1]
    assert drop >= 0.2
    assert ft.tasks[0].report.macro_f >= 0.95  # task 1 itself is easy
    assert ft.memory_footprint == len(small_seq.train[0])


def test_finetune_trains_on_normal_plus_newest_only(small_seq):
    ft = strategy_run("finetune", small_seq, seed=5, n_members=2)
    # every normal row, then every row of the newest class
    rows = [len(small_seq.train[0]), len(small_seq.train[2])]
    np.testing.assert_array_equal(ft.tasks[1].train_provenance[:, 0], np.repeat([0, 2], rows))
    assert all(p[1] != SYNTHETIC_TRIAL_ID for p in ft.tasks[1].train_provenance)
    assert ft.ensembles[1].n_classes == 3


def test_zero_weight_anchor_is_bitwise_finetune(small_seq):
    ewc = strategy_run("ewc", small_seq, seed=5, ewc_lambda=0.0, n_members=3)
    ft = strategy_run("finetune", small_seq, seed=5, n_members=3)
    for ea, eb in zip(ewc.ensembles, ft.ensembles):
        for ma, mb in zip(ea.members, eb.members, strict=True):
            np.testing.assert_array_equal(ma.parameters, mb.parameters)
    for ta, tb in zip(ewc.tasks, ft.tasks):
        np.testing.assert_array_equal(ta.cm.counts, tb.cm.counts)


@pytest.mark.parametrize("anchored", [False, True])
def test_carry_forward_trains_each_member_on_its_own_head_and_shuffle_seeds(small_seq, anchored):
    # member m of task i grows its head from ("head", i, m) and shuffles with
    # ("task", i, "shuffle", m), bit for bit, with and without the EWC anchor
    config = TrainConfig(epochs=2, batch_size=16, learning_rate=0.01)
    settings = RunSettings(net=small_net(), train=config, ewc_lambda=3.0, n_members=2)
    old_mix, old_standardizer = standardized_mix(Windows.concat(small_seq.train[:2]))
    ens = fit_ensemble(small_net(), old_mix, old_standardizer, config, seed=8, n_members=2)
    fishers = [fisher_diagonal(m, old_mix) for m in ens.members] if anchored else None
    mix, standardizer = standardized_mix(Windows.concat([small_seq.train[0], small_seq.train[2]]))
    carried = continual._carry_forward(ens, mix, standardizer, settings, 7, 2, fishers)
    assert carried.standardizer is standardizer
    for m, (member, got) in enumerate(zip(ens.members, carried.members, strict=True)):
        extended = extend_output(member, 1, derive_seed(7, "head", 2, m))
        penalty = None
        if anchored:
            penalty = EWCPenalty(
                lam=3.0,
                theta_star=pad_parameters(member.spec, extended.spec, member.parameters),
                fisher=pad_parameters(member.spec, extended.spec, fishers[m]),
            )
        want = train(extended, mix, config, derive_seed(7, "task", 2, "shuffle", m), penalty)
        assert got.parameters.tobytes() == want.model.parameters.tobytes(), f"member {m}"


@pytest.mark.parametrize("strategy", ["baseline", "rcl", "finetune"])
def test_every_fresh_ensemble_gets_its_task_seed(small_seq, monkeypatch, strategy):
    # a strategy that trains a fresh ensemble at task i seeds it with
    # ("task", i); a carried strategy trains one only at task 1
    seeds = []
    real = continual.fit_ensemble

    def recording(spec, standardized, standardizer, config, seed, n_members=5):
        seeds.append(seed)
        return real(spec, standardized, standardizer, config, seed, n_members)

    monkeypatch.setattr(continual, "fit_ensemble", recording)
    strategy_run(strategy, small_seq, seed=5, train=TrainConfig(epochs=1), n_members=1)
    fresh = range(1, 2 if strategy == "finetune" else small_seq.n_tasks + 1)
    assert seeds == [derive_seed(5, "task", i) for i in fresh]


@pytest.mark.parametrize("strategy", ["baseline", "rcl"])
def test_every_fresh_ensemble_trains_on_its_mix_standardized_by_the_mix(small_seq, monkeypatch, strategy):
    # a standardizer fitted on the mix leaves every feature of it with mean 0 and std 1
    mixes = []
    real = continual.fit_ensemble

    def recording(spec, standardized, standardizer, config, seed, n_members=5):
        mixes.append(standardized.x.reshape(len(standardized), -1).copy())
        return real(spec, standardized, standardizer, config, seed, n_members)

    monkeypatch.setattr(continual, "fit_ensemble", recording)
    strategy_run(strategy, small_seq, seed=5, train=TrainConfig(epochs=1), n_members=1)
    assert len(mixes) == small_seq.n_tasks
    for x in mixes:
        np.testing.assert_allclose(x.mean(axis=0), 0.0, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(x.std(axis=0), 1.0, rtol=1e-12, atol=0.0)


def test_huge_anchor_weight_freezes_shared_parameters(small_stream_config):
    # plain SGD needs lr * lam * fisher < 2 to stay stable, so the freezing
    # regime is probed at a tiny step size; the contrast run shows normal
    # training moves these coordinates far beyond the threshold
    trials = synthesize_stream(default_synthetic_config(seed=11, trial_length=450, trials_per_class=2))
    seq = TaskSequence.from_trials(trials, window=50)
    net = NetSpec(kind="dense", input_shape=(50, 2), n_classes=2, hidden=(8, 4))
    frozen_cfg = TrainConfig(epochs=2, batch_size=16, learning_rate=1e-12, optimizer="sgd")
    frozen = strategy_run("ewc", seq, seed=3, net=net, train=frozen_cfg, ewc_lambda=1e9, n_members=2)
    movement = shared_movement(frozen)
    assert 0.0 < movement < 1e-3

    plain_cfg = TrainConfig(epochs=3, batch_size=16, learning_rate=0.01)
    contrast = strategy_run("ewc", seq, seed=3, net=net, train=plain_cfg, ewc_lambda=0.0, n_members=2)
    assert shared_movement(contrast) > 1e-3

    # the tiny step size alone keeps that movement small, so also check that
    # the anchor holds what the Fisher weighs: with momentum SGD at
    # lam * lr * max(fisher) = 1, inside its stable regime, the Fisher-weighted
    # movement must at least halve against the same run at lam 0
    momentum = TrainConfig(epochs=2, batch_size=16, learning_rate=0.01)
    free = strategy_run("ewc", seq, seed=3, net=net, train=momentum, ewc_lambda=0.0, n_members=2)
    lam = 1.0 / (momentum.learning_rate * max(f.max() for f in task1_fishers(free, seq)))
    held = strategy_run("ewc", seq, seed=3, net=net, train=momentum, ewc_lambda=lam, n_members=2)
    assert fisher_weighted_movement(held, seq) < 0.5 * fisher_weighted_movement(free, seq)


def _carry_with_anchor(lam: float, config: TrainConfig):
    """_carry_forward of one 2-class member on 20 clustered windows, anchored
    with a Fisher diagonal of ones, so lam * lr * max(fisher) = lam * lr."""
    rng = np.random.default_rng(5)
    y = np.repeat([0, 1], 10)
    x = rng.normal(scale=0.4, size=(20, 2, 1)) + np.where(y == 0, -2.0, 2.0)[:, None, None]
    mix = Windows(x=x, y=y, source=np.column_stack([np.ones(20), np.arange(20)]))
    member = init_model(NetSpec(kind="dense", input_shape=(2, 1), n_classes=2, hidden=(6, 4)), 1)
    ens = Ensemble(members=[member], standardizer=fit_standardizer(mix))
    settings = RunSettings(net=member.spec, train=config, ewc_lambda=lam, n_members=1)
    fishers = [np.ones(member.spec.param_count)]
    continual._carry_forward(ens, *standardized_mix(mix), settings, seed=3, task_index=2, fishers=fishers)


def test_stiff_anchor_warns_before_training(capsys):
    # the divergence test's anchor: lam * lr * max(fisher) = 1e12 under sgd
    diverging = TrainConfig(epochs=50, batch_size=4, learning_rate=1e6, optimizer="sgd")
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(TrainingError):
        _carry_with_anchor(1e6, diverging)
    err = capsys.readouterr().err
    assert "warning: task 2, member 0: ewc lam * lr * max(fisher) = 1e+12 >= 2," in err

    # the limit is 2 * (1 + beta): 3.0 warns under sgd, not under momentum 0.9
    for optimizer, warns in (("sgd", True), ("sgd_momentum", False)):
        config = TrainConfig(epochs=1, batch_size=4, learning_rate=0.1, optimizer=optimizer)
        _carry_with_anchor(30.0, config)
        err = capsys.readouterr().err
        assert ("member 0: ewc lam * lr * max(fisher) = 3 >= 2," in err) is warns, optimizer
        assert warns or err == ""

    # well below the limit, and a lam of 0, stay silent
    _carry_with_anchor(0.5, TrainConfig(epochs=2, batch_size=4, learning_rate=0.05))
    _carry_with_anchor(0.0, TrainConfig(epochs=2, batch_size=4, learning_rate=10.0, optimizer="sgd"))
    assert capsys.readouterr().err == ""


def test_moderate_anchor_weight_trades_plasticity_for_retention():
    # lightly trained first task keeps the Fisher diagonal informative
    trials = synthesize_stream(default_synthetic_config(seed=11, trial_length=1250, trials_per_class=3))
    seq = TaskSequence.from_trials(trials, window=50)
    net = NetSpec(kind="dense", input_shape=(50, 2), n_classes=2, hidden=(32, 16))
    light = TrainConfig(epochs=3, batch_size=16, learning_rate=0.01)

    ewc = strategy_run("ewc", seq, seed=5, net=net, train=light, ewc_lambda=1e6, n_members=3)
    ft = strategy_run("finetune", seq, seed=5, net=net, train=light, n_members=3)
    base = strategy_run("baseline", seq, seed=5, net=net, train=light, n_members=3)

    assert ewc.tasks[1].report.recall[1] > ft.tasks[1].report.recall[1]
    assert ewc.tasks[1].report.f_score[2] < base.tasks[1].report.f_score[2]


def test_negative_anchor_weight_rejected():
    with pytest.raises(ConfigurationError):
        RunSettings(net=small_net(), train=FAST, ewc_lambda=-1.0)


@pytest.mark.parametrize("lam", [float("nan"), float("inf")])
def test_non_finite_anchor_weight_rejected_before_training(lam):
    with pytest.raises(ConfigurationError, match="finite"):
        RunSettings(net=small_net(), train=FAST, ewc_lambda=lam)


@pytest.mark.parametrize("strategy", continual.CARRIED)
def test_sequential_strategies_refuse_architecture_switches(small_seq, monkeypatch, strategy):
    calls = count_training(monkeypatch)
    message = f"{strategy} carries one model across tasks and cannot switch architectures;"
    with pytest.raises(ConfigurationError, match=f"^{message}"):
        strategy_run(strategy, small_seq, seed=0, final_net=small_conv(), n_members=1)
    assert calls == []


@pytest.mark.parametrize("strategy", continual.CARRIED)
def test_a_one_task_carried_run_trains_its_final_net(small_stream_config, strategy):
    # with one task no model is carried into the final task's net
    seq = TaskSequence.from_trials(synthesize_stream(small_stream_config), window=50, class_order=[0, 1])
    run = strategy_run(strategy, seq, seed=0, final_net=small_conv(), n_members=1)
    assert [ens.members[0].spec.kind for ens in run.ensembles] == ["conv"]


@pytest.mark.parametrize("strategies, final_net, n_tasks", [
    (continual.CARRIED, small_conv(), 1),
    (continual.CARRIED, small_net(5), 2),
    (continual.CARRIED, None, 2),
    (("rcl", "baseline"), small_conv(), 2),
], ids=["one task", "head only", "no final net", "not carried"])
def test_carried_problems_allow_what_a_carried_model_can_follow(strategies, final_net, n_tasks):
    assert continual.carried_problems(strategies, small_net(), final_net, n_tasks) == []


@pytest.mark.parametrize("final_net", [small_conv(), replace(small_net(), hidden=(16, 4))], ids=["conv", "dense"])
def test_carried_problems_name_the_first_carried_strategy(final_net):
    problems = continual.carried_problems(("rcl", "finetune", "ewc"), small_net(), final_net, 2)
    assert [str(p) for p in problems] == [
        "finetune carries one model across tasks and cannot switch architectures;"
        " every task's net must match the first apart from the head"
    ]
    assert all(isinstance(p, ConfigurationError) for p in problems)


# -------------------------------------------------------------------- baseline


def test_baseline_task1_is_bitwise_finetune_task1(small_seq):
    base = strategy_run("baseline", small_seq, seed=5, n_members=3)
    ft = strategy_run("finetune", small_seq, seed=5, n_members=3)
    for ma, mb in zip(base.ensembles[0].members, ft.ensembles[0].members, strict=True):
        np.testing.assert_array_equal(ma.parameters, mb.parameters)
    np.testing.assert_array_equal(base.tasks[0].cm.counts, ft.tasks[0].cm.counts)


def test_point_mass_classes_score_perfectly():
    config = SyntheticStreamConfig(
        n_classes=3,
        channels=1,
        trial_length=100,
        trials_per_class=2,
        class_signals=(
            ClassSignal(mean=(0.0,), amplitude=0.0, frequency=0.1, noise_std=0.0),
            ClassSignal(mean=(1.0,), amplitude=0.0, frequency=0.1, noise_std=0.0),
            ClassSignal(mean=(2.0,), amplitude=0.0, frequency=0.1, noise_std=0.0),
        ),
        seed=0,
    )
    seq = TaskSequence.from_trials(synthesize_stream(config), window=50)
    net = NetSpec(kind="dense", input_shape=(50, 1), n_classes=2, hidden=(8, 4))
    cfg = TrainConfig(epochs=60, batch_size=4, learning_rate=0.05)
    run = strategy_run("baseline", seq, seed=1, net=net, train=cfg, n_members=2)
    assert run.tasks[-1].report.macro_f == 1.0


def test_baseline_sits_between_finetune_and_replay(small_seq):
    base = strategy_run("baseline", small_seq, seed=5, n_members=3)
    ft = strategy_run("finetune", small_seq, seed=5, n_members=3)
    rcl = strategy_run("rcl", small_seq, seed=5, n_members=3)
    b = base.tasks[1].report.macro_f
    assert ft.tasks[1].report.macro_f <= b <= rcl.tasks[1].report.macro_f + 0.05


def test_baseline_footprint_counts_all_raw_training_data(small_seq):
    base = strategy_run("baseline", small_seq, seed=5, n_members=2)
    assert base.memory_footprint == sum(len(t) for t in small_seq.train)


# ------------------------------------------------------------------ comparison


def test_unknown_strategy_rejected(small_seq):
    settings = RunSettings(net=small_net(), train=FAST)
    with pytest.raises(ConfigurationError, match="unknown strategy"):
        run_strategy("replay", small_seq, settings, seed=0)
    with pytest.raises(ConfigurationError, match="unknown strategy"):
        compare_strategies(small_seq, settings, strategies=("gan",), repetitions=1)
    with pytest.raises(ConfigurationError, match="must not repeat"):
        compare_strategies(small_seq, settings, strategies=("baseline", "baseline"), repetitions=1)


@pytest.mark.parametrize("master_seed", [1.5, True, "1", None])
def test_compare_strategies_refuses_a_non_integer_master_seed_before_training(
    small_seq, monkeypatch, master_seed
):
    def no_training(*args):
        raise AssertionError("trained before judging the master seed")

    monkeypatch.setattr(continual, "run_strategy", no_training)
    settings = RunSettings(net=small_net(), train=FAST, n_members=1)
    with pytest.raises(ConfigurationError, match="master_seed must be an integer") as err:
        compare_strategies(small_seq, settings, ("baseline", "rcl"), 1, master_seed)
    assert err.value.field == "master_seed"


def test_forced_equal_seeds_zero_out_the_spread(small_seq):
    settings = RunSettings(net=small_net(), train=FAST, n_members=2)
    for strat in ("baseline", "rcl"):
        runs = [run_strategy(strat, small_seq, settings, seed=7) for _ in range(2)]
        for t in range(small_seq.n_tasks):
            _, task_std = aggregate([run.tasks[t].report for run in runs])
            assert task_std.macro_f == 0.0
            assert np.all(task_std.f_score == 0.0)


def test_comparison_shapes_and_run_retention(small_seq):
    settings = RunSettings(net=small_net(), train=FAST, n_members=2)
    comp = compare_strategies(small_seq, settings, strategies=STRATEGIES, repetitions=2, master_seed=3)
    assert list(comp.runs) == list(STRATEGIES)
    assert comp.repetitions == 2
    for strat in STRATEGIES:
        assert len(comp.runs[strat]) == 2
        assert all(len(run.tasks) == small_seq.n_tasks for run in comp.runs[strat])
        assert comp.runs[strat][0].seed != comp.runs[strat][1].seed
    # identical seeds across strategies would break independence; spot-check
    assert comp.runs["rcl"][0].seed != comp.runs["baseline"][0].seed


def kept_by_comparison(seq, settings, repetitions: int):
    """baseline and rcl compared over `repetitions`, and the bytes tracemalloc
    still counts once the report is returned and garbage is collected."""
    gc.collect()
    tracemalloc.start()
    try:
        comp = compare_strategies(seq, settings, ("baseline", "rcl"), repetitions, master_seed=5)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return comp, kept


def test_a_comparison_keeps_no_model_per_repetition():
    seq = TaskSequence.from_trials(
        synthesize_stream(default_synthetic_config(trial_length=1000, trials_per_class=2)), window=50
    )
    net = NetSpec(kind="dense", input_shape=(50, 2), n_classes=3, hidden=(64, 32))
    settings = RunSettings(net=net, train=TrainConfig(epochs=1, batch_size=32), n_members=5)
    _, kept_1 = kept_by_comparison(seq, settings, 1)
    comp, kept_3 = kept_by_comparison(seq, settings, 3)
    ensemble_bytes = settings.n_members * net.param_count * 8  # the task-2 ensemble
    assert (kept_3 - kept_1) / 2 < ensemble_bytes, (kept_1, kept_3, ensemble_bytes)
    assert all(not run.ensembles for runs in comp.runs.values() for run in runs)
    run = run_strategy("baseline", seq, settings, seed=comp.runs["baseline"][0].seed)
    assert [ens.n_classes for ens in run.ensembles] == [2, 3]


def test_comparison_is_reproducible(small_seq):
    settings = RunSettings(net=small_net(), train=FAST, n_members=2)
    a = compare_strategies(small_seq, settings, strategies=("rcl",), repetitions=2, master_seed=4)
    b = compare_strategies(small_seq, settings, strategies=("rcl",), repetitions=2, master_seed=4)
    for ra, rb in zip(a.runs["rcl"], b.runs["rcl"], strict=True):
        for ta, tb in zip(ra.tasks, rb.tasks, strict=True):
            assert ta.report.macro_f == tb.report.macro_f
            np.testing.assert_array_equal(ta.report.recall, tb.report.recall)


def test_failing_strategy_is_recorded_and_the_rest_still_run(small_stream_config):
    # one window per trial is too few to fit a generator, so rcl fails
    # before task 1 while baseline completes
    seq = TaskSequence.from_trials(synthesize_stream(small_stream_config), window=450)
    net = NetSpec(kind="dense", input_shape=(450, 2), n_classes=2, hidden=(4, 3))
    settings = RunSettings(net=net, train=FAST, n_members=1)
    comp = compare_strategies(seq, settings, strategies=("rcl", "baseline"), repetitions=1)
    assert list(comp.failures) == ["rcl"]
    assert comp.failures["rcl"] == "class 0: rcl needs 2 training windows to fit a generator, got 1"
    assert list(comp.runs) == ["baseline"]
    assert len(comp.runs["baseline"][0].tasks) == seq.n_tasks


def test_variants_run_every_strategy_per_variant_under_method_labels(small_seq, monkeypatch):
    variants = {"mlp": small_net(), "cnn": small_conv()}
    settings = RunSettings(net=small_net(), train=replace(FAST, epochs=2), n_members=1)
    real = continual.run_strategy

    def diverging_conv_rcl(strategy, seq, run_settings, seed):
        if strategy == "rcl" and run_settings.final_net.kind == "conv":
            raise TrainingError("loss diverged")
        return real(strategy, seq, run_settings, seed)

    monkeypatch.setattr(continual, "run_strategy", diverging_conv_rcl)
    comp = compare_strategies(small_seq, settings, ("rcl", "baseline"), 1, 6, variants)
    assert comp.failures == {"rcl/cnn": "loss diverged"}
    assert list(comp.runs) == ["baseline/cnn", "rcl/mlp", "baseline/mlp"]
    assert [run.strategy for runs in comp.runs.values() for run in runs] == ["baseline", "rcl", "baseline"]
    # each variant's methods are the runs of that variant's final net alone
    for name, net in variants.items():
        alone = compare_strategies(small_seq, replace(settings, final_net=net), ("baseline",), 1, 6)
        ours, theirs = comp.runs[f"baseline/{name}"][0], alone.runs["baseline"][0]
        assert ours.seed == theirs.seed
        for a, b in zip(ours.tasks, theirs.tasks):
            np.testing.assert_array_equal(a.report.f_score, b.report.f_score)
    plain = compare_strategies(small_seq, replace(settings, net=small_net()), ("baseline",), 1, 6)
    assert list(plain.runs) == ["baseline"]


NOT_NETS = [[], (), "dense", [small_net()], [small_net()] * 2, [small_net(), None], {"kind": "dense"}]


@pytest.mark.parametrize("net", [None, *NOT_NETS])
def test_run_settings_take_only_net_specs(net):
    with pytest.raises(ConfigurationError, match="^net must be a NetSpec, got ") as err:
        RunSettings(net=net)
    assert err.value.field == "net"


@pytest.mark.parametrize("final_net", NOT_NETS)
def test_run_settings_take_a_net_spec_or_none_as_final_net(final_net):
    with pytest.raises(ConfigurationError, match="^final_net must be a NetSpec or None, got ") as err:
        RunSettings(net=small_net(), final_net=final_net)
    assert err.value.field == "final_net"


@pytest.mark.parametrize("field, value, kind", [
    ("train", {"epochs": 1}, "TrainConfig"),
    ("train", None, "TrainConfig"),
    ("train", GeneratorConfig(), "TrainConfig"),
    ("generator", {"k": 3}, "GeneratorConfig"),
    ("generator", None, "GeneratorConfig"),
    ("generator", TrainConfig(), "GeneratorConfig"),
], ids=["train-dict", "train-None", "train-GeneratorConfig", "generator-dict", "generator-None",
        "generator-TrainConfig"])
def test_run_settings_take_only_train_and_generator_configs(field, value, kind):
    with pytest.raises(ConfigurationError) as err:
        RunSettings(net=small_net(), **{field: value})
    assert str(err.value) == f"{field} must be a {kind}, got {value!r}"
    assert err.value.field == field


@pytest.mark.parametrize("n_members", [0, -1, True, 2.0])
def test_run_settings_refuse_a_member_count_below_one_or_not_an_integer(n_members):
    with pytest.raises(ConfigurationError, match="n_members must be") as err:
        RunSettings(net=small_net(), n_members=n_members)
    assert err.value.field == "n_members"


@pytest.mark.parametrize("name", ["", "a,b", "a/b", "a|b", "tab\t", 3])
def test_compare_strategies_refuses_a_variant_name_before_training(small_seq, monkeypatch, name):
    def no_training(*args):
        raise AssertionError("trained before judging the variant names")

    monkeypatch.setattr(continual, "run_strategy", no_training)
    settings = RunSettings(net=small_net(), train=FAST, n_members=1)
    with pytest.raises(ConfigurationError) as err:
        compare_strategies(small_seq, settings, ("baseline",), 1, 0, {"ok": small_net(), name: small_net()})
    assert err.value.field == "name"


@pytest.mark.parametrize("net, message", [
    (None, "final_net must be a NetSpec, got None"),
    ([small_net()], f"final_net must be a NetSpec, got {[small_net()]!r}"),
])
def test_compare_strategies_judges_every_variant_net_before_training(small_seq, monkeypatch, net, message):
    real = continual.fit_ensemble
    fits = []

    def counting(*args, **kwargs):
        fits.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(continual, "fit_ensemble", counting)
    settings = RunSettings(net=small_net(), train=FAST, n_members=1)
    with pytest.raises(ConfigurationError) as err:
        compare_strategies(small_seq, settings, ("baseline", "rcl"), 1, 0, {"a": small_net(), "b": net})
    assert str(err.value) == f"variant 'b': {message}"
    assert err.value.field == "final_net"
    assert fits == []


# -------------------------------------------------- mixed classifier variants


def test_dense_then_conv_run_completes(small_seq):
    for strategy in ("rcl", "baseline"):
        settings = RunSettings(net=small_net(), train=FAST, n_members=2, final_net=small_conv())
        run = run_strategy(strategy, small_seq, settings, seed=2)
        assert run.ensembles[0].members[0].spec.kind == "dense"
        assert run.ensembles[1].members[0].spec.kind == "conv"
        assert run.ensembles[1].n_classes == 3
        assert run.tasks[1].report.macro_f > 0.5


def task_bytes(task) -> list[bytes]:
    """One task's result as bytes: confusion counts, per-class P/R/F, member
    spread and training provenance."""
    r = task.report
    return [
        task.cm.counts.tobytes(), r.precision.tobytes(), r.recall.tobytes(), r.f_score.tobytes(),
        np.float64(task.member_f_std).tobytes(), task.train_provenance.tobytes(),
    ]


def step_bytes(task, ensemble) -> list[bytes]:
    """What one task step produced, as bytes: task_bytes and each member's parameters."""
    return task_bytes(task) + [m.parameters.tobytes() for m in ensemble.members]


def test_a_variant_changes_only_the_final_tasks_net(small_seq):
    settings = RunSettings(net=small_net(), train=replace(FAST, epochs=2), n_members=2)
    variants = {"a": small_net(), "b": small_conv()}
    comp = compare_strategies(small_seq, settings, ("rcl", "baseline"), 2, 8, variants)
    assert not comp.failures
    for strategy in ("rcl", "baseline"):
        dense, mixed = comp.runs[f"{strategy}/a"], comp.runs[f"{strategy}/b"]
        for run_a, run_b in zip(dense, mixed, strict=True):
            assert run_a.seed == run_b.seed
            for task_a, task_b in zip(run_a.tasks[:-1], run_b.tasks[:-1], strict=True):
                assert task_bytes(task_a) == task_bytes(task_b), (strategy, task_a.task_index)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_final_tasks_forked_from_one_state_equal_whole_runs(small_seq, strategy, seed):
    # tasks 1..n-1 folded once, then the final task once per net from that
    # state; a carried strategy cannot switch nets, so it forks one net twice
    finals = [small_net(), small_net() if strategy in continual.CARRIED else small_conv()]
    config = TrainConfig(epochs=2, batch_size=16, learning_rate=0.01)
    settings = RunSettings(net=small_net(), train=config, n_members=2)
    n = small_seq.n_tasks
    state, prefix = continual.RunState({}), []
    for i in range(1, n):
        state, task = continual._task_step(strategy, small_seq, settings, seed, state, i)
        prefix.append(step_bytes(task, state.ensemble))
    before = pickle.dumps(state)
    for final in finals:
        variant = replace(settings, final_net=final)
        fork, task = continual._task_step(strategy, small_seq, variant, seed, state, n)
        run = run_strategy(strategy, small_seq, variant, seed)
        want = [step_bytes(t, e) for t, e in zip(run.tasks, run.ensembles, strict=True)]
        assert prefix + [step_bytes(task, fork.ensemble)] == want, final.kind
    assert pickle.dumps(state) == before

