import numpy as np
import pytest

from pseudoreplay import (
    GenerationRequest,
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
from conftest import fisher_weighted_movement, task1_fishers
from pseudoreplay import classifier, continual
from pseudoreplay.classifier import fit_ensemble, pad_parameters, predict
from pseudoreplay.continual import STRATEGIES, TaskSequence
from pseudoreplay.data import SYNTHETIC_TRIAL_ID, ClassSignal, SyntheticStreamConfig, Windows
from pseudoreplay.errors import ConfigurationError, DataFormatError
from pseudoreplay.metrics import confusion
from pseudoreplay.seeding import derive_seed

pytestmark = pytest.mark.filterwarnings("ignore::pseudoreplay.metrics.MetricWarning")


def small_net(n_classes: int = 2) -> NetSpec:
    return NetSpec(kind="dense", input_shape=(50, 2), n_classes=n_classes, hidden=(16, 8))


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
        assert np.all(seq.test[pos].y == pos)
    # trial 1 trains, trial 2 tests, 9 windows each at width 50
    assert [len(t) for t in seq.train] == [9, 9, 9]
    assert [len(t) for t in seq.test] == [9, 9, 9]


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


def test_sequence_window_longer_than_trials_fails(small_stream_config):
    trials = synthesize_stream(small_stream_config)
    with pytest.raises(DataFormatError, match="< window"):
        TaskSequence.from_trials(trials, window=451)


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
    ens = fit_ensemble(
        small_net(3), Windows.concat(small_seq.train), TrainConfig(epochs=2), seed=3, n_members=3
    )
    calls = []
    real = classifier.forward

    def counting(model, batch):
        calls.append(len(batch))
        return real(model, batch)

    monkeypatch.setattr(classifier, "forward", counting)
    cm, _, _ = continual._evaluate(ens, small_seq, 2)
    batch = Windows.concat(small_seq.test)
    assert calls == [len(batch)] * 3
    want = confusion(batch.y, predict(ens, batch), 3)
    np.testing.assert_array_equal(cm.counts, want.counts)


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
    first = generate(gen, GenerationRequest(9), seed=derive_seed(5, "replay", 1, 0))
    second = generate(gen, GenerationRequest(9), seed=derive_seed(5, "replay", 2, 0))
    assert not np.array_equal(first.x, second.x)


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
    with pytest.raises(DataFormatError, match=r"task 1: generator for class 0"):
        strategy_run("rcl", seq, seed=0, net=net, n_members=1)


# ------------------------------------------------------- sequential strategies


def test_finetune_task1_equals_a_plain_ensemble(small_seq):
    run = strategy_run("finetune", small_seq, seed=5, n_members=3)
    mix = Windows.concat([small_seq.train[0], small_seq.train[1]])
    plain = fit_ensemble(
        NetSpec(kind="dense", input_shape=(50, 2), n_classes=2, hidden=(16, 8)),
        mix,
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
    positions = {p[0] for p in ft.tasks[1].train_provenance}
    assert positions == {0, 2}
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


def test_sequential_strategies_refuse_architecture_switches(small_seq):
    conv = NetSpec(kind="conv", input_shape=(50, 2), n_classes=2, hidden=(8, 4), conv=((4, 5, 2), (8, 5, 2)))
    with pytest.raises(ConfigurationError, match="cannot switch"):
        strategy_run("finetune", small_seq, seed=0, net=[small_net(), conv], n_members=1)


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


def test_forced_equal_seeds_zero_out_the_spread(small_seq):
    settings = RunSettings(net=small_net(), train=FAST, n_members=2)
    comp = compare_strategies(
        small_seq, settings, strategies=("baseline", "rcl"), repetitions=2, rep_seeds=[7, 7]
    )
    for summary in comp.summaries.values():
        for task_std in summary.per_task_std:
            assert task_std.macro_f == 0.0
            assert np.all(task_std.f_score == 0.0)


def test_comparison_shapes_and_run_retention(small_seq):
    settings = RunSettings(net=small_net(), train=FAST, n_members=2)
    comp = compare_strategies(small_seq, settings, strategies=STRATEGIES, repetitions=2, master_seed=3)
    assert comp.strategies == list(STRATEGIES)
    assert comp.repetitions == 2
    for strat in STRATEGIES:
        assert len(comp.runs[strat]) == 2
        assert len(comp.summaries[strat].per_task_mean) == small_seq.n_tasks
        assert comp.runs[strat][0].seed != comp.runs[strat][1].seed
    # identical seeds across strategies would break independence; spot-check
    assert comp.runs["rcl"][0].seed != comp.runs["baseline"][0].seed


def test_comparison_is_reproducible(small_seq):
    settings = RunSettings(net=small_net(), train=FAST, n_members=2)
    a = compare_strategies(small_seq, settings, strategies=("rcl",), repetitions=2, master_seed=4)
    b = compare_strategies(small_seq, settings, strategies=("rcl",), repetitions=2, master_seed=4)
    for ta, tb in zip(a.summaries["rcl"].per_task_mean, b.summaries["rcl"].per_task_mean):
        assert ta.macro_f == tb.macro_f
        np.testing.assert_array_equal(ta.recall, tb.recall)


def test_failing_strategy_is_recorded_and_the_rest_still_run(small_stream_config):
    # one window per trial is too few to fit a generator, so rcl fails at
    # task 1 while baseline completes
    seq = TaskSequence.from_trials(synthesize_stream(small_stream_config), window=450)
    net = NetSpec(kind="dense", input_shape=(450, 2), n_classes=2, hidden=(4, 3))
    settings = RunSettings(net=net, train=FAST, n_members=1)
    comp = compare_strategies(seq, settings, strategies=("rcl", "baseline"), repetitions=1)
    assert list(comp.failures) == ["rcl"]
    assert "task 1: generator for class 0" in comp.failures["rcl"]
    assert comp.strategies == ["baseline"]
    assert list(comp.summaries) == list(comp.runs) == ["baseline"]
    assert len(comp.summaries["baseline"].per_task_mean) == seq.n_tasks


def test_rep_seeds_length_validated(small_seq):
    settings = RunSettings(net=small_net(), train=FAST)
    with pytest.raises(ConfigurationError):
        compare_strategies(small_seq, settings, strategies=("baseline",), repetitions=3, rep_seeds=[1])


# -------------------------------------------------- mixed classifier variants


def test_dense_then_conv_run_completes(small_seq):
    conv = NetSpec(
        kind="conv", input_shape=(50, 2), n_classes=2, hidden=(8, 4), conv=((4, 5, 2), (8, 5, 2))
    )
    nets = [small_net(), conv]
    for strategy in ("rcl", "baseline"):
        settings = RunSettings(net=nets, train=FAST, n_members=2)
        run = run_strategy(strategy, small_seq, settings, seed=2)
        assert run.ensembles[0].members[0].spec.kind == "dense"
        assert run.ensembles[1].members[0].spec.kind == "conv"
        assert run.ensembles[1].n_classes == 3
        assert run.tasks[1].report.macro_f > 0.5


def test_net_template_list_length_checked(small_seq):
    with pytest.raises(ConfigurationError):
        strategy_run("rcl", small_seq, seed=0, net=[small_net()], n_members=1)
