"""Release gate: eight end-to-end checks, each printing one PASS/FAIL line.

These run at full benchmark scale with their stated tolerances and runtime
bounds, so this module is slower than the unit suites.
"""

import json
import re
import time
from dataclasses import replace

import numpy as np
import pytest

from _oracles import (
    fd_gradient,
    fd_penalty_gradient,
    knn_bruteforce,
    metric_oracle,
    quadratic_penalty,
    relative_errors,
    segment_fit,
)
from conftest import fisher_weighted_movement, make_samples, task1_fishers
from pseudoreplay import (
    ConfusionMatrix,
    EWCPenalty,
    GeneratorConfig,
    NetModel,
    NetSpec,
    RunSettings,
    TrainConfig,
    aggregate,
    audit_memory,
    audit_replay_purity,
    compare_strategies,
    default_synthetic_config,
    fit_generator,
    generate,
    init_model,
    loss_and_gradient,
    metrics,
    run_strategy,
    synthesize_stream,
)
from pseudoreplay.classifier import pad_parameters
from pseudoreplay.cli import cmd_run, main
from pseudoreplay.continual import TaskSequence

pytestmark = pytest.mark.filterwarnings("ignore::pseudoreplay.metrics.MetricWarning")


def _gate(capsys, index, label, problems, elapsed=None):
    status = "PASS" if not problems else "FAIL " + "; ".join(problems)
    timing = f" [{elapsed:.1f}s]" if elapsed is not None else ""
    with capsys.disabled():
        print(f"\ngate {index}/8 {label}: {status}{timing}")
    assert not problems, "; ".join(problems)


def _benchmark_net() -> NetSpec:
    return NetSpec(kind="dense", input_shape=(50, 2), n_classes=2)


@pytest.fixture(scope="module")
def benchmark_seq():
    trials = synthesize_stream(default_synthetic_config())
    return TaskSequence.from_trials(trials, window=50)


@pytest.fixture(scope="module")
def benchmark_comparison(benchmark_seq):
    """Default three-class benchmark, five repetitions; shared by gates 4/5."""
    settings = RunSettings(net=_benchmark_net(), train=TrainConfig(), n_members=5)
    started = time.perf_counter()
    comp = compare_strategies(
        benchmark_seq,
        settings,
        strategies=("baseline", "finetune", "rcl"),
        repetitions=5,
        master_seed=0,
    )
    return comp, time.perf_counter() - started


# --------------------------------------------------------------------- gate 1


def _off_segment_count(gen, xs: np.ndarray, tol: float) -> int:
    """Samples that fail least-squares membership on their best candidate
    segment (origin j, end = a stored k-NN of j) or leave the unit range."""
    mem, nbr = gen.memory.reshape(gen.memory_size, -1), gen.neighbors
    k_eff = nbr.shape[1]
    a = np.repeat(mem, k_eff, axis=0)
    b = mem[nbr.reshape(-1)]
    d = b - a
    dd = np.einsum("ij,ij->i", d, d)
    dd = np.where(dd == 0.0, 1.0, dd)
    proj = xs @ d.T - np.einsum("ij,ij->i", a, d)
    u = proj / dd
    dist2 = (
        np.einsum("ij,ij->i", xs, xs)[:, None]
        - 2.0 * (xs @ a.T)
        + np.einsum("ij,ij->i", a, a)[None, :]
        - proj * u
    )
    dist2 = np.where((u < -tol) | (u > 1.0 + tol), np.inf, dist2)
    best = np.argmin(dist2, axis=1)

    scale = max(1.0, float(np.max(np.abs(mem))))
    bad = 0
    for n, s in enumerate(best):
        u_fit, residual = segment_fit(xs[n], a[s], b[s])
        if residual > tol * scale or not -tol <= u_fit <= 1.0 + tol:
            bad += 1
    return bad


def test_gate_1_generator_interpolation_sweep(capsys):
    started = time.perf_counter()
    problems = []
    rng = np.random.default_rng(20240815)
    for i in range(100):
        dim = int(rng.integers(2, 101))
        m = int(rng.integers(5, 201))
        k = int(rng.integers(1, 11))
        rows = rng.uniform(-3, 3, size=dim) + rng.normal(
            scale=rng.uniform(0.5, 2.0), size=(m, dim)
        )
        gen = fit_generator(0, make_samples(rows, 0), k=k, seed=int(rng.integers(2**32)))

        k_eff = gen.k_effective
        if k_eff != min(k, m - 1):
            problems.append(f"fit {i}: k_eff {k_eff} != min({k}, {m - 1})")
        for j in range(m):
            if list(gen.neighbors[j]) != knn_bruteforce(gen.memory.reshape(m, -1), j, k_eff):
                problems.append(f"fit {i}: neighbour mismatch at row {j}")
                break

        if i % 3 == 0 and m * k_eff <= 1500:
            count = m * k_eff + int(rng.integers(1, m + 1))  # forces replacement draws
        else:
            count = int(rng.integers(1, 2 * m + 1))
        out = generate(gen, count, seed=int(rng.integers(2**32)))
        if len(out) != count:
            problems.append(f"fit {i}: drew {len(out)} of {count}")
            continue
        bad = _off_segment_count(gen, out.x.reshape(count, -1), tol=1e-9)
        if bad:
            problems.append(f"fit {i}: {bad}/{count} samples off segment")
    elapsed = time.perf_counter() - started
    if elapsed >= 30.0:
        problems.append(f"runtime {elapsed:.1f}s >= 30s")
    _gate(capsys, 1, "generator interpolation sweep (100 fits)", problems, elapsed)


# --------------------------------------------------------------------- gate 2


def _check_gradient(problems, case, analytic, numeric, loss):
    """Record a failure line naming the worst coordinate if it is off by 1e-4.

    The loss magnitude is reported because the FD round-off floor scales with
    it, which tells a round-off failure apart from a wrong gradient.
    """
    errors = relative_errors(analytic, numeric)
    worst = int(np.argmax(errors))
    if errors[worst] >= 1e-4:
        problems.append(
            f"{case}: max relative error {errors[worst]:.2e} at coordinate {worst} "
            f"(analytic {analytic[worst]:.6e}, numeric {numeric[worst]:.6e}, loss {loss:.3e})"
        )


def test_gate_2_gradient_check_both_net_kinds(capsys):
    """FD gradient checks, with and without the EWC anchor.

    The anchored oracle is FD of the plain loss plus the penalty's own
    per-coordinate derivative: differencing the whole anchored loss (~1e4
    here) would put its round-off floor above the smallest gradients.
    """
    started = time.perf_counter()
    problems = []
    specs = (
        ("dense", NetSpec(kind="dense", input_shape=(50, 2), n_classes=3)),
        (
            "conv",
            NetSpec(
                kind="conv",
                input_shape=(50, 2),
                n_classes=3,
                hidden=(16, 8),
                conv=((4, 5, 2), (8, 5, 2)),
            ),
        ),
    )
    for label, spec in specs:
        if spec.param_count > 10_000:
            problems.append(f"{label}: {spec.param_count} parameters exceeds desk scale")
            continue
        rng = np.random.default_rng(spec.param_count)
        theta = init_model(spec, 0).parameters + 0.05 * rng.normal(size=spec.param_count)
        x = rng.normal(size=(6,) + spec.input_shape)
        y = np.arange(6) % spec.n_classes
        anchored = EWCPenalty(
            lam=3.7,
            theta_star=rng.normal(size=spec.param_count),
            fisher=rng.uniform(0.0, 2.0, size=spec.param_count),
        )
        model = NetModel(spec=spec, parameters=theta)

        plain_loss, plain_analytic = loss_and_gradient(model, x, y)
        plain_numeric = fd_gradient(
            lambda vec: loss_and_gradient(NetModel(spec=spec, parameters=vec), x, y)[0], theta
        )
        _check_gradient(problems, f"{label}/plain", plain_analytic, plain_numeric, plain_loss)

        anchored_loss, anchored_analytic = loss_and_gradient(model, x, y, anchored)
        penalty = quadratic_penalty(theta, anchored.theta_star, anchored.fisher, anchored.lam)
        if abs((anchored_loss - plain_loss) - penalty) > 1e-12 * penalty:
            problems.append(
                f"{label}/anchored: loss adds {anchored_loss - plain_loss:.15e}, penalty is {penalty:.15e}"
            )
        penalty_numeric = fd_penalty_gradient(theta, anchored.theta_star, anchored.fisher, anchored.lam)
        _check_gradient(
            problems, f"{label}/anchored", anchored_analytic, plain_numeric + penalty_numeric, anchored_loss
        )
    elapsed = time.perf_counter() - started
    if elapsed >= 60.0:
        problems.append(f"runtime {elapsed:.1f}s >= 60s")
    _gate(capsys, 2, "gradient check, both net kinds", problems, elapsed)


# --------------------------------------------------------------------- gate 3


def _max_shared_movement(run) -> float:
    worst = 0.0
    for m1, m2 in zip(run.ensembles[0].members, run.ensembles[1].members):
        anchor = pad_parameters(m1.spec, m2.spec, m1.parameters)
        mask = pad_parameters(m1.spec, m2.spec, np.ones(m1.parameters.size)) == 1.0
        worst = max(worst, float(np.abs(m2.parameters - anchor)[mask].max()))
    return worst


def test_gate_3_anchored_training_degeneracy_and_freezing(capsys, small_seq):
    problems = []
    net = NetSpec(kind="dense", input_shape=(50, 2), n_classes=2, hidden=(16, 8))
    fast = TrainConfig(epochs=40, batch_size=16, learning_rate=0.01)

    zero = run_strategy("ewc", small_seq, RunSettings(net, fast, ewc_lambda=0.0, n_members=3), seed=5)
    plain = run_strategy("finetune", small_seq, RunSettings(net, fast, n_members=3), seed=5)
    for ens_z, ens_p in zip(zero.ensembles, plain.ensembles):
        for mz, mp in zip(ens_z.members, ens_p.members, strict=True):
            if not np.array_equal(mz.parameters, mp.parameters):
                problems.append("zero-weight run differs bitwise from fine-tuning")
                break

    # intermediate anchor weights only need to train through cleanly
    for lam in (1.0, 100.0):
        run = run_strategy("ewc", small_seq, RunSettings(net, fast, ewc_lambda=lam, n_members=2), seed=5)
        if not all(np.isfinite(t.report.macro_f) for t in run.tasks):
            problems.append(f"weight {lam}: non-finite report")

    # plain SGD is only stable under lam * lr * fisher < 2, so the freezing
    # regime is probed with a tiny step size
    trials = synthesize_stream(default_synthetic_config(seed=11, trial_length=450, trials_per_class=2))
    toy_seq = TaskSequence.from_trials(trials, window=50)
    toy_net = NetSpec(kind="dense", input_shape=(50, 2), n_classes=2, hidden=(8, 4))
    frozen = run_strategy(
        "ewc",
        toy_seq,
        RunSettings(
            toy_net,
            TrainConfig(epochs=2, batch_size=16, learning_rate=1e-12, optimizer="sgd"),
            ewc_lambda=1e9,
            n_members=2,
        ),
        seed=3,
    )
    moved = _max_shared_movement(frozen)
    if not 0.0 < moved < 1e-3:
        problems.append(f"huge-weight run moved shared parameters by {moved:.3e}")

    # the tiny step size alone keeps that movement small, so also check that
    # the anchor holds what the Fisher weighs, at lam * lr * max(fisher) = 1
    momentum = TrainConfig(epochs=2, batch_size=16, learning_rate=0.01)
    unanchored = RunSettings(toy_net, momentum, ewc_lambda=0.0, n_members=2)
    free = run_strategy("ewc", toy_seq, unanchored, seed=3)
    lam = 1.0 / (momentum.learning_rate * max(f.max() for f in task1_fishers(free, toy_seq)))
    held = run_strategy("ewc", toy_seq, replace(unanchored, ewc_lambda=lam), seed=3)
    held_fw, free_fw = (fisher_weighted_movement(r, toy_seq) for r in (held, free))
    if not held_fw < 0.5 * free_fw:
        problems.append(f"Fisher-weighted movement {held_fw:.3e} held vs {free_fw:.3e} at lam 0")
    _gate(capsys, 3, "anchored training: zero-weight identity, huge-weight freeze", problems)


# --------------------------------------------------------------------- gate 4


def test_gate_4_forgetting_ordering_on_default_benchmark(capsys, benchmark_comparison):
    comp, elapsed = benchmark_comparison
    # (mean, std) over the repetitions of each strategy's task reports
    tasks = {
        strat: [aggregate([run.tasks[t].report for run in runs]) for t in range(len(runs[0].tasks))]
        for strat, runs in comp.runs.items()
    }
    problems = []
    for strat in ("baseline", "finetune", "rcl"):
        first = tasks[strat][0][0]
        floor = min(first.macro_precision, first.macro_recall, first.macro_f)
        if floor < 0.99:
            problems.append(f"{strat}: task-1 macro {floor:.4f} < 0.99")

    (rcl, rcl_std), (base, _), (ft, ft_std) = (tasks[s][1] for s in ("rcl", "baseline", "finetune"))
    if not rcl.macro_f >= base.macro_f - 0.01:
        problems.append(f"replay F {rcl.macro_f:.4f} < baseline {base.macro_f:.4f} - 0.01")
    if not base.macro_f - 0.01 > ft.macro_f:
        problems.append(f"fine-tuning F {ft.macro_f:.4f} not below baseline {base.macro_f:.4f} - 0.01")
    if not ft.macro_f > 1.0 / 3.0:
        problems.append(f"fine-tuning F {ft.macro_f:.4f} not above chance")

    if not ft.recall[1] <= rcl.recall[1] - 0.2:
        problems.append(
            f"middle-class recall: fine-tuning {ft.recall[1]:.3f} vs replay {rcl.recall[1]:.3f}"
        )

    if not rcl_std.macro_f <= ft_std.macro_f + 0.005:
        problems.append(f"replay F std {rcl_std.macro_f:.4f} > fine-tuning {ft_std.macro_f:.4f} + 0.005")

    if elapsed >= 600.0:
        problems.append(f"runtime {elapsed:.1f}s >= 600s")
    _gate(capsys, 4, "forgetting ordering, default benchmark (R=5)", problems, elapsed)


# --------------------------------------------------------------------- gate 5


def test_gate_5_replay_purity_and_memory_accounting(capsys, benchmark_seq, benchmark_comparison):
    comp, _ = benchmark_comparison
    problems = []
    for r, run in enumerate(comp.runs["rcl"]):
        purity = audit_replay_purity(run)
        if not purity.clean:
            problems.append(f"repetition {r}: {purity.violations[0]}")
        memory = audit_memory(run, GeneratorConfig())
        if not memory.clean:
            problems.append(f"repetition {r}: {memory.violations[0]}")

    budget = GeneratorConfig(memory_budget=40)
    settings = RunSettings(_benchmark_net(), TrainConfig(), budget, n_members=5)
    run = run_strategy("rcl", benchmark_seq, settings, seed=0)
    if not audit_replay_purity(run).clean:
        problems.append("budgeted run leaked raw previous-class data")
    if not audit_memory(run, budget).clean:
        problems.append("budgeted run failed memory accounting")
    if run.memory_footprint > 40 * 3:
        problems.append(f"footprint {run.memory_footprint} over 40/class")
    final_f = run.tasks[1].report.macro_f
    if final_f < 0.90:
        problems.append(f"budget-40 final-task macro F {final_f:.4f} < 0.90")
    _gate(capsys, 5, "replay purity and memory accounting (budget 40)", problems)


# --------------------------------------------------------------------- gate 6


def _final_task_means(report_text: str) -> dict[str, list[float]]:
    section = report_text.split("## Final-task comparison across classifiers", 1)[1]
    section = section.split("\n## ", 1)[0]
    rows: dict[str, list[float]] = {}
    for line in section.splitlines():
        for name in ("Baseline", "RCL"):
            if line.startswith(f"| {name} |"):
                rows[name] = [float(v) for v in re.findall(r"(\d\.\d{3}) \(", line)]
    return rows


def test_gate_6_classifier_flexibility_report(capsys, tmp_path):
    started = time.perf_counter()
    doc = {
        "data": {"synthetic": default_synthetic_config().to_dict()},
        "window": 50,
        "strategies": ["baseline", "rcl"],
        "repetitions": 2,
        "seed": 0,
        "ensemble_size": 5,
        "net": {"kind": "dense"},
        "variants": [
            {"name": "mlp", "net": {"kind": "dense"}},
            {"name": "cnn", "net": {"kind": "conv"}},
        ],
    }
    cfg = tmp_path / "flex.json"
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "results"

    problems = []
    code = main(["run", "--config", str(cfg), "--out", str(out)])
    if code != 0:
        problems.append(f"exit status {code}")
    else:
        report = (out / "report.md").read_text(encoding="utf-8")
        if "## Final-task comparison across classifiers" not in report:
            problems.append("final-task comparison table missing")
        else:
            rows = _final_task_means(report)
            if sorted(rows) != ["Baseline", "RCL"] or any(len(v) != 6 for v in rows.values()):
                problems.append(f"unexpected table rows: { {k: len(v) for k, v in rows.items()} }")
            else:
                labels = ["cnn P", "cnn R", "cnn F", "mlp P", "mlp R", "mlp F"]
                for name, got, base in zip(labels, rows["RCL"], rows["Baseline"]):
                    if not got >= base - 0.02:
                        problems.append(f"{name}: replay {got:.3f} < baseline {base:.3f} - 0.02")
    elapsed = time.perf_counter() - started
    _gate(capsys, 6, "dense-then-conv flexibility report", problems, elapsed)


# --------------------------------------------------------------------- gate 7


def test_gate_7_metric_oracle_agreement(capsys):
    problems = []
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 11))
        counts = rng.integers(0, 50, size=(n, n))
        if counts.sum() == 0:
            counts[0, 0] = 1
        got = metrics(ConfusionMatrix(counts))
        want = metric_oracle(counts)
        worst = max(
            worst,
            float(np.max(np.abs(got.precision - np.array(want["precision"])))),
            float(np.max(np.abs(got.recall - np.array(want["recall"])))),
            float(np.max(np.abs(got.f_score - np.array(want["f"])))),
            abs(got.macro_precision - want["macro_precision"]),
            abs(got.macro_recall - want["macro_recall"]),
            abs(got.macro_f - want["macro_f"]),
        )
    if worst > 1e-12:
        problems.append(f"worst oracle disagreement {worst:.3e} > 1e-12")

    hand = metrics(ConfusionMatrix(counts=np.array([[1, 1], [0, 2]])))
    if not (
        hand.precision[0] == 1.0
        and hand.recall[0] == 0.5
        and hand.recall[1] == 1.0
        and hand.precision[1] == pytest.approx(2.0 / 3.0)
        and hand.macro_precision == pytest.approx(5.0 / 6.0)
        and hand.macro_recall == pytest.approx(0.75)
        and hand.macro_f == pytest.approx((2.0 / 3.0 + 4.0 / 5.0) / 2.0)
    ):
        problems.append("hand-worked two-class example not reproduced")
    _gate(capsys, 7, "metric oracle agreement (1000 matrices)", problems)


# --------------------------------------------------------------------- gate 8


def test_gate_8_end_to_end_determinism(capsys, tmp_path):
    doc = {
        "data": {
            "synthetic": default_synthetic_config(
                seed=11, trial_length=450, trials_per_class=2
            ).to_dict()
        },
        "window": 50,
        "strategies": ["baseline", "finetune", "ewc", "rcl"],
        "repetitions": 2,
        "seed": 5,
        "ensemble_size": 2,
        "net": {"kind": "dense", "hidden": [8, 4]},
        "train": {"epochs": 10, "batch_size": 16, "learning_rate": 0.01},
    }
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps(doc), encoding="utf-8")

    problems = []
    for out in ("first", "second"):
        code = cmd_run(str(cfg), out_dir=str(tmp_path / out))
        if code != 0:
            problems.append(f"run into {out}/ exited {code}")
    if not problems:
        a = (tmp_path / "first" / "metrics.csv").read_bytes()
        b = (tmp_path / "second" / "metrics.csv").read_bytes()
        if a != b:
            problems.append("metrics.csv differs between identical invocations")
    _gate(capsys, 8, "byte-identical metrics across reruns", problems)
