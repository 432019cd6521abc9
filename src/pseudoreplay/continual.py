"""Class-incremental task orchestration and strategy benchmarks.

Task 0's class is the normal regime; task i (1-based) introduces the i-th
class. One loop, run_strategy, serves every strategy: each task builds its
training mix, trains, then evaluates on every class seen so far. The
strategies differ only in the mix and in whether the model is fresh:

- rcl: per-class generators produce pseudo data for every previous class; a
  fresh ensemble is trained per task on {pseudo previous + raw new}.
- finetune: one ensemble carried across tasks; each new task extends the
  output head and continues training on {raw normal + raw newest} only.
- ewc: finetune plus a quadratic anchor to the previous task's parameters
  weighted by a Fisher diagonal (zero weight on freshly appended head units).
- baseline: retrains a fresh ensemble per task on raw data of all classes
  seen so far.

Task 1 of finetune and ewc is the baseline's task 1. Classes are relabeled
to their position in the task order; every run records position -> original
id. All randomness derives from the run seed, never from the strategy name,
so two strategies given equal seeds share identical streams.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .classifier import (
    Ensemble,
    EWCPenalty,
    NetSpec,
    TrainConfig,
    extend_output,
    fisher_diagonal,
    fit_ensemble,
    member_probabilities,
    pad_parameters,
    predict,  # unused here, but perfbench's tracer wraps continual.predict by name
    train,
)
from .data import (
    SYNTHETIC_TRIAL_ID,
    TimeSeriesTrial,
    Windows,
    apply_standardizer,
    fit_standardizer,
    window_trial,
)
from .errors import (
    ConfigurationError,
    DataFormatError,
    PseudoreplayError,
    require_integer,
    require_number,
)
from .generator import ClassGenerator, GenerationRequest, fit_generator, generate
from .metrics import ConfusionMatrix, MetricReport, aggregate, confusion, metrics
from .seeding import derive_seed

STRATEGIES = ("rcl", "ewc", "finetune", "baseline")


@dataclass(eq=False)
class TaskSequence:
    """Windowed train/test splits per class position.

    train[p] and test[p] hold windows relabeled to position p; class_ids[p]
    is the original class id. Train and test never share a trial id.
    """

    class_ids: list[int]
    train: list[Windows]
    test: list[Windows]
    window: int
    channels: int

    def __post_init__(self):
        if len(self.class_ids) < 2:
            raise ConfigurationError("need at least 2 classes (one task)")
        if not (len(self.train) == len(self.test) == len(self.class_ids)):
            raise ConfigurationError("class_ids, train and test must align")
        for p in range(len(self.class_ids)):
            if len(self.train[p]) == 0:
                raise DataFormatError(f"class {self.class_ids[p]}: no training windows")
            if len(self.test[p]) == 0:
                raise DataFormatError(f"class {self.class_ids[p]}: no test windows")

    @property
    def n_tasks(self) -> int:
        return len(self.class_ids) - 1

    @classmethod
    def from_trials(
        cls,
        trials: list[TimeSeriesTrial],
        window: int,
        stride: int | None = None,
        train_trials: tuple[int, ...] = (1,),
        class_order: list[int] | None = None,
    ) -> "TaskSequence":
        """Split trials into train (listed trial ids) and test (the rest)."""
        present = sorted({t.class_id for t in trials})
        order = present if class_order is None else list(class_order)
        missing = [c for c in order if c not in present]
        if missing:
            raise ConfigurationError(f"classes {missing} not present in the data")
        if len(set(order)) != len(order):
            raise ConfigurationError("class_order contains duplicates")

        train_ids = np.asarray(train_trials, dtype=np.int64)
        train: list[Windows] = []
        test: list[Windows] = []
        for pos, cid in enumerate(order):
            windows = Windows.concat([
                window_trial(trial, window, stride)
                for trial in sorted((t for t in trials if t.class_id == cid), key=lambda t: t.trial_id)
            ])
            windows.y[:] = pos
            is_train = np.isin(windows.source[:, 0], train_ids)
            train.append(windows.select(is_train))
            test.append(windows.select(~is_train))
        channels = trials[0].n_channels if trials else 0
        return cls(class_ids=order, train=train, test=test, window=window, channels=channels)


@dataclass(frozen=True)
class GeneratorConfig:
    k: int = 5
    memory_budget: int | None = None
    pseudo_per_class: int | None = None  # None: match the new class's size

    def __post_init__(self):
        require_integer("k", self.k, least=1)
        if self.memory_budget is not None:
            require_integer("memory_budget", self.memory_budget, least=2)
        if self.pseudo_per_class is not None:
            require_integer("pseudo_per_class", self.pseudo_per_class, least=1)


@dataclass(eq=False)
class TaskResult:
    task_index: int  # 1-based
    class_ids: list[int]  # original ids covered by this task's evaluation
    cm: ConfusionMatrix
    report: MetricReport
    member_f_std: float
    replay_counts: dict[int, int]  # original class id -> pseudo samples used
    train_provenance: np.ndarray  # int64 [N, 3]: (position, trial_id, start) per row


@dataclass(eq=False)
class ContinualRun:
    strategy: str
    seed: int
    class_ids: list[int]
    tasks: list[TaskResult]
    generators: dict[int, ClassGenerator]  # position -> generator (rcl only)
    ensembles: list[Ensemble]  # one per task
    memory_footprint: int  # raw previous-class windows retained


def _evaluate(ensemble: Ensemble, seq: TaskSequence, upto: int) -> tuple[ConfusionMatrix, MetricReport, float]:
    """One forward pass per member: the ensemble prediction is the argmax of
    the mean member probability, as `predict` computes it, and the member
    spread comes from the same probabilities."""
    batch = Windows.concat(seq.test[: upto + 1])
    y_true = batch.y
    probs = member_probabilities(ensemble, batch)
    cm = confusion(y_true, np.argmax(probs.mean(axis=0), axis=1), upto + 1)
    report = metrics(cm)
    member_f = [
        metrics(confusion(y_true, np.argmax(p, axis=1), upto + 1)).macro_f for p in probs
    ]
    return cm, report, float(np.std(member_f))


def _fit_class_generator(
    seq: TaskSequence, pos: int, gen_config: GeneratorConfig, seed: int, task_index: int
) -> ClassGenerator:
    try:
        return fit_generator(
            class_id=pos,
            samples=seq.train[pos],
            k=gen_config.k,
            memory_budget=gen_config.memory_budget,
            seed=derive_seed(seed, "generator", pos),
        )
    except (ConfigurationError, DataFormatError) as exc:
        raise type(exc)(
            f"task {task_index}: generator for class {seq.class_ids[pos]}: {exc}"
        ) from exc


@dataclass(frozen=True)
class RunSettings:
    """Everything a strategy run needs besides the sequence and seed."""

    net: object  # NetSpec or list of NetSpec per task
    train: TrainConfig = TrainConfig()
    generator: GeneratorConfig = GeneratorConfig()
    ewc_lambda: float = 100.0
    n_members: int = 5

    def __post_init__(self):
        require_number("ewc_lambda", self.ewc_lambda, least=0)


def _carry_forward(
    ens: Ensemble,
    mix: Windows,
    settings: RunSettings,
    seed: int,
    task_index: int,
    snapshot: tuple[list[np.ndarray], list[np.ndarray]] | None,
) -> Ensemble:
    """Extend each member's head by one class and continue training on mix,
    anchored to snapshot's (parameters, Fisher diagonals) when given."""
    standardizer = fit_standardizer(mix)
    standardized = apply_standardizer(standardizer, mix)
    members = []
    for m_idx, member in enumerate(ens.members):
        extended = extend_output(member, 1, derive_seed(seed, "head", task_index, m_idx))
        penalty = None
        if snapshot is not None:
            anchors, fishers = snapshot
            penalty = EWCPenalty(
                lam=settings.ewc_lambda,
                theta_star=pad_parameters(member.spec, extended.spec, anchors[m_idx]),
                fisher=pad_parameters(member.spec, extended.spec, fishers[m_idx]),
            )
        member_cfg = replace(
            settings.train, shuffle_seed=derive_seed(seed, "task", task_index, "shuffle", m_idx)
        )
        members.append(train(extended, standardized, member_cfg, penalty).model)
    return Ensemble(members=members, standardizer=standardizer)


def run_strategy(
    strategy: str, seq: TaskSequence, settings: RunSettings, seed: int
) -> ContinualRun:
    """Run one strategy over every task of seq.

    Each task builds its training mix, trains, then evaluates on every class
    seen so far. finetune and ewc carry task 1's ensemble forward; ewc
    anchors it to a Fisher snapshot of the task before. A lam of 0.0 still
    takes the snapshots but adds no term to the loss, so its parameter
    trajectory is bit-identical to finetune under the same seed.
    """
    if strategy not in STRATEGIES:
        raise ConfigurationError(f"unknown strategy {strategy!r}; choose from {STRATEGIES}")
    nets = [settings.net] * seq.n_tasks if isinstance(settings.net, NetSpec) else list(settings.net)
    if len(nets) != seq.n_tasks:
        raise ConfigurationError(f"need one net spec or {seq.n_tasks}, got {len(nets)}")
    carried = strategy in ("finetune", "ewc")
    if carried and any(
        replace(net, n_classes=2, seed=0) != replace(nets[0], n_classes=2, seed=0) for net in nets
    ):
        raise ConfigurationError(
            f"{strategy} carries one model across tasks and cannot switch"
            " architectures; per-task net specs must match"
        )
    generators: dict[int, ClassGenerator] = {}
    ensembles: list[Ensemble] = []
    tasks: list[TaskResult] = []
    snapshot = None
    for i in range(1, seq.n_tasks + 1):
        carry = carried and i > 1
        replay: dict[int, int] = {}
        if strategy == "rcl":
            # pseudo data for every previous class, plus the raw new class
            for pos in range(i + 1):
                if pos not in generators:
                    generators[pos] = _fit_class_generator(seq, pos, settings.generator, seed, i)
            pseudo_count = settings.generator.pseudo_per_class or len(seq.train[i])
            parts = []
            for pos in range(i):
                parts.append(generate(
                    generators[pos],
                    GenerationRequest(pseudo_count),
                    seed=derive_seed(seed, "replay", i, pos),
                ))
                replay[seq.class_ids[pos]] = pseudo_count
            mix = Windows.concat(parts + [seq.train[i]])
        elif carry:
            # the carried model sees only raw normal data plus the newest class
            mix = Windows.concat([seq.train[0], seq.train[i]])
        else:
            mix = Windows.concat(seq.train[: i + 1])

        if carry:
            ens = _carry_forward(ensembles[-1], mix, settings, seed, i, snapshot)
        else:
            ens = fit_ensemble(
                replace(nets[i - 1], input_shape=(seq.window, seq.channels), n_classes=i + 1),
                mix,
                settings.train,
                seed=derive_seed(seed, "task", i),
                n_members=settings.n_members,
            )
        ensembles.append(ens)
        if strategy == "ewc" and i < seq.n_tasks:
            standardized = apply_standardizer(ens.standardizer, mix)
            snapshot = (
                [m.parameters.copy() for m in ens.members],
                [fisher_diagonal(m, standardized) for m in ens.members],
            )
        cm, report, spread = _evaluate(ens, seq, i)
        tasks.append(TaskResult(
            task_index=i,
            class_ids=seq.class_ids[: i + 1],
            cm=cm,
            report=report,
            member_f_std=spread,
            replay_counts=replay,
            train_provenance=np.column_stack([mix.y, mix.source]),
        ))

    if strategy == "rcl":
        footprint = sum(g.memory_size for g in generators.values())
    elif strategy == "baseline":
        footprint = sum(len(t) for t in seq.train)
    else:
        footprint = len(seq.train[0]) if seq.n_tasks >= 2 else 0
    return ContinualRun(
        strategy=strategy,
        seed=seed,
        class_ids=seq.class_ids,
        tasks=tasks,
        generators=generators,
        ensembles=ensembles,
        memory_footprint=footprint,
    )


@dataclass(eq=False)
class StrategySummary:
    strategy: str
    per_task_mean: list[MetricReport]
    per_task_std: list[MetricReport]
    member_spread: list[float]  # mean member macro-F std per task
    replay_counts: list[dict[int, int]]
    memory_footprint: int


@dataclass(eq=False)
class ComparisonReport:
    class_ids: list[int]
    repetitions: int
    strategies: list[str]
    summaries: dict[str, StrategySummary]
    runs: dict[str, list[ContinualRun]]
    failures: dict[str, str] = field(default_factory=dict)  # strategy -> message


def compare_strategies(
    seq: TaskSequence,
    settings: RunSettings,
    strategies: tuple[str, ...] = STRATEGIES,
    repetitions: int = 5,
    master_seed: int = 0,
    rep_seeds: list[int] | None = None,
) -> ComparisonReport:
    """Run each strategy `repetitions` times on seeds derived per (strategy,
    repetition) and aggregate per-task metrics across repetitions.

    rep_seeds overrides derivation with explicit per-repetition seeds shared
    by all strategies (useful for paired comparisons). A strategy whose run
    raises PseudoreplayError is recorded in failures with the message and
    left out of strategies, summaries and runs; the others still run.
    """
    require_integer("repetitions", repetitions, least=1)
    if not strategies:
        raise ConfigurationError("no strategies requested")
    for s in strategies:
        if s not in STRATEGIES:
            raise ConfigurationError(f"unknown strategy {s!r}; choose from {STRATEGIES}")
    if len(set(strategies)) != len(strategies):
        raise ConfigurationError(f"strategies must not repeat, got {list(strategies)}")
    if rep_seeds is not None and len(rep_seeds) != repetitions:
        raise ConfigurationError("rep_seeds length must equal repetitions")

    runs: dict[str, list[ContinualRun]] = {}
    summaries: dict[str, StrategySummary] = {}
    failures: dict[str, str] = {}
    for strat in strategies:
        strat_runs = []
        try:
            for r in range(repetitions):
                seed = rep_seeds[r] if rep_seeds is not None else derive_seed(
                    master_seed, "strategy", strat, "rep", r
                )
                strat_runs.append(run_strategy(strat, seq, settings, seed))
        except PseudoreplayError as exc:
            failures[strat] = str(exc)
            continue
        runs[strat] = strat_runs

        per_task_mean, per_task_std, spread = [], [], []
        for t in range(seq.n_tasks):
            mean, std = aggregate([run.tasks[t].report for run in strat_runs])
            per_task_mean.append(mean)
            per_task_std.append(std)
            spread.append(float(np.mean([run.tasks[t].member_f_std for run in strat_runs])))
        summaries[strat] = StrategySummary(
            strategy=strat,
            per_task_mean=per_task_mean,
            per_task_std=per_task_std,
            member_spread=spread,
            replay_counts=[dict(strat_runs[0].tasks[t].replay_counts) for t in range(seq.n_tasks)],
            memory_footprint=strat_runs[0].memory_footprint,
        )
    return ComparisonReport(
        class_ids=seq.class_ids,
        repetitions=repetitions,
        strategies=list(runs),
        summaries=summaries,
        runs=runs,
        failures=failures,
    )


# ---------------------------------------------------------------------------
# audits


@dataclass(eq=False)
class PurityAudit:
    clean: bool
    violations: list[str]


def audit_replay_purity(run: ContinualRun) -> PurityAudit:
    """Check no raw window of a previous class entered any task's training mix."""
    violations = []
    for task in run.tasks:
        prov = task.train_provenance
        raw_old = (prov[:, 0] < task.task_index) & (prov[:, 1] != SYNTHETIC_TRIAL_ID)
        for pos, trial_id, start in prov[raw_old].tolist():
            violations.append(
                f"task {task.task_index}: raw window of class {run.class_ids[pos]} "
                f"(trial {trial_id}, start {start})"
            )
    return PurityAudit(clean=not violations, violations=violations)


def audit_memory(run: ContinualRun, gen_config: GeneratorConfig) -> PurityAudit:
    """Check the reported footprint is the exact retained count within budget."""
    violations = []
    total = sum(g.memory_size for g in run.generators.values())
    if run.memory_footprint != total:
        violations.append(
            f"footprint {run.memory_footprint} != retained total {total}"
        )
    if gen_config.memory_budget is not None:
        for pos, gen in run.generators.items():
            if gen.memory_size > gen_config.memory_budget:
                violations.append(
                    f"class {run.class_ids[pos]}: memory {gen.memory_size} "
                    f"exceeds budget {gen_config.memory_budget}"
                )
    return PurityAudit(clean=not violations, violations=violations)
