"""Class-incremental task orchestration and strategy benchmarks.

Task 0's class is the normal regime; task i (1-based) introduces the i-th
class. run_strategy folds _task_step over the tasks: each step builds its
training mix, trains, evaluates on every class seen so far, and hands the next
a RunState of the generators, the last ensemble and ewc's Fisher diagonals. The
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

import sys
from dataclasses import dataclass, field, replace
from itertools import chain, product

import numpy as np

from .classifier import (
    Ensemble,
    EWCPenalty,
    NetSpec,
    TrainConfig,
    _train_members,
    extend_output,
    fisher_diagonal,
    fit_ensemble,
    member_probabilities,
    pad_parameters,
    predict,  # unused here, but perfbench's tracer wraps continual.predict by name
)
from .data import (
    SYNTHETIC_TRIAL_ID,
    StandardizationParams,
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
from .generator import ClassGenerator, fit_generator, generate
from .metrics import ConfusionMatrix, MetricReport, confusion, metrics
from .seeding import derive_seed

STRATEGIES = ("rcl", "ewc", "finetune", "baseline")
CARRIED = ("ewc", "finetune")  # the strategies that carry one model across tasks


@dataclass(eq=False)
class TaskSequence:
    """Windowed train/test splits per class position.

    train[p] holds windows relabeled to position p: the read-only window_trial
    view of a class's one training trial, or a copy of the windows of its
    several training trials in trial id order. test[p] holds one such view
    per test trial in trial id order; class_ids[p] is the original id. No
    trial is in both. Every window has one shape, (window, channels);
    construction refuses a repeated class id, a second shape and a window
    in train[p] or test[p] not labelled p.
    """

    class_ids: list[int]
    train: list[Windows]
    test: list[list[Windows]]

    def __post_init__(self):
        # too few classes is reported ahead of misaligned lists
        if len(self.class_ids) >= 2 and not (len(self.train) == len(self.test) == len(self.class_ids)):
            raise ConfigurationError("class_ids, train and test must align")
        if repeated := sorted({c for c in self.class_ids if self.class_ids.count(c) > 1}):
            raise ConfigurationError(f"class_ids repeat {repeated}")
        counts = zip(self.class_ids, map(len, self.train), (sum(map(len, t)) for t in self.test))
        problems = _split_rule_problems(len(self.class_ids), counts)
        if problems:
            raise problems[0]
        shape = self.train[0].window_shape
        for pos, (cid, train, test) in enumerate(zip(self.class_ids, self.train, self.test)):
            for part in [train, *test]:
                if part.window_shape != shape:
                    raise DataFormatError(f"inconsistent window shapes: {part.window_shape} vs {shape}")
                if np.any(part.y != pos):
                    raise DataFormatError(f"class {cid}: a window not labelled with its position {pos}")

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
        """Split trials into train (listed trial ids) and test (the rest), or
        raise the first of split_trials' problems."""
        seq, problems = split_trials(trials, window, stride, train_trials, class_order)
        if problems:
            raise problems[0]
        return seq


def _split_rule_problems(n_classes: int, counts) -> list[PseudoreplayError]:
    """The rules of every task split, broken in this order: at least 2
    classes, then, for each (class id, training count, test count) in
    `counts`, some training and some test windows."""
    problems = [ConfigurationError("need at least 2 classes (one task)")] if n_classes < 2 else []
    for cid, *sizes in counts:
        problems += [
            DataFormatError(f"class {cid}: no {kind} windows")
            for kind, size in zip(("training", "test"), sizes) if not size
        ]
    return problems


def split_trials(
    trials: list[TimeSeriesTrial], window: int, stride: int | None = None,
    train_trials: tuple[int, ...] = (1,), class_order: list[int] | None = None,
) -> tuple[TaskSequence | None, list[PseudoreplayError]]:
    """The task sequence these arguments split into, or None with every
    reason they do not, in the order they are found: classes in class_order
    absent from the data, a repeated class, trials that disagree on channel
    count, then the cut, then the split rules. The trials of each class in
    use are cut by window_trial in class order, then trial id order. A window
    or stride below 1 ends the list. Cutting stops at the first trial shorter
    than the window, so only that one is listed, and no class's split is
    judged after it; fewer than 2 classes still is."""
    present = sorted({t.class_id for t in trials})
    order = present if class_order is None else list(class_order)
    missing = [c for c in order if c not in present]
    problems = [ConfigurationError(f"classes {missing} not present in the data")] if missing else []
    if len(set(order)) != len(order):
        problems.append(ConfigurationError("class_order contains duplicates"))
    if len({t.n_channels for t in trials}) > 1:
        problems.append(DataFormatError("trials disagree on channel count"))
    parts = {c: ([], []) for c in order if c in present}  # class id -> (training, test) windows
    by_id = sorted(trials, key=lambda t: t.trial_id)  # stable, so equal ids keep their order
    try:
        for t in (t for c in parts for t in by_id if t.class_id == c):
            parts[t.class_id][t.trial_id not in train_trials].append(window_trial(t, window, stride))
    except ConfigurationError as exc:  # window or stride below 1
        return None, problems + [exc]
    except DataFormatError as exc:  # a trial shorter than the window: no split is judged after it
        problems.append(exc)
        parts = {}
    # a class's list of cut trials is empty exactly when it has no windows
    problems += _split_rule_problems(len(order), ((cid, *map(len, split)) for cid, split in parts.items()))
    if problems:
        return None, problems
    for pos, (train, test) in enumerate(parts.values()):
        for part in train + test:
            part.y[:] = pos
    train = [p[0] if len(p) == 1 else Windows.concat(p) for p, _ in parts.values()]
    test = [test for _, test in parts.values()]
    return TaskSequence(order, train, test), []


def replay_problems(strategies, seq: TaskSequence) -> list[DataFormatError]:
    """With rcl among `strategies`, one error per class of seq with fewer than
    the 2 training windows its generator needs."""
    if "rcl" not in strategies:
        return []
    return [
        DataFormatError(f"class {cid}: rcl needs 2 training windows to fit a generator, got {len(train)}")
        for cid, train in zip(seq.class_ids, seq.train) if len(train) < 2
    ]


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
    task_index: int  # 1-based: the task evaluates run.class_ids[: task_index + 1]
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
    ensembles: list[Ensemble]  # one per task from run_strategy; empty in a ComparisonReport
    memory_footprint: int  # raw previous-class windows retained


# elements of the widest array one forward pass builds over a run of test
# windows: NetSpec.widest per window, which for a conv net is its patch matrix
_EVAL_BLOCK = 1 << 16


def _evaluate(ensemble: Ensemble, seq: TaskSequence, upto: int) -> tuple[ConfusionMatrix, MetricReport, float]:
    """Walk each test trial of positions 0..upto where it lies, in runs of
    rows whose widest forward array holds at most _EVAL_BLOCK elements, one
    member_probabilities call each, so every member runs forward once over
    every window and no test window is copied but to standardize it. The
    ensemble prediction is the argmax of the mean member probability, as
    `predict` computes it, and the member spread comes from the same
    probabilities."""
    rows = max(1, _EVAL_BLOCK // max(m.spec.widest for m in ensemble.members))
    y_true, y_pred, member_pred = [], [], []
    for part in chain.from_iterable(seq.test[: upto + 1]):
        for lo in range(0, len(part), rows):
            run = part.select(slice(lo, lo + rows))
            probs = member_probabilities(ensemble, run)
            y_true.append(run.y)
            y_pred.append(np.argmax(probs.mean(axis=0), axis=1))
            member_pred.append(np.argmax(probs, axis=2))
    y_true = np.concatenate(y_true)
    cm = confusion(y_true, np.concatenate(y_pred), upto + 1)
    report = metrics(cm)
    member_f = [metrics(confusion(y_true, p, upto + 1)).macro_f for p in np.hstack(member_pred)]
    return cm, report, float(np.std(member_f))


@dataclass(frozen=True)
class RunSettings:
    """Everything a strategy run needs besides the sequence and seed. Every
    task trains `net`, but the last, which trains `final_net` when given."""

    net: NetSpec
    train: TrainConfig = TrainConfig()
    generator: GeneratorConfig = GeneratorConfig()
    ewc_lambda: float = 100.0
    n_members: int = 5
    final_net: NetSpec | None = None

    def __post_init__(self):
        require_number("ewc_lambda", self.ewc_lambda, least=0)
        require_integer("n_members", self.n_members, least=1)
        for name, kind in (("net", NetSpec), ("train", TrainConfig), ("generator", GeneratorConfig)):
            if not isinstance(value := getattr(self, name), kind):
                raise ConfigurationError(f"{name} must be a {kind.__name__}, got {value!r}", name)
        if not isinstance(self.final_net, (NetSpec, type(None))):
            message = f"final_net must be a NetSpec or None, got {self.final_net!r}"
            raise ConfigurationError(message, "final_net")


def _carry_forward(
    ens: Ensemble,
    mix: Windows,
    standardizer: StandardizationParams,
    settings: RunSettings,
    seed: int,
    task_index: int,
    fishers: list[np.ndarray] | None,
) -> Ensemble:
    """Extend each member's head by one class and continue training on mix,
    already standardized by `standardizer`, each member anchored to its own
    parameters, weighted by its Fisher diagonal in `fishers`, when given.

    An anchor at or past the heavy-ball stability limit of its stiffest
    coordinate, lam * lr * max(fisher) >= 2 * (1 + beta) with beta the
    momentum (0 for sgd), makes that coordinate oscillate with growing
    amplitude; it is reported on stderr before any member trains.
    """
    cfg = settings.train
    limit = 2.0 * (1.0 + cfg.beta)
    models, penalties = [], [None] * len(ens.members)
    for m_idx, member in enumerate(ens.members):
        extended = extend_output(member, derive_seed(seed, "head", task_index, m_idx))
        models.append(extended)
        if fishers is not None:
            penalty = penalties[m_idx] = EWCPenalty(
                lam=settings.ewc_lambda,
                theta_star=pad_parameters(member.spec, member.parameters),
                fisher=pad_parameters(member.spec, fishers[m_idx]),
            )
            stiffness = penalty.lam * cfg.learning_rate * float(penalty.fisher.max())
            if stiffness >= limit:
                print(
                    f"warning: task {task_index}, member {m_idx}: ewc lam * lr * max(fisher)"
                    f" = {stiffness:.6g} >= {limit:g}, the anchored step's stability"
                    " limit; training may diverge",
                    file=sys.stderr,
                )
    seeds = [derive_seed(seed, "task", task_index, "shuffle", m_idx) for m_idx in range(len(models))]
    return _train_members(models, mix, standardizer, cfg, seeds, penalties)


def check_strategies(strategies) -> None:
    """Refuse an empty, unknown or repeated strategy list."""
    if not strategies:
        raise ConfigurationError("strategies must not be empty", "strategies")
    for s in strategies:
        if s not in STRATEGIES:
            raise ConfigurationError(
                f"unknown strategy {s!r}; choose from {STRATEGIES}", "strategies"
            )
    if len(set(strategies)) != len(strategies):
        raise ConfigurationError(
            f"strategies must not repeat, got {list(strategies)}", "strategies"
        )


def check_variant_name(name) -> None:
    """Refuse a name that cannot label methods ("strategy/name") in CSV rows and markdown tables."""
    if not (isinstance(name, str) and name) or any(c in ",/|" or not c.isprintable() for c in name):
        raise ConfigurationError(
            f"name must be a non-empty string without ',', '/', '|' or unprintable characters,"
            f" got {name!r}", "name",
        )


def carried_problems(
    strategies, net: NetSpec, final_net: NetSpec | None, n_tasks: int
) -> list[ConfigurationError]:
    """With a strategy of `strategies` that carries one model across more than
    one task, an error if final_net builds other layers than net apart from
    the head's size. A dense net's conv field builds none, so it is not compared."""
    carried = [s for s in strategies if s in CARRIED]
    body = replace(net, n_classes=2)._layers
    if not carried or n_tasks < 2 or replace(final_net or net, n_classes=2)._layers == body:
        return []
    return [ConfigurationError(
        f"{carried[0]} carries one model across tasks and cannot switch architectures;"
        " every task's net must match the first apart from the head"
    )]


@dataclass(frozen=True)
class RunState:
    """What one task hands the next; ewc's fishers hold one Fisher diagonal per member."""

    generators: dict[int, ClassGenerator]
    ensemble: Ensemble | None = None
    fishers: list[np.ndarray] | None = None


def _task_step(
    strategy: str, seq: TaskSequence, settings: RunSettings, seed: int, state: RunState, i: int
) -> tuple[RunState, TaskResult]:
    """Task i from the state task i - 1 left, which it does not change, so two
    steps may start from one state."""
    carry = strategy in CARRIED and state.ensemble is not None
    generators = dict(state.generators)
    replay: dict[int, int] = {}
    if strategy == "rcl":
        # pseudo data for every previous class, plus the raw new class
        for pos in range(i + 1):
            if pos not in generators:
                generators[pos] = fit_generator(
                    pos, seq.train[pos], settings.generator.k, settings.generator.memory_budget,
                    derive_seed(seed, "generator", pos),
                )
        pseudo_count = settings.generator.pseudo_per_class or len(seq.train[i])
        replay = {seq.class_ids[pos]: pseudo_count for pos in range(i)}
        mix = Windows.concat([
            generate(generators[pos], pseudo_count, seed=derive_seed(seed, "replay", i, pos))
            for pos in range(i)
        ] + [seq.train[i]])
    elif carry:
        # the carried model sees only raw normal data plus the newest class
        mix = Windows.concat([seq.train[0], seq.train[i]])
    else:
        mix = Windows.concat(seq.train[: i + 1])
    # the mix is this task's own copy, so it is standardized in place
    standardizer = fit_standardizer(mix)
    apply_standardizer(standardizer, mix, out=mix.x)

    if carry:
        ens = _carry_forward(state.ensemble, mix, standardizer, settings, seed, i, state.fishers)
    else:
        net = settings.final_net if i == seq.n_tasks else settings.net
        ens = fit_ensemble(
            replace(net, n_classes=i + 1),
            mix,
            standardizer,
            settings.train,
            seed=derive_seed(seed, "task", i),
            n_members=settings.n_members,
        )
    fishers = None
    if strategy == "ewc" and i < seq.n_tasks:
        fishers = [fisher_diagonal(m, mix) for m in ens.members]
    cm, report, spread = _evaluate(ens, seq, i)
    return RunState(generators, ens, fishers), TaskResult(
        task_index=i,
        cm=cm,
        report=report,
        member_f_std=spread,
        replay_counts=replay,
        train_provenance=np.column_stack([mix.y, mix.source]),
    )


def run_strategy(
    strategy: str, seq: TaskSequence, settings: RunSettings, seed: int
) -> ContinualRun:
    """Run one strategy over every task of seq, a fold of _task_step.

    finetune and ewc carry task 1's ensemble forward; ewc anchors it to itself
    under Fisher diagonals of the task before. A lam of 0.0 still takes the
    diagonals but adds no term to the loss, so its parameters match finetune's bit for bit.
    Before task 1, net and final_net are built at seq's window shape, and a
    build error or what carried_problems or replay_problems finds is raised.
    """
    check_strategies((strategy,))
    shape = seq.train[0].window_shape
    net = replace(settings.net, input_shape=shape)
    settings = replace(settings, net=net, final_net=replace(settings.final_net or net, input_shape=shape))
    problems = carried_problems((strategy,), settings.net, settings.final_net, seq.n_tasks)
    problems += replay_problems((strategy,), seq)
    if problems:
        raise problems[0]
    state, tasks, ensembles = RunState({}), [], []
    for i in range(1, seq.n_tasks + 1):
        state, task = _task_step(strategy, seq, settings, seed, state, i)
        tasks.append(task)
        ensembles.append(state.ensemble)

    if strategy == "rcl":
        footprint = sum(g.memory_size for g in state.generators.values())
    elif strategy == "baseline":
        footprint = sum(len(t) for t in seq.train)
    else:
        footprint = len(seq.train[0]) if seq.n_tasks >= 2 else 0
    return ContinualRun(
        strategy=strategy,
        seed=seed,
        class_ids=seq.class_ids,
        tasks=tasks,
        generators=state.generators,
        ensembles=ensembles,
        memory_footprint=footprint,
    )


@dataclass(eq=False)
class ComparisonReport:
    """Each completed method's runs, keyed by its label: "strategy", or
    "strategy/variant"; every reported figure is derived from them.

    Each kept run holds its seed, task results, generators and footprint but
    no ensembles; run_strategy returns a run with its models."""

    class_ids: list[int]
    repetitions: int
    runs: dict[str, list[ContinualRun]]
    failures: dict[str, str] = field(default_factory=dict)  # method -> message


def compare_strategies(
    seq: TaskSequence,
    settings: RunSettings,
    strategies: tuple[str, ...] = STRATEGIES,
    repetitions: int = 5,
    master_seed: int = 0,
    variants: dict[str, NetSpec] | None = None,
) -> ComparisonReport:
    """Run each strategy `repetitions` times on seeds derived per (strategy,
    repetition) from master_seed, and keep the runs.

    `variants` maps a name that check_variant_name accepts to the final
    task's NetSpec, set as settings.final_net. Each variant, in name order,
    runs every strategy, and its methods are labelled "strategy/variant";
    without variants a method is labelled by its strategy. A method whose run
    raises PseudoreplayError is recorded in failures with the message and left
    out of runs; the others still run.
    """
    require_integer("repetitions", repetitions, least=1)
    require_integer("master_seed", master_seed)
    check_strategies(strategies)
    for name, net in (variants or {}).items():  # every variant judged before any training
        check_variant_name(name)
        if not isinstance(net, NetSpec):
            message = f"variant {name!r}: final_net must be a NetSpec, got {net!r}"
            raise ConfigurationError(message, "final_net")
    variant_settings = (
        {name: replace(settings, final_net=net) for name, net in sorted(variants.items())}
        if variants else {"": settings}
    )

    runs: dict[str, list[ContinualRun]] = {}
    failures: dict[str, str] = {}
    for (variant, run_settings), strat in product(variant_settings.items(), strategies):
        method = f"{strat}/{variant}" if variant else strat
        strat_runs = []
        try:
            for r in range(repetitions):
                seed = derive_seed(master_seed, "strategy", strat, "rep", r)
                run = run_strategy(strat, seq, run_settings, seed)
                run.ensembles.clear()  # the report reads no model, so none is kept
                strat_runs.append(run)
        except PseudoreplayError as exc:
            failures[method] = str(exc)
            continue
        runs[method] = strat_runs
    return ComparisonReport(
        class_ids=seq.class_ids,
        repetitions=repetitions,
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
    """Check an rcl run's footprint is the exact count its generators retain,
    and each generator is within budget. Only an rcl run fits generators; the
    other strategies' footprints count raw windows, so they are not judged."""
    violations = []
    total = sum(g.memory_size for g in run.generators.values())
    if run.strategy == "rcl" and run.memory_footprint != total:
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
