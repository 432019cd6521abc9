"""Pseudo-replay class-incremental learning for windowed sensor streams."""

from .classifier import (
    Ensemble,
    EWCPenalty,
    NetModel,
    NetSpec,
    TrainConfig,
    TrainResult,
    extend_output,
    fisher_diagonal,
    fit_ensemble,
    forward,
    init_model,
    loss_and_gradient,
    predict,
    train,
)
from .continual import (
    STRATEGIES,
    ComparisonReport,
    ContinualRun,
    GeneratorConfig,
    RunSettings,
    TaskSequence,
    audit_memory,
    audit_replay_purity,
    compare_strategies,
    run_strategy,
)
from .data import (
    SYNTHETIC_TRIAL_ID,
    ClassSignal,
    StandardizationParams,
    SyntheticStreamConfig,
    TimeSeriesTrial,
    Windows,
    apply_standardizer,
    default_synthetic_config,
    fit_standardizer,
    load_trials,
    save_trials,
    synthesize_stream,
    window_trial,
)
from .errors import ConfigurationError, DataFormatError, PseudoreplayError, TrainingError
from .generator import ClassGenerator, fit_generator, generate
from .metrics import (
    ConfusionMatrix,
    MetricReport,
    MetricWarning,
    aggregate,
    confusion,
    metrics,
)
from .seeding import derive_seed

__version__ = "0.1.0"
