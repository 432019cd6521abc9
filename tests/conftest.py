import numpy as np
import pytest

from pseudoreplay import (
    ClassSignal,
    NetSpec,
    SyntheticStreamConfig,
    TrainConfig,
    Windows,
    apply_standardizer,
    fisher_diagonal,
    fit_standardizer,
    synthesize_stream,
)
from pseudoreplay.classifier import pad_parameters
from pseudoreplay.continual import TaskSequence


def make_samples(rows: np.ndarray, class_id: int = 0) -> Windows:
    """Wrap a 2-D array (one sample per row) as single-channel windows."""
    rows = np.asarray(rows, dtype=float)
    n = rows.shape[0]
    return Windows(
        x=rows.reshape(n, -1, 1),
        y=np.full(n, class_id),
        source=np.column_stack([np.ones(n, dtype=int), np.arange(n)]),
    )


def standardized_mix(samples: Windows):
    """(standardized copy, params) of samples, the mix and standardizer
    that fit_ensemble and _carry_forward take."""
    params = fit_standardizer(samples)
    return apply_standardizer(params, samples), params


def task1_fishers(run, seq: TaskSequence) -> list[np.ndarray]:
    """Each task-1 member's Fisher diagonal on its standardized training mix:
    the weights an ewc run anchors task 2 with, recomputed from the run."""
    ens = run.ensembles[0]
    mix = apply_standardizer(ens.standardizer, Windows.concat(seq.train[:2]))
    return [fisher_diagonal(m, mix) for m in ens.members]


def fisher_weighted_movement(run, seq: TaskSequence) -> float:
    """sum over members and task-1 coordinates of F_i * (theta2_i - theta1_i)^2,
    F being the task-1 Fisher diagonal."""
    total = 0.0
    pairs = zip(run.ensembles[0].members, run.ensembles[1].members, task1_fishers(run, seq))
    for m1, m2, fisher in pairs:
        anchor = pad_parameters(m1.spec, m2.spec, m1.parameters)
        weight = pad_parameters(m1.spec, m2.spec, fisher)  # appended head units weigh 0
        total += float(np.sum(weight * (m2.parameters - anchor) ** 2))
    return total


@pytest.fixture(scope="session")
def small_stream_config() -> SyntheticStreamConfig:
    # 3 well separated classes, 2 trials each, 9 windows per trial at width 50
    return SyntheticStreamConfig(
        n_classes=3,
        channels=2,
        trial_length=450,
        trials_per_class=2,
        class_signals=(
            ClassSignal(mean=(0.0, 0.5), amplitude=0.6, frequency=0.05, noise_std=0.5),
            ClassSignal(mean=(2.0, 2.5), amplitude=0.8, frequency=0.11, noise_std=0.5),
            ClassSignal(mean=(4.0, 4.5), amplitude=1.0, frequency=0.23, noise_std=0.5),
        ),
        seed=11,
    )


@pytest.fixture(scope="session")
def small_seq(small_stream_config) -> TaskSequence:
    return TaskSequence.from_trials(synthesize_stream(small_stream_config), window=50)


@pytest.fixture()
def small_net() -> NetSpec:
    return NetSpec(kind="dense", input_shape=(50, 2), n_classes=2, hidden=(16, 8))


@pytest.fixture()
def fast_train() -> TrainConfig:
    return TrainConfig(epochs=40, batch_size=16, learning_rate=0.01)
