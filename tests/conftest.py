import numpy as np
import pytest

from pseudoreplay import (
    ClassSignal,
    NetSpec,
    SyntheticStreamConfig,
    TrainConfig,
    Windows,
    synthesize_stream,
)
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
    return NetSpec(
        kind="dense", input_shape=(50, 2), n_classes=2, hidden=(16, 8), seed=0
    )


@pytest.fixture()
def fast_train() -> TrainConfig:
    return TrainConfig(epochs=40, batch_size=16, learning_rate=0.01)
