"""The benchmark's three workloads and the exact work each one implies.

Every workload starts from BASE, a copy of configs/benchmark.json as it stood
when the benchmark was defined, so that edits to the committed config cannot
move the benchmark. The workload seed is both the synthetic-stream seed and
the master seed; it changes the data, never the amount of work.
"""

from __future__ import annotations

import copy
import math

BASE = {
    "data": {
        "synthetic": {
            "n_classes": 3,
            "channels": 2,
            "trial_length": 6250,
            "trials_per_class": 5,
            "class_signals": [
                {"mean": [0.0, 0.5], "amplitude": 0.6, "frequency": 0.05, "noise_std": 0.5},
                {"mean": [2.0, 2.5], "amplitude": 0.8, "frequency": 0.11, "noise_std": 0.5},
                {"mean": [4.0, 4.5], "amplitude": 1.0, "frequency": 0.23, "noise_std": 0.5},
            ],
            "seed": 7,
        }
    },
    "window": 50,
    "train_trials": [1],
    "strategies": ["baseline", "finetune", "ewc", "rcl"],
    "repetitions": 5,
    "seed": 0,
    "out_dir": "results/benchmark",
    "net": {"kind": "dense", "hidden": [64, 32]},
    "train": {
        "epochs": 100,
        "batch_size": 32,
        "learning_rate": 0.01,
        "optimizer": "sgd_momentum",
        "momentum": 0.9,
    },
    "generator": {"k": 5, "memory_budget": None, "pseudo_per_class": None},
    "ewc_lambda": 100.0,
    "ensemble_size": 5,
}

WORKLOADS = ("dense_replay", "conv_variant", "window_flood")


def workload_config(name: str, seed: int, csv_path: str) -> tuple[dict, dict | None]:
    """(run config, synthetic stream to render to csv_path first, or None)."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    cfg = copy.deepcopy(BASE)
    cfg["seed"] = seed
    cfg["repetitions"] = 1
    stream = cfg["data"]["synthetic"]
    stream["seed"] = seed
    if name == "conv_variant":
        cfg["strategies"] = ["rcl"]
        cfg["variants"] = [
            {"name": "mlp", "net": {"kind": "dense"}},
            {"name": "cnn", "net": {"kind": "conv"}},
        ]
        cfg["train"]["epochs"] = 20
    elif name == "window_flood":
        cfg["data"] = {"csv": csv_path}
        cfg["stride"] = 5
        cfg["strategies"] = ["ewc", "rcl"]
        cfg["train"]["epochs"] = 2
        return cfg, stream
    return cfg, None


def expected_counts(cfg: dict, n_train: list[int]) -> dict[str, int]:
    """Work implied by the config and the per-class training window counts.

    grad_samples counts the rows of every loss_and_gradient call: minibatch
    rows of each epoch plus EWC's one-row Fisher calls. metrics_rows is the
    row count metrics.csv must have: one per class seen at each task.
    """
    n_tasks = len(n_train) - 1
    train = cfg["train"]
    epochs, batch = train["epochs"], train["batch_size"]
    members = cfg["ensemble_size"]
    pseudo_per_class = cfg["generator"]["pseudo_per_class"]
    runs = cfg["repetitions"] * max(1, len(cfg.get("variants", [])))

    rows = steps = pseudo = fisher = 0
    for strategy in cfg["strategies"]:
        for i in range(1, n_tasks + 1):
            if strategy == "baseline":
                n = sum(n_train[: i + 1])
            elif strategy == "rcl":
                quota = (pseudo_per_class or n_train[i]) * i
                pseudo += quota
                n = quota + n_train[i]
            else:  # finetune and ewc carry one model on normal plus newest class
                n = n_train[0] + n_train[i]
            rows += epochs * members * n
            steps += epochs * members * math.ceil(n / batch)
            if strategy == "ewc" and i < n_tasks:
                fisher += members * n
    seen = sum(i + 1 for i in range(1, n_tasks + 1))
    return {
        "grad_samples": runs * (rows + fisher),
        "train_steps": runs * steps,
        "pseudo_samples": runs * pseudo,
        "metrics_rows": runs * len(cfg["strategies"]) * seen,
    }
