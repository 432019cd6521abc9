"""Deterministic result files: metrics CSV, markdown report, run manifest.

Output bytes are a pure function of the results: rows are explicitly sorted,
floats formatted with fixed precision, JSON keys sorted, newlines LF. The
manifest also records the numeric environment that those bytes depend on.
"""

from __future__ import annotations

import json
import os
import platform
import tempfile
from pathlib import Path

import numpy as np

from .continual import ComparisonReport, ContinualRun
from .metrics import aggregate, format_cell

METRICS_HEADER = "method,task,repetition,class,precision,recall,f"
RESULT_FILES = ("manifest.json", "metrics.csv", "report.md")  # what a run writes, in order
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)


def atomic_write(path: str | Path, text: str) -> None:
    """Write via a sibling temp file and rename, so readers never see partials."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def metrics_csv(comp: ComparisonReport) -> str:
    """One row per (method, task, repetition, class)."""
    lines = [METRICS_HEADER]
    for method, runs in comp.runs.items():
        for r, run in enumerate(runs):
            for task in run.tasks:
                rep = task.report
                for idx, cid in enumerate(run.class_ids[: task.task_index + 1]):
                    lines.append(
                        f"{method},{task.task_index},{r},{cid},"
                        f"{_fmt(rep.precision[idx])},{_fmt(rep.recall[idx])},"
                        f"{_fmt(rep.f_score[idx])}"
                    )
    return "\n".join(lines) + "\n"


def _strategy_label(strategy: str) -> str:
    return {
        "rcl": "RCL",
        "ewc": "EWC",
        "finetune": "Fine-tuning",
        "baseline": "Baseline",
    }.get(strategy, strategy)


def _table(header: list[str], rows: list[list[str]]) -> str:
    """A markdown table: the header, its rule, then one line per row."""
    lines = ["| " + " | ".join(cells) + " |" for cells in [header] + rows]
    return "\n".join(lines[:1] + ["|" + "---|" * len(header)] + lines[1:])


def _macro_cells(runs: list[ContinualRun], t: int) -> list[str]:
    """Task t's macro precision, recall and F-score as 'mean (std)' cells over runs."""
    mean, std = aggregate([run.tasks[t].report for run in runs])
    return [
        format_cell(getattr(mean, name), getattr(std, name))
        for name in ("macro_precision", "macro_recall", "macro_f")
    ]


def _metric_header(prefixes: list[str]) -> list[str]:
    return ["Method"] + [f"{p} {m}" for p in prefixes for m in ("Precision", "Recall", "F-score")]


def _methods(comp: ComparisonReport) -> dict[tuple[str, str], list[ContinualRun]]:
    """Each completed method's runs by (strategy, variant), in run order; the
    variant is "" without variants, and no variant name holds a '/'."""
    return {tuple(method.partition("/")[::2]): runs for method, runs in comp.runs.items()}


def _of(comp: ComparisonReport, variant: str) -> dict[str, list[ContinualRun]]:
    """The completed methods of one variant, strategy -> runs, in run order."""
    return {s: runs for (s, v), runs in _methods(comp).items() if v == variant}


def comparison_table(comp: ComparisonReport, variant: str) -> str:
    """Strategies x tasks, each cell a macro 'mean (std)' over repetitions."""
    n_tasks = len(comp.class_ids) - 1
    suffix = f" ({variant})" if variant else ""
    rows = [
        [_strategy_label(s) + suffix]
        + [cell for t in range(n_tasks) for cell in _macro_cells(runs, t)]
        for s, runs in _of(comp, variant).items()
    ]
    return _table(_metric_header([f"Task {t}" for t in range(1, n_tasks + 1)]), rows)


def variant_table(comp: ComparisonReport) -> str:
    """Strategies x classifier variants on the final task, macro metrics.
    A strategy that failed under some variant reads 'failed' there."""
    by_key = _methods(comp)
    variants = list(dict.fromkeys(v for _, v in by_key))
    rows = []
    for strat in dict.fromkeys(s for s, _ in by_key):
        row = [_strategy_label(strat)]
        for v in variants:
            runs = by_key.get((strat, v))
            row += ["failed"] * 3 if runs is None else _macro_cells(runs, -1)
        rows.append(row)
    return _table(_metric_header(variants), rows)


def storage_section(comp: ComparisonReport, variant: str) -> str:
    """Each method's footprint and pseudo samples per task, from its first run."""
    rows = []
    for s, (first, *_) in _of(comp, variant).items():
        replay = "; ".join(
            f"task {task.task_index}: "
            + (
                ", ".join(f"class {c}: {n}" for c, n in sorted(task.replay_counts.items()))
                if task.replay_counts
                else "none"
            )
            for task in first.tasks
        )
        rows.append([_strategy_label(s), str(first.memory_footprint), replay])
    return _table(["Method", "Raw windows retained", "Pseudo samples per task"], rows)


def spread_section(comp: ComparisonReport, variant: str) -> str:
    """Each method's member macro-F std per task, the mean over its runs."""
    n_tasks = len(comp.class_ids) - 1
    header = ["Method"] + [f"Task {t} member F std" for t in range(1, n_tasks + 1)]
    rows = [
        [_strategy_label(s)]
        + [f"{np.mean([run.tasks[t].member_f_std for run in runs]):.3f}" for t in range(n_tasks)]
        for s, runs in _of(comp, variant).items()
    ]
    return _table(header, rows)


def render_report(comp: ComparisonReport) -> str:
    """Full markdown report; one strategy/task table per variant plus the
    final-task variant comparison when multiple classifiers were run. Storage
    and member spread are those of the first variant with a completed method;
    with none, there is no table. Each failed method is listed with its message."""
    variants = list(dict.fromkeys(v for _, v in _methods(comp)))
    parts = ["# Continual learning benchmark", ""]
    parts.append(
        f"Classes (task order): {', '.join(str(c) for c in comp.class_ids)}. "
        f"Repetitions per strategy: {comp.repetitions}. "
        "Cells are macro averages over classes as 'mean (std)' across repetitions."
    )
    for variant in variants:
        title = "## Strategy comparison" + (f" - classifier: {variant}" if variant else "")
        parts += ["", title, "", comparison_table(comp, variant)]
    if len(variants) >= 2:
        parts += [
            "",
            "## Final-task comparison across classifiers",
            "",
            variant_table(comp),
        ]
    if variants:
        parts += ["", "## Storage", "", storage_section(comp, variants[0])]
        parts += ["", "## Ensemble member spread", "", spread_section(comp, variants[0])]
    if comp.failures:
        parts += ["", "## Failed methods", ""]
        parts += [f"- {method}: {message}" for method, message in comp.failures.items()]
    return "\n".join(parts + [""])


def numeric_environment() -> dict:
    """The Python, numpy and BLAS that computed the floats, and the BLAS
    thread variables that are set: the bytes of a run hold for these."""
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', 'unknown')}",
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS if var in os.environ},
    }


def build_manifest(config_doc: dict, comp: ComparisonReport, data_digest: str) -> dict:
    manifest = {
        "status": "FAILED" if comp.failures else "ok",
        "config": config_doc,
        "data_digest": data_digest,
        "environment": numeric_environment(),
        "seeds": {method: [run.seed for run in runs] for method, runs in comp.runs.items()},
        "outputs": list(RESULT_FILES[1:]),  # the files beside the manifest
    }
    if comp.failures:
        manifest["failures"] = comp.failures
    return manifest


def manifest_json(manifest: dict) -> str:
    return json.dumps(manifest, sort_keys=True, indent=2) + "\n"
