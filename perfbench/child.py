"""One benchmark sample in a fresh interpreter, started by run.py.

    python3 child.py JOB.json

JOB.json holds: src (the checkout's src/ directory), mode, config (the run
config as a dict), config_path, out, result, and for mode "prepare" the
stream and csv path to render. Modes:

- prepare: render the workload's trial CSV if it has one, and report the
  numeric environment.
- setup: time import pseudoreplay, the input load and TaskSequence.from_trials.
- run: setup, then time one `pseudoreplay run` call.
- trace: as run, with spans recorded around the package's public functions.

The result goes to the file named by "result" as JSON.
"""

from __future__ import annotations

import json
import platform
import resource
import sys
import time
from pathlib import Path


def _environment() -> dict:
    import numpy as np

    config = getattr(np.__config__, "CONFIG", {})  # numpy >= 1.26
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', 'unknown')}",
    }


def _setup(cfg: dict) -> tuple[float, list[int]]:
    start = time.perf_counter()
    import pseudoreplay
    from pseudoreplay.continual import TaskSequence

    data = cfg["data"]
    if "csv" in data:
        trials = pseudoreplay.load_trials(data["csv"])
    else:
        stream = pseudoreplay.SyntheticStreamConfig.from_dict(data["synthetic"])
        trials = pseudoreplay.synthesize_stream(stream)
    seq = TaskSequence.from_trials(
        trials,
        window=cfg["window"],
        stride=cfg.get("stride"),
        train_trials=tuple(cfg["train_trials"]),
        class_order=cfg.get("classes"),
    )
    return time.perf_counter() - start, [len(windows) for windows in seq.train]


def _run(job: dict, traced: bool) -> dict:
    from pseudoreplay import classifier, cli, continual

    argv = ["run", "--config", job["config_path"], "--out", job["out"]]
    if not traced:
        start = time.perf_counter()
        status = cli.main(argv)
        return {"exit": status, "run_s": time.perf_counter() - start}

    import spans

    tracer = spans.install(cli, continual, classifier)
    try:
        status = tracer.run("cli.main", cli.main, argv)
    finally:
        tracer.restore()
    layers, grad_rows = spans.layer_metrics(tracer)
    impure = [
        violation
        for run in tracer.kept["continual.run_strategy"]
        if run.strategy == "rcl"
        for violation in continual.audit_replay_purity(run).violations
    ]
    return {
        "exit": status,
        "run_s": tracer.spans[0].duration,
        "layers": layers,
        "grad_rows": grad_rows,
        "purity_violations": impure[:10],
        "spans": [span.to_dict() for span in tracer.spans],
    }


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    src = Path(job["src"]).resolve()
    sys.path.insert(0, str(src))
    mode = job["mode"]
    if mode == "prepare":
        import pseudoreplay

        if job.get("stream") is not None:
            stream = pseudoreplay.SyntheticStreamConfig.from_dict(job["stream"])
            pseudoreplay.save_trials(job["csv"], pseudoreplay.synthesize_stream(stream))
        result = _environment()
    else:
        setup_s, n_train = _setup(job["config"])
        result = {"setup_s": setup_s, "n_train": n_train}
        if mode in ("run", "trace"):
            result.update(_run(job, traced=mode == "trace"))
            result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    import pseudoreplay

    if src not in Path(pseudoreplay.__file__).resolve().parents:
        print(f"imported {pseudoreplay.__file__}, not the package under {src}", file=sys.stderr)
        return 2
    Path(job["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
