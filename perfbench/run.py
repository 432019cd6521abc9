"""Benchmark of `pseudoreplay run` on three workloads; see perfbench/README.md.

    python3 perfbench/run.py --workload dense_replay --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout; it imports the package from src/
and builds nothing. The load is a closed loop: one run at a time, each in a
fresh interpreter with BLAS pinned to one thread. With --trace 0 it prints
the end-to-end metrics, with --trace 1 the per-layer metrics of traced runs
and the tracing overhead. The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, expected_counts, workload_config

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)
SETUP_PROBES = 3  # set-up-only processes per invocation, besides each run's own
HARD_LIMIT_S = 165.0  # no run starts that could end past this; the cap is 180
QUALITY_SLACK = 0.02  # gate 4: RCL's final macro-F may trail the baseline's by this
METRICS_HEADER = "method,task,repetition,class,precision,recall,f"
END_TO_END = {
    "run_s": "s",
    "setup_s": "s",
    "grad_samples_per_s": "1/s",
    "peak_rss_mb": "MB",
    "rcl_final_macro_f": "1",
}
# traced counts that must repeat exactly from run to run
EXACT_LAYER_COUNTS = (
    "classifier.train_steps", "generator.pseudo_samples", "data.standardize_calls",
)


def _layer_unit(name: str) -> str:
    if "_us" in name:
        return "us"
    if name.endswith("share"):
        return "1"
    if name.endswith(("_steps", "_samples", "_calls")):
        return "count"
    return "s"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


class Bench:
    def __init__(self, workload: str, seed: int, work: Path):
        self.work = work
        self.threads = min(1, len(os.sched_getaffinity(0)))
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        for var in THREAD_VARS:
            self.env[var] = str(self.threads)
        self.config_path = work / "config.json"
        self.config, self.stream = workload_config(workload, seed, str(work / "trials.csv"))
        self.config_path.write_text(json.dumps(self.config, indent=2), encoding="utf-8")
        self.start = time.perf_counter()
        self.children = 0

    def remaining(self) -> float:
        return HARD_LIMIT_S - (time.perf_counter() - self.start)

    def child(self, mode: str, **job) -> tuple[dict | None, str]:
        """Run child.py once; (its result, "") or (None, why it failed)."""
        run_dir = self.work / f"{self.children:02d}-{mode}"
        self.children += 1
        run_dir.mkdir()
        job.update(
            src=str(SRC), mode=mode, config=self.config, config_path=str(self.config_path),
            out=str(run_dir / "out"), result=str(run_dir / "result.json"),
        )
        job_path = run_dir / "job.json"
        job_path.write_text(json.dumps(job), encoding="utf-8")
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), str(job_path)],
                cwd=run_dir, env=self.env, stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, text=True, timeout=max(1.0, self.remaining()),
            )
        except subprocess.TimeoutExpired:
            return None, f"{mode} timed out"
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-3:]
            return None, f"{mode} exited {proc.returncode}: {' | '.join(tail)}"
        result = json.loads((run_dir / "result.json").read_text(encoding="utf-8"))
        result["dir"] = run_dir
        return result, ""


def check_csv(text: str, expected_rows: int, n_tasks: int) -> tuple[list[str], float | None]:
    """Problems with one metrics.csv, and RCL's mean macro-F at the last task."""
    lines = text.splitlines()
    if not lines or lines[0] != METRICS_HEADER:
        return ["metrics.csv header differs"], None
    problems = []
    if len(lines) - 1 != expected_rows:
        problems.append(f"metrics.csv has {len(lines) - 1} rows, expected {expected_rows}")
    final: dict[tuple[str, str], list[float]] = {}
    for line in lines[1:]:
        try:
            method, task, rep, _cls, *prf = line.split(",")
            values = [float(v) for v in prf]
            last = int(task) == n_tasks
        except ValueError:
            return problems + [f"metrics.csv row unreadable: {line!r}"], None
        if len(values) != 3 or not all(math.isfinite(v) and 0.0 <= v <= 1.0 for v in values):
            problems.append(f"metrics.csv P/R/F outside [0, 1]: {line!r}")
        if last:
            final.setdefault((method, rep), []).append(values[-1])
    macro: dict[str, list[float]] = {}
    for (method, _rep), f_scores in final.items():
        macro.setdefault(method.split("/")[0], []).append(statistics.fmean(f_scores))
    rcl = statistics.fmean(macro["rcl"]) if "rcl" in macro else None
    base = statistics.fmean(macro["baseline"]) if "baseline" in macro else None
    if rcl is not None and base is not None and rcl < base - QUALITY_SLACK:
        problems.append(f"rcl final macro-F {rcl:.4f} < baseline {base:.4f} - {QUALITY_SLACK}")
    return problems, rcl


def run_benchmark(workload: str, seed: int, seconds: int, trace: bool, work: Path) -> dict:
    bench = Bench(workload, seed, work)
    prepared, why = bench.child("prepare", stream=bench.stream, csv=str(work / "trials.csv"))
    if prepared is None:
        raise RuntimeError(f"preparing the workload failed: {why}")
    environment = {
        "python": prepared["python"], "numpy": prepared["numpy"], "blas": prepared["blas"],
        "blas_threads": bench.threads, "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
    }
    setups = []
    for _ in range(SETUP_PROBES):
        probe, why = bench.child("setup")
        if probe is None:
            raise RuntimeError(f"set-up failed: {why}")
        setups.append(probe["setup_s"])

    counts = expected_counts(bench.config, probe["n_train"])
    n_tasks = len(probe["n_train"]) - 1
    modes = ("trace", "run") if trace else ("run",)
    min_runs = 3 if trace else 2
    runs: list[dict] = []
    failures: list[str] = []
    reference_csv = None
    reference_layers = None
    first_start = time.perf_counter()
    longest = 0.0
    while True:
        elapsed = time.perf_counter() - first_start
        if len(runs) + len(failures) >= min_runs and elapsed >= seconds:
            break
        if bench.remaining() < 1.2 * longest:
            break
        mode = modes[(len(runs) + len(failures)) % len(modes)]
        began = time.perf_counter()
        result, why = bench.child(mode)
        longest = max(longest, time.perf_counter() - began)
        problems = [why] if result is None else []
        if result is not None:
            if result["exit"] != 0:
                problems.append(f"pseudoreplay run exited {result['exit']}")
            csv_path = result["dir"] / "out" / "metrics.csv"
            text = csv_path.read_text(encoding="utf-8") if csv_path.is_file() else ""
            csv_problems, rcl_f = check_csv(text, counts["metrics_rows"], n_tasks)
            problems += csv_problems
            result["rcl_final_macro_f"] = rcl_f
            reference_csv = text if reference_csv is None else reference_csv
            if text != reference_csv:
                problems.append("metrics.csv differs from the first run of this seed")
            if result["n_train"] != probe["n_train"]:
                problems.append("training window counts changed between runs")
            if mode == "trace":
                problems += _check_trace(result, counts, reference_layers)
                reference_layers = reference_layers or result["layers"]
            setups.append(result["setup_s"])
        if problems:
            failures.append(f"run {len(runs) + len(failures)} ({mode}): " + "; ".join(problems))
        else:
            runs.append(result)

    attempted = len(runs) + len(failures)
    if len(runs) < 2:
        failures.append("fewer than two good runs, so determinism is unchecked")
    untraced = [r for r in runs if "layers" not in r]
    traced = [r for r in runs if "layers" in r]
    report = {
        "workload": workload, "seed": seed, "trace": int(trace),
        "attempted": attempted, "failed": attempted - len(runs),
        "correct": not failures, "failures": failures,
        "environment": environment, "expected_counts": counts,
        "samples": {"setup_s": setups, "run_s": [r["run_s"] for r in untraced],
                    "traced_run_s": [r["run_s"] for r in traced]},
    }
    if not trace:
        if not untraced:
            raise RuntimeError("no run succeeded: " + " / ".join(failures))
        report["metrics"] = {
            "run_s": statistics.median(r["run_s"] for r in untraced),
            "setup_s": statistics.median(setups),
            "grad_samples_per_s": statistics.median(
                counts["grad_samples"] / r["run_s"] for r in untraced),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
            "rcl_final_macro_f": untraced[0]["rcl_final_macro_f"],
        }
    else:
        if not traced or not untraced:
            raise RuntimeError("need a good traced and untraced run: " + " / ".join(failures))
        layers = {
            name: statistics.median(r["layers"][name] for r in traced)
            for name in traced[0]["layers"]
        }
        layers["trace.run_s"] = statistics.median(r["run_s"] for r in traced)
        layers["trace.overhead_s"] = layers["trace.run_s"] - statistics.median(
            r["run_s"] for r in untraced)
        report["metrics"] = layers
        report["spans"] = traced[-1]["spans"]
    return report


def _check_trace(result: dict, counts: dict, reference: dict | None) -> list[str]:
    problems = []
    layers = result["layers"]
    observed = {
        "grad_samples": result["grad_rows"],
        "train_steps": layers.get("classifier.train_steps"),
        "pseudo_samples": layers.get("generator.pseudo_samples"),
    }
    for key, value in observed.items():
        # a counter that saw no call (its function is gone or no longer called) is unchecked
        if value and value != counts[key]:
            problems.append(f"traced {key} {value} != expected {counts[key]}")
    if reference is not None:
        for name in EXACT_LAYER_COUNTS:
            if layers.get(name) != reference.get(name):
                problems.append(f"{name} {layers.get(name)} != first traced run's")
    if result["purity_violations"]:
        problems.append("replay purity: " + "; ".join(result["purity_violations"]))
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "pseudoreplay" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'pseudoreplay'}", file=sys.stderr)
        return 2
    work = WORK / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        report = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace), work)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(report, indent=1), encoding="utf-8")

    metrics = report.pop("metrics")
    units = END_TO_END if not args.trace else {n: _layer_unit(n) for n in metrics}
    samples = report["samples"]
    print(f"{args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(samples['run_s'])} untraced runs, {len(samples['traced_run_s'])} traced runs, "
          f"{len(samples['setup_s'])} set-ups (medians)")
    for metric, value in metrics.items():
        print(f"  {metric:34s} {value:14.6g} {units[metric]}")
    print(f"  {'error_rate':34s} {report['failed'] / report['attempted']:14.6g} 1")
    for failure in report["failures"]:
        print(f"  FAILED {failure}")
    print("env " + json.dumps(report["environment"], sort_keys=True))
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
