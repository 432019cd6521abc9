"""A standing sweep of one-line mutants of the package against tier-1.

    python3 tests/mutants.py [NAME...]

With names, only those mutants run, after the unmutated copy; without, all
of them do. pytest does not collect this file: its name does not start with
`test_`.

Each mutant is one exact text edit of one file under src/. For each mutant the
script copies the repository (README.md included, as a test reads it) to a
temporary directory, applies the edit there, never in the working tree, and
runs tier-1 with `-x -p no:cacheprovider` without the environment-bound
pinned-bytes test, which skips under any other Python, numpy or BLAS. Only a
mutant that survives that run is run again with the pin, to show whether the
pinned digests alone catch it: the pinned suite holds the other, so a mutant
killed without the pin dies with it too. Each run lists the test files with
tests/test_acceptance.py last, so a mutant that a quicker test kills stops
before the slow gates, and leaves out tests/test_mutants.py, which tier-1
runs on the unmutated tree to check that every old text below is still found
once. It reports each mutant as killed, naming the first failing test (or
the test file that fails to collect), or as surviving. An unmutated copy
runs first, both ways, and must pass without the pin, or no kill would mean
anything; if it fails only with the pin (the pinned digests belong to one
platform), the with-pin verdicts are reported as unavailable rather than as
kills.

Exit status: 0 when every must-die mutant is killed without the pin, 1 when
one survives or the unmutated copy fails, 2 when a name is not a mutant's or
a mutant's old text is not found exactly once in its file (the source moved
on; update the mutant).
BLAS runs at 1 thread unless the environment sets it.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
PINNED = "tests/test_cli.py::test_a_small_variant_run_writes_pinned_bytes"
ACCEPTANCE = "test_acceptance.py"
STALENESS = "test_mutants.py"
IGNORED = shutil.ignore_patterns(
    ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".perfbench_work", ".perfbench_out",
    ".benchmarks", "results",
)
TIMEOUT_S = 900


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    old: str
    new: str
    reason: str
    must_die: bool = True  # False only for a mutant shown to be equivalent


MUTANTS = [
    Mutant(
        "M1", "src/pseudoreplay/continual.py",
        'derive_seed(seed, "task", task_index, "shuffle", m_idx)',
        'derive_seed(seed, "task", task_index - 1, "shuffle", m_idx)',
        "a carried member shuffles with the previous task's seed",
    ),
    Mutant(
        "M2", "src/pseudoreplay/continual.py",
        'derive_seed(seed, "replay", i, pos)',
        'derive_seed(seed, "replay", pos, i)',
        "the replay seed swaps task and class position",
    ),
    Mutant(
        "M3", "src/pseudoreplay/continual.py",
        'derive_seed(seed, "head", task_index, m_idx)',
        'derive_seed(seed, "head", m_idx, task_index)',
        "the head-extension seed swaps task and member",
    ),
    Mutant(
        "M4", "src/pseudoreplay/continual.py",
        "float(np.std(member_f))",
        "float(np.std(member_f, ddof=1))",
        "the member spread becomes the sample standard deviation",
    ),
    Mutant(
        "M5", "src/pseudoreplay/continual.py",
        "mix = Windows.concat([seq.train[0], seq.train[i]])",
        "mix = Windows.concat([seq.train[i], seq.train[0]])",
        "a carried task's mix puts the new class before normal",
    ),
    Mutant(
        "M6", "src/pseudoreplay/generator.py",
        "segments.append(np.sort(rng.choice(k_eff, size=quota, replace=False)))",
        "segments.append(rng.choice(k_eff, size=quota, replace=False))",
        "generate keeps its pick of neighbour segments unsorted",
    ),
    Mutant(
        "S1", "src/pseudoreplay/classifier.py",
        'init_model(spec, derive_seed(seed, "init", m))',
        'init_model(spec, derive_seed(seed, "shuffle", m))',
        "a fresh member's init draws from its shuffle seed",
    ),
    Mutant(
        "S2", "src/pseudoreplay/classifier.py",
        'seeds = [derive_seed(seed, "shuffle", m) for m',
        'seeds = [derive_seed(seed, "shuffle", 0) for m',
        "every fresh member shuffles with member 0's seed",
    ),
    Mutant(
        "S3", "src/pseudoreplay/classifier.py",
        'init_model(spec, derive_seed(seed, "init", m))',
        'init_model(spec, derive_seed(seed, "init", m + 1))',
        "a fresh member's init takes the next member's seed",
    ),
    Mutant(
        "S4", "src/pseudoreplay/continual.py",
        'seed=derive_seed(seed, "task", i),',
        'seed=derive_seed(seed, "task", i - 1),',
        "a fresh ensemble takes the previous task's seed",
    ),
    Mutant(
        "I1", "src/pseudoreplay/classifier.py",
        "grad += np.multiply(penalty.scaled_fisher, delta, out=term)",
        "np.multiply(penalty.scaled_fisher, delta, out=term)",
        "the EWC anchor's gradient term is dropped, its loss term kept",
    ),
    Mutant(
        "I2", "src/pseudoreplay/continual.py",
        "standardizer = fit_standardizer(mix)",
        "standardizer = fit_standardizer(seq.train[i])",
        "a task's standardizer is fitted on the raw new class, not on its mix",
    ),
    Mutant(
        "I3", "src/pseudoreplay/continual.py",
        "] + [seq.train[i]])",
        "] + [seq.train[i - 1].select(slice(0, 1)), seq.train[i]])",
        "an rcl mix also takes one raw window of the previous class",
    ),
    Mutant(
        "I4", "src/pseudoreplay/classifier.py",
        "np.random.default_rng(seed).uniform(",
        "np.random.default_rng(seed + 1).uniform(",
        "extend_output draws the new head unit from the wrong seed",
    ),
    Mutant(
        "I5", "src/pseudoreplay/continual.py",
        "y_pred.append(np.argmax(probs.mean(axis=0), axis=1))",
        "y_pred.append(upto - np.argmax(probs.mean(axis=0)[:, ::-1], axis=1))",
        "evaluation breaks an ensemble's argmax tie toward the higher class",
    ),
    Mutant(
        "I6", "src/pseudoreplay/data.py",
        "(length - window) // stride + 1)",
        "(length - window) // stride)",
        "a trial's window count drops its last window",
    ),
    Mutant(
        "I7", "src/pseudoreplay/continual.py",
        "fisher=pad_parameters(member.spec, extended.spec, fishers[m_idx]),",
        "fisher=pad_parameters(member.spec, extended.spec, fishers[0]),",
        "every carried member is weighted by member 0's Fisher diagonal",
    ),
    Mutant(
        "I8", "src/pseudoreplay/continual.py",
        "theta_star=pad_parameters(member.spec, extended.spec, member.parameters),",
        "theta_star=pad_parameters(member.spec, extended.spec, ens.members[0].parameters),",
        "every carried member is anchored to member 0's parameters",
    ),
    Mutant(
        "I9", "src/pseudoreplay/data.py",
        "step = max(2, _STD_BLOCK // n)",
        "step = max(1, _STD_BLOCK // n)",
        "a standardizer block may be one feature wide, which numpy sums pairwise",
    ),
    Mutant(
        "R1", "src/pseudoreplay/reporting.py",
        "aggregate([run.tasks[t].report for run in runs])",
        "aggregate([run.tasks[t].report for run in runs[:1]])",
        "a method's table cells are aggregated over its first run alone",
    ),
    Mutant(
        "R2", "src/pseudoreplay/reporting.py",
        "np.mean([run.tasks[t].member_f_std for run in runs])",
        "np.max([run.tasks[t].member_f_std for run in runs])",
        "a member spread cell is the largest run's spread, not the mean",
    ),
    Mutant(
        "N1", "src/pseudoreplay/continual.py",
        "if not carried or n_tasks < 2 or replace(",
        "if not carried or replace(",
        "carried_problems refuses a carried strategy's final net even with one task",
    ),
    Mutant(
        "N2", "src/pseudoreplay/continual.py",
        "net = settings.final_net if i == seq.n_tasks else settings.net",
        "net = settings.final_net",
        "every task, not only the last, trains final_net when given",
    ),
    Mutant(
        "U1", "src/pseudoreplay/classifier.py",
        "velocity *= beta  # heavy ball",
        "# heavy ball",
        "a train step drops the decay of its velocity, so momentum sums every gradient",
    ),
    Mutant(
        "B1", "src/pseudoreplay/data.py",
        'if line in ("", "\\n"):',
        'if line == "":',
        "the blank-line filter passes a file's blank line, which np.loadtxt skips",
    ),
    Mutant(
        "P1", "src/pseudoreplay/continual.py",
        "final_net=replace(settings.final_net or net, input_shape=shape))",
        "final_net=settings.final_net or net)",
        "run_strategy builds final_net at its own input shape, not the sequence's, before task 1",
    ),
    Mutant(
        "C1", "src/pseudoreplay/continual.py",
        "if len({t.n_channels for t in trials}) > 1:",
        "if False:",
        "split_trials accepts trials that disagree on channel count",
    ),
    Mutant(
        "G1", "src/pseudoreplay/generator.py",
        "_neighbor_table(self.memory.reshape(self.memory_size, -1), self.k)",
        "_neighbor_table(self.memory[:, :1].reshape(self.memory_size, -1), self.k)",
        "the neighbour table ranks the windows by their first step alone",
    ),
    Mutant(
        "G2", "src/pseudoreplay/generator.py",
        "out *= np.concatenate(u)[:, None, None]",
        "out *= np.concatenate(u)[:1, None, None]",
        "generate scales every row by the first row's u",
    ),
    Mutant(
        "T1", "src/pseudoreplay/continual.py",
        "if part.window_shape != shape:",
        "if False:",
        "a sequence built directly accepts windows of a second shape",
    ),
    Mutant(
        "T2", "src/pseudoreplay/continual.py",
        "if np.any(part.y != pos):",
        "if np.any(train.y != pos):",
        "a sequence built directly checks only its training windows' labels",
    ),
    Mutant(
        "P2", "src/pseudoreplay/classifier.py",
        "padded = np.zeros(new_spec.param_count)",
        "padded = np.ones(new_spec.param_count)",
        "pad_parameters pads the coordinates of a grown head with ones",
    ),
    Mutant(
        "D1", "src/pseudoreplay/continual.py",
        "if repeated := sorted({c for c in self.class_ids if self.class_ids.count(c) > 1}):",
        "if False:",
        "a sequence built directly accepts a repeated class id",
    ),
]


def _tier1(tree: Path, pinned: bool) -> str:
    """Run tier-1 in `tree`; "" when it passes, else the first failing test."""
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
           "--continue-on-collection-errors"]
    if not pinned:
        cmd += ["--deselect", PINNED]
    # the acceptance gates run last, as they take most of a pass; the
    # staleness test is left out, as a mutated copy fails it by design
    files = sorted(tree.glob("tests/test_*.py"), key=lambda p: (p.name == ACCEPTANCE, p.name))
    cmd += [str(p.relative_to(tree)) for p in files if p.name != STALENESS]
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    env.setdefault("OPENBLAS_NUM_THREADS", "1")
    try:
        proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return f"(timed out after {TIMEOUT_S} s)"
    if proc.returncode == 0:
        return ""
    # a node id, whose parameter part may hold spaces and " - ", or the path
    # of a file that fails to collect, then the message
    failed = re.search(r"^(?:FAILED|ERROR) (\S+?(?:::\w+(?:\[.*?\])?)?)(?: - |$)", proc.stdout, re.MULTILINE)
    return failed.group(1) if failed else f"(pytest exited {proc.returncode})"


def _copy(dest: Path, mutant: Mutant | None) -> Path:
    tree = dest / "repo"
    shutil.copytree(ROOT, tree, ignore=IGNORED)
    if mutant is not None:
        path = tree / mutant.file
        text = path.read_text(encoding="utf-8")
        path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
    return tree


def _stale(mutant: Mutant) -> bool:
    return (ROOT / mutant.file).read_text(encoding="utf-8").count(mutant.old) != 1


def main(names: list[str]) -> int:
    unknown = [name for name in names if name not in {m.name for m in MUTANTS}]
    if unknown:
        print(f"no mutant named {unknown}; choose from {[m.name for m in MUTANTS]}")
        return 2
    mutants = [m for m in MUTANTS if m.name in names] if names else MUTANTS
    stale = [m.name for m in mutants if _stale(m)]
    if stale:
        print(f"old text not found exactly once for {stale}; update these mutants")
        return 2
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        tree = _copy(Path(tmp), None)
        failed = _tier1(tree, pinned=False)
        pin_failed = _tier1(tree, pinned=True)
    if failed:
        print(f"the unmutated copy fails tier-1 at {failed}; no kill would mean anything")
        return 1
    if pin_failed:
        print(f"the unmutated copy fails tier-1 with the pin at {pin_failed}; "
              "with-pin verdicts are unavailable")
    survivors = []
    for mutant in mutants:
        start = time.perf_counter()
        with tempfile.TemporaryDirectory(prefix=f"mutant-{mutant.name}-") as tmp:
            tree = _copy(Path(tmp), mutant)
            killer = _tier1(tree, pinned=False)
            if killer:
                with_pin = "not run (killed without the pin)"
            elif pin_failed:
                with_pin = "unavailable (the unmutated copy fails with the pin)"
            else:
                pin_killer = _tier1(tree, pinned=True)
                with_pin = f"killed by {pin_killer}" if pin_killer else "SURVIVED"
        if not killer and mutant.must_die:
            survivors.append(mutant.name)
        mark = "must die" if mutant.must_die else "equivalent"
        without_pin = f"killed by {killer}" if killer else "SURVIVED"
        print(f"{mutant.name}: {mutant.reason} ({mark}, {time.perf_counter() - start:.0f} s)\n"
              f"    with the pin:    {with_pin}\n    without the pin: {without_pin}", flush=True)
    if survivors:
        print(f"must-die mutants that survive without the pin: {survivors}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
