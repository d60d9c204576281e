#!/usr/bin/env python3
"""The manyworlds benchmark: one workload per run, measured from outside.

    python3 bench/run.py --workload dense-branch --seed 1 --seconds 35 --trace 0

Builds the workload's inputs from --seed, then runs passes (one pass
executes the workload's full input list) for about --seconds seconds, at
least two. Every pass runs the same inputs, so each pass after the first
is a rerun whose report bytes must equal the first pass's. Every report is
checked against the paper's invariants (see checks.py).

Times are in reference-scaled seconds: measured wall times times REF_S
over the mean wall time of the reference probe (reference.py), which runs
once before every pass and once at the end. The machine's speed drifts by
tens of percent from one minute to the next; the probe drifts with it, so
the scaled times drift less. Raw seconds are printed beside them.

Pass times are averaged, not taken as a median: the machine switches
between a fast and a slow state every few seconds, and the median of a
few passes jumps between the two while the mean moves smoothly.

With --trace 0 every pass runs untraced and the end-to-end metrics are
reported. With --trace 1 passes alternate untraced and traced (see
tracing.py) and the per-layer metrics are reported, with the tracing
overhead. Metric names and units are those declared in BENCHMARK.json at
the repository root. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

Exits with code 2, printing no result, when the package source is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from checks import check_report

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CHILD = BENCH_DIR / "child.py"
REFERENCE = [sys.executable, str(BENCH_DIR / "reference.py")]
VERSION = [sys.executable, "-m", "manyworlds", "--version"]

# One BLAS/OpenMP thread: on a small shared machine extra threads add more
# run-to-run spread than speed, and the reports do not depend on it.
BLAS_THREADS = 1
REF_S = 0.5                # reference probe wall time at which scaled times equal raw ones
SETUP_PROBES_PER_PASS = 2  # fresh `python -m manyworlds --version` runs per pass
MIN_PASSES = 2             # the second pass is the determinism rerun of the first
RUN_LIMIT_S = 170.0        # every child is killed by then, so a run ends within 180 s

SCHMIDT_SPLITS = ((2, 2), (2, 8), (4, 4), (4, 6), (8, 8), (16, 16), (8, 32))
BRANCH_DIMS = range(2, 17)
SMALL_CALLS = 3000


# --- workloads: seed -> list of processes, each ("cli", op) or ("calls", [op, ...])

def _op(experiment: str, parameters: dict, rng: random.Random) -> dict:
    return {"experiment": experiment, "parameters": parameters, "seed": rng.randrange(2**63)}


def dense_branch(rng: random.Random) -> list:
    """Dense O(n^3) branching: one long device chain and one large premeasurement."""
    return [
        ("cli", _op("chain", {"dim": 2, "devices": 9}, rng)),
        ("cli", _op("branch", {"dim": 64}, rng)),
    ]


def trials_mc(rng: random.Random) -> list:
    """Seeded Monte Carlo drivers, dominated by per-trial Python and RNG set-up."""
    return [
        ("cli", _op("overlap", {"dim": 64, "trials": 25000}, rng)),
        ("cli", _op("zeno-random", {"dim": 64, "k": 4, "trials": 15000}, rng)),
        ("cli", _op("evolve", {"depth": 10, "mode": "single-history", "trials": 25000}, rng)),
    ]


def small_calls(rng: random.Random) -> list:
    """Thousands of tiny decompositions and branchings in one process."""
    ops = []
    for i in range(SMALL_CALLS):
        if i % 4 == 3:
            dim = BRANCH_DIMS[(i // 4) % len(BRANCH_DIMS)]
            ops.append(_op("branch", {"dim": dim}, rng))
        else:
            d_left, d_right = SCHMIDT_SPLITS[(i - i // 4) % len(SCHMIDT_SPLITS)]
            ops.append(_op("schmidt", {"d_left": d_left, "d_right": d_right}, rng))
    rng.shuffle(ops)
    return [("calls", ops)]


WORKLOADS = {"dense-branch": dense_branch, "trials-mc": trials_mc, "small-calls": small_calls}


def ops_of(plan: list) -> list[dict]:
    return [op for kind, payload in plan for op in ([payload] if kind == "cli" else payload)]


def cli_argv(op: dict) -> list[str]:
    argv = [op["experiment"]]
    for name, value in op["parameters"].items():
        argv += ["--" + name.replace("_", "-"), str(value)]
    return argv + ["--seed", str(op["seed"])]


# --- child processes

class Runner:
    """Starts children with a fixed environment and reaps each with its rusage."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = str(BLAS_THREADS)
        self.env = env
        self.ref_s: list[float] = []

    def run(self, cmd: list[str], tag: str) -> tuple[int, float, int, str]:
        """Run one child to exit: (exit code, wall s, peak RSS KiB, stdout or error)."""
        out, err = self.work / f"{tag}.stdout", self.work / f"{tag}.stderr"
        with open(out, "wb") as fout, open(err, "wb") as ferr:
            started = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=fout, stderr=ferr)
            timer = threading.Timer(max(self.deadline - time.monotonic(), 1.0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
                timer.join()
            wall = time.perf_counter() - started
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        if code != 0:
            tail = err.read_text(encoding="utf-8", errors="replace").strip()[-300:]
            return code, wall, usage.ru_maxrss, f"exit {code}: {tail}"
        return code, wall, usage.ru_maxrss, out.read_text(encoding="utf-8", errors="replace")

    def reference(self) -> float:
        code, wall, _, stdout = self.run(REFERENCE, "reference")
        if code != 0:
            raise RuntimeError(f"reference probe failed: {stdout}")
        self.ref_s.append(wall)
        return wall

    def scale(self) -> float:
        """Factor from raw to reference-scaled seconds for this run."""
        return REF_S / statistics.fmean(self.ref_s)


@dataclass
class Pass:
    """One execution of a workload's input list, with its set-up probes."""

    traced: bool
    wall_s: float = 0.0        # sum of child lifetimes, start to exit (raw)
    peak_rss_kib: int = 0      # largest single-child peak
    setup_s: list = field(default_factory=list)       # raw, per set-up probe
    setup_errors: list = field(default_factory=list)
    reports: list = field(default_factory=list)  # per op: report text, or None
    errors: list = field(default_factory=list)   # per op: reason for a failure, or None
    call_s: list = field(default_factory=list)   # raw, per in-process call
    span_files: list = field(default_factory=list)


def run_pass(runner: Runner, plan: list, traced: bool, index: int) -> Pass:
    p = Pass(traced)
    runner.reference()
    for i in range(SETUP_PROBES_PER_PASS):
        code, wall, _, stdout = runner.run(VERSION, f"p{index}-setup{i}")
        p.setup_s.append(wall)
        if code != 0 or not stdout.startswith("manyworlds "):
            p.setup_errors.append(f"--version: {stdout.strip()}")
    for k, (kind, payload) in enumerate(plan):
        tag = f"p{index}-{k}"
        spans = runner.work / f"{tag}.spans.json"
        if kind == "cli":
            report = runner.work / f"{tag}.report.json"
            argv = cli_argv(payload) + ["--out", str(report)]
            cmd = ([sys.executable, str(CHILD), "cli", str(spans), *argv] if traced
                   else [sys.executable, "-m", "manyworlds", *argv])
            code, wall, rss, stdout = runner.run(cmd, tag)
            p.reports.append(report.read_text(encoding="utf-8") if code == 0 else None)
            p.errors.append(None if code == 0 else stdout)
        else:
            configs, results = runner.work / "calls.json", runner.work / f"{tag}.results.json"
            if not configs.exists():
                configs.write_text(json.dumps(payload), encoding="utf-8")
            cmd = [sys.executable, str(CHILD), "calls", str(configs), str(results)]
            code, wall, rss, stdout = runner.run(cmd + ([str(spans)] if traced else []), tag)
            if code == 0:
                for call_s, text, error in json.loads(results.read_text(encoding="utf-8")):
                    p.call_s.append(call_s)
                    p.reports.append(text)
                    p.errors.append(error)
            else:
                p.reports += [None] * len(payload)
                p.errors += [stdout] * len(payload)
        p.wall_s += wall
        p.peak_rss_kib = max(p.peak_rss_kib, rss)
        if traced and code == 0:
            p.span_files.append(spans)
    return p


# --- per-layer metrics

def layer_table(p: Pass, scale: float) -> tuple[dict[str, float], set[str]]:
    """Per-layer numbers of one traced pass, keyed by metric name, and the traced names.

    Self time is a span's duration minus the time its child spans cover.
    Times are multiplied by `scale`.
    """
    table: dict[str, float] = {}
    wrapped: set[str] = set()
    inside = 0.0
    for path in p.span_files:
        data = json.loads(path.read_text(encoding="utf-8"))
        wrapped.update(data["wrapped"])
        spans = data["spans"]
        table["trace.wrapped_calls"] = table.get("trace.wrapped_calls", 0) + len(spans)
        covered = [0.0] * len(spans)
        for _name, start, end, parent, _op, _counts in spans:
            if parent >= 0:
                covered[parent] += end - start
            else:
                inside += (end - start) * scale
        for (name, start, end, _parent, _op, counts), child_s in zip(spans, covered):
            total_s = (end - start) * scale
            self_s = total_s - child_s * scale
            layer = name.split(".")[0]
            for key, value in (("calls", 1), ("total_s", total_s), ("self_s", self_s),
                               *(counts or {}).items()):
                table[f"{name}.{key}"] = table.get(f"{name}.{key}", 0) + value
            table[f"{layer}.self_s"] = table.get(f"{layer}.self_s", 0.0) + self_s
    table["trace.outside_s"] = p.wall_s * scale - inside
    return table, wrapped


def per_layer_metrics(passes: list[Pass], scale: float, declared: list[dict]) -> dict[str, float]:
    """Mean over traced passes of each declared per-layer metric, plus the overhead."""
    traced = [layer_table(p, scale) for p in passes if p.traced]
    wrapped = set().union(*(names for _, names in traced))
    known = wrapped | {name.split(".")[0] for name in wrapped} | {"trace"}
    values = {"trace.overhead_frac": (
        statistics.fmean(p.wall_s for p in passes if p.traced)
        / statistics.fmean(p.wall_s for p in passes if not p.traced) - 1.0)}
    for metric in declared:
        name = metric["name"]
        if name.rsplit(".", 1)[0] not in known:
            raise KeyError(f"per-layer metric {name} names no traced function or layer")
        if name not in values:
            # a function this workload never calls counts zero
            values[name] = statistics.fmean(table.get(name, 0) for table, _ in traced)
    return values


# --- end-to-end metrics

def end_to_end_metrics(passes: list[Pass], scale: float, n_ops: int) -> dict[str, float]:
    wall_s = statistics.fmean(p.wall_s for p in passes) * scale
    return {
        "wall_s": wall_s,
        "peak_rss_mb": statistics.median(p.peak_rss_kib for p in passes) / 1024,
        "setup_s": statistics.median(s for p in passes for s in p.setup_s) * scale,
        "ops_per_s": n_ops / wall_s,
    }


def raw_lines(passes: list[Pass], plan: list, runner: Runner) -> list[str]:
    """Unscaled figures printed beside the metrics, workload-specific ones included."""
    walls = [p.wall_s for p in passes]
    raw_wall = statistics.fmean(walls)
    setup = [s for p in passes for s in p.setup_s]
    lines = [
        f"raw wall_s = {raw_wall:.6g} s (mean of {len(passes)} passes; median"
        f" {statistics.median(walls):.6g}; each {' '.join(f'{w:.3f}' for w in walls)})",
        f"raw setup_s = {statistics.median(setup):.6g} s (median of {len(setup)} probes)",
        f"raw reference probe = {statistics.fmean(runner.ref_s):.6g} s"
        f" (mean of {len(runner.ref_s)}; REF_S = {REF_S} s)",
        f"raw ops_per_s = {len(ops_of(plan)) / raw_wall:.6g} 1/s",
    ]
    trials = sum(op["parameters"].get("trials", 0) for op in ops_of(plan))
    if trials:
        lines.append(f"raw trials_per_s = {trials / raw_wall:.6g} 1/s ({trials} trials per pass)")
    calls = [s * 1000 for p in passes for s in p.call_s]
    if len(calls) >= 2:
        cuts = statistics.quantiles(calls, n=100)
        lines.append(f"raw call_ms.p50 = {cuts[49]:.6g} ms ({len(calls)} calls)")
        if len(calls) * 0.01 >= 10:
            lines.append(f"raw call_ms.p99 = {cuts[98]:.6g} ms"
                         f" ({len(calls) * 0.01:.0f} calls beyond it)")
    return lines


# --- entry point

def environment(runner: Runner) -> dict:
    code, _, _, stdout = runner.run([sys.executable, str(CHILD), "env"], "env")
    env = json.loads(stdout) if code == 0 else {"probe": stdout}
    env.update(
        nproc=len(os.sched_getaffinity(0)),
        blas_threads=BLAS_THREADS,
        omp_threads=BLAS_THREADS,
        loadavg_at_start=os.getloadavg(),
    )
    return env


def measure(runner: Runner, plan: list, seconds: float, trace: bool):
    """Run passes for about `seconds`; return them with the attempted count and failures."""
    ops = ops_of(plan)
    passes: list[Pass] = []
    attempted = 0
    failures: list[str] = []
    runner.run(VERSION, "warmup")  # fills the bytecode and file caches
    started = time.perf_counter()
    last = 0.0
    while len(passes) < MIN_PASSES or time.perf_counter() - started + last <= seconds:
        if time.monotonic() > runner.deadline:
            break
        t = time.perf_counter()
        p = run_pass(runner, plan, trace and len(passes) % 2 == 1, len(passes))
        attempted += len(p.setup_s) + len(ops)
        failures += p.setup_errors
        for k, (op, text, error) in enumerate(zip(ops, p.reports, p.errors)):
            if error is None:
                error = check_report(op, text)
            if error is None and passes and passes[0].reports[k] not in (None, text):
                error = "report bytes differ from the first pass"
            if error is not None:
                failures.append(f"{' '.join(cli_argv(op))}: {error}")
        passes.append(p)
        last = time.perf_counter() - t
    runner.reference()
    return passes, attempted, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "manyworlds" / "__init__.py").is_file():
        print(f"error: no manyworlds source under {SRC}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    plan = WORKLOADS[args.workload](random.Random(args.seed))

    work = Path(tempfile.mkdtemp(prefix=".bench_work-", dir=ROOT))
    try:
        runner = Runner(work, time.monotonic() + RUN_LIMIT_S)
        env = environment(runner)
        passes, attempted, failures = measure(runner, plan, args.seconds, bool(args.trace))
        if args.trace:
            kinds = declared["per_layer"]
            metrics = per_layer_metrics(passes, runner.scale(), kinds)
        else:
            kinds = declared["end_to_end"]
            metrics = end_to_end_metrics(passes, runner.scale(), len(ops_of(plan)))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for line in failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    print(f"manyworlds benchmark: workload {args.workload}, seed {args.seed}, trace {args.trace},"
          f" {len(passes)} passes of {len(ops_of(plan))} operations")
    print("env " + json.dumps(env))
    computed = {"flop_est", "degenerate_cols", "bytes"}
    for m in kinds:
        note = " (computed count)" if m["name"].rsplit(".", 1)[-1] in computed else ""
        print(f"{m['name']} = {metrics[m['name']]:.6g} {m['unit']}{note}")
    if not args.trace:
        for line in raw_lines(passes, plan, runner):
            print(line)
    failed = len(failures)
    print(f"fail_frac = {failed / attempted:.6g} ({failed} failed of {attempted} attempted)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in kinds},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
