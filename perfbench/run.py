"""Seeded scenario benchmark for pseudospin: one client, closed loop of cli.run calls.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each call turns one generated scenario file into files on disk.  With
--trace 0 the run measures end-to-end metrics with nothing instrumented,
each op's CPU time scaled by a calibration timed next to it;
with --trace 1 it alternates untraced and traced passes over the scenario
set and reports per-layer metrics from the outside-in tracer.  Outputs are
verified after the timed loop.  The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Import the benchmark as a package from the checkout root, and the program from its src/.
sys.path[0] = str(ROOT)

import numpy as np  # noqa: E402

from perfbench import scenarios, tracing  # noqa: E402

WORK = ROOT / ".perfbench_work"
# A run makes whole passes over the scenario set, at least ceil(MIN_OPS /
# scenarios) of them, so that at least ten ops lie beyond the 90th percentile
# and every scenario counts equally.
MIN_OPS = 100
SETUP_REPEATS = 16  # half before the timed loop and half after, to span the machine's drift

# The shared machine this benchmark runs on changes speed by up to 1.4x for
# seconds to minutes at a time, and other processes take turns on its cores.
# End-to-end times are therefore CPU time (which leaves out the turns of other
# processes).  Op times are also scaled by CAL_REF_S over the CPU time of a
# fixed calibration timed next to the op, which cancels the speed of the
# moment.  CAL_REF_S is the calibration's CPU time on the 2-vCPU machine the
# baseline was taken on, in its fast state, so the times read as seconds on
# that machine.  Set-up time is not scaled: it is mostly imports (page faults,
# loading shared libraries), which the speed changes hardly touch, and scaling
# by the calibration widened its spread between runs from 0.07 to 0.12.
CAL_STEPS = 30
CAL_REF_S = 0.9e-3
_CAL_U = np.array([[np.cos(0.3), -np.sin(0.3)], [np.sin(0.3), np.cos(0.3)]]) * np.exp(0.2j)
_CAL_W = np.array([0.6, 0.0, 0.8])


def calibrate() -> float:
    """CPU seconds of a fixed mix of interpreter work and small-array numpy calls."""
    start = time.thread_time()
    x, v, total = _CAL_U, _CAL_W, 0.0
    for i in range(CAL_STEPS):
        x = x @ _CAL_U
        v = np.cross(v, _CAL_W) + _CAL_W
        v = v / np.sqrt(v @ v)
        total += abs(complex(x[0, 0])) + float(v[0]) + i
    return time.thread_time() - start


def import_cli():
    """Import pseudospin.cli from this checkout's src/, or exit with an error."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import pseudospin.cli as cli
    except ImportError as exc:
        raise SystemExit(f"cannot import pseudospin from {src}: {exc}")
    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"pseudospin was imported from {cli.__file__}, not from {src}")
    return cli


@dataclass(frozen=True)
class Record:
    op: scenarios.Op
    code: object  # exit code, or the exception cli.run raised
    wall_s: float
    cpu_s: float  # process CPU time, all threads
    digest: str


def out_dir(directory: Path, op) -> Path:
    """Each scenario writes to its own directory, overwritten on every cycle.

    Creating a fresh directory per call would time ext4 directory creation,
    which varies several-fold on a shared disk, instead of the program.
    """
    return directory / f"out-{op.index:03d}"


def digest(out: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out.iterdir()) if out.is_dir() else ():
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def call(cli, op, directory: Path) -> Record:
    """One timed cli.run call; the output digest is taken after the clock stops."""
    out = out_dir(directory, op)
    cpu_start = time.process_time()
    start = time.perf_counter()
    try:
        code = cli.run(op.kind, op.path, out)
    except Exception as exc:  # an op that raises is a failed op, not a crashed benchmark
        code = exc
    wall_s = time.perf_counter() - start
    cpu_s = time.process_time() - cpu_start
    return Record(op, code, wall_s, cpu_s, digest(out))


def warm_up(cli, ops, directory: Path) -> None:
    """One untimed op per kind, so imports and lazy set-up finish before timing."""
    seen = set()
    for op in ops:
        if op.kind not in seen:
            seen.add(op.kind)
            call(cli, op, directory / "warmup")


def setup(cli, workload, seed, directory: Path, sizes=None):
    ops = scenarios.generate(workload, seed, directory / "scenarios", sizes)
    warm_up(cli, ops, directory)
    return ops


def measure_setup(workload, seed, repeats) -> list[float]:
    """CPU times of fresh processes that import, generate and warm up, then exit."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    times = []
    for _ in range(repeats):
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, timeout=120)
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        times.append((after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime))
    return times


def timed_loop(cli, ops, directory: Path, seconds: float, passes: int):
    """Whole passes over the ops until seconds have passed and at least passes are done.

    Returns the records and, for each, its CPU time at the reference speed: a
    calibration runs before every op, and a pass is scaled by their median.
    """
    records, scaled = [], []
    deadline = time.perf_counter() + seconds
    while len(records) < passes * len(ops) or time.perf_counter() < deadline:
        calibrations = []
        for op in ops:
            calibrations.append(calibrate())
            records.append(call(cli, op, directory))
        scale = CAL_REF_S / statistics.median(calibrations)
        scaled += [r.cpu_s * scale for r in records[-len(ops):]]
    return records, scaled


def traced_passes(cli, ops, directory: Path, seconds: float, tracer):
    """Alternate untraced and traced passes over the ops until seconds have passed."""
    untraced, traced = [], []
    deadline = time.perf_counter() + seconds
    passes = 0
    while passes == 0 or time.perf_counter() < deadline:
        untraced += [call(cli, op, directory) for op in ops]
        with tracer:
            for op in ops:
                tracer.op = len(traced)
                traced.append(call(cli, op, directory))
        if tracing.wrapped_names():
            raise RuntimeError("tracer wrappers left in place after a traced pass")
        passes += 1
    return untraced, traced, passes


def percentile(values, q):
    """Nearest-rank percentile: the smallest value with at least q% of values at or below it."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def measure(workload, seed, seconds, trace, sizes=None, min_ops=MIN_OPS, setup_repeats=SETUP_REPEATS):
    """Run one workload and return the result object printed as the last line.

    sizes, min_ops and setup_repeats exist so the tests can run at a tiny size.
    """
    cli = import_cli()
    setup_times = [] if trace else measure_setup(workload, seed, setup_repeats // 2)
    WORK.mkdir(exist_ok=True)
    directory = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
    try:
        with open(os.devnull, "w") as sink, redirect_stderr(sink):
            ops = setup(cli, workload, seed, directory, sizes)
            if trace:
                tracer = tracing.Tracer()
                untraced, traced, passes = traced_passes(cli, ops, directory, seconds, tracer)
                records = untraced + traced
            else:
                records, scaled = timed_loop(cli, ops, directory, seconds, -(-min_ops // len(ops)))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        # scipy is imported only now, so it stays out of the peak RSS above.
        from perfbench.verify import verify

        # The program is deterministic, so every cycle of a scenario must leave the
        # same bytes; the last output of each scenario is verified in full.
        last = {r.op.index: r for r in records}
        verdicts = {i: verify(r.op, out_dir(directory, r.op), r.code) for i, r in last.items()}
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    failed_by_scenario = {}
    for r in records:
        problems = list(verdicts[r.op.index].problems)
        if r.code != r.op.expect_code:
            problems.append(f"exit code {r.code!r}, expected {r.op.expect_code}")
        if r.digest != last[r.op.index].digest:
            problems.append("output differs from another cycle of the same scenario")
        if problems:
            failed_by_scenario.setdefault(r.op.index, []).append(problems)
    failed = sum(len(runs) for runs in failed_by_scenario.values())
    for index, runs in failed_by_scenario.items():
        op = last[index].op
        print(f"scenario {op.path.name} ({op.label}) failed {len(runs)} times: "
              f"{'; '.join(runs[0][:3])}", file=sys.stderr)
    disagreements = sum(v.surface_disagreements for v in verdicts.values())
    if disagreements:
        print(f"known defect: {disagreements} Rabi records in the suppression-surface tolerance "
              "band report a regime that disagrees with omega_sq", file=sys.stderr)
    if trace:
        durations = [r.wall_s for r in records]
        n_untraced = len(untraced)
        pass_points = sum(verdicts[op.index].points for op in ops)
        eta_ops = sum(op.kind == "evolve" and op.scenario.get("metric") == "eta" for op in ops)
        metrics = tracing.layer_metrics(tracer.spans, passes, pass_points * passes, eta_ops * passes)
        metrics.update({
            "cli.bytes_written": (sum(verdicts[op.index].bytes for op in ops), "B"),
            "cli.error_exits": (sum(r.code != 0 for r in traced) // passes, "count"),
            "verify.failed_ratio": (failed / len(records), "ratio"),
            "verify.surface_disagreements": (disagreements, "count"),
            "trace.overhead_ratio": (sum(durations[n_untraced:]) / sum(durations[:n_untraced]),
                                     "ratio"),
            "cli.run.wall_over_cpu": (sum(durations[:n_untraced]) /
                                      sum(r.cpu_s for r in untraced), "ratio"),
        })
        tracing.write_spans(tracer.spans, WORK / f"spans-{workload}.csv", len(ops))
    else:
        metrics = {
            "op_s_p50": (statistics.median(scaled), "s"),
            "op_s_p90": (percentile(scaled, 90), "s"),
            "rows_per_s": (sum(verdicts[r.op.index].rows for r in records) / sum(scaled), "1/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        setup_times += measure_setup(workload, seed, setup_repeats - setup_repeats // 2)
        if setup_times:
            metrics["setup_s"] = (statistics.median(setup_times), "s")
        wall, cpu = sum(r.wall_s for r in records), sum(r.cpu_s for r in records)
        print(f"{workload}: {len(records)} ops of {len(ops)} scenarios; {wall:.3f} s wall, "
              f"{cpu:.3f} s CPU, {sum(scaled):.3f} s CPU at the reference speed", file=sys.stderr)
    return {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=scenarios.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import, generate and warm up, then exit (times setup_s)")
    args = parser.parse_args(argv)
    if args.setup_only:
        cli = import_cli()
        WORK.mkdir(exist_ok=True)
        directory = Path(tempfile.mkdtemp(prefix="setup-", dir=WORK))
        try:
            with open(os.devnull, "w") as sink, redirect_stderr(sink):
                setup(cli, args.workload, args.seed, directory)
        finally:
            shutil.rmtree(directory, ignore_errors=True)
        return 0
    result = measure(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
