#!/usr/bin/env python3
"""Benchmark of the mccool reproduction: one workload, one seed, one run.

    python3 perfbench/run.py --workload tables|structure|algebra \
        --seed N --seconds S --trace 0|1 [--record FILE]

Run it from the root of a checkout; the package is taken from src/.
Each pass of the workload runs in a fresh Python process that does one
operation at a time (see workloads.py).  Passes repeat until --seconds
have gone by, at least one pass; each algebra pass draws its own stream
from the seed and the pass index.

--trace 0 prints the end-to-end metrics: medians over the passes of
wall_s, cpu_s and peak_rss_mb, and setup_s, the median over several fresh
processes of the time from process start until ``import mccool`` returns.
Times are scaled to the reference host speed measured alongside them
(hostspeed.py); the raw times, the scales and the per-operation latencies
op_p50_ms and op_p99_ms (pooled over the passes, also scaled) are in the
detail.  --trace 1 runs one untraced and one traced pass and prints the
per-layer metrics from the traced pass's spans, in raw seconds;
trace.overhead_s is the gap between the two passes' raw wall times.

Every output is checked (goldens under perfbench/goldens, the reference
table in src/mccool/data, exact identities).  A failed check is counted
in ``failed``, and the run exits 1.  The last stdout line is the result
object; the line before it holds the environment stamp and the detail.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
import spans as spans_mod

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "mccool" / "__init__.py"
SPANS_DIR = ROOT / ".perfbench"

WORKLOADS = ("tables", "structure", "algebra")
SETUP_PROBES = 4  # fresh processes timed for setup_s before the passes, and again after
SPEED_PROBES = 25  # host-speed probes in each of them, after the import
RUN_LIMIT_S = 170  # a run must end within 180 s

UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
               "GOTO_NUM_THREADS", "OMP_PROC_BIND", "OMP_PLACES")


class BenchError(RuntimeError):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 1:
        raise BenchError("out of time for this run")
    return left


def setup_probe(deadline: float) -> tuple:
    """(seconds from spawning a fresh interpreter until ``import mccool``
    returns, scale to reference time from the host speed right after)."""
    code = ("import time, mccool; t = time.clock_gettime(time.CLOCK_MONOTONIC); "
            f"import sys; sys.path.insert(0, {str(HERE)!r}); import hostspeed, statistics; "
            f"print(t, statistics.median(hostspeed.probe() for _ in range({SPEED_PROBES})))")
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=_child_env(),
                          capture_output=True, text=True, timeout=_remaining(deadline))
    if proc.returncode != 0:
        raise BenchError(f"import mccool failed:\n{proc.stderr}")
    t1, speed = map(float, proc.stdout.split()[-2:])
    return t1 - t0, hostspeed.scale(speed)


def run_pass(args, deadline: float, index: int, spans_path=None, run_id="") -> dict:
    """One pass in a fresh process; algebra draws pass `index`'s own stream."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--pass-index", str(index), "--size", args.size,
           "--goldens", str(args.goldens)]
    if spans_path is not None:
        cmd += ["--spans", str(spans_path), "--run-id", run_id]
    proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), capture_output=True, text=True,
                          timeout=_remaining(deadline))
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def _loadavg():
    try:
        return float(Path("/proc/loadavg").read_text().split()[0])
    except (OSError, ValueError, IndexError):
        return None


def _git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def env_stamp() -> dict:
    return {
        "git_sha": _git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "thread_vars": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
        "loadavg_1m_start": _loadavg(),
    }


def measure(args, deadline: float) -> tuple:
    """(metrics, passes, detail) for one run."""
    detail = {}
    if args.trace:
        plain = run_pass(args, deadline, 0)
        SPANS_DIR.mkdir(exist_ok=True)
        spans_path = SPANS_DIR / f"spans-{args.workload}.jsonl"
        run_id = f"{args.workload}-{args.seed}-{os.getpid()}-{time.time_ns()}"
        traced = run_pass(args, deadline, 0, spans_path, run_id)
        spans = spans_mod.read_spans(spans_path)
        problems = spans_mod.check_nesting(spans)
        if problems:
            raise BenchError("bad span tree: " + "; ".join(problems[:5]))
        metrics = spans_mod.layer_metrics(spans, traced["wall_s"])
        metrics.update(traced["counters"])
        metrics["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
        detail.update(spans_file=str(spans_path.relative_to(ROOT)), run_id=run_id)
        return metrics, [plain, traced], detail

    setup_probe(deadline)  # warm-up: compiles bytecode if the checkout has none
    setups = [setup_probe(deadline) for _ in range(SETUP_PROBES)]
    passes = []
    start = time.monotonic()
    while not passes or time.monotonic() - start < args.seconds:
        passes.append(run_pass(args, deadline, len(passes)))
    setups += [setup_probe(deadline) for _ in range(SETUP_PROBES)]
    op_ms = [x * p["scale"] for p in passes for x in p["op_ms"]]
    metrics = {
        "wall_s": statistics.median(p["wall_s"] * p["scale"] for p in passes),
        "setup_s": statistics.median(t * scale for t, scale in setups),
        "cpu_s": statistics.median(p["cpu_s"] * p["scale"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    p99 = percentile(op_ms, 99)
    beyond = sum(1 for x in op_ms if x > p99)
    detail.update(setup_s_raw=[t for t, _ in setups], setup_scale=[s for _, s in setups],
                  op_p50_ms=statistics.median(op_ms), op_p99_ms=p99, op_samples=len(op_ms),
                  op_samples_beyond_p99=beyond, p99_has_ten_beyond=beyond >= 10)
    return metrics, passes, detail


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith((".s", "self_s", "overhead_s")):
        return "s"
    if name.endswith(("ratio", "coverage")):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "toy"), default="full",
                        help="toy: the self-test sizes")
    parser.add_argument("--goldens", type=Path, default=None,
                        help="directory of golden outputs (default perfbench/goldens/<size>)")
    parser.add_argument("--record", type=Path, default=None,
                        help="append the full record (stamp, result, detail) to this file")
    args = parser.parse_args(argv)
    if args.goldens is None:
        args.goldens = HERE / "goldens" / args.size
    if not PACKAGE.is_file():
        print(f"error: no package at {PACKAGE.relative_to(ROOT)}; run from a checkout",
              file=sys.stderr)
        return 2
    if args.workload != "algebra" and not args.goldens.is_dir():
        print(f"error: no goldens at {args.goldens}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    stamp = env_stamp()
    try:
        metrics, passes, detail = measure(args, deadline)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    stamp["loadavg_1m_end"] = _loadavg()
    stamp["numpy"] = passes[0]["numpy"]

    attempted = sum(p["attempted"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            name: {"value": value, "unit": unit_of(name)}
            for name, value in metrics.items()
        },
    }
    detail.update(
        workload=args.workload, seed=args.seed, size=args.size, trace=args.trace,
        fail_ratio=len(failures) / attempted if attempted else 1.0,
        failures=failures[:20], passes=len(passes),
        pass_wall_s_raw=[p["wall_s"] for p in passes],
        pass_cpu_s_raw=[p["cpu_s"] for p in passes],
        pass_scale=[p["scale"] for p in passes],
        pass_speed_probes=[p["probes"] for p in passes],
        pass_peak_rss_mb=[p["peak_rss_mb"] for p in passes],
        pass_op_ms_by_name=[p["op_ms_by_name"] for p in passes],
    )
    print(f"fail_ratio {detail['fail_ratio']} ({len(failures)} failed of {attempted} checks)")
    if not args.trace:
        print(f"op_p50_ms {detail['op_p50_ms']:.6g} ms, op_p99_ms {detail['op_p99_ms']:.6g} ms "
              f"({detail['op_samples']} operations, {detail['op_samples_beyond_p99']} beyond p99)")
    for f in failures[:20]:
        print(f"FAILED: {f}")
    print(json.dumps({"env": stamp, "detail": detail}, sort_keys=True))
    if args.record is not None:
        with open(args.record, "a") as fh:
            fh.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                 "trace": args.trace, "env": stamp, "result": result,
                                 "detail": detail}, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
