"""One pass of one workload in a fresh process; run.py starts it.

Prints one JSON line: wall and CPU time, peak RSS, per-operation
latencies, the checks and cache counters.  Untraced, it samples the host
speed while the operations run (hostspeed.py) and reports the scale that
turns its times into reference times; the probes are left out of every
time.  With --spans it traces the calls into mccool instead and writes
the spans to that file.
The package comes from src/ of the checkout (run.py sets PYTHONPATH).
"""

import argparse
import json
import resource
import sys
import time
from pathlib import Path

import numpy

from mccool import freelie, johnson

import hostspeed
import spans as spans_mod
import workloads


def _goldens(directory: Path) -> dict:
    return {p.stem: p.read_text() for p in directory.glob("*.out")}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=("tables", "structure", "algebra"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pass-index", type=int, default=0)
    parser.add_argument("--size", default="full", choices=("full", "toy"))
    parser.add_argument("--goldens", required=True)
    parser.add_argument("--spans", default=None, help="trace and write spans here")
    parser.add_argument("--run-id", default="")
    args = parser.parse_args()

    checks = workloads.Checks()
    if args.workload == "algebra":
        ops = workloads.algebra_ops(f"{args.seed}/{args.pass_index}", args.size, checks)
    else:
        goldens = _goldens(Path(args.goldens))
        ops = workloads.cli_ops(args.workload, args.size, args.seed, goldens, checks)

    tracer = sampler = None
    if args.spans:
        tracer = spans_mod.Tracer(args.run_id)
        tracer.install()
    else:
        sampler = hostspeed.Sampler()

    clock, cpu = time.perf_counter, time.process_time
    spent = (lambda: sampler.spent) if sampler else (lambda: 0.0)
    latencies = []
    by_name = {}
    if sampler is not None:
        sampler.start()
    start, cpu_start, spent_start = clock(), cpu(), spent()
    for name, op in ops:
        t0, spent0 = clock(), spent()
        if tracer is None:
            op()
        else:
            with tracer.span("op." + name):
                op()
        ms = (clock() - t0 - (spent() - spent0)) * 1e3
        latencies.append(ms)
        by_name[name] = by_name.get(name, 0.0) + ms
    probes = spent() - spent_start
    wall = clock() - start - probes
    cpu_s = cpu() - cpu_start - probes
    if sampler is not None:
        sampler.stop()

    usage = resource.getrusage(resource.RUSAGE_SELF)
    bw = freelie._bw.cache_info()
    result = {
        "wall_s": wall,
        "cpu_s": cpu_s,
        "scale": sampler.scale() if sampler else 1.0,
        "probes": len(sampler.samples) if sampler else 0,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "op_ms": latencies,
        "op_ms_by_name": by_name,
        "attempted": checks.attempted,
        "failures": checks.failures,
        "numpy": numpy.__version__,
        "counters": {
            "freelie.bw.entries": bw.currsize,
            "freelie.bw.hit_ratio": bw.hits / (bw.hits + bw.misses) if bw.hits + bw.misses else 0.0,
            "johnson.tau_words.entries": len(johnson._abc_tau_map()._word_cache),
        },
    }
    if tracer is not None:
        tracer.write(args.spans)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
