#!/usr/bin/env python3
"""Compare benchmark results of a parent commit and a change.

    python3 perfbench/compare.py report PARENT.jsonl CHANGE.jsonl
    python3 perfbench/compare.py collect --parent DIR --change DIR \
        --workload W --pairs 10 --out-parent P.jsonl --out-change C.jsonl
    python3 perfbench/compare.py summary RECORDS.jsonl > baseline.json

The inputs are the records that ``run.py --record FILE`` appends, one JSON
line per run.  ``collect`` makes them: it runs each checkout's own
perfbench/run.py on the same seeds, alternating which side runs first.

``report`` prints one row per workload and end-to-end metric: each side's
median and quartiles, the share of pairs (runs with the same workload and
seed) the change won, and a verdict against the bound in BENCHMARK.json:

- improved: the change wins at least 9 of 10 pairs (ties count for
  neither) and the medians differ by more than the parent's quartile
  spread;
- worse: the change's median is worse than the parent's by more than the
  bound (when the spread exceeds the bound, only if every change run is
  worse than every parent run);
- unresolved: a side's quartile spread, as a share of its median, exceeds
  the bound, unless every change run is better than every parent run;
- no worse: otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import hostspeed

ROOT = Path(__file__).resolve().parent.parent


def load(path) -> list:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def quartiles(values) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent: list, change: list, pairs: list, bound: float, lower_is_better: bool) -> dict:
    sign = 1 if lower_is_better else -1
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    worse_by = sign * (cm - pm) / pm if pm else 0.0
    spread = max((p3 - p1) / pm if pm else 0.0, (c3 - c1) / cm if cm else 0.0)
    won = sum(1 for p, c in pairs if sign * (c - p) < 0) / len(pairs) if pairs else 0.0
    # "badness": larger is worse on either kind of metric
    p_bad = [sign * v for v in parent]
    c_bad = [sign * v for v in change]
    all_better = max(c_bad) < min(p_bad)
    all_worse = min(c_bad) > max(p_bad)
    if pairs and won >= 0.9 and worse_by < 0 and abs(cm - pm) > p3 - p1:
        result = "improved"
    elif worse_by > bound and (spread <= bound or all_worse):
        result = "worse"
    elif spread > bound and not all_better:
        result = "unresolved"
    else:
        result = "no worse"
    return {
        "parent": (p1, pm, p3), "change": (c1, cm, c3), "won": won, "pairs": len(pairs),
        "worse_by": worse_by, "spread": spread, "verdict": result,
    }


def _fmt(q) -> str:
    return "/".join(f"{x:.4g}" for x in q)


def report(args) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent = [r for r in load(args.parent) if r["trace"] == 0]
    change = [r for r in load(args.change) if r["trace"] == 0]
    print(f"{'workload':10} {'metric':12} {'parent q1/med/q3':>30} {'change q1/med/q3':>30} "
          f"{'won':>9} {'delta':>7} {'bound':>6}  verdict")
    worst = 0
    for wl in [w["name"] for w in bench["workloads"]]:
        p_runs = [r for r in parent if r["workload"] == wl]
        c_runs = [r for r in change if r["workload"] == wl]
        if not p_runs or not c_runs:
            continue
        # a pair is a parent run and a change run on the same seed
        unpaired = {}
        for r in c_runs:
            unpaired.setdefault(r["seed"], []).append(r)
        run_pairs = [(r, unpaired[r["seed"]].pop(0)) for r in p_runs if unpaired.get(r["seed"])]

        def value(run, name):
            return run["result"]["metrics"][name]["value"]

        for m in bench["end_to_end"]:
            name = m["name"]
            pv = [value(r, name) for r in p_runs]
            cv = [value(r, name) for r in c_runs]
            pairs = [(value(p, name), value(c, name)) for p, c in run_pairs]
            v = verdict(pv, cv, pairs, m["bound"], m["better"] == "lower")
            print(f"{wl:10} {name:12} {_fmt(v['parent']):>30} {_fmt(v['change']):>30} "
                  f"{v['won']:>5.0%} of {v['pairs']:<2} {v['worse_by']:>+7.1%} {m['bound']:>6.0%}  "
                  f"{v['verdict']}")
            if v["verdict"] == "worse":
                worst = 1
    failed = sum(r["result"]["failed"] for r in parent + change)
    if failed:
        print(f"{failed} failed checks in these records")
        worst = 1
    return worst


def summary(args) -> int:
    """Quartiles of each end-to-end metric and the traced layers of one commit."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    records = load(args.records)
    out = {}
    for w in bench["workloads"]:
        wl = w["name"]
        runs = [r for r in records if r["workload"] == wl and r["trace"] == 0]
        traced = [r for r in records if r["workload"] == wl and r["trace"] == 1]
        entry = {"why": w["why"], "runs": len(runs), "env": runs[-1]["env"] if runs else None,
                 "time_scale": {"reference_s": hostspeed.REFERENCE_S,
                                "elasticity": hostspeed.ELASTICITY},
                 "end_to_end": {}}
        for m in bench["end_to_end"]:
            values = [r["result"]["metrics"][m["name"]]["value"] for r in runs]
            if values:
                q1, med, q3 = quartiles(values)
                entry["end_to_end"][m["name"]] = {
                    "median": med, "q1": q1, "q3": q3,
                    "spread": (q3 - q1) / med if med else None, "unit": m["unit"],
                }
        if traced:
            layers = {k: v["value"] for k, v in traced[-1]["result"]["metrics"].items()}
            wall = traced[-1]["detail"]["pass_wall_s_raw"][-1]
            entry["traced_wall_s"] = wall
            entry["per_layer"] = layers
            entry["share_of_traced_wall"] = {
                k: v / wall for k, v in layers.items()
                if k.endswith((".s", "self_s")) and v
            }
        out[wl] = entry
    print(json.dumps(out, indent=2, sort_keys=True))
    return 0


def collect(args) -> int:
    sides = {"parent": (Path(args.parent), args.out_parent),
             "change": (Path(args.change), args.out_change)}
    for i in range(args.pairs):
        seed = args.seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            root, out = sides[side]
            cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0",
                   "--record", str(Path(out).resolve())]
            proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
            print(f"pair {i} {side} seed {seed}: exit {proc.returncode}", flush=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
                return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    p_rep = sub.add_parser("report")
    p_rep.add_argument("parent")
    p_rep.add_argument("change")
    p_sum = sub.add_parser("summary")
    p_sum.add_argument("records")
    p_col = sub.add_parser("collect")
    p_col.add_argument("--parent", required=True, help="checkout of the parent commit")
    p_col.add_argument("--change", required=True, help="checkout of the change")
    p_col.add_argument("--workload", required=True)
    p_col.add_argument("--pairs", type=int, default=10)
    p_col.add_argument("--seed", type=int, default=1)
    p_col.add_argument("--seconds", type=int,
                       default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    p_col.add_argument("--out-parent", required=True)
    p_col.add_argument("--out-change", required=True)
    args = parser.parse_args(argv)
    return {"report": report, "summary": summary, "collect": collect}[args.cmd](args)


if __name__ == "__main__":
    sys.exit(main())
