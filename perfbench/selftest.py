#!/usr/bin/env python3
"""Quick self-test of the benchmark at toy sizes (about ten seconds).

    python3 perfbench/selftest.py

Runs tables (k <= 6), structure (psigma --max-degree 5, stabilize --n 4)
and 40 algebra checks, untraced and traced, and asserts that:

- every end-to-end and per-layer metric in BENCHMARK.json is printed with
  its unit, and every check passes;
- a planted wrong golden is counted as a failed check and fails the run;
- the traced run's spans carry one run id, nest inside their parents and
  cover the traced wall time to within 5%;
- without the package next to it, the benchmark exits nonzero and prints
  no result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import spans as spans_mod

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = ROOT / ".perfbench" / "selftest"
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload: str, trace: int, *extra, cwd=ROOT):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--size", "toy", *extra]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith('{"correct"') else None
    return proc, result


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"self-test FAILED: {what}")


def check_metrics(result: dict, wanted: list, label: str) -> None:
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: result keys")
    got = result["metrics"]
    for m in wanted:
        expect(m["name"] in got, f"{label}: metric {m['name']} missing")
        expect(got[m["name"]]["unit"] == m["unit"], f"{label}: unit of {m['name']}")
    expect(set(got) == {m["name"] for m in wanted}, f"{label}: unexpected metrics")


def main() -> int:
    shutil.rmtree(WORK_DIR, ignore_errors=True)
    WORK_DIR.mkdir(parents=True)
    for w in BENCH["workloads"]:
        wl = w["name"]
        proc, result = run(wl, 0)
        expect(proc.returncode == 0 and result is not None, f"{wl}: untraced run\n{proc.stderr}")
        expect(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
               f"{wl}: checks failed\n{proc.stdout}")
        check_metrics(result, BENCH["end_to_end"], wl)

        proc, result = run(wl, 1)
        expect(proc.returncode == 0 and result is not None, f"{wl}: traced run\n{proc.stderr}")
        check_metrics(result, BENCH["per_layer"], f"{wl} traced")
        spans = spans_mod.read_spans(ROOT / ".perfbench" / f"spans-{wl}.jsonl")
        expect(spans, f"{wl}: no spans written")
        problems = spans_mod.check_nesting(spans)
        expect(not problems, f"{wl}: span tree: {problems[:3]}")
        coverage = result["metrics"]["trace.coverage"]["value"]
        expect(abs(coverage - 1) <= 0.05, f"{wl}: top-level spans cover {coverage:.1%}")
        print(f"ok {wl}: {len(spans)} spans, coverage {coverage:.1%}")

    goldens = WORK_DIR / "goldens"
    shutil.copytree(HERE / "goldens" / "toy", goldens)
    (goldens / "dims.out").write_text((goldens / "dims.out").read_text().replace('"k": 6', '"k": 7'))
    proc, result = run("tables", 0, "--goldens", str(goldens))
    failed = [line for line in proc.stdout.splitlines() if line.startswith("FAILED:")]
    expect(proc.returncode == 1 and result is not None and not result["correct"]
           and result["failed"] == len(failed) > 0
           and all("golden dims" in line for line in failed),
           f"planted wrong golden not counted\n{proc.stdout}")
    print(f"ok planted wrong golden: {len(failed)} failed checks (one per pass), exit 1")

    bare = WORK_DIR / "bare"
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.rglob("*"):
        if path.is_file() and "__pycache__" not in path.parts:
            target = bare / "perfbench" / path.relative_to(HERE)
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy(path, target)
    proc, result = run("tables", 0, cwd=bare)
    expect(proc.returncode != 0 and result is None, "ran without the package")
    print("ok without the package: exit", proc.returncode)
    shutil.rmtree(WORK_DIR)
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
