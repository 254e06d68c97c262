#!/usr/bin/env python3
"""Smoke test of the repository benchmark.

    python3 perfbench/smoke_test.py          # serve_hot, traced and not (~2 min)
    python3 perfbench/smoke_test.py --all    # every workload, both modes

Runs perfbench/run.py briefly and checks the contract of its result line:
exactly the keys correct/attempted/failed/metrics, correct == true,
failed == 0, and exactly the metric names and units BENCHMARK.json lists
(end_to_end untraced, per_layer traced). Also checks that a directory
holding only BENCHMARK.json and perfbench/ fails fast without a result.
Exits non-zero on the first failure.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace, cwd=ROOT, timeout=900):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "4", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, text=True, timeout=timeout)


def check(workload, trace, spec):
    proc = run(workload, trace)
    assert proc.returncode == 0, "%s trace=%d exited %d" % (workload, trace, proc.returncode)
    result = json.loads(proc.stdout.strip().split("\n")[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"], sorted(result)
    assert result["correct"] is True and result["failed"] == 0, result
    assert result["attempted"] >= 1, result
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want, "metric set differs: %s" % sorted(set(got) ^ set(want))
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
    print("ok   %-12s trace=%d  %d metrics, %d requests" %
          (workload, trace, len(got), result["attempted"]))


def check_stripped():
    # Inside the checkout's build directory, so the test writes nowhere else.
    scratch = os.path.join(ROOT, ".bench_build")
    os.makedirs(scratch, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
        shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run("serve_hot", 0, cwd=tmp, timeout=180)
        assert proc.returncode != 0, "stripped checkout must fail"
        assert not proc.stdout.strip(), "stripped checkout printed a result"
    print("ok   stripped checkout fails without a result")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    check_stripped()
    # serve_sweep runs too, though BENCHMARK.json leaves it out (README.md).
    workloads = ["paper_grid", "serve_hot", "serve_sweep"] if "--all" in sys.argv else ["serve_hot"]
    for workload in workloads:
        for trace in (0, 1):
            check(workload, trace, spec)


if __name__ == "__main__":
    main()
