"""Tiny self-test of the benchmark harness.

    python3 perfbench/selftest.py

Runs every workload for one second, untraced and traced, and checks that
each run prints every metric BENCHMARK.json names with its unit, that no
unit failed (error_rate 0), and that every per-layer timing and counter is
exercised by at least one workload.  It also checks that the harness fails
without a result in a directory holding only BENCHMARK.json and perfbench/.
Exits 0 when all checks pass.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cli-pipeline", "dense-states", "algebra-fock")


def run(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = []
    exercised = set()
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        wanted = {m["name"]: m["unit"] for m in spec[key]}
        for workload in WORKLOADS:
            out = run(ROOT, workload, trace)
            where = f"{workload} --trace {trace}"
            if out.returncode != 0:
                problems.append(f"{where}: exit {out.returncode}\n{out.stderr}")
                continue
            lines = out.stdout.splitlines()
            result = json.loads(lines[-1])
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != wanted:
                problems.append(f"{where}: metrics or units differ from "
                                f"BENCHMARK.json {key}")
            if not any(line.startswith("units:") and "error_rate 0.0000" in line
                       for line in lines):
                problems.append(f"{where}: error_rate is not 0")
            if not result["correct"] or result["failed"]:
                problems.append(f"{where}: {result['failed']} units failed\n"
                                f"{out.stderr}")
            exercised.update(name for name, m in result["metrics"].items()
                             if m["value"] != 0)
            print(f"ok: {where}, {result['attempted']} units")
    idle = [m["name"] for m in spec["per_layer"]
            if m["name"] not in exercised and not m["name"].endswith(".errors")]
    if idle:
        problems.append(f"per-layer metrics no workload exercises: {idle}")

    bare = os.path.join(ROOT, ".perfbench", f"bare-{os.getpid()}")
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        out = run(bare, WORKLOADS[0], 0)
        if out.returncode == 0 or out.stdout.strip():
            problems.append("without src/ the harness exited 0 or printed")
        else:
            print("ok: fails without the package sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for problem in problems:
        print(f"FAIL: {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
