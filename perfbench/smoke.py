#!/usr/bin/env python3
"""Smoke test of the benchmark harness, at tiny sizes.

    python3 perfbench/smoke.py

Runs every workload of BENCHMARK.json untraced and traced with --tiny for one
second each, and checks that the result line has exactly the contract's keys,
that the outputs were correct, and that every metric BENCHMARK.json names is
emitted with its unit.  Then checks that the benchmark refuses to run, without
printing a result, in a directory that holds only BENCHMARK.json and the
benchmark's files.  Exits non-zero on the first failure.
"""
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = run(ROOT, workload, trace)
            assert proc.returncode == 0, f"{workload} trace={trace}: {proc.stderr}"
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert sorted(result) == ["attempted", "correct", "failed", "metrics"], result
            assert result["correct"] and result["failed"] == 0, proc.stdout
            assert result["attempted"] >= 1, result
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == want, f"{workload} trace={trace}: emitted {got}, expected {want}"
            print(f"ok  {workload:<13} trace={trace}  {result['attempted']} ops")

    with tempfile.TemporaryDirectory(dir=HERE / "results") as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, Path(bare) / "perfbench",
                        ignore=shutil.ignore_patterns("results", "__pycache__"))
        proc = run(Path(bare), spec["workloads"][0]["name"], 0)
        assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
        print("ok  refuses to run without the eqdesign sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())
