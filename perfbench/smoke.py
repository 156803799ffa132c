#!/usr/bin/env python3
"""Fast smoke run of the benchmark; run from the root of a checkout.

    python3 perfbench/smoke.py

Runs every workload at --size smoke with --trace 0 and --trace 1 and checks
that the last stdout line is a result object naming exactly the metrics in
BENCHMARK.json, each with its unit, with no failed operation. Then checks
that the benchmark refuses to run, without printing a result, in a directory
holding only BENCHMARK.json and the benchmark's own files. Takes under a
minute.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _run(cmd, cwd):
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600, check=False)


def _check_result(stdout: str, expected: dict) -> list[str]:
    problems = []
    result = json.loads(stdout.strip().splitlines()[-1])
    if set(result) != RESULT_KEYS:
        problems.append(f"result keys {sorted(result)}")
    if not (isinstance(result.get("attempted"), int) and result["attempted"] >= 1):
        problems.append(f"attempted {result.get('attempted')!r}")
    if result.get("failed") != 0 or result.get("correct") is not True:
        problems.append(f"correct={result.get('correct')} failed={result.get('failed')}")
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        problems.append(f"missing {sorted(set(expected) - set(metrics))} extra {sorted(set(metrics) - set(expected))}")
    for name, metric in metrics.items():
        value = metric.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name} value {value!r}")
        if name in expected and metric.get("unit") != expected[name]:
            problems.append(f"{name} unit {metric.get('unit')!r} != {expected[name]!r}")
    return problems


def main() -> int:
    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            cmd = spec["command"] + [
                "--workload", workload, "--seed", "0", "--seconds", "1", "--trace", str(trace), "--size", "smoke",
            ]
            proc = _run(cmd, root)
            problems = [f"exit {proc.returncode}: {proc.stderr[-2000:]}"] if proc.returncode else []
            if not problems:
                problems = _check_result(proc.stdout, expected[trace])
            failures += bool(problems)
            print(f"{workload} trace={trace}: {'ok' if not problems else '; '.join(problems)}", flush=True)

    os.makedirs(os.path.join(root, ".perfbench_work"), exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=os.path.join(root, ".perfbench_work"))
    try:
        shutil.copy(os.path.join(root, "BENCHMARK.json"), bare)
        for path in spec["paths"]:
            shutil.copytree(os.path.join(root, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(spec["command"] + ["--workload", "theory", "--seed", "0", "--seconds", "1", "--trace", "0"], bare)
        refused = proc.returncode != 0 and '"metrics"' not in proc.stdout
        failures += not refused
        print(f"bare directory: {'refused' if refused else 'NOT refused'} (exit {proc.returncode})")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            os.rmdir(os.path.join(root, ".perfbench_work"))
        except OSError:
            pass  # a run still has its directory there
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
