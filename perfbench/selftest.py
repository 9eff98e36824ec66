"""Self-test of the benchmark harness: tiny runs of every workload.

Usage, from the root of a source checkout::

    python3 perfbench/selftest.py

For each workload in ``BENCHMARK.json``, untraced and traced, on two seeds,
it checks that the run passes its output checks and that its last line
carries exactly the metrics ``BENCHMARK.json`` names, each with its unit and
a finite value. It also checks that a fixed seed repeats the charged
metrics exactly and that a set ``REPRO_*`` switch variable stops the run.
Exits 0 when every check holds.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
CHARGED = ("blocks_per_query", "deadline_hit_frac")


def tiny_run(workload: str, seed: int, trace: int) -> tuple[int, dict | None]:
    out = io.StringIO()
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", "0.3"]
    with contextlib.redirect_stdout(out):
        code = run.main([*argv, "--trace", str(trace), "--tiny"])
    lines = out.getvalue().strip().splitlines()
    return code, json.loads(lines[-1]) if code != 2 else None


def check_result(label: str, code: int, result: dict, expected: dict[str, str]) -> list[str]:
    problems = []
    if code != 0:
        problems.append(f"{label}: exit code {code}")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
        return problems
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{label}: correct={result['correct']} failed={result['failed']}")
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        problems.append(
            f"{label}: missing {sorted(set(expected) - set(metrics))}, "
            f"unexpected {sorted(set(metrics) - set(expected))}"
        )
    for name, unit in expected.items():
        metric = metrics.get(name, {})
        if metric.get("unit") != unit:
            problems.append(f"{label}: {name} has unit {metric.get('unit')!r}, not {unit!r}")
        value = metric.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{label}: {name} value {value!r} is not a finite number")
    return problems


def main() -> int:
    expected = {
        0: {m["name"]: m["unit"] for m in SPEC["end_to_end"]},
        1: {m["name"]: m["unit"] for m in SPEC["per_layer"]},
    }
    problems: list[str] = []
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace in (0, 1):
            metric_sets = []
            for seed in (1, 2):
                label = f"{workload} trace={trace} seed={seed}"
                code, result = tiny_run(workload, seed, trace)
                if result is None:
                    problems.append(f"{label}: refused to run (exit {code})")
                    continue
                problems += check_result(label, code, result, expected[trace])
                metric_sets.append(set(result["metrics"]))
                print(f"{label}: exit {code}, {result['attempted']} ops", file=sys.stderr)
            if len(metric_sets) == 2 and metric_sets[0] != metric_sets[1]:
                problems.append(f"{workload} trace={trace}: metric sets differ between seeds")
        first, again = tiny_run(workload, 1, 0)[1], tiny_run(workload, 1, 0)[1]
        for name in CHARGED:
            if first["metrics"][name] != again["metrics"][name]:
                problems.append(f"{workload}: {name} did not repeat for a fixed seed")

    os.environ["REPRO_KERNELS"] = "0"
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            code, _ = tiny_run("paper-figures", 1, 0)
    finally:
        del os.environ["REPRO_KERNELS"]
    if code != 2:
        problems.append(f"a set REPRO_KERNELS gave exit code {code}, not 2")

    for problem in problems:
        print("FAIL " + problem)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
