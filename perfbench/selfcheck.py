"""Structure check of the benchmark at a tiny size; finishes in seconds.

    python3 perfbench/selfcheck.py

Runs every workload once untraced and once traced on a tiny world and
checks only the shape of the result: the last line is the result object,
every end-to-end (untraced) or per-layer (traced) metric is present with
its unit, and BENCHMARK.json matches the tables in run.py.  It never
looks at timings.
"""
from __future__ import annotations

import json
import subprocess
import sys

import run

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def check_result(line: str, expected: dict[str, str]) -> list[str]:
    problems = []
    doc = json.loads(line)
    if set(doc) != RESULT_KEYS:
        problems.append(f"result keys {sorted(doc)}")
    if doc.get("correct") is not True or doc.get("failed") != 0:
        problems.append(f"not correct: {doc.get('failed')} of {doc.get('attempted')} failed")
    metrics = doc.get("metrics", {})
    if set(metrics) != set(expected):
        problems.append(f"metrics {sorted(set(metrics) ^ set(expected))} missing or extra")
    for name, unit in expected.items():
        m = metrics.get(name, {})
        if m.get("unit") != unit:
            problems.append(f"{name} has unit {m.get('unit')!r}, expected {unit!r}")
        if not isinstance(m.get("value"), (int, float)):
            problems.append(f"{name} has value {m.get('value')!r}")
    return problems


def main() -> int:
    with open(run.ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        ok = json.load(fh) == run.spec()
    print(f"BENCHMARK.json {'matches' if ok else 'DIFFERS from'} run.spec()")
    end_to_end = {n: u for n, u, _, _ in run.END_TO_END}
    per_layer = {n: u for n, u, _ in run.PER_LAYER}
    for workload in run.WORKLOADS:
        for trace, expected in ((0, end_to_end), (1, per_layer)):
            proc = subprocess.run(
                [sys.executable, str(run.HERE / "run.py"), "--tiny", "--workload", workload,
                 "--seed", "7", "--seconds", "1", "--trace", str(trace)],
                cwd=run.ROOT, capture_output=True, text=True, timeout=170)
            lines = proc.stdout.strip().splitlines()
            problems = [f"exit code {proc.returncode}"] if proc.returncode else []
            problems += check_result(lines[-1], expected) if lines else ["no output"]
            print(f"{workload} trace {trace}: {'ok' if not problems else '; '.join(problems)}")
            ok = ok and not problems
    print("self-check passed" if ok else "self-check FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
