"""Smoke check of the benchmark itself: every workload at two ops, in both modes.

    python3 perfbench/smoke.py

Each run must exit 0, end with the JSON summary, pass its checks, and print
every metric that BENCHMARK.json names, with its unit, on a ``metric`` line
(``fail_ratio`` included).  Takes under a minute.
"""

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def check_run(workload, trace, expected):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), "--max-ops", "2"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if out.returncode != 0:
        raise SystemExit(f"{workload} trace={trace}: exit {out.returncode}\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    summary = json.loads(lines[-1])
    if set(summary) != {"correct", "attempted", "failed", "metrics"}:
        raise SystemExit(f"{workload} trace={trace}: summary keys {sorted(summary)}")
    if not summary["correct"] or summary["failed"] or summary["attempted"] < 1:
        raise SystemExit(f"{workload} trace={trace}: ops failed\n{out.stderr}")
    printed = {}
    for line in lines:
        if line.startswith("metric "):
            _, name, value, unit = line.split()[:4]
            float(value)
            printed[name] = unit
    want = dict(expected, fail_ratio="ratio") if trace == 0 else expected
    for name, unit in want.items():
        if printed.get(name) != unit:
            raise SystemExit(f"{workload} trace={trace}: {name} printed as {printed.get(name)!r}, "
                             f"expected unit {unit!r}")
    got = {name: m["unit"] for name, m in summary["metrics"].items()}
    if got != expected:
        raise SystemExit(f"{workload} trace={trace}: JSON metrics differ from BENCHMARK.json: "
                         f"{sorted(set(got) ^ set(expected))}")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        expected = {m["name"]: m["unit"] for m in spec[key]}
        for workload in (w["name"] for w in spec["workloads"]):
            check_run(workload, trace, expected)
            print(f"ok {workload} trace={trace}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
