"""Steadiness self-check of the benchmark.

For every workload, runs the benchmark once per seed and reports, for each
end-to-end metric, the median and the interquartile spread of the per-run
values as a share of their median (``statistics.quantiles(values, n=4)``),
against the metric's bound in ``BENCHMARK.json``.  Then runs the traced
benchmark twice on one seed and requires the exact counters, and the watch
event sequence, to repeat bit for bit.  Exits 1 when a spread exceeds its
bound, a run fails, or an exact counter differs.

Usage, from the repository root::

    python3 perfbench/steady.py --seeds 10 [--workload table2 ...]
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent

#: Counters that must repeat exactly between runs of one seed.
EXACT = (
    "trace.rows",
    "payloads.bytes",
    "parameters.dp_runs",
    "parameters.values",
    "dp.cells",
    "criteria.table_bytes",
    "watch.events",
    "pipeline.cache_misses",
)


def run_once(spec: dict, workload: str, seed: int, trace: int) -> Tuple[dict, Dict[str, str]]:
    """One benchmark run; returns its JSON result and its provenance fields."""
    command = list(spec["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{done.stdout}\n{done.stderr}")
    provenance = next(line for line in lines if line.startswith("provenance: "))
    fields = dict(item.split("=", 1) for item in provenance.split()[1:] if "=" in item)
    return json.loads(lines[-1]), fields


def spread(values: List[float]) -> Tuple[float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, (q3 - q1) / q2


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=int, default=10)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        values: Dict[str, List[float]] = {name: [] for name in bounds}
        for seed in range(1, 1 + args.seeds):
            result, _ = run_once(spec, workload, seed, 0)
            ok &= result["correct"]
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        print(f"{workload}: {args.seeds} seeds")
        for name, bound in bounds.items():
            mid, share = spread(values[name])
            verdict = "ok" if share <= bound / 3 else ("within bound" if share <= bound else "TOO NOISY")
            ok &= share <= bound
            print(f"  {name:<20} median {mid:.6f}  spread {share:6.1%}  bound {bound:.0%}  "
                  f"{verdict}  [{' '.join(f'{v:.4g}' for v in values[name])}]")
        first, first_fields = run_once(spec, workload, 1, 1)
        second, second_fields = run_once(spec, workload, 1, 1)
        for name in EXACT:
            a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
            same = a == b
            ok &= same
            print(f"  exact {name:<22} {a} / {b}  {'ok' if same else 'DIFFERS'}")
        events = (first_fields.get("events"), second_fields.get("events"))
        if events[0] is not None:
            ok &= events[0] == events[1]
            print(f"  watch event sequence {events[0]} / {events[1]}  "
                  f"{'ok' if events[0] == events[1] else 'DIFFERS'}")
    print("steady" if ok else "NOT STEADY")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
