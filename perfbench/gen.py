"""Input generator for the perfbench workloads, run in its own process.

The benchmark keeps this script running beside the workload for the whole
run, so that input generation never shows in the workload process's peak RSS
and set-ups can be spread over the run.  For every directory named on a line
of standard input it writes the seeded inputs of one workload there and
prints one JSON line: the seconds the generation took (timed after imports)
and the generated shapes.  It exits at the end of its input.

Usage::

    echo DIR | python3 perfbench/gen.py --workload table2 --seed 1 --scale full
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from repro.simulation.scenarios import case_c, run_scenario  # noqa: E402
from repro.trace.io import write_csv  # noqa: E402
from repro.trace.synthetic import monitoring_scenario, random_trace  # noqa: E402
from repro.trace.trace import Trace  # noqa: E402

#: Input shapes per scale.  ``full`` is what the benchmark measures; ``tiny``
#: keeps the smoke test to seconds.
SHAPES = {
    "full": {
        "table2": {"n_processes": 64, "iterations": 40},
        "longspan": {"n_resources": 64, "n_slices": 128},
        "watch": {"n_resources": 64, "head_slices": 64, "tail_slices": 10},
    },
    "tiny": {
        "table2": {"n_processes": 16, "iterations": 4},
        "longspan": {"n_resources": 8, "n_slices": 16},
        "watch": {"n_resources": 8, "head_slices": 12, "tail_slices": 6},
    },
}


def _subtrace(trace: Trace, keep) -> Trace:
    return Trace(
        [iv for iv in trace.intervals if keep(iv)],
        hierarchy=trace.hierarchy,
        states=trace.states,
        metadata=trace.metadata,
    )


def generate(workload: str, seed: int, scale: str, out: Path) -> dict:
    """Write the inputs of ``workload`` into ``out``; returns their shapes."""
    shape = SHAPES[scale][workload]
    if workload == "table2":
        scenario = dataclasses.replace(
            case_c(iterations=shape["iterations"], n_processes=shape["n_processes"]),
            seed=seed,
        )
        trace = run_scenario(scenario)
        write_csv(trace, out / "trace.csv")
        return {"resources": trace.hierarchy.n_leaves, "intervals": trace.n_intervals}
    if workload == "longspan":
        trace = random_trace(
            n_resources=shape["n_resources"],
            n_slices=shape["n_slices"],
            n_states=3,
            seed=seed,
            fanout=4,
        )
        write_csv(trace, out / "trace.csv")
        return {"resources": trace.hierarchy.n_leaves, "intervals": trace.n_intervals}
    # watch: the seed places the cascading failure inside the appended tail
    # and sets its magnitude; the head is stored, the tail is appended one
    # slice per batch.
    head, tail = shape["head_slices"], shape["tail_slices"]
    rng = np.random.default_rng(seed)
    trace = monitoring_scenario(
        "cascading_failure",
        n_resources=shape["n_resources"],
        n_slices=head + tail,
        injection_slice=head + int(rng.integers(1, max(2, tail // 2))),
        magnitude=float(rng.uniform(0.4, 0.7)),
    )
    write_csv(_subtrace(trace, lambda iv: iv.start < head), out / "head.csv")
    write_csv(_subtrace(trace, lambda iv: iv.start >= head), out / "tail.csv")
    return {"resources": trace.hierarchy.n_leaves, "intervals": trace.n_intervals}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SHAPES["full"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", default="full", choices=sorted(SHAPES))
    args = parser.parse_args()
    for line in sys.stdin:
        out = Path(line.strip())
        out.mkdir(parents=True, exist_ok=True)
        start = time.perf_counter()
        shapes = generate(args.workload, args.seed, args.scale, out)
        seconds = time.perf_counter() - start
        print(json.dumps({"seconds": seconds, **shapes}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
