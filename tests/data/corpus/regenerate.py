"""Regenerate the golden corpus and its frozen expected outputs.

The golden corpus is four deterministic, scaled-down simulations of the
paper's Table II scenarios, committed as CSV traces together with:

* ``corpus.json`` — the corpus manifest pinning every member's content
  digest;
* ``goldens/<name>.analysis.json`` — the frozen analysis payload of each
  member at :data:`GOLDEN_PARAMS` (canonical serialization, one trailing
  newline);
* ``goldens/batch.json`` — the frozen corpus batch payload;
* ``goldens/compare_case_a_case_c.json`` — the frozen comparison payload of
  the two perturbed cases.

``tests/batch/test_golden_corpus.py`` re-derives all of it **bit-identically**
on every run; see ``tests/README.md`` for when bit-identity is required and
how to regenerate after an intentional change:

    PYTHONPATH=src python tests/data/corpus/regenerate.py
"""

from __future__ import annotations

import sys
from pathlib import Path

CORPUS_DIR = Path(__file__).resolve().parent
GOLDEN_DIR = CORPUS_DIR / "goldens"
_REPO_ROOT = CORPUS_DIR.parents[2]
if str(_REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(_REPO_ROOT / "src"))

#: Analysis parameters every golden is frozen at.
GOLDEN_PARAMS = {"p": 0.7, "slices": 20, "operator": "mean", "anomaly_threshold": 0.1}

#: The golden scenarios: reduced-scale versions of the paper's four cases.
#: Everything is seeded, so simulation -> CSV -> analysis is deterministic.
GOLDEN_CASES = {
    "case_a": ("A", {"n_processes": 8, "iterations": 3, "platform_scale": 0.25}),
    "case_b": ("B", {"n_processes": 16, "iterations": 2, "platform_scale": 0.1}),
    "case_c": ("C", {"n_processes": 16, "iterations": 2, "platform_scale": 0.08}),
    "case_d": ("D", {"n_processes": 16, "iterations": 2, "platform_scale": 0.1}),
}

#: The frozen comparison pair (the two perturbed cases).
COMPARE_PAIR = ("case_a", "case_c")


def simulate_case(name: str):
    """Run the golden scenario called ``name`` and return its trace."""
    from repro.simulation.scenarios import case_a, case_b, case_c, case_d, run_scenario

    factories = {"A": case_a, "B": case_b, "C": case_c, "D": case_d}
    case, kwargs = GOLDEN_CASES[name]
    return run_scenario(factories[case](**kwargs))


def regenerate() -> None:
    """Rewrite the corpus CSVs, the manifest and every golden file."""
    from repro.batch import (
        analysis_params,
        analyze_entry,
        compare_payload,
        discover_corpus,
        load_corpus,
        run_batch,
        write_corpus_manifest,
    )
    from repro.pipeline.payloads import serialize_payload
    from repro.trace.io import write_csv

    for name in GOLDEN_CASES:
        write_csv(simulate_case(name), CORPUS_DIR / f"{name}.csv")
    write_corpus_manifest(discover_corpus(CORPUS_DIR))
    corpus = load_corpus(CORPUS_DIR)

    GOLDEN_DIR.mkdir(exist_ok=True)
    models = {}
    payloads = {}
    for entry in corpus:
        payload, model = analyze_entry(entry, **GOLDEN_PARAMS)
        payloads[entry.name] = payload
        models[entry.name] = model
        (GOLDEN_DIR / f"{entry.name}.analysis.json").write_text(
            serialize_payload(payload) + "\n"
        )

    batch = run_batch(corpus, jobs=1, **GOLDEN_PARAMS)
    (GOLDEN_DIR / "batch.json").write_text(serialize_payload(batch.payload()) + "\n")

    a, b = COMPARE_PAIR
    comparison = compare_payload(
        a, payloads[a], models[a],
        b, payloads[b], models[b],
        analysis_params(**GOLDEN_PARAMS),
    )
    (GOLDEN_DIR / f"compare_{a}_{b}.json").write_text(
        serialize_payload(comparison) + "\n"
    )
    print(f"regenerated {len(GOLDEN_CASES)} traces + goldens under {CORPUS_DIR}")


if __name__ == "__main__":
    regenerate()
