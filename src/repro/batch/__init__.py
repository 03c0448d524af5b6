"""Corpus-scale batch analysis and cross-trace comparison.

Lifts the single-trace pipeline to a *corpus* — a directory (or manifest) of
``.rtz`` stores and raw CSV/Pajé traces:

* :mod:`repro.batch.corpus` — corpus discovery, ``corpus.json`` manifests
  with per-member content digests, digest verification on load;
* :mod:`repro.batch.runner` — :func:`run_batch` fans one analysis per trace
  over a process pool (``repro batch --jobs``), reusing the stores' cached
  models, with structured per-trace error reporting;
* :mod:`repro.batch.compare` — partition diffs at matched ``p``,
  per-resource deviation deltas, and the corpus heterogeneity ranking behind
  ``repro compare`` / ``POST /v1/compare`` and the batch summary table.
"""

from .compare import (
    BATCH_SCHEMA,
    COMPARE_SCHEMA,
    batch_payload,
    batch_report,
    batch_summary_rows,
    compare_payload,
    compare_report,
    heterogeneity_score,
)
from .corpus import (
    CORPUS_FORMAT,
    MANIFEST_NAME,
    Corpus,
    CorpusEntry,
    CorpusError,
    CorpusIntegrityError,
    discover_corpus,
    entry_for_path,
    load_corpus,
    write_corpus_manifest,
)
from .runner import (
    BatchResult,
    BatchTraceFailure,
    BatchWorkerError,
    analysis_params,
    analyze_entry,
    run_batch,
)

__all__ = [
    "CORPUS_FORMAT",
    "MANIFEST_NAME",
    "Corpus",
    "CorpusEntry",
    "CorpusError",
    "CorpusIntegrityError",
    "discover_corpus",
    "entry_for_path",
    "load_corpus",
    "write_corpus_manifest",
    "BATCH_SCHEMA",
    "COMPARE_SCHEMA",
    "batch_payload",
    "batch_report",
    "batch_summary_rows",
    "compare_payload",
    "compare_report",
    "heterogeneity_score",
    "BatchResult",
    "BatchTraceFailure",
    "BatchWorkerError",
    "analysis_params",
    "analyze_entry",
    "run_batch",
]
