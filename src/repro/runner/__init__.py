"""Parallel evaluation engine with caching and reproducible manifests.

The single execution path for detector × archive grids:

* :mod:`repro.runner.engine` — grid expansion, serial or thread-pool
  execution with deterministic (byte-identical) output ordering.
* :mod:`repro.runner.cache` — disk-backed, content-addressed result
  cache so warm re-runs execute zero detector calls.
* :mod:`repro.runner.manifest` — canonical run manifests with a ``diff``
  helper to explain how two runs differ.
* :mod:`repro.runner.results` — aggregation into the existing
  :class:`~repro.scoring.UcrSummary` shape and JSONL/text artifacts.
"""

from .cache import CacheStats, ResultCache, cache_key
from .engine import (
    CellResult,
    EvalEngine,
    FractionalScoring,
    RunReport,
    RunStats,
    UcrScoring,
    scoring_from_description,
)
from .manifest import (
    MANIFEST_VERSION,
    ManifestDiff,
    RunManifest,
    archive_fingerprint,
)
from .results import (
    DEFAULT_OUT_DIR,
    ResultsStore,
    artifact_paths,
    format_report,
    load_report,
)

__all__ = [
    "cache_key",
    "CacheStats",
    "ResultCache",
    "UcrScoring",
    "FractionalScoring",
    "scoring_from_description",
    "CellResult",
    "RunStats",
    "RunReport",
    "EvalEngine",
    "MANIFEST_VERSION",
    "archive_fingerprint",
    "RunManifest",
    "ManifestDiff",
    "DEFAULT_OUT_DIR",
    "artifact_paths",
    "format_report",
    "load_report",
    "ResultsStore",
]
