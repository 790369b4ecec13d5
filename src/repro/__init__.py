"""repro — reproduction of Wu & Keogh (ICDE 2022).

"Current Time Series Anomaly Detection Benchmarks are Flawed and are
Creating the Illusion of Progress."

Public surface:

* :mod:`repro.oneliner` — the one-liner triviality engine (Definition 1,
  families (1)-(6), brute-force search, Table 1 report).
* :mod:`repro.scoring` — point / range-based / NAB / UCR scoring.
* :mod:`repro.detectors` — baselines, discords (matrix profile, MERLIN),
  Telemanom-style forecaster, statistical detectors.
* :mod:`repro.datasets` — seeded simulators of the Yahoo, Numenta, NASA,
  OMNI/SMD benchmarks and of UCR-archive-style data.
* :mod:`repro.flaws` — the four-flaw audit (triviality, density,
  mislabeling, run-to-failure).
* :mod:`repro.archive` — UCR anomaly-archive builder and validator.
* :mod:`repro.analysis` — invariance experiments (Fig 13).
* :mod:`repro.runner` — parallel evaluation engine with a
  content-addressed result cache and reproducible run manifests.
* :mod:`repro.stream` — online/streaming subsystem: incremental matrix
  profile with bounded-memory egress, streaming adapters for every
  registry detector, the replay engine (arrival-time scores, commit
  latency) and delay-aware scoreboards behind ``repro stream``.
* :mod:`repro.stats` — statistical comparison engine: bootstrap CIs,
  paired permutation tests, Friedman/Nemenyi rank analysis and the
  one-liner noise floor behind ``repro compare``.
* :mod:`repro.bench` — the ``repro bench`` perf harness: times the mpx
  kernel next to the naive reference kernel, measures the
  bounded-memory scaling envelope, and writes the machine-readable
  ``benchmarks/perf/BENCH_<n>.json`` trajectory point (the name derives
  from :data:`repro.bench.TRAJECTORY`).

See ``docs/`` for the architecture map (``docs/architecture.md``), the
matrix-profile kernel internals (``docs/kernel.md``) and the generated
CLI reference (``docs/cli.md``).
"""

from .types import AnomalyRegion, Archive, LabeledSeries, Labels

__version__ = "1.0.0"

__all__ = [
    "AnomalyRegion",
    "Labels",
    "LabeledSeries",
    "Archive",
    "__version__",
]
