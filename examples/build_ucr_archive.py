"""Build, validate, save and score a UCR-style anomaly archive (paper §3).

* builds a 30-dataset single-anomaly archive (natural exemplars plus
  injected anomalies across seven domains);
* validates it (structure + bounded one-liner-solvable fraction);
* round-trips it through the archive's on-disk format
  (``UCR_Anomaly_<name>_<train>_<begin>_<end>.txt``);
* scores two detectors through the evaluation engine — once cold, once
  against the warm content-addressed cache — and writes a reproducible
  run manifest.

Run:  python examples/build_ucr_archive.py
"""

import tempfile
from pathlib import Path

from repro.archive import load_archive, save_archive, validate_archive
from repro.datasets import UcrSimConfig, make_ucr
from repro.detectors import DetectorSpec
from repro.runner import EvalEngine, ResultCache, ResultsStore


def main() -> None:
    print("building a 30-dataset UCR-style archive ...")
    archive = make_ucr(UcrSimConfig(size=30))

    print("\nvalidating ...")
    validation = validate_archive(archive, check_triviality=True, max_trivial_fraction=0.2)
    print(validation.format())

    specs = [
        DetectorSpec.create("matrix_profile", w=100),
        DetectorSpec.create("moving_zscore", k=50),
    ]

    with tempfile.TemporaryDirectory() as tmp:
        paths = save_archive(archive, Path(tmp) / "archive")
        print(f"\nsaved {len(paths)} files, e.g. {Path(paths[0]).name}")
        reloaded = load_archive(Path(tmp) / "archive")
        print(f"reloaded {len(reloaded)} datasets — names carry the protocol")

        print("\nscoring with UCR accuracy through the evaluation engine:")
        cache = ResultCache(Path(tmp) / "cache")
        report = EvalEngine(specs, cache=cache, jobs=2).run(archive)
        for label, summary in report.summaries().items():
            print(f"  {label:<24} {summary.accuracy:6.1%}")
        print(f"  cold run: {report.stats.format()}")

        # a second run resolves every cell from the content-addressed cache
        warm = EvalEngine(specs, cache=cache).run(archive)
        print(f"  warm run: {warm.stats.format()}")
        assert warm.manifest().to_json() == report.manifest().to_json()

        artifacts = ResultsStore(Path(tmp) / "out").write(report, "ucr_example")
        manifest_path = artifacts["manifest"]
        print(f"\nmanifest: {manifest_path.name} pins the archive fingerprint,")
        print("detector specs and every per-cell outcome — byte-identical")
        print("whatever the job count or cache temperature.")

    print(
        "\nEvery dataset holds exactly one anomaly, so archive results are a\n"
        "simple, interpretable accuracy — the evaluation §2.3 argues for."
    )


if __name__ == "__main__":
    main()
