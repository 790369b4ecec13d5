"""Refit policies: cadence parity, triggers, settle, serve/CLI boundaries.

The load-bearing equivalence: ``refit_every=k`` and
``refit_policy="fixed(every=k)"`` replay **byte-identically** for every
registry streaming adapter — the policy extraction moved the legacy
counter, it did not reinterpret it.  Plus: triggered/settle/hybrid
refit semantics on scripted flags, policy state through serve
snapshots cut mid-drift (every state ``observe`` reaches passes the
restore self-checks), option validation at the cluster/HTTP/CLI
boundaries, and adapter ``reset()`` after a triggered refit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.detectors import available_detectors
from repro.drift import (
    DriftDetector,
    DriftSimConfig,
    DriftTriggered,
    FixedCadence,
    Hybrid,
    make_drift_series,
    parse_policy,
    validate_stream_options,
)
from repro.serve import (
    ServeClient,
    ServeError,
    ServeServer,
    StreamCluster,
    restore,
    snapshot,
)
from repro.stream import BatchStreamingAdapter, as_streaming, replay

from test_stream_profile import FAMILIES, make_family

#: small-parameter spec per registry name, sized for ~300-point series
SPECS = {
    "matrix_profile": "matrix_profile(w=24)",
    "knn": "knn(w=16,train_stride=2)",
    "merlin": "merlin(min_w=8,max_w=16,num_lengths=3)",
    "telemanom": "telemanom(lags=12)",
    "cusum": "cusum(warmup=40)",
    "ewma": "ewma(warmup=40)",
}
ALL_SPECS = tuple(SPECS.get(name, name) for name in available_detectors())


def drifting_series(n=300, seed=5, at=200, magnitude=4.0):
    from repro.types import LabeledSeries, Labels

    rng = np.random.default_rng(seed)
    values = rng.normal(0.0, 1.0, n)
    values[at:] += magnitude
    return LabeledSeries(
        name="shift",
        values=values,
        labels=Labels.single(n, at, at + 20),
        train_len=100,
    )


class ScriptedDrift(DriftDetector):
    """Deterministic flags at chosen stream indices (policy probe)."""

    def __init__(self, flag_at=()):
        self.flag_at = frozenset(int(i) for i in flag_at)
        self._index = 0

    @property
    def spec(self):
        return "scripted"

    def reset(self):
        self._index = 0
        return self

    def push(self, value):
        flagged = self._index in self.flag_at
        self._index += 1
        return flagged

    def state(self):
        return {"index": self._index}, {}

    def load_state(self, scalars, arrays):
        self._index = int(scalars["index"])


class TestFixedCadenceParity:
    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_refit_every_sugar_is_byte_identical(self, spec):
        series = drifting_series()
        legacy = replay(series, spec, batch_size=16, refit_every=60)
        policy = replay(
            series, spec, batch_size=16, refit_policy="fixed(every=60)"
        )
        assert legacy.scores.tobytes() == policy.scores.tobytes()
        assert legacy.location == policy.location
        assert legacy.correct == policy.correct
        assert legacy.refits == policy.refits

    def test_sugar_builds_fixed_cadence_quietly(self):
        # refit_every=k constructs the policy but keeps the legacy
        # surface: refit_policy stays None, trace fields unchanged
        adapter = as_streaming("diff", refit_every=5)
        assert isinstance(adapter.policy, FixedCadence)
        assert adapter.policy.every == 5
        assert adapter.refit_policy is None

    def test_fixed_counter_arithmetic(self):
        policy = FixedCadence(10)
        assert not policy.observe(np.zeros(9))
        assert policy.observe(np.zeros(1))  # 10th point arrives
        assert policy.refits == 1
        assert policy.observe(np.zeros(25))  # batch overshoot still one
        assert policy.refits == 2


class TestTriggeredSemantics:
    def test_flag_refits_and_counts_triggers(self):
        policy = DriftTriggered(on=ScriptedDrift(flag_at=(12,)))
        decisions = [policy.observe(np.zeros(5)) for _ in range(6)]
        # index 12 arrives in the third batch (points 10..14)
        assert decisions == [False, False, True, False, False, False]
        assert policy.triggers == 1 and policy.refits == 1

    def test_cooldown_swallows_followup_flags(self):
        policy = DriftTriggered(
            on=ScriptedDrift(flag_at=(10, 20)), cooldown=50
        )
        decisions = [policy.observe(np.zeros(5)) for _ in range(12)]
        # first flag at 10 arrives before 50 points: cooldown holds it
        # too, so only triggers are counted until the window has paid
        assert sum(decisions) == 0
        assert policy.triggers == 2 and policy.refits == 0

    def test_settle_schedules_one_consolidation_refit(self):
        policy = DriftTriggered(on=ScriptedDrift(flag_at=(12,)), settle=30)
        refits_at = [
            batch
            for batch in range(20)
            if policy.observe(np.zeros(5))
        ]
        # trigger lands in batch 2 (points 10..14); the consolidation
        # fires exactly 30 points = 6 batches later, then never again
        assert refits_at == [2, 8]
        assert policy.refits == 2 and policy.triggers == 1

    def test_hybrid_cadence_fallback_without_flags(self):
        policy = Hybrid(on=ScriptedDrift(), every=40)
        decisions = [policy.observe(np.zeros(5)) for _ in range(16)]
        assert [i for i, d in enumerate(decisions) if d] == [7, 15]
        assert policy.triggers == 0 and policy.refits == 2

    def test_hybrid_flag_resets_the_cadence_clock(self):
        policy = Hybrid(on=ScriptedDrift(flag_at=(10,)), every=40)
        decisions = [policy.observe(np.zeros(5)) for _ in range(16)]
        # flag refit in batch 2, cadence restarts from there (40 points
        # = 8 batches later), instead of firing at the original phase
        assert [i for i, d in enumerate(decisions) if d] == [2, 10]

    def test_policy_state_round_trip_mid_settle(self):
        live = DriftTriggered(on=ScriptedDrift(flag_at=(12,)), settle=30)
        for _ in range(4):  # trigger fired, settle countdown in flight
            live.observe(np.zeros(5))
        twin = DriftTriggered(on=ScriptedDrift(flag_at=(12,)), settle=30)
        twin.load_state(*live.state())
        for _ in range(16):
            assert live.observe(np.zeros(5)) == twin.observe(np.zeros(5))
        assert twin.refits == live.refits and twin.triggers == live.triggers

    def test_reset_clears_counters_and_settle(self):
        policy = DriftTriggered(on=ScriptedDrift(flag_at=(2,)), settle=30)
        policy.observe(np.zeros(5))
        assert policy.refits == 1
        policy.reset()
        assert policy.refits == 0 and policy.triggers == 0
        assert policy._settle_due is None
        assert policy.detector._index == 0


#: one policy of each kind; small cadences, so a few hundred points
#: cross every refit path (cadence, trigger, cooldown, settle)
PROPERTY_POLICIES = (
    "fixed(every=60)",
    "hybrid(on='zshift(recent=16, reference=48)', every=80, cooldown=20)",
    "drift(on='adwin', settle=40)",
    "page_hinkley(cooldown=30)",
)


class TestRestorableState:
    @pytest.mark.parametrize("spec", PROPERTY_POLICIES)
    @given(
        family=st.sampled_from(FAMILIES),
        seed=st.integers(0, 2**16),
        sizes=st.lists(st.integers(1, 9), min_size=1, max_size=60),
    )
    @settings(max_examples=25, deadline=None)
    def test_every_state_observe_reaches_passes_the_restore_checks(
        self, spec, family, seed, sizes
    ):
        values = make_family(family, seed, 9 * 60)
        policy = parse_policy(spec)
        start = 0
        for size in sizes:
            policy.observe(values[start : start + size])
            start += size
            parse_policy(spec).load_state(*policy.state())


class TestParsePolicy:
    def test_spec_round_trips(self):
        for spec in (
            "fixed(every=500)",
            "drift(on='zshift(recent=16,reference=64)',cooldown=100)",
            "hybrid(on='adwin',every=2000,cooldown=250,settle=300)",
        ):
            policy = parse_policy(spec)
            assert parse_policy(policy.spec).spec == policy.spec

    def test_bare_detector_shorthand(self):
        policy = parse_policy("page_hinkley(threshold=30,cooldown=200)")
        assert isinstance(policy, DriftTriggered)
        assert policy.cooldown == 200
        assert policy.detector.threshold == 30

    def test_none_and_instances_pass_through(self):
        assert parse_policy(None) is None
        policy = FixedCadence(7)
        assert parse_policy(policy) is policy

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown refit policy"):
            parse_policy("sometimes")

    def test_bad_params_rejected(self):
        with pytest.raises(ValueError, match="bad refit policy"):
            parse_policy("fixed(cadence=5)")
        with pytest.raises(ValueError, match="every must be >= 1"):
            parse_policy("fixed(every=0)")
        with pytest.raises(ValueError, match="must be an integer"):
            parse_policy("fixed(every=2.5)")


class TestValidateStreamOptions:
    def test_mutual_exclusion(self):
        with pytest.raises(ValueError, match="mutually exclusive"):
            validate_stream_options(refit_every=5, refit_policy="fixed(every=5)")

    @pytest.mark.parametrize("bad", (0, -3, 2.5, True, "soon"))
    def test_bad_refit_every_rejected(self, bad):
        with pytest.raises(ValueError):
            validate_stream_options(refit_every=bad)

    def test_bad_window_rejected(self):
        with pytest.raises(ValueError, match="window must be >= 2"):
            validate_stream_options(window=1)

    def test_policy_specs_are_parsed(self):
        with pytest.raises(ValueError, match="unknown refit policy"):
            validate_stream_options(refit_policy="warp_drive")
        validate_stream_options(window=50, refit_every=10)
        validate_stream_options(refit_policy="adwin")


class TestAdapterIntegration:
    def test_triggered_refit_fires_and_counts(self):
        series = drifting_series()
        adapter = as_streaming(
            "knn(w=16,train_stride=2)",
            refit_policy="drift(on='zshift(recent=20,reference=60,threshold=3.0,var_ratio=2.0)',cooldown=40)",
        )
        adapter.fit(series.values[:100])
        adapter.update(series.values[100:])
        assert adapter.num_refits >= 1
        assert adapter.policy.triggers >= 1
        assert adapter.policy.refits == adapter.num_refits

    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_reset_after_triggered_refit_equals_fresh(self, spec):
        # satellite: a recycled adapter must be indistinguishable from
        # a new one, even after drift-triggered refits mutated it
        series = drifting_series()
        used = as_streaming(spec, refit_policy="page_hinkley(cooldown=30)")
        used.fit(series.values[:100])
        used.update(series.values[100:])
        assert used.num_refits >= 1, f"{spec}: probe stream never refit"
        used.reset()
        assert used.num_refits == 0
        assert used.policy.refits == 0 and used.policy.triggers == 0
        fresh = as_streaming(spec, refit_policy="page_hinkley(cooldown=30)")
        suffix = series.values[120:260]
        used.fit(series.values[:120])
        fresh.fit(series.values[:120])
        a = np.asarray(used.update(suffix), dtype=float)
        b = np.asarray(fresh.update(suffix), dtype=float)
        assert a.tobytes() == b.tobytes()

    def test_refit_policy_label_lands_in_trace(self):
        series = drifting_series()
        trace = replay(
            series, "diff", batch_size=16, refit_policy="fixed(every=50)"
        )
        assert trace.refit_policy == "fixed(every=50)"
        assert trace.refits == trace.to_json()["refits"] > 0
        legacy = replay(series, "diff", batch_size=16, refit_every=50)
        assert legacy.refit_policy is None  # sugar keeps legacy surface


def scenario_cut():
    config = DriftSimConfig(n=1200, per_kind=1, stationary=1)
    series = make_drift_series("step", config)
    onset = series.meta["onset"]
    return series, onset + 60  # mid-drift: trigger fired, settle pending


class TestServeSnapshotMidDrift:
    POLICY = (
        "drift(on='zshift(recent=40,reference=120,threshold=3.0,"
        "var_ratio=2.0)',cooldown=50,settle=200)"
    )

    def build(self, series):
        adapter = as_streaming(
            "knn(w=32,train_stride=2)", refit_policy=self.POLICY
        )
        adapter.fit(series.values[: series.train_len])
        return adapter

    def test_policy_state_continues_byte_identically(self):
        series, cut = scenario_cut()
        live = self.build(series)
        live.update(series.values[series.train_len : cut])
        assert live.policy.refits >= 1, "cut is not mid-drift"
        assert live.policy._settle_due is not None, "settle already spent"
        restored = restore(snapshot(live))
        tail = series.values[cut:]
        a = np.asarray(live.update(tail), dtype=float)
        b = np.asarray(restored.update(tail), dtype=float)
        assert a.tobytes() == b.tobytes()
        assert restored.policy.refits == live.policy.refits
        assert restored.policy.triggers == live.policy.triggers
        assert restored.num_refits == live.num_refits

    def test_snapshot_of_restored_is_identical(self):
        series, cut = scenario_cut()
        live = self.build(series)
        live.update(series.values[series.train_len : cut])
        blob = snapshot(live)
        assert snapshot(restore(blob)) == blob

    def test_refit_every_sugar_still_round_trips(self):
        # the sugar-built FixedCadence travels as policy_state too
        series, cut = scenario_cut()
        adapter = as_streaming("knn(w=32,train_stride=2)", refit_every=150)
        adapter.fit(series.values[: series.train_len])
        adapter.update(series.values[series.train_len : cut])
        restored = restore(snapshot(adapter))
        assert isinstance(restored.policy, FixedCadence)
        assert restored.policy._since == adapter.policy._since
        tail = series.values[cut:]
        a = np.asarray(adapter.update(tail), dtype=float)
        b = np.asarray(restored.update(tail), dtype=float)
        assert a.tobytes() == b.tobytes()


class TestServeBoundaryValidation:
    def test_cluster_rejects_bad_options_before_queueing(self):
        cluster = StreamCluster(num_shards=1)
        try:
            with pytest.raises(ValueError, match="refit_every"):
                cluster.create_stream(
                    "acme", "s1", "diff", np.arange(20.0), refit_every=0
                )
            with pytest.raises(ValueError, match="mutually exclusive"):
                cluster.create_stream(
                    "acme",
                    "s1",
                    "diff",
                    np.arange(20.0),
                    refit_every=5,
                    refit_policy="fixed(every=5)",
                )
            # nothing reached a worker: the stream name is still free
            created = cluster.create_stream(
                "acme", "s1", "diff", np.arange(20.0)
            )
            assert created["stream"] == "acme/s1"
        finally:
            cluster.close()


@pytest.fixture()
def served():
    with ServeServer(StreamCluster(num_shards=2)) as server:
        with ServeClient(server.address) as client:
            yield client


class TestServeHttp:
    @pytest.mark.parametrize(
        "kwargs",
        (
            {"refit_every": 0},
            {"refit_every": -2},
            {"refit_policy": "warp_drive"},
            {"refit_policy": "fixed(every=0)"},
            {"refit_every": 5, "refit_policy": "fixed(every=5)"},
        ),
    )
    def test_bad_adaptation_options_are_400(self, served, kwargs):
        with pytest.raises(ServeError) as caught:
            served.create_stream(
                "acme", "bad", "diff", np.arange(30.0), **kwargs
            )
        assert caught.value.status == 400

    def test_refit_policy_stream_scores_flow(self, served):
        series = drifting_series()
        served.create_stream(
            "acme",
            "drifty",
            "knn(w=16,train_stride=2)",
            series.values[:100],
            refit_policy="page_hinkley(cooldown=30)",
        )
        served.append("acme", "drifty", series.values[100:])
        out = served.scores("acme", "drifty")
        assert out["total"] == 200
        # same adapter driven directly: the service changes nothing
        adapter = as_streaming(
            "knn(w=16,train_stride=2)",
            refit_policy="page_hinkley(cooldown=30)",
        )
        adapter.fit(series.values[:100])
        direct = np.asarray(adapter.update(series.values[100:]), dtype=float)
        np.testing.assert_array_equal(
            np.asarray(out["scores"], dtype=float), direct
        )


class TestStreamRefitPolicyCli:
    def build_archive(self, tmp_path, capsys):
        from repro.cli import main

        archive_dir = tmp_path / "arch"
        assert main(
            ["build-archive", str(archive_dir), "--size", "4",
             "--max-trivial", "1.0"]
        ) == 0
        capsys.readouterr()
        return archive_dir

    def test_bad_policy_spec_exits_2_at_parse_time(self):
        from repro.cli import build_parser

        with pytest.raises(SystemExit) as caught:
            build_parser().parse_args(
                ["stream", "/tmp/x", "--refit-policy", "warp_drive"]
            )
        assert caught.value.code == 2

    def test_mutual_exclusion_exits_2(self, tmp_path, capsys):
        from repro.cli import main

        archive_dir = self.build_archive(tmp_path, capsys)
        code = main(
            ["stream", str(archive_dir), "--detectors", "diff",
             "--refit-every", "50", "--refit-policy", "fixed(every=50)"]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "mutually exclusive" in captured.err
        assert captured.out == ""  # rejected before any replay work

    def test_policy_runs_are_byte_identical(self, tmp_path, capsys):
        from repro.cli import main

        archive_dir = self.build_archive(tmp_path, capsys)
        out_dir = tmp_path / "out"
        base = ["stream", str(archive_dir), "--detectors",
                "moving_zscore(k=50)", "--batch-size", "500",
                "--refit-policy", "page_hinkley(cooldown=30)",
                "--resamples", "100", "--out", str(out_dir)]
        assert main(base) == 0
        capsys.readouterr()
        traces_path = out_dir / "stream.traces.jsonl"
        stats_path = out_dir / "stream.stats.json"
        first = traces_path.read_bytes()
        first_stats = stats_path.read_bytes()
        assert b"page_hinkley" in first  # policy label lands in traces
        assert main(base) == 0
        capsys.readouterr()
        assert traces_path.read_bytes() == first
        assert stats_path.read_bytes() == first_stats
