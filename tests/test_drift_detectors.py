"""Drift detectors: false-alarm bounds, detection delay, invariances.

The robustness battery the drift layer ships under.  Stated bounds are
calibrated over 100 seeds at n = 4000 with generous margin (the test
streams here are half that length, so the bounds are conservative):

* stationary false alarms, per PR 3 input family — note ``walk`` is a
  random walk (genuinely drifting, large bounds are honest) and
  ``constant`` contains a genuine variance regime change (a constant
  segment inside unit noise), so neither is a zero-flag family;
* a 3σ step change is flagged within 64 points, never missed, by a
  detector that has not flagged in the 240 points before it;
* z-shift flags are at least one window restart apart;
* decisions are deterministic and invariant to chunk boundaries
  (``update`` is definitionally a loop of ``push``), and every state
  the pushes reach passes the detector's restore self-checks.
"""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.drift import (
    DRIFT_DETECTORS,
    AdwinLite,
    PageHinkley,
    ZShift,
    make_drift_detector,
)

from test_stream_profile import FAMILIES, make_family

DETECTORS = tuple(sorted(DRIFT_DETECTORS))

#: stationary false-alarm bounds per (family, detector), flags per
#: 4000-point stream; calibrated maxima over 100 seeds were
#: walk {ph 59, adwin 372, zshift 16}, constant {3, 22, 4},
#: spikes {2, 6, 2}, near_constant {3, 0, 2}
FALSE_ALARM_BOUND = {
    ("walk", "page_hinkley"): 90,
    ("walk", "adwin"): 450,
    ("walk", "zshift"): 17,
    ("constant", "page_hinkley"): 6,
    ("constant", "adwin"): 33,
    ("constant", "zshift"): 8,
    ("spikes", "page_hinkley"): 5,
    ("spikes", "adwin"): 12,
    ("spikes", "zshift"): 5,
    ("near_constant", "page_hinkley"): 5,
    ("near_constant", "adwin"): 4,
    ("near_constant", "zshift"): 5,
}

#: a 3σ step must be flagged within this many points (calibrated
#: maxima over 100 seeds: ph 24, adwin 14, zshift 24)
STEP_DELAY_BOUND = 64

#: a z-shift flag restarts both windows, leaving the detector blind for
#: recent + reference points; the step property is stated for a
#: detector armed when the step arrives, i.e. silent this long before it
ARMING_POINTS = ZShift().recent + ZShift().reference


def step_stream(seed: int, n: int = 1200, at: int = 600, magnitude: float = 3.0):
    rng = np.random.default_rng(seed)
    values = rng.normal(0.0, 1.0, n)
    values[at:] += magnitude
    return values


class TestFalseAlarmBounds:
    @pytest.mark.parametrize("kind", FAMILIES)
    @pytest.mark.parametrize("name", DETECTORS)
    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=15, deadline=None)
    def test_stationary_flags_within_bound(self, kind, name, seed):
        values = make_family(kind, seed, 2000)
        detector = make_drift_detector(name)
        flags = int(np.count_nonzero(detector.update(values)))
        assert flags <= FALSE_ALARM_BOUND[(kind, name)], (
            f"{name} flagged {flags}x on a {kind!r} stream "
            f"(bound {FALSE_ALARM_BOUND[(kind, name)]})"
        )


class TestStepDetection:
    @pytest.mark.parametrize("name", DETECTORS)
    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=15, deadline=None)
    def test_step_flagged_within_delay_bound(self, name, seed):
        at = 600
        values = step_stream(seed, at=at)
        detector = make_drift_detector(name)
        flags = np.flatnonzero(detector.update(values))
        # under 1% of seeds false-alarm in the window before the step; a
        # detector that just restarted (z-shift, by the contract tested
        # below) or re-anchored then misses the step or flags it late,
        # so those seeds fall outside the property
        assume(not np.any((flags >= at - ARMING_POINTS) & (flags < at)))
        after = flags[flags >= at]
        assert after.size > 0, f"{name} missed a 3σ step entirely"
        delay = int(after[0]) - at
        assert delay <= STEP_DELAY_BOUND, (
            f"{name} took {delay} points to flag a 3σ step "
            f"(bound {STEP_DELAY_BOUND})"
        )

    @given(seed=st.integers(0, 2**16))
    @example(seed=285)  # flags at 564, so it is still blind at the step
    @settings(max_examples=15, deadline=None)
    def test_zshift_flags_are_a_restart_apart(self, seed):
        # a random walk drifts throughout, so z-shift flags as often as
        # its restart allows; the step stream is the seed-285 case above
        detector = ZShift()
        gap = detector.recent + detector.reference
        for values in (step_stream(seed), make_family("walk", seed, 2000)):
            flags = np.flatnonzero(detector.reset().update(values))
            assert np.all(np.diff(flags) >= gap), flags


class TestInvariances:
    @pytest.mark.parametrize("name", DETECTORS)
    @given(
        kind=st.sampled_from(FAMILIES),
        seed=st.integers(0, 2**16),
        chunk=st.integers(1, 64),
    )
    @settings(max_examples=20, deadline=None)
    def test_chunk_boundary_invariance(self, name, kind, seed, chunk):
        # feeding 1-at-a-time == feeding in blocks: the whole contract
        values = make_family(kind, seed, 600)
        one = make_drift_detector(name)
        point_flags = np.array([one.push(float(v)) for v in values])
        blocked = make_drift_detector(name)
        parts = []
        for i in range(0, values.size, chunk):
            parts.append(blocked.update(values[i : i + chunk]))
            # every state pushes reach passes the restore self-checks
            make_drift_detector(name).load_state(*blocked.state())
        np.testing.assert_array_equal(point_flags, np.concatenate(parts))

    @pytest.mark.parametrize("name", DETECTORS)
    def test_deterministic(self, name):
        values = make_family("spikes", 11, 900)
        a = make_drift_detector(name).update(values)
        b = make_drift_detector(name).update(values)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("name", DETECTORS)
    def test_reset_equals_fresh(self, name):
        values = make_family("walk", 3, 500)
        used = make_drift_detector(name)
        used.update(values)
        used.reset()
        np.testing.assert_array_equal(
            used.update(values), make_drift_detector(name).update(values)
        )


class TestSpecAndState:
    @pytest.mark.parametrize("name", DETECTORS)
    def test_spec_round_trips(self, name):
        detector = make_drift_detector(name)
        rebuilt = make_drift_detector(detector.spec)
        assert rebuilt.spec == detector.spec
        assert type(rebuilt) is type(detector)

    def test_spec_with_params(self):
        detector = make_drift_detector("zshift(recent=16,reference=64)")
        assert isinstance(detector, ZShift)
        assert detector.recent == 16 and detector.reference == 64

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown drift detector"):
            make_drift_detector("page_hinckley")

    def test_instance_passes_through(self):
        detector = AdwinLite()
        assert make_drift_detector(detector) is detector

    @pytest.mark.parametrize("name", DETECTORS)
    @pytest.mark.parametrize("cut", (37, 250, 440))
    def test_state_round_trip_continues_identically(self, name, cut):
        # mid-stream state capture: the restored twin must make the
        # same decisions on the suffix, bit for bit
        values = step_stream(9, n=900, at=450)
        live = make_drift_detector(name)
        live.update(values[:cut])
        twin = make_drift_detector(name)
        twin.load_state(*live.state())
        np.testing.assert_array_equal(
            live.update(values[cut:]), twin.update(values[cut:])
        )


class TestParameterValidation:
    def test_page_hinkley_rejects_bad_params(self):
        with pytest.raises(ValueError):
            PageHinkley(delta=-0.1)
        with pytest.raises(ValueError):
            PageHinkley(threshold=0.0)
        with pytest.raises(ValueError):
            PageHinkley(min_count=1)

    def test_adwin_rejects_bad_params(self):
        with pytest.raises(ValueError):
            AdwinLite(delta=0.0)
        with pytest.raises(ValueError):
            AdwinLite(max_buckets=0)
        with pytest.raises(ValueError):
            AdwinLite(min_window=4, min_side=8)

    def test_zshift_rejects_bad_params(self):
        with pytest.raises(ValueError):
            ZShift(recent=1)
        with pytest.raises(ValueError):
            ZShift(recent=64, reference=32)
        with pytest.raises(ValueError):
            ZShift(var_ratio=1.0)


class TestAdwinWindow:
    def test_width_tracks_stream_and_shrinks_on_drift(self):
        detector = AdwinLite()
        rng = np.random.default_rng(4)
        detector.update(rng.normal(0.0, 1.0, 500))
        width_before = detector.width
        assert width_before > 0
        flags = detector.update(rng.normal(8.0, 1.0, 200))
        assert np.count_nonzero(flags) > 0
        # the cut dropped the stale buckets: the window no longer spans
        # the whole 700-point stream
        assert detector.width < width_before + 200
