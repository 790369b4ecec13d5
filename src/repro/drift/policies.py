"""Refit policies: *when* a streaming adapter refits its detector.

PR 5's ``refit_every`` hard-wired one answer — a fixed cadence — into
:class:`~repro.stream.adapters.BatchStreamingAdapter`.  This module
lifts the decision into a :class:`RefitPolicy` object the adapter
consults once per arriving micro-batch, before scoring:

* :class:`FixedCadence` — the legacy behavior, extracted verbatim:
  refit once at least ``every`` points have arrived since the last fit.
  ``refit_every=k`` everywhere in the stack is now sugar for this
  policy, and the replay parity tests hold the two byte-identical.
* :class:`DriftTriggered` — refit when a
  :class:`~repro.drift.detectors.DriftDetector` flags the input
  distribution, rate-limited by ``cooldown`` points between refits.
* :class:`Hybrid` — drift-triggered with a fixed-cadence fallback:
  react within ``cooldown`` of a flag, but never go longer than
  ``every`` points without a refit (regime changes the input-space
  detector cannot see — e.g. a pure period change — still get the
  scheduled recovery).

Policies are stateful and deterministic; their state round-trips
through serve snapshots bit-exactly (:meth:`RefitPolicy.state` /
:meth:`RefitPolicy.load_state`), and ``triggers``/``refits`` counters
feed the replay traces and the drift ablation.  :func:`parse_policy`
gives them the registry's spec-string syntax so they travel through
the CLI and the serve JSON API as plain strings.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from ..detectors.registry import DetectorSpec
from ..obs import get_registry
from ..stream.windows import prefixed, unprefixed
from .detectors import DRIFT_DETECTORS, DriftDetector, make_drift_detector

__all__ = [
    "RefitPolicy",
    "FixedCadence",
    "DriftTriggered",
    "Hybrid",
    "parse_policy",
    "validate_stream_options",
]


def _check_cadence(name: str, value, *, minimum: int) -> int:
    """A strict integer cadence: bools, floats and strings are rejected
    here, at the boundary, instead of failing later inside a worker."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(
            f"{name} must be an integer, got {value!r} "
            f"({type(value).__name__})"
        )
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return int(value)


def _restored_count(
    name: str, value, *, minimum: int = 0, below: int | None = None
) -> int:
    """A counter read back from a snapshot: an integer >= ``minimum``
    and, when ``below`` is given, < ``below``.  Anything else is state
    no sequence of ``observe`` calls produces."""
    try:
        value = _check_cadence(name, value, minimum=minimum)
    except ValueError as error:
        raise ValueError(f"corrupt snapshot: {error}") from None
    if below is not None and value >= below:
        raise ValueError(
            f"corrupt snapshot: {name} must be < {below}, got {value}"
        )
    return value


class RefitPolicy(ABC):
    """Decide, per arriving micro-batch, whether to refit now.

    :meth:`observe` is called by the adapter once per ``update`` with
    the newly arrived values, *before* scoring; returning True makes
    the adapter refit its wrapped detector on everything seen so far.
    ``triggers`` counts drift flags seen, ``refits`` the True verdicts
    returned — both survive snapshots and land in replay traces.
    """

    def __init__(self) -> None:
        self._since = 0
        self.triggers = 0
        self.refits = 0

    @property
    @abstractmethod
    def spec(self) -> str:
        """Canonical spec string; :func:`parse_policy` parses it back."""

    @abstractmethod
    def observe(self, values: np.ndarray) -> bool:
        """Ingest one arriving micro-batch; True means refit now."""

    def reset(self) -> "RefitPolicy":
        """Back to the freshly-constructed state (counters included)."""
        self._since = 0
        self.triggers = 0
        self.refits = 0
        detector = getattr(self, "detector", None)
        if detector is not None:
            detector.reset()
        return self

    # -- snapshot support (repro.serve.state) -------------------------

    def state(self) -> tuple[dict, dict[str, np.ndarray]]:
        """``(scalars, arrays)`` capturing the mutable state bit-exactly."""
        scalars = {
            "since": self._since,
            "triggers": self.triggers,
            "refits": self.refits,
        }
        arrays: dict[str, np.ndarray] = {}
        detector = getattr(self, "detector", None)
        if detector is not None:
            detector_scalars, detector_arrays = detector.state()
            scalars.update(prefixed("detector_", detector_scalars))
            arrays.update(prefixed("detector_", detector_arrays))
        return scalars, arrays

    def load_state(self, scalars: dict, arrays: dict[str, np.ndarray]) -> None:
        """Inverse of :meth:`state` on a same-spec instance.

        A cadence policy resets ``since`` once it reaches ``every``, so
        a restored ``since`` must be below it.
        """
        self._since = _restored_count(
            "since", scalars["since"], below=getattr(self, "every", None)
        )
        self.triggers = _restored_count("triggers", scalars["triggers"])
        self.refits = _restored_count("refits", scalars["refits"])
        detector = getattr(self, "detector", None)
        if detector is not None:
            detector.load_state(
                unprefixed("detector_", scalars),
                unprefixed("detector_", arrays),
            )

    def __repr__(self) -> str:
        return f"<{self.spec}>"


class FixedCadence(RefitPolicy):
    """Refit once at least ``every`` points arrived since the last fit.

    This is PR 5's ``refit_every`` counter, moved here unchanged —
    same increment, same ``>=`` comparison, same reset-to-zero — so a
    ``refit_every=k`` stream and a ``fixed(every=k)`` stream replay
    byte-identically (``tests/test_drift_policies.py`` holds the line).
    """

    def __init__(self, every: int) -> None:
        super().__init__()
        self.every = _check_cadence("every", every, minimum=1)

    @property
    def spec(self) -> str:
        return DetectorSpec.create("fixed", every=self.every).label

    def observe(self, values: np.ndarray) -> bool:
        self._since += int(np.asarray(values).size)
        if self._since >= self.every:
            self._since = 0
            self.refits += 1
            return True
        return False


class _Triggered(RefitPolicy):
    """Shared flag → refit machinery for the drift-aware policies.

    Three refit sources, checked in priority order on every batch:

    1. **trigger** — the drift detector flagged and at least
       ``cooldown`` points arrived since the last refit;
    2. **settle** — exactly ``settle`` points after a triggered refit,
       one consolidation refit.  A triggered refit usually lands
       mid-transition, when the history holds only a handful of
       new-regime points; detectors whose fitted state is a reference
       *sample* (kNN windows, learned baselines) stay half-stale until
       a later fit sees the settled regime.  ``settle=0`` disables it;
    3. **cadence** — the subclass's scheduled fallback, if any.

    Flags during cooldown still restart the drift detector's baseline
    (its own flag semantics); they just don't pay for another refit.
    """

    def __init__(
        self,
        on: "str | DetectorSpec | DriftDetector",
        cooldown: int,
        settle: int,
    ) -> None:
        super().__init__()
        self.detector = make_drift_detector(on)
        self.cooldown = _check_cadence("cooldown", cooldown, minimum=0)
        self.settle = _check_cadence("settle", settle, minimum=0)
        self._settle_due: int | None = None

    def reset(self) -> "RefitPolicy":
        super().reset()
        self._settle_due = None
        return self

    def state(self) -> tuple[dict, dict[str, np.ndarray]]:
        scalars, arrays = super().state()
        scalars["settle_due"] = self._settle_due
        return scalars, arrays

    def load_state(self, scalars: dict, arrays: dict[str, np.ndarray]) -> None:
        super().load_state(scalars, arrays)
        # a triggered refit schedules the settle refit `settle` points
        # ahead, and it fires (clearing the schedule) once they arrived
        due = scalars["settle_due"]
        self._settle_due = (
            None
            if due is None
            else _restored_count(
                "settle_due", due, minimum=1, below=self.settle + 1
            )
        )

    def _cadence_due(self) -> bool:
        return False

    def observe(self, values: np.ndarray) -> bool:
        size = int(np.asarray(values).size)
        self._since += size
        if self._settle_due is not None:
            self._settle_due -= size
        flagged = int(np.count_nonzero(self.detector.update(values)))
        if flagged:
            self.triggers += flagged
            get_registry().counter(
                "drift_triggers", detector=self.detector.name
            ).inc(flagged)
        if flagged and self._since >= self.cooldown:
            self._since = 0
            self.refits += 1
            self._settle_due = self.settle if self.settle > 0 else None
            return True
        if self._settle_due is not None and self._settle_due <= 0:
            self._settle_due = None
            self._since = 0
            self.refits += 1
            return True
        if self._cadence_due():
            self._since = 0
            self.refits += 1
            return True
        return False


class DriftTriggered(_Triggered):
    """Refit when the drift detector flags, at most every ``cooldown``.

    ``on`` names the drift detector (spec string, spec, or instance);
    every flagged point counts as a trigger, and a refit fires when a
    batch contained a flag and at least ``cooldown`` points arrived
    since the last refit, plus one consolidation refit ``settle``
    points later (see :class:`_Triggered`; ``settle=0`` disables it).
    """

    def __init__(
        self,
        on: "str | DetectorSpec | DriftDetector" = "page_hinkley",
        cooldown: int = 0,
        settle: int = 0,
    ) -> None:
        super().__init__(on, cooldown, settle)

    @property
    def spec(self) -> str:
        return DetectorSpec.create(
            "drift",
            on=self.detector.spec,
            cooldown=self.cooldown,
            settle=self.settle,
        ).label


class Hybrid(_Triggered):
    """Drift-triggered refits with a fixed-cadence safety net.

    React within ``cooldown`` points of a drift flag (consolidating
    ``settle`` points later, like :class:`DriftTriggered`), and refit
    on the ``every`` cadence regardless — the fallback covers regime
    changes the input-space drift detector is blind to (a pure period
    change moves neither mean nor variance), at fixed-cadence cost only
    when the detector stays silent.
    """

    def __init__(
        self,
        on: "str | DetectorSpec | DriftDetector" = "page_hinkley",
        every: int = 1000,
        cooldown: int = 0,
        settle: int = 0,
    ) -> None:
        super().__init__(on, cooldown, settle)
        self.every = _check_cadence("every", every, minimum=1)

    @property
    def spec(self) -> str:
        return DetectorSpec.create(
            "hybrid",
            on=self.detector.spec,
            every=self.every,
            cooldown=self.cooldown,
            settle=self.settle,
        ).label

    def _cadence_due(self) -> bool:
        return self._since >= self.every


_POLICIES = {"fixed": FixedCadence, "drift": DriftTriggered, "hybrid": Hybrid}


def parse_policy(
    policy: "str | DetectorSpec | RefitPolicy | None",
) -> RefitPolicy | None:
    """Build a refit policy from its spec string.

    Syntax is the registry's spec syntax.  ``fixed(every=500)``,
    ``drift(on='zshift(recent=64)', cooldown=200)`` and
    ``hybrid(on='adwin', every=2000, cooldown=250)`` name the policies
    directly; a bare drift-detector spec — ``page_hinkley(threshold=30)``
    or ``zshift`` — is shorthand for ``drift(on=...)`` with an optional
    ``cooldown`` parameter peeled off for the policy.  ``None`` and
    ready-made :class:`RefitPolicy` instances pass through.
    """
    if policy is None or isinstance(policy, RefitPolicy):
        return policy
    if isinstance(policy, str):
        policy = DetectorSpec.parse(policy)
    if not isinstance(policy, DetectorSpec):
        raise ValueError(
            f"cannot build a refit policy from {policy!r}; expected a "
            f"spec string like 'fixed(every=500)'"
        )
    params = dict(policy.params)
    try:
        if policy.name in _POLICIES:
            return _POLICIES[policy.name](**params)
        if policy.name in DRIFT_DETECTORS:
            cooldown = params.pop("cooldown", 0)
            settle = params.pop("settle", 0)
            detector = DRIFT_DETECTORS[policy.name](**params)
            return DriftTriggered(on=detector, cooldown=cooldown, settle=settle)
    except TypeError as error:
        raise ValueError(f"bad refit policy {policy.label!r}: {error}") from None
    raise ValueError(
        f"unknown refit policy {policy.name!r}; available: "
        f"{sorted(_POLICIES)} or a drift detector "
        f"{sorted(DRIFT_DETECTORS)} as shorthand for drift(on=...)"
    )


def validate_stream_options(
    *,
    window=None,
    refit_every=None,
    refit_policy=None,
) -> None:
    """Reject bad adaptation options at an API boundary.

    The serve cluster and the CLI both call this before any work is
    queued, so ``refit_every=0``, a float window, or a misspelled
    policy spec fail with a clean ``ValueError`` (→ exit 2 / HTTP 400)
    instead of a deferred failure surfacing from inside a shard worker.
    """
    if window is not None:
        _check_cadence("window", window, minimum=2)
    if refit_every is not None:
        _check_cadence("refit_every", refit_every, minimum=1)
    if refit_policy is not None:
        if refit_every is not None:
            raise ValueError(
                "refit_every and refit_policy are mutually exclusive; "
                "refit_every=k is shorthand for refit_policy="
                "'fixed(every=k)'"
            )
        if not isinstance(refit_policy, (str, DetectorSpec, RefitPolicy)):
            raise ValueError(
                f"refit_policy must be a policy spec string, got "
                f"{refit_policy!r} ({type(refit_policy).__name__})"
            )
        parse_policy(refit_policy)
