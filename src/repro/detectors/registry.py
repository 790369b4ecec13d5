"""Name → detector factory registry, plus hashable detector specs.

Benches and examples build detector line-ups by name so a new detector
only has to register here to show up everywhere.  :class:`DetectorSpec`
is the registry's value-object form — a hashable ``(name, params)`` pair
that the evaluation engine can put in grids, fingerprint for the result
cache and round-trip through run manifests.
"""

from __future__ import annotations

import ast
import hashlib
import json
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field

from .base import Detector
from .baselines import (
    ConstantRunDetector,
    DiffDetector,
    MovingStdDetector,
    MovingZScoreDetector,
    NaiveLastPointDetector,
    RandomScoreDetector,
)
from .knn import KnnDistanceDetector
from .matrix_profile import MatrixProfileDetector
from .merlin import MerlinDetector
from .stats import CusumDetector, EwmaDetector
from .telemanom import TelemanomDetector

__all__ = [
    "DETECTORS",
    "DetectorSpec",
    "make_detector",
    "available_detectors",
    "parse_detectors",
]

DETECTORS: dict[str, Callable[..., Detector]] = {
    "diff": DiffDetector,
    "moving_zscore": MovingZScoreDetector,
    "moving_std": MovingStdDetector,
    "constant_run": ConstantRunDetector,
    "last_point": NaiveLastPointDetector,
    "random": RandomScoreDetector,
    "cusum": CusumDetector,
    "ewma": EwmaDetector,
    "matrix_profile": MatrixProfileDetector,
    "merlin": MerlinDetector,
    "telemanom": TelemanomDetector,
    "knn": KnnDistanceDetector,
}


def make_detector(name: "str | DetectorSpec", **kwargs) -> Detector:
    """Instantiate a registered detector by name or spec."""
    if isinstance(name, DetectorSpec):
        kwargs = {**dict(name.params), **kwargs}
        name = name.name
    try:
        factory = DETECTORS[name]
    except KeyError:
        raise ValueError(
            f"unknown detector {name!r}; available: {sorted(DETECTORS)}"
        ) from None
    return factory(**kwargs)


def available_detectors() -> list[str]:
    """Registered detector names, sorted."""
    return sorted(DETECTORS)


@dataclass(frozen=True)
class DetectorSpec:
    """A hashable ``(name, params)`` pair naming a registered detector.

    ``params`` is stored as a sorted tuple of ``(key, value)`` pairs so
    specs with the same keyword arguments compare and hash equal whatever
    order they were given in.  Values must be JSON-representable (they
    travel through manifests and cache keys).
    """

    name: str
    params: tuple[tuple[str, object], ...] = field(default=())

    def __post_init__(self) -> None:
        frozen = tuple(
            (key, _freeze(value)) for key, value in sorted(self.params)
        )
        for key, value in frozen:
            try:
                hash(value)
            except TypeError:
                raise ValueError(
                    f"detector param {key!r} has unhashable value "
                    f"{value!r}; use literals (numbers, strings, bools, "
                    f"lists/tuples of them)"
                ) from None
        object.__setattr__(self, "params", frozen)

    @classmethod
    def create(cls, name: str, **params) -> "DetectorSpec":
        """Build a spec from keyword arguments."""
        return cls(name=name, params=tuple(sorted(params.items())))

    @classmethod
    def parse(cls, text: str) -> "DetectorSpec":
        """Parse ``"name"`` or ``"name(key=value, ...)"``.

        Values must be Python literals (``w=100``, ``alpha=0.1``,
        ``znorm=True``, ``tag='a'``); anything else is rejected here
        rather than smuggled through as a string that blows up halfway
        into a run.
        """
        text = text.strip()
        if not text.endswith(")"):
            return cls(name=text)
        name, sep, arg_text = text[:-1].partition("(")
        if not sep:
            raise ValueError(
                f"bad detector spec {text!r}: unbalanced parentheses"
            )
        params = {}
        for item in _split_top_level(arg_text):
            key, sep, raw = item.partition("=")
            if not sep or not key.strip():
                raise ValueError(
                    f"bad detector spec {text!r}: expected key=value, got {item!r}"
                )
            try:
                value = ast.literal_eval(raw.strip())
            except (SyntaxError, ValueError):
                raise ValueError(
                    f"bad detector spec {text!r}: value for "
                    f"{key.strip()!r} is not a Python literal: {raw.strip()!r}"
                ) from None
            params[key.strip()] = value
        return cls.create(name.strip(), **params)

    @classmethod
    def from_json(cls, payload: Mapping) -> "DetectorSpec":
        """Inverse of :meth:`to_json`."""
        return cls.create(payload["name"], **payload.get("params", {}))

    def to_json(self) -> dict:
        """JSON-ready ``{"name": ..., "params": {...}}`` mapping."""
        return {"name": self.name, "params": dict(self.params)}

    @property
    def label(self) -> str:
        """Stable display key: ``name`` or ``name(k=v,...)``.

        Injective over specs (``repr`` keeps string quoting, so
        ``w=100`` and ``w='100'`` stay distinct) and parseable back via
        :meth:`parse`.
        """
        if not self.params:
            return self.name
        inner = ",".join(f"{key}={value!r}" for key, value in self.params)
        return f"{self.name}({inner})"

    @property
    def fingerprint(self) -> str:
        """SHA-256 of the canonical JSON form."""
        blob = json.dumps(self.to_json(), sort_keys=True, default=str)
        return hashlib.sha256(blob.encode()).hexdigest()

    def build(self) -> Detector:
        """Instantiate the detector this spec names."""
        return make_detector(self.name, **dict(self.params))


def _freeze(value):
    """Recursively turn lists into tuples so params stay hashable."""
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(item) for item in value)
    return value


def _split_top_level(text: str) -> list[str]:
    """Split on commas that are not nested inside brackets or quotes."""
    parts, depth, quote, current = [], 0, "", []
    for char in text:
        if quote:
            if char == quote:
                quote = ""
        elif char in "\"'":
            quote = char
        elif char in "([{":
            depth += 1
        elif char in ")]}":
            depth -= 1
        elif char == "," and depth == 0:
            part = "".join(current).strip()
            if part:
                parts.append(part)
            current = []
            continue
        current.append(char)
    tail = "".join(current).strip()
    if tail:
        parts.append(tail)
    return parts


def parse_detectors(text: str) -> list[DetectorSpec]:
    """Parse a comma-separated detector line-up into specs.

    Commas inside parameter lists do not split:
    ``"diff,matrix_profile(w=100,exclusion=50)"`` yields two specs.
    """
    return [DetectorSpec.parse(item) for item in _split_top_level(text)]
