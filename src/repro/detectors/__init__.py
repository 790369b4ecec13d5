"""Anomaly detectors: trivial baselines through discords and forecasters."""

from .base import Detector
from .baselines import (
    ConstantRunDetector,
    DiffDetector,
    MovingStdDetector,
    MovingZScoreDetector,
    NaiveLastPointDetector,
    OneLinerDetector,
    RandomScoreDetector,
)
from .knn import KnnDistanceDetector
from .matrix_profile import (
    ApproxReport,
    MatrixProfileDetector,
    MatrixProfileResult,
    bind_cell_thread,
    default_kernel_jobs,
    discord_search,
    discords,
    matrix_profile,
    moving_mean_std,
    set_default_kernel_jobs,
    sliding_dot_products,
    subsequence_to_point_scores,
)
from .merlin import MerlinDetector, MerlinResult, merlin
from .parallel import plan_shards
from .reference import naive_profile, stomp_profile
from .sliding import SlidingStats, chunk_spans, sliding_max, sliding_min
from .registry import (
    DETECTORS,
    DetectorSpec,
    available_detectors,
    make_detector,
    parse_detectors,
)
from .stats import CusumDetector, EwmaDetector
from .telemanom import (
    ARForecaster,
    TelemanomDetector,
    dynamic_threshold,
    prune_anomalies,
)

__all__ = [
    "Detector",
    "DiffDetector",
    "MovingZScoreDetector",
    "MovingStdDetector",
    "ConstantRunDetector",
    "NaiveLastPointDetector",
    "RandomScoreDetector",
    "OneLinerDetector",
    "CusumDetector",
    "EwmaDetector",
    "matrix_profile",
    "MatrixProfileResult",
    "MatrixProfileDetector",
    "ApproxReport",
    "plan_shards",
    "discord_search",
    "discords",
    "moving_mean_std",
    "sliding_dot_products",
    "subsequence_to_point_scores",
    "SlidingStats",
    "chunk_spans",
    "sliding_max",
    "sliding_min",
    "set_default_kernel_jobs",
    "default_kernel_jobs",
    "bind_cell_thread",
    "naive_profile",
    "stomp_profile",
    "merlin",
    "MerlinResult",
    "MerlinDetector",
    "ARForecaster",
    "TelemanomDetector",
    "dynamic_threshold",
    "prune_anomalies",
    "KnnDistanceDetector",
    "DETECTORS",
    "DetectorSpec",
    "make_detector",
    "available_detectors",
    "parse_detectors",
]
