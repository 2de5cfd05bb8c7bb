"""Site scoring against the optimizer's reference point.

Each site is a (mean height, mean period, depth) feature vector; sites
are ranked by Euclidean distance to the reference (optionally after
min-max scaling, since raw units let depth dominate) with Pearson
correlation as the first tie-breaker.
"""

from dataclasses import dataclass, replace

import numpy as np

from .errors import DataError, DomainError, ScalingError

NORM_RAW = "raw"
NORM_MINMAX = "minmax"

DIMENSION_NAMES = ("H", "T", "d")


@dataclass(frozen=True)
class OptimalReference:
    """Power-maximizing (height, period, depth) used as ranking yardstick."""

    h_opt: float
    t_opt: float
    d_opt: float

    def __post_init__(self):
        if not all(0 < x < np.inf
                   for x in (self.h_opt, self.t_opt, self.d_opt)):
            raise DomainError("reference components must be positive "
                              "and finite")

    def as_array(self):
        return np.array([self.h_opt, self.t_opt, self.d_opt])


@dataclass(frozen=True)
class PointFeatures:
    """Per-site time-averaged wave height/period plus local depth."""

    point_id: str
    zone: str
    h_bar: float
    t_bar: float
    depth: float

    def __post_init__(self):
        if not 0 < self.depth < np.inf:
            raise DomainError(
                f"{self.point_id}: depth must be positive and finite")
        if not (0 <= self.h_bar < np.inf and 0 < self.t_bar < np.inf):
            raise DomainError(f"{self.point_id}: invalid mean wave state")

    def as_array(self):
        return np.array([self.h_bar, self.t_bar, self.depth])


@dataclass(frozen=True)
class SiteAssessment:
    """Scored site; rank is assigned by rank_points."""

    point_id: str
    zone: str
    h_bar: float
    t_bar: float
    depth: float
    power_irregular: float
    power_regular: float
    norm: float
    correlation: float
    rank: int = 0


def deviation_norm(features, ref, mode=NORM_RAW, ranges=None):
    """Euclidean distance between a site's features and the reference.

    In minmax mode each dimension is mapped affinely to [0, 1] using the
    (min, max) `ranges` of the assessed set; the reference is mapped with
    the same transform.
    """
    x = features.as_array()
    r = ref.as_array()
    if mode == NORM_RAW:
        return float(np.linalg.norm(x - r))
    if mode != NORM_MINMAX:
        raise DomainError(f"unknown norm mode {mode!r}")
    if ranges is None:
        raise ScalingError("minmax mode needs per-dimension ranges")
    lo = np.array([p[0] for p in ranges], dtype=float)
    hi = np.array([p[1] for p in ranges], dtype=float)
    span = hi - lo
    for i, name in enumerate(DIMENSION_NAMES):
        if span[i] <= 0:
            raise ScalingError(
                f"degenerate range for dimension {name}", dimension=name)
    return float(np.linalg.norm((x - lo) / span - (r - lo) / span))


def correlation_score(features, ref):
    """Pearson correlation of the (H, T, d) vector with the reference."""
    x = features.as_array()
    r = ref.as_array()
    if np.ptp(x) == 0 or np.ptp(r) == 0:
        raise DomainError("correlation undefined for a constant vector")
    return float(np.corrcoef(x, r)[0, 1])


def feature_ranges(features_list):
    """Per-dimension (min, max) over an assessed set, for minmax scaling."""
    arr = np.array([f.as_array() for f in features_list])
    return tuple((float(lo), float(hi))
                 for lo, hi in zip(arr.min(axis=0), arr.max(axis=0)))


def rank_points(assessed):
    """Order assessments: ascending norm, then descending correlation,
    then descending irregular power, then point id. Ranks are 1-based."""
    if not assessed:
        raise DataError("nothing to rank")
    ordered = sorted(assessed, key=lambda s: (
        s.norm, -s.correlation, -s.power_irregular, s.point_id))
    return [replace(s, rank=i + 1) for i, s in enumerate(ordered)]


def zone_shares(powers_by_zone):
    """Fraction of the grand total contributed by each zone."""
    totals = {zone: float(np.sum(np.asarray(list(p), dtype=float)))
              for zone, p in powers_by_zone.items()}
    grand = sum(totals.values())
    if grand <= 0:
        raise DomainError("total power must be positive")
    return {zone: t / grand for zone, t in totals.items()}
