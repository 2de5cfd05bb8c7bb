"""Site scoring against the optimizer's reference point.

Each site is a (mean height, mean period, depth) row; sites are ranked
by Euclidean distance to the reference (optionally after min-max
scaling, since raw units let depth dominate) with Pearson correlation
as the first tie-breaker.
"""

import numpy as np

# the reference type lives with reference.csv's loader; it is this
# module's yardstick, so its name stays importable here
from .data_io import DIMENSION_NAMES, OptimalReference  # noqa: F401
from .errors import DataError, DomainError, ScalingError

NORM_RAW = "raw"
NORM_MINMAX = "minmax"


def deviation_norm(row, ref, mode=NORM_RAW, ranges=None):
    """Euclidean distance between a site's (H, T, d) row and the reference.

    In minmax mode each dimension is mapped affinely to [0, 1] using the
    (min, max) `ranges` of the assessed set, one pair per dimension; the
    reference is mapped with the same transform.
    """
    x = np.asarray(row, dtype=float)
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


def correlation_score(row, ref):
    """Pearson correlation of a site's (H, T, d) row with the reference."""
    x = np.asarray(row, dtype=float)
    r = ref.as_array()
    if np.ptp(x) == 0 or np.ptp(r) == 0:
        raise DomainError("correlation undefined for a constant vector")
    return float(np.corrcoef(x, r)[0, 1])


def rank_points(assessed):
    """A results array ordered by ascending norm, then descending
    correlation, then descending irregular power, then point id, with its
    1-based ranks set; a copy, in rank order."""
    if not len(assessed):
        raise DataError("nothing to rank")
    keys = list(zip(assessed["norm"].tolist(),
                    (-assessed["correlation"]).tolist(),
                    (-assessed["power_irregular_wpm"]).tolist(),
                    assessed["point"].tolist()))
    ranked = assessed[sorted(range(len(keys)), key=keys.__getitem__)]
    ranked["rank"] = np.arange(1, len(ranked) + 1)
    return ranked


def zone_shares(powers_by_zone):
    """Fraction of the grand total contributed by each zone."""
    totals = {zone: float(np.sum(np.asarray(list(p), dtype=float)))
              for zone, p in powers_by_zone.items()}
    grand = sum(totals.values())
    if grand <= 0:
        raise DomainError("total power must be positive")
    return {zone: t / grand for zone, t in totals.items()}
