"""Site scoring against the optimizer's reference point.

Each site is a (mean height, mean period, depth) row; sites are ranked
by Euclidean distance to the reference (optionally after min-max
scaling, since raw units let depth dominate) with Pearson correlation
as the first tie-breaker. Both scores take every row at once and score
each with numpy's own per-row form, np.linalg.norm or np.corrcoef.
"""

import numpy as np

from .data_io import DIMENSION_NAMES
from .errors import DataError, DomainError

NORM_RAW = "raw"
NORM_MINMAX = "minmax"


def deviation_norm(vectors, ref, mode=NORM_RAW):
    """Euclidean distance of each (H, T, d) row of the (n, 3) `vectors` to
    the (3,) `ref`, np.linalg.norm of their difference. In minmax
    mode each dimension is first mapped affinely to [0, 1] by its min and
    max in `vectors`, the reference by the same map; DomainError, naming
    the dimension, where they are equal."""
    x = np.asarray(vectors, dtype=float)
    r = np.asarray(ref, dtype=float)
    if mode == NORM_MINMAX:
        lo = x.min(axis=0)
        span = x.max(axis=0) - lo
        for name, s in zip(DIMENSION_NAMES, span.tolist()):
            if s <= 0:
                raise DomainError(f"degenerate range for dimension {name}")
        x, r = (x - lo) / span, (r - lo) / span
    elif mode != NORM_RAW:
        raise DomainError(f"unknown norm mode {mode!r}")
    return np.array([np.linalg.norm(row - r) for row in x], dtype=float)


def correlation_score(vectors, ref):
    """Pearson correlation of each (H, T, d) row of the (n, 3) `vectors`
    with the (3,) reference `ref`: np.corrcoef(row, ref)[0, 1].
    DomainError if a row or the reference is constant."""
    x = np.asarray(vectors, dtype=float)
    r = np.asarray(ref, dtype=float)
    if np.ptp(r) == 0 or (np.ptp(x, axis=1) == 0).any():
        raise DomainError("correlation undefined for a constant vector")
    return np.array([np.corrcoef(row, r)[0, 1] for row in x], dtype=float)


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
