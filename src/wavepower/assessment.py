"""Site scoring against the optimizer's reference point.

Each site is a (mean height, mean period, depth) row; sites are ranked
by Euclidean distance to the reference (optionally after min-max
scaling, since raw units let depth dominate) with Pearson correlation
as the first tie-breaker. Both scores take every row at once, by the
steps numpy's per-row forms take, so with their bits.
"""

import numpy as np

from .data_io import DIMENSION_NAMES
from .errors import DataError, DomainError

NORM_RAW = "raw"
NORM_MINMAX = "minmax"


def deviation_norm(vectors, ref, mode=NORM_RAW):
    """Euclidean distance of each (H, T, d) row of the (n, 3) `vectors` to
    the (3,) `ref`, as np.linalg.norm takes it: sqrt(dot(x, x)). In minmax
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
    diff = x - r
    # each row's dot with itself, through the dot that np.linalg.norm calls
    return np.sqrt(np.matmul(diff[:, None, :], diff[:, :, None]))[:, 0, 0]


def correlation_score(vectors, ref):
    """Pearson correlation of each (H, T, d) row of the (n, 3) `vectors`
    with the (3,) reference `ref`: np.corrcoef(row, ref)[0, 1], by the
    steps np.cov and np.corrcoef take. DomainError if a row or the
    reference is constant."""
    x = np.asarray(vectors, dtype=float)
    r = np.asarray(ref, dtype=float)
    if np.ptp(r) == 0 or (np.ptp(x, axis=1) == 0).any():
        raise DomainError("correlation undefined for a constant vector")
    # np.cov: each (row, ref) pair centred, times its transpose, over 3 - 1
    pair = np.stack([x, np.broadcast_to(r, x.shape)], axis=1)
    pair -= pair.mean(axis=-1, keepdims=True)
    c = np.matmul(pair, pair.transpose(0, 2, 1))
    c *= np.true_divide(1, 2)
    # np.corrcoef: over the standard deviations, rows then columns
    std = np.sqrt(np.diagonal(c, axis1=1, axis2=2))
    c /= std[:, :, None]
    c /= std[:, None, :]
    return np.clip(c[:, 0, 1], -1, 1)


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
