"""Seedable box-constrained Grey Wolf Optimizer (maximization).

Alpha/beta/delta are the three best-ever evaluations (elitist memory),
updated synchronously once per iteration; the pack moves as one array
and is clamped to the bounds after each move. The random numbers of a
move come in a fixed documented order (agent, then r1 before r2, then
leader, then dimension), so runs are bit-reproducible; the optimizer
draws those of many iterations at once, as one block of the same stream.

The objective sees the whole pack at once: one call per iteration on an
array of shape (ndim, agents), so x[0] holds every agent's first
coordinate, and it returns one value per agent, shape (agents,). An
objective that indexes the first axis and computes elementwise, such
as `lambda x: regular_wave_power(*x)`, serves one position (ndim,) and
the pack alike; a reduction must name the axis (`np.sum(x, axis=0)`).
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

# Doubles per random draw of gwo_maximize: a draw covers as many
# iterations as fit, and at least one.
_DRAW_BLOCK = 2 ** 14
# Largest bound magnitude M: with every |x| <= M a move's sum of three
# terms stays within 21 M and the first draw's span within 2 M, so the
# optimizer's own arithmetic never overflows.
BOUND_LIMIT = float(np.finfo(float).max) / 32


# eq=False: its array fields make == ambiguous, so compare by identity
@dataclass(frozen=True, eq=False)
class SearchBounds:
    """Per-dimension (lower, upper) box within +-BOUND_LIMIT."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lower", np.asarray(self.lower, dtype=float))
        object.__setattr__(self, "upper", np.asarray(self.upper, dtype=float))
        if self.lower.ndim != 1 or self.lower.shape != self.upper.shape:
            raise DomainError("lower and upper must be matching 1-D arrays")
        if self.lower.size < 1:
            raise DomainError("need at least one dimension")
        if not np.all(np.abs([self.lower, self.upper]) <= BOUND_LIMIT):
            raise DomainError(f"every bound must be finite and at most "
                              f"{BOUND_LIMIT!r} in magnitude")
        if np.any(self.lower >= self.upper):
            raise DomainError("every lower bound must be below its upper bound")

    @property
    def ndim(self):
        return self.lower.size


@dataclass(frozen=True)
class GwoConfig:
    """Optimizer settings; agents >= 4 (three leaders plus followers)."""

    agents: int = 10
    max_iter: int = 200
    seed: int = 0

    def __post_init__(self):
        if self.agents < 4:
            raise DomainError("need at least 4 agents")
        if self.max_iter < 1:
            raise DomainError("max_iter must be >= 1")


# eq=False: its array fields make == ambiguous, so compare by identity
@dataclass(frozen=True, eq=False)
class GwoRun:
    """Result of one optimizer run."""

    best_position: np.ndarray
    best_value: float
    convergence: np.ndarray  # best-so-far after each iteration
    evaluations: int


def a_schedule(iteration, max_iter):
    """Exploration parameter a(t) = 2 - 2t/T (Mirjalili et al. 2014),
    linear from 2 at iteration 0 to 0 at max_iter. `iteration` is an int
    or an integer array; an array has the bits of its elements' calls."""
    t = np.asarray(iteration)
    outside = (t < 0) | (t > max_iter)
    if np.any(outside):
        raise DomainError(f"iteration {t[outside][0]} outside [0, {max_iter}]")
    return 2.0 - iteration * (2.0 / max_iter)


def _move(x, L, A, C):
    """The positions (..., ndim) x moved toward the leaders L (3, ndim)
    with coefficients A = 2a*r1 - a and C = 2*r2 (..., 3, ndim): the
    mean of the three L - A*|C*L - x|, as np.mean forms it, their sum
    over 3."""
    D = np.abs(C * L - x[..., None, :])
    return np.add.reduce(L - A * D, -2) / 3.0


def gwo_maximize(objective, bounds, cfg=None):
    """Maximize `objective` over the bounds box.

    Each iteration calls `objective` once on the pack transposed, shape
    (ndim, agents), and expects one finite value per agent, shape
    (agents,); any other shape is a DomainError, and so is a non-finite
    value, naming the first such agent in pack order. It then updates the
    alpha/beta/delta trio (the three best evaluations so far, the earlier
    one first on ties) once, and moves and clamps the whole pack. The
    convergence curve holds the best-so-far value after each iteration.
    Agents or iterations too many for numpy to size the arrays are a
    DomainError.
    """
    cfg = cfg or GwoConfig()
    n = cfg.agents
    # numpy refuses with a ValueError an array of more bytes than an intp
    # holds; the largest arrays here are the convergence curve and a draw
    # block of at least 6 * n * ndim doubles. A smaller one that does not
    # fit in memory raises MemoryError.
    if max(6 * n * bounds.ndim, cfg.max_iter) > np.iinfo(np.intp).max // 8:
        raise DomainError(f"{n} agents and {cfg.max_iter} iterations need "
                          f"an array larger than numpy can size")
    rng = np.random.default_rng(cfg.seed)
    pos = rng.uniform(bounds.lower, bounds.upper, size=(n, bounds.ndim))
    # rows 0-2 hold the trio, the rest this iteration's pack; neg holds
    # their values negated, so that a stable sort ranks them best first
    # and the earlier one first on ties. The trio starts at -inf, below
    # every finite value, so the first sort takes three agents.
    wolves = np.empty((3 + n, bounds.ndim))
    neg = np.full(3 + n, np.inf)
    convergence = np.empty(cfg.max_iter)

    # the draws of `block` iterations at a time, in one call on the
    # stream: per iteration one (agents, 2, 3, ndim) slab, r1 before r2
    block = max(1, _DRAW_BLOCK // (n * 6 * bounds.ndim))
    for start in range(0, cfg.max_iter, block):
        stop = min(start + block, cfg.max_iter)
        r = rng.random((stop - start, n, 2, 3, bounds.ndim))
        a = a_schedule(np.arange(start, stop),
                       cfg.max_iter)[:, None, None, None]
        A = 2.0 * a * r[:, :, 0] - a
        C = 2.0 * r[:, :, 1]
        for it, A_it, C_it in zip(range(start, stop), A, C):
            values = np.asarray(objective(pos.T), dtype=float)
            if values.shape != (n,):
                raise DomainError(f"objective returned shape "
                                  f"{values.shape}, expected ({n},)")
            finite = np.isfinite(values)
            if np.count_nonzero(finite) < n:
                i = np.flatnonzero(~finite)[0]
                raise DomainError(f"objective returned {values[i]} at "
                                  f"{pos[i].tolist()}")
            np.negative(values, neg[3:])
            wolves[3:] = pos
            top = neg.argsort(kind="stable")[:3]
            neg[:3] = neg[top]
            wolves[:3] = wolves[top]
            convergence[it] = -neg[0]

            # np.clip's bits for finite positions, without its overhead
            pos = np.minimum(np.maximum(
                _move(pos, wolves[:3], A_it, C_it), bounds.lower),
                bounds.upper)

    return GwoRun(best_position=wolves[0].copy(), best_value=float(-neg[0]),
                  convergence=convergence,
                  evaluations=cfg.agents * cfg.max_iter)
