"""Linear wave theory kernel: dispersion solving and regular-wave power.

All functions broadcast over numpy arrays; scalars in, scalars out.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SolverError, _positive_finite

# Defaults are configurable: Caspian water is brackish (~1010 kg/m^3),
# open-ocean conventions use 1025.
DEFAULT_RHO = 1025.0
DEFAULT_G = 9.81

DISPERSION_TOL = 1e-12
DISPERSION_MAX_ITER = 50
# Elements per block of a batched dispersion solve. A block's seven float
# buffers (128 KiB each) stay in a core's cache, where the 8 MB
# temporaries of an unblocked 10^6-point solve streamed through memory.
SOLVE_BLOCK = 16384
# smallest block that retires its converged elements from Newton steps
RETIRE_FLOOR = 1024
# smallest positive normal float
_TINY = float(np.finfo(float).tiny)
_G_MAX = math.sqrt(float(np.finfo(float).max))  # largest g with finite g**2


@dataclass(frozen=True)
class FluidEnvironment:
    """Water density (kg/m^3) and gravitational acceleration (m/s^2)."""

    rho: float = DEFAULT_RHO
    g: float = DEFAULT_G

    def __post_init__(self):
        if not 0 < self.rho < np.inf:
            raise DomainError(
                f"rho must be positive and finite, got {self.rho}")
        if not 0 < self.g <= _G_MAX:
            raise DomainError(f"g must be positive and finite, as must g**2, "
                              f"got {self.g}")


def _transfer_factor(kd, th, out, tmp):
    """tanh(kd) * (1 + 2kd/sinh(2kd)) = th + kd*sech^2(kd), where
    th = tanh(kd), into out (tmp is a scratch array of the same shape).
    sech^2 is 4e/(1 + e)^2 with e = exp(-2kd), which underflows to 0
    cleanly in deep water; 1 - th^2 would cancel there."""
    np.multiply(kd, -2.0, out)
    np.exp(out, out)
    np.add(out, 1.0, tmp)
    np.multiply(tmp, tmp, tmp)
    np.multiply(out, 4.0, out)
    np.divide(out, tmp, out)
    np.multiply(out, kd, out)
    np.add(out, th, out)
    return out


def _normal(x):
    """Whether float x is a finite normal float."""
    return _TINY <= x < math.inf


def _check_starts(period, depth, g):
    """Raise DomainError for the first (period, depth) pair in C order
    whose Newton start y = omega^2 d/g, formed as _solve_by_blocks forms
    it, is not a finite normal float."""
    period, depth = np.broadcast_arrays(period, depth)
    with np.errstate(over="ignore"):
        omega = 2.0 * np.pi / period
        y = omega * omega / g * depth
    bad = np.flatnonzero(~((y >= _TINY) & (y < np.inf)))
    if bad.size:
        t, d = float(period.flat[bad[0]]), float(depth.flat[bad[0]])
        raise DomainError(f"period {t!r} s and depth {d!r} m are out of "
                          f"range for g={g}: omega^2 d/g is not a finite "
                          f"normal float")


def _solve_block(block_fn, blocks, out, scratch, done, g, max_iter):
    """Solve the dispersion relation on one block. `blocks` (period and
    depth first) broadcast to the shape of out; scratch holds six rows of
    that shape, contiguous, and done is a bool array of it. Newton
    iteration in x = kd on y = x*tanh(x), y = omega^2 d/g, runs in place
    in the scratch rows and stops as soon as all of the block's elements
    are within DISPERSION_TOL; then block_fn(out, kd, th, tmp, *blocks)
    fills out from kd, th = tanh(kd) and a scratch row tmp. A block of
    RETIRE_FLOOR elements or more, at the first check that finds three
    quarters of them converged, gathers the rest from flat views of the
    rows and iterates only those, then scatters them back."""
    period, depth = blocks[:2]
    m = out.size
    y, tol, x, th, f, step = (scratch[i, ...] for i in range(6))
    # y = omega^2/g * d, which is also the start x0: the deep-water
    # k0 = omega^2/g times d
    np.divide(2.0 * np.pi, period, y)
    np.multiply(y, y, y)
    np.divide(y, g, y)
    np.multiply(y, depth, y)
    np.multiply(y, DISPERSION_TOL, tol)
    np.copyto(x, y)
    live = None
    for _ in range(max_iter):
        np.tanh(x, th)
        # f = y - x tanh(x)
        np.multiply(x, th, f)
        np.subtract(y, f, f)
        np.absolute(f, step)
        np.less_equal(step, tol, done)
        left = done.size - np.count_nonzero(done)
        if not left:
            break
        if m >= RETIRE_FLOOR and live is None and 4 * left <= m:
            live = np.flatnonzero(~done)
            y, tol, x, th, f = (r.reshape(m)[live] for r in (y, tol, x, th, f))
            step, done = np.empty(left), np.zeros(left, dtype=bool)
        # f' = -(th + x sech^2(x)) with sech^2 = 1 - th^2
        np.multiply(th, th, step)
        np.subtract(1.0, step, step)
        np.multiply(step, x, step)
        np.add(step, th, step)
        np.divide(f, step, step)
        # x - f/f' = x + step; only elements not yet within
        # DISPERSION_TOL (done, negated in place) move
        np.logical_not(done, done)
        np.add(x, step, x, where=done)
    if live is not None:
        for r, a in zip(scratch[2:5], (x, th, f)):
            r.reshape(m)[live] = a
        y, tol, x, th, f, step = scratch
    if left:
        residual = np.absolute(f) / y
        i = int(np.argmax(residual))
        worst = float(residual.flat[i])
        t, d = (float(np.broadcast_to(a, out.shape).flat[i])
                for a in (period, depth))
        raise SolverError(
            f"dispersion solve did not converge within {max_iter} "
            f"iterations for period {t!r} s and depth {d!r} m at g={g} "
            f"(worst relative residual {worst:.3e})", residual=worst)
    block_fn(out, x, th, f, *blocks)


def _solve_by_blocks(block_fn, arrays, g, max_iter):
    """Fill an array of the broadcast shape of `arrays` (period and depth
    first), or a float for 0-d inputs, by _solve_block(block_fn, ...).
    Up to SOLVE_BLOCK elements are one block of the broadcast shape
    itself; larger inputs are taken in C order in blocks of at most
    SOLVE_BLOCK elements, with buffers reused from block to block.

    Period and depth must be positive and finite, and the depth normal,
    so that k = x/d stays finite; every period must give a finite normal
    omega^2 = (2 pi/T)^2 and omega^2/g, and every pair a finite normal y.
    All three fall as the period grows and y rises with the depth, so
    the extremes of period and depth decide for all pairs; only when
    they fail is y formed per pair, to find one that fails. Python
    floats overflow to inf and underflow to 0 without a warning."""
    period, depth = arrays[:2]
    periods, depths = _positive_finite(period), _positive_finite(depth)
    if not (periods and depths and _TINY <= depths[0]):
        raise DomainError(f"period and depth must be positive and finite "
                          f"(depth at least {_TINY!r} m)")
    (t_lo, t_hi), (d_lo, d_hi) = map(float, periods), map(float, depths)
    k0 = []
    for t in (t_lo, t_hi):
        omega = 2.0 * np.pi / t
        omega2 = omega * omega
        if not (_normal(omega2) and _normal(omega2 / g)):
            raise DomainError(f"period {t!r} s is out of range for g={g}: "
                              f"omega^2 = (2 pi/T)^2 or omega^2/g is not a "
                              f"finite normal float")
        k0.append(omega2 / g)
    if not (_normal(k0[0] * d_hi) and _normal(k0[1] * d_lo)):
        _check_starts(period, depth, g)
    if max_iter < 1:
        raise DomainError("max_iter must be at least 1")
    shape = np.broadcast(*arrays).shape
    if math.prod(shape) <= SOLVE_BLOCK:
        out = np.empty(shape)
        _solve_block(block_fn, arrays, out, np.empty((6, *shape)),
                     np.empty(shape, dtype=bool), g, max_iter)
        return out if out.ndim else float(out)
    it = np.nditer([*arrays, None],
                   flags=["external_loop", "buffered"],
                   op_flags=[["readonly"]] * len(arrays)
                   + [["writeonly", "allocate"]],
                   order="C", buffersize=SOLVE_BLOCK)
    with it:
        scratch = np.empty((6, SOLVE_BLOCK))
        done = np.empty(SOLVE_BLOCK, dtype=bool)
        for *blocks, out in it:
            m = out.shape[0]
            _solve_block(block_fn, blocks, out, scratch[:, :m], done[:m], g,
                         max_iter)
        return it.operands[-1]


def wavenumber(period, depth, g=DEFAULT_G, max_iter=DISPERSION_MAX_ITER):
    """Solve omega^2 = g*k*tanh(k*d) for k. Accepts arrays.

    Newton iteration runs in x = kd on y = x*tanh(x), y = omega^2 d/g,
    from the deep-water guess x0 = y (k0 = omega^2/g); x*tanh(x) is
    convex and increasing, so this converges for all physical inputs.
    Each step takes one tanh: with th = tanh(x), the derivative of
    f = y - x*th is -(th + x*(1 - th^2)), since sech^2 = 1 - tanh^2.
    An element is within DISPERSION_TOL when |y - x*th| <= DISPERSION_TOL*y,
    and k = x/d is formed once at the end.
    Each element stops moving once its own relative residual is within
    DISPERSION_TOL, so an array gives the same bits as its elements solved
    one at a time; a block of RETIRE_FLOOR elements or more drops its
    converged elements from the steps once three quarters have converged.

    Arrays are validated whole, then solved over their broadcast shape in
    C order in blocks of at most SOLVE_BLOCK elements, each iterating
    only until its own elements have converged; the bits do not depend
    on the blocks. A pair whose omega^2, omega^2/g or y is not a finite
    normal float raises DomainError before any Newton step. If a block
    has not converged within max_iter steps, SolverError is raised for
    the first such block, with the worst relative residual within that
    block, and the message names that element's period and depth, and g.
    """
    period = np.asarray(period, dtype=float)
    depth = np.asarray(depth, dtype=float)
    return _solve_by_blocks(
        lambda out, kd, th, tmp, period, depth: np.divide(kd, depth, out),
        (period, depth), g, max_iter)


def power_transfer_factor(kd):
    """Depth factor tanh(kd) * (1 + 2kd/sinh(2kd)).

    Tends to 1 in deep water, 2kd in shallow water, with an interior
    maximum of about 1.200 near kd = 1.19. It equals d(k tanh kd)/dk
    = tanh(kd) + kd*sech^2(kd), which is how it is computed: one tanh
    and one exp, since sech^2(kd) = 4e/(1 + e)^2 with e = exp(-2kd).
    That form underflows to 0 cleanly in deep water, where 1 - tanh^2
    would cancel and sinh would overflow.
    """
    kd = np.asarray(kd, dtype=float)
    if not _positive_finite(kd):
        raise DomainError("kd must be positive and finite")
    out = _transfer_factor(kd, np.tanh(kd), np.empty_like(kd),
                           np.empty_like(kd))
    return out if out.ndim else float(out)


def regular_wave_power(H, T, depth, env=None):
    """Mean power per crest width (W/m) of a regular wave train.

    rho*g^2*H^2*T/(32*pi) scaled by the depth transfer factor at k*depth.
    H is whatever height the caller supplies (time-averaged height in
    the assessment pipeline); no conversion is applied here.

    H, T and depth are validated whole, then evaluated in the blocks of
    wavenumber, solving k and forming the power of one block before the
    next; each element has the bits of its own scalar call. The transfer
    factor, as in power_transfer_factor, is formed from the kd and
    tanh(kd) of the solve's final convergence check, so it takes no
    second tanh. A SolverError carries the worst relative residual of the
    first block that failed to converge.
    """
    env = env or FluidEnvironment()
    H = np.asarray(H, dtype=float)
    T = np.asarray(T, dtype=float)
    depth = np.asarray(depth, dtype=float)
    if not _positive_finite(H, zero_ok=True):
        raise DomainError("H must be non-negative and finite")

    def power(out, kd, th, tmp, T, depth, H):
        _transfer_factor(kd, th, out, tmp)
        # rho g^2 H^2 T / (32 pi), then times the factor
        np.square(H, tmp)
        np.multiply(tmp, env.rho * env.g ** 2, tmp)
        np.multiply(tmp, T, tmp)
        np.divide(tmp, 32.0 * np.pi, tmp)
        np.multiply(out, tmp, out)

    return _solve_by_blocks(power, (T, depth, H), env.g, DISPERSION_MAX_ITER)
