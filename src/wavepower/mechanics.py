"""Linear wave theory kernel: dispersion solving and regular-wave power.

All functions broadcast over numpy arrays; scalars in, scalars out.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SolverError

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
# smallest positive normal float
_TINY = np.finfo(float).tiny


@dataclass(frozen=True)
class FluidEnvironment:
    """Water density (kg/m^3) and gravitational acceleration (m/s^2)."""

    rho: float = DEFAULT_RHO
    g: float = DEFAULT_G

    def __post_init__(self):
        if not 0 < self.rho < np.inf:
            raise DomainError(
                f"rho must be positive and finite, got {self.rho}")
        if not 0 < self.g < np.inf:
            raise DomainError(f"g must be positive and finite, got {self.g}")


def _positive_finite(x, zero_ok=False):
    """Whether every element of array x lies in (0, inf), or in [0, inf)
    with zero_ok; NaN does not. Two reductions and no temporary array,
    whatever the size of x."""
    if x.size == 0:
        return True
    low = x.min()
    return bool((low >= 0 if zero_ok else low > 0) and x.max() < np.inf)


def _transfer_factor(kd, th, out, tmp):
    """tanh(kd) * (1 + 2kd/sinh(2kd)) = th + kd*sech^2(kd), where
    th = tanh(kd), into out (tmp is a scratch array of the same shape).
    sech^2 is 4e/(1 + e)^2 with e = exp(-2kd), which underflows to 0
    cleanly in deep water; 1 - th^2 would cancel there."""
    np.multiply(kd, -2.0, out=out)
    np.exp(out, out=out)
    np.add(out, 1.0, out=tmp)
    np.multiply(tmp, tmp, out=tmp)
    np.multiply(out, 4.0, out=out)
    np.divide(out, tmp, out=out)
    np.multiply(out, kd, out=out)
    np.add(out, th, out=out)
    return out


def _normal_start(period, g):
    """Whether omega^2 = (2 pi/period)^2 and the Newton start omega^2/g,
    formed as _solve_by_blocks forms them, are finite normal floats. Both
    fall as the period grows, so the shortest and longest period of an
    array decide for all of it; Python floats overflow to inf and
    underflow to 0 without a warning."""
    omega = 2.0 * np.pi / period
    omega2 = omega * omega
    return _TINY <= omega2 < math.inf and _TINY <= omega2 / g < math.inf


def _solve_by_blocks(block_fn, arrays, g, max_iter):
    """Fill an array of the broadcast shape of `arrays` (period and depth
    first), or a float for 0-d inputs, taking them in C order in blocks
    of at most SOLVE_BLOCK elements. On each block, Newton iteration
    solves the dispersion relation for k and stops as soon as all of the
    block's elements are within DISPERSION_TOL; then block_fn(out, k, kd,
    th, tmp, *blocks) fills the block's out from k, kd = k*depth,
    th = tanh(kd) and a scratch array tmp. Each step runs in place in
    buffers reused from block to block.

    Period and depth must be positive and finite, and every period must
    give a finite normal omega^2 and omega^2/g (see _normal_start); the
    shortest and longest period are the ones taken for the first check."""
    period = arrays[0]
    ends = (period.min(), period.max()) if period.size else (1.0, 1.0)
    if not (0 < ends[0] and ends[1] < np.inf and _positive_finite(arrays[1])):
        raise DomainError("period and depth must be positive and finite")
    for t in map(float, ends):
        if not _normal_start(t, g):
            raise DomainError(f"period {t!r} s is out of range for g={g}: "
                              f"omega^2 = (2 pi/T)^2 or omega^2/g is not a "
                              f"finite normal float")
    if max_iter < 1:
        raise DomainError("max_iter must be at least 1")
    it = np.nditer([*arrays, None],
                   flags=["external_loop", "buffered", "zerosize_ok"],
                   op_flags=[["readonly"]] * len(arrays)
                   + [["writeonly", "allocate"]],
                   order="C", buffersize=SOLVE_BLOCK)
    with it:
        scratch = np.empty((7, min(it.itersize, SOLVE_BLOCK)))
        done_buf = np.empty(scratch.shape[1], dtype=bool)
        for *blocks, out in it:
            period, depth = blocks[:2]
            m = out.shape[0]
            omega2, k, kd, th, f, resid, step = (a[:m] for a in scratch)
            done = done_buf[:m]
            np.divide(2.0 * np.pi, period, out=omega2)
            np.multiply(omega2, omega2, out=omega2)
            np.divide(omega2, g, out=k)
            for _ in range(max_iter):
                np.multiply(k, depth, out=kd)
                np.tanh(kd, out=th)
                # f = omega^2 - g k tanh(kd)
                np.multiply(k, g, out=f)
                np.multiply(f, th, out=f)
                np.subtract(omega2, f, out=f)
                np.absolute(f, out=resid)
                np.divide(resid, omega2, out=resid)
                np.less_equal(resid, DISPERSION_TOL, out=done)
                if done.all():
                    break
                # f' = -g (th + kd sech^2(kd)) with sech^2 = 1 - th^2
                np.multiply(th, th, out=step)
                np.subtract(1.0, step, out=step)
                np.multiply(step, kd, out=step)
                np.add(step, th, out=step)
                np.multiply(step, g, out=step)
                np.divide(f, step, out=step)
                # k - f/f' = k + step; only elements not yet within
                # DISPERSION_TOL (done, negated in place) move
                np.logical_not(done, out=done)
                np.add(k, step, out=k, where=done)
            else:
                worst = float(resid.max())
                raise SolverError(
                    f"dispersion solve did not converge within "
                    f"{max_iter} iterations (worst relative residual "
                    f"{worst:.3e})", residual=worst)
            block_fn(out, k, kd, th, f, *blocks)
        out = it.operands[-1]
    return out if out.ndim else float(out)


def wavenumber(period, depth, g=DEFAULT_G, max_iter=DISPERSION_MAX_ITER):
    """Solve omega^2 = g*k*tanh(k*d) for k. Accepts arrays.

    Newton iteration from the deep-water guess k0 = omega^2/g; the
    residual is monotone in k so this converges for all physical inputs.
    Each step takes one tanh: with th = tanh(kd), the derivative of
    f = omega^2 - g*k*th is -g*(th + kd*(1 - th^2)), since
    sech^2 = 1 - tanh^2.
    Each element stops moving once its own relative residual is within
    DISPERSION_TOL, so an array gives the same bits as its elements solved
    one at a time.

    Arrays are validated whole, then solved over their broadcast shape in
    C order in blocks of at most SOLVE_BLOCK elements, each iterating
    only until its own elements have converged; the bits do not depend
    on the blocks. If a block has not converged within max_iter steps,
    SolverError is raised for the first such block, with the worst
    relative residual within that block.
    """
    period = np.asarray(period, dtype=float)
    depth = np.asarray(depth, dtype=float)
    return _solve_by_blocks(lambda out, k, *_: np.copyto(out, k),
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

    def power(out, k, kd, th, tmp, T, depth, H):
        _transfer_factor(kd, th, out, tmp)
        # rho g^2 H^2 T / (32 pi), then times the factor
        np.square(H, out=tmp)
        np.multiply(tmp, env.rho * env.g ** 2, out=tmp)
        np.multiply(tmp, T, out=tmp)
        np.divide(tmp, 32.0 * np.pi, out=tmp)
        np.multiply(out, tmp, out=out)

    return _solve_by_blocks(power, (T, depth, H), env.g, DISPERSION_MAX_ITER)
