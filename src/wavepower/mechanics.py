"""Linear wave theory kernel: dispersion solving and regular-wave power.

All functions broadcast over numpy arrays; scalars in, scalars out.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SolverError

# Defaults are configurable: Caspian water is brackish (~1010 kg/m^3),
# open-ocean conventions use 1025.
DEFAULT_RHO = 1025.0
DEFAULT_G = 9.81

DISPERSION_TOL = 1e-12
DISPERSION_MAX_ITER = 50
# Elements per block of a batched dispersion solve. A block's dozen float
# temporaries (128 KiB each) stay in a core's cache, where the 8 MB ones
# of an unblocked 10^6-point solve streamed through memory.
SOLVE_BLOCK = 16384


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


@dataclass(frozen=True)
class DispersionSolution:
    """Wave number and derived kinematic quantities for one (T, d) pair."""

    k: float            # wave number, rad/m
    kd: float           # dimensionless depth parameter k*d
    celerity: float     # phase speed C = omega/k, m/s
    group_factor: float  # n = Cg/C in [0.5, 1]
    group_velocity: float  # Cg = n*C, m/s


def _positive_finite(x, zero_ok=False):
    """Whether every element of array x lies in (0, inf), or in [0, inf)
    with zero_ok; NaN does not. Two reductions and no temporary array,
    whatever the size of x."""
    if x.size == 0:
        return True
    low = x.min()
    return bool((low >= 0 if zero_ok else low > 0) and x.max() < np.inf)


def _group_factor(kd):
    # n = 0.5 * (1 + 2kd / sinh(2kd)); the ratio underflows cleanly for
    # large kd where sinh overflows.
    with np.errstate(over="ignore"):
        ratio = np.where(kd > 350.0, 0.0, 2.0 * kd / np.sinh(2.0 * kd))
    return 0.5 * (1.0 + ratio)


def _solve_by_blocks(block_fn, arrays, g, tol, max_iter):
    """block_fn(k, *blocks) over the broadcast arrays (period and depth
    first), taken in C order in blocks of at most SOLVE_BLOCK elements,
    where k solves the dispersion relation on the block; an array of the
    broadcast shape, or a float for 0-d inputs. Newton iteration stops
    for each block as soon as all of its elements are within tol."""
    if not (_positive_finite(arrays[0]) and _positive_finite(arrays[1])):
        raise DomainError("period and depth must be positive and finite")
    if tol <= 0:
        raise DomainError("tol must be positive")
    if max_iter < 1:
        raise DomainError("max_iter must be at least 1")
    it = np.nditer([*arrays, None],
                   flags=["external_loop", "buffered", "zerosize_ok"],
                   op_flags=[["readonly"]] * len(arrays)
                   + [["writeonly", "allocate"]],
                   order="C", buffersize=SOLVE_BLOCK)
    with it:
        for *blocks, out in it:
            period, depth = blocks[:2]
            omega = 2.0 * np.pi / period
            omega2 = omega * omega
            k = omega2 / g
            with np.errstate(over="ignore"):
                for _ in range(max_iter):
                    kd = k * depth
                    th = np.tanh(kd)
                    f = omega2 - g * k * th
                    resid = np.abs(f) / omega2
                    done = resid <= tol
                    if np.all(done):
                        break
                    fprime = -g * (th + kd * np.where(  # kd * sech^2(kd)
                        kd > 350.0, 0.0, 1.0 / np.cosh(kd) ** 2))
                    # only elements not yet within tol move
                    np.subtract(k, f / fprime, out=k, where=~done)
                else:
                    raise SolverError(
                        f"dispersion solve did not converge within "
                        f"{max_iter} iterations (worst relative residual "
                        f"{float(np.max(resid)):.3e})",
                        residual=float(np.max(resid)),
                    )
            out[...] = block_fn(k, *blocks)
        out = it.operands[-1]
    return out if out.ndim else float(out)


def wavenumber(period, depth, g=DEFAULT_G, tol=DISPERSION_TOL,
               max_iter=DISPERSION_MAX_ITER):
    """Solve omega^2 = g*k*tanh(k*d) for k. Accepts arrays.

    Newton iteration from the deep-water guess k0 = omega^2/g; the
    residual is monotone in k so this converges for all physical inputs.
    Each element stops moving once its own residual is within tol, so an
    array gives the same bits as its elements solved one at a time.

    Arrays are validated whole, then solved over their broadcast shape in
    C order in blocks of at most SOLVE_BLOCK elements, each iterating
    only until its own elements have converged; the bits do not depend
    on the blocks. If a block has not converged within max_iter steps,
    SolverError is raised for the first such block, with the worst
    relative residual within that block.
    """
    period = np.asarray(period, dtype=float)
    depth = np.asarray(depth, dtype=float)
    return _solve_by_blocks(lambda k, period, depth: k, (period, depth),
                            g, tol, max_iter)


def solve_dispersion(period, depth, env=None, tol=DISPERSION_TOL,
                     max_iter=DISPERSION_MAX_ITER):
    """Full dispersion solution (k, kd, C, n, Cg) for scalar period/depth."""
    env = env or FluidEnvironment()
    k = wavenumber(period, depth, g=env.g, tol=tol, max_iter=max_iter)
    kd = k * depth
    omega = 2.0 * np.pi / period
    celerity = omega / k
    n = float(_group_factor(kd))
    return DispersionSolution(
        k=float(k),
        kd=float(kd),
        celerity=float(celerity),
        group_factor=n,
        group_velocity=n * float(celerity),
    )


def power_transfer_factor(kd):
    """Depth factor tanh(kd) * (1 + 2kd/sinh(2kd)).

    Tends to 1 in deep water, 2kd in shallow water, with an interior
    maximum of about 1.200 near kd = 1.19.
    """
    kd = np.asarray(kd, dtype=float)
    if not _positive_finite(kd):
        raise DomainError("kd must be positive and finite")
    out = np.tanh(kd) * 2.0 * _group_factor(kd)
    return out if out.ndim else float(out)


def regular_wave_power(H, T, depth, env=None, tol=DISPERSION_TOL):
    """Mean power per crest width (W/m) of a regular wave train.

    rho*g^2*H^2*T/(32*pi) scaled by the depth transfer factor at k*depth.
    H is whatever height the caller supplies (time-averaged height in
    the assessment pipeline); no conversion is applied here.

    H, T and depth are validated whole, then evaluated in the blocks of
    wavenumber, solving k and forming the power of one block before the
    next; each element has the bits of its own scalar call. A SolverError
    carries the worst relative residual of the first block that failed to
    converge.
    """
    env = env or FluidEnvironment()
    H = np.asarray(H, dtype=float)
    T = np.asarray(T, dtype=float)
    depth = np.asarray(depth, dtype=float)
    if not _positive_finite(H, zero_ok=True):
        raise DomainError("H must be non-negative and finite")

    def power(k, T, depth, H):
        kd = k * depth
        factor = np.tanh(kd) * 2.0 * _group_factor(kd)
        return env.rho * env.g ** 2 * H ** 2 * T / (32.0 * np.pi) * factor

    return _solve_by_blocks(power, (T, depth, H), env.g, tol,
                            DISPERSION_MAX_ITER)
