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


def _positive_finite(x):
    """Whether every element of array x lies in (0, inf); NaN does not.
    Two reductions and no temporary array, whatever the size of x."""
    return x.size == 0 or bool(0 < x.min() and x.max() < np.inf)


def _group_factor(kd):
    # n = 0.5 * (1 + 2kd / sinh(2kd)); the ratio underflows cleanly for
    # large kd where sinh overflows.
    with np.errstate(over="ignore"):
        ratio = np.where(kd > 350.0, 0.0, 2.0 * kd / np.sinh(2.0 * kd))
    return 0.5 * (1.0 + ratio)


def wavenumber(period, depth, g=DEFAULT_G, tol=DISPERSION_TOL,
               max_iter=DISPERSION_MAX_ITER):
    """Solve omega^2 = g*k*tanh(k*d) for k. Accepts arrays.

    Newton iteration from the deep-water guess k0 = omega^2/g; the
    residual is monotone in k so this converges for all physical inputs.
    Each element stops moving once its own residual is within tol, so an
    array gives the same bits as its elements solved one at a time.
    """
    period = np.asarray(period, dtype=float)
    depth = np.asarray(depth, dtype=float)
    if not (_positive_finite(period) and _positive_finite(depth)):
        raise DomainError("period and depth must be positive and finite")
    if tol <= 0:
        raise DomainError("tol must be positive")

    # k is an array of the full broadcast shape, so it can move in place
    period, depth = np.broadcast_arrays(period, depth)
    omega = 2.0 * np.pi / period
    omega2 = omega * omega
    k = np.asarray(omega2 / g)
    resid = None
    with np.errstate(over="ignore"):
        for _ in range(max_iter):
            kd = k * depth
            th = np.tanh(kd)
            f = omega2 - g * k * th
            resid = np.abs(f) / omega2
            done = resid <= tol
            if np.all(done):
                return k if k.ndim else float(k)
            fprime = -g * (th + kd * np.where(  # kd * sech^2(kd)
                kd > 350.0, 0.0, 1.0 / np.cosh(kd) ** 2))
            # only elements not yet within tol move
            np.subtract(k, f / fprime, out=k, where=~done)
    raise SolverError(
        f"dispersion solve did not converge within {max_iter} iterations "
        f"(worst relative residual {float(np.max(resid)):.3e})",
        residual=float(np.max(resid)),
    )


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
    if np.any(kd <= 0):
        raise DomainError("kd must be positive")
    out = np.tanh(kd) * 2.0 * _group_factor(kd)
    return out if out.ndim else float(out)


def regular_wave_power(H, T, depth, env=None, tol=DISPERSION_TOL):
    """Mean power per crest width (W/m) of a regular wave train.

    rho*g^2*H^2*T/(32*pi) scaled by the depth transfer factor at k*depth.
    H is whatever height the caller supplies (time-averaged height in
    the assessment pipeline); no conversion is applied here.
    """
    env = env or FluidEnvironment()
    H = np.asarray(H, dtype=float)
    T = np.asarray(T, dtype=float)
    depth = np.asarray(depth, dtype=float)
    if np.any(H < 0):
        raise DomainError("H must be non-negative")
    k = wavenumber(T, depth, g=env.g, tol=tol)
    factor = power_transfer_factor(np.asarray(k) * depth)
    out = env.rho * env.g ** 2 * H ** 2 * T / (32.0 * np.pi) * factor
    return out if np.ndim(out) else float(out)
