"""Spectral analysis of surface elevation records.

Variance density spectra via segment-averaged periodograms, spectral
moments, irregular-wave power (deep water), sea-state statistics and
random-phase synthesis of records from a target spectrum.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (DataError, DomainError, SamplingError, SizingError,
                     _positive_finite)
from .mechanics import FluidEnvironment

TAPER_NONE = "none"
TAPER_RAISED_COSINE = "raised-cosine"

# samples per block of the phasor synthesis in synthesize_record; a power
# of two, so SYNTHESIS_BLOCK * dt is exact and each block starts at the
# same time, bit for bit, as the sample k * dt it stands for
SYNTHESIS_BLOCK = 128


# eq=False: its array fields make == ambiguous, so compare by identity
@dataclass(frozen=True, eq=False)
class ElevationRecord:
    """Uniformly sampled sea-surface elevation time series."""

    dt: float
    samples: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "samples",
                           np.asarray(self.samples, dtype=float))
        if not 0 < self.dt < np.inf:
            raise DomainError(f"dt must be positive and finite, got {self.dt}")
        if self.samples.ndim != 1 or self.samples.size < 2:
            raise DataError("record needs at least 2 samples")
        if not np.all(np.isfinite(self.samples)):
            raise DataError("record contains non-finite samples")

    def variance(self):
        return float(np.var(self.samples))


# eq=False: its array fields make == ambiguous, so compare by identity
@dataclass(frozen=True, eq=False)
class VarianceDensitySpectrum:
    """Discrete one-sided variance density spectrum (m^2/Hz)."""

    f: np.ndarray
    S: np.ndarray
    df: float

    def __post_init__(self):
        object.__setattr__(self, "f", np.asarray(self.f, dtype=float))
        object.__setattr__(self, "S", np.asarray(self.S, dtype=float))
        if not 0 < self.df < np.inf:
            raise DomainError(f"df must be positive and finite, got {self.df}")
        if self.f.shape != self.S.shape or self.f.ndim != 1 or self.f.size == 0:
            raise DataError("f and S must be matching 1-D arrays")
        if not _positive_finite(self.S, zero_ok=True):
            raise DataError("variance density must be non-negative and "
                            "finite")
        if self.f.size > 1:
            steps = np.diff(self.f)
            if np.any(steps <= 0) or np.max(np.abs(steps - self.df)) > 1e-9 * self.df + 1e-15:
                raise DataError("frequency grid must be uniform with step df")
        if self.f[0] < self.df / 2 - 1e-9 * self.df:
            raise DomainError("f[0] must be at least df/2")


def uniform_spectrum(value, f_lo, f_hi, df):
    """Flat spectrum of the given density on [f_lo, f_hi] (bin centers)."""
    if not (-np.inf < f_lo < f_hi < np.inf and 0 < df < np.inf):
        raise DomainError("need finite f_lo < f_hi and 0 < df < inf")
    nbins = int(round((f_hi - f_lo) / df))
    f = f_lo + (np.arange(nbins) + 0.5) * df
    return VarianceDensitySpectrum(f=f, S=np.full(nbins, float(value)), df=df)


def _taper_window(n, taper):
    if taper == TAPER_NONE:
        return np.ones(n), 1.0
    w = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)
    return w, float(np.mean(w * w))


def estimate_spectrum(record, segments=8, taper=TAPER_RAISED_COSINE):
    """Segment-averaged variance density spectrum of an elevation record.

    The segment length L is the largest power of two >= 16 with
    L * segments <= the record's samples, else 16; segments do not
    overlap, and the samples past the last whole segment are left out.
    Each segment is mean-removed, tapered, Fourier transformed; one-sided
    squared amplitudes are converted to density a^2/(2 df) and averaged
    across segments. The taper is compensated by its mean-square so the
    integral of the spectrum tracks the record variance.
    """
    if type(segments) is not int or segments < 1:
        raise DomainError(f"segments must be an integer >= 1, got "
                          f"{segments!r}")
    if taper not in (TAPER_NONE, TAPER_RAISED_COSINE):
        raise DomainError(f"unknown taper {taper!r}")
    x = record.samples
    L = 16
    while L * 2 * segments <= x.size:
        L *= 2
    if x.size < L:
        raise SizingError(
            f"record of {x.size} samples is shorter than one "
            f"segment of {L}")
    w, wpow = _taper_window(L, taper)
    df = 1.0 / (L * record.dt)

    segs = x[:x.size - x.size % L].reshape(-1, L)
    segs = segs - np.mean(segs, axis=1, keepdims=True)
    p = np.abs(np.fft.rfft(segs * w)[:, 1:]) ** 2
    p[:, :-1] *= 2.0  # one-sided, except the Nyquist bin
    # summed over axis 0: segment by segment, in record order
    acc = np.sum(p / (L * L * df * wpow), axis=0)

    f = np.arange(1, L // 2 + 1) * df
    return VarianceDensitySpectrum(f=f, S=acc / len(segs), df=df)


def total_variance(spectrum):
    """Integral of the spectrum (rectangle rule), m^2."""
    return float(np.sum(spectrum.S) * spectrum.df)


def spectral_moment(spectrum, order):
    """Moment m_n = sum f^n * S * df for integer n in [-2, 3]; a
    VarianceDensitySpectrum's f is at least df/2 > 0, so any n is defined."""
    if not -2 <= order <= 3:
        raise DomainError(f"moment order must be in [-2, 3], got {order}")
    return float(np.sum(spectrum.f ** order * spectrum.S) * spectrum.df)


def irregular_wave_power(spectrum, env=None):
    """Deep-water irregular wave power (rho*g^2/4pi) * m_{-1}, W/m."""
    env = env or FluidEnvironment()
    return env.rho * env.g ** 2 / (4.0 * np.pi) * spectral_moment(spectrum, -1)


def sea_state_stats(spectrum):
    """(Hs, Te): significant height 4*sqrt(m0), energy period m_{-1}/m0."""
    m0 = spectral_moment(spectrum, 0)
    m_minus1 = spectral_moment(spectrum, -1)
    if m0 <= 0:
        raise DomainError("energy period undefined for a zero spectrum")
    return 4.0 * np.sqrt(m0), m_minus1 / m0


def parametric_power(Hs, Te, env=None):
    """Wave power from summary statistics: rho*g^2*Hs^2*Te/(64*pi), W/m.

    Algebraically identical to irregular_wave_power when Hs and Te come
    from the same spectrum.
    """
    env = env or FluidEnvironment()
    Hs = np.asarray(Hs, dtype=float)
    Te = np.asarray(Te, dtype=float)
    if not _positive_finite(Hs, zero_ok=True):
        raise DomainError("Hs must be non-negative and finite")
    if not _positive_finite(Te):
        raise DomainError("Te must be positive and finite")
    out = env.rho * env.g ** 2 * Hs ** 2 * Te / (64.0 * np.pi)
    return out if out.ndim else float(out)


def synthesize_record(target, duration, dt, seed):
    """Random-phase realization of a target spectrum.

    Harmonic superposition of a_i*cos(2*pi*f_i*t + phi_i) with amplitudes
    a_i = sqrt(2*S(f_i)*df) and phases drawn uniformly on [0, 2pi);
    deterministic for a fixed seed. The time axis is cut into blocks of
    SYNTHESIS_BLOCK samples starting at t0, and each harmonic is written
    Re(a_i*exp(i*(w_i*t0 + phi_i)) * exp(i*w_i*tau)) for tau within the
    block, so the record is the real part of one complex (blocks x bins) @
    (bins x block) product. It differs from summing the cosines bin by
    bin only by the rounding of the phase arguments, at most
    3 * eps * (w_max * t_end + 2pi) * sum(a_i); the last bits depend on
    the BLAS numpy uses.
    """
    if not (0 < dt < np.inf and 0 < duration < np.inf):
        raise DomainError("duration and dt must be positive and finite")
    f_max = float(target.f[-1])
    if dt > 1.0 / (2.0 * f_max):
        raise SamplingError(
            f"dt={dt} violates Nyquist for max frequency {f_max} Hz "
            f"(need dt <= {1.0 / (2.0 * f_max)})")
    if not duration / dt < np.iinfo(np.intp).max:
        raise DomainError(f"duration={duration} holds too many samples of "
                          f"dt={dt}")
    n = int(round(duration / dt))
    if n < 2:
        raise DataError(f"duration={duration} holds fewer than 2 samples of "
                        f"dt={dt}")

    rng = np.random.default_rng(seed)
    amps = np.sqrt(2.0 * target.S * target.df)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=target.f.size)
    keep = amps > 0
    omega = 2.0 * np.pi * target.f[keep]
    t0 = np.arange(-(-n // SYNTHESIS_BLOCK)) * (SYNTHESIS_BLOCK * dt)
    tau = np.arange(SYNTHESIS_BLOCK) * dt
    left = amps[keep] * np.exp(1j * (np.outer(t0, omega) + phases[keep]))
    right = np.exp(1j * np.outer(omega, tau))
    xi = (left @ right).real.ravel()[:n]
    return ElevationRecord(dt=dt, samples=xi)
