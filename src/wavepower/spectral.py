"""Spectral analysis of surface elevation records.

Variance density spectra via segment-averaged periodograms, spectral
moments, irregular-wave power (deep water), sea-state statistics and
random-phase synthesis of records from a target spectrum.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DataError, DomainError, SamplingError, SizingError
from .mechanics import FluidEnvironment

TAPER_NONE = "none"
TAPER_RAISED_COSINE = "raised-cosine"


@dataclass(frozen=True)
class ElevationRecord:
    """Uniformly sampled sea-surface elevation time series."""

    dt: float
    samples: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "samples",
                           np.asarray(self.samples, dtype=float))
        if self.dt <= 0:
            raise DomainError(f"dt must be positive, got {self.dt}")
        if self.samples.ndim != 1 or self.samples.size < 2:
            raise DataError("record needs at least 2 samples")
        if not np.all(np.isfinite(self.samples)):
            raise DataError("record contains non-finite samples")

    @property
    def duration(self):
        return self.dt * self.samples.size

    def variance(self):
        return float(np.var(self.samples))


@dataclass(frozen=True)
class SegmentationConfig:
    """Segment-averaging settings for spectrum estimation.

    segment_length must be a power of two (>= 16); the raised-cosine
    taper is variance-compensated so Parseval holds on average.
    """

    segment_length: int
    overlap_fraction: float = 0.0
    taper: str = TAPER_RAISED_COSINE

    def __post_init__(self):
        n = self.segment_length
        if n < 16 or (n & (n - 1)) != 0:
            raise DomainError(
                f"segment_length must be a power of two >= 16, got {n}")
        if not 0.0 <= self.overlap_fraction <= 0.5:
            raise DomainError("overlap_fraction must be in [0, 0.5]")
        if self.taper not in (TAPER_NONE, TAPER_RAISED_COSINE):
            raise DomainError(f"unknown taper {self.taper!r}")

    @classmethod
    def for_record(cls, record, segments=8, **kw):
        """Largest power-of-two segment length giving >= `segments` pieces."""
        n = 16
        while n * 2 * segments <= record.samples.size:
            n *= 2
        return cls(segment_length=n, **kw)


@dataclass(frozen=True)
class VarianceDensitySpectrum:
    """Discrete one-sided variance density spectrum (m^2/Hz)."""

    f: np.ndarray
    S: np.ndarray
    df: float

    def __post_init__(self):
        object.__setattr__(self, "f", np.asarray(self.f, dtype=float))
        object.__setattr__(self, "S", np.asarray(self.S, dtype=float))
        if self.df <= 0:
            raise DomainError("df must be positive")
        if self.f.shape != self.S.shape or self.f.ndim != 1 or self.f.size == 0:
            raise DataError("f and S must be matching 1-D arrays")
        if np.any(self.S < 0):
            raise DataError("variance density must be non-negative")
        if self.f.size > 1:
            steps = np.diff(self.f)
            if np.any(steps <= 0) or np.max(np.abs(steps - self.df)) > 1e-9 * self.df + 1e-15:
                raise DataError("frequency grid must be uniform with step df")
        if self.f[0] < self.df / 2 - 1e-9 * self.df:
            raise DomainError("f[0] must be at least df/2")


@dataclass(frozen=True)
class SeaStateStats:
    """Summary statistics of a sea state derived from its spectrum."""

    m0: float
    m_minus1: float
    Hs: float
    Te: float


def uniform_spectrum(value, f_lo, f_hi, df):
    """Flat spectrum of the given density on [f_lo, f_hi] (bin centers)."""
    if f_hi <= f_lo or df <= 0:
        raise DomainError("need f_hi > f_lo and df > 0")
    nbins = int(round((f_hi - f_lo) / df))
    f = f_lo + (np.arange(nbins) + 0.5) * df
    return VarianceDensitySpectrum(f=f, S=np.full(nbins, float(value)), df=df)


def _taper_window(n, taper):
    if taper == TAPER_NONE:
        return np.ones(n), 1.0
    w = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)
    return w, float(np.mean(w * w))


def estimate_spectrum(record, cfg=None):
    """Segment-averaged variance density spectrum of an elevation record.

    Each segment is mean-removed, tapered, Fourier transformed; one-sided
    squared amplitudes are converted to density a^2/(2 df) and averaged
    across segments. The taper is compensated by its mean-square so the
    integral of the spectrum tracks the record variance.
    """
    if cfg is None:
        cfg = SegmentationConfig.for_record(record)
    x = record.samples
    L = cfg.segment_length
    if x.size < L:
        raise SizingError(
            f"record of {x.size} samples is shorter than one "
            f"segment of {L}")
    step = L - int(round(L * cfg.overlap_fraction))
    w, wpow = _taper_window(L, cfg.taper)
    df = 1.0 / (L * record.dt)

    acc = np.zeros(L // 2)
    nseg = 0
    for start in range(0, x.size - L + 1, step):
        seg = x[start:start + L]
        seg = seg - np.mean(seg)
        X = np.fft.rfft(seg * w)
        p = np.abs(X[1:L // 2 + 1]) ** 2
        p[:-1] *= 2.0  # one-sided, except the Nyquist bin
        acc += p / (L * L * df * wpow)
        nseg += 1

    f = np.arange(1, L // 2 + 1) * df
    return VarianceDensitySpectrum(f=f, S=acc / nseg, df=df)


def total_variance(spectrum):
    """Integral of the spectrum (rectangle rule), m^2."""
    return float(np.sum(spectrum.S) * spectrum.df)


def spectral_moment(spectrum, order):
    """Moment m_n = sum f^n * S * df for integer n in [-2, 3]."""
    if not -2 <= order <= 3:
        raise DomainError(f"moment order must be in [-2, 3], got {order}")
    if order < 0 and spectrum.f[0] <= 0:
        raise DomainError(
            "negative-order moment undefined with a zero-frequency bin")
    return float(np.sum(spectrum.f ** order * spectrum.S) * spectrum.df)


def energy_density(spectrum, env=None):
    """Energy density rho*g*S_f(f), J/(m^2 Hz), aligned with spectrum.f."""
    env = env or FluidEnvironment()
    return env.rho * env.g * spectrum.S


def irregular_wave_power(spectrum, env=None):
    """Deep-water irregular wave power (rho*g^2/4pi) * m_{-1}, W/m."""
    env = env or FluidEnvironment()
    return env.rho * env.g ** 2 / (4.0 * np.pi) * spectral_moment(spectrum, -1)


def sea_state_stats(spectrum):
    """m0, m_{-1}, significant height Hs = 4*sqrt(m0), energy period Te."""
    m0 = spectral_moment(spectrum, 0)
    m_minus1 = spectral_moment(spectrum, -1)
    if m0 <= 0:
        raise DomainError("energy period undefined for a zero spectrum")
    return SeaStateStats(m0=m0, m_minus1=m_minus1,
                         Hs=4.0 * np.sqrt(m0), Te=m_minus1 / m0)


def parametric_power(Hs, Te, env=None):
    """Wave power from summary statistics: rho*g^2*Hs^2*Te/(64*pi), W/m.

    Algebraically identical to irregular_wave_power when Hs and Te come
    from the same spectrum.
    """
    env = env or FluidEnvironment()
    Hs = np.asarray(Hs, dtype=float)
    Te = np.asarray(Te, dtype=float)
    if np.any(Hs < 0):
        raise DomainError("Hs must be non-negative")
    if np.any(Te <= 0):
        raise DomainError("Te must be positive")
    out = env.rho * env.g ** 2 * Hs ** 2 * Te / (64.0 * np.pi)
    return out if out.ndim else float(out)


def synthesize_record(target, duration, dt, seed):
    """Random-phase realization of a target spectrum.

    Harmonic superposition with amplitudes a_i = sqrt(2*S(f_i)*df) and
    phases drawn uniformly on [0, 2pi); deterministic for a fixed seed.
    """
    if dt <= 0 or duration <= 0:
        raise DomainError("duration and dt must be positive")
    f_max = float(target.f[-1])
    if dt > 1.0 / (2.0 * f_max):
        raise SamplingError(
            f"dt={dt} violates Nyquist for max frequency {f_max} Hz "
            f"(need dt <= {1.0 / (2.0 * f_max)})")
    n = int(round(duration / dt))
    if n < 2:
        raise DataError("duration too short for a record")

    rng = np.random.default_rng(seed)
    amps = np.sqrt(2.0 * target.S * target.df)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=target.f.size)
    t = np.arange(n) * dt
    xi = np.zeros(n)
    for a, fi, ph in zip(amps, target.f, phases):
        if a > 0:
            xi += a * np.cos(2.0 * np.pi * fi * t + ph)
    return ElevationRecord(dt=dt, samples=xi)
