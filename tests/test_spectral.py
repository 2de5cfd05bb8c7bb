import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavepower.errors import (
    DataError,
    DomainError,
    SamplingError,
    SizingError,
)
from wavepower.mechanics import regular_wave_power
from wavepower.spectral import (
    SYNTHESIS_BLOCK,
    ElevationRecord,
    SegmentationConfig,
    VarianceDensitySpectrum,
    estimate_spectrum,
    irregular_wave_power,
    parametric_power,
    sea_state_stats,
    spectral_moment,
    synthesize_record,
    total_variance,
    uniform_spectrum,
)

RHO_G2_OVER_4PI = 1025 * 9.81 ** 2 / (4 * np.pi)


def flat_unit_spectrum(df=0.002):
    """S = 1 m^2/Hz on [0.1, 0.2] Hz; m0 = 0.1 exactly."""
    return uniform_spectrum(1.0, 0.1, 0.2, df)


def single_bin_spectrum(a=0.5, f=0.2, df=0.05):
    """Monochromatic stand-in: one bin holding variance a^2/2."""
    return VarianceDensitySpectrum(f=np.array([f]),
                                   S=np.array([a * a / 2 / df]), df=df)


class TestTypes:
    def test_record_validation(self):
        with pytest.raises(DomainError):
            ElevationRecord(dt=0.0, samples=[0.0, 1.0])
        with pytest.raises(DataError):
            ElevationRecord(dt=0.5, samples=[1.0])
        with pytest.raises(DataError):
            ElevationRecord(dt=0.5, samples=[0.0, np.nan])

    def test_segmentation_validation(self):
        with pytest.raises(DomainError):
            SegmentationConfig(segment_length=100)  # not a power of two
        with pytest.raises(DomainError):
            SegmentationConfig(segment_length=8)

    def test_spectrum_validation(self):
        with pytest.raises(DataError):
            VarianceDensitySpectrum(f=[0.1, 0.2], S=[1.0, -1.0], df=0.1)
        with pytest.raises(DataError):
            VarianceDensitySpectrum(f=[0.1, 0.25], S=[1.0, 1.0], df=0.1)
        with pytest.raises(DomainError):
            VarianceDensitySpectrum(f=[0.01, 0.11], S=[1.0, 1.0], df=0.1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_step_rejected(self, bad):
        with pytest.raises(DomainError, match="dt must be positive and fin"):
            ElevationRecord(dt=bad, samples=[0.0, 1.0])
        with pytest.raises(DomainError, match="df must be positive and fin"):
            VarianceDensitySpectrum(f=[0.15, 0.25], S=[1.0, 1.0], df=bad)


    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("position", [1, 2, 3])
    def test_uniform_spectrum_rejects_non_finite_band(self, position, bad):
        args = [1.0, 0.1, 0.2, 0.01]
        args[position] = bad
        with pytest.raises(DomainError, match="need finite f_lo < f_hi"):
            uniform_spectrum(*args)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_density_rejected(self, bad):
        match = "variance density must be non-negative and finite"
        with pytest.raises(DataError, match=match):
            VarianceDensitySpectrum(f=[0.15, 0.25], S=[bad, 1.0], df=0.1)
        with pytest.raises(DataError, match=match):
            uniform_spectrum(bad, 0.1, 0.2, 0.01)


class TestEstimateSpectrum:
    def test_pure_sinusoid_on_grid(self):
        # a=0.5 at a frequency on the analysis grid: variance a^2/2
        dt = 0.5
        n = 2 ** 14
        f0 = 1638 / (n * dt)  # exact bin
        t = np.arange(n) * dt
        rec = ElevationRecord(dt=dt, samples=0.5 * np.cos(2 * np.pi * f0 * t))
        cfg = SegmentationConfig(segment_length=n, taper="none")
        spec = estimate_spectrum(rec, cfg)
        assert total_variance(spec) == pytest.approx(0.125, rel=1e-6)
        assert spec.f[np.argmax(spec.S)] == pytest.approx(f0, abs=spec.df)

    def test_zero_record(self):
        rec = ElevationRecord(dt=0.5, samples=np.zeros(256))
        spec = estimate_spectrum(rec, SegmentationConfig(segment_length=64))
        assert np.all(spec.S == 0)

    def test_round_trip_flat_target(self):
        target = flat_unit_spectrum()
        rec = synthesize_record(target, duration=2 ** 17 * 0.5, dt=0.5, seed=11)
        spec = estimate_spectrum(rec)
        assert total_variance(spec) == pytest.approx(0.1, rel=0.03)

    def test_too_short(self):
        rec = ElevationRecord(dt=0.5, samples=np.zeros(32))
        with pytest.raises(SizingError):
            estimate_spectrum(rec, SegmentationConfig(segment_length=64))

    def test_parseval_single_segment_no_taper(self):
        rng = np.random.default_rng(5)
        rec = ElevationRecord(dt=0.25, samples=rng.normal(size=1024))
        spec = estimate_spectrum(
            rec, SegmentationConfig(segment_length=1024, taper="none"))
        assert total_variance(spec) == pytest.approx(rec.variance(), rel=1e-6)
        assert np.all(spec.S >= 0)

    def test_taper_compensation(self):
        rng = np.random.default_rng(6)
        rec = ElevationRecord(dt=0.5, samples=rng.normal(size=2 ** 13))
        spec = estimate_spectrum(
            rec, SegmentationConfig(segment_length=512))
        # white noise: compensated taper keeps the integral near the variance
        assert total_variance(spec) == pytest.approx(rec.variance(), rel=0.1)


def reference_spectrum(record, cfg):
    """Segment averaging one segment at a time, in record order."""
    x, L = record.samples, cfg.segment_length
    if cfg.taper == "none":
        w, wpow = np.ones(L), 1.0
    else:
        w = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(L) / L)
        wpow = float(np.mean(w * w))
    df = 1.0 / (L * record.dt)
    acc = np.zeros(L // 2)
    nseg = 0
    for start in range(0, x.size - L + 1, L):
        seg = x[start:start + L]
        seg = seg - np.mean(seg)
        X = np.fft.rfft(seg * w)
        p = np.abs(X[1:L // 2 + 1]) ** 2
        p[:-1] *= 2.0
        acc += p / (L * L * df * wpow)
        nseg += 1
    return np.arange(1, L // 2 + 1) * df, acc / nseg, df


@pytest.mark.parametrize("taper", ["none", "raised-cosine"])
def test_spectrum_bit_identical_to_per_segment_reference(taper):
    for seed in range(5):
        rng = np.random.default_rng(seed)
        for n in (64, 1000, 4099):
            rec = ElevationRecord(dt=0.5, samples=3.0 + rng.normal(size=n))
            for length in (16, 64, 512):
                if length > n:
                    continue
                cfg = SegmentationConfig(length, taper)
                f, S, df = reference_spectrum(rec, cfg)
                spec = estimate_spectrum(rec, cfg)
                assert np.array_equal(spec.f, f)
                assert np.array_equal(spec.S, S)
                assert spec.df == df


@settings(max_examples=60, deadline=None)
@given(log2_length=st.integers(4, 9), nseg=st.integers(1, 8),
       tail=st.integers(0, 15), seed=st.integers(0, 2 ** 32 - 1),
       loc=st.floats(-1e3, 1e3), scale=st.floats(1e-3, 1e3))
def test_parseval_untapered_without_overlap(log2_length, nseg, tail, seed,
                                            loc, scale):
    length = 2 ** log2_length
    rng = np.random.default_rng(seed)
    x = loc + scale * rng.normal(size=nseg * length + tail)
    spec = estimate_spectrum(ElevationRecord(dt=0.5, samples=x),
                             SegmentationConfig(length, "none"))
    segment_variance = np.mean([np.var(x[i * length:(i + 1) * length])
                                for i in range(nseg)])
    assert total_variance(spec) == pytest.approx(segment_variance, rel=1e-12)


class TestMomentsAndPower:
    def test_total_variance_flat(self):
        assert total_variance(flat_unit_spectrum()) == pytest.approx(0.1)

    def test_total_variance_single_bin(self):
        spec = VarianceDensitySpectrum(f=[0.1], S=[2.0], df=0.05)
        assert total_variance(spec) == pytest.approx(0.1)

    def test_moment_zero_equals_variance(self):
        spec = flat_unit_spectrum()
        assert spectral_moment(spec, 0) == pytest.approx(total_variance(spec))

    def test_moment_minus_one_flat(self):
        # analytic integral of 1/f over [0.1, 0.2] is ln 2
        assert spectral_moment(flat_unit_spectrum(), -1) == pytest.approx(
            np.log(2), rel=1e-4)

    def test_moment_order_domain(self):
        with pytest.raises(DomainError):
            spectral_moment(flat_unit_spectrum(), -3)

    def test_irregular_power_flat(self):
        p = irregular_wave_power(flat_unit_spectrum())
        assert p == pytest.approx(RHO_G2_OVER_4PI * np.log(2), rel=1e-4)
        assert p == pytest.approx(5441, rel=1e-3)

    def test_irregular_power_zero(self):
        spec = VarianceDensitySpectrum(f=[0.1, 0.2], S=[0.0, 0.0], df=0.1)
        assert irregular_wave_power(spec) == 0.0

    def test_monochromatic_matches_regular_theory(self):
        spec = single_bin_spectrum(a=0.5, f=0.2)
        p_irr = irregular_wave_power(spec)
        p_reg = regular_wave_power(H=1.0, T=5.0, depth=1000.0)
        assert p_irr == pytest.approx(p_reg, rel=0.02)
        assert p_irr == pytest.approx(4906, rel=0.02)


class TestSeaStateStats:
    def test_flat(self):
        stats = sea_state_stats(flat_unit_spectrum())
        assert stats.Hs == pytest.approx(4 * np.sqrt(0.1), rel=1e-6)
        assert stats.Hs == pytest.approx(1.2649, abs=1e-3)
        assert stats.Te == pytest.approx(np.log(2) / 0.1, rel=1e-4)

    def test_monochromatic(self):
        stats = sea_state_stats(single_bin_spectrum(a=0.5, f=0.2))
        assert stats.Hs == pytest.approx(np.sqrt(2), rel=1e-6)
        assert stats.Te == pytest.approx(5.0, rel=1e-6)

    def test_homogeneity(self):
        spec = flat_unit_spectrum()
        scaled = VarianceDensitySpectrum(f=spec.f, S=4 * spec.S, df=spec.df)
        s1, s2 = sea_state_stats(spec), sea_state_stats(scaled)
        assert s2.Hs == pytest.approx(2 * s1.Hs)
        assert s2.Te == pytest.approx(s1.Te)

    def test_zero_spectrum(self):
        spec = VarianceDensitySpectrum(f=[0.1], S=[0.0], df=0.1)
        with pytest.raises(DomainError):
            sea_state_stats(spec)


class TestParametricPower:
    def test_closed_form(self):
        expected = 1025 * 9.81 ** 2 * 1.0 * 5.0 / (64 * np.pi)
        assert parametric_power(1.0, 5.0) == pytest.approx(expected)
        assert parametric_power(1.0, 5.0) == pytest.approx(2453, rel=1e-3)

    def test_zero_height(self):
        assert parametric_power(0.0, 7.0) == 0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_height_or_period_rejected(self, bad):
        batch = np.ones(4)
        batch[2] = bad
        for hs in (bad, batch):
            with pytest.raises(DomainError,
                               match="Hs must be non-negative and fin"):
                parametric_power(hs, 5.0)
        for te in (bad, batch):
            with pytest.raises(DomainError, match="Te must be positive and"):
                parametric_power(1.0, te)

    def test_bridge_identity(self):
        # exact algebraic identity with the spectral path
        rng = np.random.default_rng(3)
        for _ in range(20):
            nbins = rng.integers(5, 50)
            df = rng.uniform(0.001, 0.05)
            f0 = df * (rng.integers(1, 20) + 0.5)
            spec = VarianceDensitySpectrum(
                f=f0 + np.arange(nbins) * df,
                S=rng.uniform(0, 5, nbins), df=df)
            stats = sea_state_stats(spec)
            assert parametric_power(stats.Hs, stats.Te) == pytest.approx(
                irregular_wave_power(spec), rel=1e-12)


def reference_record(target, duration, dt, seed):
    """Harmonic superposition one bin at a time over the whole time axis."""
    n = int(round(duration / dt))
    rng = np.random.default_rng(seed)
    amps = np.sqrt(2.0 * target.S * target.df)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=target.f.size)
    t = np.arange(n) * dt
    xi = np.zeros(n)
    for a, fi, ph in zip(amps, target.f, phases):
        if a > 0:
            xi += a * np.cos(2.0 * np.pi * fi * t + ph)
    return xi


def synthesis_bound(target, n, dt):
    """eps * (w_max * t_end + 2pi) * sum(a): one rounding of the phase
    arguments near the record's end, summed over the bins.

    Both syntheses round each phase argument three times (the time, its
    product with w, the sum with the phase), each by at most eps/2 of its
    size, so each lies within 1.5 bounds of the exact sum and the two
    within 3 of each other. With one bin they differ by up to about 1.5
    bounds; over a band of bins the roundings mostly cancel."""
    amps = np.sqrt(2.0 * target.S * target.df)
    w_max = 2.0 * np.pi * float(target.f[-1])
    return (np.finfo(float).eps * (w_max * (n - 1) * dt + 2.0 * np.pi)
            * float(np.sum(amps)))


@st.composite
def synthesis_cases(draw):
    """(target, n, dt): a flat band or a single bin below Nyquist, with n
    below, equal to, a multiple of or off a multiple of the block."""
    dt = draw(st.floats(0.05, 2.0))
    nyquist = 1.0 / (2.0 * dt)
    block = SYNTHESIS_BLOCK
    n = draw(st.one_of(st.integers(2, block - 1), st.just(block),
                       st.integers(1, 64).map(lambda m: m * block),
                       st.integers(block + 1, 64 * block)))
    # a flat band's last bin centre lies df / 2 (at least 7e-6 * nyquist)
    # below nyquist, far more than the rounding of synthesize_record's
    # Nyquist test dt <= 1 / (2 f); a single bin may lie at nyquist itself
    if draw(st.booleans()):
        nbins = draw(st.integers(1, 64))
        df = draw(st.floats(0.001, 1.0)) * nyquist / nbins
        f_lo = draw(st.floats(0.0, 1.0)) * (nyquist - nbins * df)
        target = uniform_spectrum(draw(st.floats(1e-4, 1e2)),
                                  f_lo, f_lo + nbins * df, df)
    else:
        df = draw(st.floats(0.001, 0.5)) * nyquist
        # the largest f that passes that test: 1 / (2 * nyquist) can
        # round 1 ulp below dt
        f_max = nyquist
        while dt > 1.0 / (2.0 * f_max):
            f_max = math.nextafter(f_max, 0.0)
        f = draw(st.floats(df / 2, f_max))
        a = draw(st.floats(1e-3, 10.0))
        target = single_bin_spectrum(a=a, f=f, df=df)
    return target, n, dt


@settings(max_examples=150, deadline=None)
@given(case=synthesis_cases(), seed=st.integers(0, 2 ** 32 - 1))
def test_block_phasor_record_matches_per_bin_reference(case, seed):
    target, n, dt = case
    rec = synthesize_record(target, n * dt, dt, seed)
    ref = reference_record(target, n * dt, dt, seed)
    assert rec.samples.shape == ref.shape == (n,)
    assert rec.dt == dt
    assert np.max(np.abs(rec.samples - ref)) <= 3 * synthesis_bound(
        target, n, dt)


@pytest.mark.parametrize("n", [2 ** 13, 2 ** 17 + 37])
def test_flat_band_record_within_one_bound(n):
    target = flat_unit_spectrum()
    rec = synthesize_record(target, n * 0.5, 0.5, seed=7)
    ref = reference_record(target, n * 0.5, 0.5, seed=7)
    assert np.max(np.abs(rec.samples - ref)) <= synthesis_bound(target, n, 0.5)


class TestSynthesizeRecord:
    def test_zero_target(self):
        spec = VarianceDensitySpectrum(f=[0.1, 0.2], S=[0.0, 0.0], df=0.1)
        for n in (100, SYNTHESIS_BLOCK, 200, 1000):
            rec = synthesize_record(spec, duration=n * 0.5, dt=0.5, seed=1)
            assert rec.samples.shape == (n,)
            assert np.all(rec.samples == 0)

    def test_zero_bins_are_skipped(self):
        # zero bins still draw their phases, so the rest keep theirs
        spec = VarianceDensitySpectrum(f=[0.1, 0.2, 0.3], S=[0.0, 2.0, 0.0],
                                       df=0.1)
        rec = synthesize_record(spec, duration=300.0, dt=0.5, seed=4)
        ref = reference_record(spec, 300.0, 0.5, seed=4)
        assert np.max(np.abs(rec.samples - ref)) <= 3 * synthesis_bound(
            spec, 600, 0.5)

    @pytest.mark.parametrize("duration,dt", [
        (np.nan, 0.5), (100.0, np.nan), (np.inf, 0.5), (100.0, np.inf),
        (-np.inf, 0.5), (100.0, -np.inf), (0.0, 0.5), (100.0, 0.0),
    ])
    def test_non_finite_or_non_positive_sizes_rejected(self, duration, dt):
        with pytest.raises(DomainError, match="positive and finite"):
            synthesize_record(flat_unit_spectrum(), duration, dt, seed=0)

    def test_seeded_determinism(self):
        target = flat_unit_spectrum()
        r1 = synthesize_record(target, 512.0, 0.5, seed=42)
        r2 = synthesize_record(target, 512.0, 0.5, seed=42)
        assert np.array_equal(r1.samples, r2.samples)
        r3 = synthesize_record(target, 512.0, 0.5, seed=43)
        assert not np.array_equal(r1.samples, r3.samples)

    def test_variance_matches_target(self):
        target = flat_unit_spectrum()
        hits = 0
        for seed in range(5):
            rec = synthesize_record(target, 2 ** 17 * 0.5, 0.5, seed=seed)
            if abs(rec.variance() - 0.1) / 0.1 < 0.03:
                hits += 1
        assert hits >= 4

    def test_nyquist_violation(self):
        target = flat_unit_spectrum()
        with pytest.raises(SamplingError):
            synthesize_record(target, 100.0, dt=3.0, seed=0)
