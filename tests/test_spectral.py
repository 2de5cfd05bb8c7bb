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
from wavepower.mechanics import FluidEnvironment, regular_wave_power
from wavepower.spectral import (
    ElevationRecord,
    SegmentationConfig,
    VarianceDensitySpectrum,
    estimate_spectrum,
    energy_density,
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
        with pytest.raises(DomainError):
            SegmentationConfig(segment_length=64, overlap_fraction=0.6)

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
            rec, SegmentationConfig(segment_length=512, overlap_fraction=0.5))
        # white noise: compensated taper keeps the integral near the variance
        assert total_variance(spec) == pytest.approx(rec.variance(), rel=0.1)


def reference_spectrum(record, cfg):
    """Segment averaging one segment at a time, in record order."""
    x, L = record.samples, cfg.segment_length
    step = L - int(round(L * cfg.overlap_fraction))
    if cfg.taper == "none":
        w, wpow = np.ones(L), 1.0
    else:
        w = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(L) / L)
        wpow = float(np.mean(w * w))
    df = 1.0 / (L * record.dt)
    acc = np.zeros(L // 2)
    nseg = 0
    for start in range(0, x.size - L + 1, step):
        seg = x[start:start + L]
        seg = seg - np.mean(seg)
        X = np.fft.rfft(seg * w)
        p = np.abs(X[1:L // 2 + 1]) ** 2
        p[:-1] *= 2.0
        acc += p / (L * L * df * wpow)
        nseg += 1
    return np.arange(1, L // 2 + 1) * df, acc / nseg, df


@pytest.mark.parametrize("taper", ["none", "raised-cosine"])
@pytest.mark.parametrize("overlap", [0.0, 0.25, 0.5])
def test_spectrum_bit_identical_to_per_segment_reference(overlap, taper):
    for seed in range(5):
        rng = np.random.default_rng(seed)
        for n in (64, 1000, 4099):
            rec = ElevationRecord(dt=0.5, samples=3.0 + rng.normal(size=n))
            for length in (16, 64, 512):
                if length > n:
                    continue
                cfg = SegmentationConfig(length, overlap, taper)
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
                             SegmentationConfig(length, 0.0, "none"))
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

    def test_energy_density(self):
        spec = flat_unit_spectrum()
        e = energy_density(spec)
        assert e == pytest.approx(1025 * 9.81 * spec.S)
        env2 = FluidEnvironment(rho=2 * 1025.0)
        assert energy_density(spec, env2) == pytest.approx(2 * e)

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


class TestSynthesizeRecord:
    def test_zero_target(self):
        spec = VarianceDensitySpectrum(f=[0.1, 0.2], S=[0.0, 0.0], df=0.1)
        rec = synthesize_record(spec, duration=100.0, dt=0.5, seed=1)
        assert np.all(rec.samples == 0)

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
