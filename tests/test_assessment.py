from datetime import datetime

import numpy as np
import pytest

from wavepower import pipeline
from wavepower.assessment import (
    OptimalReference,
    PointFeatures,
    SiteAssessment,
    correlation_score,
    deviation_norm,
    feature_ranges,
    rank_points,
    zone_shares,
)
from wavepower.data_io import CatalogEntry, SeaStateSeries
from wavepower.errors import DataError, DomainError, ScalingError
from wavepower.mechanics import FluidEnvironment
from wavepower.spectral import parametric_power

TABLE_REF = OptimalReference(h_opt=0.595, t_opt=4.102, d_opt=79.218)


def features(h, t, d, pid="P", zone="Z"):
    return PointFeatures(point_id=pid, zone=zone, h_bar=h, t_bar=t, depth=d)


def pearson(x, y):
    # independent oracle for correlation_score
    x, y = np.asarray(x, float), np.asarray(y, float)
    xc, yc = x - x.mean(), y - y.mean()
    return float(np.sum(xc * yc) / np.sqrt(np.sum(xc ** 2) * np.sum(yc ** 2)))


NON_FINITE = [np.nan, np.inf, -np.inf]


@pytest.mark.parametrize("bad", NON_FINITE)
@pytest.mark.parametrize("field", ["h_bar", "t_bar", "depth"])
def test_point_features_reject_non_finite(field, bad):
    kwargs = dict(point_id="P", zone="Z", h_bar=0.5, t_bar=4.0, depth=30.0)
    kwargs[field] = bad
    with pytest.raises(DomainError, match="P: "):
        PointFeatures(**kwargs)


@pytest.mark.parametrize("bad", NON_FINITE)
@pytest.mark.parametrize("field", ["h_opt", "t_opt", "d_opt"])
def test_reference_rejects_non_finite(field, bad):
    kwargs = dict(h_opt=0.6, t_opt=4.1, d_opt=79.0)
    kwargs[field] = bad
    with pytest.raises(DomainError, match="positive and finite"):
        OptimalReference(**kwargs)


def test_zero_mean_height_is_a_valid_feature():
    assert features(0.0, 4.0, 30.0).h_bar == 0.0


def mean_features(history, depth):
    """The PointFeatures pipeline.feature_rows builds from an hourly
    sea-state series of (H, T) states."""
    hs = [h for h, _ in history]
    te = [t for _, t in history]
    series = SeaStateSeries(
        point="P", times=pipeline.timestamps(datetime(2006, 1, 1), len(hs)),
        hs=hs, te=te)
    entry = CatalogEntry(index=1, name="P", zone="Z", lat=37.0, lon=50.0,
                         depth=depth)
    env = FluidEnvironment()
    return pipeline.feature_rows(
        [pipeline.point_features(entry, series, env)], env)[0][0]


class TestFeatureVector:
    def test_constant_history(self):
        f = mean_features([(1.0, 4.0), (1.0, 4.0)], depth=10.0)
        assert (f.h_bar, f.t_bar) == (1.0, 4.0)

    def test_two_point_mean(self):
        f = mean_features([(0.4, 3.0), (0.8, 5.0)], depth=10.0)
        assert f.h_bar == pytest.approx(0.6)
        assert f.t_bar == pytest.approx(4.0)

    def test_single_entry(self):
        f = mean_features([(0.7, 6.0)], depth=2.0)
        assert (f.h_bar, f.t_bar, f.depth) == (0.7, 6.0, 2.0)

    def test_empty_history(self):
        with pytest.raises(DataError):
            mean_features([], depth=10.0)


class TestDeviationNorm:
    def test_identity(self):
        f = features(0.595, 4.102, 79.218)
        assert deviation_norm(f, TABLE_REF) == 0.0
        ranges = ((0.1, 1.0), (2.0, 6.0), (5.0, 100.0))
        assert deviation_norm(f, TABLE_REF, mode="minmax", ranges=ranges) == 0.0

    def test_3_4_5(self):
        ref = OptimalReference(h_opt=1.0, t_opt=2.0, d_opt=3.0)
        f = features(4.0, 6.0, 3.0)
        assert deviation_norm(f, ref) == pytest.approx(5.0)

    def test_depth_dominates_raw(self):
        f = features(0.5, 3.5, 40.0)
        expected = np.sqrt(0.095 ** 2 + 0.602 ** 2 + 39.218 ** 2)
        assert deviation_norm(f, TABLE_REF) == pytest.approx(expected)
        assert deviation_norm(f, TABLE_REF) == pytest.approx(39.223, abs=1e-3)

    def test_minmax_unit_invariance(self):
        # rescaling a dimension (unit change) must not alter minmax norms
        pts = [features(h, t, d) for h, t, d in
               [(0.2, 3.0, 10.0), (0.5, 4.0, 50.0), (0.9, 5.5, 90.0)]]
        ranges = feature_ranges(pts)
        base = [deviation_norm(p, TABLE_REF, "minmax", ranges) for p in pts]

        def scale(f, c):
            return features(f.h_bar, f.t_bar, f.depth * c)

        scaled = [scale(p, 3.28) for p in pts]
        ref2 = OptimalReference(TABLE_REF.h_opt, TABLE_REF.t_opt,
                                TABLE_REF.d_opt * 3.28)
        r2 = feature_ranges(scaled)
        out = [deviation_norm(p, ref2, "minmax", r2) for p in scaled]
        assert out == pytest.approx(base, rel=1e-12)

    def test_degenerate_range(self):
        with pytest.raises(ScalingError) as exc:
            deviation_norm(features(1.0, 4.0, 10.0), TABLE_REF, "minmax",
                           ranges=((0.1, 1.0), (4.0, 4.0), (5.0, 100.0)))
        assert exc.value.dimension == "T"

    def test_minmax_needs_ranges(self):
        with pytest.raises(ScalingError):
            deviation_norm(features(1.0, 4.0, 10.0), TABLE_REF, "minmax")


class TestCorrelationScore:
    def test_positive_affine(self):
        f = features(1.0, 2.0, 3.0)
        ref = OptimalReference(2.0, 4.0, 6.0)
        assert correlation_score(f, ref) == pytest.approx(1.0)

    def test_negative_affine(self):
        f = features(1.0, 2.0, 3.0)
        ref = OptimalReference(3.0, 2.0, 1.0)
        assert correlation_score(f, ref) == pytest.approx(-1.0)

    def test_against_hand_pearson(self):
        f = features(0.5, 3.5, 40.0)
        expected = pearson([0.5, 3.5, 40.0], [0.595, 4.102, 79.218])
        assert correlation_score(f, ref=TABLE_REF) == pytest.approx(expected)
        assert correlation_score(f, ref=TABLE_REF) == pytest.approx(
            0.9996, abs=2e-4)

    def test_constant_vector(self):
        with pytest.raises(DomainError):
            correlation_score(features(2.0, 2.0, 2.0), TABLE_REF)


def make_assessment(pid, norm, corr=0.9, power=100.0, zone="Z"):
    return SiteAssessment(point_id=pid, zone=zone, h_bar=0.5, t_bar=4.0,
                          depth=30.0, power_irregular=power,
                          power_regular=power, norm=norm, correlation=corr)


class TestRankPoints:
    def test_single(self):
        out = rank_points([make_assessment("A", 1.0)])
        assert out[0].rank == 1

    def test_norm_primary(self):
        out = rank_points([make_assessment("A", 2.0),
                           make_assessment("B", 1.0)])
        assert [s.point_id for s in out] == ["B", "A"]
        assert [s.rank for s in out] == [1, 2]

    def test_tie_break_chain(self):
        out = rank_points([
            make_assessment("C", 1.0, corr=0.5, power=10.0),
            make_assessment("B", 1.0, corr=0.5, power=20.0),
            make_assessment("A", 1.0, corr=0.9, power=5.0),
            make_assessment("D", 1.0, corr=0.5, power=20.0),
        ])
        # corr desc, then power desc, then id
        assert [s.point_id for s in out] == ["A", "B", "D", "C"]

    def test_empty(self):
        with pytest.raises(DataError):
            rank_points([])

    def test_ranking_coherence_with_power(self):
        # sites differing only in mean height, reference at the maximum:
        # distance order must equal descending parametric power order
        rng = np.random.default_rng(17)
        heights = rng.uniform(0.1, 0.9, 20)
        ref = OptimalReference(float(heights.max()), 4.0, 30.0)
        assessed = []
        for i, h in enumerate(heights):
            f = features(float(h), 4.0, 30.0, pid=f"P{i:02d}")
            assessed.append(SiteAssessment(
                point_id=f.point_id, zone="Z", h_bar=f.h_bar, t_bar=f.t_bar,
                depth=f.depth, power_irregular=parametric_power(f.h_bar, 4.0),
                power_regular=0.0, norm=deviation_norm(f, ref),
                correlation=correlation_score(f, ref)))
        by_norm = [s.point_id for s in rank_points(assessed)]
        by_power = [s.point_id for s in sorted(
            assessed, key=lambda s: -s.power_irregular)]
        assert by_norm == by_power


class TestZoneShares:
    def test_even_split(self):
        shares = zone_shares({"A": [1.0, 1.0], "B": [2.0]})
        assert shares == pytest.approx({"A": 0.5, "B": 0.5})

    def test_single_zone(self):
        assert zone_shares({"A": [3.0]}) == {"A": 1.0}

    def test_scale_invariance(self):
        z = {"A": [1.0, 2.0], "B": [4.0], "C": [0.5]}
        s1 = zone_shares(z)
        s2 = zone_shares({k: [10 * v for v in vs] for k, vs in z.items()})
        for k in z:
            assert s2[k] == pytest.approx(s1[k], rel=1e-12)

    def test_sums_to_one(self):
        shares = zone_shares({"A": [1.1, 2.2], "B": [3.3], "C": [0.7, 0.1]})
        assert abs(sum(shares.values()) - 1.0) <= 1e-12

    def test_zero_total(self):
        with pytest.raises(DomainError):
            zone_shares({"A": [0.0]})
