from datetime import datetime

import numpy as np
import pytest

from wavepower import data_io, pipeline
from wavepower.assessment import (
    OptimalReference,
    correlation_score,
    deviation_norm,
    rank_points,
    zone_shares,
)
from wavepower.data_io import SeaStateSeries
from wavepower.errors import DataError, DomainError, ParseError, ScalingError
from wavepower.mechanics import FluidEnvironment
from wavepower.spectral import parametric_power

TABLE_REF = OptimalReference(h_opt=0.595, t_opt=4.102, d_opt=79.218)


def features(h, t, d):
    """One site's (H, T, d) row."""
    return (h, t, d)


def feature_ranges(rows):
    """Per-dimension (min, max) over (H, T, d) rows, as pipeline.assess
    takes them for minmax scaling."""
    return tuple(zip(np.min(rows, axis=0), np.max(rows, axis=0)))


def features_table(tmp_path, h="0.5", t="4.0", d="30.0"):
    """A one-row features.csv with the given mean height, period, depth."""
    path = tmp_path / "features.csv"
    path.write_text(",".join(data_io.FEATURE_DTYPE.names)
                    + f"\nP,Z,{h},{t},{d},100.0,110.0\n")
    return path


def pearson(x, y):
    # independent oracle for correlation_score
    x, y = np.asarray(x, float), np.asarray(y, float)
    xc, yc = x - x.mean(), y - y.mean()
    return float(np.sum(xc * yc) / np.sqrt(np.sum(xc ** 2) * np.sum(yc ** 2)))


NON_FINITE = [np.nan, np.inf, -np.inf]


# the features.csv column of each field
COLUMN = {"h_bar": "h_bar_m", "t_bar": "t_bar_s", "depth": "depth_m"}


@pytest.mark.parametrize("bad", NON_FINITE)
@pytest.mark.parametrize("field", ["h_bar", "t_bar", "depth"])
def test_point_features_reject_non_finite(tmp_path, field, bad):
    path = features_table(tmp_path, **{field[0]: repr(bad)})
    with pytest.raises(ParseError, match=f"line 2: .*non-finite "
                                         f"{COLUMN[field]} {bad!r}"):
        data_io.load_features(path)


@pytest.mark.parametrize("field,bad,reason", [
    ("h", "-0.1", "negative h_bar_m -0.1"),
    ("t", "0.0", "non-positive t_bar_s 0.0"),
    ("t", "-4", "non-positive t_bar_s -4"),
    ("d", "0", "non-positive depth_m 0"),
    ("d", "-5e-324", "non-positive depth_m -5e-324")])
def test_point_features_reject_out_of_domain_means(tmp_path, field, bad,
                                                   reason):
    # the checks that feature_rows leaves to regular_wave_power
    with pytest.raises(ParseError, match=f"line 2: .*: {reason}$"):
        data_io.load_features(features_table(tmp_path, **{field: bad}))


@pytest.mark.parametrize("bad", NON_FINITE)
@pytest.mark.parametrize("field", ["h_opt", "t_opt", "d_opt"])
def test_reference_rejects_non_finite(field, bad):
    kwargs = dict(h_opt=0.6, t_opt=4.1, d_opt=79.0)
    kwargs[field] = bad
    with pytest.raises(DomainError, match="positive and finite"):
        OptimalReference(**kwargs)


def test_zero_mean_height_is_a_valid_feature(tmp_path):
    features = data_io.load_features(features_table(tmp_path, h="0.0"))
    assert features["h_bar_m"].tolist() == [0.0]


def mean_features(history, depth):
    """The features row pipeline.feature_rows builds from an hourly
    sea-state series of (H, T) states."""
    hs = [h for h, _ in history]
    te = [t for _, t in history]
    series = SeaStateSeries(
        point="P", times=pipeline.timestamps(datetime(2006, 1, 1), len(hs)),
        hs=hs, te=te)
    entry = np.array([(1, "P", "Z", 37.0, 50.0, repr(float(depth)))],
                     dtype=data_io.CATALOG_DTYPE)[0]
    env = FluidEnvironment()
    return pipeline.feature_rows(
        [pipeline.point_features(entry, series, env)], env)[0]


class TestFeatureVector:
    def test_constant_history(self):
        f = mean_features([(1.0, 4.0), (1.0, 4.0)], depth=10.0)
        assert (f["h_bar_m"], f["t_bar_s"]) == (1.0, 4.0)

    def test_two_point_mean(self):
        f = mean_features([(0.4, 3.0), (0.8, 5.0)], depth=10.0)
        assert f["h_bar_m"] == pytest.approx(0.6)
        assert f["t_bar_s"] == pytest.approx(4.0)

    def test_single_entry(self):
        f = mean_features([(0.7, 6.0)], depth=2.0)
        assert (f["point"], f["zone"]) == ("P", "Z")
        assert (f["h_bar_m"], f["t_bar_s"], f["depth_m"]) == (0.7, 6.0, 2.0)

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
            return features(f[0], f[1], f[2] * c)

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
    """One row of a results array, rank unset."""
    return (pid, zone, 0.5, 4.0, 30.0, power, power, norm, corr, 0)


def assessed(*rows):
    """The results array (data_io.RESULT_DTYPE) of make_assessment rows."""
    return np.array(list(rows), dtype=data_io.RESULT_DTYPE)


class TestRankPoints:
    def test_single(self):
        out = rank_points(assessed(make_assessment("A", 1.0)))
        assert out[0]["rank"] == 1

    def test_norm_primary(self):
        given = assessed(make_assessment("A", 2.0), make_assessment("B", 1.0))
        out = rank_points(given)
        assert out["point"].tolist() == ["B", "A"]
        assert out["rank"].tolist() == [1, 2]
        assert given["point"].tolist() == ["A", "B"]  # a copy is ranked

    def test_tie_break_chain(self):
        out = rank_points(assessed(
            make_assessment("C", 1.0, corr=0.5, power=10.0),
            make_assessment("B", 1.0, corr=0.5, power=20.0),
            make_assessment("A", 1.0, corr=0.9, power=5.0),
            make_assessment("D", 1.0, corr=0.5, power=20.0),
        ))
        # corr desc, then power desc, then id
        assert out["point"].tolist() == ["A", "B", "D", "C"]

    def test_empty(self):
        with pytest.raises(DataError):
            rank_points(assessed())

    def test_ranking_coherence_with_power(self):
        # sites differing only in mean height, reference at the maximum:
        # distance order must equal descending parametric power order
        rng = np.random.default_rng(17)
        heights = rng.uniform(0.1, 0.9, 20)
        ref = OptimalReference(float(heights.max()), 4.0, 30.0)
        rows = assessed(*(
            (f"P{i:02d}", "Z", h, 4.0, 30.0, parametric_power(h, 4.0), 0.0,
             deviation_norm(features(h, 4.0, 30.0), ref),
             correlation_score(features(h, 4.0, 30.0), ref), 0)
            for i, h in enumerate(heights.tolist())))
        by_norm = rank_points(rows)["point"].tolist()
        by_power = rows["point"][np.argsort(-rows["power_irregular_wpm"],
                                            kind="stable")].tolist()
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
