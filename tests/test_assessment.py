import math
import re
import tempfile
from datetime import datetime
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wavepower import data_io, pipeline
from wavepower.assessment import (
    correlation_score,
    deviation_norm,
    rank_points,
)
from wavepower.errors import DataError, DomainError, ParseError
from wavepower.mechanics import FluidEnvironment
from wavepower.spectral import parametric_power

TABLE_REF = np.array([0.595, 4.102, 79.218])


def features(*rows):
    """(H, T, d) rows as the (n, 3) array the scores take."""
    return np.array(rows, dtype=float)


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


def hand_norm(row, ref):
    # independent oracle for deviation_norm: the root of the squared
    # differences summed by hand, in Python floats
    return math.sqrt(sum((x - r) ** 2 for x, r in zip(row, ref)))


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
    # the checks that point_features leaves to regular_wave_power
    with pytest.raises(ParseError, match=f"line 2: .*: {reason}$"):
        data_io.load_features(features_table(tmp_path, **{field: bad}))


# the reference.csv column of each field
REFERENCE_COLUMN = {"h_opt": "h_opt_m", "t_opt": "t_opt_s",
                    "d_opt": "d_opt_m"}


def reference_file(path, field, value):
    """A one-row reference table at `path`, .csv or .npy by its suffix,
    with `value` as its `field`."""
    position = {"h_opt": 0.6, "t_opt": 4.1, "d_opt": 79.0}
    position[field] = value
    data_io.write_reference(SimpleNamespace(
        best_position=tuple(position.values()), best_value=3000.0), path)
    return path


def reference_fault(path, reason):
    """The ParseError message load_reference gives for `reason`: at line 2
    of a CSV, at row 0 of an .npy."""
    if path.suffix == ".csv":
        return f"^line 2: {re.escape(f'{path}: {reason}')}$"
    return f"^{re.escape(f'{path}: row 0: {reason}')}$"


@pytest.mark.parametrize("bad", NON_FINITE)
@pytest.mark.parametrize("field", ["h_opt", "t_opt", "d_opt"])
def test_reference_rejects_non_finite(tmp_path, field, bad):
    for name in ("reference.csv", "reference.npy"):
        path = reference_file(tmp_path / name, field, bad)
        with pytest.raises(ParseError, match=reference_fault(
                path, f"non-finite {REFERENCE_COLUMN[field]} {bad!r}")):
            data_io.load_reference(path)


@pytest.mark.parametrize("bad", [0.0, -0.0, -5e-324, -79.0])
@pytest.mark.parametrize("field", ["h_opt", "t_opt", "d_opt"])
def test_reference_rejects_non_positive(tmp_path, field, bad):
    for name in ("reference.csv", "reference.npy"):
        path = reference_file(tmp_path / name, field, bad)
        with pytest.raises(ParseError, match=reference_fault(
                path, f"non-positive {REFERENCE_COLUMN[field]} {bad!r}")):
            data_io.load_reference(path)


def test_reference_is_the_first_rows_position(tmp_path):
    ref = data_io.load_reference(reference_file(tmp_path / "r.csv", "d_opt",
                                                79.218))
    assert ref.dtype == float and ref.tolist() == [0.6, 4.1, 79.218]


def test_zero_mean_height_is_a_valid_feature(tmp_path):
    features = data_io.load_features(features_table(tmp_path, h="0.0"))
    assert features["h_bar_m"].tolist() == [0.0]


def mean_features(history, depth):
    """The features row pipeline.point_features builds from an hourly
    sea-state series of (H, T) states, written and loaded back as synth
    and analyze hand it on."""
    series = np.empty(len(history), dtype=data_io.SEA_STATE_DTYPE)
    series["timestamp"] = pipeline.timestamps(datetime(2006, 1, 1),
                                              len(history))
    series["hs_m"] = [h for h, _ in history]
    series["te_s"] = [t for _, t in history]
    with tempfile.TemporaryDirectory() as tmp:
        data_io.write_sea_states(series, Path(tmp) / "P.npy")
        series = data_io.load_sea_states(Path(tmp) / "P.npy")
    entry = np.array([(1, "P", "Z", 37.0, 50.0, repr(float(depth)))],
                     dtype=data_io.CATALOG_DTYPE)[0]
    row = pipeline.point_features(entry, series, FluidEnvironment())
    return np.array([row], dtype=data_io.FEATURE_DTYPE)[0]


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
        with pytest.raises(DataError, match="^P: empty sea-state series$"):
            mean_features([], depth=10.0)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 30000), seed=st.integers(0, 2 ** 32 - 1))
def test_series_fields_give_the_bits_of_contiguous_columns(n, seed):
    # point_features reduces the strided hs_m and te_s fields of a series
    # in place; its means and power are those of contiguous copies
    rng = np.random.default_rng(seed)
    series = np.empty(n, dtype=data_io.SEA_STATE_DTYPE)
    series["hs_m"] = rng.uniform(0.0, 3.0, n)
    series["te_s"] = rng.uniform(1.0, 12.0, n)
    hs, te = series["hs_m"].copy(), series["te_s"].copy()
    env = FluidEnvironment()
    entry = np.array([(1, "P", "Z", 37.0, 50.0, "10.0")],
                     dtype=data_io.CATALOG_DTYPE)[0]
    _, _, h_bar, t_bar, _, p_irr, _ = pipeline.point_features(entry, series,
                                                              env)
    assert (h_bar, t_bar, p_irr) == (float(hs.mean()), float(te.mean()),
                                     float(parametric_power(hs, te,
                                                            env).mean()))


class TestDeviationNorm:
    def test_identity(self):
        assert deviation_norm(features(TABLE_REF), TABLE_REF).tolist() == [0.0]
        rows = features((0.1, 2.0, 5.0), (1.0, 6.0, 100.0), TABLE_REF)
        assert deviation_norm(rows, TABLE_REF, mode="minmax")[2] == 0.0

    def test_3_4_5(self):
        ref = np.array([1.0, 2.0, 3.0])
        assert deviation_norm(features((4.0, 6.0, 3.0)), ref) == \
            pytest.approx([5.0])

    def test_depth_dominates_raw(self):
        f = features((0.5, 3.5, 40.0))
        expected = np.sqrt(0.095 ** 2 + 0.602 ** 2 + 39.218 ** 2)
        assert deviation_norm(f, TABLE_REF) == pytest.approx([expected])
        assert deviation_norm(f, TABLE_REF) == pytest.approx([39.223],
                                                             abs=1e-3)

    def test_minmax_unit_invariance(self):
        # rescaling a dimension (unit change) must not alter minmax norms
        pts = features((0.2, 3.0, 10.0), (0.5, 4.0, 50.0), (0.9, 5.5, 90.0))
        base = deviation_norm(pts, TABLE_REF, "minmax")
        unit = np.array([1.0, 1.0, 3.28])
        out = deviation_norm(pts * unit, TABLE_REF * unit, "minmax")
        assert out == pytest.approx(base, rel=1e-12)

    def test_degenerate_range(self):
        with pytest.raises(DomainError,
                           match="^degenerate range for dimension T$"):
            deviation_norm(features((0.1, 4.0, 5.0), (1.0, 4.0, 100.0)),
                           TABLE_REF, "minmax")

    def test_minmax_needs_ranges(self):
        # one row spans no range in any dimension
        with pytest.raises(DomainError,
                           match="^degenerate range for dimension H$"):
            deviation_norm(features((1.0, 4.0, 10.0)), TABLE_REF, "minmax")


class TestCorrelationScore:
    def test_positive_affine(self):
        score = correlation_score(features((1.0, 2.0, 3.0)),
                                  np.array([2.0, 4.0, 6.0]))
        assert score == pytest.approx([1.0])

    def test_negative_affine(self):
        score = correlation_score(features((1.0, 2.0, 3.0)),
                                  np.array([3.0, 2.0, 1.0]))
        assert score == pytest.approx([-1.0])

    def test_against_hand_pearson(self):
        f = features((0.5, 3.5, 40.0))
        expected = pearson([0.5, 3.5, 40.0], [0.595, 4.102, 79.218])
        assert correlation_score(f, ref=TABLE_REF) == pytest.approx(
            [expected])
        assert correlation_score(f, ref=TABLE_REF) == pytest.approx(
            [0.9996], abs=2e-4)

    def test_constant_vector(self):
        with pytest.raises(DomainError):
            correlation_score(features((0.5, 3.5, 40.0), (2.0, 2.0, 2.0)),
                              TABLE_REF)
        with pytest.raises(DomainError):
            correlation_score(features((0.5, 3.5, 40.0)), np.full(3, 2.0))


# (H, T, d) values in and around the paper's box, and far outside it: 0
# or 1e-50 to 1e50 in magnitude, so that no square of a difference, raw
# or min-max scaled, overflows or underflows to zero
PAPER_BOX = (st.floats(0.05, 3.0), st.floats(1.0, 20.0),
             st.floats(1.0, 200.0))
WIDE = (st.just(0.0) | st.floats(1e-50, 1e50) | st.floats(-1e50, -1e-50),) * 3


# A norm may differ from hand_norm by a few roundings of a three-term
# sum and a root, relative to it; a correlation from pearson by a few
# roundings of its centred sums, each at most 1 in magnitude.
EPS = np.finfo(float).eps
NORM_REL_TOL, CORRELATION_ABS_TOL = 4 * EPS, 16 * EPS


@settings(max_examples=300, deadline=None)
@given(data=st.data(), box=st.sampled_from([PAPER_BOX, WIDE]))
def test_scores_match_hand_sums(data, box):
    rows = data.draw(st.lists(st.tuples(*box), min_size=2, max_size=40))
    ref = data.draw(st.tuples(*box))
    vectors = np.array(rows)
    assert deviation_norm(vectors, ref).tolist() == pytest.approx(
        [hand_norm(row, ref) for row in rows], rel=NORM_REL_TOL, abs=0)
    lo, hi = (list(map(f, zip(*rows))) for f in (min, max))
    if all(l < h for l, h in zip(lo, hi)):
        scale = lambda v: [(x - l) / (h - l) for x, l, h in zip(v, lo, hi)]
        assert deviation_norm(vectors, ref, "minmax").tolist() == \
            pytest.approx([hand_norm(scale(row), scale(ref)) for row in rows],
                          rel=NORM_REL_TOL, abs=0)
    if len(set(ref)) > 1 and all(len(set(row)) > 1 for row in rows):
        assert correlation_score(vectors, ref).tolist() == pytest.approx(
            [pearson(row, ref) for row in rows], rel=0,
            abs=CORRELATION_ABS_TOL)


def site_rows():
    """Distinct-enough (H, T, d) rows in the paper's box: every dimension
    spans 1e-3 or more, and no row is constant."""
    return st.lists(st.tuples(*PAPER_BOX), min_size=2,
                    max_size=30).map(np.array).filter(
        lambda v: np.ptp(v, axis=0).min() >= 1e-3
        and (np.ptp(v, axis=1) > 0).all())


def features_array(vectors):
    """A features array of the (H, T, d) rows, points P0, P1, ..."""
    table = np.zeros(len(vectors), dtype=data_io.FEATURE_DTYPE)
    table["point"] = [f"P{i}" for i in range(len(vectors))]
    table["zone"] = "Z"
    table["h_bar_m"], table["t_bar_s"], table["depth_m"] = vectors.T
    return table


@settings(max_examples=100, deadline=None)
@given(vectors=site_rows(), ref=st.tuples(*PAPER_BOX), data=st.data(),
       mode=st.sampled_from(["raw", "minmax"]))
def test_assess_ranks_alike_in_any_row_order(vectors, ref, data, mode):
    ref = np.array(ref)
    assume(np.ptp(ref) > 0)
    table = features_array(vectors)
    order = data.draw(st.permutations(range(len(table))))
    ranked = pipeline.assess(table, ref, mode)
    again = pipeline.assess(table[list(order)], ref, mode)
    assert again.tolist() == ranked.tolist()


@settings(max_examples=100, deadline=None)
@given(vectors=site_rows(), data=st.data())
def test_norm_is_zero_at_the_reference(vectors, data):
    k = data.draw(st.integers(0, len(vectors) - 1))
    for mode in ("raw", "minmax"):
        assert deviation_norm(vectors, vectors[k], mode)[k] == 0.0


@settings(max_examples=100, deadline=None)
@given(vectors=site_rows(), ref=st.tuples(*PAPER_BOX))
def test_correlation_lies_in_minus_one_to_one(vectors, ref):
    assume(np.ptp(ref) > 0)
    score = correlation_score(vectors, np.array(ref))
    assert ((-1 <= score) & (score <= 1)).all()


@settings(max_examples=100, deadline=None)
@given(vectors=site_rows(), ref=st.tuples(*PAPER_BOX),
       dim=st.integers(0, 2), scale=st.floats(0.01, 100.0),
       shift=st.floats(-100.0, 100.0))
def test_minmax_norm_survives_an_affine_map_of_a_dimension(vectors, ref,
                                                          dim, scale,
                                                          shift):
    # x -> scale * (x + shift) in one dimension, of the rows and the
    # reference alike. Rounding the map and the min-max scaling moves a
    # scaled coordinate by about 8 * eps * (200 + 100) / 1e-3 of its size
    # at most, 5e-10, for values to 200, shifts to 100 and spans of 1e-3
    ref = np.array(ref)
    base = deviation_norm(vectors, ref, "minmax")
    vectors = vectors.copy()
    vectors[:, dim] = scale * (vectors[:, dim] + shift)
    ref[dim] = scale * (ref[dim] + shift)
    assert deviation_norm(vectors, ref, "minmax") == pytest.approx(
        base, rel=1e-8, abs=1e-8)


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

    @pytest.mark.parametrize("mode", ["raw", "minmax"])
    def test_assess_refuses_no_rows_in_either_mode(self, mode):
        empty = np.zeros(0, dtype=data_io.FEATURE_DTYPE)
        with pytest.raises(DataError, match="nothing to rank"):
            pipeline.assess(empty, np.array([1.0, 2.0, 3.0]), mode)

    def test_derived_bounds_refuses_no_rows(self):
        empty = np.zeros(0, dtype=data_io.FEATURE_DTYPE)
        with pytest.raises(DataError, match="no features to bound"):
            pipeline.derived_bounds(empty)

    def test_ranking_coherence_with_power(self):
        # sites differing only in mean height, reference at the maximum:
        # distance order must equal descending parametric power order
        rng = np.random.default_rng(17)
        heights = rng.uniform(0.1, 0.9, 20)
        vectors = features(*((h, 4.0, 30.0) for h in heights.tolist()))
        ref = vectors[heights.argmax()]
        rows = assessed(*(
            (f"P{i:02d}", "Z", h, 4.0, 30.0, parametric_power(h, 4.0), 0.0,
             0.0, 0.0, 0) for i, h in enumerate(heights.tolist())))
        rows["norm"] = deviation_norm(vectors, ref)
        rows["correlation"] = correlation_score(vectors, ref)
        by_norm = rank_points(rows)["point"].tolist()
        by_power = rows["point"][np.argsort(-rows["power_irregular_wpm"],
                                            kind="stable")].tolist()
        assert by_norm == by_power


def zone_results(powers_by_zone):
    """A results array of one point per power, zone by zone."""
    pairs = [(zone, p) for zone, powers in powers_by_zone.items()
             for p in powers]
    results = np.zeros(len(pairs), dtype=data_io.RESULT_DTYPE)
    results["point"] = [f"P{i}" for i in range(len(pairs))]
    results["zone"] = [zone for zone, _ in pairs]
    results["power_irregular_wpm"] = [p for _, p in pairs]
    return results


def shares_of(powers_by_zone):
    """zone -> share, from pipeline.zone_totals on zone_results."""
    table = pipeline.zone_totals(zone_results(powers_by_zone))
    return dict(zip(table["zone"].tolist(), table["share"].tolist()))


class TestZoneShares:
    def test_even_split(self):
        table = pipeline.zone_totals(zone_results(
            {"A": [1.0, 1.0], "B": [2.0]}))
        assert table.tolist() == [("A", 2.0, 0.5), ("B", 2.0, 0.5)]

    def test_single_zone(self):
        assert shares_of({"A": [3.0]}) == {"A": 1.0}

    def test_scale_invariance(self):
        z = {"A": [1.0, 2.0], "B": [4.0], "C": [0.5]}
        s1 = shares_of(z)
        s2 = shares_of({k: [10 * v for v in vs] for k, vs in z.items()})
        for k in z:
            assert s2[k] == pytest.approx(s1[k], rel=1e-12)

    def test_sums_to_one(self):
        shares = shares_of({"A": [1.1, 2.2], "B": [3.3], "C": [0.7, 0.1]})
        assert abs(sum(shares.values()) - 1.0) <= 1e-12

    def test_zero_total(self):
        with pytest.raises(DomainError):
            shares_of({"A": [0.0]})

    def test_totals_whose_sum_overflows(self):
        # each zone total is finite, their sum is not
        with pytest.raises(DomainError, match="positive and finite"):
            shares_of({"A": [1e308], "B": [1e308]})
