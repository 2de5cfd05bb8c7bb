import csv
import io
import re
import struct
import tempfile
import warnings
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from wavepower import cli, data_io, pipeline
from wavepower.assessment import rank_points
from wavepower.errors import DataError, DomainError, ParseError
from wavepower.gwo import GwoRun, SearchBounds
from wavepower.spectral import ElevationRecord, VarianceDensitySpectrum

from test_assessment import assessed, make_assessment


class TestBuiltinCatalog:
    def test_coordinate_window(self):
        cat = data_io.builtin_catalog()
        assert ((36 <= cat["lat_deg"]) & (cat["lat_deg"] <= 39)).all()
        assert ((48 <= cat["lon_deg"]) & (cat["lon_deg"] <= 54)).all()

    def test_no_depths(self):
        assert data_io.builtin_catalog()["depth_m"].tolist() == [""] * 105

    def test_with_depths(self):
        cat = data_io.builtin_catalog()
        deep = pipeline.apply_depths(cat, depth_range=(11, 11))
        assert deep["depth_m"].tolist() == ["11.0"] * 105
        assert cat["depth_m"].tolist() == [""] * 105  # a copy is changed
        spread = pipeline.apply_depths(cat, depth_range=(5.0, 109.0))
        assert spread["depth_m"][[0, 52, 104]].tolist() == [
            "5.0", "57.0", "109.0"]
        assert pipeline.apply_depths(spread) is not spread
        assert same_fields(pipeline.apply_depths(spread), spread)


CATALOG_HEADER = "index,name,zone,lat_deg,lon_deg,depth_m\n"


def one_row_catalog(directory, **fields):
    """catalog.csv under `directory` of one row, point P1 of zone A at
    (37.0, 49.0) with no depth, unless `fields` says otherwise; every text
    field is quoted, so a carriage return stays inside its field."""
    row = dict(dict(index=1, name="P1", zone="A", lat_deg=37.0, lon_deg=49.0,
                    depth_m=""), **fields)
    path = directory / "catalog.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n",
                            quoting=csv.QUOTE_NONNUMERIC)
        writer.writerow(data_io.CATALOG_DTYPE.names)
        writer.writerow([row[n] for n in data_io.CATALOG_DTYPE.names])
    return path


class TestCatalogIO:
    def test_round_trip(self, tmp_path):
        cat = data_io.builtin_catalog()
        cat["depth_m"] = [repr(float(i)) for i in cat["index"].tolist()]
        path = tmp_path / "catalog.csv"
        data_io.write_table(cat, path)
        assert same_fields(data_io.load_catalog(path), cat)

    def test_round_trip_quoted_zones(self, tmp_path):
        cat = np.array([(1, "P1", "Bandar, Anzali", 37.5, 49.5, "12.5"),
                        (2, "P2", 'Say "Hi"', 37.6, 49.6, "")],
                       dtype=data_io.CATALOG_DTYPE)
        path = tmp_path / "catalog.csv"
        data_io.write_table(cat, path)
        assert path.read_text().splitlines()[1:] == [
            '1,P1,"Bandar, Anzali",37.5,49.5,12.5',
            '2,P2,"Say ""Hi""",37.6,49.6,']
        assert same_fields(data_io.load_catalog(path), cat)

    def test_small_file(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text(CATALOG_HEADER + "1,P1,Alpha,37.0,50.0,12.5\n"
                                         "2,P2,Alpha,37.1,50.1,\n")
        cat = data_io.load_catalog(path)
        assert cat[["name", "depth_m"]].tolist() == [("P1", "12.5"),
                                                     ("P2", "")]

    def test_duplicate_names(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text(CATALOG_HEADER + "1,P1,A,37.0,50.0,\n"
                                         "2,P1,A,37.1,50.1,\n")
        with pytest.raises(ParseError, match="line 3: .*duplicate point "
                                             "name 'P1'"):
            data_io.load_catalog(path)

    def test_missing_columns(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("index,name,lat_deg\n1,P1,37.0\n")
        with pytest.raises(ParseError, match="zone"):
            data_io.load_catalog(path)

    def test_out_of_range_coordinates(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text(CATALOG_HEADER + "1,P1,A,95.0,50.0,\n")
        with pytest.raises(ParseError, match="out of range"):
            data_io.load_catalog(path)

    @pytest.mark.parametrize("depth", ["inf", "nan", "-inf", "0"])
    def test_depth_must_be_positive_and_finite(self, tmp_path, depth):
        path = tmp_path / "c.csv"
        path.write_text(CATALOG_HEADER + "1,P1,A,37.0,50.0,3\n"
                                         f"2,P2,A,37.0,50.0,{depth}\n")
        with pytest.raises(ParseError, match="line 3: .*depth must be "
                                             "positive and finite"):
            data_io.load_catalog(path)

    @pytest.mark.parametrize("row", ["2,P2,A,37.0,50.0,3,9",
                                     "2,P2,A,37.0,50.0,3,",
                                     "2,P2,A,37.0,50.0"])
    def test_row_with_another_field_count(self, tmp_path, row):
        path = tmp_path / "c.csv"
        path.write_text(CATALOG_HEADER + f"1,P1,A,37.0,50.0,3\n{row}\n")
        with pytest.raises(ParseError, match="line 3: .*expected 6 fields"):
            data_io.load_catalog(path)

    def test_negative_index(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text(CATALOG_HEADER + "0,P1,A,37.0,50.0,\n"
                                         "-5,P2,A,37.0,50.0,\n")
        with pytest.raises(ParseError, match="line 3: .*negative index -5"):
            data_io.load_catalog(path)

    def test_npy_with_the_catalog_header_is_refused(self, tmp_path):
        # object fields cannot be taken from an .npy file's bytes
        path = tmp_path / "catalog.npy"
        header = io.BytesIO()
        np.lib.format.write_array_header_1_0(header, {
            "descr": np.lib.format.dtype_to_descr(data_io.CATALOG_DTYPE),
            "fortran_order": False, "shape": (1,)})
        path.write_bytes(header.getvalue()
                         + bytes(data_io.CATALOG_DTYPE.itemsize))
        with pytest.raises(ParseError, match="unreadable .npy file"):
            data_io.load_catalog(path)

    @pytest.mark.parametrize("text", ["a\rb", "a\nb", "\x00", "a\x85",
                                      "a\x1fb", " P", "P\t", "a\u2028b",
                                      "a\u2029b"])
    @pytest.mark.parametrize("field", ["name", "zone"])
    def test_control_characters_rejected(self, tmp_path, text, field):
        path = one_row_catalog(tmp_path, **{field: text})
        if text != text.strip():
            # the reader strips surrounding whitespace, "\x85" included,
            # so no loaded name or zone holds any
            assert data_io.load_catalog(path)[field].tolist() == [
                text.strip()]
            return
        with pytest.raises(ParseError, match="control characters"):
            data_io.load_catalog(path)

    @pytest.mark.parametrize("name", ["", ".", "..", "a/b", "../../x",
                                      "a\\b", "/"])
    def test_name_must_be_one_file_name(self, tmp_path, name):
        with pytest.raises(ParseError, match="line 2: .*point name"):
            data_io.load_catalog(one_row_catalog(tmp_path, name=name))

    @pytest.mark.parametrize("name", ["P.1", "...", "a..b", "Bandar Anzali"])
    def test_dotted_and_spaced_names_accepted(self, tmp_path, name):
        path = one_row_catalog(tmp_path, name=name)
        assert data_io.load_catalog(path)["name"].tolist() == [name]


def catalog_row_ok(index, name, zone, lat, lon, depth):
    """Whether load_catalog takes a catalog row of these fields."""
    clean = not any(_CONTROL_CHARS.search(t) for t in (name, zone))
    return (index >= 0 and clean and name not in ("", ".", "..")
            and not any(c in name for c in "/\\")
            and -90 <= lat <= 90 and -180 <= lon <= 180
            and (depth == "" or 0 < float(depth) < float("inf")))


_CONTROL_CHARS = re.compile("[\x00-\x1f\x7f-\x9f\u2028\u2029]")
# catalog rows as write_table may be given them: any index, text
# without surrounding whitespace (which the reader strips), coordinates
# in and out of range, and no depth or the repr of any float
CATALOG_ROWS = st.tuples(
    st.integers(-2 ** 63, 2 ** 63 - 1),
    st.text(max_size=6).map(str.strip), st.text(max_size=6).map(str.strip),
    st.floats(-180, 180) | st.floats(), st.floats(-180, 180) | st.floats(),
    st.just("") | (st.floats(0, 1e4) | st.floats()).map(repr))


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(CATALOG_ROWS, min_size=1, max_size=6,
                     unique_by=lambda r: r[1]))
def test_written_catalog_loads_back_equal(rows):
    # a catalog write_table is given loads back with the same fields if
    # every row is one load_catalog takes, else it is refused
    catalog = np.array(rows, dtype=data_io.CATALOG_DTYPE)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "catalog.csv"
        data_io.write_table(catalog, path)
        if all(catalog_row_ok(*row) for row in rows):
            assert same_fields(data_io.load_catalog(path), catalog)
        else:
            with pytest.raises(ParseError):
                data_io.load_catalog(path)


TWO_HOURS = data_io.parse_timestamps(("2006-01-01T00:00:00Z",
                                      "2006-01-01T01:00:00Z"))


def sea_states(hs, te, times=TWO_HOURS):
    """The sea-state series (a SEA_STATE_DTYPE array) of these columns."""
    series = np.empty(len(times), dtype=data_io.SEA_STATE_DTYPE)
    series["timestamp"], series["hs_m"], series["te_s"] = times, hs, te
    return series


class TestSeaStateIO:
    def test_decreasing_timestamp(self, tmp_path):
        path = tmp_path / "P1.csv"
        path.write_text("timestamp,hs_m,te_s\n"
                        "2006-01-01T02:00:00Z,0.4,3.0\n"
                        "2006-01-01T01:00:00Z,0.5,4.0\n")
        with pytest.raises(ParseError, match="line 3"):
            data_io.load_sea_states(path)

    def test_negative_hs(self, tmp_path):
        path = tmp_path / "P1.csv"
        path.write_text("timestamp,hs_m,te_s\n2006-01-01T00:00:00Z,-0.1,3.0\n")
        with pytest.raises(ParseError, match="negative Hs"):
            data_io.load_sea_states(path)

    def test_empty_series(self, tmp_path):
        path = tmp_path / "P1.csv"
        path.write_text("timestamp,hs_m,te_s\n")
        with pytest.raises(DataError):
            data_io.load_sea_states(path)

    def test_mixed_timestamp_formats(self, tmp_path):
        # "2006-01-02" sorts after the first stamp as text
        path = tmp_path / "P1.csv"
        path.write_text("timestamp,hs_m,te_s\n"
                        "2006-01-01T00:00:00Z,0.4,3.0\n"
                        "2006-01-02,0.5,4.0\n")
        with pytest.raises(ParseError, match="line 3: .*bad timestamp"):
            data_io.load_sea_states(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("column", ["Hs", "Te"])
    def test_non_finite_values(self, tmp_path, value, column):
        hs, te = (value, "3.0") if column == "Hs" else ("0.4", value)
        path = tmp_path / "P1.csv"
        path.write_text("timestamp,hs_m,te_s\n"
                        "2006-01-01T00:00:00Z,0.4,3.0\n"
                        f"2006-01-01T01:00:00Z,{hs},{te}\n")
        with pytest.raises(ParseError, match=f"line 3: .*non-finite {column}"):
            data_io.load_sea_states(path)


def reference_fault(times, hs, te):
    """The sea-state row checks one row at a time, in their order: the
    first bad row and its first failing check, or None."""
    for row in range(times.size):
        t, h, p = times[row], hs[row], te[row]
        checks = [
            (not data_io.FIRST_TIME <= t <= data_io.LAST_TIME,
             data_io._BAD_STAMP),
            (row > 0 and not t > times[row - 1],
             "non-increasing timestamp {timestamp}"),
            (not np.isfinite(h), "non-finite Hs {hs_m}"),
            (not np.isfinite(p), "non-finite Te {te_s}"),
            (h < 0, "negative Hs {hs_m}"),
            (p <= 0, "non-positive Te {te_s}"),
        ]
        for bad, reason in checks:
            if bad:
                return row, reason
    return None


NAT = np.iinfo(np.int64).min
EDGE_SECONDS = [int(data_io.FIRST_TIME.astype(np.int64)) - 1,
                int(data_io.FIRST_TIME.astype(np.int64)),
                int(data_io.LAST_TIME.astype(np.int64)),
                int(data_io.LAST_TIME.astype(np.int64)) + 1, NAT]


VALID_HS = [0.0, -0.0, 0.5, 1e300]
VALID_TE = [5e-324, 3.0, 1e300]
ANY_VALUE = VALID_HS + [-0.1, -5e-324, np.nan, np.inf, -np.inf]


@settings(max_examples=400, deadline=None)
@given(data=st.data(), n=st.integers(1, 8))
def test_row_checks_match_the_one_row_reference(data, n):
    # steps of -1, 0 and +1 s test "strictly increasing"; the edge times
    # are the ends of the writable range, a second beyond each, and NaT.
    # Each column is all valid values half of the time, so a single bad
    # time or value is met often.
    start = data.draw(st.sampled_from([1136073600] + EDGE_SECONDS))
    steps = data.draw(st.lists(st.sampled_from([-1, 0, 1, 3600]),
                               min_size=n - 1, max_size=n - 1))
    seconds = np.cumsum([start] + steps) if start != NAT else \
        np.full(n, NAT)
    times = seconds.astype("datetime64[s]")
    if data.draw(st.booleans()):
        times[data.draw(st.integers(0, n - 1))] = data.draw(
            st.sampled_from(EDGE_SECONDS))

    def column(valid):
        pool = valid if data.draw(st.booleans()) else ANY_VALUE
        return np.array(data.draw(st.lists(st.sampled_from(pool),
                                           min_size=n, max_size=n)))

    hs, te = column(VALID_HS), column(VALID_TE)
    fault = reference_fault(times, hs, te)
    if fault:  # the reason holds the row's values, its time formatted
        row, reason = fault
        fault = None, f"row {row}: " + reason.format(
            timestamp=str(data_io.format_timestamps(times)[row]),
            hs_m=hs[row], te_s=te[row])
    series = sea_states(hs, te, times)
    assert data_io._row_fault(series, data_io._sea_state_checks(series)) \
        == fault


def refusals(directory, series):
    """The messages with which write_sea_states refuses `series`, and
    load_sea_states refuses it as written unchecked to P1.npy and P1.csv
    under `directory`; the writer leaves no file."""
    with pytest.raises(DataError) as refused:
        data_io.write_sea_states(series, directory / "P1.npy")
    assert not (directory / "P1.npy").exists()
    messages = [str(refused.value)]
    for name in ("P1.npy", "P1.csv"):
        data_io.write_table(series, directory / name)
        with pytest.raises(ParseError) as refused:
            data_io.load_sea_states(directory / name)
        messages.append(str(refused.value))
    return messages


class TestSeaStateSeries:
    """The writer refuses a faulty series with the text the loader gives
    for the .npy, the point in place of the path."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, tmp_path, bad):
        npy, csv = tmp_path / "P1.npy", tmp_path / "P1.csv"
        for column, series in (("Hs", sea_states([0.4, bad], [3.0, 4.0])),
                               ("Te", sea_states([0.4, 0.5], [bad, 4.0]))):
            row = 1 if column == "Hs" else 0
            reason = f"non-finite {column} {bad}"
            assert refusals(tmp_path, series) == [
                f"P1: row {row}: {reason}", f"{npy}: row {row}: {reason}",
                f"line {row + 2}: {csv}: {reason}"]
            for path in (npy, csv):
                path.unlink()

    def test_timestamps_compared_as_times(self, tmp_path):
        write, npy, csv = refusals(tmp_path, sea_states(
            [0.4, 0.5], [3.0, 4.0], data_io.parse_timestamps(
                ("2006-01-01T00:00:00Z", "2006-01-02"))))
        assert write.startswith("P1: row 1: bad timestamp 'NaT'")
        assert npy == write.replace("P1", str(tmp_path / "P1.npy"), 1)
        assert csv.startswith(f"line 3: {tmp_path / 'P1.csv'}: bad "
                              f"timestamp 'NaT'")

    def test_datetime64_timestamps(self, tmp_path):
        # other units are held in the series' seconds
        times = np.array(["2006-01-01T00:00", "2006-01-01T01:00"],
                         dtype="datetime64[m]")
        series = sea_states([0.4, 0.5], [3.0, 4.0], times)
        assert np.array_equal(series["timestamp"], TWO_HOURS)
        data_io.write_sea_states(series, tmp_path / "P1.npy")
        loaded = data_io.load_sea_states(tmp_path / "P1.npy")
        assert np.array_equal(loaded["timestamp"], times)

    def test_year_beyond_9999_rejected(self, tmp_path):
        times = np.array(["9999-12-31T23:00:00", "10000-01-01T00:00:00"],
                         dtype="datetime64[s]")
        write, npy, csv = refusals(tmp_path, sea_states([0.4, 0.5],
                                                        [3.0, 4.0], times))
        assert write.startswith(
            "P1: row 1: bad timestamp '10000-01-01T00:00:00Z'")
        assert npy == write.replace("P1", str(tmp_path / "P1.npy"), 1)
        assert "line 3: " in csv and "bad timestamp" in csv

    def test_empty_series_rejected(self, tmp_path):
        with pytest.raises(DataError, match="^P1: empty sea-state series$"):
            data_io.write_sea_states(sea_states([], [], TWO_HOURS[:0]),
                                     tmp_path / "P1.npy")
        assert not (tmp_path / "P1.npy").exists()

    @pytest.mark.parametrize("series", [
        sea_states([0.4, 0.5], [3.0, 4.0]).reshape(1, 2),
        sea_states([0.4, 0.5], [3.0, 4.0])[["timestamp", "hs_m"]],
        sea_states([0.4, 0.5], [3.0, 4.0]).astype(
            [("timestamp", "<M8[m]"), ("hs_m", "<f8"), ("te_s", "<f8")])],
        ids=["2-D", "a field short", "minutes"])
    def test_other_arrays_rejected(self, tmp_path, series):
        # arrays whose .npy load_sea_states would refuse
        with pytest.raises(DataError, match="^P1: expected a 1-D array of "
                           "fields timestamp <M8\\[s\\], hs_m <f8, te_s <f8"):
            data_io.write_sea_states(series, tmp_path / "P1.npy")
        assert not (tmp_path / "P1.npy").exists()


def test_field_names_are_escaped_in_messages(tmp_path):
    # a name from a file's header keeps each message on one line; a
    # printable name is written as it is
    series = sea_states([0.4, 0.5], [3.0, 4.0]).astype(
        [("\x0bimestamp", "<M8[s]"), ("hs\u2028m", "<f8"), ("te s", "<f8")])
    got = r"\x0bimestamp <M8[s], hs\u2028m <f8, te s <f8"
    with pytest.raises(DataError) as write:
        data_io.write_sea_states(series, tmp_path / "P1.npy")
    np.save(tmp_path / "P1.npy", series, allow_pickle=False)
    with pytest.raises(ParseError) as load:
        data_io.load_sea_states(tmp_path / "P1.npy")
    for message, end in ((str(write.value), f"got shape (2,) of {got}"),
                         (str(load.value), f"got {got}")):
        assert len(message.splitlines()) == 1, message
        assert message.endswith(end), message


@settings(max_examples=100, deadline=None)
@given(data=st.data(), n=st.integers(1, 4))
def test_writer_refuses_what_the_loader_refuses(data, n):
    # times and values from the pools of the row-check test above; a
    # series the writer takes loads back with its bits from either format
    times = np.array(data.draw(st.lists(st.sampled_from(
        [1136073600, 1136077200] + EDGE_SECONDS), min_size=n, max_size=n)),
        dtype="datetime64[s]")
    series = sea_states(
        data.draw(st.lists(st.sampled_from(ANY_VALUE), min_size=n,
                           max_size=n)),
        data.draw(st.lists(st.sampled_from(VALID_TE + ANY_VALUE),
                           min_size=n, max_size=n)), times)
    with tempfile.TemporaryDirectory() as tmp:
        refused = {}
        for name in ("P1.npy", "P1.csv"):
            data_io.write_table(series, Path(tmp) / name)
            try:
                data_io.load_sea_states(Path(tmp) / name)
            except ParseError as exc:
                refused[name] = str(exc)
        out = Path(tmp) / "out"
        out.mkdir()
        try:
            for name in ("P1.npy", "P1.csv"):
                data_io.write_sea_states(series, out / name)
                assert data_io.load_sea_states(out / name).tobytes() == \
                    series.tobytes()
        except DataError as exc:
            assert refused["P1.npy"] == str(exc).replace(
                "P1", str(Path(tmp) / "P1.npy"), 1)
            assert "P1.csv" in refused
        else:
            assert not refused


class TestTimestamps:
    def test_round_trip(self):
        stamps = ("0001-01-01T00:00:00Z", "2006-01-01T13:05:09Z",
                  "9999-12-31T23:59:59Z")
        times = data_io.parse_timestamps(stamps)
        assert times.dtype == np.dtype("datetime64[s]")
        assert times[1] == np.datetime64("2006-01-01T13:05:09")
        assert tuple(data_io.format_timestamps(times)) == stamps

    @pytest.mark.parametrize("text", [
        "2006-01-02", "2006-01-01T00:00:00", "2006-01-01T00:00Z",
        "2006-01-01T00:00:00.0Z", "2006-01-01 00:00:00Z",
        "2006-01-01T00:00+01Z", "2006-01-01T00:00:00+01:00",
        "2006-13-01T00:00:00Z", "2006-02-30T00:00:00Z", "2006-1-1T0:0:0Z",
        "NaTZ", "NaT", "", "Z",
        # years numpy reads and writes back, but four digits cannot spell
        "-001-01-01T00:00:00Z", "10000-01-01T00:00:00Z"])
    def test_anything_else_is_nat(self, text, recwarn):
        times = data_io.parse_timestamps(["2006-01-01T00:00:00Z", text])
        assert not np.isnat(times[0]) and np.isnat(times[1])
        assert len(recwarn) == 0

    def test_format_nat(self):
        times = np.array(["NaT", "2006-01-01T00:00:00"], dtype="datetime64[s]")
        assert data_io.format_timestamps(times).tolist() == [
            "NaT", "2006-01-01T00:00:00Z"]


class TestElevationIO:
    def test_uniform_dt(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("time_s,eta_m\n0.0,0.1\n0.5,0.2\n1.0,0.3\n")
        assert data_io.load_elevation(path).dt == 0.5

    def test_bad_float_names_its_line(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("time_s,eta_m\n0.0,0.1\n\n0.5,x\n")
        with pytest.raises(ParseError, match="line 4: .*could not convert"):
            data_io.load_elevation(path)

    def test_jittered_sampling(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("time_s,eta_m\n0.0,0.1\n0.5,0.2\n1.2,0.3\n")
        with pytest.raises(ParseError, match="non-uniform"):
            data_io.load_elevation(path)


EDGE_FLOATS = [-np.inf, -1e308, -1.0, 0.0, 1.0, 1e308, np.inf, np.nan]


@settings(max_examples=300, deadline=None)
@given(times=arrays(np.float64, st.integers(1, 6),
                    elements=st.sampled_from(EDGE_FLOATS)),
       eta=st.lists(st.sampled_from(EDGE_FLOATS), min_size=6, max_size=6))
def test_elevation_checks_find_the_fault_of_every_row_mask(times, eta):
    # a record's first fault is the first of every row mask, in the order
    # finite time, finite elevation, increasing time
    record = data_io._table(data_io.ELEVATION_DTYPE, times, eta[:times.size])
    every_mask = data_io._finite(record) + [
        (data_io._not_after_previous(times), "non-increasing time_s {time_s}")]
    assert data_io._row_fault(record, data_io._elevation_checks(record)) \
        == data_io._row_fault(record, every_mask)


class TestNpyHandOff:
    def test_sea_state_layout(self, tmp_path):
        series = sea_states([0.4, 0.5], [3.0, 4.0])
        data_io.write_sea_states(series, tmp_path / "P1.npy")
        arr = np.load(tmp_path / "P1.npy", allow_pickle=False)
        assert arr.dtype.names == ("timestamp", "hs_m", "te_s")
        assert arr.dtype == data_io.SEA_STATE_DTYPE
        assert arr["timestamp"][1] == np.datetime64("2006-01-01T01:00:00")
        assert arr["hs_m"].tolist() == [0.4, 0.5]

    def test_elevation_layout(self, tmp_path):
        rec = ElevationRecord(dt=0.5, samples=[0.1, -0.2, 0.3])
        data_io.write_elevation(rec, tmp_path / "e.npy")
        arr = np.load(tmp_path / "e.npy", allow_pickle=False)
        assert arr.dtype == data_io.ELEVATION_DTYPE
        assert arr["time_s"].tolist() == [0.0, 0.5, 1.0]
        assert arr["eta_m"].tolist() == [0.1, -0.2, 0.3]

    def test_csv_export_of_npy_input(self, tmp_path):
        series = sea_states([0.4, 0.5], [3.0, 4.0])
        data_io.write_sea_states(series, tmp_path / "P1.npy")
        data_io.write_sea_states(data_io.load_sea_states(tmp_path / "P1.npy"),
                                 tmp_path / "P1.csv")
        assert (tmp_path / "P1.csv").read_text() == (
            "timestamp,hs_m,te_s\n2006-01-01T00:00:00Z,0.4,3.0\n"
            "2006-01-01T01:00:00Z,0.5,4.0\n")

    @pytest.mark.parametrize("dtype,content,match", [
        (data_io.SEA_STATE_DTYPE, lambda a: a[:0], "no data rows"),
        (data_io.SEA_STATE_DTYPE, lambda a: a.reshape(1, -1),
         "expected a 1-D array"),
        (data_io.SEA_STATE_DTYPE,
         lambda a: a.astype([("time", "<M8[s]"), ("hs_m", "<f8"),
                             ("te_s", "<f8")]), "expected fields timestamp"),
        (data_io.SEA_STATE_DTYPE, lambda a: a["hs_m"], "got <f8"),
        (data_io.SEA_STATE_DTYPE,
         lambda a: a[[0, 2, 1]],
         "non-increasing timestamp 2006-01-01T01:00:00Z"),
        (data_io.ELEVATION_DTYPE, lambda a: a[:1], "at least 2 samples"),
        (data_io.ELEVATION_DTYPE,
         lambda a: np.array([(0.0, 0.1), (np.nan, 0.2)], dtype=a.dtype),
         "non-finite time"),
    ])
    def test_bad_content(self, tmp_path, dtype, content, match):
        arr = np.zeros(3, dtype=dtype)
        if dtype == data_io.SEA_STATE_DTYPE:
            arr["timestamp"] = np.datetime64("2006-01-01T00:00:00") + \
                np.arange(3) * np.timedelta64(1, "h")
            arr["te_s"] = 3.0
        path = tmp_path / "P1.npy"
        np.save(path, content(arr), allow_pickle=False)
        load = (data_io.load_sea_states if dtype == data_io.SEA_STATE_DTYPE
                else data_io.load_elevation)
        with pytest.raises((ParseError, DataError), match=match) as exc:
            load(path)
        assert str(path) in str(exc.value)


def test_every_truncation_is_a_parse_error(tmp_path):
    series = sea_states([0.4, 0.5], [3.0, 4.0])
    data_io.write_sea_states(series, tmp_path / "P1.npy")
    whole = (tmp_path / "P1.npy").read_bytes()
    for n in range(len(whole)):
        (tmp_path / "cut.npy").write_bytes(whole[:n])
        with pytest.raises(ParseError, match="cut.npy"):
            data_io.load_sea_states(tmp_path / "cut.npy")


@pytest.mark.parametrize("shape", [b"(99999999999999999999999999,)",
                                   b"(-5,)", b"((1,),)", b"(" * 40])
def test_bad_header_shape_is_a_parse_error(tmp_path, shape):
    series = sea_states([0.4, 0.5], [3.0, 4.0])
    data_io.write_sea_states(series, tmp_path / "P1.npy")
    raw = (tmp_path / "P1.npy").read_bytes()
    # same header length: the new shape takes the place of padding
    head, tail = raw.split(b"(2,)")
    pad = len(shape) - len(b"(2,)")
    edited = head + shape + tail.replace(b" " * pad + b"\n", b"\n", 1)
    assert len(edited) == len(raw)
    (tmp_path / "P1.npy").write_bytes(edited)
    with pytest.raises(ParseError, match="unreadable .npy file"):
        data_io.load_sea_states(tmp_path / "P1.npy")


@settings(max_examples=200, deadline=None)
@given(edits=st.lists(st.tuples(st.integers(6, 127), st.binary(
    min_size=0, max_size=3)), min_size=1, max_size=4))
def test_edited_header_loads_or_fails_closed(edits):
    # the header is the first 128 bytes; an edit may also shift the data
    series = sea_states([0.4, 0.5], [3.0, 4.0])
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error")
        path = Path(tmp) / "P1.npy"
        data_io.write_sea_states(series, path)
        raw = bytearray(path.read_bytes())
        for at, new in edits:
            raw[at:at + 1] = new
        path.write_bytes(bytes(raw))
        try:
            data_io.load_sea_states(path)
        except (ParseError, DataError):
            pass


def padded_to_16(arr):
    """A version 1.0 .npy of arr whose header is padded to 16 bytes, as
    numpy before 1.14 wrote it, not to the 64 of np.save."""
    text = "{'descr': %r, 'fortran_order': False, 'shape': (%d,), }" % (
        np.lib.format.dtype_to_descr(arr.dtype), arr.size)
    text += " " * (-(10 + len(text) + 1) % 16) + "\n"
    return (b"\x93NUMPY\x01\x00" + struct.pack("<H", len(text))
            + text.encode("latin1") + arr.tobytes())


def version_2(arr):
    buf = io.BytesIO()
    np.lib.format.write_array(buf, arr, version=(2, 0), allow_pickle=False)
    return buf.getvalue()


@pytest.fixture
def np_load_calls(monkeypatch):
    """The number of np.load calls so far, as a one-element list."""
    calls, load = [0], np.load

    def counting(*args, **kwargs):
        calls[0] += 1
        return load(*args, **kwargs)

    monkeypatch.setattr(np, "load", counting)
    return calls


PER_POINT_DTYPES = [data_io.SEA_STATE_DTYPE, data_io.ELEVATION_DTYPE]


def saved(arr):
    """np.save's bytes of arr."""
    buf = io.BytesIO()
    np.save(buf, arr, allow_pickle=False)
    return buf.getvalue()


def random_rows(dtype, rows):
    """`rows` rows of `dtype` from random bytes, NaN and NaT among them."""
    return np.frombuffer(np.random.default_rng(rows).bytes(
        rows * dtype.itemsize), dtype=dtype)


@pytest.mark.parametrize("rows", [1, 2, 8760])
@pytest.mark.parametrize("dtype", PER_POINT_DTYPES)
def test_write_table_writes_the_bytes_of_np_save(tmp_path, np_load_calls,
                                                 dtype, rows):
    arr = random_rows(dtype, rows)
    data_io.write_table(arr, tmp_path / "P1.npy")
    assert (tmp_path / "P1.npy").read_bytes() == saved(arr)
    # ... which the reader takes as they are
    got = data_io._read_npy(tmp_path / "P1.npy", dtype)
    assert np_load_calls == [0]
    assert got.tobytes() == arr.tobytes() and got.flags.writeable


# any other file takes np.load's path, and so reads as np.load reads it:
# the rows the header names, and no fewer
@pytest.mark.parametrize("header,refusal", [
    (version_2, None), (padded_to_16, None),
    (lambda arr: saved(arr) + arr[-1:].tobytes(), None),
    (lambda arr: saved(arr.reshape(1, -1)), "expected a 1-D array"),
    (lambda arr: saved(arr)[:-arr.dtype.itemsize], "unreadable .npy file"),
], ids=["format 2.0", "padded to 16", "one row extra", "2-D array",
        "one row short"])
@pytest.mark.parametrize("dtype", PER_POINT_DTYPES)
def test_any_other_header_takes_the_np_load_path(tmp_path, np_load_calls,
                                                 dtype, header, refusal):
    arr = random_rows(dtype, 3)
    (tmp_path / "P1.npy").write_bytes(header(arr))
    if refusal is None:
        got = data_io._read_npy(tmp_path / "P1.npy", dtype)
        assert got.tobytes() == arr.tobytes() and got.flags.writeable
    else:
        with pytest.raises(ParseError, match=f"P1.npy: {refusal}"):
            data_io._read_npy(tmp_path / "P1.npy", dtype)
    assert np_load_calls == [1]


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(0, 40),
       dtype=st.sampled_from([data_io.SEA_STATE_DTYPE,
                              data_io.ELEVATION_DTYPE]))
def test_read_npy_returns_the_bytes_np_load_returns(data, n, dtype):
    raw = data.draw(st.binary(min_size=n * dtype.itemsize,
                              max_size=n * dtype.itemsize))
    arr = np.frombuffer(raw, dtype=dtype)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "P1.npy"
        np.save(path, arr, allow_pickle=False)
        got = data_io._read_npy(path, dtype)
        want = np.load(path, allow_pickle=False)
    assert got.dtype == want.dtype and got.shape == want.shape == (n,)
    assert got.tobytes() == want.tobytes()


STAMP_SECONDS = st.integers(0, int((datetime(9999, 12, 31, 23, 59, 59)
                                    - datetime(1, 1, 1)).total_seconds()))
FINITE = st.floats(allow_nan=False, allow_infinity=False)


def iso(seconds):
    return (datetime(1, 1, 1) + timedelta(seconds=seconds)).isoformat() + "Z"


def same_bits(a, b):
    return a.dtype == b.dtype and np.array_equal(a.view(np.int64),
                                                 b.view(np.int64))


def both_formats(write, load, data):
    with tempfile.TemporaryDirectory() as tmp:
        csv, npy = Path(tmp) / "P1.csv", Path(tmp) / "P1.npy"
        write(data, csv)
        write(data, npy)
        return load(csv), load(npy)


@settings(max_examples=60, deadline=None)
@given(data=st.data(),
       seconds=st.lists(STAMP_SECONDS, min_size=1, max_size=40, unique=True))
def test_sea_states_csv_and_npy_load_the_same_bits(data, seconds):
    n = len(seconds)
    hs = data.draw(arrays(np.float64, n, elements=st.floats(0, 1e300)
                          | st.just(-0.0)))
    te = data.draw(arrays(np.float64, n, elements=st.floats(
        5e-324, 1e300)))
    series = sea_states(hs, te, data_io.parse_timestamps(
        iso(x) for x in sorted(seconds)))
    a, b = both_formats(data_io.write_sea_states, data_io.load_sea_states,
                        series)
    assert a.dtype == b.dtype == data_io.SEA_STATE_DTYPE
    assert a.tobytes() == b.tobytes() == series.tobytes()


@settings(max_examples=60, deadline=None)
@given(dt=st.floats(1e-3, 1e3),
       samples=arrays(np.float64, st.integers(2, 64), elements=FINITE))
def test_elevation_csv_and_npy_load_the_same_bits(dt, samples):
    a, b = both_formats(data_io.write_elevation, data_io.load_elevation,
                        ElevationRecord(dt=dt, samples=samples))
    assert same_bits(np.float64(a.dt), np.float64(b.dt))
    assert a.dt == pytest.approx(dt, rel=1e-9)
    assert same_bits(a.samples, b.samples) and same_bits(a.samples, samples)


@settings(max_examples=200, deadline=None)
@given(dt=st.floats(1e-3, 1e3),
       jitter=arrays(np.float64, st.integers(1, 40),
                     elements=st.floats(-4e-7, 4e-7)))
def test_elevation_dt_is_the_bits_of_np_median(dt, jitter):
    # steps within SAMPLING_REL_TOL of each other, an odd or even count
    times = np.concatenate([[0.0], np.cumsum(dt * (1.0 + jitter))])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "e.npy"
        np.save(path, data_io._table(data_io.ELEVATION_DTYPE, times,
                                     np.zeros(times.size)))
        loaded = data_io.load_elevation(path).dt
    assert same_bits(np.float64(loaded), np.median(np.diff(times)))


def hand_joined_table(columns, rows):
    """The table writer that the csv module replaced: fields joined with
    commas, text as is, numbers as floats with repr, nothing quoted."""
    return "".join(
        ",".join(v if isinstance(v, str) else repr(float(v)) for v in row)
        + "\n" for row in [columns, *rows])


# text the hand-joined writer wrote correctly: no comma, quote or newline
PLAIN_TEXT = st.text(st.characters(exclude_categories=("Cs",),
                                   exclude_characters=',"\r\n'))
# text as a table holds it: commas, quotes and non-ASCII, but no control
# character and nothing the reader would strip
TABLE_TEXT = st.text(st.sampled_from(',"é ñ') | st.characters(
    exclude_categories=("Cs", "Cc", "Zs", "Zl", "Zp")), max_size=8).map(
    str.strip)
# a value of each field kind, floats with their extremes
FIELD_VALUES = {
    "O": TABLE_TEXT,
    "f": st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from([-0.0, 5e-324, 1.7976931348623157e308]),
    "i": st.integers(-2 ** 63, 2 ** 63 - 1),
    "M": st.integers(int(data_io.FIRST_TIME.astype(np.int64)),
                     int(data_io.LAST_TIME.astype(np.int64))).map(
        lambda s: np.datetime64(s, "s")),
}
TABLE_DTYPES = {
    "catalog": data_io.CATALOG_DTYPE, "features": data_io.FEATURE_DTYPE,
    "results": data_io.RESULT_DTYPE, "zone_shares": data_io.ZONE_SHARE_DTYPE,
    "reference": data_io.REFERENCE_DTYPE, "bounds": data_io.BOUNDS_DTYPE,
    "convergence": data_io.CONVERGENCE_DTYPE,
    "sea_states": data_io.SEA_STATE_DTYPE,
    "elevation": data_io.ELEVATION_DTYPE,
}


def same_fields(a, b):
    """Equal text, and the same bits in every other field."""
    return a.dtype == b.dtype and all(
        a[n].tolist() == b[n].tolist() if a.dtype[n].kind == "O"
        else a[n].tobytes() == b[n].tobytes() for n in a.dtype.names)


@pytest.mark.parametrize("table", ["hand-joined", *TABLE_DTYPES])
def test_write_table_matches_hand_joined_table(table):
    # hand-joined: any plain-text and float columns, NaN and inf included,
    # as the old writer wrote them; a table dtype: write then load gives
    # the same bits, and writing that again the same bytes
    hand_joined = table == "hand-joined"

    @settings(max_examples=200 if hand_joined else 80, deadline=None)
    @given(data=st.data())
    def check(data):
        if hand_joined:
            width = data.draw(st.integers(2, 6))
            columns = data.draw(st.lists(PLAIN_TEXT.filter(bool),
                                         min_size=width, max_size=width,
                                         unique=True))
            dtype = np.dtype([(name, data.draw(st.sampled_from(["O", "<f8"])))
                              for name in columns])
            fields = [PLAIN_TEXT if dtype[n].kind == "O" else st.floats()
                      for n in columns]
        else:
            dtype = TABLE_DTYPES[table]
            fields = [FIELD_VALUES[dtype[n].kind] for n in dtype.names]
        # a loaded table has rows; four of them meet every field kind often
        rows = data.draw(st.lists(st.tuples(*fields),
                                  min_size=not hand_joined,
                                  max_size=8 if hand_joined else 4))
        arr = np.empty(len(rows), dtype=dtype)
        for i, name in enumerate(dtype.names):
            arr[name] = [row[i] for row in rows]
        with tempfile.TemporaryDirectory() as tmp:
            path, again = Path(tmp) / "t.csv", Path(tmp) / "again.csv"
            data_io.write_table(arr, path)
            if hand_joined:
                assert path.read_bytes() == \
                    hand_joined_table(columns, rows).encode("utf-8")
                return
            loaded, _ = data_io._load_columns(path, dtype)
            assert same_fields(loaded, arr)
            data_io.write_table(loaded, again)
            assert again.read_bytes() == path.read_bytes()

    check()


class TestLoadPoint:
    def series(self):
        return sea_states([0.4, 0.5], [3.0, 4.0])

    def test_writes_npy(self, tmp_path):
        data_io.write_point(tmp_path, "P1", self.series())
        assert sorted(p.name for p in tmp_path.rglob("*")) == [
            "P1.npy", "sea_states"]
        assert np.array_equal(data_io.load_point(tmp_path, "P1")[
            "timestamp"], TWO_HOURS)

    def test_reads_csv(self, tmp_path):
        (tmp_path / "sea_states").mkdir()
        data_io.write_sea_states(self.series(), tmp_path / "sea_states"
                                 / "P1.csv")
        loaded = data_io.load_point(tmp_path, "P1")
        assert loaded["hs_m"].tolist() == [0.4, 0.5]

    def test_sea_states_before_elevation(self, tmp_path):
        data_io.write_point(tmp_path, "P1", self.series())
        data_io.write_point(tmp_path, "P1",
                            ElevationRecord(dt=0.5, samples=[0.1, 0.2]))
        assert data_io.load_point(tmp_path, "P1").dtype == \
            data_io.SEA_STATE_DTYPE
        assert data_io.load_point(tmp_path, "P1", kind="elevation").dt == 0.5

    def test_both_suffixes_is_an_error(self, tmp_path):
        data_io.write_point(tmp_path, "P1", self.series())
        data_io.write_sea_states(self.series(), tmp_path / "sea_states"
                                 / "P1.csv")
        with pytest.raises(DataError, match=r"P1\.npy and .*P1\.csv"):
            data_io.load_point(tmp_path, "P1")


class TestResults:
    def test_empty_assessments_header_only(self, tmp_path):
        path = tmp_path / "r.csv"
        data_io.write_table(assessed(), path)
        assert path.read_text() == ",".join(data_io.RESULT_DTYPE.names) + "\n"


# stage table -> (its dtype, its loader)
STAGE_TABLES = {
    "features.csv": (data_io.FEATURE_DTYPE, data_io.load_features),
    "reference.csv": (data_io.REFERENCE_DTYPE, data_io.load_reference),
    "results.csv": (data_io.RESULT_DTYPE, data_io.load_results),
}
NON_FINITE_TEXT = ["nan", "inf", "-inf", "NaN", "-nan", "+inf", "Infinity",
                   "-INFINITY"]


def write_stage_tables(directory):
    """Two-row features and results, and a reference."""
    data_io.write_table(np.array(
        [("A", "Z1", 0.5, 4.0, 30.0, 100.0, 110.0),
         ("B", "Z2", 0.6, 4.5, 40.0, 120.0, 130.0)],
        dtype=data_io.FEATURE_DTYPE), directory / "features.csv")
    data_io.write_table(np.array([(0.6, 4.1, 79.0, 3000.0)],
                                 dtype=data_io.REFERENCE_DTYPE),
                        directory / "reference.csv")
    data_io.write_table(rank_points(assessed(
        make_assessment("A", 1.0, zone="Z1"),
        make_assessment("B", 2.0, zone="Z2"))), directory / "results.csv")


@settings(max_examples=200, deadline=None)
@given(data=st.data(), table=st.sampled_from(sorted(STAGE_TABLES)),
       value=st.sampled_from(NON_FINITE_TEXT))
def test_non_finite_stage_table_field_names_line_and_column(data, table,
                                                             value):
    dtype, load = STAGE_TABLES[table]
    with tempfile.TemporaryDirectory() as tmp:
        write_stage_tables(Path(tmp))
        path = Path(tmp) / table
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        row = data.draw(st.integers(1, len(rows) - 1))
        column = data.draw(st.sampled_from(
            [name for name in dtype.names if dtype[name].kind == "f"]))
        rows[row][rows[0].index(column)] = value
        with open(path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
        with pytest.raises(ParseError, match=re.escape(
                f"line {row + 1}: {path}: non-finite {column} {value}")):
            load(path)


@pytest.mark.parametrize("table,key", [("features.csv", "point"),
                                       ("results.csv", "point")])
def test_repeated_key_names_its_line(tmp_path, table, key):
    write_stage_tables(tmp_path)
    path = tmp_path / table
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    rows[2][rows[0].index(key)] = rows[1][rows[0].index(key)]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    with pytest.raises(ParseError, match=f"line 3: .*: duplicate {key} "
                                         f"'{rows[1][rows[0].index(key)]}'"):
        STAGE_TABLES[table][1](path)


def with_column(path, name, value):
    """Append a column `name` holding `value` in every row to a CSV."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    rows = [rows[0] + [name]] + [row + [value] for row in rows[1:]]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


@pytest.mark.parametrize("table,column", [("catalog.csv", "depth_m"),
                                          ("features.csv", "depth_m"),
                                          ("P1.csv", "hs_m")])
def test_repeated_column_is_refused(tmp_path, table, column):
    # a column the table does not read may repeat; one it reads may not,
    # or one copy would be taken and the other ignored
    one_row_catalog(tmp_path)
    write_stage_tables(tmp_path)
    data_io.write_sea_states(sea_states([0.4, 0.5], [3.0, 4.0]),
                             tmp_path / "P1.csv")
    load = {"catalog.csv": data_io.load_catalog,
            "features.csv": data_io.load_features,
            "P1.csv": data_io.load_sea_states}[table]
    path = tmp_path / table
    with_column(path, "note", "a")
    with_column(path, "note", "b")
    load(path)
    with_column(path, column, "-5")
    with pytest.raises(ParseError, match=re.escape(
            f"line 1: {path}: repeated columns {column}")):
        load(path)


@pytest.mark.parametrize("table", ["catalog.csv", "P1.csv"])
def test_byte_order_mark_is_skipped(tmp_path, table):
    # a spreadsheet's "CSV UTF-8" starts with one; the writers write none
    data_io.write_table(pipeline.apply_depths(
        data_io.builtin_catalog(), (5, 100)), tmp_path / "catalog.csv")
    data_io.write_sea_states(sea_states([0.4, 0.5], [3.0, 4.0]),
                             tmp_path / "P1.csv")
    load = {"catalog.csv": data_io.load_catalog,
            "P1.csv": data_io.load_sea_states}[table]
    path, marked = tmp_path / table, tmp_path / ("bom-" + table)
    assert not path.read_bytes().startswith(b"\xef\xbb\xbf")
    marked.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    assert same_fields(load(marked), load(path))


def test_npy_stage_table_row_fault_names_the_row(tmp_path):
    path = tmp_path / "r.npy"
    np.save(path, np.array([(0.6, 4.1, 79.0, 3000.0), (np.nan, 4.1, 79.0,
                                                       3000.0)],
                           dtype=data_io.REFERENCE_DTYPE))
    with pytest.raises(ParseError, match=re.escape(
            f"{path}: row 1: non-finite h_opt_m nan")) as info:
        data_io.load_reference(path)
    assert info.value.line is None


@settings(max_examples=100, deadline=None)
@given(data=st.data(), powers=st.lists(
    st.floats(0, 1e12), min_size=1, max_size=120).filter(any))
def test_report_takes_the_zone_shares_rank_writes(data, powers):
    # rank writes zone_totals of its results in rank order; report gives
    # the same bytes from the results in any row order
    zones = data.draw(st.lists(st.sampled_from("ABCDEFGHI"),
                               min_size=len(powers), max_size=len(powers)))
    ranked = np.zeros(len(powers), dtype=data_io.RESULT_DTYPE)
    ranked["point"] = [f"P{i}" for i in range(len(powers))]
    ranked["zone"], ranked["power_irregular_wpm"] = zones, powers
    ranked["rank"] = np.arange(1, len(powers) + 1)
    order = data.draw(st.permutations(range(len(powers))))
    tables = pipeline.report_tables(ranked[list(order)])
    with tempfile.TemporaryDirectory() as tmp:
        rank_wrote, report_wrote = (Path(tmp) / name
                                    for name in ("rank.csv", "report.csv"))
        data_io.write_table(pipeline.zone_totals(ranked), rank_wrote)
        data_io.write_table(tables["zone_shares.csv"], report_wrote)
        assert report_wrote.read_bytes() == rank_wrote.read_bytes()


def test_report_of_no_power_is_refused_before_writing(tmp_path):
    # zone_totals refuses a total of 0, before any power is normalized and
    # before the report stage makes its directory
    results = np.zeros(2, dtype=data_io.RESULT_DTYPE)
    results["point"], results["zone"], results["rank"] = ["P1", "P2"], "A", \
        [1, 2]
    data_io.write_table(results, tmp_path / "results.csv")
    (tmp_path / "staged").mkdir()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="^total power must be "
                                              "positive and finite, got 0.0$"):
            pipeline.report_tables(results)
        with pytest.raises(DomainError, match="^total power must be "
                                              "positive and finite, got 0.0$"):
            cli.cmd_report({"out": str(tmp_path)}, str(tmp_path / "staged"))
    assert not any((tmp_path / "staged").iterdir())


def test_stage_tables_load_back_as_written(tmp_path):
    write_stage_tables(tmp_path)
    features = data_io.load_features(tmp_path / "features.csv")
    assert features.dtype == data_io.FEATURE_DTYPE
    assert features.tolist() == [("A", "Z1", 0.5, 4.0, 30.0, 100.0, 110.0),
                                 ("B", "Z2", 0.6, 4.5, 40.0, 120.0, 130.0)]
    results = data_io.load_results(tmp_path / "results.csv")
    assert results["point"].tolist() == ["A", "B"]
    assert results["rank"].tolist() == [1, 2]


# The frozen dataclasses that hold arrays compare and hash by identity: a
# field-wise == would compare arrays, whose truth value is ambiguous.
ARRAY_DATACLASSES = {
    "ElevationRecord": lambda: ElevationRecord(dt=0.5,
                                               samples=[0.1, -0.2, 0.3]),
    "VarianceDensitySpectrum": lambda: VarianceDensitySpectrum(
        f=[0.15, 0.25], S=[1.0, 2.0], df=0.1),
    "SearchBounds": lambda: SearchBounds(lower=[0.1, 2.0, 5.0],
                                         upper=[0.6, 6.0, 100.0]),
    "GwoRun": lambda: GwoRun(best_position=np.array([0.6, 6.0, 5.0]),
                             best_value=1.0, convergence=np.ones(3),
                             evaluations=30),
}


@pytest.mark.parametrize("name", list(ARRAY_DATACLASSES))
def test_array_dataclass_compares_and_hashes_by_identity(name):
    a, b = ARRAY_DATACLASSES[name](), ARRAY_DATACLASSES[name]()
    assert a == a and not a != a
    assert a != b and not a == b
    assert hash(a) == hash(a) and hash(a) != hash(b)
    assert len({a, a, b}) == 2
