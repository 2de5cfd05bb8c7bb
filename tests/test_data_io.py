import tempfile
import warnings
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from wavepower import data_io
from wavepower.errors import DataError, ParseError
from wavepower.spectral import ElevationRecord

from test_assessment import make_assessment


class TestBuiltinCatalog:
    def test_count_and_zones(self):
        cat = data_io.builtin_catalog()
        assert len(cat) == 105
        assert cat.zone_sizes() == (12, 11, 13, 12, 12, 11, 12, 11, 11)
        assert [e.index for e in cat] == list(range(1, 106))

    def test_spot_coordinates(self):
        cat = data_io.builtin_catalog()
        k4 = cat.lookup("K4")
        assert (k4.lat, k4.lon, k4.zone) == (37.7, 50.1, "Kiashahr")
        t1 = cat.lookup("T1")
        assert (t1.lat, t1.lon, t1.zone) == (37.3, 53.7, "Torkaman")

    def test_coordinate_window(self):
        for e in data_io.builtin_catalog():
            assert 36 <= e.lat <= 39
            assert 48 <= e.lon <= 54

    def test_no_depths(self):
        assert all(e.depth is None for e in data_io.builtin_catalog())

    def test_with_depths(self):
        cat = data_io.builtin_catalog()
        deep = cat.with_depths({e.name: 10.0 + e.index for e in cat})
        assert deep.lookup("T1").depth == 11.0


class TestCatalogIO:
    def test_round_trip(self, tmp_path):
        cat = data_io.builtin_catalog().with_depths(
            {e.name: float(e.index) for e in data_io.builtin_catalog()})
        path = tmp_path / "catalog.csv"
        data_io.write_catalog(cat, path)
        loaded = data_io.load_catalog(path)
        assert loaded == cat

    def test_round_trip_quoted_zones(self, tmp_path):
        cat = data_io.SiteCatalog((
            data_io.CatalogEntry(1, "P1", "Bandar, Anzali", 37.5, 49.5, 12.5),
            data_io.CatalogEntry(2, "P2", 'Say "Hi"', 37.6, 49.6)))
        path = tmp_path / "catalog.csv"
        data_io.write_catalog(cat, path)
        assert path.read_text().splitlines()[1:] == [
            '1,P1,"Bandar, Anzali",37.5,49.5,12.5',
            '2,P2,"Say ""Hi""",37.6,49.6,']
        assert data_io.load_catalog(path) == cat

    def test_small_file(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("index,name,zone,lat_deg,lon_deg,depth_m\n"
                        "1,P1,Alpha,37.0,50.0,12.5\n"
                        "2,P2,Alpha,37.1,50.1,\n")
        cat = data_io.load_catalog(path)
        assert len(cat) == 2
        assert cat.lookup("P1").depth == 12.5
        assert cat.lookup("P2").depth is None

    def test_duplicate_names(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("index,name,zone,lat_deg,lon_deg,depth_m\n"
                        "1,P1,A,37.0,50.0,\n"
                        "2,P1,A,37.1,50.1,\n")
        with pytest.raises(ParseError, match="P1"):
            data_io.load_catalog(path)

    def test_missing_columns(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("index,name,lat_deg\n1,P1,37.0\n")
        with pytest.raises(ParseError, match="zone"):
            data_io.load_catalog(path)

    def test_out_of_range_coordinates(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("index,name,zone,lat_deg,lon_deg,depth_m\n"
                        "1,P1,A,95.0,50.0,\n")
        with pytest.raises(ParseError, match="out of range"):
            data_io.load_catalog(path)

    @pytest.mark.parametrize("depth", ["inf", "nan", "-inf", "0"])
    def test_depth_must_be_positive_and_finite(self, tmp_path, depth):
        path = tmp_path / "c.csv"
        path.write_text("index,name,zone,lat_deg,lon_deg,depth_m\n"
                        "1,P1,A,37.0,50.0,3\n"
                        f"2,P2,A,37.0,50.0,{depth}\n")
        with pytest.raises(ParseError, match="line 3: .*depth must be "
                                             "positive and finite"):
            data_io.load_catalog(path)

    @pytest.mark.parametrize("row", ["2,P2,A,37.0,50.0,3,9",
                                     "2,P2,A,37.0,50.0,3,",
                                     "2,P2,A,37.0,50.0"])
    def test_row_with_another_field_count(self, tmp_path, row):
        path = tmp_path / "c.csv"
        path.write_text("index,name,zone,lat_deg,lon_deg,depth_m\n"
                        f"1,P1,A,37.0,50.0,3\n{row}\n")
        with pytest.raises(ParseError, match="line 3: .*expected 6 fields"):
            data_io.load_catalog(path)

    @pytest.mark.parametrize("text", ["a\rb", "a\nb", "\x00", "a\x85",
                                      "a\x1fb", " P", "P\t"])
    @pytest.mark.parametrize("field", ["name", "zone"])
    def test_control_characters_rejected(self, text, field):
        fields = {"name": "P1", "zone": "A", field: text}
        with pytest.raises(DataError, match="control characters"):
            data_io.CatalogEntry(1, lat=37.0, lon=49.0, **fields)


def _entry_or_none(args):
    """The CatalogEntry of `args`, or None where the entry is refused."""
    try:
        return data_io.CatalogEntry(*args)
    except DataError:
        return None


COORDINATE = st.floats(-180, 180) | st.floats()
ENTRY_ARGS = st.tuples(
    st.integers(-10 ** 6, 10 ** 6), st.text(max_size=6),
    st.text(max_size=6), COORDINATE, COORDINATE,
    st.none() | st.floats(0, 1e4) | st.floats())


@settings(max_examples=300, deadline=None)
@given(args=st.lists(ENTRY_ARGS, max_size=6, unique_by=lambda a: a[1]))
def test_written_catalog_loads_back_equal(args):
    # whatever write_catalog is given, load_catalog reads back equal
    entries = [e for e in map(_entry_or_none, args) if e is not None]
    catalog = data_io.SiteCatalog(tuple(entries))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "catalog.csv"
        data_io.write_catalog(catalog, path)
        assert data_io.load_catalog(path) == catalog


class TestSeaStateIO:
    def test_round_trip(self, tmp_path):
        series = data_io.SeaStateSeries(
            point="P1",
            timestamps=("2006-01-01T00:00:00Z", "2006-01-01T01:00:00Z",
                        "2006-01-01T02:00:00Z"),
            hs=np.array([0.4, 0.5, 0.6]), te=np.array([3.0, 4.0, 5.0]))
        path = tmp_path / "P1.csv"
        data_io.write_sea_states(series, path)
        loaded = data_io.load_sea_states(path)
        assert loaded.point == "P1"
        assert loaded.timestamps == series.timestamps
        assert np.array_equal(loaded.hs, series.hs)
        assert np.array_equal(loaded.te, series.te)

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


SERIES_KW = dict(point="P1", timestamps=("2006-01-01T00:00:00Z",
                                         "2006-01-01T01:00:00Z"))


class TestSeaStateSeries:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(DataError, match="non-finite Hs"):
            data_io.SeaStateSeries(hs=[0.4, bad], te=[3.0, 4.0], **SERIES_KW)
        with pytest.raises(DataError, match="non-finite Te"):
            data_io.SeaStateSeries(hs=[0.4, 0.5], te=[bad, 4.0], **SERIES_KW)

    def test_timestamps_compared_as_times(self):
        with pytest.raises(DataError, match="bad timestamp '2006-01-02'"):
            data_io.SeaStateSeries(
                point="P1", timestamps=("2006-01-01T00:00:00Z", "2006-01-02"),
                hs=[0.4, 0.5], te=[3.0, 4.0])

    def test_datetime64_timestamps(self):
        times = np.array(["2006-01-01T00:00", "2006-01-01T01:00"],
                         dtype="datetime64[m]")
        series = data_io.SeaStateSeries(point="P1", timestamps=times,
                                        hs=[0.4, 0.5], te=[3.0, 4.0])
        assert series.timestamps == SERIES_KW["timestamps"]
        assert series.times.dtype == np.dtype("datetime64[s]")
        assert np.array_equal(series.times, times)

    def test_year_beyond_9999_rejected(self):
        times = np.array(["9999-12-31T23:00:00", "10000-01-01T00:00:00"],
                         dtype="datetime64[s]")
        with pytest.raises(DataError, match="bad timestamp"):
            data_io.SeaStateSeries(point="P1", timestamps=times,
                                   hs=[0.4, 0.5], te=[3.0, 4.0])


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
        "NaTZ", "NaT", "", "Z"])
    def test_anything_else_is_nat(self, text, recwarn):
        times = data_io.parse_timestamps(["2006-01-01T00:00:00Z", text])
        assert not np.isnat(times[0]) and np.isnat(times[1])
        assert len(recwarn) == 0

    def test_format_nat(self):
        times = np.array(["NaT", "2006-01-01T00:00:00"], dtype="datetime64[s]")
        assert data_io.format_timestamps(times).tolist() == [
            "NaT", "2006-01-01T00:00:00Z"]


class TestElevationIO:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        rec = ElevationRecord(dt=0.5, samples=rng.normal(size=64))
        path = tmp_path / "e.csv"
        data_io.write_elevation(rec, path)
        loaded = data_io.load_elevation(path)
        assert loaded.dt == pytest.approx(0.5, rel=1e-9)
        assert np.array_equal(loaded.samples, rec.samples)

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


class TestNpyHandOff:
    def test_sea_state_layout(self, tmp_path):
        series = data_io.SeaStateSeries(hs=[0.4, 0.5], te=[3.0, 4.0],
                                        **SERIES_KW)
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
        series = data_io.SeaStateSeries(hs=[0.4, 0.5], te=[3.0, 4.0],
                                        **SERIES_KW)
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
    series = data_io.SeaStateSeries(hs=[0.4, 0.5], te=[3.0, 4.0],
                                    **SERIES_KW)
    data_io.write_sea_states(series, tmp_path / "P1.npy")
    whole = (tmp_path / "P1.npy").read_bytes()
    for n in range(len(whole)):
        (tmp_path / "cut.npy").write_bytes(whole[:n])
        with pytest.raises(ParseError, match="cut.npy"):
            data_io.load_sea_states(tmp_path / "cut.npy")


@pytest.mark.parametrize("shape", [b"(99999999999999999999999999,)",
                                   b"(-5,)", b"((1,),)", b"(" * 40])
def test_bad_header_shape_is_a_parse_error(tmp_path, shape):
    series = data_io.SeaStateSeries(hs=[0.4, 0.5], te=[3.0, 4.0],
                                    **SERIES_KW)
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
    series = data_io.SeaStateSeries(hs=[0.4, 0.5], te=[3.0, 4.0],
                                    **SERIES_KW)
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
    series = data_io.SeaStateSeries(
        point="P1", timestamps=tuple(iso(x) for x in sorted(seconds)),
        hs=hs, te=te)
    a, b = both_formats(data_io.write_sea_states, data_io.load_sea_states,
                        series)
    assert a.point == b.point == "P1"
    assert a.timestamps == b.timestamps == series.timestamps
    assert np.array_equal(a.times, b.times)
    assert same_bits(a.hs, b.hs) and same_bits(a.hs, series.hs)
    assert same_bits(a.te, b.te) and same_bits(a.te, series.te)


@settings(max_examples=60, deadline=None)
@given(dt=st.floats(1e-3, 1e3),
       samples=arrays(np.float64, st.integers(2, 64), elements=FINITE))
def test_elevation_csv_and_npy_load_the_same_bits(dt, samples):
    a, b = both_formats(data_io.write_elevation, data_io.load_elevation,
                        ElevationRecord(dt=dt, samples=samples))
    assert same_bits(np.float64(a.dt), np.float64(b.dt))
    assert same_bits(a.samples, b.samples) and same_bits(a.samples, samples)


def hand_joined_table(columns, rows):
    """The table writer that the csv module replaced: fields joined with
    commas, text as is, numbers as floats with repr, nothing quoted."""
    return "".join(
        ",".join(v if isinstance(v, str) else repr(float(v)) for v in row)
        + "\n" for row in [columns, *rows])


# text the hand-joined writer wrote correctly: no comma, quote or newline
PLAIN_TEXT = st.text(st.characters(exclude_categories=("Cs",),
                                   exclude_characters=',"\r\n'))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), width=st.integers(2, 6))
def test_write_table_matches_hand_joined_table(data, width):
    def row(fields):
        return st.lists(fields, min_size=width, max_size=width)

    columns = data.draw(row(PLAIN_TEXT))
    rows = data.draw(st.lists(row(
        PLAIN_TEXT | st.floats() | st.floats().map(np.float64)), max_size=8))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        data_io._write_table(path, columns, rows)
        assert path.read_bytes() == \
            hand_joined_table(columns, rows).encode("utf-8")


class TestLoadPoint:
    def series(self):
        return data_io.SeaStateSeries(hs=[0.4, 0.5], te=[3.0, 4.0],
                                      **SERIES_KW)

    def test_writes_npy(self, tmp_path):
        data_io.write_point(tmp_path, "P1", self.series())
        assert sorted(p.name for p in tmp_path.rglob("*")) == [
            "P1.npy", "sea_states"]
        assert data_io.load_point(tmp_path, "P1").timestamps == \
            SERIES_KW["timestamps"]

    def test_reads_csv(self, tmp_path):
        (tmp_path / "sea_states").mkdir()
        data_io.write_sea_states(self.series(), tmp_path / "sea_states"
                                 / "P1.csv")
        loaded = data_io.load_point(tmp_path, "P1")
        assert loaded.point == "P1" and loaded.hs.tolist() == [0.4, 0.5]

    def test_sea_states_before_elevation(self, tmp_path):
        data_io.write_point(tmp_path, "P1", self.series())
        data_io.write_point(tmp_path, "P1",
                            ElevationRecord(dt=0.5, samples=[0.1, 0.2]))
        assert isinstance(data_io.load_point(tmp_path, "P1"),
                          data_io.SeaStateSeries)

    def test_both_suffixes_is_an_error(self, tmp_path):
        data_io.write_point(tmp_path, "P1", self.series())
        data_io.write_sea_states(self.series(), tmp_path / "sea_states"
                                 / "P1.csv")
        with pytest.raises(DataError, match=r"P1\.npy and .*P1\.csv"):
            data_io.load_point(tmp_path, "P1")


class TestResults:
    def test_empty_assessments_header_only(self, tmp_path):
        path = tmp_path / "r.csv"
        data_io.write_results([], path)
        assert path.read_text() == ",".join(data_io.RESULTS_COLUMNS) + "\n"

    def test_byte_stable(self, tmp_path):
        ranked = [make_assessment("A", 1.0), make_assessment("B", 2.0)]
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        data_io.write_results(ranked, p1)
        data_io.write_results(ranked, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_structured_document(self, tmp_path):
        import json
        path = tmp_path / "r.json"
        data_io.write_results([make_assessment("A", 1.0)], path,
                              format="structured", config={"seed": 0})
        doc = json.loads(path.read_text())
        assert sorted(doc) == ["assessments", "config"]
        assert doc["assessments"][0]["point"] == "A"
        assert doc["config"] == {"seed": 0}
