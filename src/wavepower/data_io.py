"""Site catalog, CSV ingestion and result serialization.

Delimited files are comma-separated UTF-8 with a header row, "." decimal
separator and ISO-8601 UTC timestamps, read and written with the csv
module, so a field holding a comma or a quote is quoted. Floats are
written with repr so write-then-load round-trips exactly and identical
inputs produce byte-identical files.

Per-point data (sea states, elevation records) may also be an .npy file
holding one structured array whose fields are the CSV's columns; the
stages hand it on that way, so no float goes through text between them.
"""

import csv
import json
import math
import os
import re
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .assessment import OptimalReference, PointFeatures, SiteAssessment
from .errors import DataError, DomainError, ParseError
from .spectral import ElevationRecord

# Southern Caspian point catalog: nine port zones, 105 points.
# Per zone: (zone name, point name prefix, latitudes, longitudes), one
# entry per point in catalog index order.
_CATALOG_ROWS = [
    ("Torkaman", ["T%d" % i for i in range(1, 13)],
     [37.3, 37.3, 37.3, 37.2, 37.2, 37.2, 37.1, 37.1, 37.1, 37.0, 37.0, 37.0],
     [53.7, 53.8, 53.9, 53.7, 53.8, 53.9, 53.7, 53.8, 53.9, 53.7, 53.8, 53.9]),
    ("Amirabad", ["A%d" % i for i in range(1, 12)],
     [37.1, 37.1, 37.1, 37.1, 37.0, 37.0, 37.0, 37.0, 36.9, 36.9, 36.9],
     [53.2, 53.3, 53.4, 53.5, 53.2, 53.3, 53.4, 53.5, 53.2, 53.3, 53.4]),
    ("Babolsar", ["B%d" % i for i in range(1, 14)],
     [37.0, 37.0, 37.0, 37.0, 36.9, 36.9, 36.9, 36.9, 36.8, 36.8, 36.8, 36.8,
      36.7],
     [52.5, 52.6, 52.7, 52.8, 52.5, 52.6, 52.7, 52.8, 52.5, 52.6, 52.7, 52.8,
      52.5]),
    ("Mahmoud-Abad", ["M%d" % i for i in range(1, 13)],
     [36.9, 36.9, 36.9, 36.9, 36.8, 36.8, 36.8, 36.8, 36.7, 36.7, 36.7, 36.7],
     [52.1, 52.2, 52.3, 52.4, 52.1, 52.2, 52.3, 52.4, 52.1, 52.2, 52.3, 52.4]),
    ("Nowshahr", ["N%d" % i for i in range(1, 13)],
     [36.9, 36.9, 36.9, 36.9, 36.8, 36.8, 36.8, 36.8, 36.7, 36.7, 36.7, 36.7],
     [51.4, 51.5, 51.6, 51.7, 51.4, 51.5, 51.6, 51.7, 51.4, 51.5, 51.6, 51.7]),
    ("Ramsar", ["R%d" % i for i in range(1, 12)],
     [37.2, 37.2, 37.2, 37.2, 37.1, 37.1, 37.1, 37.1, 37.0, 37.0, 37.0],
     [50.5, 50.6, 50.7, 50.8, 50.5, 50.6, 50.7, 50.8, 50.6, 50.7, 50.8]),
    ("Kiashahr", ["K%d" % i for i in range(1, 13)],
     [37.7, 37.7, 37.7, 37.7, 37.6, 37.6, 37.6, 37.6, 37.5, 37.5, 37.5, 37.5],
     [49.8, 49.9, 50.0, 50.1, 49.8, 49.9, 50.0, 50.1, 49.8, 49.9, 50.0, 50.1]),
    ("Anzali", ["Z%d" % i for i in range(1, 12)],
     [37.7, 37.7, 37.7, 37.7, 37.6, 37.6, 37.6, 37.6, 37.5, 37.5, 37.5],
     [49.4, 49.5, 49.6, 49.7, 49.4, 49.5, 49.6, 49.7, 49.4, 49.5, 49.6]),
    ("Astara", ["S%d" % i for i in range(1, 12)],
     [38.4, 38.4, 38.4, 38.3, 38.3, 38.3, 38.2, 38.2, 38.2, 38.1, 38.1],
     [48.9, 49.0, 49.1, 48.9, 49.0, 49.1, 48.9, 49.0, 49.1, 49.0, 49.1]),
]

CATALOG_COLUMNS = ["index", "name", "zone", "lat_deg", "lon_deg", "depth_m"]
RESULTS_COLUMNS = ["point", "zone", "h_bar_m", "t_bar_s", "depth_m",
                   "power_irregular_wpm", "power_regular_wpm", "norm",
                   "correlation", "rank"]
ZONE_SHARE_COLUMNS = ["zone", "total_power_wpm", "share"]
FEATURE_COLUMNS = ["point", "zone", "h_bar_m", "t_bar_s", "depth_m",
                   "power_irregular_wpm", "power_regular_wpm"]
REFERENCE_COLUMNS = ["h_opt_m", "t_opt_s", "d_opt_m", "best_power_wpm"]
# the per-point files: the fields of the .npy, the columns of the CSV
SEA_STATE_DTYPE = np.dtype([("timestamp", "<M8[s]"), ("hs_m", "<f8"),
                            ("te_s", "<f8")])
ELEVATION_DTYPE = np.dtype([("time_s", "<f8"), ("eta_m", "<f8")])
# the times that YYYY-MM-DDTHH:MM:SSZ can spell
FIRST_TIME = np.datetime64("0000-01-01T00:00:00", "s")
LAST_TIME = np.datetime64("9999-12-31T23:59:59", "s")
_BAD_STAMP = "bad timestamp {stamp!r}, expected YYYY-MM-DDTHH:MM:SSZ"
# largest deviation of an elevation record's time steps from their
# median, relative to that median
SAMPLING_REL_TOL = 1e-6
# C0 and C1 control characters; a lone carriage return among them would
# be written unquoted and split its row
_CONTROL = re.compile("[\x00-\x1f\x7f-\x9f]")


@dataclass(frozen=True)
class CatalogEntry:
    index: int
    name: str
    zone: str
    lat: float
    lon: float
    depth: float | None = None

    def __post_init__(self):
        for text in (self.name, self.zone):
            if text != text.strip() or _CONTROL.search(text):
                raise DataError(f"name or zone {text!r} has control "
                                f"characters or surrounding whitespace")
        # synth writes <dir>/<name>.npy, so a name must stay one file name
        if self.name in ("", ".", "..") or any(c in self.name for c in "/\\"):
            raise DataError(f"point name {self.name!r} is not one file "
                            f"name: empty, '.', '..', or holding '/' or '\\'")
        if not (-90 <= self.lat <= 90 and -180 <= self.lon <= 180):
            raise DataError(
                f"coordinates ({self.lat}, {self.lon}) out of range")
        if self.depth is not None and not 0 < self.depth < math.inf:
            raise DataError(
                f"depth must be positive and finite, got {self.depth}")


@dataclass(frozen=True)
class SiteCatalog:
    """Ordered collection of assessed points."""

    entries: tuple

    def __post_init__(self):
        names = [e.name for e in self.entries]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise DataError(f"duplicate point names: {', '.join(dupes)}")

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def lookup(self, name):
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(name)

    def zones(self):
        return list(dict.fromkeys(e.zone for e in self.entries))

    def zone_sizes(self):
        return tuple(sum(1 for e in self.entries if e.zone == z)
                     for z in self.zones())

    def with_depths(self, depths):
        """Copy with per-point depths (mapping name -> depth)."""
        return SiteCatalog(tuple(
            replace(e, depth=float(depths[e.name])) for e in self.entries))


def builtin_catalog():
    """The built-in 105-point southern-Caspian catalog (no depths)."""
    entries = []
    idx = 1
    for zone, names, lats, lons in _CATALOG_ROWS:
        for name, lat, lon in zip(names, lats, lons):
            entries.append(CatalogEntry(index=idx, name=name, zone=zone,
                                        lat=lat, lon=lon))
            idx += 1
    return SiteCatalog(entries=tuple(entries))


def _read_rows(path, required_columns):
    """(line, fields) for each data row of a delimited file: the required
    columns, stripped, in the order asked for. Blank lines are skipped."""
    rows = []
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise ParseError(f"{path}: empty file")
            header = [c.strip() for c in header]
            missing = [c for c in required_columns if c not in header]
            if missing:
                raise ParseError(
                    f"{path}: missing columns {', '.join(missing)}", line=1)
            col = [header.index(c) for c in required_columns]
            for parts in reader:
                if len(parts) < 2 and not "".join(parts).strip():
                    continue
                if len(parts) != len(header):
                    raise ParseError(f"{path}: expected {len(header)} fields",
                                     line=reader.line_num)
                rows.append((reader.line_num, [parts[i].strip() for i in col]))
    except UnicodeDecodeError:
        raise ParseError(f"{path}: not UTF-8 text") from None
    except csv.Error as exc:
        raise ParseError(f"{path}: {exc}", line=reader.line_num) from None
    return rows


def load_catalog(path):
    """Parse a catalog CSV (schema: index,name,zone,lat_deg,lon_deg,depth_m)."""
    rows = _read_rows(path, CATALOG_COLUMNS)
    entries = []
    seen = set()
    for lineno, (idx, name, zone, lat, lon, depth) in rows:
        try:  # a DataError from CatalogEntry is a ValueError too
            entries.append(CatalogEntry(
                index=int(idx), name=name, zone=zone, lat=float(lat),
                lon=float(lon), depth=float(depth) if depth else None))
        except ValueError as exc:
            raise ParseError(f"{path}: {exc}", line=lineno) from None
        if name in seen:
            raise ParseError(f"{path}: duplicate point name {name!r}",
                             line=lineno)
        seen.add(name)
    return SiteCatalog(entries=tuple(entries))


def write_catalog(catalog, path):
    _write_table(path, CATALOG_COLUMNS, (
        (str(e.index), e.name, e.zone, e.lat, e.lon,
         "" if e.depth is None else e.depth) for e in catalog))


def parse_timestamps(stamps):
    """YYYY-MM-DDTHH:MM:SSZ strings as datetime64[s]; NaT for any string
    not exactly of that form (a bare date, another precision or zone).

    The "Z" is stripped before numpy parses, and a value stands only if
    it formats back to its own string.
    """
    stamps = tuple(stamps)
    body = [s[:-1] if s[-1:] == "Z" else "" for s in stamps]
    with warnings.catch_warnings():
        # numpy warns on a zone offset; the round trip rejects it anyway
        warnings.simplefilter("ignore")
        try:
            times = np.array(body, dtype="datetime64[s]")
        except ValueError:  # some string numpy cannot read: one by one
            times = np.array([_datetime_or_nat(b) for b in body],
                             dtype="datetime64[s]")
    times[format_timestamps(times) != np.array(stamps, dtype=str)] = \
        np.datetime64("NaT")
    return times


def _datetime_or_nat(text):
    try:
        return np.datetime64(text, "s")
    except ValueError:
        return np.datetime64("NaT")


def format_timestamps(times):
    """datetime64 times as an array of YYYY-MM-DDTHH:MM:SSZ strings, "NaT"
    for NaT."""
    times = np.asarray(times, dtype="datetime64[s]")
    out = np.char.add(np.datetime_as_string(times, unit="s"), "Z")
    out[np.isnat(times)] = "NaT"
    return out


def _sea_state_fault(times, hs, te):
    """(row, reason) of the first invalid row of a sea-state series, or
    None; on one row the checks run in the order listed. "{stamp}" in the
    reason stands for the row's timestamp."""
    later = np.ones(times.size, dtype=bool)
    later[1:] = times[1:] > times[:-1]
    checks = [
        (~((times >= FIRST_TIME) & (times <= LAST_TIME)), _BAD_STAMP),
        (~later, "non-increasing timestamp {stamp}"),
        (~np.isfinite(hs), "non-finite Hs {hs}"),
        (~np.isfinite(te), "non-finite Te {te}"),
        (hs < 0, "negative Hs {hs}"),
        (te <= 0, "non-positive Te {te}"),
    ]
    faults = [(int(np.argmax(bad)), k) for k, (bad, _) in enumerate(checks)
              if bad.any()]
    if not faults:
        return None
    row, k = min(faults)
    return row, checks[k][1]


class _RowFault(DataError):
    """A sea-state series rejected at `row` (from 0) for `reason`."""

    def __init__(self, point, row, reason):
        super().__init__(f"{point}: row {row}: {reason}")
        self.row, self.reason = row, reason


@dataclass(frozen=True)
class SeaStateSeries:
    """Hourly (or otherwise sampled) Hs/Te summaries for one point; `times`
    is a datetime64 array, kept as datetime64[s]."""

    point: str
    times: np.ndarray  # datetime64[s], strictly increasing
    hs: np.ndarray
    te: np.ndarray

    def __post_init__(self):
        point, times = self.point, np.asarray(self.times)
        if times.dtype.kind != "M":
            raise DataError(f"{point}: times must be datetime64, got "
                            f"{times.dtype}")
        times = times.astype("<M8[s]")
        hs = np.asarray(self.hs, dtype=float)
        te = np.asarray(self.te, dtype=float)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "hs", hs)
        object.__setattr__(self, "te", te)
        n = times.size
        if n == 0:
            raise DataError(f"{point}: empty sea-state series")
        if hs.shape != (n,) or te.shape != (n,):
            raise DataError(f"{point}: column length mismatch")
        fault = _sea_state_fault(times, hs, te)
        if fault:
            row, reason = fault
            raise _RowFault(point, row, reason.format(
                stamp=str(format_timestamps(times[row:row + 1])[0]),
                hs=hs[row], te=te[row]))

    def __len__(self):
        return self.times.size


def _is_npy(path):
    return os.fspath(path).endswith(".npy")


def _fields(dtype):
    if dtype.names is None:
        return dtype.str
    return ", ".join(f"{n} {dtype.fields[n][0].str}" for n in dtype.names)


def _read_npy(path, dtype):
    """The 1-D array of exactly `dtype` in an .npy file, else ParseError."""
    with open(path, "rb") as fh, warnings.catch_warnings():
        # numpy warns when it has to repair a header; a repaired file
        # still passes only if its dtype and shape are right
        warnings.simplefilter("ignore")
        if fh.read(6) != b"\x93NUMPY":
            raise ParseError(f"{path}: not an .npy file")
        fh.seek(0)
        try:
            arr = np.load(fh, allow_pickle=False)
        except Exception as exc:
            # the file comes from outside, and numpy reports bad bytes as
            # ValueError, EOFError, SyntaxError, OverflowError,
            # tokenize.TokenError or, for a header that claims more data
            # than there is memory, MemoryError
            raise ParseError(f"{path}: unreadable .npy file: {exc}") from None
    if arr.dtype != dtype:
        raise ParseError(f"{path}: expected fields {_fields(dtype)}, "
                         f"got {_fields(arr.dtype)}")
    if arr.ndim != 1:
        raise ParseError(f"{path}: expected a 1-D array, got shape "
                         f"{arr.shape}")
    return arr


def _load_columns(path, dtype):
    """The rows of a per-point file as an array of `dtype`, and each row's
    line (None for .npy). The file is .npy, or else CSV whose columns are
    the fields, datetime fields first and as YYYY-MM-DDTHH:MM:SSZ text. A
    file with no rows is an error."""
    if _is_npy(path):
        arr = _read_npy(path, dtype)
        if arr.size == 0:
            raise DataError(f"{path}: no data rows")
        return arr, None
    stamps = [n for n in dtype.names if dtype[n].kind == "M"]
    # SeaStateSeries and load_elevation report non-finite values themselves
    rows = _records(path, dtype.names, n_text=len(stamps), finite=False)
    arr = np.empty(len(rows), dtype=dtype)
    for i, name in enumerate(dtype.names):
        column = [values[i] for _, values in rows]
        arr[name] = parse_timestamps(column) if name in stamps else column
        if name in stamps and np.isnat(arr[name]).any():
            k = int(np.argmax(np.isnat(arr[name])))
            raise ParseError(f"{path}: " + _BAD_STAMP.format(stamp=column[k]),
                             line=rows[k][0])
    return arr, [line for line, _ in rows]


def _write_columns(path, dtype, *columns):
    """`columns` as the fields of `dtype`: one structured array in an .npy
    file, or else CSV, datetime fields as YYYY-MM-DDTHH:MM:SSZ text."""
    if _is_npy(path):
        arr = np.empty(len(columns[0]), dtype=dtype)
        for name, values in zip(dtype.names, columns):
            arr[name] = values
        with open(path, "wb") as fh:
            np.save(fh, arr, allow_pickle=False)
    else:
        _write_table(path, dtype.names, zip(*(
            format_timestamps(c) if dtype[n].kind == "M" else c
            for n, c in zip(dtype.names, columns))))


def load_sea_states(path):
    """Parse a sea-state file, .npy or else CSV, with the fields of
    SEA_STATE_DTYPE, as the series of the point the file stem names."""
    point = os.path.splitext(os.path.basename(path))[0]
    arr, lines = _load_columns(path, SEA_STATE_DTYPE)
    try:
        return SeaStateSeries(point=point, times=arr["timestamp"],
                              hs=arr["hs_m"].copy(), te=arr["te_s"].copy())
    except _RowFault as exc:
        if lines is None:
            raise ParseError(f"{path}: {exc}") from None
        raise ParseError(f"{path}: {exc.reason}",
                         line=lines[exc.row]) from None


def write_sea_states(series, path):
    """Write .npy if the path ends so, else CSV (SEA_STATE_DTYPE's fields)."""
    _write_columns(path, SEA_STATE_DTYPE, series.times, series.hs, series.te)


def load_elevation(path):
    """Parse an elevation file, .npy or else CSV, with the fields of
    ELEVATION_DTYPE; sampling must be uniform within SAMPLING_REL_TOL."""
    arr, _ = _load_columns(path, ELEVATION_DTYPE)
    t, eta = arr["time_s"], arr["eta_m"].copy()
    if t.size < 2:
        raise DataError(f"{path}: need at least 2 samples")
    if not np.all(np.isfinite(t)):
        raise ParseError(f"{path}: non-finite time")
    steps = np.diff(t)
    dt = float(np.median(steps))
    if dt <= 0:
        raise ParseError(f"{path}: non-increasing time column")
    worst = float(np.max(np.abs(steps - dt)))
    if worst > SAMPLING_REL_TOL * dt:
        raise ParseError(
            f"{path}: non-uniform sampling, worst step deviation "
            f"{worst:.3e} s against dt={dt}")
    return ElevationRecord(dt=dt, samples=eta)


def write_elevation(record, path):
    """Write .npy if the path ends so, else CSV (ELEVATION_DTYPE's fields)."""
    _write_columns(path, ELEVATION_DTYPE,
                   np.arange(record.samples.size) * record.dt, record.samples)


def write_point(directory, name, data):
    """Write a SeaStateSeries or ElevationRecord as the .npy that
    load_point reads."""
    if isinstance(data, SeaStateSeries):
        kind, write = "sea_states", write_sea_states
    else:
        kind, write = "elevation", write_elevation
    os.makedirs(os.path.join(directory, kind), exist_ok=True)
    write(data, os.path.join(directory, kind, f"{name}.npy"))


def load_point(directory, name):
    """directory/sea_states/<name>.npy or .csv, else the same under
    elevation/; both suffixes of one kind is an error, so a stale CSV
    cannot stand in for newer data."""
    looked = []
    for kind, load in (("sea_states", load_sea_states),
                       ("elevation", load_elevation)):
        paths = [os.path.join(directory, kind, f"{name}{ext}")
                 for ext in (".npy", ".csv")]
        found = [p for p in paths if os.path.exists(p)]
        if len(found) == 2:
            raise DataError(f"both {found[0]} and {found[1]} exist; "
                            f"remove the stale one")
        if found:
            return load(found[0])
        looked += paths
    raise FileNotFoundError(
        f"no input data for point {name} (looked for {', '.join(looked)})")


def write_results(assessments, path, format="delimited", config=None):
    """Ranked assessments as the results CSV ("delimited") or as one JSON
    document of the config echo and the assessments ("structured")."""
    if format == "delimited":
        _write_table(path, RESULTS_COLUMNS, (
            (s.point_id, s.zone, s.h_bar, s.t_bar, s.depth, s.power_irregular,
             s.power_regular, s.norm, s.correlation, str(s.rank))
            for s in assessments))
        return
    if format != "structured":
        raise DomainError(f"unknown results format {format!r}")
    doc = {
        "config": config or {},
        "assessments": [
            {"point": s.point_id, "zone": s.zone, "h_bar_m": s.h_bar,
             "t_bar_s": s.t_bar, "depth_m": s.depth,
             "power_irregular_wpm": s.power_irregular,
             "power_regular_wpm": s.power_regular, "norm": s.norm,
             "correlation": s.correlation, "rank": s.rank}
            for s in assessments],
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def write_zone_shares(totals, shares, path):
    """Zone share table (zone,total_power_wpm,share) in zone order."""
    _write_table(path, ZONE_SHARE_COLUMNS,
                 ((z, totals[z], shares[z]) for z in totals))


def load_zone_shares(path):
    """Zone share table as ({zone: total}, {zone: share}) in file order."""
    rows = [values for _, values in
            _records(path, ZONE_SHARE_COLUMNS, n_text=1)]
    return ({z: total for z, total, _ in rows},
            {z: share for z, _, share in rows})


def _records(path, columns, n_text, finite=True):
    """(line, values) for each data row of a table: the first n_text
    fields as text, the rest as floats, which must be finite unless
    `finite` is false. A table with no data rows is an error."""
    rows = _read_rows(path, columns)
    if not rows:
        raise DataError(f"{path}: no data rows")
    out = []
    for lineno, fields in rows:
        try:
            values = [float(v) for v in fields[n_text:]]
        except ValueError as exc:
            raise ParseError(f"{path}: {exc}", line=lineno) from None
        if finite:
            for column, text, v in zip(columns[n_text:], fields[n_text:],
                                       values):
                if not math.isfinite(v):
                    raise ParseError(f"{path}: non-finite {column} {text}",
                                     line=lineno)
        out.append((lineno, fields[:n_text] + values))
    return out


def write_features(rows, path):
    """features.csv: (PointFeatures, irregular power, regular power) rows."""
    _write_table(path, FEATURE_COLUMNS, (
        (f.point_id, f.zone, f.h_bar, f.t_bar, f.depth, p_irr, p_reg)
        for f, p_irr, p_reg in rows))


def load_features(path):
    """features.csv back as (PointFeatures, irregular, regular power) rows."""
    return [(PointFeatures(point_id=name, zone=zone, h_bar=h, t_bar=t,
                           depth=d), p_irr, p_reg)
            for _, (name, zone, h, t, d, p_irr, p_reg) in
            _records(path, FEATURE_COLUMNS, n_text=2)]


def write_reference(run, path):
    """reference.csv: the optimizer's best (H, T, d) and its power."""
    _write_table(path, REFERENCE_COLUMNS,
                 [(*run.best_position, run.best_value)])


def load_reference(path):
    _, (h, t, d, _) = _records(path, REFERENCE_COLUMNS, n_text=0)[0]
    return OptimalReference(h_opt=h, t_opt=t, d_opt=d)


def write_bounds(bounds, path):
    """bounds.csv: the (H, T, d) search box the optimizer ran in."""
    _write_table(path, ["dimension", "lower", "upper"],
                 zip(("H", "T", "d"), bounds.lower, bounds.upper))


def write_convergence(run, path):
    """convergence.csv: best power after each optimizer iteration."""
    _write_table(path, ["iteration", "best_power_wpm"],
                 ((str(i), v) for i, v in enumerate(run.convergence)))


def load_results(path):
    """A delimited results file back as ranked SiteAssessments."""
    return [SiteAssessment(point_id=p, zone=z, h_bar=h, t_bar=t, depth=d,
                           power_irregular=p_irr, power_regular=p_reg,
                           norm=nm, correlation=c, rank=int(rk))
            for _, (p, z, h, t, d, p_irr, p_reg, nm, c, rk) in
            _records(path, RESULTS_COLUMNS, n_text=2)]


def write_report(ranked, totals, shares, directory):
    """The plot-ready tables under `directory`: powers by point and zone,
    norms, correlation vs power, power vs height and depth, zone shares."""
    def table(name, header, rows):
        _write_table(os.path.join(directory, name), header.split(","), rows)

    os.makedirs(directory, exist_ok=True)
    p_max = max(s.power_irregular for s in ranked)
    table("power_by_point.csv", "point,zone,power_irregular_wpm",
          ((s.point_id, s.zone, s.power_irregular) for s in ranked))
    table("power_by_zone.csv", "zone,total_power_wpm", totals.items())
    table("norm_by_point.csv", "point,norm",
          ((s.point_id, s.norm) for s in ranked))
    table("correlation_vs_power.csv", "point,correlation,normalized_power",
          ((s.point_id, s.correlation, s.power_irregular / p_max)
           for s in ranked))
    table("power_vs_hs_depth.csv", "point,h_bar_m,depth_m,power_irregular_wpm",
          ((s.point_id, s.h_bar, s.depth, s.power_irregular) for s in ranked))
    write_zone_shares(totals, shares,
                      os.path.join(directory, "zone_shares.csv"))


def _write_table(path, columns, rows):
    """A delimited table: text as is, numbers as floats with repr; only a
    field that needs quotes gets them."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([v if isinstance(v, str) else repr(float(v))
                          for v in row] for row in rows)
