"""Site catalog, CSV ingestion and result serialization.

Every table is one structured array of its own dtype, and one reader and
one writer take each to and from comma-separated UTF-8 with a header row
by field kind (see _write_columns): floats with repr, so write-then-load
round-trips exactly and identical inputs give byte-identical files. The
csv module quotes a field holding a comma or a quote.

Per-point data (sea states, elevation records) may also be an .npy file
of the array; the stages hand it on that way, so no float goes through
text between them.
"""

import csv
import io
import json
import math
import os
import re
import warnings

import numpy as np

from .errors import DataError, DomainError, ParseError, _positive_finite

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

# the tables, one dtype each: its fields are the columns of its CSV;
# the catalog's depth_m is text, empty where the catalog has no depth
CATALOG_DTYPE = np.dtype([("index", "<i8"), ("name", "O"), ("zone", "O"),
                          ("lat_deg", "<f8"), ("lon_deg", "<f8"),
                          ("depth_m", "O")])
FEATURE_DTYPE = np.dtype([("point", "O"), ("zone", "O")] + [
    (name, "<f8") for name in ("h_bar_m", "t_bar_s", "depth_m",
                               "power_irregular_wpm", "power_regular_wpm")])
RESULT_DTYPE = np.dtype(FEATURE_DTYPE.descr + [
    ("norm", "<f8"), ("correlation", "<f8"), ("rank", "<i8")])
ZONE_SHARE_DTYPE = np.dtype([("zone", "O"), ("total_power_wpm", "<f8"),
                             ("share", "<f8")])
REFERENCE_DTYPE = np.dtype([("h_opt_m", "<f8"), ("t_opt_s", "<f8"),
                            ("d_opt_m", "<f8"), ("best_power_wpm", "<f8")])
BOUNDS_DTYPE = np.dtype([("dimension", "O"), ("lower", "<f8"),
                         ("upper", "<f8")])
# the dimensions of a (height, period, depth) vector, as bounds.csv names
# them
DIMENSION_NAMES = ("H", "T", "d")
CONVERGENCE_DTYPE = np.dtype([("iteration", "<i8"),
                              ("best_power_wpm", "<f8")])
# the per-point files, also as .npy
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
# C0 and C1 control characters, and the line and paragraph separators,
# on which str.splitlines also breaks; a lone carriage return among them
# would be written unquoted and split its row
_CONTROL = re.compile("[\x00-\x1f\x7f-\x9f\u2028\u2029]")
# a point name that is not one file name (synth writes <dir>/<name>.npy):
# empty, ".", "..", or holding "/" or "\\"
_NOT_FILE_NAME = re.compile(r"\A\.{0,2}\Z|[/\\]")


def builtin_catalog():
    """The built-in 105-point southern-Caspian catalog, a CATALOG_DTYPE
    array with no depths."""
    points = [(name, zone, lat, lon, "") for zone, names, lats, lons in
              _CATALOG_ROWS for name, lat, lon in zip(names, lats, lons)]
    return np.array([(index, *point) for index, point in
                     enumerate(points, 1)], dtype=CATALOG_DTYPE)


def _flags(test, column):
    """True where `test` holds for a value of `column`."""
    return np.array([bool(test(v)) for v in column.tolist()], dtype=bool)


def _bad_depth(text):
    """Whether a catalog depth is neither empty nor positive and finite."""
    try:
        return bool(text) and not 0 < float(text) < math.inf
    except ValueError:
        return True


def load_catalog(path):
    """A catalog CSV as a CATALOG_DTYPE array. Indices must be
    non-negative, names and zones free of _CONTROL characters, each name
    one file name and used once, coordinates in range, and each depth
    empty or positive and finite."""
    return _load_table(path, CATALOG_DTYPE, lambda a: [
        (a["index"] < 0, "negative index {index}"),
        (_flags(_CONTROL.search, a["name"] + a["zone"]),
         "name {name!r} or zone {zone!r} has control characters"),
        (_flags(_NOT_FILE_NAME.search, a["name"]),
         "point name {name!r} is not one file name: empty, '.', '..', "
         "or holding '/' or '\\'"),
        ((np.abs(a["lat_deg"]) > 90) | (np.abs(a["lon_deg"]) > 180),
         "coordinates ({lat_deg}, {lon_deg}) out of range"),
        (_flags(_bad_depth, a["depth_m"]),
         "depth must be positive and finite, got {depth_m}"),
        (_repeated(a["name"]), "duplicate point name {name!r}")])


def write_catalog(catalog, path):
    """A CATALOG_DTYPE array as catalog.csv."""
    _write_columns(path, catalog)


def parse_timestamps(stamps):
    """YYYY-MM-DDTHH:MM:SSZ strings as datetime64[s]; NaT for any string
    not exactly of that form (a bare date, another precision or zone).

    The "Z" is stripped before numpy parses, and a value stands only if
    it formats back to the string without it.
    """
    body = [s[:-1] if s[-1:] == "Z" else "" for s in stamps]
    with warnings.catch_warnings():
        # numpy warns on a zone offset; the round trip rejects it anyway
        warnings.simplefilter("ignore")
        try:
            times = np.array(body, dtype="datetime64[s]")
        except ValueError:  # some string numpy cannot read: one by one
            times = np.array([_datetime_or_nat(b) for b in body],
                             dtype="datetime64[s]")
    times[np.datetime_as_string(times, unit="s")
          != np.array(body, dtype=str)] = np.datetime64("NaT")
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


def _first_fault(checks):
    """(row, reason) of the first row that one of `checks`, (mask, reason)
    pairs, flags, with the reason of the first check that flags it; None
    if no check flags a row."""
    faults = [(int(np.argmax(bad)), k) for k, (bad, _) in enumerate(checks)
              if bad.any()]
    if not faults:
        return None
    row, k = min(faults)
    return row, checks[k][1]


def _sea_state_fault(times, hs, te):
    """(row, reason) of the first invalid row of a sea-state series, or
    None; on one row the checks run in the order listed. "{stamp}" in the
    reason stands for the row's timestamp."""
    # one pass accepts a valid series; NaT and NaN fail every comparison,
    # so a series holding one goes on to the ordered checks
    if (FIRST_TIME <= times[0] and times[-1] <= LAST_TIME
            and (times[1:] > times[:-1]).all()
            and _positive_finite(hs, zero_ok=True) and _positive_finite(te)):
        return None
    later = np.ones(times.size, dtype=bool)
    later[1:] = times[1:] > times[:-1]
    return _first_fault([
        (~((times >= FIRST_TIME) & (times <= LAST_TIME)), _BAD_STAMP),
        (~later, "non-increasing timestamp {stamp}"),
        (~np.isfinite(hs), "non-finite Hs {hs}"),
        (~np.isfinite(te), "non-finite Te {te}"),
        (hs < 0, "negative Hs {hs}"),
        (te <= 0, "non-positive Te {te}"),
    ])


def _series_fault(series):
    """(row, reason) of the first faulty row of a SEA_STATE_DTYPE array
    (see _sea_state_fault), the reason filled in with that row's values;
    None for a valid series."""
    times, hs, te = series["timestamp"], series["hs_m"], series["te_s"]
    fault = _sea_state_fault(times, hs, te)
    if fault:
        row, reason = fault
        return row, reason.format(
            stamp=str(format_timestamps(times[row:row + 1])[0]),
            hs=hs[row], te=te[row])
    return None


def _stem(path):
    return os.path.splitext(os.path.basename(path))[0]


def _is_npy(path):
    return os.fspath(path).endswith(".npy")


def _fields(dtype):
    """The fields of `dtype` as "name type, ..." for a message. A name can
    come from a file's header, so each of its characters that is not
    printable, such as a line break, is written as its escape."""
    if dtype.names is None:
        return dtype.str
    return ", ".join(
        "".join(c if c.isprintable() else repr(c)[1:-1] for c in n)
        + " " + dtype.fields[n][0].str for n in dtype.names)


def _saved_array(raw, dtype):
    """The array in `raw`, the bytes of an .npy file, if its header is byte
    for byte the one np.save writes for a 1-D array of `dtype` with as
    many rows as follow it; else None. Bytes short of one more row are
    left out, as np.load leaves them."""
    # format version 1.0, and no object fields: np.frombuffer cannot make them
    if raw[6:8] != b"\x01\x00" or dtype.hasobject:
        return None
    start = 10 + int.from_bytes(raw[8:10], "little")
    n = (len(raw) - start) // dtype.itemsize
    if n < 0:
        return None
    header = io.BytesIO()
    np.lib.format.write_array_header_1_0(header, {
        "descr": np.lib.format.dtype_to_descr(dtype),
        "fortran_order": False, "shape": (n,)})
    if raw[:start] != header.getvalue():
        return None
    return np.frombuffer(raw, dtype=dtype, count=n, offset=start)


def _read_npy(path, dtype):
    """The 1-D array of exactly `dtype` in an .npy file, else ParseError.

    The file is read once, and the row count follows from its size. A
    file whose header is the one np.save writes for that many rows of
    `dtype` is taken as it is, with no header parsing; any other file
    (another header layout or version, another dtype or shape, extra or
    missing rows) goes through np.load and all of its checks. Either way
    the array is writable."""
    with open(path, "rb") as fh:
        raw = bytearray(os.fstat(fh.fileno()).st_size)
        del raw[fh.readinto(raw):]
        arr = _saved_array(raw, dtype)
        if arr is not None:
            return arr
        if raw[:6] != b"\x93NUMPY":
            raise ParseError(f"{path}: not an .npy file")
        fh.seek(0)
        with warnings.catch_warnings():
            # numpy warns when it has to repair a header; a repaired file
            # still passes only if its dtype and shape are right
            warnings.simplefilter("ignore")
            try:
                arr = np.load(fh, allow_pickle=False)
            except Exception as exc:
                # the file comes from outside, and numpy reports bad bytes
                # as ValueError, EOFError, SyntaxError, OverflowError,
                # tokenize.TokenError or, for a header that claims more
                # data than there is memory, MemoryError
                raise ParseError(
                    f"{path}: unreadable .npy file: {exc}") from None
    if arr.dtype != dtype:
        raise ParseError(f"{path}: expected fields {_fields(dtype)}, "
                         f"got {_fields(arr.dtype)}")
    if arr.ndim != 1:
        raise ParseError(f"{path}: expected a 1-D array, got shape "
                         f"{arr.shape}")
    return arr


def _load_columns(path, dtype):
    """A table as an array of `dtype`, and its rows as (line, fields)
    pairs, the fields stripped as the file has them; None for .npy. The
    file is .npy, or else CSV with a header naming at least the fields
    (see _write_columns), and blank lines skipped. A file with no rows is
    an error."""
    if _is_npy(path):
        arr = _read_npy(path, dtype)
        if arr.size == 0:
            raise DataError(f"{path}: no data rows")
        return arr, None
    rows = []
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise ParseError(f"{path}: empty file")
            header = [c.strip() for c in header]
            missing = [c for c in dtype.names if c not in header]
            if missing:
                raise ParseError(
                    f"{path}: missing columns {', '.join(missing)}", line=1)
            col = [header.index(c) for c in dtype.names]
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
    if not rows:
        raise DataError(f"{path}: no data rows")
    # text, and datetimes until they are parsed by column, stay as they are
    parse = [{"f": float, "i": np.int64}.get(dtype[name].kind, str)
             for name in dtype.names]
    values = []
    for line, fields in rows:
        try:
            values.append([p(v) for p, v in zip(parse, fields)])
        except (ValueError, OverflowError) as exc:
            raise ParseError(f"{path}: {exc}", line=line) from None
    arr = np.empty(len(rows), dtype=dtype)
    for i, name in enumerate(dtype.names):
        column = [v[i] for v in values]
        stamps = dtype[name].kind == "M"
        arr[name] = parse_timestamps(column) if stamps else column
        if stamps and np.isnat(arr[name]).any():
            k = int(np.argmax(np.isnat(arr[name])))
            raise ParseError(f"{path}: " + _BAD_STAMP.format(stamp=column[k]),
                             line=rows[k][0])
    return arr, rows


def _table(dtype, *columns):
    """The array of `dtype` whose fields are `columns`."""
    arr = np.empty(len(columns[0]), dtype=dtype)
    for name, values in zip(dtype.names, columns):
        arr[name] = values
    return arr


def _write_columns(path, table):
    """A structured array as .npy if the path ends so, else as CSV: its
    field names, then text as is, integers in decimal, floats with repr
    and datetimes as YYYY-MM-DDTHH:MM:SSZ; only fields needing quotes get
    them."""
    if _is_npy(path):
        with open(path, "wb") as fh:
            np.save(fh, table, allow_pickle=False)
        return
    columns = []
    for name in table.dtype.names:
        kind = table.dtype[name].kind
        values = format_timestamps(table[name]) if kind == "M" \
            else table[name]
        columns.append(list(map(repr if kind == "f" else str,
                                values.tolist())))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(table.dtype.names)
        writer.writerows(zip(*columns))


def load_sea_states(path):
    """A sea-state file, .npy or else CSV, as a SEA_STATE_DTYPE array: one
    point's series, checked row by row (see _sea_state_fault). A faulty
    row is a ParseError at its line of a CSV, or at its row (from 0) of an
    .npy, named with the point of the file stem."""
    arr, rows = _load_columns(path, SEA_STATE_DTYPE)
    fault = _series_fault(arr)
    if fault:
        row, reason = fault
        if rows is None:
            raise ParseError(f"{path}: {_stem(path)}: row {row}: {reason}")
        raise ParseError(f"{path}: {reason}", line=rows[row][0])
    return arr


def write_sea_states(series, path):
    """A SEA_STATE_DTYPE array as .npy if the path ends so, else as CSV.
    DataError, naming the point of the file stem, before anything is
    written, unless the series is one that load_sea_states would accept:
    a 1-D array of that dtype with at least one row, and no faulty row."""
    point = _stem(path)
    if series.dtype != SEA_STATE_DTYPE or series.ndim != 1:
        raise DataError(f"{point}: expected a 1-D array of fields "
                        f"{_fields(SEA_STATE_DTYPE)}, got shape "
                        f"{series.shape} of {_fields(series.dtype)}")
    if not series.size:
        raise DataError(f"{point}: empty sea-state series")
    fault = _series_fault(series)
    if fault:
        raise DataError(f"{point}: row {fault[0]}: {fault[1]}")
    _write_columns(path, series)


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
    # the median step, as np.median takes it (the mean of the two middle
    # steps of an even count), without np.median's numpy.ma NaN check:
    # the times are finite, so no step is NaN
    half = steps.size // 2
    mid = np.partition(steps, [half - 1, half])
    dt = float(mid[half] if steps.size % 2
               else (mid[half - 1] + mid[half]) / 2)
    if dt <= 0:
        raise ParseError(f"{path}: non-increasing time column")
    worst = float(np.max(np.abs(steps - dt)))
    if worst > SAMPLING_REL_TOL * dt:
        raise ParseError(
            f"{path}: non-uniform sampling, worst step deviation "
            f"{worst:.3e} s against dt={dt}")
    # here, so that only a stage that reads records loads spectral
    from .spectral import ElevationRecord
    return ElevationRecord(dt=dt, samples=eta)


def write_elevation(record, path):
    """Write .npy if the path ends so, else CSV (ELEVATION_DTYPE's fields)."""
    _write_columns(path, _table(
        ELEVATION_DTYPE, np.arange(record.samples.size) * record.dt,
        record.samples))


def write_point(directory, name, data):
    """Write a sea-state series (a SEA_STATE_DTYPE array) or an
    ElevationRecord as the .npy that load_point reads."""
    kind, write = (("sea_states", write_sea_states)
                   if isinstance(data, np.ndarray)
                   else ("elevation", write_elevation))
    os.makedirs(os.path.join(directory, kind), exist_ok=True)
    write(data, os.path.join(directory, kind, f"{name}.npy"))


def load_point(directory, name, kind="sea-states"):
    """directory/elevation/<name>.npy or .csv if `kind` is "elevation",
    else directory/sea_states/<name>.npy or .csv; both suffixes is an
    error, so a stale CSV cannot stand in for newer data."""
    sub, load = (("elevation", load_elevation) if kind == "elevation"
                 else ("sea_states", load_sea_states))
    paths = [os.path.join(directory, sub, f"{name}{ext}")
             for ext in (".npy", ".csv")]
    found = [p for p in paths if os.path.exists(p)]
    if len(found) == 2:
        raise DataError(f"both {found[0]} and {found[1]} exist; "
                        f"remove the stale one")
    if not found:
        raise FileNotFoundError(
            f"no input data for point {name} (looked for {', '.join(paths)})")
    return load(found[0])


def write_results(results, path, format="delimited", config=None):
    """A RESULT_DTYPE array as the results CSV ("delimited") or as one JSON
    document of the config echo and the assessments ("structured")."""
    if format == "delimited":
        _write_columns(path, results)
        return
    if format != "structured":
        raise DomainError(f"unknown results format {format!r}")
    doc = {"config": config or {},
           "assessments": [dict(zip(RESULT_DTYPE.names, row))
                           for row in results.tolist()]}
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def write_zone_shares(shares, path):
    """A ZONE_SHARE_DTYPE array as zone_shares.csv."""
    _write_columns(path, shares)


def _repeated(values):
    """True where a value equals one before it."""
    repeated = np.ones(values.size, dtype=bool)
    repeated[np.unique(values, return_index=True)[1]] = False
    return repeated


def _load_table(path, dtype, checks):
    """The table at `path` as an array of `dtype`, else ParseError at the
    first row with a non-finite float or flagged by one of `checks(arr)`,
    (mask, reason) pairs, in that order; the reason is formatted with the
    row's fields as a CSV has them, or with its values in an .npy, whose
    rows are counted from 0."""
    arr, rows = _load_columns(path, dtype)
    checks = [(~np.isfinite(arr[name]), f"non-finite {name} {{{name}}}")
              for name in dtype.names if dtype[name].kind == "f"] + checks(arr)
    fault = _first_fault(checks)
    if fault:
        row, reason = fault
        if rows is None:  # .npy: the row by its index, with its values
            line, fields, where = None, arr[row].tolist(), f"row {row}: "
        else:
            (line, fields), where = rows[row], ""
        raise ParseError(f"{path}: {where}" + reason.format(
            **dict(zip(dtype.names, fields))), line=line)
    return arr


def load_zone_shares(path):
    """zone_shares.csv as a ZONE_SHARE_DTYPE array. Totals and shares must
    be non-negative, each zone listed once."""
    return _load_table(path, ZONE_SHARE_DTYPE, lambda a: [
        ((a["total_power_wpm"] < 0) | (a["share"] < 0),
         "negative total {total_power_wpm} or share {share}"),
        (_repeated(a["zone"]), "duplicate zone {zone!r}")])


def write_features(features, path):
    """A FEATURE_DTYPE array as features.csv."""
    _write_columns(path, features)


def _power_check(a):
    return ((a["power_irregular_wpm"] < 0) | (a["power_regular_wpm"] < 0),
            "powers must be non-negative, got {power_irregular_wpm} and "
            "{power_regular_wpm}")


def load_features(path):
    """features.csv as a FEATURE_DTYPE array. Powers and mean heights must
    be non-negative, depths and mean periods positive, each point once."""
    return _load_table(path, FEATURE_DTYPE, lambda a: [
        _power_check(a),
        (a["depth_m"] <= 0, "non-positive depth_m {depth_m}"),
        (a["h_bar_m"] < 0, "negative h_bar_m {h_bar_m}"),
        (a["t_bar_s"] <= 0, "non-positive t_bar_s {t_bar_s}"),
        (_repeated(a["point"]), "duplicate point {point!r}")])


def write_reference(run, path):
    """reference.csv: the optimizer's best (H, T, d) and its power."""
    _write_columns(path, np.array([(*run.best_position, run.best_value)],
                                  dtype=REFERENCE_DTYPE))


def load_reference(path):
    """The (H, T, d) of reference.csv's first row, a float array. Every
    row's H, T and d must be positive."""
    table = _load_table(path, REFERENCE_DTYPE, lambda a: [
        (a[name] <= 0, f"non-positive {name} {{{name}}}")
        for name in REFERENCE_DTYPE.names[:3]])
    return np.array(table.tolist()[0][:3])


def write_bounds(bounds, path):
    """bounds.csv: the (H, T, d) search box the optimizer ran in."""
    _write_columns(path, _table(BOUNDS_DTYPE, DIMENSION_NAMES, bounds.lower,
                                bounds.upper))


def write_convergence(run, path):
    """convergence.csv: best power after each optimizer iteration."""
    _write_columns(path, _table(CONVERGENCE_DTYPE, np.arange(
        run.convergence.size), run.convergence))


def load_results(path):
    """results.csv as a RESULT_DTYPE array. Powers must be non-negative,
    the ranks the integers 1..n each once, and each point listed once."""
    return _load_table(path, RESULT_DTYPE, lambda a: [
        _power_check(a),
        ((a["rank"] < 1) | (a["rank"] > a.size) | _repeated(a["rank"]),
         f"rank {{rank}} is not one of 1..{a.size} taken once"),
        (_repeated(a["point"]), "duplicate point {point!r}")])


def write_report(results, shares, directory):
    """The plot-ready tables under `directory`, columns of the results and
    zone shares, and the zone shares through write_zone_shares; the powers
    are normalized by the largest, which must be positive (as the zone
    totals' sum is, which pipeline.zone_totals checks)."""
    power = results["power_irregular_wpm"]
    tables = {
        "power_by_point.csv": results[["point", "zone",
                                       "power_irregular_wpm"]],
        "power_by_zone.csv": shares[["zone", "total_power_wpm"]],
        "norm_by_point.csv": results[["point", "norm"]],
        "correlation_vs_power.csv": _table(
            np.dtype([("point", "O"), ("correlation", "<f8"),
                      ("normalized_power", "<f8")]),
            results["point"], results["correlation"], power / power.max()),
        "power_vs_hs_depth.csv": results[["point", "h_bar_m", "depth_m",
                                          "power_irregular_wpm"]],
    }
    os.makedirs(directory, exist_ok=True)
    for name, table in tables.items():
        _write_columns(os.path.join(directory, name), table)
    write_zone_shares(shares, os.path.join(directory, "zone_shares.csv"))
