"""Table formats: the site catalog, and every table to and from files.

Every table is one structured array of its own dtype. One writer,
write_table, and a reader per table take it to and from UTF-8 CSV with
a header row by field kind: floats with repr, so write-then-load
round-trips exactly and identical inputs give byte-identical files; the
csv module quotes a field holding a comma or a quote. What a table
holds its callers decide; the other two writers only check a series
(write_sea_states) or lay out a record (write_elevation) first.

Per-point data (POINT_KINDS) is handed from stage to stage as the .npy
np.save writes, so no float goes through text; a reader takes a file
that starts with that header as it is, any other .npy through np.load.
"""

import csv
import functools
import io
import math
import os
import re
import warnings

import numpy as np

from .errors import DataError, ParseError

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
# the (height, period, depth) dimensions, as bounds.csv names them
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
_BAD_STAMP = "bad timestamp {timestamp!r}, expected YYYY-MM-DDTHH:MM:SSZ"
# largest |step - median step| / median step of an elevation record
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
    return _load_table(path, CATALOG_DTYPE, lambda a: _finite(a) + [
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


def parse_timestamps(stamps):
    """YYYY-MM-DDTHH:MM:SSZ strings as datetime64[s]; NaT for any string not
    exactly of that form (a bare date, another precision or zone, a year
    outside 0000-9999): a value stands only if it formats back to the
    string without its "Z" and lies in [FIRST_TIME, LAST_TIME]."""
    body = [s[:-1] if s[-1:] == "Z" else "" for s in stamps]
    with warnings.catch_warnings():
        # numpy warns on a zone offset; the round trip rejects it anyway
        warnings.simplefilter("ignore")
        try:
            times = np.array(body, dtype="datetime64[s]")
        except ValueError:  # some string numpy cannot read: one by one
            times = np.array([_datetime_or_nat(b) for b in body],
                             dtype="datetime64[s]")
    times[(np.datetime_as_string(times, unit="s")
           != np.array(body, dtype=str))
          | (times < FIRST_TIME) | (times > LAST_TIME)] = np.datetime64("NaT")
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


def _row_fault(arr, checks, rows=None):
    """(line, reason) of the first row of `arr` that one of `checks`,
    (mask, reason) pairs, flags, with the reason of the first check that
    flags it; None if no check flags a row. The reason is formatted with
    the row's fields as written, given `rows`, a CSV's (line, fields)
    pairs; else, with no line, it follows "row R: " (rows counted from 0)
    and holds the row's values, datetimes as YYYY-MM-DDTHH:MM:SSZ."""
    faults = [(int(np.argmax(bad)), k) for k, (bad, _) in enumerate(checks)
              if bad.any()]
    if not faults:
        return None
    row, k = min(faults)
    reason, names = checks[k][1], arr.dtype.names
    if rows is not None:
        line, fields = rows[row]
        return line, reason.format(**dict(zip(names, fields)))
    fields = [(format_timestamps(column) if column.dtype.kind == "M"
               else column).tolist()[0]
              for column in (arr[name][row:row + 1] for name in names)]
    return None, f"row {row}: " + reason.format(**dict(zip(names, fields)))


def _finite(a):
    """The checks that each float field of the array `a` is finite."""
    return [(~np.isfinite(a[name]), f"non-finite {name} {{{name}}}")
            for name in a.dtype.names if a.dtype[name].kind == "f"]


def _not_after_previous(column):
    """True where a value is not greater than the one before it."""
    flags = np.zeros(column.size, dtype=bool)
    flags[1:] = ~(column[1:] > column[:-1])
    return flags


def _sea_state_checks(series):
    """The row checks of a SEA_STATE_DTYPE array, in the order they run on
    one row."""
    times, hs, te = series["timestamp"], series["hs_m"], series["te_s"]
    return [
        (~((times >= FIRST_TIME) & (times <= LAST_TIME)), _BAD_STAMP),
        (_not_after_previous(times), "non-increasing timestamp {timestamp}"),
        (~np.isfinite(hs), "non-finite Hs {hs_m}"),
        (~np.isfinite(te), "non-finite Te {te_s}"),
        (hs < 0, "negative Hs {hs_m}"),
        (te <= 0, "non-positive Te {te_s}")]


def _elevation_checks(record):
    """The row checks of an ELEVATION_DTYPE array, in the order they run on
    one row."""
    return _finite(record) + [(_not_after_previous(record["time_s"]),
                               "non-increasing time_s {time_s}")]


def _is_npy(path):
    return os.fspath(path).endswith(".npy")


def escape(text):
    """`text` with each character str.isprintable refuses (line breaks and
    other controls, format characters such as U+200B, spaces but " ") as
    its escape in repr, so a message stays one visible line."""
    return "".join(c if c.isprintable() else repr(c)[1:-1] for c in text)


def _fields(dtype):
    """The fields of `dtype` as "name type, ..." for a message; a name can
    come from a file's header, so it is escaped (see escape)."""
    if dtype.names is None:
        return dtype.str
    return ", ".join(escape(n) + " " + dtype.fields[n][0].str
                     for n in dtype.names)


@functools.lru_cache(maxsize=64)
def _npy_header(dtype, rows):
    """The format 1.0 header np.save writes for a 1-D array of `rows` rows
    of `dtype`, as bytes, which _saved_array matches a file against; None
    for a dtype with object fields, which np.save pickles, or whose
    header format 1.0 cannot hold."""
    if dtype.hasobject:
        return None
    header = io.BytesIO()
    try:
        np.lib.format.write_array_header_1_0(header, {
            "descr": np.lib.format.dtype_to_descr(dtype),
            "fortran_order": False, "shape": (rows,)})
    except ValueError:
        return None
    return header.getvalue()


def _saved_array(raw, dtype):
    """The array in `raw`, the bytes of an .npy file, if its header is byte
    for byte the one np.save writes for a 1-D array of `dtype` with as
    many rows as follow it (see _npy_header); else None. Bytes short of
    one more row are left out, as np.load leaves them."""
    start = 10 + int.from_bytes(raw[8:10], "little")
    n = (len(raw) - start) // dtype.itemsize
    header = _npy_header(dtype, n) if n >= 0 else None
    # the header holds its own length, so matching it matches `start`
    if header is None or not raw.startswith(header):
        return None
    return np.frombuffer(raw, dtype=dtype, count=n, offset=start)


def _read_npy(path, dtype):
    """The 1-D array of exactly `dtype` in an .npy file, else ParseError;
    DataError for a file too large to hold in memory. The file is read
    once, and the row count follows from its size. A file whose header is
    the one np.save writes for that many rows of `dtype` is taken as it
    is; any other (another header layout or version, dtype or shape, extra
    or missing rows) goes through np.load and all of its checks. Either
    way the array is writable."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        try:
            raw = bytearray(size)
        except MemoryError:
            raise DataError(f"{path}: {size} bytes, too large to read") \
                from None
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
    file is .npy, or else UTF-8 CSV (see write_table), a leading byte-order
    mark skipped, with a header naming each field once, beside any other
    columns, and blank lines skipped; a timestamp that does not parse is
    NaT, for the table's row checks to refuse. A file with no rows is an
    error."""
    if _is_npy(path):
        arr = _read_npy(path, dtype)
        if arr.size == 0:
            raise DataError(f"{path}: no data rows")
        return arr, None
    rows = []
    try:
        with open(path, encoding="utf-8-sig", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise ParseError(f"{path}: empty file")
            header = [c.strip() for c in header]
            missing = [c for c in dtype.names if c not in header]
            if missing:
                raise ParseError(
                    f"{path}: missing columns {', '.join(missing)}", line=1)
            repeated = [c for c in dtype.names if header.count(c) > 1]
            if repeated:
                raise ParseError(
                    f"{path}: repeated columns {', '.join(repeated)}", line=1)
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
    for name, column in zip(dtype.names, zip(*values)):
        arr[name] = parse_timestamps(column) if dtype[name].kind == "M" \
            else column
    return arr, rows


def _table(dtype, *columns):
    """The array of `dtype` whose fields are `columns`."""
    arr = np.empty(len(columns[0]), dtype=dtype)
    for name, values in zip(dtype.names, columns):
        arr[name] = values
    return arr


def write_table(table, path):
    """A structured array as .npy if the path ends so, else as CSV: its
    field names, then text as is, integers in decimal, floats with repr
    and datetimes as YYYY-MM-DDTHH:MM:SSZ; only fields needing quotes get
    them. An .npy is written by np.save."""
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
    point's series, checked row by row (see _sea_state_checks and
    _load_table)."""
    return _load_table(path, SEA_STATE_DTYPE, _sea_state_checks)


def write_sea_states(series, path):
    """A SEA_STATE_DTYPE array as .npy if the path ends so, else as CSV.
    DataError, naming the point of the file stem, before anything is
    written, unless the series is one that load_sea_states would accept:
    a 1-D array of that dtype with at least one row, and no faulty row."""
    point = os.path.splitext(os.path.basename(path))[0]
    if series.dtype != SEA_STATE_DTYPE or series.ndim != 1:
        raise DataError(f"{point}: expected a 1-D array of fields "
                        f"{_fields(SEA_STATE_DTYPE)}, got shape "
                        f"{series.shape} of {_fields(series.dtype)}")
    if not series.size:
        raise DataError(f"{point}: empty sea-state series")
    fault = _row_fault(series, _sea_state_checks(series))
    if fault:
        raise DataError(f"{point}: {fault[1]}")
    write_table(series, path)


def load_elevation(path):
    """An elevation file, .npy or else CSV, with the fields of
    ELEVATION_DTYPE, as an ElevationRecord: finite times and elevations,
    the times strictly increasing (checked row by row, see _load_table)
    and sampled uniformly, within SAMPLING_REL_TOL, at a finite median
    step."""
    arr = _load_table(path, ELEVATION_DTYPE, _elevation_checks)
    t, eta = arr["time_s"], arr["eta_m"].copy()
    if t.size < 2:
        raise DataError(f"{path}: need at least 2 samples")
    # the median step, as np.median takes it (the mean of the two middle
    # steps of an even count), without np.median's numpy.ma NaN check:
    # the times are finite and increasing, so every step is positive, and
    # one past the largest float is inf
    with np.errstate(over="ignore"):
        steps = np.diff(t)
        half = steps.size // 2
        mid = np.partition(steps, [half - 1, half])
        dt = float(mid[half] if steps.size % 2
                   else (mid[half - 1] + mid[half]) / 2)
    if not dt < np.inf:
        raise ParseError(f"{path}: non-finite median time step {dt}")
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
    write_table(_table(
        ELEVATION_DTYPE, np.arange(record.samples.size) * record.dt,
        record.samples), path)


# each --kind: its per-point directory, loader and writer, looked up when
# called, so that a wrapper swapped in for one (bench/tracer.py) runs
POINT_KINDS = {
    "sea-states": ("sea_states", lambda path: load_sea_states(path),
                   lambda data, path: write_sea_states(data, path)),
    "elevation": ("elevation", lambda path: load_elevation(path),
                  lambda data, path: write_elevation(data, path))}


def write_point(directory, name, data):
    """Write a sea-state series (a SEA_STATE_DTYPE array) or an
    ElevationRecord as <directory>/<its kind's directory>/<name>.npy by
    its POINT_KINDS writer, for load_point to read."""
    sub, _, write = POINT_KINDS[
        "sea-states" if isinstance(data, np.ndarray) else "elevation"]
    os.makedirs(os.path.join(directory, sub), exist_ok=True)
    write(data, os.path.join(directory, sub, f"{name}.npy"))


def load_point(directory, name, kind="sea-states"):
    """<directory>/<kind's directory>/<name>.npy or .csv by the POINT_KINDS
    loader of `kind`; both suffixes is an error, so a stale CSV cannot
    stand in for newer data."""
    sub, load, _ = POINT_KINDS[kind]
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


def _repeated(values):
    """True where a value equals one before it."""
    repeated = np.ones(values.size, dtype=bool)
    repeated[np.unique(values, return_index=True)[1]] = False
    return repeated


def _load_table(path, dtype, checks):
    """The table at `path` as an array of `dtype`, else ParseError at its
    first row that one of `checks(arr)`, (mask, reason) pairs, flags: at
    its line of a CSV, or at its row of an .npy (see _row_fault)."""
    arr, rows = _load_columns(path, dtype)
    fault = _row_fault(arr, checks(arr), rows)
    if fault:
        line, reason = fault
        raise ParseError(f"{path}: {reason}", line=line)
    return arr


def _power_check(a):
    return ((a["power_irregular_wpm"] < 0) | (a["power_regular_wpm"] < 0),
            "powers must be non-negative, got {power_irregular_wpm} and "
            "{power_regular_wpm}")


def load_features(path):
    """features.csv as a FEATURE_DTYPE array. Powers and mean heights must
    be non-negative, depths and mean periods positive, each point once."""
    return _load_table(path, FEATURE_DTYPE, lambda a: _finite(a) + [
        _power_check(a),
        (a["depth_m"] <= 0, "non-positive depth_m {depth_m}"),
        (a["h_bar_m"] < 0, "negative h_bar_m {h_bar_m}"),
        (a["t_bar_s"] <= 0, "non-positive t_bar_s {t_bar_s}"),
        (_repeated(a["point"]), "duplicate point {point!r}")])


def load_reference(path):
    """The (H, T, d) of reference.csv's one row, a float array. Its H, T
    and d must be positive, and a second row is refused at its line."""
    table = _load_table(path, REFERENCE_DTYPE, lambda a: _finite(a) + [
        (a[name] <= 0, f"non-positive {name} {{{name}}}")
        for name in REFERENCE_DTYPE.names[:3]] + [
        (np.arange(a.size) > 0, "more than one reference row")])
    return np.array(table.tolist()[0][:3])


def load_results(path):
    """results.csv as a RESULT_DTYPE array. Powers must be non-negative,
    the ranks the integers 1..n each once, and each point listed once."""
    return _load_table(path, RESULT_DTYPE, lambda a: _finite(a) + [
        _power_check(a),
        ((a["rank"] < 1) | (a["rank"] > a.size) | _repeated(a["rank"]),
         f"rank {{rank}} is not one of 1..{a.size} taken once"),
        (_repeated(a["point"]), "duplicate point {point!r}")])
