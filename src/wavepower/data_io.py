"""Site catalog, CSV ingestion and result serialization.

Delimited files are comma-separated UTF-8 with a header row, "." decimal
separator and ISO-8601 UTC timestamps. Floats are written with repr so
write-then-load round-trips exactly and identical inputs produce
byte-identical files.
"""

import json
import os
from dataclasses import dataclass

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
SEA_STATE_COLUMNS = ["timestamp", "hs_m", "te_s"]
ELEVATION_COLUMNS = ["time_s", "eta_m"]
RESULTS_COLUMNS = ["point", "zone", "h_bar_m", "t_bar_s", "depth_m",
                   "power_irregular_wpm", "power_regular_wpm", "norm",
                   "correlation", "rank"]
ZONE_SHARE_COLUMNS = ["zone", "total_power_wpm", "share"]
FEATURE_COLUMNS = ["point", "zone", "h_bar_m", "t_bar_s", "depth_m",
                   "power_irregular_wpm", "power_regular_wpm"]
REFERENCE_COLUMNS = ["h_opt_m", "t_opt_s", "d_opt_m", "best_power_wpm"]


def _fmt(x):
    return repr(float(x))


@dataclass(frozen=True)
class CatalogEntry:
    index: int
    name: str
    zone: str
    lat: float
    lon: float
    depth: float | None = None


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
        seen = []
        for e in self.entries:
            if e.zone not in seen:
                seen.append(e.zone)
        return seen

    def zone_sizes(self):
        return tuple(sum(1 for e in self.entries if e.zone == z)
                     for z in self.zones())

    def with_depths(self, depths):
        """Copy with per-point depths (mapping name -> depth)."""
        from dataclasses import replace
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
    with open(path, encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    if not lines:
        raise ParseError(f"{path}: empty file")
    header = [c.strip() for c in lines[0].split(",")]
    missing = [c for c in required_columns if c not in header]
    if missing:
        raise ParseError(
            f"{path}: missing columns {', '.join(missing)}", line=1)
    col = {c: header.index(c) for c in required_columns}
    rows = []
    for lineno, ln in enumerate(lines[1:], start=2):
        if not ln.strip():
            continue
        parts = ln.split(",")
        if len(parts) < len(header):
            raise ParseError(f"{path}: expected {len(header)} fields",
                             line=lineno)
        rows.append((lineno, [parts[col[c]].strip()
                              for c in required_columns]))
    return rows


def load_catalog(path):
    """Parse a catalog CSV (schema: index,name,zone,lat_deg,lon_deg,depth_m)."""
    rows = _read_rows(path, CATALOG_COLUMNS)
    entries = []
    seen = set()
    for lineno, (idx, name, zone, lat, lon, depth) in rows:
        try:
            idx = int(idx)
            lat = float(lat)
            lon = float(lon)
            depth = float(depth) if depth else None
        except ValueError as exc:
            raise ParseError(f"{path}: {exc}", line=lineno) from None
        if name in seen:
            raise ParseError(f"{path}: duplicate point name {name!r}",
                             line=lineno)
        seen.add(name)
        if not (-90 <= lat <= 90) or not (-180 <= lon <= 180):
            raise ParseError(
                f"{path}: coordinates ({lat}, {lon}) out of range",
                line=lineno)
        if depth is not None and depth <= 0:
            raise ParseError(f"{path}: depth must be positive", line=lineno)
        entries.append(CatalogEntry(index=idx, name=name, zone=zone,
                                    lat=lat, lon=lon, depth=depth))
    return SiteCatalog(entries=tuple(entries))


def write_catalog(catalog, path):
    _write_text(path, _table(CATALOG_COLUMNS, (
        (str(e.index), e.name, e.zone, e.lat, e.lon,
         "" if e.depth is None else e.depth) for e in catalog)))


@dataclass(frozen=True)
class SeaStateSeries:
    """Hourly (or otherwise sampled) Hs/Te summaries for one point."""

    point: str
    timestamps: tuple  # ISO-8601 UTC strings, strictly increasing
    hs: np.ndarray
    te: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "hs", np.asarray(self.hs, dtype=float))
        object.__setattr__(self, "te", np.asarray(self.te, dtype=float))
        n = len(self.timestamps)
        if n == 0:
            raise DataError(f"{self.point}: empty sea-state series")
        if self.hs.shape != (n,) or self.te.shape != (n,):
            raise DataError(f"{self.point}: column length mismatch")
        if np.any(self.hs < 0) or np.any(self.te <= 0):
            raise DataError(f"{self.point}: invalid Hs/Te values")
        for a, b in zip(self.timestamps, self.timestamps[1:]):
            if b <= a:
                raise DataError(
                    f"{self.point}: timestamps not strictly increasing "
                    f"at {b}")

    def __len__(self):
        return len(self.timestamps)


def load_sea_states(path, point=None):
    """Parse a sea-state CSV (timestamp,hs_m,te_s); point defaults to the
    file stem."""
    if point is None:
        point = os.path.splitext(os.path.basename(path))[0]
    rows = _read_rows(path, SEA_STATE_COLUMNS)
    if not rows:
        raise DataError(f"{path}: no data rows")
    times, hs, te = [], [], []
    prev = None
    for lineno, (ts, h, t) in rows:
        try:
            h = float(h)
            t = float(t)
        except ValueError as exc:
            raise ParseError(f"{path}: {exc}", line=lineno) from None
        if prev is not None and ts <= prev:
            raise ParseError(f"{path}: non-increasing timestamp {ts}",
                             line=lineno)
        if h < 0:
            raise ParseError(f"{path}: negative Hs {h}", line=lineno)
        if t <= 0:
            raise ParseError(f"{path}: non-positive Te {t}", line=lineno)
        prev = ts
        times.append(ts)
        hs.append(h)
        te.append(t)
    return SeaStateSeries(point=point, timestamps=tuple(times),
                          hs=np.array(hs), te=np.array(te))


def write_sea_states(series, path):
    lines = [",".join(SEA_STATE_COLUMNS)]
    lines.extend(f"{ts},{_fmt(h)},{_fmt(t)}"
                 for ts, h, t in zip(series.timestamps, series.hs, series.te))
    _write_text(path, lines)


def load_elevation(path, rel_tol=1e-6):
    """Parse an elevation CSV (time_s,eta_m); sampling must be uniform
    within rel_tol."""
    rows = _read_rows(path, ELEVATION_COLUMNS)
    if len(rows) < 2:
        raise DataError(f"{path}: need at least 2 samples")
    try:
        t = np.array([float(r[1][0]) for r in rows])
        eta = np.array([float(r[1][1]) for r in rows])
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from None
    steps = np.diff(t)
    dt = float(np.median(steps))
    if dt <= 0:
        raise ParseError(f"{path}: non-increasing time column")
    worst = float(np.max(np.abs(steps - dt)))
    if worst > rel_tol * dt:
        raise ParseError(
            f"{path}: non-uniform sampling, worst step deviation "
            f"{worst:.3e} s against dt={dt}")
    return ElevationRecord(dt=dt, samples=eta)


def write_elevation(record, path):
    lines = [",".join(ELEVATION_COLUMNS)]
    t = np.arange(record.samples.size) * record.dt
    lines.extend(f"{_fmt(ti)},{_fmt(x)}"
                 for ti, x in zip(t, record.samples))
    _write_text(path, lines)


def _point_paths(directory, name):
    return [os.path.join(directory, sub, f"{name}.csv")
            for sub in ("sea_states", "elevation")]


def write_point(directory, name, data):
    """Write a SeaStateSeries or ElevationRecord where load_point looks."""
    ss, el = _point_paths(directory, name)
    path = ss if isinstance(data, SeaStateSeries) else el
    os.makedirs(os.path.dirname(path), exist_ok=True)
    (write_sea_states if path == ss else write_elevation)(data, path)


def load_point(directory, name):
    """directory/sea_states/<name>.csv, else elevation/<name>.csv."""
    ss, el = _point_paths(directory, name)
    if os.path.exists(ss):
        return load_sea_states(ss, point=name)
    if os.path.exists(el):
        return load_elevation(el)
    raise FileNotFoundError(
        f"no input data for point {name} (looked for {ss} and {el})")


def results_rows(assessments):
    """Assessments as delimited rows per the results schema."""
    return _table(RESULTS_COLUMNS, (
        (s.point_id, s.zone, s.h_bar, s.t_bar, s.depth, s.power_irregular,
         s.power_regular, s.norm, s.correlation, str(s.rank))
        for s in assessments))


def write_results(assessments, run, path, format="delimited",
                  config=None, catalog=None):
    """Serialize ranked assessments (and optionally the optimizer run).

    "delimited" writes the results CSV schema; "structured" writes one
    self-describing JSON document carrying the config echo, catalog,
    assessments and the convergence curve.
    """
    if format == "delimited":
        _write_text(path, results_rows(assessments))
        return
    if format != "structured":
        raise DomainError(f"unknown results format {format!r}")
    doc = {
        "config": config or {},
        "catalog": [
            {"index": e.index, "name": e.name, "zone": e.zone,
             "lat_deg": e.lat, "lon_deg": e.lon, "depth_m": e.depth}
            for e in (catalog or [])],
        "assessments": [
            {"point": s.point_id, "zone": s.zone, "h_bar_m": s.h_bar,
             "t_bar_s": s.t_bar, "depth_m": s.depth,
             "power_irregular_wpm": s.power_irregular,
             "power_regular_wpm": s.power_regular, "norm": s.norm,
             "correlation": s.correlation, "rank": s.rank}
            for s in assessments],
        "gwo": None if run is None else {
            "best_position": [float(v) for v in run.best_position],
            "best_value": run.best_value,
            "evaluations": run.evaluations,
            "convergence": [float(v) for v in run.convergence],
        },
    }
    _write_text(path, [json.dumps(doc, indent=2, sort_keys=True)])


def write_zone_shares(totals, shares, path):
    """Zone share table (zone,total_power_wpm,share) in zone order."""
    _write_text(path, _table(ZONE_SHARE_COLUMNS,
                             ((z, totals[z], shares[z]) for z in totals)))


def load_zone_shares(path):
    """Zone share table as ({zone: total}, {zone: share}) in file order."""
    rows = _records(path, ZONE_SHARE_COLUMNS, n_text=1)
    return ({z: total for z, total, _ in rows},
            {z: share for z, _, share in rows})


def _records(path, columns, n_text):
    """Data rows of a stage table: the first n_text fields as text, the
    rest as floats. A table with no data rows is an error."""
    rows = _read_rows(path, columns)
    if not rows:
        raise DataError(f"{path}: no data rows")
    out = []
    for lineno, fields in rows:
        try:
            out.append(fields[:n_text] + [float(v) for v in fields[n_text:]])
        except ValueError as exc:
            raise ParseError(f"{path}: {exc}", line=lineno) from None
    return out


def write_features(rows, path):
    """features.csv: (PointFeatures, irregular power, regular power) rows."""
    _write_text(path, _table(FEATURE_COLUMNS, (
        (f.point_id, f.zone, f.h_bar, f.t_bar, f.depth, p_irr, p_reg)
        for f, p_irr, p_reg in rows)))


def load_features(path):
    """features.csv back as (PointFeatures, irregular, regular power) rows."""
    return [(PointFeatures(point_id=name, zone=zone, h_bar=h, t_bar=t,
                           depth=d), p_irr, p_reg)
            for name, zone, h, t, d, p_irr, p_reg in
            _records(path, FEATURE_COLUMNS, n_text=2)]


def write_reference(run, path):
    """reference.csv: the optimizer's best (H, T, d) and its power."""
    _write_text(path, _table(REFERENCE_COLUMNS,
                             [(*run.best_position, run.best_value)]))


def load_reference(path):
    h, t, d, _ = _records(path, REFERENCE_COLUMNS, n_text=0)[0]
    return OptimalReference(h_opt=h, t_opt=t, d_opt=d)


def write_bounds(bounds, path):
    """bounds.csv: the (H, T, d) search box the optimizer ran in."""
    _write_text(path, _table(["dimension", "lower", "upper"], zip(
        ("H", "T", "d"), bounds.lower, bounds.upper)))


def write_convergence(run, path):
    """convergence.csv: best power after each optimizer iteration."""
    _write_text(path, _table(["iteration", "best_power_wpm"], (
        (str(i), v) for i, v in enumerate(run.convergence))))


def load_results(path):
    """A delimited results file back as ranked SiteAssessments."""
    return [SiteAssessment(point_id=p, zone=z, h_bar=h, t_bar=t, depth=d,
                           power_irregular=p_irr, power_regular=p_reg,
                           norm=nm, correlation=c, rank=int(rk))
            for p, z, h, t, d, p_irr, p_reg, nm, c, rk in
            _records(path, RESULTS_COLUMNS, n_text=2)]


def write_report(ranked, totals, shares, directory):
    """The plot-ready tables under `directory`: powers by point and zone,
    norms, correlation vs power, power vs height and depth, zone shares."""
    def table(name, header, rows):
        _write_text(os.path.join(directory, name),
                    _table(header.split(","), rows))

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


def _table(columns, rows):
    """Header and rows of a delimited table: text as is, numbers as floats
    with repr."""
    return [",".join(columns)] + [
        ",".join(v if isinstance(v, str) else _fmt(v) for v in row)
        for row in rows]


def _write_text(path, lines):
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise OSError(f"failed writing {path}: {exc}") from exc
