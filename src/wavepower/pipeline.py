"""The assessment chain without file I/O: synthetic sea states -> point
features and powers -> GWO optimum over (H, T, d) -> ranking -> zone
totals. The CLI stages and the demo call these functions.

Each function imports the wavepower modules beyond data_io that it
runs, so a stage process loads only those of its own stage."""

import numpy as np

from . import data_io
from .errors import ConfigError, DataError, DomainError, JoinError


def apply_depths(catalog, depth_range=None, depth=None):
    """Copy of a catalog array with depths spread over (lo, hi), else all
    `depth`, else its own, each written as the repr of its float."""
    n = len(catalog)
    if depth_range:
        lo, hi = depth_range
        depths = [lo + (hi - lo) * i / max(n - 1, 1) for i in range(n)]
    elif depth is not None:
        depths = [depth] * n
    elif all(catalog["depth_m"].tolist()):
        depths = catalog["depth_m"].tolist()
    else:
        raise ConfigError(
            "catalog carries no depths; pass --depth or --depth-range")
    catalog = catalog.copy()
    catalog["depth_m"] = [repr(float(d)) for d in depths]
    return catalog


def select_points(column, names=None):
    """Indices of `names` in the name column `column`, in that order; all
    indices if no names."""
    index = {name: i for i, name in enumerate(column.tolist())}
    if not names:
        return list(index.values())
    missing = [n for n in names if n not in index]
    if missing:
        raise JoinError(f"unknown points: {', '.join(missing)}")
    return [index[n] for n in names]


@np.errstate(over="ignore")  # the builders below pass an inf mean on
def schedule_means(catalog, hs_base, te_base):
    """name -> (Hs, Te) mean, spread over catalog order so sites differ."""
    frac = np.arange(len(catalog)) / max(len(catalog) - 1, 1)
    hs = hs_base * (0.6 + 0.8 * frac)
    te = te_base * (0.8 + 0.4 * frac)
    return {name: (hs[i], te[i])
            for i, name in enumerate(catalog["name"].tolist())}


def timestamps(start, hours):
    """`hours` hourly UTC times from `start` (a datetime or datetime64), as
    datetime64[s]."""
    return np.datetime64(start, "s") + np.arange(hours) * np.timedelta64(
        3600, "s")


@np.errstate(over="ignore", invalid="ignore")
def sea_state_series(entry, mean, times, seed):
    """Noisy Hs/Te at `times`, recentred so the series mean is the
    schedule mean: a data_io.SEA_STATE_DTYPE array. An overflow leaves a
    non-finite value, which write_sea_states refuses."""
    hs_mean, te_mean = mean
    rng = np.random.default_rng(seed + int(entry["index"]))
    hs = hs_mean * (1.0 + 0.4 * rng.uniform(-1, 1, len(times)))
    te = te_mean * (1.0 + 0.2 * rng.uniform(-1, 1, len(times)))
    hs += hs_mean - hs.mean()
    te += te_mean - te.mean()
    series = np.empty(len(times), dtype=data_io.SEA_STATE_DTYPE)
    series["timestamp"], series["hs_m"], series["te_s"] = times, hs, te
    return series


@np.errstate(over="ignore", invalid="ignore")
def elevation_record(entry, mean, duration, dt, seed):
    """Random-phase record of a flat band [0.8, 1.2] / Te with m0 of Hs;
    VarianceDensitySpectrum or ElevationRecord refuses one that overflows,
    and synthesize_record a duration and dt that do not sample the band."""
    from . import spectral
    hs_mean, te_mean = mean
    f_lo, f_hi = 0.8 / te_mean, 1.2 / te_mean
    target = spectral.uniform_spectrum((hs_mean / 4.0) ** 2 / (f_hi - f_lo),
                                       f_lo, f_hi, (f_hi - f_lo) / 32)
    return spectral.synthesize_record(target, duration, dt,
                                      seed=seed + int(entry["index"]))


def point_features(entry, data, env, segments=8, taper="raised-cosine"):
    """(entry, h_bar, t_bar, irregular power) of one point (a catalog row)
    from a sea-state series (a data_io.SEA_STATE_DTYPE array) or an
    ElevationRecord; feature_rows turns these into the features array,
    with the regular power of many points at once. DomainError if the
    irregular power is not finite."""
    from . import spectral
    # an overflow or invalid value leaves a non-finite spectrum, mean or
    # power, which VarianceDensitySpectrum, regular_wave_power or the
    # check below refuses
    with np.errstate(over="ignore", invalid="ignore"):
        if isinstance(data, np.ndarray):
            hs, te = data["hs_m"], data["te_s"]
            h_bar, t_bar = float(hs.mean()), float(te.mean())
            p_irr = float(spectral.parametric_power(hs, te, env).mean())
        else:
            spec = spectral.estimate_spectrum(data, segments, taper)
            h_bar, t_bar = spectral.sea_state_stats(spec)
            p_irr = spectral.irregular_wave_power(spec, env)
    if not p_irr < np.inf:
        raise DomainError(f"irregular power {p_irr} W/m is not finite")
    return entry, h_bar, t_bar, p_irr


def feature_rows(points, env):
    """The features array, the rows of features.csv, of point_features
    results. The regular powers at every point's (h_bar, t_bar, depth) come
    from one batched regular_wave_power call, with the bits of one call per
    point, which checks those three values; DomainError if one of those
    powers is not finite."""
    from . import mechanics
    h, t, d = np.array([(h_bar, t_bar, float(e["depth_m"]))
                        for e, h_bar, t_bar, _ in points],
                       dtype=float).reshape(-1, 3).T
    with np.errstate(over="ignore"):  # an overflow is refused below
        p_reg = mechanics.regular_wave_power(h, t, d, env)
    if not np.isfinite(p_reg).all():
        raise DomainError(f"regular-wave power {p_reg.max()} W/m is not "
                          f"finite")
    return np.array([(e["name"], e["zone"], h_bar, t_bar, depth, p_irr, p)
                     for (e, h_bar, t_bar, p_irr), depth, p in
                     zip(points, d.tolist(), p_reg.tolist())],
                    dtype=data_io.FEATURE_DTYPE)


def _vectors(features):
    """The (H, T, d) rows of a features array."""
    return np.column_stack([features["h_bar_m"], features["t_bar_s"],
                            features["depth_m"]])


def derived_bounds(features):
    """The (H, T, d) search box spanned by the features array itself;
    DataError for an empty array, before any reduction."""
    from . import gwo
    if not len(features):
        raise DataError("no features to bound")
    arr = _vectors(features)
    lower, upper = arr.min(axis=0), arr.max(axis=0)
    if np.any(lower >= upper):
        labels = np.array(data_io.DIMENSION_NAMES)[lower >= upper]
        raise ConfigError(f"degenerate data-derived bounds in "
                          f"{', '.join(labels)}; pass --bounds explicitly")
    return gwo.SearchBounds(lower=lower, upper=upper)


def optimize(bounds, env, agents=10, iters=200, seed=0):
    """GWO run maximizing regular-wave power over (H, T, d) in `bounds`."""
    from . import gwo, mechanics

    def objective(x):
        # an overflow leaves an inf power, which gwo_maximize refuses
        with np.errstate(over="ignore"):
            return mechanics.regular_wave_power(x[0], x[1], x[2], env)

    return gwo.gwo_maximize(objective, bounds, gwo.GwoConfig(
        agents=agents, max_iter=iters, seed=seed))


def assess(features, ref, mode="raw"):
    """Score a features array against `ref`, the (H, T, d) array of the
    optimum, in assessment.NORM_RAW or NORM_MINMAX `mode`: the results
    array in rank order. Every row's norm comes before any correlation;
    DataError for an empty array, before either, and DomainError, naming
    the first such point, if a score is not finite."""
    from . import assessment
    if not len(features):
        raise DataError("nothing to rank")
    vectors = _vectors(features)
    results = np.empty(len(features), dtype=data_io.RESULT_DTYPE)
    for name in features.dtype.names:
        results[name] = features[name]
    # values near the largest float overflow the squares and sums that the
    # scores take; the check below refuses the scores they leave
    with np.errstate(over="ignore", invalid="ignore"):
        results["norm"] = assessment.deviation_norm(vectors, ref, mode)
        results["correlation"] = assessment.correlation_score(vectors, ref)
    finite = np.isfinite(results["norm"]) & np.isfinite(results["correlation"])
    if not finite.all():
        raise DomainError(f"point {results['point'][~finite][0]}: score "
                          f"against the reference is not finite")
    return assessment.rank_points(results)


def zone_totals(results, zones):
    """The zone-share array (data_io.ZONE_SHARE_DTYPE): each zone's total,
    np.sum of its irregular powers in results order, and its share, that
    over the totals' sum in the order zones first appear in the results.
    Zones follow their first appearance in `zones`, e.g. catalog order.
    DomainError unless that sum is positive and finite."""
    by_zone = {}
    for zone, power in zip(results["zone"].tolist(),
                           results["power_irregular_wpm"].tolist()):
        by_zone.setdefault(zone, []).append(power)
    totals = {zone: float(np.sum(powers)) for zone, powers in by_zone.items()}
    grand = sum(totals.values())
    if not 0 < grand < np.inf:
        raise DomainError(f"total power must be positive and finite, got "
                          f"{grand}")
    return np.array([(z, totals[z], totals[z] / grand)
                     for z in dict.fromkeys(zones)],
                    dtype=data_io.ZONE_SHARE_DTYPE)


def check_zone_shares(results, shares):
    """JoinError unless the zone-share array `shares` names the zones of
    the results array `results`, and DataError at its first row that
    differs, to the bit, from zone_totals of the results in rank order,
    the order rank sums in; so the zone shares rank wrote pass, whatever
    the row order of either file."""
    zones = shares["zone"].tolist()
    odd = set(results["zone"].tolist()).symmetric_difference(zones)
    if odd:
        raise JoinError(f"zone shares and results differ in zones "
                        f"{', '.join(map(repr, sorted(odd)))}")
    expected = zone_totals(results[np.argsort(results["rank"])], zones)
    for row, want in zip(shares.tolist(), expected.tolist()):
        if repr(row) != repr(want):  # repr tells -0.0 from 0.0
            zone, total, share = row
            raise DataError(f"zone {zone!r}: total {total!r} W/m and share "
                            f"{share!r}, where the results give "
                            f"{want[1]!r} W/m and {want[2]!r}")
