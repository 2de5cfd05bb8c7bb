"""The assessment chain without file I/O: synthetic sea states -> point
features and powers -> GWO optimum over (H, T, d) -> ranking -> zone
totals -> report tables. The CLI stages and the demo call these.

Each function imports the wavepower modules beyond data_io that it
runs, so a stage process loads only those of its own stage."""

import numpy as np

from . import data_io
from .errors import ConfigError, DataError, DomainError


def apply_depths(catalog, depth_range=None):
    """Copy of a catalog array with depths spread over (lo, hi), else its
    own, each written as the repr of its float."""
    n = len(catalog)
    if depth_range:
        lo, hi = depth_range
        depths = [lo + (hi - lo) * i / max(n - 1, 1) for i in range(n)]
    elif all(catalog["depth_m"].tolist()):
        depths = catalog["depth_m"].tolist()
    else:
        raise ConfigError("catalog carries no depths; pass --depth-range")
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
        raise ConfigError(f"unknown points: {', '.join(map(repr, missing))}")
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
    """The features.csv row of one point (a catalog row), a tuple in
    data_io.FEATURE_DTYPE field order, from a sea-state series (a
    data_io.SEA_STATE_DTYPE array) or an ElevationRecord: its mean height
    and period, the irregular power, then the regular-wave power at its
    own (h_bar, t_bar, depth). DomainError if either power is not
    finite, the irregular one checked first."""
    from . import mechanics, spectral
    # an overflow or invalid value leaves a non-finite spectrum, mean or
    # power, which VarianceDensitySpectrum, regular_wave_power or the
    # checks below refuse
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
    depth = float(entry["depth_m"])
    with np.errstate(over="ignore"):
        p_reg = float(mechanics.regular_wave_power(h_bar, t_bar, depth, env))
    if not p_reg < np.inf:
        raise DomainError(f"regular-wave power {p_reg} W/m is not finite")
    return entry["name"], entry["zone"], h_bar, t_bar, depth, p_irr, p_reg


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


def zone_totals(results):
    """The zone-share array (data_io.ZONE_SHARE_DTYPE): each zone's total,
    np.sum of its irregular powers in results order, and its share, that
    over the totals' sum, with the zones in the order they first appear in
    the results; so rank order for rank's results. DomainError unless that
    sum is positive and finite."""
    by_zone = {}
    for zone, power in zip(results["zone"].tolist(),
                           results["power_irregular_wpm"].tolist()):
        by_zone.setdefault(zone, []).append(power)
    totals = {zone: float(np.sum(powers)) for zone, powers in by_zone.items()}
    grand = sum(totals.values())
    if not 0 < grand < np.inf:
        raise DomainError(f"total power must be positive and finite, got "
                          f"{grand}")
    return np.array([(z, t, t / grand) for z, t in totals.items()],
                    dtype=data_io.ZONE_SHARE_DTYPE)


def report_tables(results):
    """The report's plot-ready tables, file name -> array: columns of the
    results, powers also normalized by the largest, and their zone shares,
    zone_totals of the results in rank order as rank wrote them, which
    refuses a total that is not positive and finite before any table."""
    shares = zone_totals(results[np.argsort(results["rank"])])
    power = results["power_irregular_wpm"]
    scaled = np.empty(len(results), dtype=[
        ("point", "O"), ("correlation", "<f8"), ("normalized_power", "<f8")])
    scaled["point"], scaled["correlation"], scaled["normalized_power"] = (
        results["point"], results["correlation"], power / power.max())
    return {"power_by_point.csv": results[["point", "zone",
                                           "power_irregular_wpm"]],
            "power_by_zone.csv": shares[["zone", "total_power_wpm"]],
            "norm_by_point.csv": results[["point", "norm"]],
            "correlation_vs_power.csv": scaled,
            "power_vs_hs_depth.csv": results[["point", "h_bar_m", "depth_m",
                                              "power_irregular_wpm"]],
            "zone_shares.csv": shares}
