"""The assessment chain without file I/O: synthetic sea states -> point
features and powers -> GWO optimum over (H, T, d) -> ranking -> zone
totals. The CLI stages and the demo call these functions.

Each function imports the wavepower modules beyond data_io that it
runs, so a stage process loads only those of its own stage."""

import numpy as np

from . import data_io
from .errors import ConfigError, DomainError, JoinError


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


def sea_state_series(entry, mean, times, seed):
    """Noisy Hs/Te recentred so the series mean is the schedule mean."""
    hs_mean, te_mean = mean
    rng = np.random.default_rng(seed + int(entry["index"]))
    hs = hs_mean * (1.0 + 0.4 * rng.uniform(-1, 1, len(times)))
    te = te_mean * (1.0 + 0.2 * rng.uniform(-1, 1, len(times)))
    hs += hs_mean - hs.mean()
    te += te_mean - te.mean()
    return data_io.SeaStateSeries(point=entry["name"], times=times, hs=hs,
                                  te=te)


def check_record_sampling(te_base, duration, dt):
    """Reject a duration and dt under which no point's record can be
    synthesized: fewer than 2 samples, or a dt above Nyquist for the
    shortest per-point mean period, 0.8 * te_base."""
    if round(duration / dt) < 2:
        raise ConfigError(f"duration={duration} holds fewer than 2 samples "
                          f"of dt={dt}")
    f_hi = 1.2 / (0.8 * te_base)
    if dt > 1.0 / (2.0 * f_hi):
        raise ConfigError(f"dt={dt} violates Nyquist for the synthesis band "
                          f"(max frequency {f_hi:.4g} Hz)")


def check_series_scale(hs_base, te_base, hours):
    """Reject bases under which the last point's series, of the largest
    means hs_base * 1.4 and te_base * 1.2, cannot be summed: `hours`
    values, each below 1.5 times its mean. In Python floats, which
    overflow to inf where numpy would warn."""
    if not hours * 1.5 * max(hs_base * (0.6 + 0.8),
                             te_base * (0.8 + 0.4)) < np.inf:
        raise ConfigError(f"hs_base={hs_base} or te_base={te_base} "
                          f"overflows a sea-state series of {hours} hours")


def check_record_scale(hs_base, te_base):
    """Reject bases under which the last point's target density in
    elevation_record is not finite when doubled, as synthesize_record
    doubles it; in Python floats, as above."""
    quarter_hs, te = hs_base * (0.6 + 0.8) / 4.0, te_base * (0.8 + 0.4)
    if not 2.0 * (quarter_hs * quarter_hs / (1.2 / te - 0.8 / te)) < np.inf:
        raise ConfigError(f"hs_base={hs_base} with te_base={te_base} "
                          f"overflows a record's target spectrum")


def elevation_record(entry, mean, duration, dt, seed):
    """Random-phase record of a flat band [0.8, 1.2] / Te with m0 of Hs."""
    from . import spectral
    hs_mean, te_mean = mean
    f_lo, f_hi = 0.8 / te_mean, 1.2 / te_mean
    target = spectral.uniform_spectrum((hs_mean / 4.0) ** 2 / (f_hi - f_lo),
                                       f_lo, f_hi, (f_hi - f_lo) / 32)
    return spectral.synthesize_record(target, duration, dt,
                                      seed=seed + int(entry["index"]))


def point_features(entry, data, env, segments=8, taper="raised-cosine"):
    """(entry, h_bar, t_bar, irregular power) of one point (a catalog row)
    from a SeaStateSeries or an ElevationRecord; feature_rows turns these
    into the features array, with the regular power of many points at
    once. DomainError if the irregular power is not finite."""
    from . import spectral
    # an overflow or invalid value leaves a non-finite spectrum, mean or
    # power, which VarianceDensitySpectrum, regular_wave_power or the
    # check below refuses
    with np.errstate(over="ignore", invalid="ignore"):
        if isinstance(data, data_io.SeaStateSeries):
            h_bar, t_bar = float(data.hs.mean()), float(data.te.mean())
            p_irr = float(spectral.parametric_power(data.hs, data.te,
                                                    env).mean())
        else:
            seg = spectral.SegmentationConfig.for_record(
                data, segments=segments, taper=taper)
            spec = spectral.estimate_spectrum(data, seg)
            stats = spectral.sea_state_stats(spec)
            h_bar, t_bar = stats.Hs, stats.Te
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
    """The (H, T, d) search box spanned by the features array itself."""
    from . import gwo
    arr = _vectors(features)
    lower, upper = arr.min(axis=0), arr.max(axis=0)
    if np.any(lower >= upper):
        labels = np.array(data_io.DIMENSION_NAMES)[lower >= upper]
        raise ConfigError(f"degenerate data-derived bounds in "
                          f"{', '.join(labels)}; pass --bounds explicitly")
    return gwo.SearchBounds(lower=lower, upper=upper,
                            labels=data_io.DIMENSION_NAMES)


def optimize(bounds, env, agents=10, iters=200, seed=0):
    """GWO run maximizing regular-wave power over (H, T, d) in `bounds`."""
    from . import gwo, mechanics

    def objective(x):
        return mechanics.regular_wave_power(x[0], x[1], x[2], env)

    return gwo.gwo_maximize(objective, bounds, gwo.GwoConfig(
        agents=agents, max_iter=iters, seed=seed))


def assess(features, ref, mode="raw"):
    """Score a features array against `ref`, in assessment.NORM_RAW or
    NORM_MINMAX `mode`: the results array in rank order. Norms and
    correlations take one call per row, whose bits whole-array forms
    would not keep."""
    from . import assessment
    vectors = _vectors(features)
    ranges = (list(zip(vectors.min(axis=0), vectors.max(axis=0)))
              if mode == assessment.NORM_MINMAX else None)
    results = np.empty(len(features), dtype=data_io.RESULT_DTYPE)
    for name in features.dtype.names:
        results[name] = features[name]
    results["norm"] = [assessment.deviation_norm(x, ref, mode, ranges)
                       for x in vectors]
    results["correlation"] = [assessment.correlation_score(x, ref)
                              for x in vectors]
    return assessment.rank_points(results)


def zone_totals(results, zones):
    """The zone-share array (data_io.ZONE_SHARE_DTYPE): irregular power
    per zone and its share of the grand total. Zones follow their first
    appearance in `zones`, e.g. the points' zones in catalog order."""
    from . import assessment
    by_zone = {}
    for zone, power in zip(results["zone"].tolist(),
                           results["power_irregular_wpm"].tolist()):
        by_zone.setdefault(zone, []).append(power)
    shares = assessment.zone_shares(by_zone)
    return np.array([(z, float(np.sum(by_zone[z])), shares[z])
                     for z in dict.fromkeys(zones)],
                    dtype=data_io.ZONE_SHARE_DTYPE)
