"""The assessment chain without file I/O: synthetic sea states -> point
features and powers -> GWO optimum over (H, T, d) -> ranking -> zone
totals. The CLI stages and the demo call these functions."""

import numpy as np

from . import assessment, data_io, gwo, mechanics, spectral
from .errors import ConfigError, JoinError


def apply_depths(catalog, depth_range=None, depth=None):
    """Catalog with depths spread over (lo, hi), else all `depth`, else own."""
    if depth_range:
        lo, hi = depth_range
        n = len(catalog)
        return catalog.with_depths({e.name: lo + (hi - lo) * i / max(n - 1, 1)
                                    for i, e in enumerate(catalog)})
    if depth is not None:
        return catalog.with_depths({e.name: depth for e in catalog})
    if all(e.depth is not None for e in catalog):
        return catalog
    raise ConfigError(
        "catalog carries no depths; pass --depth or --depth-range")


def select_points(by_name, names=None):
    """The values of `by_name` for `names` in order; all if no names."""
    if not names:
        return list(by_name.values())
    missing = [n for n in names if n not in by_name]
    if missing:
        raise JoinError(f"unknown points: {', '.join(missing)}")
    return [by_name[n] for n in names]


def schedule_means(catalog, hs_base, te_base):
    """name -> (Hs, Te) mean, spread over catalog order so sites differ."""
    frac = np.arange(len(catalog)) / max(len(catalog) - 1, 1)
    hs = hs_base * (0.6 + 0.8 * frac)
    te = te_base * (0.8 + 0.4 * frac)
    return {e.name: (hs[i], te[i]) for i, e in enumerate(catalog)}


def timestamps(start, hours):
    """`hours` hourly UTC times from `start` (a datetime or datetime64), as
    datetime64[s]."""
    return np.datetime64(start, "s") + np.arange(hours) * np.timedelta64(
        3600, "s")


def sea_state_series(entry, mean, times, seed):
    """Noisy Hs/Te recentred so the series mean is the schedule mean."""
    hs_mean, te_mean = mean
    rng = np.random.default_rng(seed + entry.index)
    hs = hs_mean * (1.0 + 0.4 * rng.uniform(-1, 1, len(times)))
    te = te_mean * (1.0 + 0.2 * rng.uniform(-1, 1, len(times)))
    hs += hs_mean - hs.mean()
    te += te_mean - te.mean()
    return data_io.SeaStateSeries(point=entry.name, times=times, hs=hs, te=te)


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


def elevation_record(entry, mean, duration, dt, seed):
    """Random-phase record of a flat band [0.8, 1.2] / Te with m0 of Hs."""
    hs_mean, te_mean = mean
    f_lo, f_hi = 0.8 / te_mean, 1.2 / te_mean
    target = spectral.uniform_spectrum((hs_mean / 4.0) ** 2 / (f_hi - f_lo),
                                       f_lo, f_hi, (f_hi - f_lo) / 32)
    return spectral.synthesize_record(target, duration, dt,
                                      seed=seed + entry.index)


def point_features(entry, data, env, segments=8, taper="raised-cosine"):
    """(PointFeatures, irregular power, regular power) of one point from a
    SeaStateSeries or an ElevationRecord."""
    if isinstance(data, data_io.SeaStateSeries):
        h_bar, t_bar = float(data.hs.mean()), float(data.te.mean())
        p_irr = float(spectral.parametric_power(data.hs, data.te, env).mean())
    else:
        seg = spectral.SegmentationConfig.for_record(data, segments=segments,
                                                     taper=taper)
        spec = spectral.estimate_spectrum(data, seg)
        stats = spectral.sea_state_stats(spec)
        h_bar, t_bar = stats.Hs, stats.Te
        p_irr = spectral.irregular_wave_power(spec, env)
    p_reg = mechanics.regular_wave_power(h_bar, t_bar, entry.depth, env)
    feats = assessment.PointFeatures(point_id=entry.name, zone=entry.zone,
                                     h_bar=h_bar, t_bar=t_bar,
                                     depth=entry.depth)
    return feats, p_irr, p_reg


def derived_bounds(features):
    """The (H, T, d) search box spanned by the features themselves."""
    arr = np.array([f.as_array() for f in features])
    lower, upper = arr.min(axis=0), arr.max(axis=0)
    if np.any(lower >= upper):
        labels = np.array(assessment.DIMENSION_NAMES)[lower >= upper]
        raise ConfigError(f"degenerate data-derived bounds in "
                          f"{', '.join(labels)}; pass --bounds explicitly")
    return gwo.SearchBounds(lower=lower, upper=upper,
                            labels=assessment.DIMENSION_NAMES)


def optimize(bounds, env, agents=10, iters=200, seed=0):
    """GWO run maximizing regular-wave power over (H, T, d) in `bounds`."""
    def objective(x):
        return mechanics.regular_wave_power(x[0], x[1], x[2], env)

    return gwo.gwo_maximize(objective, bounds, gwo.GwoConfig(
        agents=agents, max_iter=iters, seed=seed))


def assess(rows, ref, mode=assessment.NORM_RAW):
    """Score feature rows (see point_features) against `ref`; ranked."""
    feats = [f for f, _, _ in rows]
    ranges = (assessment.feature_ranges(feats)
              if mode == assessment.NORM_MINMAX else None)
    return assessment.rank_points([assessment.SiteAssessment(
        point_id=f.point_id, zone=f.zone, h_bar=f.h_bar, t_bar=f.t_bar,
        depth=f.depth, power_irregular=p_irr, power_regular=p_reg,
        norm=assessment.deviation_norm(f, ref, mode=mode, ranges=ranges),
        correlation=assessment.correlation_score(f, ref))
        for f, p_irr, p_reg in rows])


def zone_totals(ranked, zones):
    """Irregular power per zone as ({zone: total}, {zone: share of the
    grand total}); totals follow the first appearance of each zone in
    `zones`, e.g. the points' zones in catalog order."""
    by_zone = {}
    for s in ranked:
        by_zone.setdefault(s.zone, []).append(s.power_irregular)
    totals = {z: float(np.sum(by_zone[z])) for z in dict.fromkeys(zones)}
    return totals, assessment.zone_shares(by_zone)
