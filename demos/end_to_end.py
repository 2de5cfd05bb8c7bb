"""Walk through the full assessment with `wavepower.pipeline`: synthetic
sea states for the built-in catalog, powers, optimum, ranking, zones.

Run with: python3 demos/end_to_end.py
"""

from datetime import datetime

import numpy as np

import wavepower as wp
from wavepower import data_io, pipeline

env = wp.FluidEnvironment()

# 1. The site catalog: 105 points around nine southern-Caspian ports. It
# carries no bathymetry, so spread synthetic depths of 5-100 m over it.
catalog = pipeline.apply_depths(wp.builtin_catalog(), depth_range=(5.0, 100.0))
zone_order = dict.fromkeys(catalog["zone"].tolist())
print(f"{len(catalog)} points in zones: {', '.join(zone_order)}")

# 2. Per-point features and powers. Real use would ingest hourly Hs/Te
# or elevation records; here each point gets a year of noisy hourly values.
means = pipeline.schedule_means(catalog, hs_base=0.5, te_base=4.0)
times = pipeline.timestamps(datetime(2006, 1, 1), hours=8760)
features = np.array([pipeline.point_features(
    e, pipeline.sea_state_series(e, means[e["name"]], times, seed=0), env)
    for e in catalog], dtype=data_io.FEATURE_DTYPE)

# 3. Optimize regular-wave power over the data's own bounds.
run = pipeline.optimize(pipeline.derived_bounds(features), env)
h, t, d = run.best_position
print(f"optimum: H={h:.3f} m, T={t:.3f} s, d={d:.1f} m "
      f"-> {run.best_value:.0f} W/m after {run.evaluations} evaluations")

# 4. Score each site against the optimum (min-max scaling keeps the
# depth dimension from dominating) and rank.
ranked = pipeline.assess(features, run.best_position, mode="minmax")
print("\ntop five sites:")
for s in ranked[:5]:
    print(f"  #{s['rank']} {s['point']:4s} ({s['zone']}): "
          f"norm={s['norm']:.3f}, corr={s['correlation']:.4f}, "
          f"P={s['power_irregular_wpm']:.0f} W/m")

# 5. Zone totals and shares of the total resource, zones in rank order.
zones = pipeline.zone_totals(ranked)
print("\nzone shares:")
for z in zones:
    print(f"  {z['zone']:13s} {z['total_power_wpm']:8.0f} W/m "
          f"{100 * z['share']:5.1f} %")
