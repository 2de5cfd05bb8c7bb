"""Output checks the benchmark runs on every repetition.

The files are read with the stdlib `csv` module, not with wavepower's
own readers, so a fault in a reader cannot hide a fault in a writer.
Each check returns (operation, message) pairs; the operation is the
stage or call whose output is wrong, and the caller counts it failed.
"""

import csv
import hashlib
import os

import numpy as np

# CLI defaults the workloads keep: per-point schedule means are
# hs_base * (0.6 + 0.8 f) and te_base * (0.8 + 0.4 f), f = i / (n - 1)
HS_BASE, TE_BASE = 0.5, 4.0

# sea-state series are recentred to the schedule mean, so only the
# repr round trip and the summation order separate the two
SEA_STATE_REL_TOL = 1e-9
# elevation records: Hs and Te estimated from a finite random-phase
# record of a flat band [0.8, 1.2] / te, whose Te is ln(1.5)/0.4 = 1.0137
# times te. Over seeds 0-39 and all 105 points of a 4096 s record the
# worst errors were 5.9 % (Hs) and 2.6 % (Te); shorter records need more.
ELEVATION_HS_REL_TOL = 0.10
ELEVATION_TE_REL_TOL = 0.05

HIT_REL_TOL = 1e-3          # GWO within 0.1 % of the grid optimum
REPORT_TABLES = ("power_by_point.csv", "power_by_zone.csv",
                 "norm_by_point.csv", "correlation_vs_power.csv",
                 "power_vs_hs_depth.csv", "zone_shares.csv")


def read_table(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def column(rows, name):
    return np.array([float(r[name]) for r in rows])


def sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def tree_bytes(root):
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(root) for f in files)


def schedule_means(n):
    frac = np.arange(n) / max(n - 1, 1)
    return HS_BASE * (0.6 + 0.8 * frac), TE_BASE * (0.8 + 0.4 * frac)


def read_bounds(out):
    rows = read_table(os.path.join(out, "bounds.csv"))
    return column(rows, "lower"), column(rows, "upper")


def read_reference(out):
    (row,) = read_table(os.path.join(out, "reference.csv"))
    return (np.array([float(row[k]) for k in ("h_opt_m", "t_opt_s",
                                               "d_opt_m")]),
            float(row["best_power_wpm"]))


def _within(name, got, want, rel_tol):
    err = np.abs(got / want - 1.0)
    worst = int(np.argmax(err))
    if err[worst] > rel_tol:
        return [f"{name} row {worst + 1}: {got[worst]!r} vs schedule "
                f"{want[worst]!r} (rel {err[worst]:.2e} > {rel_tol:g})"]
    return []


def check_features(out, kind, n_points):
    rows = read_table(os.path.join(out, "features.csv"))
    if len(rows) != n_points:
        return [("analyze", f"features.csv has {len(rows)} rows, "
                            f"expected {n_points}")]
    hs, te = schedule_means(n_points)
    if kind == "elevation":
        tol_h, tol_t = ELEVATION_HS_REL_TOL, ELEVATION_TE_REL_TOL
    else:
        tol_h = tol_t = SEA_STATE_REL_TOL
    msgs = (_within("h_bar_m", column(rows, "h_bar_m"), hs, tol_h)
            + _within("t_bar_s", column(rows, "t_bar_s"), te, tol_t))
    return [("analyze", m) for m in msgs]


def check_ranking(out, n_points):
    fails = []
    rows = read_table(os.path.join(out, "results.csv"))
    ranks = sorted(int(r["rank"]) for r in rows)
    if ranks != list(range(1, n_points + 1)):
        fails.append(("rank", f"results.csv ranks are not a permutation "
                              f"of 1..{n_points}"))
    shares = column(read_table(os.path.join(out, "zone_shares.csv")),
                    "share")
    if abs(shares.sum() - 1.0) > 1e-9:
        fails.append(("rank", f"zone shares sum to {shares.sum()!r}"))
    return fails


def check_report(out, n_points):
    rep = os.path.join(out, "report")
    missing = [t for t in REPORT_TABLES
               if not os.path.isfile(os.path.join(rep, t))]
    if missing:
        return [("report", f"missing tables: {', '.join(missing)}")]
    rows = read_table(os.path.join(rep, "power_by_point.csv"))
    if len(rows) != n_points:
        return [("report", f"power_by_point.csv has {len(rows)} rows")]
    return []


def check_reference(out, grid_max):
    _, best = read_reference(out)
    if best < (1.0 - HIT_REL_TOL) * grid_max:
        return [("optimize", f"reference power {best!r} is below 99.9 % of "
                             f"the grid optimum {grid_max!r}")]
    return []


def check_pipeline(out, kind, n_points, grid_max):
    """Every check on one pipeline output tree."""
    return (check_features(out, kind, n_points)
            + check_ranking(out, n_points)
            + check_report(out, n_points)
            + check_reference(out, grid_max))


def check_gwo_run(run, agents, iters):
    fails = []
    if run.evaluations != agents * iters:
        fails.append(f"evaluations {run.evaluations} != {agents} x {iters}")
    if run.convergence.size != iters or np.any(np.diff(run.convergence) < 0):
        fails.append("convergence curve is not monotone over every iteration")
    if run.best_value != run.convergence[-1]:
        fails.append("best value differs from the last convergence point")
    return fails


def check_grid(grid, scalar_at):
    """The batched map agrees with scalar calls at a few points."""
    n0, n1 = grid.shape
    fails = []
    for i, j in ((0, 0), (n0 // 3, n1 // 2), (n0 - 1, n1 - 1)):
        want = scalar_at(i, j)
        if abs(grid[i, j] - want) > 1e-12 * abs(want):
            fails.append(f"grid[{i},{j}] {grid[i, j]!r} != scalar {want!r}")
    return fails


def check_hits(bests, grid_max):
    """No GWO run may beat the grid optimum by more than its spacing
    allows; one that does means the scalar and batched paths disagree."""
    if max(bests) > (1.0 + HIT_REL_TOL) * grid_max:
        return [f"a GWO run found {max(bests)!r}, above the grid optimum "
                f"{grid_max!r} by more than 0.1 %"]
    return []
