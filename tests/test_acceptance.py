"""Acceptance suite: one test per exit criterion, each printing a
PASS/FAIL line with its headline numbers."""

import os
import time
from collections import Counter

import numpy as np
import pytest

from wavepower import data_io
from wavepower.assessment import (
    OptimalReference,
    correlation_score,
    deviation_norm,
    rank_points,
    zone_shares,
)
from wavepower.cli import main
from wavepower.gwo import GwoConfig, SearchBounds, a_schedule, gwo_maximize
from wavepower.mechanics import (
    FluidEnvironment,
    power_transfer_factor,
    regular_wave_power,
    wavenumber,
)
from wavepower.spectral import (
    SegmentationConfig,
    VarianceDensitySpectrum,
    estimate_spectrum,
    irregular_wave_power,
    parametric_power,
    sea_state_stats,
    spectral_moment,
    synthesize_record,
    total_variance,
    uniform_spectrum,
)

ENV = FluidEnvironment()


def report(criterion, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok


def test_criterion_1_monochromatic_identity():
    t0 = time.perf_counter()
    n, dt = 2 ** 14, 0.5
    f0 = 1638 / (n * dt)  # exactly on the analysis grid, ~0.19995 Hz
    target = VarianceDensitySpectrum(f=np.array([f0]),
                                     S=np.array([0.125 / 0.01]), df=0.01)
    rec = synthesize_record(target, n * dt, dt, seed=0)
    spec = estimate_spectrum(
        rec, SegmentationConfig(segment_length=n, taper="none"))
    p_irr = irregular_wave_power(spec, ENV)
    p_reg = regular_wave_power(H=1.0, T=5.0, depth=5000.0, env=ENV)
    elapsed = time.perf_counter() - t0
    rel = abs(p_irr - p_reg) / p_reg
    report(1, rel <= 0.02 and elapsed < 1.0 and
           abs(p_reg - 4906) / 4906 < 0.01,
           f"irregular {p_irr:.1f} vs regular {p_reg:.1f} W/m "
           f"(rel {rel:.2e}), {elapsed:.2f} s")


def test_criterion_2_spectral_round_trip():
    t0 = time.perf_counter()
    target = uniform_spectrum(1.0, 0.1, 0.2, df=0.002)
    hits = 0
    worst = (0.0, 0.0)
    for seed in range(5):
        rec = synthesize_record(target, 2 ** 17 * 0.5, 0.5, seed=seed)
        spec = estimate_spectrum(rec)
        m0 = total_variance(spec)
        m_1 = spectral_moment(spec, -1)
        e0 = abs(m0 - 0.1) / 0.1
        e1 = abs(m_1 - np.log(2)) / np.log(2)
        worst = (max(worst[0], e0), max(worst[1], e1))
        if e0 < 0.03 and e1 < 0.05:
            hits += 1
    elapsed = time.perf_counter() - t0
    report(2, hits >= 4 and elapsed < 5.0,
           f"{hits}/5 seeds in tolerance (worst m0 err {worst[0]:.3f}, "
           f"m-1 err {worst[1]:.3f}), {elapsed:.2f} s")


def test_criterion_3_algebraic_bridge():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        nbins = int(rng.integers(3, 60))
        df = float(rng.uniform(0.001, 0.05))
        f0 = df * (int(rng.integers(1, 30)) + 0.5)
        spec = VarianceDensitySpectrum(f=f0 + np.arange(nbins) * df,
                                       S=rng.uniform(0.0, 5.0, nbins) + 1e-6,
                                       df=df)
        stats = sea_state_stats(spec)
        p1 = parametric_power(stats.Hs, stats.Te, ENV)
        p2 = irregular_wave_power(spec, ENV)
        worst = max(worst, abs(p1 - p2) / p2)
    report(3, worst <= 1e-10,
           f"worst relative gap {worst:.2e} over 100 random spectra")


def test_criterion_4_dispersion_grid_and_limits():
    T = np.linspace(1.0, 20.0, 50)
    d = np.linspace(0.5, 500.0, 50)
    Tg, Dg = np.meshgrid(T, d, indexing="ij")
    k = wavenumber(Tg, Dg)
    omega2 = (2 * np.pi / Tg) ** 2
    resid = np.abs(omega2 - 9.81 * k * np.tanh(k * Dg)) / omega2
    kd = k * Dg
    deep = kd > 5
    deep_err = float(np.max(np.abs(k[deep] - omega2[deep] / 9.81)
                            / k[deep]))
    # the grid has no kd < 0.05 cells; use long-period shallow points
    shallow_err = 0.0
    for Ts, ds in [(100.0, 1.0), (200.0, 0.5), (150.0, 0.8)]:
        ks = wavenumber(Ts, ds)
        assert ks * ds < 0.05
        k_sh = (2 * np.pi / Ts) / np.sqrt(9.81 * ds)
        shallow_err = max(shallow_err, abs(ks - k_sh) / ks)
    ok = float(np.max(resid)) <= 1e-10 and deep_err < 0.01 \
        and shallow_err < 0.01
    report(4, ok,
           f"max residual {float(np.max(resid)):.2e}, deep limit err "
           f"{deep_err:.2e}, shallow limit err {shallow_err:.2e}")


def _grid_oracle(bounds, n=200):
    H = np.linspace(bounds.lower[0], bounds.upper[0], n)
    T = np.linspace(bounds.lower[1], bounds.upper[1], n)
    d = np.linspace(bounds.lower[2], bounds.upper[2], n)
    k = wavenumber(T[:, None], d[None, :])
    fac = power_transfer_factor(k * d[None, :])
    P = (ENV.rho * ENV.g ** 2 / (32 * np.pi)
         * H[:, None, None] ** 2 * T[None, :, None] * fac[None, :, :])
    idx = np.unravel_index(int(P.argmax()), P.shape)
    return float(P.max()), (float(H[idx[0]]), float(T[idx[1]]),
                            float(d[idx[2]]))


def _power_objective(x):
    return regular_wave_power(x[0], x[1], x[2], ENV)


POWER_BOX = SearchBounds(lower=[0.1, 2.0, 5.0], upper=[0.6, 6.0, 100.0],
                         labels=("H", "T", "d"))


def test_criterion_5_gwo_vs_brute_force():
    oracle_best, argmax = _grid_oracle(POWER_BOX)
    # sanity on the oracle's own argmax: corner H and T, interior depth
    assert argmax[0] == pytest.approx(0.6) and argmax[1] == pytest.approx(6.0)
    assert 7.0 < argmax[2] < 11.0
    hits = 0
    slowest = 0.0
    for seed in range(20):
        t0 = time.perf_counter()
        run = gwo_maximize(_power_objective, POWER_BOX,
                           GwoConfig(agents=10, max_iter=200, seed=seed))
        slowest = max(slowest, time.perf_counter() - t0)
        if run.best_value >= oracle_best * (1 - 1e-3):
            hits += 1
    report(5, hits >= 18 and slowest < 2.0,
           f"{hits}/20 seeds within 0.1% of oracle {oracle_best:.1f} W/m "
           f"(argmax H={argmax[0]:.2f}, T={argmax[1]:.2f}, "
           f"d={argmax[2]:.2f} m), slowest run {slowest:.2f} s")


def test_criterion_6_schedule_and_curve():
    cfg = GwoConfig(agents=10, max_iter=200, seed=11)
    r1 = gwo_maximize(_power_objective, POWER_BOX, cfg)
    r2 = gwo_maximize(_power_objective, POWER_BOX, cfg)
    ok = (a_schedule(0, 200) == 2.0 and a_schedule(200, 200) == 0.0
          and r1.convergence.size == 200
          and bool(np.all(np.diff(r1.convergence) >= 0))
          and np.array_equal(r1.best_position, r2.best_position)
          and r1.best_value == r2.best_value
          and np.array_equal(r1.convergence, r2.convergence)
          and r1.evaluations == r2.evaluations)
    report(6, ok, "a(0)=2, a(max)=0, curve monotone length 200, "
                  "bit-identical reruns")


def test_criterion_7_reference_pattern():
    # data maxima at the reported optimum for the monotone dimensions
    bounds = SearchBounds(lower=[0.1, 2.0, 5.0],
                          upper=[0.595, 4.102, 100.0])
    run = gwo_maximize(_power_objective, bounds,
                       GwoConfig(agents=10, max_iter=200, seed=0))
    h, t, d = run.best_position
    ok = abs(h - 0.595) <= 1e-3 and abs(t - 4.102) <= 1e-3
    report(7, ok,
           f"H_opt={h:.4f} (max 0.595), T_opt={t:.4f} (max 4.102); "
           f"depth landed at {d:.1f} m on the near-flat depth direction")


def test_criterion_8_ranking_coherence():
    rng = np.random.default_rng(8)
    heights = rng.uniform(0.1, 0.9, 20)
    ref = OptimalReference(float(heights.max()), 4.0, 30.0)
    assessed = []
    zones = {}
    for i, h in enumerate(heights):
        h = float(h)
        zone = "East" if i % 2 else "West"
        power = parametric_power(h, 4.0, ENV)
        assessed.append((f"P{i:02d}", zone, h, 4.0, 30.0, power, 0.0,
                         deviation_norm((h, 4.0, 30.0), ref),
                         correlation_score((h, 4.0, 30.0), ref), 0))
        zones.setdefault(zone, []).append(power)
    assessed = np.array(assessed, dtype=data_io.RESULT_DTYPE)
    by_norm = rank_points(assessed)["point"].tolist()
    by_power = assessed["point"][np.argsort(
        -assessed["power_irregular_wpm"], kind="stable")].tolist()
    shares = zone_shares(zones)
    share_err = abs(sum(shares.values()) - 1.0)

    # tie-break chain total and deterministic on identical features
    dup = np.array([(p, "Z", 0.5, 4.0, 30.0, 1.0, 0.0, 1.0, 0.9, 0)
                    for p in ["B", "A", "C"]], dtype=data_io.RESULT_DTYPE)
    tie_order = rank_points(dup)["point"].tolist()
    ok = by_norm == by_power and share_err <= 1e-12 \
        and tie_order == ["A", "B", "C"]
    report(8, ok,
           f"norm rank == power rank over 20 points, share sum err "
           f"{share_err:.1e}, tie order {tie_order}")


def test_criterion_9_catalog_fidelity():
    cat = data_io.builtin_catalog()
    by_name = {e.name: e for e in cat}
    k4, t1 = by_name["K4"], by_name["T1"]
    zone_sizes = tuple(Counter(e.zone for e in cat).values())
    ok = (len(cat) == 105
          and zone_sizes == (12, 11, 13, 12, 12, 11, 12, 11, 11)
          and (k4.lat, k4.lon) == (37.7, 50.1)
          and (t1.lat, t1.lon) == (37.3, 53.7))
    report(9, ok,
           f"105 entries, zone sizes {zone_sizes}, "
           f"K4=({k4.lat}, {k4.lon}), T1=({t1.lat}, {t1.lon})")


def test_criterion_10_end_to_end_determinism(tmp_path):
    t0 = time.perf_counter()
    trees = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        base = ["--out", str(out), "--seed", "7", "--hours", "8760",
                "--depth-range", "5,100"]
        for cmd in ["synth", "analyze", "optimize", "rank", "report"]:
            assert main([cmd] + base) == 0
        tree = {}
        for root, _, files in os.walk(out):
            for fn in files:
                p = os.path.join(root, fn)
                with open(p, "rb") as fh:
                    tree[os.path.relpath(p, out)] = fh.read()
        trees.append(tree)
    elapsed = time.perf_counter() - t0
    identical = trees[0] == trees[1]
    report(10, identical and elapsed < 60.0,
           f"two full 105-point 1-year runs byte-identical "
           f"({len(trees[0])} files each), {elapsed:.1f} s total")
