import atexit
import contextlib
import csv
import gc
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavepower import data_io, pipeline
from wavepower.cli import main
from wavepower.mechanics import FluidEnvironment, regular_wave_power
from wavepower.spectral import ElevationRecord


STAGES = ["synth", "analyze", "optimize", "rank", "report"]


def run_pipeline(out, seed=7, hours=48, extra=()):
    base = ["--out", str(out), "--seed", str(seed), "--hours", str(hours),
            "--depth-range", "5,100", "--points", "K1,K2,K3,K4,Z1,Z2"]
    for cmd in STAGES:
        assert main([cmd] + base + list(extra)) == 0


def tree_bytes(root):
    """{path relative to root: file bytes} of every file under root."""
    return {os.path.relpath(os.path.join(d, fn), root):
            open(os.path.join(d, fn), "rb").read()
            for d, _, files in os.walk(root) for fn in files}


def read_lines(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read().splitlines()


@pytest.fixture
def no_time_axis(monkeypatch):
    """Fail the test if synth builds its hourly time axis."""
    def fail(*args):
        raise AssertionError("synth built the hourly time axis")
    monkeypatch.setattr(pipeline, "timestamps", fail)


class TestSynth:
    def test_outputs_and_determinism(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["synth", "--out", str(out), "--seed", "3",
                         "--hours", "24", "--depth", "30",
                         "--points", "K4,T1"]) == 0
        for name in ["catalog.csv", "sea_states/K4.npy", "sea_states/T1.npy"]:
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_schedule_means_exact(self, tmp_path):
        out = tmp_path / "o"
        assert main(["synth", "--out", str(out), "--seed", "0",
                     "--hours", "200", "--depth", "30",
                     "--points", "T1"]) == 0
        series = data_io.load_sea_states(out / "sea_states" / "T1.npy")
        # T1 is catalog index 0: schedule mean hs_base*0.6, te_base*0.8
        assert series["hs_m"].mean() == pytest.approx(0.5 * 0.6, abs=1e-12)
        assert series["te_s"].mean() == pytest.approx(4.0 * 0.8, abs=1e-12)

    def test_nyquist_violation_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "o"
        rc = main(["synth", "--out", str(out), "--kind", "elevation",
                   "--dt", "10.0", "--depth", "30", "--points", "T1"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("synth: dt=10.0 violates Nyquist for max "
                              "frequency ") and err.count("\n") == 1, err
        assert not out.exists()

    def test_nyquist_is_judged_at_each_selected_points_band(self, tmp_path):
        # T1's top bin centre is 1.19375 / 3.2 s = 0.373 Hz, so dt must be
        # at most 1.340 s; S11's is 1.19375 / 4.8 s = 0.249 Hz, so 2.011 s
        args = ["--kind", "elevation", "--dt", "1.5", "--duration", "64",
                "--depth", "30"]
        assert main(["synth", "--out", str(tmp_path / "a"), "--points",
                     "T1"] + args) == 2
        assert main(["synth", "--out", str(tmp_path / "b"), "--points",
                     "S11"] + args) == 0
        rec = data_io.load_elevation(tmp_path / "b" / "elevation" / "S11.npy")
        assert rec.samples.size == 43

    def test_times_past_year_9999_exit_2(self, tmp_path, capsys):
        assert main(["synth", "--out", str(tmp_path / "o"), "--depth", "30",
                     "--points", "T1", "--start", "9999-12-31T22:00:00Z",
                     "--hours", "3"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "runs past 9999-12-31T23:59:59Z" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.usefixtures("no_time_axis")
    def test_huge_hours_exit_2_before_any_time_axis(self, tmp_path, capsys):
        assert main(["synth", "--out", str(tmp_path / "o"), "--depth", "30",
                     "--points", "T1", "--hours", str(10 ** 15)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "runs past 9999-12-31T23:59:59Z" in err
        assert not (tmp_path / "o" / "catalog.csv").exists()

    @pytest.mark.usefixtures("no_time_axis")
    def test_elevation_kind_builds_no_time_axis(self, tmp_path):
        out = tmp_path / "o"
        assert main(["synth", "--out", str(out), "--kind", "elevation",
                     "--depth", "30", "--points", "K4", "--duration", "64",
                     "--hours", str(10 ** 15)]) == 0
        assert (out / "elevation" / "K4.npy").exists()

    def test_depth_required_for_builtin(self, tmp_path):
        assert main(["synth", "--out", str(tmp_path / "o"),
                     "--points", "T1"]) == 2

    def test_elevation_kind(self, tmp_path):
        out = tmp_path / "o"
        assert main(["synth", "--out", str(out), "--kind", "elevation",
                     "--depth", "30", "--points", "K4",
                     "--duration", "512", "--dt", "0.5"]) == 0
        rec = data_io.load_elevation(out / "elevation" / "K4.npy")
        assert rec.samples.size == 1024


class TestAnalyze:
    def test_features_written(self, tmp_path):
        out = tmp_path / "o"
        args = ["--out", str(out), "--seed", "1", "--hours", "48",
                "--depth", "30", "--points", "K4,Z1"]
        assert main(["synth"] + args) == 0
        assert main(["analyze"] + args) == 0
        lines = read_lines(out / "features.csv")
        assert lines[0].startswith("point,zone,h_bar_m")
        assert len(lines) == 3

    def test_missing_point_data_nonzero_exit(self, tmp_path, capsys):
        out = tmp_path / "o"
        args = ["--out", str(out), "--seed", "1", "--hours", "48",
                "--depth", "30"]
        assert main(["synth"] + args + ["--points", "K4"]) == 0
        rc = main(["analyze"] + args + ["--points", "K4,Z1"])
        assert rc == 1
        assert "Z1" in capsys.readouterr().err
        # no point left: features.csv holds its header alone
        assert main(["analyze"] + args + ["--points", "Z1"]) == 1
        assert read_lines(out / "features.csv") == [
            ",".join(data_io.FEATURE_DTYPE.names)]

    def test_elevation_kind_reads_records_over_stale_sea_states(
            self, tmp_path):
        # the sea states of an earlier synth must not stand in for the
        # records that --kind elevation asks for
        args = ["--hours", "48", "--depth-range", "5,100",
                "--points", "K1,K2"]
        records = args + ["--kind", "elevation", "--duration", "64"]
        both, only = tmp_path / "both", tmp_path / "only"
        assert main(["synth", "--out", str(both)] + args) == 0
        for out in (both, only):
            assert main(["synth", "--out", str(out)] + records) == 0
            assert main(["analyze", "--out", str(out)] + records) == 0
        assert (both / "features.csv").read_bytes() == \
            (only / "features.csv").read_bytes()
        # the default kind reads sea_states/ alone
        assert main(["analyze", "--out", str(both)] + args) == 0
        assert (both / "features.csv").read_bytes() != \
            (only / "features.csv").read_bytes()

    def test_elevation_kind_never_reads_sea_states(self, tmp_path, capsys):
        out = tmp_path / "o"
        args = ["--out", str(out), "--hours", "3", "--depth-range", "5,100",
                "--points", "K1,K2"]
        assert main(["synth"] + args) == 0
        capsys.readouterr()
        assert main(["analyze"] + args + ["--kind", "elevation"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2
        for name, line in zip(["K1", "K2"], err):
            assert line == (
                f"analyze: point {name} failed: no input data for point "
                f"{name} (looked for {out / 'elevation' / name}.npy, "
                f"{out / 'elevation' / name}.csv)")
        assert read_lines(out / "features.csv") == [
            ",".join(data_io.FEATURE_DTYPE.names)]

    def test_default_kind_never_reads_records(self, tmp_path, capsys):
        # records of K1 to K3, then sea states of K1 alone: K2 and K3 have
        # none to analyze, and their records do not stand in
        out = tmp_path / "o"
        args = ["--out", str(out), "--depth-range", "5,100"]
        assert main(["synth"] + args + ["--kind", "elevation", "--duration",
                                        "64", "--points", "K1,K2,K3"]) == 0
        assert main(["synth"] + args + ["--hours", "3", "--points", "K1"]) \
            == 0
        capsys.readouterr()
        assert main(["analyze"] + args + ["--points", "K1,K2,K3"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2
        for name, line in zip(["K2", "K3"], err):
            assert line.startswith(
                f"analyze: point {name} failed: no input data for point "
                f"{name} (looked for {out / 'sea_states' / name}.npy"), line
        assert [ln.split(",")[0] for ln in
                read_lines(out / "features.csv")[1:]] == ["K1"]

    def test_non_utf8_point_data_fails_that_point(self, tmp_path, capsys):
        out = tmp_path / "o"
        args = ["--out", str(out), "--seed", "1", "--hours", "48",
                "--depth", "30", "--points", "K4,Z1"]
        assert main(["synth"] + args) == 0
        (out / "sea_states" / "Z1.npy").unlink()
        (out / "sea_states" / "Z1.csv").write_bytes(b"\xff\xfe{}\n")
        assert main(["analyze"] + args) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("analyze: point Z1 failed: ")
        assert "not UTF-8" in err[0]
        assert [ln.split(",")[0] for ln in
                read_lines(out / "features.csv")[1:]] == ["K4"]

    def test_non_finite_hs_fails_that_point(self, tmp_path, capsys):
        out = tmp_path / "o"
        args = ["--out", str(out), "--seed", "1", "--hours", "48",
                "--depth", "30", "--points", "K4,Z1"]
        assert main(["synth"] + args) == 0
        (out / "sea_states" / "Z1.npy").unlink(missing_ok=True)
        (out / "sea_states" / "Z1.csv").write_text(
            "timestamp,hs_m,te_s\n2006-01-01T00:00:00Z,nan,3.5\n")
        assert main(["analyze"] + args) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("analyze: point Z1 failed: line 2: ")
        assert "non-finite Hs nan" in err[0]
        assert [ln.split(",")[0] for ln in
                read_lines(out / "features.csv")[1:]] == ["K4"]

    @pytest.mark.parametrize("kind", [[], ["--kind", "elevation",
                                          "--duration", "512"]])
    def test_regular_power_has_the_bits_of_per_point_calls(self, tmp_path,
                                                           kind):
        out = tmp_path / "o"
        args = ["--out", str(out), "--seed", "3", "--hours", "48",
                "--depth-range", "5,100", *kind]
        assert main(["synth"] + args) == 0
        assert main(["analyze"] + args) == 0
        features = data_io.load_features(out / "features.csv")
        assert len(features) == 105
        scalar = [regular_wave_power(h, t, d, FluidEnvironment())
                  for h, t, d in features[["h_bar_m", "t_bar_s",
                                           "depth_m"]].tolist()]
        assert np.array_equal(
            features["power_regular_wpm"].copy().view(np.int64),
            np.array(scalar).view(np.int64))

    def test_point_with_extreme_period_fails_alone(self, tmp_path, capsys):
        out = tmp_path / "o"
        args = ["--out", str(out), "--seed", "1", "--hours", "48",
                "--depth", "30"]
        assert main(["synth"] + args) == 0
        assert main(["analyze"] + args) == 0
        clean = read_lines(out / "features.csv")
        path = out / "sea_states" / "Z1.npy"
        arr = np.load(path)
        arr["te_s"] = 1e200
        np.save(path, arr)
        capsys.readouterr()
        assert main(["analyze"] + args) == 1
        err = capsys.readouterr().err
        assert read_lines(out / "features.csv") == [
            ln for ln in clean if not ln.startswith("Z1,")]
        assert main(["analyze"] + args + ["--points", "Z1"]) == 1
        assert capsys.readouterr().err == err
        assert err.count("\n") == 1 and "Traceback" not in err, err
        assert err.startswith("analyze: point Z1 failed: period "), err
        assert "s is out of range for g=9.81" in err, err
        assert read_lines(out / "features.csv") == clean[:1]

    def test_elevation_analysis_matches_closed_form(self, tmp_path):
        # monochromatic record: analyze recovers the deep-water power
        from wavepower.spectral import VarianceDensitySpectrum, \
            synthesize_record
        out = tmp_path / "o"
        os.makedirs(out / "elevation")
        cat = pipeline.apply_depths(data_io.builtin_catalog(), depth=1000.0)
        data_io.write_catalog(cat, out / "catalog.csv")
        n, dt = 2 ** 14, 0.5
        f0 = 1638 / (n * dt)  # on the analysis grid, ~0.2 Hz
        target = VarianceDensitySpectrum(
            f=np.array([f0]), S=np.array([0.125 / 0.01]), df=0.01)
        rec = synthesize_record(target, n * dt, dt, seed=0)
        data_io.write_elevation(rec, out / "elevation" / "K4.csv")
        assert main(["analyze", "--out", str(out), "--points", "K4",
                     "--depth", "1000", "--kind", "elevation"]) == 0
        row = read_lines(out / "features.csv")[1].split(",")
        assert float(row[5]) == pytest.approx(4906, rel=0.02)


class TestOptimizeRankReport:
    def test_explicit_bounds_match_oracle_argmax(self, tmp_path):
        out = tmp_path / "o"
        out.mkdir()
        assert main(["optimize", "--out", str(out), "--seed", "0",
                     "--bounds", "0.1,0.6,2,6,5,100"]) == 0
        row = read_lines(out / "reference.csv")[1].split(",")
        assert float(row[0]) == pytest.approx(0.6, abs=1e-3)
        assert float(row[1]) == pytest.approx(6.0, abs=1e-3)
        conv = read_lines(out / "convergence.csv")
        assert len(conv) == 201  # header + 200 iterations

    def test_degenerate_bounds(self, tmp_path):
        out = tmp_path / "o"
        out.mkdir()
        assert main(["optimize", "--out", str(out),
                     "--bounds", "0.5,0.5,2,6,5,100"]) == 2

    def test_optimize_without_features(self, tmp_path, capsys):
        assert main(["optimize", "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.endswith("features.csv missing; run the `analyze` stage "
                            "first\n"), err

    def test_degenerate_data_derived_bounds(self, tmp_path, capsys):
        # every point has H 0.5, T 4.0 and d 10.0
        for name, text in feature_tables(("1.0", "1.0"),
                                         ("2.0", "2.0")).items():
            (tmp_path / name).parent.mkdir(exist_ok=True)
            (tmp_path / name).write_text(text + "\n")
        assert main(["optimize", "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            "optimize: degenerate data-derived bounds in H, T, d; pass "
            "--bounds explicitly\n")

    def test_rank_join_error(self, tmp_path):
        out = tmp_path / "o"
        args = ["--out", str(out), "--seed", "1", "--hours", "48",
                "--depth-range", "5,100", "--points", "K4,Z1"]
        assert main(["synth"] + args) == 0
        assert main(["analyze"] + args) == 0
        assert main(["optimize"] + args) == 0
        assert main(["rank", "--out", str(out), "--points", "K4,QQ"]) == 2

    def test_report_requires_rank(self, tmp_path, capsys):
        out = tmp_path / "o"
        out.mkdir()
        assert main(["report", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.endswith("results.csv missing; run the `rank` stage "
                            "first\n"), err


class TestPipeline:
    def test_end_to_end_outputs(self, tmp_path):
        out = tmp_path / "o"
        run_pipeline(out)
        results = read_lines(out / "results.csv")
        assert len(results) == 7  # header + 6 selected points
        ranks = sorted(int(r.split(",")[-1]) for r in results[1:])
        assert ranks == [1, 2, 3, 4, 5, 6]
        shares = read_lines(out / "zone_shares.csv")[1:]
        total = sum(float(s.split(",")[2]) for s in shares)
        assert total == pytest.approx(1.0, abs=1e-12)
        report = read_lines(out / "report" / "correlation_vs_power.csv")
        norm_powers = [float(r.split(",")[2]) for r in report[1:]]
        assert max(norm_powers) == pytest.approx(1.0)
        by_point = read_lines(out / "report" / "power_by_point.csv")
        assert len(by_point) == 7

    def test_reruns_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_pipeline(a)
        run_pipeline(b)
        assert tree_bytes(a) == tree_bytes(b)

    def test_elevation_reruns_byte_identical(self, tmp_path):
        # one process, two runs: the synthesis product gives the same bits
        a, b = tmp_path / "a", tmp_path / "b"
        extra = ("--kind", "elevation", "--duration", "300", "--dt", "0.5")
        run_pipeline(a, extra=extra)
        run_pipeline(b, extra=extra)
        assert (a / "elevation" / "K1.npy").exists()
        assert tree_bytes(a) == tree_bytes(b)

    def test_config_file_with_flag_override(self, tmp_path):
        out = tmp_path / "o"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 5, "hours": 48, "depth": 30.0,
                                   "points": "K4,Z1"}))
        assert main(["synth", "--config", str(cfg), "--out", str(out),
                     "--hours", "24"]) == 0
        series = data_io.load_sea_states(out / "sea_states" / "K4.npy")
        assert len(series) == 24  # flag wins over the config file
        echo = json.loads((out / "synth_config.json").read_text())
        assert echo["seed"] == 5
        assert echo["hours"] == 24

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"nope": 1}))
        assert main(["synth", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2

    def test_structured_results(self, tmp_path):
        out = tmp_path / "o"
        run_pipeline(out, extra=["--format", "structured"])
        doc = json.loads((out / "results.json").read_text())
        assert len(doc["assessments"]) == 6

    def test_minmax_mode(self, tmp_path):
        out = tmp_path / "o"
        run_pipeline(out, extra=["--norm-mode", "minmax"])
        results = read_lines(out / "results.csv")
        norms = [float(r.split(",")[7]) for r in results[1:]]
        assert all(0 <= n <= np.sqrt(3) + 1e-9 for n in norms)

    def test_report_zone_totals_are_the_rank_totals(self, tmp_path):
        # all 105 points: summing in ranked order disagreed in the last
        # digits with the rank stage's totals for 4 of the 9 zones
        out = tmp_path / "o"
        for cmd in STAGES:
            assert main([cmd, "--out", str(out), "--seed", "7", "--hours",
                         "48", "--depth-range", "5,100"]) == 0
        shares = [",".join(line.split(",")[:2])
                  for line in read_lines(out / "zone_shares.csv")]
        assert read_lines(out / "report" / "power_by_zone.csv") == shares


def test_quoted_zones_through_every_stage(tmp_path):
    catalog = tmp_path / "catalog.csv"
    catalog.write_text("index,name,zone,lat_deg,lon_deg,depth_m\n"
                       '1,P1,"Bandar, Anzali",37.5,49.5,12.5\n'
                       '2,P2,"Bandar, Anzali",37.6,49.6,20.0\n'
                       '3,P3,"Say ""Hi""",37.7,49.7,30.0\n')
    out = tmp_path / "o"
    for cmd in STAGES:
        assert main([cmd, "--out", str(out), "--catalog", str(catalog),
                     "--hours", "48"]) == 0
    zones = [line.rsplit(",", 2)[0]
             for line in read_lines(out / "zone_shares.csv")[1:]]
    assert zones == ['"Bandar, Anzali"', '"Say ""Hi"""']


def test_user_catalog_depths_are_written_as_floats(tmp_path):
    catalog = tmp_path / "catalog.csv"
    catalog.write_text("index,name,zone,lat_deg,lon_deg,depth_m\n"
                       "1,P1,A,37.5,49.5,12.50\n"
                       "2,P2,A,37.6,49.6,1e1\n")
    out = tmp_path / "o"
    assert main(["synth", "--out", str(out), "--catalog", str(catalog),
                 "--hours", "3"]) == 0
    assert read_lines(out / "catalog.csv")[1:] == [
        "1,P1,A,37.5,49.5,12.5", "2,P2,A,37.6,49.6,10.0"]


def test_point_whose_power_overflows_fails_alone(tmp_path, capsys):
    # the series sums, so synth takes it, but Hs^2 overflows in both powers
    out = tmp_path / "o"
    args = ["--out", str(out), "--hours", "3", "--depth", "30"]
    assert main(["synth"] + args + ["--points", "K1",
                                     "--hs-base", "1e153"]) == 0
    assert main(["synth"] + args + ["--points", "K2"]) == 0
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["analyze"] + args + ["--points", "K1,K2"]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err, err
    assert err.startswith("analyze: point K1 failed: irregular power inf"), err
    assert [ln.split(",")[0] for ln in
            read_lines(out / "features.csv")[1:]] == ["K2"]


def test_record_too_large_to_analyze_fails_alone(tmp_path, capsys):
    # the segment means overflow, so the mean-removed, tapered segments
    # hold NaN; neither may surface as a numpy warning
    out = tmp_path / "o"
    out.mkdir()
    data_io.write_catalog(pipeline.apply_depths(data_io.builtin_catalog(),
                                                depth=30), out / "catalog.csv")
    data_io.write_point(out, "K1", ElevationRecord(
        dt=0.5, samples=np.full(2048, 1e307)))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["analyze", "--out", str(out), "--points", "K1",
                     "--kind", "elevation"]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err, err
    assert err.startswith("analyze: point K1 failed: variance density"), err


def test_regular_power_that_overflows_fails_that_point(tmp_path, capsys):
    # the large Hs comes with a short Te in the irregular power, which is
    # finite, but with the mean Te in the regular power, which is not
    out = tmp_path / "o"
    args = ["--out", str(out), "--hours", "2", "--depth", "30",
            "--points", "K1"]
    assert main(["synth"] + args) == 0
    series = data_io.load_sea_states(out / "sea_states" / "K1.npy")
    series["hs_m"], series["te_s"] = [1e151, 0.0], [1.0, 1e6]
    data_io.write_point(out, "K1", series)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["analyze"] + args) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err, err
    assert err.startswith("analyze: point K1 failed: regular-wave power "
                          "inf W/m is not finite"), err


def rank_tables(*rows):
    """results.csv of one point per (power_irregular_wpm, power_regular_wpm,
    rank) row, and a zone_shares.csv, as files for MALFORMED."""
    results = ",".join(data_io.RESULT_DTYPE.names) + "".join(
        f"\nP{i},A,0.5,4.0,10.0,{p_irr},{p_reg},1.0,0.9,{rank}"
        for i, (p_irr, p_reg, rank) in enumerate(rows, 1))
    return {"o/results.csv": results,
            "o/zone_shares.csv": "zone,total_power_wpm,share\nA,3.0,1.0"}


def feature_tables(*rows):
    """features.csv of one point per (power_irregular_wpm,
    power_regular_wpm) row, and a reference.csv, as files for MALFORMED."""
    features = ",".join(data_io.FEATURE_DTYPE.names) + "".join(
        f"\nP{i},A,0.5,4.0,10.0,{p_irr},{p_reg}"
        for i, (p_irr, p_reg) in enumerate(rows, 1))
    return {"o/features.csv": features,
            "o/reference.csv": ",".join(data_io.REFERENCE_DTYPE.names)
            + "\n0.6,4.1,79.0,3000.0"}


# name -> (argv without --out, files to create first: text gets a final
# newline, bytes are written as they are); {tmp} in an argument is the
# test's temporary directory
MALFORMED = {
    "non-numeric bounds": (["optimize", "--bounds", "a,b,c,d,e,f"], {}),
    "one-value depth range": (["synth", "--depth-range", "5"], {}),
    "string agents in config": (
        ["optimize", "--config", "{tmp}/cfg.json"],
        {"cfg.json": '{"agents": "ten"}'}),
    "missing config file": (
        ["synth", "--depth", "30", "--config", "{tmp}/none.json"], {}),
    "invalid JSON config": (
        ["synth", "--config", "{tmp}/cfg.json"], {"cfg.json": "{depth: 30"}),
    "missing catalog": (
        ["synth", "--depth", "30", "--catalog", "{tmp}/none.csv"], {}),
    "malformed start": (["synth", "--depth", "30", "--start", "2006"], {}),
    # records have no timestamps, so only the settings check sees it
    "malformed start for records": (
        ["synth", "--kind", "elevation", "--duration", "16", "--depth", "30",
         "--points", "K1", "--start", "2006"], {}),
    "config holding a JSON array": (
        ["synth", "--depth", "30", "--hours", "3", "--points", "K1",
         "--config", "{tmp}/cfg.json"], {"cfg.json": "[]"}),
    # synth would give the first catalog point a depth of 0.0
    "depth range starting at zero": (
        ["synth", "--hours", "3", "--depth-range", "0,100", "--points",
         "K1"], {}),
    "header-only features": (["optimize"], {"o/features.csv": (
        "point,zone,h_bar_m,t_bar_s,depth_m,power_irregular_wpm,"
        "power_regular_wpm")}),
    "empty features file": (["optimize"], {"o/features.csv": b""}),
    "features field over the csv module's limit": (["optimize"], {
        "o/features.csv": ",".join(data_io.FEATURE_DTYPE.names)
        + "\nP1,A,0.5,4.0,10.0,1.0," + "1" * 131073}),
    "zero hours": (["synth", "--depth", "30", "--hours", "0"], {}),
    "non-UTF-8 config": (
        ["synth", "--depth", "30", "--config", "{tmp}/cfg.json"],
        {"cfg.json": b"\xff\xfe{}"}),
    "non-UTF-8 catalog": (
        ["synth", "--depth", "30", "--catalog", "{tmp}/cat.csv"],
        {"cat.csv": b"index,name,zone\xff,lat_deg,lon_deg,depth_m\n"}),
    "out key in config": (
        ["synth", "--depth", "30", "--config", "{tmp}/cfg.json"],
        {"cfg.json": '{"out": "ignored"}'}),
    "infinite catalog depth": (
        ["synth", "--catalog", "{tmp}/cat.csv"],
        {"cat.csv": "index,name,zone,lat_deg,lon_deg,depth_m\n"
                    "1,P1,A,37.0,50.0,inf"}),
    "catalog row with an extra field": (
        ["synth", "--catalog", "{tmp}/cat.csv"],
        {"cat.csv": "index,name,zone,lat_deg,lon_deg,depth_m\n"
                    "1,P1,A,37.0,50.0,3,9"}),
    # synth would write sea_states/<name>.npy outside --out, or under a
    # directory it never made
    "catalog name that leaves --out": (
        ["synth", "--hours", "3", "--catalog", "{tmp}/cat.csv"],
        {"cat.csv": "index,name,zone,lat_deg,lon_deg,depth_m\n"
                    "1,../../escaped,A,37.0,50.0,3"}),
    "catalog name with a slash": (
        ["synth", "--hours", "3", "--catalog", "{tmp}/cat.csv"],
        {"cat.csv": "index,name,zone,lat_deg,lon_deg,depth_m\n"
                    "1,a/b,A,37.0,50.0,3"}),
    "record shorter than two samples": (
        ["synth", "--kind", "elevation", "--duration", "0.5", "--dt", "0.5",
         "--depth-range", "5,100", "--points", "T1"], {}),
    # synthesize_record refuses a duration/dt that no array could index
    "record of infinitely many samples": (
        ["synth", "--kind", "elevation", "--duration", "1e300", "--dt",
         "1e-10", "--depth", "30", "--points", "K1"], {}),
    "record of more samples than an array can index": (
        ["synth", "--kind", "elevation", "--duration", "1e300", "--dt",
         "0.5", "--depth", "30", "--points", "K1"], {}),
    # zone_totals, which report reruns on the results, refuses a total
    # power of 0.0
    "no positive irregular power": (["report"], rank_tables(
        ("0.0", "1.0", "1"), ("0.0", "2.0", "2"))),
    "non-integer rank": (["report"], rank_tables(
        ("1.0", "1.0", "1"), ("2.0", "2.0", "2.5"))),
    "duplicate rank": (["report"], rank_tables(
        ("1.0", "1.0", "1"), ("2.0", "2.0", "1"))),
    "rank outside 1..n": (["report"], rank_tables(
        ("1.0", "1.0", "1"), ("2.0", "2.0", "3"))),
    "negative irregular power": (["report"], rank_tables(
        ("-1.0", "1.0", "1"), ("2.0", "2.0", "2"))),
    "negative regular power": (["report"], rank_tables(
        ("1.0", "1.0", "1"), ("2.0", "-2.0", "2"))),
    # rank would write them into results.csv and the zone totals
    "negative irregular power in features": (["rank"], feature_tables(
        ("-5.0", "1.0"), ("2.0", "2.0"))),
    "negative regular power in features": (["rank"], feature_tables(
        ("1.0", "1.0"), ("2.0", "-2.0"))),
    "period too long for the dispersion solve": (
        ["optimize", "--bounds", "0.1,0.6,2,1e200,5,100"], {}),
    # rank and report would keep one of the rows, or the last zone total
    "repeated point in features": (["rank"], {
        name: text.replace("\nP2,", "\nP1,") for name, text in
        feature_tables(("1.0", "1.0"), ("2.0", "2.0")).items()}),
    "repeated point in results": (["report"], {
        name: text.replace("\nP2,", "\nP1,") for name, text in
        rank_tables(("1.0", "1.0", "1"), ("2.0", "2.0", "2")).items()}),
    "repeated zone in zone shares": (["report"], dict(rank_tables(
        ("1.0", "1.0", "1"), ("2.0", "2.0", "2")), **{
            "o/zone_shares.csv": "zone,total_power_wpm,share\n"
                                 "A,3.0,1.0\nA,5.0,0.5"})),
    # report would write zone shares that are not those of the results
    "zone shares naming a zone the results lack": (["report"], dict(
        rank_tables(("1.0", "1.0", "1"), ("2.0", "2.0", "2")), **{
            "o/zone_shares.csv": "zone,total_power_wpm,share\n"
                                 "A,3.0,1.0\nB,0.0,0.0"})),
    "results zone the zone shares lack": (["report"], {
        name: text.replace("\nP2,A,", "\nP2,B,") for name, text in
        rank_tables(("1.0", "1.0", "1"), ("2.0", "2.0", "2")).items()}),
    "zone total that is not its points' power": (["report"], dict(
        rank_tables(("1.0", "1.0", "1"), ("2.0", "2.0", "2")), **{
            "o/zone_shares.csv": "zone,total_power_wpm,share\nA,3.5,1.0"})),
    # one ulp off rank's total or share: within the float error of
    # another summation order, but not what rank wrote
    "zone total one ulp above its points' power": (["report"], dict(
        rank_tables(("1.0", "1.0", "1"), ("2.0", "2.0", "2")), **{
            "o/zone_shares.csv": "zone,total_power_wpm,share\n"
                                 "A,3.0000000000000004,1.0"})),
    "zone share one ulp below 1": (["report"], dict(
        rank_tables(("1.0", "1.0", "1"), ("2.0", "2.0", "2")), **{
            "o/zone_shares.csv": "zone,total_power_wpm,share\n"
                                 "A,3.0,0.9999999999999999"})),
    # the points of zone A have no power, and rank writes its total 0.0
    "negative zero zone total": (["report"], {
        name: text.replace("\nP2,A,", "\nP2,B,") for name, text in dict(
            rank_tables(("0.0", "1.0", "2"), ("2.0", "2.0", "1")), **{
                "o/zone_shares.csv": "zone,total_power_wpm,share\n"
                                     "A,-0.0,0.0\nB,2.0,1.0"}).items()}),
    "zone shares summing to 2": (["report"], dict(
        rank_tables(("1.0", "1.0", "1"), ("2.0", "2.0", "2")), **{
            "o/zone_shares.csv": "zone,total_power_wpm,share\nA,3.0,2.0"})),
    # zone A's points sum to 1.0 and zone B's to 2.0, so the shares are 1/3
    # and 2/3; these sum to 1
    "zone share that is not its total over the totals' sum": (["report"], {
        name: text.replace("\nP2,A,", "\nP2,B,") for name, text in dict(
            rank_tables(("1.0", "1.0", "1"), ("2.0", "2.0", "2")), **{
                "o/zone_shares.csv": "zone,total_power_wpm,share\n"
                                     "A,1.0,0.5\nB,2.0,0.5"}).items()}),
    "negative zone share": (["report"], {
        name: text.replace("\nP2,A,", "\nP2,B,") for name, text in dict(
            rank_tables(("1.0", "1.0", "1"), ("2.0", "2.0", "2")), **{
                "o/zone_shares.csv": "zone,total_power_wpm,share\n"
                                     "A,1.0,1.5\nB,2.0,-0.5"}).items()}),
    # optimize writes one row; every row's H, T and d must be positive
    "non-positive depth in a reference row": (["rank"], {
        name: text + ("\n0.6,4.1,0.0,3000.0" if "reference" in name else "")
        for name, text in feature_tables(("1.0", "1.0"),
                                         ("2.0", "2.0")).items()}),
    "repeated --points name": (
        ["synth", "--depth", "30", "--hours", "3", "--points", "K1,K1,Z1"],
        {}),
    # numpy would warn of an overflow, then refuse a point after
    # catalog.csv is written
    "sea-state series that overflows": (
        ["synth", "--hours", "3", "--depth-range", "5,100",
         "--hs-base", "1e308"], {}),
    "record spectrum that overflows": (
        ["synth", "--kind", "elevation", "--depth-range", "5,100",
         "--hs-base", "1e300", "--duration", "16"], {}),
    # numpy's default_rng would refuse the seed after catalog.csv is written
    "negative catalog index": (
        ["synth", "--hours", "3", "--catalog", "{tmp}/cat.csv"],
        {"cat.csv": "index,name,zone,lat_deg,lon_deg,depth_m\n"
                    "-5,P1,A,37.0,50.0,3"}),
    # the zone totals' sum overflows, and every share would read 0.0
    "zone totals whose sum overflows": (["rank", "--norm-mode", "minmax"], {
        name: text.replace("\nP2,A,0.5,4.0,10.0,", "\nP2,B,0.6,5.0,20.0,")
        for name, text in
        feature_tables(("1e308", "1.0"), ("1e308", "2.0")).items()}),
    # numpy would warn of an overflow in a score, after rank's raw-norm
    # warning
    "reference too large to score": (["rank"], {
        name: text.replace("0.6,4.1,79.0", "1e308,4.1,79.0")
        for name, text in feature_tables(("1.0", "1.0"),
                                         ("2.0", "2.0")).items()}),
    # the data-derived bounds span up to H = 1e308, beyond
    # gwo.BOUND_LIMIT, past which the optimizer's moves could overflow
    "mean height too large for the optimizer": (["optimize"], {
        name: text.replace("\nP2,A,0.5,4.0,10.0,", "\nP2,A,1e308,5.0,20.0,")
        for name, text in feature_tables(("1.0", "1.0"),
                                         ("2.0", "2.0")).items()}),
    "depth too large for the optimizer": (["optimize"], {
        name: text.replace("\nP1,A,0.5,4.0,10.0,", "\nP1,A,0.6,5.0,1e308,")
        for name, text in feature_tables(("1.0", "1.0"),
                                         ("2.0", "2.0")).items()}),
    # numpy's draw of the first pack would overflow its span
    "bounds whose span overflows": (
        ["optimize", "--bounds", "0.1,0.6,2,6,-1e308,1e308"], {}),
    # the pack's moves would overflow, with numpy warnings
    "bound too large for the optimizer": (
        ["optimize", "--bounds", "0.1,0.6,2,6,5,1e308"], {}),
    # numpy cannot allocate the optimizer's draws, or its pack
    "iterations past any address space": (
        ["optimize", "--bounds", "0.1,0.6,2,6,5,100",
         "--iters", "1000000000000000"], {}),
    "pack past any address space": (
        ["optimize", "--bounds", "0.1,0.6,2,6,5,100",
         "--agents", "1000000000000000"], {}),
    "header-only catalog": (
        ["synth", "--hours", "3", "--depth", "30", "--catalog",
         "{tmp}/cat.csv"],
        {"cat.csv": "index,name,zone,lat_deg,lon_deg,depth_m"}),
}


def tree(root):
    return sorted(os.path.relpath(os.path.join(d, n), root)
                  for d, dirs, files in os.walk(root) for n in dirs + files)


@pytest.mark.parametrize("case", list(MALFORMED))
def test_malformed_input_fails_closed(case, tmp_path, capsys):
    argv, files = MALFORMED[case]
    for name, data in files.items():
        (tmp_path / name).parent.mkdir(exist_ok=True)
        if isinstance(data, str):
            data = (data + "\n").encode()
        (tmp_path / name).write_bytes(data)
    before = tree(tmp_path)
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    assert main(argv + ["--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(argv[0] + ": ") and err.count("\n") == 1, err
    assert "Traceback" not in err
    assert tree(tmp_path) == before


def _resave(path, edit):
    np.save(path, edit(np.load(path, allow_pickle=False)), allow_pickle=True)


def _negate_hs_row_5(arr):
    arr["hs_m"][5] *= -1
    return arr


def _export_csv(path):
    data_io.write_sea_states(data_io.load_sea_states(path),
                             path.with_suffix(".csv"))


# name -> (edit of synth's sea_states/Z1.npy, text the one error line holds)
MALFORMED_POINT = {
    "truncated": (lambda p: p.write_bytes(p.read_bytes()[:-7]),
                  "Z1.npy: unreadable .npy file"),
    "header only": (lambda p: p.write_bytes(p.read_bytes()[:60]),
                    "Z1.npy: unreadable .npy file"),
    "not npy": (lambda p: p.write_text("timestamp,hs_m,te_s\n"),
                "Z1.npy: not an .npy file"),
    "pickled object array": (
        lambda p: _resave(p, lambda a: np.array(list(a), dtype=object)),
        "Z1.npy: unreadable .npy file"),
    "wrong field names": (
        lambda p: _resave(p, lambda a: a.astype(
            [("time", "<M8[s]"), ("hs", "<f8"), ("te", "<f8")])),
        "Z1.npy: expected fields timestamp <M8[s], hs_m <f8, te_s <f8"),
    "wrong ndim": (lambda p: _resave(p, lambda a: a.reshape(2, -1)),
                   "Z1.npy: expected a 1-D array"),
    "negative Hs": (lambda p: _resave(p, _negate_hs_row_5),
                    "Z1.npy: Z1: row 5: negative Hs"),
    "both csv and npy": (_export_csv, "/Z1.npy and "),
}


@pytest.mark.parametrize("case", list(MALFORMED_POINT))
def test_malformed_point_file_fails_that_point(case, tmp_path, capsys):
    edit, text = MALFORMED_POINT[case]
    out = tmp_path / "o"
    args = ["--out", str(out), "--seed", "1", "--hours", "48",
            "--depth", "30", "--points", "K4,Z1"]
    assert main(["synth"] + args) == 0
    edit(out / "sea_states" / "Z1.npy")
    capsys.readouterr()
    assert main(["analyze"] + args) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err, err
    assert err.startswith("analyze: point Z1 failed: ")
    assert text in err, err
    if case == "both csv and npy":
        assert err.rstrip().endswith("/Z1.csv exist; remove the stale one")
    assert [ln.split(",")[0] for ln in
            read_lines(out / "features.csv")[1:]] == ["K4"]


THREE_POINTS = ["--hours", "3", "--depth", "30", "--points", "K1,K2,K3"]


@pytest.fixture(scope="module")
def three_point_synth(tmp_path_factory):
    """--out of synth for K1, K2 and K3, three hours each."""
    out = tmp_path_factory.mktemp("three") / "o"
    assert main(["synth", "--out", str(out)] + THREE_POINTS) == 0
    return out


def _series_edit(data, series):
    """`series` with one drawn edit of a cell, a timestamp or the rows."""
    row = data.draw(st.integers(0, series.size - 1))
    kind = data.draw(st.sampled_from(["cell", "stamp", "rows"]))
    if kind == "cell":
        series[data.draw(st.sampled_from(["hs_m", "te_s"]))][row] = \
            data.draw(st.sampled_from([np.nan, np.inf, -np.inf, -0.1,
                                       -5e-324, 1e300, 1.7e308]))
    elif kind == "stamp":
        series["timestamp"][row] = data.draw(st.sampled_from([
            series["timestamp"][row - 1],  # repeated, or row 0 last
            series["timestamp"][row] - np.timedelta64(7200, "s"),
            np.datetime64("10000-01-01T00:00:00", "s")]))
    else:
        series = np.delete(series, row) if data.draw(st.booleans()) \
            else np.insert(series, row, series[row])
    return series


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_mutated_sea_state_file_fails_closed(three_point_synth, data):
    # K2's series, edited as an array and saved to .npy or .csv with no
    # checks, or as the bytes of its .npy; analyze either refuses K2
    # alone or takes all three points, and numpy never warns
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "o"
        shutil.copytree(three_point_synth, out)
        npy = out / "sea_states" / "K2.npy"
        if data.draw(st.booleans()):
            raw = bytearray(npy.read_bytes())
            for at, new in data.draw(st.lists(st.tuples(
                    st.integers(0, len(raw) - 1),
                    st.binary(min_size=0, max_size=3)), min_size=1,
                    max_size=3)):
                raw[at:at + 1] = new
            npy.write_bytes(bytes(raw))
        else:
            series = _series_edit(data, data_io.load_sea_states(npy))
            if data.draw(st.booleans()):
                npy.unlink()
                npy = npy.with_suffix(".csv")
            data_io._write_columns(npy, series)
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            rc = main(["analyze", "--out", str(out)] + THREE_POINTS)
        points = [ln.split(",")[0] for ln in
                  read_lines(out / "features.csv")[1:]]
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    if rc == 1:
        err = err.getvalue()
        # splitlines breaks at every line boundary, not at \n alone
        assert len(err.splitlines()) == 1 and err.endswith("\n"), err
        assert err.startswith("analyze: point K2 failed: "), err
        assert points == ["K1", "K3"]
    else:
        assert (rc, err.getvalue(), points) == (0, "", ["K1", "K2", "K3"])


@pytest.fixture(scope="module")
def ranked_run(tmp_path_factory):
    """--out of synth to rank, run once for the stage-table tests."""
    out = tmp_path_factory.mktemp("ranked") / "o"
    args = ["--out", str(out), "--seed", "7", "--hours", "48",
            "--depth-range", "5,100", "--points", "K1,K4,Z1"]
    for cmd in STAGES[:4]:
        assert main([cmd] + args) == 0
    return out


def _csv_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _write_csv_rows(path, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def _set_field(path, column, value):
    """Set `column` of the first data row of a CSV table to `value`."""
    rows = _csv_rows(path)
    rows[1][rows[0].index(column)] = value
    _write_csv_rows(path, rows)


# (stage, table it reads, numeric column set to a non-finite value)
NON_FINITE_STAGE_TABLES = [
    ("rank", "features.csv", "power_irregular_wpm"),
    ("report", "results.csv", "power_regular_wpm"),
    ("report", "zone_shares.csv", "total_power_wpm"),
]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("stage,table,column", NON_FINITE_STAGE_TABLES)
def test_non_finite_stage_table_field_fails_closed(
        ranked_run, tmp_path, capsys, stage, table, column, value):
    out = tmp_path / "o"
    shutil.copytree(ranked_run, out)
    _set_field(out / table, column, value)
    capsys.readouterr()
    assert main([stage, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err, err
    assert f"line 2: {out / table}: non-finite {column} {value}" in err, err


TINY_POINTS = ["K1", "K2", "Z1", "Z2", "S1", "S2"]


@pytest.fixture(scope="module")
def tiny_runs(tmp_path_factory):
    """n -> (stage arguments, --out of synth to report) for the first n
    of TINY_POINTS, n from 3 to 6."""
    runs = {}
    for n in range(3, 7):
        out = tmp_path_factory.mktemp(f"tiny{n}") / "o"
        args = ["--hours", "3", "--depth-range", "5,100",
                "--points", ",".join(TINY_POINTS[:n])]
        for cmd in STAGES:
            assert main([cmd, "--out", str(out)] + args) == 0
        runs[n] = args, out
    return runs


# stage table -> (its key column, the stages that read it)
STAGE_TABLES = {"features.csv": ("point", ["optimize", "rank"]),
                "reference.csv": (None, ["rank"]),
                "results.csv": ("point", ["report"]),
                "zone_shares.csv": ("zone", ["report"])}
REPORT_TABLES = ["correlation_vs_power.csv", "norm_by_point.csv",
                 "power_by_point.csv", "power_by_zone.csv",
                 "power_vs_hs_depth.csv", "zone_shares.csv"]


def _table_edit(data, rows, key):
    """The rows of a CSV table, header first, with one drawn edit: a cell
    set to text, a non-finite, negative or huge number, a repeated key,
    or a row dropped or doubled."""
    body = rows[1:]
    row = data.draw(st.integers(0, len(body) - 1))
    kinds = ["cell", "drop", "double"] + (["key"] if len(body) > 1 and key
                                          else [])
    kind = data.draw(st.sampled_from(kinds))
    if kind == "cell":
        col = data.draw(st.integers(0, len(rows[0]) - 1))
        old = body[row][col]
        body[row][col] = data.draw(st.sampled_from(
            ["text", "nan", "inf", "-inf", "1e308",
             old[1:] if old.startswith("-") else "-" + old]))
    elif kind == "key":
        col = rows[0].index(key)
        other = data.draw(st.integers(0, len(body) - 1).filter(
            lambda i: i != row))
        body[row][col] = body[other][col]
    elif kind == "drop":
        del body[row]
    else:
        body.insert(row, list(body[row]))
    return [rows[0]] + body


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_mutated_stage_table_fails_closed(tiny_runs, data):
    # one edit of a table a stage reads: the stage either refuses with one
    # line and leaves every file as it was, or writes outputs that hold
    # the benchmark's checks; numpy never warns
    args, run = tiny_runs[data.draw(st.integers(3, 6))]
    table = data.draw(st.sampled_from(sorted(STAGE_TABLES)))
    key, readers = STAGE_TABLES[table]
    stage = data.draw(st.sampled_from(readers))
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "o"
        shutil.copytree(run, out)
        _write_csv_rows(out / table,
                        _table_edit(data, _csv_rows(out / table), key))
        before = tree_bytes(out)
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            rc = main([stage, "--out", str(out)] + args)
        after = tree_bytes(out)
        outputs = {name: _csv_rows(out / name) for name in after
                   if name.endswith(".csv")}
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    err = err.getvalue()
    if rc == 2:
        assert len(err.splitlines()) == 1 and err.endswith("\n"), err
        assert err.startswith(f"{stage}: ") and "Traceback" not in err, err
        assert after == before
        return
    assert rc == 0, err
    if stage == "optimize":
        (row,) = outputs["reference.csv"][1:]
        assert all(0 < float(v) < np.inf for v in row), row
    elif stage == "rank":
        ranks = [int(r[-1]) for r in outputs["results.csv"][1:]]
        n = len(args[-1].split(","))
        assert sorted(ranks) == list(range(1, n + 1))
        shares = [float(r[2]) for r in outputs["zone_shares.csv"][1:]]
        assert abs(sum(shares) - 1.0) <= 1e-9
    else:
        assert {name for name in after
                if os.path.dirname(name) == "report"} == {
            os.path.join("report", name) for name in REPORT_TABLES}
        assert (len(outputs[os.path.join("report", "power_by_point.csv")])
                == len(outputs["results.csv"]))


COMMIT_ARGS = ["--hours", "3", "--depth-range", "5,100",
               "--points", "K1,K2,K3"]
# another seed and rho change what synth, analyze and optimize write, so
# on a tree of an earlier run a file they leave shows as changed
RERUN_ARGS = COMMIT_ARGS + ["--seed", "2", "--rho", "1000"]
# stage -> the paths it writes under --out with COMMIT_ARGS
STAGE_OUTPUTS = {
    "synth": ["catalog.csv", "sea_states/K1.npy", "sea_states/K2.npy",
              "sea_states/K3.npy", "synth_config.json"],
    "analyze": ["features.csv", "analyze_config.json"],
    "optimize": ["reference.csv", "convergence.csv", "bounds.csv",
                 "optimize_config.json"],
    "rank": ["results.csv", "zone_shares.csv", "rank_config.json"],
    "report": ["report/" + name for name in REPORT_TABLES]
    + ["report_config.json"],
}
# (stage, path, what takes the path's place)
COMMIT_CASES = [(stage, path, "directory") for stage in STAGES
                for path in STAGE_OUTPUTS[stage]] + [
    ("synth", "sea_states", "file"), ("report", "report", "file")]


@pytest.fixture(scope="module")
def commit_trees(tmp_path_factory):
    """(stage -> --out of the stages before it, --out of all five), each
    run with COMMIT_ARGS; checks that each stage writes STAGE_OUTPUTS."""
    root = tmp_path_factory.mktemp("commit")
    out, fresh = root / "o", {}
    for stage in STAGES:
        fresh[stage] = root / stage
        out.mkdir(exist_ok=True)
        shutil.copytree(out, fresh[stage])
        before = tree_bytes(out)
        assert main([stage, "--out", str(out)] + COMMIT_ARGS) == 0
        after = tree_bytes(out)
        assert {name for name in after if after[name] != before.get(name)} \
            == {os.path.normpath(name) for name in STAGE_OUTPUTS[stage]}
    return fresh, out


@pytest.mark.parametrize("start", ["fresh", "earlier"])
@pytest.mark.parametrize("stage, path, kind", COMMIT_CASES)
def test_blocked_output_leaves_out_as_it_was(commit_trees, tmp_path, capsys,
                                             stage, path, kind, start):
    # a directory where an output goes, or a file where its parent goes,
    # stands in for a write that fails partway (a full disk, say): the
    # stage refuses with one line and no file or directory changes
    fresh, earlier = commit_trees
    out = tmp_path / "o"
    shutil.copytree(fresh[stage] if start == "fresh" else earlier, out)
    blocked = out / path
    if blocked.is_dir():
        shutil.rmtree(blocked)
    elif blocked.exists():
        blocked.unlink()
    if kind == "directory":
        blocked.mkdir(parents=True)
    else:
        blocked.write_text("not a directory\n")
    before, names = tree_bytes(out), tree(out)
    capsys.readouterr()
    assert main([stage, "--out", str(out)] + RERUN_ARGS) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.endswith("\n"), err
    assert err.startswith(f"{stage}: ") and "Traceback" not in err, err
    assert tree(out) == names
    assert tree_bytes(out) == before


def test_leftover_staging_directory_is_cleared(tmp_path):
    # a killed synth leaves .synth.partial behind; the next synth clears it
    out = tmp_path / "o"
    (out / ".synth.partial" / "sea_states").mkdir(parents=True)
    (out / ".synth.partial" / "sea_states" / "Q9.npy").write_bytes(b"old")
    assert main(["synth", "--out", str(out)] + COMMIT_ARGS) == 0
    assert tree(out) == sorted(os.path.normpath(name) for name in
                               STAGE_OUTPUTS["synth"] + ["sea_states"])


def structured_rank(commit_trees, tmp_path):
    """(--out of all five stages plus a structured rank, rank's argv)."""
    out, argv = tmp_path / "o", ["rank", "--out", str(tmp_path / "o")]
    shutil.copytree(commit_trees[1], out)
    assert main(argv + COMMIT_ARGS + ["--format", "structured"]) == 0
    return out, argv + COMMIT_ARGS + ["--norm-mode", "minmax"]


def test_delimited_rank_removes_structured_results(commit_trees, tmp_path):
    # the raw ranking's results.json would sit beside the min-max
    # results.csv
    out, argv = structured_rank(commit_trees, tmp_path)
    assert main(argv) == 0
    assert not (out / "results.json").exists()


def test_refused_delimited_rank_keeps_structured_results(commit_trees,
                                                         tmp_path):
    out, argv = structured_rank(commit_trees, tmp_path)
    before = (out / "results.json").read_bytes()
    (out / "zone_shares.csv").unlink()
    (out / "zone_shares.csv").mkdir()
    assert main(argv) == 2
    assert (out / "results.json").read_bytes() == before


# The process entry point, run as `python -m wavepower.cli` in a child
# process: it ends the process with os._exit once main() returns.
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")
SMALL_RUN = ["--hours", "48", "--depth-range", "5,100"]


def run_process(argv, cwd, code=None):
    """(exit code, stdout, stderr) of a child running the entry point:
    `python -m wavepower.cli argv`, or the script `code` if given."""
    command = ["-c", code] if code else ["-m", "wavepower.cli"]
    # buffered stdout, as by default, so that a missing flush loses output
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    proc = subprocess.run([sys.executable, *command, *argv], cwd=cwd,
                          env=dict(env, PYTHONPATH=SRC),
                          capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


# A child that runs the entry point on its argv, if any, and prints as
# it ends the wavepower modules it loaded, then whether `import numpy`
# alone loaded numpy.ma (numpy 1.x does) and whether it is loaded at the
# end.
SHOW_MODULES = (
    "import atexit, sys\n"
    "import numpy\n"
    "bare = 'numpy.ma' in sys.modules\n"
    "atexit.register(lambda: print(*sorted(\n"
    "    m for m in sys.modules if m.partition('.')[0] == 'wavepower'),\n"
    "    bare, 'numpy.ma' in sys.modules))\n"
    "from wavepower import cli\n"
    "if sys.argv[1:]:\n"
    "    cli.process_entry()\n")
CLI_MODULES = ["wavepower", "wavepower.cli", "wavepower.data_io",
               "wavepower.errors"]
# (stage, --kind) -> the modules a stage process loads beyond those of
# `import wavepower.cli`: those of the code it runs, and no more
STAGE_MODULES = {
    ("synth", "sea-states"): ["pipeline"],
    ("analyze", "sea-states"): ["mechanics", "pipeline", "spectral"],
    ("optimize", "sea-states"): ["gwo", "mechanics", "pipeline"],
    ("rank", "sea-states"): ["assessment", "pipeline"],
    ("report", "sea-states"): ["pipeline"],
    ("synth", "elevation"): ["mechanics", "pipeline", "spectral"],
    ("analyze", "elevation"): ["mechanics", "pipeline", "spectral"],
    ("synth", "both"): ["mechanics", "pipeline", "spectral"],
}


def test_each_stage_process_loads_only_its_modules(tmp_path):
    loaded = {("import wavepower.cli", None): run_process(
        [], tmp_path, SHOW_MODULES)}
    for stage, kind in STAGE_MODULES:
        loaded[stage, kind] = run_process(
            [stage, "--out", kind, "--kind", kind, "--hours", "3",
             "--duration", "256", "--points", "K1,K2,Z1",
             "--depth-range", "5,100"], tmp_path, SHOW_MODULES)
    for key, (rc, stdout, stderr) in loaded.items():
        *modules, bare, ma = stdout.split()
        extra = STAGE_MODULES.get(key, [])
        assert (rc, modules) == (0, sorted(
            CLI_MODULES + [f"wavepower.{m}" for m in extra])), (key, stderr)
        # np.median would load numpy.ma in analyze on elevation records
        assert ma == bare, key


class TestProcessEntry:
    def test_stages_write_the_tree_of_in_process_calls(self, tmp_path,
                                                       capsys):
        handlers, gc_state = atexit._ncallbacks(), (gc.isenabled(),
                                                     gc.get_threshold())
        for stage in STAGES:
            assert main([stage, "--out", str(tmp_path / "a")]
                        + SMALL_RUN) == 0
        # in-process main() leaves exit handlers and the collector alone
        assert atexit._ncallbacks() == handlers
        assert (gc.isenabled(), gc.get_threshold()) == gc_state
        stderr = capsys.readouterr().err
        assert stderr.startswith("rank: raw norm mixes units")
        runs = [run_process([stage, "--out", "b"] + SMALL_RUN, tmp_path)
                for stage in STAGES]
        assert [run[:2] for run in runs] == [(0, "")] * len(STAGES)
        assert "".join(run[2] for run in runs) == stderr
        assert len(tree_bytes(tmp_path / "b")) > 100
        assert tree_bytes(tmp_path / "a") == tree_bytes(tmp_path / "b")

    def test_failed_point_exits_1(self, tmp_path):
        argv = ["--out", "o", "--points", "K4,Z1"] + SMALL_RUN
        assert run_process(["synth"] + argv, tmp_path)[0] == 0
        os.remove(tmp_path / "o" / "sea_states" / "Z1.npy")
        rc, stdout, stderr = run_process(["analyze"] + argv, tmp_path)
        assert (rc, stdout) == (1, "")
        assert stderr.startswith("analyze: point Z1 failed: no input data")
        assert stderr.count("\n") == 1
        assert len(read_lines(tmp_path / "o" / "features.csv")) == 2

    def test_refused_input_exits_2_with_one_line(self, tmp_path):
        assert run_process(["optimize", "--out", "o", "--bounds", "1,2"],
                           tmp_path) == (
            2, "", "optimize: bounds needs 6 comma-separated numbers\n")
        assert not (tmp_path / "o").exists()

    def test_help_exits_0_on_stdout(self, tmp_path):
        rc, stdout, stderr = run_process(["--help"], tmp_path)
        assert (rc, stderr) == (0, "")
        assert stdout.startswith("usage: wavepower [-h]")
        assert all(stage in stdout for stage in STAGES)

    def test_exit_handlers_run(self, tmp_path):
        code = ("import atexit, sys\n"
                "from wavepower import cli\n"
                "atexit.register(print, 'exit handler ran')\n"
                "sys.argv[1:] = ['optimize', '--out', 'o', '--bounds',\n"
                "                '0.1,0.6,2,6,5,100', '--iters', '5']\n"
                "cli.process_entry()\n"
                "print('not reached')\n")
        assert run_process([], tmp_path, code) == (0, "exit handler ran\n",
                                                   "")
        assert (tmp_path / "o" / "reference.csv").exists()
