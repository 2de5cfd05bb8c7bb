import atexit
import csv
import gc
import json
import os
import shutil
import subprocess
import sys
import warnings

import numpy as np
import pytest

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
        assert series.hs.mean() == pytest.approx(0.5 * 0.6, abs=1e-12)
        assert series.te.mean() == pytest.approx(4.0 * 0.8, abs=1e-12)

    def test_nyquist_violation_writes_nothing(self, tmp_path):
        out = tmp_path / "o"
        rc = main(["synth", "--out", str(out), "--kind", "elevation",
                   "--dt", "10.0", "--depth", "30", "--points", "T1"])
        assert rc == 2
        assert not (out / "elevation").exists()

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
                     "--depth", "1000"]) == 0
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

    def test_optimize_without_features(self, tmp_path):
        assert main(["optimize", "--out", str(tmp_path / "o")]) == 2

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
        assert "rank" in capsys.readouterr().err


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
        assert main(["analyze", "--out", str(out), "--points", "K1"]) == 1
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
    times = data_io.load_sea_states(out / "sea_states" / "K1.npy").times
    data_io.write_point(out, "K1", data_io.SeaStateSeries(
        point="K1", times=times, hs=[1e151, 0.0], te=[1.0, 1e6]))
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
    "header-only features": (["optimize"], {"o/features.csv": (
        "point,zone,h_bar_m,t_bar_s,depth_m,power_irregular_wpm,"
        "power_regular_wpm")}),
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
    # report normalizes by the largest irregular power
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
    "zone shares summing to 2": (["report"], dict(
        rank_tables(("1.0", "1.0", "1"), ("2.0", "2.0", "2")), **{
            "o/zone_shares.csv": "zone,total_power_wpm,share\nA,3.0,2.0"})),
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


@pytest.fixture(scope="module")
def ranked_run(tmp_path_factory):
    """--out of synth to rank, run once for the stage-table tests."""
    out = tmp_path_factory.mktemp("ranked") / "o"
    args = ["--out", str(out), "--seed", "7", "--hours", "48",
            "--depth-range", "5,100", "--points", "K1,K4,Z1"]
    for cmd in STAGES[:4]:
        assert main([cmd] + args) == 0
    return out


def _set_field(path, column, value):
    """Set `column` of the first data row of a CSV table to `value`."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    rows[1][rows[0].index(column)] = value
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


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
    ("report", "sea-states"): [],
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
