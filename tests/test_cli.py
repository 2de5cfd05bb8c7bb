import atexit
import contextlib
import csv
import errno
import gc
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wavepower import cli, data_io, pipeline
from wavepower.cli import COMMANDS, main
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
    def test_schedule_means_exact(self, tmp_path):
        out = tmp_path / "o"
        assert main(["synth", "--out", str(out), "--seed", "0",
                     "--hours", "200", "--depth-range", "30,30",
                     "--points", "T1"]) == 0
        series = data_io.load_sea_states(out / "sea_states" / "T1.npy")
        # T1 is catalog index 0: schedule mean hs_base*0.6, te_base*0.8
        assert series["hs_m"].mean() == pytest.approx(0.5 * 0.6, abs=1e-12)
        assert series["te_s"].mean() == pytest.approx(4.0 * 0.8, abs=1e-12)

    def test_nyquist_violation_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "o"
        rc = main(["synth", "--out", str(out), "--kind", "elevation",
                   "--dt", "10.0", "--depth-range", "30,30", "--points", "T1"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("synth: dt=10.0 violates Nyquist for max "
                              "frequency ") and err.count("\n") == 1, err
        assert not out.exists()

    def test_nyquist_is_judged_at_each_selected_points_band(self, tmp_path):
        # T1's top bin centre is 1.19375 / 3.2 s = 0.373 Hz, so dt must be
        # at most 1.340 s; S11's is 1.19375 / 4.8 s = 0.249 Hz, so 2.011 s
        args = ["--kind", "elevation", "--dt", "1.5", "--duration", "64",
                "--depth-range", "30,30"]
        assert main(["synth", "--out", str(tmp_path / "a"), "--points",
                     "T1"] + args) == 2
        assert main(["synth", "--out", str(tmp_path / "b"), "--points",
                     "S11"] + args) == 0
        rec = data_io.load_elevation(tmp_path / "b" / "elevation" / "S11.npy")
        assert rec.samples.size == 43

    def test_times_past_year_9999_exit_2(self, tmp_path, capsys):
        assert main(["synth", "--out", str(tmp_path / "o"), "--depth-range",
                     "30,30", "--points", "T1", "--start",
                     "9999-12-31T22:00:00Z", "--hours", "3"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "runs past 9999-12-31T23:59:59Z" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.usefixtures("no_time_axis")
    def test_huge_hours_exit_2_before_any_time_axis(self, tmp_path, capsys):
        assert main(["synth", "--out", str(tmp_path / "o"), "--depth-range",
                     "30,30", "--points", "T1", "--hours", str(10 ** 15)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "runs past 9999-12-31T23:59:59Z" in err
        assert not (tmp_path / "o" / "catalog.csv").exists()

    @pytest.mark.usefixtures("no_time_axis")
    def test_elevation_kind_builds_no_time_axis(self, tmp_path):
        out = tmp_path / "o"
        assert main(["synth", "--out", str(out), "--kind", "elevation",
                     "--depth-range", "30,30", "--points", "K4",
                     "--duration", "64", "--hours", str(10 ** 15)]) == 0
        assert (out / "elevation" / "K4.npy").exists()

    def test_elevation_kind(self, tmp_path):
        out = tmp_path / "o"
        assert main(["synth", "--out", str(out), "--kind", "elevation",
                     "--depth-range", "30,30", "--points", "K4",
                     "--duration", "512", "--dt", "0.5"]) == 0
        rec = data_io.load_elevation(out / "elevation" / "K4.npy")
        assert rec.samples.size == 1024


class TestAnalyze:
    def test_missing_point_data_nonzero_exit(self, tmp_path, capsys):
        out = tmp_path / "o"
        args = ["--out", str(out), "--seed", "1", "--hours", "48",
                "--depth-range", "30,30"]
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
                "--depth-range", "30,30", "--points", "K4,Z1"]
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
                "--depth-range", "30,30", "--points", "K4,Z1"]
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

    @pytest.mark.parametrize("kind", [
        [], ["--kind", "elevation", "--duration", "512"],
        # one untapered segment of all 1024 samples
        ["--kind", "elevation", "--duration", "512", "--segments", "1",
         "--taper", "none"]])
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
                "--depth-range", "30,30"]
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
        cat = pipeline.apply_depths(data_io.builtin_catalog(),
                                    depth_range=(1000.0, 1000.0))
        data_io.write_table(cat, out / "catalog.csv")
        n, dt = 2 ** 14, 0.5
        f0 = 1638 / (n * dt)  # on the analysis grid, ~0.2 Hz
        target = VarianceDensitySpectrum(
            f=np.array([f0]), S=np.array([0.125 / 0.01]), df=0.01)
        rec = synthesize_record(target, n * dt, dt, seed=0)
        data_io.write_elevation(rec, out / "elevation" / "K4.csv")
        assert main(["analyze", "--out", str(out), "--points", "K4",
                     "--depth-range", "1000,1000", "--kind", "elevation"]) == 0
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
        cfg.write_text(json.dumps({"seed": 5, "hours": 48,
                                   "depth_range": "30,30",
                                   "points": "K4,Z1"}))
        assert main(["synth", "--config", str(cfg), "--out", str(out),
                     "--hours", "24"]) == 0
        series = data_io.load_sea_states(out / "sea_states" / "K4.npy")
        assert len(series) == 24  # flag wins over the config file
        echo = json.loads((out / "synth_config.json").read_text())
        assert echo["seed"] == 5
        assert echo["hours"] == 24

    def test_config_with_byte_order_mark(self, tmp_path):
        # a config saved by an editor as "UTF-8 with BOM" loads as without
        doc = json.dumps({"seed": 5, "hours": 3, "depth_range": "30,30",
                          "points": "K4,Z1"})
        for name, text in [("plain", doc), ("bom", "\ufeff" + doc)]:
            cfg = tmp_path / f"{name}.json"
            cfg.write_text(text, encoding="utf-8")
            assert main(["synth", "--config", str(cfg),
                         "--out", str(tmp_path / name)]) == 0
        assert tree_bytes(tmp_path / "bom") == tree_bytes(tmp_path / "plain")

    @pytest.mark.parametrize("stage", STAGES)
    def test_empty_out_is_refused(self, tmp_path, monkeypatch, capsys,
                                  stage):
        # "" is no directory: nothing is staged in the working directory
        monkeypatch.chdir(tmp_path)
        assert main([stage, "--out", "", "--depth-range", "30,30",
                     "--points", "T1", "--hours", "3"]) == 2
        assert capsys.readouterr().err == (
            f"{stage}: out must name a directory\n")
        assert os.listdir(tmp_path) == []

    def test_catalog_named_builtin_is_a_file(self, tmp_path, monkeypatch):
        # the built-in catalog is the unset --catalog, never a file name
        monkeypatch.chdir(tmp_path)
        Path("builtin").write_text("index,name,zone,lat_deg,lon_deg,depth_m\n"
                                   "1,A1,Z,37.0,50.0,\n2,A2,Z,37.1,50.1,\n")
        args = ["--depth-range", "5,100", "--hours", "3"]
        assert main(["synth", "--out", "o", "--catalog", "builtin"]
                    + args) == 0
        assert len(read_lines("o/catalog.csv")) == 3
        Path("cfg.json").write_text('{"catalog": null}')
        assert main(["synth", "--out", "b", "--config", "cfg.json"]
                    + args) == 0
        assert len(read_lines("b/catalog.csv")) == 106

    @pytest.mark.parametrize("argv, text", [
        (["--format", "structured"], "unrecognized arguments: --format"),
        (["--depth", "30"], "unrecognized arguments: --depth 30"),
        (["--kind", "both"], "argument --kind: invalid choice: 'both'")],
        ids=["format", "depth", "kind both"])
    def test_format_is_not_an_option(self, tmp_path, capsys, argv, text):
        for stage in STAGES:
            with pytest.raises(SystemExit) as refused:
                main([stage, "--out", str(tmp_path / "o")] + argv)
            assert refused.value.code == 2
            assert text in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_options_may_precede_the_stage(self, tmp_path):
        args = ["--hours", "3", "--depth-range", "5,100", "--points", "K1"]
        assert main(["--out", str(tmp_path / "a"), "synth"] + args) == 0
        assert main(["synth", "--out", str(tmp_path / "b")] + args) == 0
        assert tree_bytes(tmp_path / "a") == tree_bytes(tmp_path / "b")

    def test_minmax_mode(self, tmp_path):
        out = tmp_path / "o"
        run_pipeline(out, extra=["--norm-mode", "minmax"])
        results = read_lines(out / "results.csv")
        norms = [float(r.split(",")[7]) for r in results[1:]]
        assert all(0 <= n <= np.sqrt(3) + 1e-9 for n in norms)

    def test_zone_rows_follow_the_ranking(self, tmp_path):
        # the min-max ranking puts both Anzali points first, where the
        # catalog lists Kiashahr before Anzali
        out = tmp_path / "o"
        extra = ["--norm-mode", "minmax"]
        run_pipeline(out, extra=extra)
        rows = [line.split(",") for line in read_lines(out / "results.csv")]
        assert [int(r[-1]) for r in rows[1:]] == list(range(1, len(rows)))
        zones = list(dict.fromkeys(r[1] for r in rows[1:]))
        assert zones == ["Anzali", "Kiashahr"]
        shares = out / "zone_shares.csv"
        assert [line.split(",")[0] for line in read_lines(shares)[1:]] == \
            zones
        assert (out / "report" / "zone_shares.csv").read_bytes() == \
            shares.read_bytes()
        # report reads results.csv alone
        report = tree_bytes(out / "report")
        shares.write_text("zone,total_power_wpm,share\nA,1.0,2.0\n")
        assert main(["report", "--out", str(out)] + extra) == 0
        assert tree_bytes(out / "report") == report
        shares.unlink()
        assert main(["report", "--out", str(out)] + extra) == 0
        assert tree_bytes(out / "report") == report


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
    args = ["--out", str(out), "--hours", "3", "--depth-range", "30,30"]
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
    data_io.write_table(pipeline.apply_depths(
        data_io.builtin_catalog(), depth_range=(30, 30)), out / "catalog.csv")
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
    args = ["--out", str(out), "--hours", "2", "--depth-range", "30,30",
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


@pytest.mark.parametrize("stage", ["analyze", "optimize"])
def test_gravity_whose_square_overflows_is_refused(stage, tmp_path, capsys):
    # 1e155 is finite, but rho*g**2 in every power is not
    out = tmp_path / "o"
    args = ["--out", str(out), "--hours", "3", "--depth-range", "30,30",
            "--points", "K1", "--bounds", "0.1,0.6,2,6,5,100"]
    for done in ("synth", "analyze"):
        assert main([done] + args) == 0
    before = tree_bytes(out)
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main([stage] + args + ["--gravity", "1e155"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err, err
    assert err.startswith(f"{stage}: g must be positive and finite, as "
                          f"must g**2, got 1e+155"), err
    assert tree_bytes(out) == before


def rank_tables(*rows):
    """results.csv of one point per (power_irregular_wpm, power_regular_wpm,
    rank) row, as a file for MALFORMED."""
    results = ",".join(data_io.RESULT_DTYPE.names) + "".join(
        f"\nP{i},A,0.5,4.0,10.0,{p_irr},{p_reg},1.0,0.9,{rank}"
        for i, (p_irr, p_reg, rank) in enumerate(rows, 1))
    return {"o/results.csv": results}


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
        ["synth", "--depth-range", "30,30", "--config", "{tmp}/none.json"],
        {}),
    "invalid JSON config": (
        ["synth", "--config", "{tmp}/cfg.json"], {"cfg.json": "{depth: 30"}),
    "missing catalog": (
        ["synth", "--depth-range", "30,30", "--catalog", "{tmp}/none.csv"],
        {}),
    "malformed start": (
        ["synth", "--depth-range", "30,30", "--start", "2006"], {}),
    # records have no timestamps, so only the settings check sees it
    "malformed start for records": (
        ["synth", "--kind", "elevation", "--duration", "16", "--depth-range",
         "30,30", "--points", "K1", "--start", "2006"], {}),
    # years that numpy reads and writes back, but four digits cannot spell
    "start before year 0": (
        ["synth", "--depth-range", "30,30", "--hours", "3", "--points", "K1",
         "--start=-001-01-01T00:00:00Z"], {}),
    "start after year 9999": (
        ["synth", "--depth-range", "30,30", "--hours", "3", "--points", "K1",
         "--start=10000-01-01T00:00:00Z"], {}),
    "start before year 0 for records": (
        ["synth", "--kind", "elevation", "--duration", "16", "--depth-range",
         "30,30", "--points", "K1", "--start=-001-01-01T00:00:00Z"], {}),
    "start after year 9999 for records": (
        ["synth", "--kind", "elevation", "--duration", "16", "--depth-range",
         "30,30", "--points", "K1", "--start=10000-01-01T00:00:00Z"], {}),
    "config holding a JSON array": (
        ["synth", "--depth-range", "30,30", "--hours", "3", "--points", "K1",
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
    "zero hours": (["synth", "--depth-range", "30,30", "--hours", "0"], {}),
    "non-UTF-8 config": (
        ["synth", "--depth-range", "30,30", "--config", "{tmp}/cfg.json"],
        {"cfg.json": b"\xff\xfe{}"}),
    "non-UTF-8 catalog": (
        ["synth", "--depth-range", "30,30", "--catalog", "{tmp}/cat.csv"],
        {"cat.csv": b"index,name,zone\xff,lat_deg,lon_deg,depth_m\n"}),
    "out key in config": (
        ["synth", "--depth-range", "30,30", "--config", "{tmp}/cfg.json"],
        {"cfg.json": '{"out": "ignored"}'}),
    "format key in config": (
        ["rank", "--config", "{tmp}/cfg.json"],
        {"cfg.json": '{"format": "delimited"}'}),
    # --depth-range is the one spelling of a depth
    "depth key in config": (
        ["synth", "--hours", "3", "--points", "K1", "--config",
         "{tmp}/cfg.json"], {"cfg.json": '{"depth": 30}'}),
    # synth writes one kind, and analyze reads one
    "kind both in config": (
        ["synth", "--depth-range", "30,30", "--hours", "3", "--points", "K1",
         "--config", "{tmp}/cfg.json"], {"cfg.json": '{"kind": "both"}'}),
    # json.load would keep the last seed
    "repeated key in config": (
        ["synth", "--depth-range", "30,30", "--points", "K1", "--config",
         "{tmp}/cfg.json"],
        {"cfg.json": '{"seed": 1, "hours": 3, "seed": 2}'}),
    "built-in catalog with no depth range": (["synth", "--points", "T1"], {}),
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
         "1e-10", "--depth-range", "30,30", "--points", "K1"], {}),
    "record of more samples than an array can index": (
        ["synth", "--kind", "elevation", "--duration", "1e300", "--dt",
         "0.5", "--depth-range", "30,30", "--points", "K1"], {}),
    # zone_totals, which report runs on the results, refuses a total
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
    # y = omega^2 d/g is so small that Newton from x0 = y needs more
    # than DISPERSION_MAX_ITER steps
    "gravity too large for the dispersion solve to converge": (
        ["optimize", "--bounds", "0.1,0.6,2,6,5,100", "--gravity", "1e29"],
        {}),
    # rank and report would keep one of the rows, or the last zone total
    "repeated point in features": (["rank"], {
        name: text.replace("\nP2,", "\nP1,") for name, text in
        feature_tables(("1.0", "1.0"), ("2.0", "2.0")).items()}),
    "repeated point in results": (["report"], {
        name: text.replace("\nP2,", "\nP1,") for name, text in
        rank_tables(("1.0", "1.0", "1"), ("2.0", "2.0", "2")).items()}),
    # the reference's H, T and d must be positive
    "non-positive depth in a reference row": (["rank"], {
        name: text.replace("0.6,4.1,79.0,", "0.6,4.1,0.0,")
        for name, text in feature_tables(("1.0", "1.0"),
                                         ("2.0", "2.0")).items()}),
    # optimize writes one row; rank would take the first and ignore the
    # rest
    "second reference row": (["rank"], {
        name: text + ("\n0.6,4.1,79.0,3000.0" if "reference" in name else "")
        for name, text in feature_tables(("1.0", "1.0"),
                                         ("2.0", "2.0")).items()}),
    # synth would take the first depth_m and ignore the second
    "catalog naming a column twice": (
        ["synth", "--hours", "3", "--catalog", "{tmp}/cat.csv"],
        {"cat.csv": "index,name,zone,lat_deg,lon_deg,depth_m,depth_m\n"
                    "1,P1,A,37.0,50.0,10,-5"}),
    "repeated --points name": (
        ["synth", "--depth-range", "30,30", "--hours", "3", "--points",
         "K1,K1,Z1"], {}),
    # synth would take the empty list of names for all 105 points
    "--points of commas alone": (
        ["synth", "--depth-range", "30,30", "--hours", "3", "--points", ","],
        {}),
    "empty --points": (
        ["synth", "--depth-range", "30,30", "--hours", "3", "--points", ""],
        {}),
    "points of no name in config": (
        ["synth", "--depth-range", "30,30", "--hours", "3", "--config",
         "{tmp}/cfg.json"], {"cfg.json": '{"points": " , "}'}),
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
    # numpy could not even size them
    "iterations past numpy's largest array": (
        ["optimize", "--bounds", "0.1,0.6,2,6,5,100",
         "--iters", "100000000000000000000"], {}),
    "pack past numpy's largest array": (
        ["optimize", "--bounds", "0.1,0.6,2,6,5,100",
         "--agents", "100000000000000000000", "--iters", "1"], {}),
    # the built-in catalog is the unset --catalog, not the empty path
    "empty catalog path": (
        ["synth", "--hours", "3", "--depth-range", "30,30", "--points", "K1",
         "--catalog", ""], {}),
    "header-only catalog": (
        ["synth", "--hours", "3", "--depth-range", "30,30", "--catalog",
         "{tmp}/cat.csv"],
        {"cat.csv": "index,name,zone,lat_deg,lon_deg,depth_m"}),
}


# case -> text its one line holds, where the stage would refuse the
# input anyway, or the wording is the point
MALFORMED_TEXT = {
    **dict.fromkeys([case for case in MALFORMED if case.startswith("start ")],
                    "synth: start must be like 2006-01-01T00:00:00Z\n"),
    "invalid JSON config": "/cfg.json: Expecting property name",
    "gravity too large for the dispersion solve to converge":
        " m at g=1e+29 (worst relative residual ",
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
    assert MALFORMED_TEXT.get(case, "") in err, err
    assert tree(tmp_path) == before


def test_error_of_no_text_is_named(tmp_path, capsys, monkeypatch):
    def exhausted(cfg, into):  # as a failed allocation raises it
        raise MemoryError
    monkeypatch.setitem(COMMANDS, "report", exhausted)
    assert main(["report", "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == "report: MemoryError\n"
    assert not (tmp_path / "o").exists()


# C0 and C1 controls and the line and paragraph separators, which the
# catalog refuses in names, then a no-break space and a zero-width space
UNPRINTABLE = "".join(map(chr, [*range(0x20), *range(0x7F, 0xA0), 0x2028,
                                0x2029, 0xA0, 0x200B]))


def test_messages_and_field_names_escape_alike(capsys):
    text = f"a {UNPRINTABLE}z"
    escaped = data_io.escape(text)
    # each character as repr writes it, a space as it is
    assert escaped == repr(text)[1:-1] and escaped.isprintable()
    cli._say("stage", text)
    assert capsys.readouterr().err == f"stage: {escaped}\n"
    assert data_io._fields(np.dtype([(text, "<f8")])) == f"{escaped} <f8"
    assert len(f"stage: {escaped}\n".splitlines()) == 1


# Values for the settings property below: GOOD ones that let the run go
# on, ODD ones for a few keys of each example. Every value of a size key
# (agents, iters, hours, duration, dt, segments) is refused or keeps the
# run small: at most 24 hourly sea states, and a record of at most 64 s
# of samples no closer than 0.25 s, unless too many to size.
MAX = sys.float_info.max
ODD_NUMBERS = [0, 0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-300,
               -1e-300, -1e300, -MAX, math.inf, -math.inf, math.nan, True,
               False, 2 ** 64, 10 ** 400, -1, 1.5, "", "1,2"]
ODD_TEXT = ["", ",", "a,b", "\x00", "\n", "\ufeff", "1,\x1f2", "\ufeff1",
            None, 5, True]
GOOD = {"rho": [1025.0, 1000], "gravity": [9.81, 1.62],
        "agents": [4, 10], "iters": [1, 3, 200], "seed": [0, 7],
        "bounds": [None, "0.1,0.6,2,6,5,100"],
        "depth_range": ["5,100"], "hours": [1, 24],
        "start": ["2006-01-01T00:00:00Z"], "hs_base": [0.5, 1.5],
        "te_base": [4.0, 8.0], "duration": [64.0, 32], "dt": [0.5, 0.25],
        "segments": [1, 8]}
ODD = {
    "agents": [2 ** 62], "iters": [2 ** 62], "segments": [10 ** 9],
    "seed": [2 ** 64, 10 ** 400], "duration": [1e300, MAX],
    "dt": [10.0, 2 ** 64, MAX],
    "bounds": ["1,2", ",,,,,", "0,0,0,0,0,0", "nan,1,2,3,4,5",
               "5e-324,1e-300,5e-324,1e-300,5e-324,1e-300",
               "1e300,1e301,1,2,3,4", "0.1,0.6,2,6,5,1e308",
               "\ufeff0.1,0.6,2,6,5,100", "0.1,0.6,2,6,5,100\n"],
    "depth_range": ["30,30", "100,5", "1e-300,1e300", "5e-324,1", "0,10",
                    "-5,10", "5", "nan,1", "1e308,1e308", "\ufeff5,100"],
    "start": ["9999-12-31T00:00:00Z", "9999-12-31T23:00:00Z",
              "0000-01-01T00:00:00Z", "-0001-01-01T00:00:00Z",
              "2006-13-01T00:00:00Z", "\ufeff2006-01-01T00:00:00Z",
              "2006-01-01T00:00:00Z\n"],
}
# keys a run may leave at their default
DEFAULT_OK = {"rho", "gravity", "agents", "iters", "seed", "bounds",
              "norm_mode", "start", "hs_base", "te_base", "kind", "dt",
              "segments", "taper", "catalog"}
# built-in catalog names; without --points it would run all 105 points
POINTS = ["K1,Z1", "Z1,K1"]
ODD_POINTS = ["K1", "K1,K1", " K1 , Z1 ", "K1,", "nope", "K1\x00", "\ufeffK1",
              "K1\nZ1", "A1", "", ",", 5, True]
# written beside --out by the property: two points, one zone quoted
SMALL_CATALOG = ('index,name,zone,lat_deg,lon_deg,depth_m\n'
                 '1,A1,"Zone, A",37.0,50.0,\n2,A2,Z,37.1,50.1,12.5\n')


@st.composite
def settings_space(draw):
    """{DEFAULTS key: (how, value)}, how one of "omit", "config" (in the
    --config file) or "flag" (--key=value); odd values for one or two
    keys, good ones for the rest."""
    from wavepower.cli import DEFAULTS
    odd = draw(st.lists(st.sampled_from(list(DEFAULTS)), min_size=1,
                        max_size=2, unique=True))
    drawn = {}
    # the catalog first: the points drawn depend on it
    for key in sorted(DEFAULTS, key=lambda k: k != "catalog"):
        typ = DEFAULTS[key][1]
        if key == "catalog":
            good = [None, "{tmp}/catalog.csv"]
            bad = ["{tmp}/missing.csv", "{tmp}", ""]
        elif key == "points":
            builtin = drawn["catalog"][1] is None
            good = POINTS if builtin else [None, "A2,A1"]
            bad = ODD_POINTS
        elif isinstance(typ, tuple):
            good, bad = list(typ), [typ[0].upper()] + ODD_TEXT
        else:
            good = GOOD[key]
            bad = ODD.get(key, []) + (ODD_TEXT if typ is str
                                      else ODD_NUMBERS)
        how = draw(st.sampled_from(["config", "flag"] + ["omit"] * (
            key in DEFAULT_OK or (key == "points" and not builtin))))
        value = draw(st.sampled_from(bad if key in odd else good))
        drawn[key] = (how, None if how == "omit" else value)
    return drawn


@settings(max_examples=60, deadline=None)
@given(drawn=settings_space())
# g**2 overflows a float: analyze and optimize refuse the environment
@example(drawn={"gravity": ("flag", 1e155)})
# the dispersion solve of optimize does not converge
@example(drawn={"gravity": ("flag", 1e29)})
# an int of JSON past the largest float
@example(drawn={"hs_base": ("config", 10 ** 400)})
# a name holding a newline: the refusal stays one line
@example(drawn={"points": ("flag", "K1\nZ1")})
def test_every_setting_fails_closed(drawn):
    # the run to which the drawn settings apply: two built-in points
    drawn = {"points": ("flag", "K1,Z1"), "hours": ("flag", 24),
             "duration": ("flag", 64.0), "depth_range": ("flag", "5,100"),
             **drawn}
    with tempfile.TemporaryDirectory() as tmp:
        with open(os.path.join(tmp, "catalog.csv"), "w") as fh:
            fh.write(SMALL_CATALOG)
        config, flags = {}, []
        for key, (how, value) in drawn.items():
            if isinstance(value, str):
                value = value.replace("{tmp}", tmp)
            if how == "config":
                config[key] = value
            elif how == "flag" and value is not None:
                text = value if isinstance(value, str) else repr(value)
                flags.append(f"--{key.replace('_', '-')}={text}")
        if config:
            with open(os.path.join(tmp, "config.json"), "w") as fh:
                json.dump(config, fh)
            flags.append(f"--config={tmp}/config.json")
        out = os.path.join(tmp, "out")
        for stage in STAGES:
            before = os.path.exists(out), tree_bytes(out)
            err = io.StringIO()
            with warnings.catch_warnings(), \
                    contextlib.redirect_stderr(err):
                warnings.simplefilter("error", RuntimeWarning)
                try:
                    code = main([stage, "--out", out] + flags)
                except SystemExit as exc:
                    # argparse refuses a flag it cannot convert in one line
                    code = exc.code
                    assert code == 2, (stage, code)
                    assert err.getvalue().count("\n") == 1, err.getvalue()
                    assert err.getvalue().startswith(
                        "wavepower: argument "), err.getvalue()
                    assert (os.path.exists(out), tree_bytes(out)) == before
                    continue
            lines = err.getvalue().split("\n")[:-1]
            assert code in (0, 1, 2), (stage, code)
            assert all(line.startswith(f"{stage}: ") for line in lines), (
                err.getvalue())
            assert not os.path.exists(os.path.join(out, f".{stage}.partial"))
            if code == 2:
                assert len(lines) == 1, err.getvalue()
                assert (os.path.exists(out), tree_bytes(out)) == before


def _resave(path, edit):
    np.save(path, edit(np.load(path, allow_pickle=False)), allow_pickle=True)


def _negate_hs_row_5(arr):
    arr["hs_m"][5] *= -1
    return arr


def _export_csv(path):
    data_io.write_sea_states(data_io.load_sea_states(path),
                             path.with_suffix(".csv"))


def _as_csv(path, edit):
    """The .npy at `path` replaced by a CSV of `edit` of its array."""
    arr = edit(np.load(path, allow_pickle=False))
    path.unlink()
    data_io.write_table(arr, path.with_suffix(".csv"))


def _with_times(times):
    """An edit of a record: its first len(times) rows, at `times`."""
    def edit(arr):
        arr = arr[:len(times)].copy()
        arr["time_s"] = times
        return arr
    return edit


def _alternate_times(arr):
    arr["time_s"][::2], arr["time_s"][1::2] = -1e308, 1e308
    return arr


def _repeat_stamp_row_2(arr):
    arr["timestamp"][2] = arr["timestamp"][1]
    return arr


def _nan_eta_row_7(arr):
    arr["eta_m"][7] = np.nan
    return arr


# times whose steps are finite but whose median step (a + b) / 2 is past
# the largest float; increasing times whose first step is past it
HUGE_MEDIAN = _with_times([-1.7e308, 0.0, 1.7e308])
HUGE_STEP = _with_times([-1e308, 1e308, 1.5e308])

# the file a row edits -> the rest of the synth and analyze arguments,
# and the point that analyze keeps
POINT_RUNS = {
    "sea_states/Z1.npy": (["--seed", "1", "--hours", "48", "--depth-range",
                           "30,30", "--points", "K4,Z1"], "K4"),
    "elevation/K1.npy": (["--kind", "elevation", "--duration", "64",
                          "--depth-range", "30,30", "--points", "K1,K2"],
                         "K2"),
    "sea_states/K2.npy": (["--hours", "24", "--depth-range", "30,30",
                           "--points", "K1,K2"], "K1"),
}
SEA, RECORD, SECOND_SEA = POINT_RUNS
# the most a point file may take to read in these tests: a larger one
# fails to allocate, as a terabyte would, without allocating anything
MEMORY = 1 << 30

# name -> (file synth wrote under --out, edit of it, text the one error
# line holds with --out/ left out)
MALFORMED_POINT = {
    "truncated": (SEA, lambda p: p.write_bytes(p.read_bytes()[:-7]),
                  "Z1.npy: unreadable .npy file"),
    "header only": (SEA, lambda p: p.write_bytes(p.read_bytes()[:60]),
                    "Z1.npy: unreadable .npy file"),
    "not npy": (SEA, lambda p: p.write_text("timestamp,hs_m,te_s\n"),
                "Z1.npy: not an .npy file"),
    "pickled object array": (
        SEA, lambda p: _resave(p, lambda a: np.array(list(a), dtype=object)),
        "Z1.npy: unreadable .npy file"),
    "wrong field names": (
        SEA, lambda p: _resave(p, lambda a: a.astype(
            [("time", "<M8[s]"), ("hs", "<f8"), ("te", "<f8")])),
        "Z1.npy: expected fields timestamp <M8[s], hs_m <f8, te_s <f8"),
    "wrong ndim": (SEA, lambda p: _resave(p, lambda a: a.reshape(2, -1)),
                   "Z1.npy: expected a 1-D array"),
    "negative Hs": (SEA, lambda p: _resave(p, _negate_hs_row_5),
                    "Z1.npy: row 5: negative Hs"),
    "both csv and npy": (SEA, _export_csv, "/Z1.npy and "),
    "repeated timestamp, csv": (
        SEA, lambda p: _as_csv(p, _repeat_stamp_row_2),
        "line 4: sea_states/Z1.csv: non-increasing timestamp "
        "2006-01-01T01:00:00Z"),
    "record step past the largest float": (
        RECORD, lambda p: _resave(p, HUGE_STEP),
        "elevation/K1.npy: non-finite median time step inf"),
    "record step past the largest float, csv": (
        RECORD, lambda p: _as_csv(p, HUGE_STEP),
        "elevation/K1.csv: non-finite median time step inf"),
    "record times alternating": (
        RECORD, lambda p: _resave(p, _alternate_times),
        "elevation/K1.npy: row 2: non-increasing time_s -1e+308"),
    "record times alternating, csv": (
        RECORD, lambda p: _as_csv(p, _alternate_times),
        "line 4: elevation/K1.csv: non-increasing time_s -1e+308"),
    "record elevation nan": (
        RECORD, lambda p: _resave(p, _nan_eta_row_7),
        "elevation/K1.npy: row 7: non-finite eta_m nan"),
    "record elevation nan, csv": (
        RECORD, lambda p: _as_csv(p, _nan_eta_row_7),
        "line 9: elevation/K1.csv: non-finite eta_m nan"),
    "record median step past the largest float": (
        RECORD, lambda p: _resave(p, HUGE_MEDIAN),
        "elevation/K1.npy: non-finite median time step inf"),
    "record median step past the largest float, csv": (
        RECORD, lambda p: _as_csv(p, HUGE_MEDIAN),
        "elevation/K1.csv: non-finite median time step inf"),
    "too large to read": (
        SECOND_SEA, lambda p: os.truncate(p, 10 ** 12),
        "sea_states/K2.npy: 1000000000000 bytes, too large to read"),
}


def _bytearray_within_memory(size):
    if size > MEMORY:
        raise MemoryError
    return bytearray(size)


@pytest.mark.parametrize("case", list(MALFORMED_POINT))
def test_malformed_point_file_fails_that_point(case, tmp_path, capsys,
                                               monkeypatch):
    file, edit, text = MALFORMED_POINT[case]
    run, kept = POINT_RUNS[file]
    out = tmp_path / "o"
    args = ["--out", str(out)] + run
    assert main(["synth"] + args) == 0
    edit(out / file)
    capsys.readouterr()
    monkeypatch.setattr(data_io, "bytearray", _bytearray_within_memory,
                        raising=False)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["analyze"] + args) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err, err
    assert err.startswith(f"analyze: point {Path(file).stem} failed: ")
    assert text in err.replace(f"{out}{os.sep}", ""), err
    if case == "both csv and npy":
        assert err.rstrip().endswith("/Z1.csv exist; remove the stale one")
    assert [ln.split(",")[0] for ln in
            read_lines(out / "features.csv")[1:]] == [kept]


THREE_POINTS = ["--hours", "3", "--depth-range", "30,30", "--points",
                "K1,K2,K3"]


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


def _record_edit(data, record):
    """`record` with one drawn edit of a cell, two adjacent times or the
    rows."""
    row = data.draw(st.integers(0, record.size - 1))
    kind = data.draw(st.sampled_from(["cell", "times", "rows"]))
    if kind == "cell":
        record[data.draw(st.sampled_from(["time_s", "eta_m"]))][row] = \
            data.draw(st.sampled_from([
                np.nan, np.inf, -np.inf, 1e308, -1e308, 1.7e308, -1.7e308,
                record["time_s"][row - 1]]))  # or row 0 the last time
    elif kind == "times":  # increasing, but the step overflows
        row = max(row, 1)
        record["time_s"][row - 1:row + 1] = -1e308, 1e308
    else:
        record = np.delete(record, row) if data.draw(st.booleans()) \
            else np.insert(record, row, record[row])
    return record


def _analyze_mutated_k2(synth_out, data, file, edit, args):
    """Analyze a copy of `synth_out` whose `file`, K2's, is edited as an
    array by `edit` and saved to .npy or .csv with no checks, or edited as
    the bytes of its .npy: analyze either refuses K2 alone or takes all
    three points, and numpy never warns."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "o"
        shutil.copytree(synth_out, out)
        npy = out / file
        if data.draw(st.booleans()):
            raw = bytearray(npy.read_bytes())
            for at, new in data.draw(st.lists(st.tuples(
                    st.integers(0, len(raw) - 1),
                    st.binary(min_size=0, max_size=3)), min_size=1,
                    max_size=3)):
                raw[at:at + 1] = new
            npy.write_bytes(bytes(raw))
        else:
            arr = edit(data, np.load(npy, allow_pickle=False))
            if data.draw(st.booleans()):
                npy.unlink()
                npy = npy.with_suffix(".csv")
            data_io.write_table(arr, npy)
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            rc = main(["analyze", "--out", str(out)] + args)
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


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_mutated_sea_state_file_fails_closed(three_point_synth, data):
    _analyze_mutated_k2(three_point_synth, data, "sea_states/K2.npy",
                        _series_edit, THREE_POINTS)


THREE_RECORDS = ["--kind", "elevation", "--duration", "64", "--depth-range",
                 "30,30", "--points", "K1,K2,K3"]


@pytest.fixture(scope="module")
def three_record_synth(tmp_path_factory):
    """--out of synth for K1, K2 and K3, 128 record samples each."""
    out = tmp_path_factory.mktemp("records") / "o"
    assert main(["synth", "--out", str(out)] + THREE_RECORDS) == 0
    return out


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_mutated_elevation_file_fails_closed(three_record_synth, data):
    _analyze_mutated_k2(three_record_synth, data, "elevation/K2.npy",
                        _record_edit, THREE_RECORDS)


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
                "results.csv": ("point", ["report"])}
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
COMMIT_POINTS = ["K1", "K2", "K3"]
# stage, with --kind if not the default -> the paths it writes under --out
# with COMMIT_ARGS, its echo last
STAGE_OUTPUTS = {
    "synth": ["catalog.csv"] + [f"sea_states/{p}.npy" for p in COMMIT_POINTS]
    + ["synth_config.json"],
    "analyze": ["features.csv", "analyze_config.json"],
    "optimize": ["reference.csv", "convergence.csv", "bounds.csv",
                 "optimize_config.json"],
    "rank": ["results.csv", "zone_shares.csv", "rank_config.json"],
    "report": ["report/" + name for name in REPORT_TABLES]
    + ["report_config.json"],
    "synth --kind elevation": ["catalog.csv"]
    + [f"elevation/{p}.npy" for p in COMMIT_POINTS] + ["synth_config.json"],
}
# (stage, path, what takes the path's place)
COMMIT_CASES = [
    (stage, path, "directory")
    for stage, paths in STAGE_OUTPUTS.items() for path in paths] + [
    ("synth", "sea_states", "file"), ("report", "report", "file"),
    ("synth --kind elevation", "elevation", "file")]


@pytest.fixture(scope="module")
def commit_trees(tmp_path_factory):
    """(stage -> the --out it starts from, --out of all five stages), each
    run with COMMIT_ARGS: each of the five starts from the --out of those
    before it, the elevation synth from an empty one. Checks that each
    writes its STAGE_OUTPUTS."""
    root = tmp_path_factory.mktemp("commit")
    out, fresh = root / "o", {}
    for stage, paths in STAGE_OUTPUTS.items():
        run = out if stage in STAGES else root / f"run {stage}"
        run.mkdir(exist_ok=True)
        fresh[stage] = root / f"before {stage}"
        shutil.copytree(run, fresh[stage])
        before = tree_bytes(run)
        assert main(stage.split() + ["--out", str(run)] + COMMIT_ARGS) == 0
        after = tree_bytes(run)
        assert {name for name in after if after[name] != before.get(name)} \
            == {os.path.normpath(path) for path in paths}
    return fresh, out


def assert_one_line(err, stage):
    """That `err` is one line of `stage`'s refusal."""
    assert len(err.splitlines()) == 1 and err.endswith("\n"), err
    assert err.startswith(f"{stage.split()[0]}: "), err
    assert "Traceback" not in err, err


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
    assert main(stage.split() + ["--out", str(out)] + RERUN_ARGS) == 2
    assert_one_line(capsys.readouterr().err, stage)
    assert tree(out) == names
    assert tree_bytes(out) == before


@pytest.mark.parametrize("stage, k", [
    (stage, k) for stage, paths in STAGE_OUTPUTS.items()
    for k in range(1, len(paths) + 1)])
def test_failed_rename_leaves_no_echo(commit_trees, tmp_path, capsys,
                                      monkeypatch, stage, k):
    # a full disk at the k-th rename over an earlier run with other
    # settings: renames before it stay done, so the stage's old echo,
    # which names the earlier settings, must be gone
    out = tmp_path / "o"
    shutil.copytree(commit_trees[1], out)
    replace, calls = os.replace, []

    def fail_kth(src, dst):
        calls.append(dst)
        if len(calls) == k:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), dst)
        replace(src, dst)

    monkeypatch.setattr(os, "replace", fail_kth)
    capsys.readouterr()
    assert main(stage.split() + ["--out", str(out)] + RERUN_ARGS) == 2
    assert len(calls) == k
    assert_one_line(capsys.readouterr().err, stage)
    name = stage.split()[0]
    assert not (out / f"{name}_config.json").exists()
    assert not (out / f".{name}.partial").exists()


def test_leftover_staging_directory_is_cleared(tmp_path):
    # a killed synth leaves .synth.partial behind; the next synth clears it
    out = tmp_path / "o"
    (out / ".synth.partial" / "sea_states").mkdir(parents=True)
    (out / ".synth.partial" / "sea_states" / "Q9.npy").write_bytes(b"old")
    assert main(["synth", "--out", str(out)] + COMMIT_ARGS) == 0
    assert tree(out) == sorted(os.path.normpath(name) for name in
                               STAGE_OUTPUTS["synth"] + ["sea_states"])


@pytest.fixture(scope="module")
def minmax_run(tmp_path_factory):
    """--out of all five stages, run with seed 3 and the minmax norm."""
    out = tmp_path_factory.mktemp("echo") / "o"
    run_pipeline(out, seed=3, extra=["--norm-mode", "minmax"])
    return out


@pytest.mark.parametrize("stage", STAGES)
def test_stage_echo_reruns_it(minmax_run, tmp_path, stage):
    # <stage>_config.json holds the settings the stage ran with, so fed
    # back as --config it writes the same bytes again
    out = tmp_path / "o"
    shutil.copytree(minmax_run, out)
    assert main([stage, "--out", str(out),
                 "--config", str(out / f"{stage}_config.json")]) == 0
    assert tree_bytes(out) == tree_bytes(minmax_run)


# (stage, a file of --out it reads, the stage that writes it, the --out
# the stage starts from): "earlier" holds every output of a full run but
# that file; "empty" is an empty directory and "absent" no directory at
# all, and there the file is the first the stage reads
STAGE_INPUTS = [
    pytest.param(stage, name, writer, start, id="-".join(
        [stage, name, writer] + [start] * (start != "earlier")))
    for stage, inputs in [
        ("optimize", [("features.csv", "analyze")]),
        ("rank", [("features.csv", "analyze"), ("reference.csv", "optimize")]),
        ("report", [("results.csv", "rank")])]
    for start in ("earlier", "empty", "absent")
    for name, writer in (inputs if start == "earlier" else inputs[:1])]


@pytest.mark.parametrize("stage, name, writer, start", STAGE_INPUTS)
def test_missing_input_names_its_stage(commit_trees, tmp_path, capsys,
                                       stage, name, writer, start):
    out = tmp_path / "o"
    if start == "earlier":
        shutil.copytree(commit_trees[1], out)
        (out / name).unlink()
    elif start == "empty":
        out.mkdir()
    before, names = tree_bytes(out), tree(tmp_path)
    capsys.readouterr()
    assert main([stage, "--out", str(out)] + COMMIT_ARGS) == 2
    assert capsys.readouterr().err == (
        f"{stage}: {out / name} missing; run the `{writer}` stage first\n")
    assert tree(tmp_path) == names
    assert tree_bytes(out) == before


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
    ("synth", "elevation"): ["pipeline", "spectral"],
    ("analyze", "elevation"): ["mechanics", "pipeline", "spectral"],
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


def assert_processes_write_the_tree(tmp_path, stderr, argv):
    """The five stages as processes into tmp_path/b, with `argv`, exit 0,
    print `stderr` and write the tree of in-process calls in tmp_path/a."""
    runs = [run_process([stage, "--out", "b"] + argv, tmp_path)
            for stage in STAGES]
    assert [run[:2] for run in runs] == [(0, "")] * len(STAGES)
    assert "".join(run[2] for run in runs) == stderr
    assert len(tree_bytes(tmp_path / "b")) > 100
    assert tree_bytes(tmp_path / "a") == tree_bytes(tmp_path / "b")


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
        assert_processes_write_the_tree(tmp_path, stderr, SMALL_RUN)

    def test_elevation_stages_write_the_tree_of_in_process_calls(
            self, tmp_path, capsys):
        # the records come from a BLAS product in each process
        argv = SMALL_RUN + ["--kind", "elevation", "--duration", "256"]
        for stage in STAGES:
            assert main([stage, "--out", str(tmp_path / "a")] + argv) == 0
        assert (tmp_path / "a" / "elevation" / "K1.npy").exists()
        assert_processes_write_the_tree(tmp_path, capsys.readouterr().err,
                                        argv)

    def test_line_breaks_in_paths_are_escaped(self, tmp_path):
        # a path may hold any character but NUL; each message is one line
        out, config = "o\nx", tmp_path / "c\nj"
        assert run_process(["optimize", "--out", out], tmp_path) == (
            2, "", "optimize: o\\nx/features.csv missing; run the "
            "`analyze` stage first\n")
        assert not (tmp_path / out).exists()
        config.write_text('{"rho": 1025, "rho": 1000}')
        (tmp_path / out).mkdir()
        (tmp_path / out / "kept").write_text("as it was")
        assert run_process(["synth", "--out", out, "--config", config.name],
                           tmp_path) == (
            2, "", "synth: c\\nj: repeated keys rho\n")
        assert tree_bytes(tmp_path / out) == {"kept": b"as it was"}
        argv = ["--out", out, "--points", "K4,Z1"] + SMALL_RUN
        assert run_process(["synth"] + argv, tmp_path)[0] == 0
        os.remove(tmp_path / out / "sea_states" / "Z1.npy")
        rc, stdout, stderr = run_process(["analyze"] + argv, tmp_path)
        assert (rc, stdout) == (1, "")
        assert stderr.startswith("analyze: point Z1 failed: no input data "
                                 "for point Z1 (looked for o\\nx/")
        assert stderr.count("\n") == 1
        # a failed point exits 1, and the rest are written
        assert len(read_lines(tmp_path / out / "features.csv")) == 2

    def test_refused_input_exits_2_with_one_line(self, tmp_path):
        assert run_process(["optimize", "--out", "o", "--bounds", "1,2"],
                           tmp_path) == (
            2, "", "optimize: bounds needs 6 comma-separated numbers\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv,line", [
        (["synth", "--agents", "x"], "argument --agents: invalid int value"),
        (["synth", "--depth", "3"], "unrecognized arguments: --depth 3"),
        ([], "the following arguments are required: stage"),
        (["bogus"], "argument stage: invalid choice: "),
    ], ids=["bad value", "unknown flag", "no stage", "unknown stage"])
    def test_usage_error_exits_2_with_one_line(self, tmp_path, argv, line):
        rc, stdout, stderr = run_process(argv + ["--out", "o"], tmp_path)
        assert (rc, stdout) == (2, "")
        assert stderr.startswith(f"wavepower: {line}"), stderr
        assert stderr.count("\n") == 1, stderr
        assert not (tmp_path / "o").exists()

    def test_help_exits_0_on_stdout(self, tmp_path):
        rc, stdout, stderr = run_process(["--help"], tmp_path)
        assert (rc, stderr) == (0, "")
        assert stdout.startswith("usage: wavepower [-h]")
        # each stage on its own line, with its docstring
        for stage, command in COMMANDS.items():
            assert f"  {stage:<10}{command.__doc__}\n" in stdout

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
