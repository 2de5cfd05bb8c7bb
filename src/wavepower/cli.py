"""Command-line pipeline: synth -> analyze -> optimize -> rank -> report.

Each stage reads its inputs from --out, calls `wavepower.pipeline` and
writes its outputs through `wavepower.data_io`, staged: `_commit` moves
them into --out. Every stage runs as its own process, so each imports
only the wavepower modules it runs: beyond data_io, `report` needs
pipeline alone.
"""

import argparse
import atexit
import json
import math
import os
import shutil
import sys
from functools import partial
from os.path import dirname, exists, join

import numpy as np

from . import data_io
from .errors import ConfigError, WavePowerError

# name -> (default, type or tuple of choices, help); every stage takes
# every one as --name ("_" written "-"), and so may a JSON --config file.
DEFAULTS = {
    "rho": (1025.0, float, "water density, kg/m^3"),
    "gravity": (9.81, float, "gravitational acceleration, m/s^2"),
    "agents": (10, int, "GWO pack size"),
    "iters": (200, int, "GWO iterations"),
    "seed": (0, int, "random seed"),
    "bounds": (None, str, "H_min,H_max,T_min,T_max,d_min,d_max"),
    "norm_mode": ("raw", ("raw", "minmax"), "ranking norm"),
    "points": (None, str, "comma-separated point names"),
    "catalog": (None, str, "catalog CSV path; the built-in one if unset"),
    "depth_range": (None, str, "lo,hi depths spread across the catalog, m"),
    "hours": (8760, int, "hourly sea states per point"),
    "start": ("2006-01-01T00:00:00Z", str, "first sea-state timestamp"),
    "hs_base": (0.5, float, "base of the per-point mean Hs schedule, m"),
    "te_base": (4.0, float, "base of the per-point mean Te schedule, s"),
    "kind": ("sea-states", tuple(data_io.POINT_KINDS), "synth data"),
    "duration": (1024.0, float, "elevation record length, s"),
    "dt": (0.5, float, "elevation sample interval, s"),
    "segments": (8, int, "least spectrum segments per record; a record of "
                         "fewer than 16 x segments samples is cut into "
                         "16-sample segments, so into fewer"),
    "taper": ("raised-cosine", ("none", "raised-cosine"), "segment taper"),
}
# least integer values; the floats are physical, so positive and finite
INT_MIN = {"agents": 4, "iters": 1, "seed": 0, "hours": 1, "segments": 1}
# echoed into outputs; no paths, so reruns elsewhere stay byte-identical
ECHO_KEYS = [k for k in DEFAULTS if k != "catalog"]


def build_parser():
    stages = "".join(f"  {name:<10}{command.__doc__}\n"
                     for name, command in COMMANDS.items())
    # no abbreviations: --depth is not --depth-range
    p = argparse.ArgumentParser(
        prog="wavepower", allow_abbrev=False,
        formatter_class=argparse.RawDescriptionHelpFormatter,
        description=f"Wave-energy resource assessment\n\nstages:\n{stages}")

    def refuse(message):  # a usage error as one line, not the usage too
        _say(p.prog, message)
        sys.exit(2)

    p.error = refuse
    p.add_argument("command", choices=COMMANDS, metavar="stage",
                   help="the stage to run, one of those above")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--out", default="out", help="output directory")
    for key, (_, typ, text) in DEFAULTS.items():
        kind = "choices" if isinstance(typ, tuple) else "type"
        p.add_argument("--" + key.replace("_", "-"), dest=key, help=text,
                       **{kind: typ})
    return p


def _numbers(key, text, count):
    try:
        values = [float(v) for v in text.split(",")]
    except ValueError:
        values = []
    if len(values) != count or not all(map(math.isfinite, values)):
        raise ConfigError(f"{key} needs {count} comma-separated numbers")
    return values


def resolve_config(args):
    """Defaults, then the --config file, then flags, checked and parsed
    before a stage writes anything; cfg["echo"] keeps the raw values."""
    if not args.out:  # "" would stage into the working directory
        raise ConfigError("out must name a directory")
    raw = {key: spec[0] for key, spec in DEFAULTS.items()}

    def unique(pairs):  # json.load would keep a repeated key's last value
        keys = [k for k, _ in pairs]
        repeated = sorted({k for k in keys if keys.count(k) > 1})
        if repeated:
            raise ConfigError(f"{args.config}: repeated keys "
                              f"{', '.join(repeated)}")
        return dict(pairs)

    if args.config:
        try:
            with open(args.config, encoding="utf-8-sig") as fh:
                doc = json.load(fh, object_pairs_hook=unique)
        except UnicodeDecodeError:
            raise ConfigError(f"{args.config}: not UTF-8 text") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{args.config}: {exc}") from None
        if not isinstance(doc, dict):
            raise ConfigError(f"{args.config}: expected a JSON object")
        unknown = set(doc) - set(DEFAULTS)
        if unknown:
            raise ConfigError(
                f"unknown config keys: {', '.join(sorted(unknown))}")
        raw.update(doc)
    raw.update((k, getattr(args, k)) for k in DEFAULTS
               if getattr(args, k) is not None)
    for key, value in raw.items():
        default, typ, _ = DEFAULTS[key]
        if isinstance(typ, tuple):
            ok, want = value in typ, "one of " + ", ".join(typ)
        elif typ is float:
            # an int past the largest float would overflow as a float
            ok = (type(value) in (int, float)
                  and 0 < value <= sys.float_info.max)
            want = "a positive number"
        elif typ is int:
            ok = type(value) is int and value >= INT_MIN[key]
            want = f"an integer >= {INT_MIN[key]}"
        else:
            ok, want = isinstance(value, str), "a string"
        if not (ok or (value is None and default is None)):
            raise ConfigError(f"{key} must be {want}, got {value!r}")
    cfg = dict(raw, out=args.out, echo={k: raw[k] for k in ECHO_KEYS})
    if raw["bounds"] is not None:
        from . import gwo
        b = _numbers("bounds", raw["bounds"], 6)
        cfg["bounds"] = gwo.SearchBounds(lower=b[0::2], upper=b[1::2])
    if raw["depth_range"] is not None:
        cfg["depth_range"] = _numbers("depth_range", raw["depth_range"], 2)
        if min(cfg["depth_range"]) <= 0:
            raise ConfigError("depth_range must be positive")
    if raw["points"] is not None:
        names = [n.strip() for n in raw["points"].split(",")]
        cfg["points"] = [n for n in names if n]
        if not cfg["points"]:
            raise ConfigError("points must name at least one point")
        if len(set(cfg["points"])) < len(cfg["points"]):
            raise ConfigError("points must name each point once")
    (cfg["start"],) = data_io.parse_timestamps([raw["start"]])
    if np.isnat(cfg["start"]):
        raise ConfigError("start must be like 2006-01-01T00:00:00Z")
    return cfg


def _env(cfg):
    """The FluidEnvironment of the checked rho and gravity, for the stages
    that compute powers."""
    from . import mechanics
    return mechanics.FluidEnvironment(cfg["rho"], cfg["gravity"])


def _catalog(cfg, path=None):
    """The configured catalog with depths; `path` replaces the built-in."""
    from . import pipeline
    if cfg["catalog"] is not None:
        path = cfg["catalog"]
    catalog = (data_io.builtin_catalog() if path is None
               else data_io.load_catalog(path))
    return pipeline.apply_depths(catalog, cfg["depth_range"])


def _stage_input(cfg, stage, name, loader):
    """`loader` of `<out>/<name>`, which the stage named `stage` writes."""
    path = join(cfg["out"], name)
    if not exists(path):
        raise ConfigError(f"{path} missing; run the `{stage}` stage first")
    return loader(path)


# A stage reads cfg["out"], writes into `into` and returns its exit code
# and the stderr lines to print once _commit has moved its outputs.
def cmd_synth(cfg, into):
    """generate seeded synthetic input data"""
    from . import pipeline
    catalog = _catalog(cfg)
    points = catalog[pipeline.select_points(catalog["name"], cfg["points"])]
    if cfg["kind"] == "elevation":
        build = partial(pipeline.elevation_record, duration=cfg["duration"],
                        dt=cfg["dt"], seed=cfg["seed"])
    else:
        # in Python integers, before an axis of `hours` times exists
        last = int(cfg["start"].astype(np.int64)) + (cfg["hours"] - 1) * 3600
        if last > int(data_io.LAST_TIME.astype(np.int64)):
            raise ConfigError(f"start plus hours runs past "
                              f"{data_io.LAST_TIME}Z, the last writable time")
        build = partial(pipeline.sea_state_series, seed=cfg["seed"],
                        times=pipeline.timestamps(cfg["start"], cfg["hours"]))
    means = pipeline.schedule_means(catalog, cfg["hs_base"], cfg["te_base"])
    data_io.write_table(catalog, join(into, "catalog.csv"))
    for e in points:
        data_io.write_point(into, e["name"], build(e, means[e["name"]]))
    return 0, []


def cmd_analyze(cfg, into):
    """compute per-point powers and feature vectors"""
    from . import pipeline
    out, env = cfg["out"], _env(cfg)
    catalog_path = join(out, "catalog.csv")
    catalog = _catalog(cfg, catalog_path if exists(catalog_path) else None)
    entries = catalog[pipeline.select_points(catalog["name"], cfg["points"])]
    rows, failures = [], {}
    for entry in entries:
        try:
            rows.append(pipeline.point_features(entry, data_io.load_point(
                out, entry["name"], cfg["kind"]), env, cfg["segments"],
                cfg["taper"]))
        except (WavePowerError, OSError) as exc:
            failures[entry["name"]] = str(exc)
    features = np.array(rows, dtype=data_io.FEATURE_DTYPE)
    data_io.write_table(features, join(into, "features.csv"))
    notes = [f"point {name} failed: {exc}" for name, exc in failures.items()]
    return (1 if notes else 0), notes


def cmd_optimize(cfg, into):
    """find the power-maximizing (H, T, d) reference"""
    from . import pipeline
    bounds = cfg["bounds"] or pipeline.derived_bounds(_stage_input(
        cfg, "analyze", "features.csv", data_io.load_features))
    run = pipeline.optimize(bounds, _env(cfg), cfg["agents"], cfg["iters"],
                            cfg["seed"])
    for name, table in pipeline.optimize_tables(run, bounds).items():
        data_io.write_table(table, join(into, name))
    return 0, []


def cmd_rank(cfg, into):
    """score and rank points against the reference"""
    from . import pipeline
    features = _stage_input(cfg, "analyze", "features.csv",
                            data_io.load_features)
    ref = _stage_input(cfg, "optimize", "reference.csv",
                       data_io.load_reference)
    features = features[pipeline.select_points(features["point"],
                                               cfg["points"])]
    ranked = pipeline.assess(features, ref, cfg["norm_mode"])
    shares = pipeline.zone_totals(ranked)
    data_io.write_table(ranked, join(into, "results.csv"))
    data_io.write_table(shares, join(into, "zone_shares.csv"))
    raw = cfg["norm_mode"] == "raw"
    return 0, ["raw norm mixes units; the depth dimension dominates (use "
               "--norm-mode minmax to rescale)"] if raw else []


def cmd_report(cfg, into):
    """emit plot-ready tables"""
    from . import pipeline
    tables = pipeline.report_tables(
        _stage_input(cfg, "rank", "results.csv", data_io.load_results))
    os.makedirs(join(into, "report"))
    for name, table in tables.items():
        data_io.write_table(table, join(into, "report", name))
    return 0, []


# COMMANDS stays a dict of its own: bench/tracer.py swaps its entries to
# time each stage, and CI runs the tracer in `bench/run.py --self-test`.
COMMANDS = {"synth": cmd_synth, "analyze": cmd_analyze,
            "optimize": cmd_optimize, "rank": cmd_rank, "report": cmd_report}


def _commit(stage, cfg):
    """Run `stage` into the cleared `<out>/.<stage>.partial`, move each file
    it wrote, `<stage>_config.json` last, to its path under `<out>`, then
    print the stage's notes. A target that is a directory or lies under a
    file is refused before any parent is made or file moved. On any error
    the staging directory goes, and `<out>` too if this call made it. A set
    of renames is not atomic: if one fails, those before it stay done. So
    the old `<stage>_config.json` is removed before the first rename, and
    a tree without it may hold that stage's outputs only in part."""
    out, made = cfg["out"], not os.path.lexists(cfg["out"])
    tmp, echo = join(out, f".{stage}.partial"), f"{stage}_config.json"
    try:
        shutil.rmtree(tmp, ignore_errors=True)  # left by a killed run
        os.makedirs(tmp)
        code, notes = COMMANDS[stage](cfg, tmp)
        names = [os.path.relpath(join(d, f), tmp)
                 for d, _, files in os.walk(tmp) for f in files] + [echo]
        with open(join(tmp, echo), "w", encoding="utf-8", newline="\n") as fh:
            fh.write(json.dumps(cfg["echo"], indent=2, sort_keys=True) + "\n")
        for target in [join(out, name) for name in names]:
            if os.path.isdir(target) or os.path.isfile(dirname(target)):
                raise ConfigError(f"cannot write {target}: it is a "
                                  f"directory, or its parent is a file")
        for parent in {dirname(join(out, name)) for name in names}:
            os.makedirs(parent, exist_ok=True)
        if os.path.lexists(join(out, echo)):
            os.remove(join(out, echo))
        for name in names:
            os.replace(join(tmp, name), join(out, name))
    except BaseException:
        shutil.rmtree(out if made else tmp, ignore_errors=True)
        raise
    shutil.rmtree(tmp)
    for note in notes:
        _say(stage, note)
    return code


def _say(stage, message):
    """Print `<stage>: <message>` to stderr as one line: the message may
    hold a path, so data_io.escape writes it, as it writes field names."""
    print(f"{stage}: {data_io.escape(str(message))}", file=sys.stderr)


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return _commit(args.command, resolve_config(args))
    except (WavePowerError, OSError, MemoryError) as exc:
        # a bare MemoryError has no text
        _say(args.command, str(exc) or type(exc).__name__)
        return 2


def process_entry():
    """Run `main()` as the whole process: the console script and
    `python -m wavepower.cli` start here.

    After `main()` returns, the exit handlers run and stdout and stderr
    are flushed, then the process ends with `os._exit`, skipping the
    interpreter's teardown of every module and object numpy and wavepower
    made. Every stage has closed its files before `main()` returns. A
    `SystemExit` (argparse's `--help` and usage errors) or an uncaught
    exception leaves by the normal exit path.
    """
    code = main()
    atexit._run_exitfuncs()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    process_entry()
