"""Benchmark of the wavepower pipeline and optimizer.

Run from the repository root (the package is used from `src` without
installing it):

    python3 bench/run.py --workload sea_states_year --seed 7 --seconds 58 --trace 0
    python3 bench/run.py --all                 # every workload in turn
    python3 bench/run.py --self-test           # tiny runs and corrupted outputs

One run repeats its workload at least twice, and for about --seconds.
Each repetition runs the five CLI stages as separate
`python -m wavepower.cli` processes; after synth, optimize and report
it runs a slot of in-process library use:
`gwo_maximize` over the paper's power box and a dense batched
`regular_wave_power` map over it. Every output is checked; a stage
that exits non-zero or an output that fails a check counts as a failed
operation. README.md in this directory gives the reasons.

With --trace 1 the repetitions alternate untraced and traced; in a
traced one every public function of the library modules is wrapped
from outside (see tracer.py) and the per-layer metrics come from its
spans and counters. The tracing overhead is the ratio of the two.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics (the end-to-end metrics of
BENCHMARK.json with --trace 0, the per-layer ones with --trace 1). The
lines before it give each timing's value (the mean of its samples),
median, 90th percentile and sample count, and a record of the machine
and run with every sample. All a run writes goes under `.bench_work/`
in the repository root and is removed when the run ends.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field, replace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
NPROC = len(os.sched_getaffinity(0))

# One thread per numeric library, here and in every child; set before
# numpy is imported. The load is one process at a time, within nproc.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
os.environ.update({v: "1" for v in THREAD_VARS})

if not os.path.isfile(os.path.join(SRC, "wavepower", "cli.py")):
    sys.exit(f"run.py: no wavepower sources under {SRC}")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

import checks  # noqa: E402
import tracer  # noqa: E402
from wavepower import gwo, mechanics  # noqa: E402
from wavepower.errors import SolverError  # noqa: E402

CHILD_ENV = dict(os.environ, PYTHONPATH=SRC)
TRACED_STAGE = os.path.join(HERE, "traced_stage.py")
ENV = mechanics.FluidEnvironment()     # CLI defaults: rho 1025, g 9.81
STAGES = ("synth", "analyze", "optimize", "rank", "report")
N_POINTS = 105               # built-in southern-Caspian catalog
AGENTS, ITERS = 10, 200      # CLI defaults, also used in-process
# the paper's power box over (H, T, d)
PAPER_BOUNDS = gwo.SearchBounds(lower=[0.1, 2.0, 5.0], upper=[0.6, 6.0, 100.0])
MIN_REPS = 2                 # two repetitions make the digest check
GWO_PER_SLOT = 1             # in-process gwo_maximize runs per slot
RUN_LIMIT_S = 160.0          # a run ends well inside three minutes

# The reference task: a fresh interpreter that imports numpy, then a
# text round trip, a sort and an interpreter loop, the kinds of work
# the stages do. It uses nothing of wavepower, so no change to the
# package moves its time, only the machine's speed does. Timings are
# reported in reference seconds: measured seconds scaled by
# REFERENCE_S over the reference task's mean CPU time in the same run.
REFERENCE_TASK = """
import numpy as np
x = np.random.default_rng(0).random(30_000)
y = np.array([float(v) for v in ",".join(map(repr, x.tolist())).split(",")])
np.sort(y)
sum(i * i % 7 for i in range(30_000))
"""
REFERENCE_S = 0.25           # its CPU time on the machine it was built on

# metric names and units, as BENCHMARK.json declares them
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    _SPEC = json.load(_fh)
END_TO_END = tuple((m["name"], m["unit"]) for m in _SPEC["end_to_end"])
PER_LAYER = tuple((m["name"], m["unit"]) for m in _SPEC["per_layer"])


@dataclass(frozen=True)
class Workload:
    name: str
    flags: tuple         # CLI flags every stage gets after --out and --seed
    kind: str            # what synth writes: "sea-states" or "elevation"
    grid_n: int = 1000   # grid maps are grid_n x grid_n over (T, d)


# Why each workload is here: see README.md in this directory.
WORKLOADS = {wl.name: wl for wl in (
    Workload("sea_states_year",
             ("--hours", "8760", "--depth-range", "5,100"), "sea-states"),
    Workload("elevation_records",
             ("--hours", "8760", "--depth-range", "5,100",
              "--kind", "elevation", "--dt", "0.5", "--duration", "4096"),
             "elevation"),
)}

# The same workloads at a size the self-test runs in seconds. Elevation
# records stay 4096 s long: the Hs/Te tolerances need that length.
TINY = {
    "sea_states_year": replace(
        WORKLOADS["sea_states_year"],
        flags=("--hours", "48", "--depth-range", "5,100"), grid_n=200),
    "elevation_records": replace(WORKLOADS["elevation_records"], grid_n=200),
}


@dataclass
class Run:
    """Samples and operation outcomes gathered over one benchmark run."""

    samples: dict = field(default_factory=lambda: defaultdict(list))
    layers: list = field(default_factory=list)   # per traced repetition
    attempted: int = 0
    failures: list = field(default_factory=list)
    hits: int = 0
    gwo_runs: int = 0
    digest: str = ""
    newton_iters: int = 0
    bounds_facts: dict = field(default_factory=dict)

    def settle(self, ops):
        """Count one repetition's operations: {op: [problems]}."""
        self.attempted += len(ops)
        self.failures.extend(f"{op}: {'; '.join(p)}"
                             for op, p in ops.items() if p)


def _children_cpu():
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def timed_child(argv, deadline):
    """Run one child to completion: (wall s, CPU s, problems)."""
    cpu0, t0 = _children_cpu(), time.perf_counter()
    try:
        proc = subprocess.run(argv, env=CHILD_ENV, cwd=ROOT,
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True,
                              timeout=max(deadline - t0, 1.0))
    except subprocess.TimeoutExpired:
        return time.perf_counter() - t0, 0.0, ["timed out"]
    wall, cpu = time.perf_counter() - t0, _children_cpu() - cpu0
    if proc.returncode != 0:
        return wall, cpu, [f"exit {proc.returncode}: "
                           f"{proc.stderr.strip()[-300:]}"]
    return wall, cpu, []


def setup_probe(run, ops, key, deadline):
    """Fresh interpreter plus `import wavepower.cli`, as each stage pays."""
    _, cpu, ops[key] = timed_child(
        [sys.executable, "-c", "import wavepower.cli"], deadline)
    run.samples["setup_s"].append(cpu)


def reference_probe(run, ops, key, deadline):
    """The reference task, whose CPU time gauges the machine's speed."""
    _, cpu, ops[key] = timed_child([sys.executable, "-c", REFERENCE_TASK],
                                   deadline)
    run.samples["reference_s"].append(cpu)


def stage_process(wl, stage, seed, rep_dir, deadline, traces):
    """One CLI stage as its own process: (wall s, CPU s, problems)."""
    argv = [stage, "--out", os.path.join(rep_dir, "out"), "--seed",
            str(seed), *wl.flags]
    if traces is None:
        return timed_child([sys.executable, "-m", "wavepower.cli", *argv],
                           deadline)
    trace_path = os.path.join(rep_dir, f"{stage}.trace.json")
    result = timed_child([sys.executable, TRACED_STAGE, trace_path, *argv],
                         deadline)
    if os.path.exists(trace_path):
        traces.append(tracer.load(trace_path))
    return result


def objective(x):
    return mechanics.regular_wave_power(x[0], x[1], x[2], ENV)


def run_gwo(bounds, seed):
    return gwo.gwo_maximize(objective, bounds, gwo.GwoConfig(
        agents=AGENTS, max_iter=ITERS, seed=seed))


def power_grid(bounds, n):
    """Batched regular_wave_power over an n x n (T, d) grid at H = H_max;
    (grid, CPU s, scalar value at grid index i, j)."""
    t_axis = np.linspace(bounds.lower[1], bounds.upper[1], n)
    d_axis = np.linspace(bounds.lower[2], bounds.upper[2], n)
    tt, dd = np.meshgrid(t_axis, d_axis, indexing="ij")
    t0 = time.process_time()
    grid = mechanics.regular_wave_power(bounds.upper[0], tt, dd, ENV)
    cpu = time.process_time() - t0
    return grid, cpu, lambda i, j: mechanics.regular_wave_power(
        bounds.upper[0], t_axis[i], d_axis[j], ENV)


def library_slot(wl, seeds, slot, run, ops, bests):
    """In-process library use: GWO runs over the paper's power box, then
    the grid map over it; returns the grid's optimum."""
    for s in seeds:
        t0 = time.process_time()
        result = run_gwo(PAPER_BOUNDS, s)
        run.samples["gwo_s"].append(time.process_time() - t0)
        ops[f"gwo[{s}]"] = checks.check_gwo_run(result, AGENTS, ITERS)
        bests.append(result.best_value)
    grid, cpu, scalar_at = power_grid(PAPER_BOUNDS, wl.grid_n)
    run.samples["grid_s"].append(cpu)
    ops[f"grid[{slot}]"] = checks.check_grid(grid, scalar_at)
    return float(grid.max())


def bounds_facts(wl, seed, out, run):
    """Grid optimum over bounds.csv and the run's-seed GWO run on it.

    Computed once per distinct bounds.csv in a run (the stages are
    deterministic, so every repetition normally shares one) and not
    timed."""
    key = checks.sha256(os.path.join(out, "bounds.csv"))
    if key not in run.bounds_facts:
        lower, upper = checks.read_bounds(out)
        bounds = gwo.SearchBounds(lower=lower, upper=upper)
        run.bounds_facts[key] = (
            float(power_grid(bounds, wl.grid_n)[0].max()),
            run_gwo(bounds, seed))
    return run.bounds_facts[key]


def check_outputs(wl, seed, out, run, ops, bests, grid_max):
    """Checks on one repetition's outputs, charged to the operation at
    fault."""
    ops["grid[0]"] += checks.check_hits(bests, grid_max)
    run.hits += sum(b >= (1.0 - checks.HIT_REL_TOL) * grid_max
                    for b in bests)
    run.gwo_runs += len(bests)

    bounds_max, mine = bounds_facts(wl, seed, out, run)
    for op, msg in checks.check_pipeline(out, wl.kind, N_POINTS,
                                         bounds_max):
        ops[op].append(msg)
    # the optimize stage ran this GWO with the run's seed
    position, power = checks.read_reference(out)
    if not (np.array_equal(position, mine.best_position)
            and power == mine.best_value):
        ops["optimize"].append(
            f"reference.csv {position.tolist()} {power!r} differs from "
            f"gwo_maximize seed {seed}: {mine.best_position.tolist()} "
            f"{mine.best_value!r}")
    digest = checks.sha256(os.path.join(out, "results.csv"))
    run.digest = run.digest or digest
    if digest != run.digest:
        ops["rank"].append("results.csv digest differs between "
                           "repetitions of one seed")


def repetition(wl, seed, rep_dir, run, deadline, traced=False,
               corrupt=None):
    """One pass of the workload; returns its wall time, setup excluded.

    Each stage process is followed by a slice of the in-process library
    work, so that the timing samples of both spread over the whole run
    and not over one stretch of it: the machine's speed drifts by tens
    of percent over seconds.
    """
    ops, bests = {}, []
    traces = [] if traced else None
    tr = tracer.Tracer() if traced else None
    stage_wall = slot_wall = 0.0
    for i, stage in enumerate(STAGES):
        slot = i % 2 == 0       # after synth, optimize and report
        reference_probe(run, ops, f"reference[{i}]", deadline)
        if slot:
            setup_probe(run, ops, f"setup[{i}]", deadline)
        wall, cpu, ops[stage] = stage_process(wl, stage, seed, rep_dir,
                                              deadline, traces)
        stage_wall += wall
        if ops[stage]:
            break
        run.samples[f"{stage}_s"].append(cpu)
        if not slot:
            continue
        first = seed + len(bests)
        t0 = time.perf_counter()
        if tr is not None:
            tr.install()
        try:
            grid_max = library_slot(wl, range(first, first + GWO_PER_SLOT),
                                    i, run, ops, bests)
        finally:
            if tr is not None:
                tr.uninstall()
        slot_wall += time.perf_counter() - t0
    else:
        out = os.path.join(rep_dir, "out")
        run.samples["pipeline_s"].append(stage_wall)
        run.samples["out_bytes"].append(checks.tree_bytes(out))
        if corrupt is not None:
            corrupt(out)
        check_outputs(wl, seed, out, run, ops, bests, grid_max)
        if traced:
            traces.append((tr.spans, tr.counts))
            run.layers.append(layer_metrics(*tracer.merge(traces)))
    run.settle(ops)
    return stage_wall + slot_wall


def layer_metrics(summary, counts):
    """Per-layer metrics of one traced repetition."""
    def incl(names):
        return sum(summary[n][1] for n in names if n in summary)

    def self_time(layer):
        return sum(row[2] for n, row in summary.items()
                   if n.split(".", 1)[0] == layer)

    def per(x, n, scale):
        return x / n * scale if n else 0.0

    def row(name):
        return summary.get(name, [0, 0.0, 0.0])

    write_s = incl(f"data_io.{n}" for n in tracer.WRITERS)
    load_s = incl(f"data_io.{n}" for n in tracer.LOADERS)
    calls = counts["mechanics.regular_wave_power.calls"]
    evals = counts["gwo.evaluations"]
    m = {f"cli.{s}.self_s": row(f"cli.{s}")[2] for s in STAGES}
    m.update({
        "data_io.write.s": write_s,
        "data_io.load.s": load_s,
        "data_io.write_us_per_row": per(
            write_s, counts["data_io.rows_written"], 1e6),
        "data_io.read_us_per_row": per(
            load_s, counts["data_io.rows_read"], 1e6),
        "data_io.rows_written": counts["data_io.rows_written"],
        "data_io.rows_read": counts["data_io.rows_read"],
        "data_io.bytes_written": counts["data_io.bytes_written"],
        "spectral.s": self_time("spectral"),
        "spectral.samples": counts["spectral.samples"],
        "mechanics.s": self_time("mechanics"),
        "mechanics.regular_wave_power.calls": calls,
        "mechanics.regular_wave_power.us_per_call": per(
            row("mechanics.regular_wave_power")[1], calls, 1e6),
        "mechanics.grid.ns_per_point": per(
            row("mechanics.regular_wave_power.batch")[1],
            counts["mechanics.grid_points"], 1e9),
        "gwo.gwo_maximize.s": row("gwo.gwo_maximize")[1],
        "gwo.evaluations": evals,
        "gwo.self_us_per_eval": per(self_time("gwo"), evals, 1e6),
        "assessment.s": self_time("assessment"),
        "assessment.calls": sum(r[0] for n, r in summary.items()
                                if n.startswith("assessment.")),
    })
    return m


def newton_iters_max():
    """Smallest `max_iter` at which the dispersion solve converges on a
    fixed wide (T, d) grid: T in [1, 20] s, d in [0.01, 5000] m."""
    t, d = np.meshgrid(np.linspace(1.0, 20.0, 200),
                       np.geomspace(0.01, 5000.0, 200))
    for m in range(1, mechanics.DISPERSION_MAX_ITER + 1):
        try:
            mechanics.wavenumber(t, d, max_iter=m)
            return m
        except SolverError:
            continue
    return 0


def run_workload(wl, seed, seconds, trace, corrupt=None):
    """Set up, repeat the workload for `seconds`, clean up; a Run."""
    run = Run()
    t_start = time.perf_counter()
    deadline = t_start + RUN_LIMIT_S
    work = os.path.join(WORK, f"{wl.name}-{os.getpid()}")
    if trace:
        run.newton_iters = newton_iters_max()
    try:
        rep, rep_s = 0, 0.0
        # start another repetition if at least half of it should fall
        # within `seconds`, so that a run lasts about `seconds` on average
        while rep < MIN_REPS or (time.perf_counter() - t_start + rep_s / 2
                                 <= seconds):
            if time.perf_counter() + rep_s > deadline:
                run.settle({"run": [f"out of time before repetition "
                                    f"{rep + 1}"]})
                break
            rep_dir = os.path.join(work, f"rep{rep}")
            os.makedirs(rep_dir)
            traced = trace and rep % 2 == 1
            t0 = time.perf_counter()
            op_s = repetition(wl, seed, rep_dir, run, deadline, traced,
                              corrupt)
            rep_s = time.perf_counter() - t0
            run.samples["op_traced_s" if traced else "op_s"].append(op_s)
            shutil.rmtree(rep_dir)
            rep += 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if os.path.isdir(WORK) and not os.listdir(WORK):
            os.rmdir(WORK)
    return run


def peak_rss_mb():
    """Largest peak RSS of any child; the stage processes dominate the
    set-up probes. Linux reports ru_maxrss in KiB."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def end_to_end(run):
    s = run.samples
    # The mean, not the median: the samples of one run often fall in two
    # modes about 1.6 times apart, as the machine's speed switches every
    # few seconds. Their median jumps from one mode to the other between
    # runs as the mixture shifts; the mean moves with it by degrees.
    # The speed also drifts by tens of percent over minutes, for the
    # reference task as for the stages, so timings are scaled by it.
    scale = REFERENCE_S / statistics.fmean(s["reference_s"])
    m = {name: statistics.fmean(s[name]) * (scale if unit == "s" else 1.0)
         for name, unit in END_TO_END if s.get(name)}
    if s.get("out_bytes"):
        m["out_bytes"] = statistics.median_low(s["out_bytes"])
    m["peak_rss_mb"] = peak_rss_mb()
    if run.gwo_runs:
        m["gwo_hit_rate"] = run.hits / run.gwo_runs
    return m


def per_layer(run):
    m = {}
    if run.layers:
        m = {name: statistics.median(r[name] for r in run.layers)
             for name in run.layers[0]}
    m["mechanics.newton_iters_max"] = run.newton_iters
    s = run.samples
    if s.get("op_s") and s.get("op_traced_s"):
        m["trace.overhead_pct"] = 100.0 * (
            statistics.median(s["op_traced_s"])
            / statistics.median(s["op_s"]) - 1.0)
    return m


def p90(xs):
    xs = sorted(xs)
    return xs[min(len(xs) - 1, int(0.9 * len(xs)))]


def machine():
    return {"nproc": NPROC, "python": platform.python_version(),
            "numpy": np.__version__, "loadavg": list(os.getloadavg()),
            "threads": {v: os.environ[v] for v in THREAD_VARS}}


def benchmark(args):
    wl = WORKLOADS[args.workload]
    start = machine()
    run = run_workload(wl, args.seed, args.seconds, args.trace)
    wanted = PER_LAYER if args.trace else END_TO_END
    metrics = per_layer(run) if args.trace else end_to_end(run)

    # every stage's timing, also of those that are no metric of their
    # own; a metric's value first, then its samples as measured
    shown = [(f"{s}_s", "s") for s in (*STAGES, "reference")
             if not args.trace]
    shown += [m for m in wanted if m not in shown]
    for name, unit in shown:
        xs = run.samples.get(name)
        parts = [f"{metrics[name]:.6g}"] if name in metrics else []
        if xs:
            parts += [f"measured: mean {statistics.fmean(xs):.6g}",
                      f"median {statistics.median(xs):.6g}",
                      f"p90 {p90(xs):.6g}", f"n={len(xs)}"]
        print(f"{name:>40} [{unit}]  " + "  ".join(parts))
    fail_rate = len(run.failures) / max(run.attempted, 1)
    print(f"{'fail_rate':>40} {fail_rate:.6g} "
          f"({len(run.failures)} of {run.attempted} operations)")
    for msg in run.failures:
        print(f"FAILED {msg}")
    record = {"workload": wl.name, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "repetitions": len(run.samples["op_s"])
              + len(run.samples["op_traced_s"]),
              "start": start, "end": machine(),
              "samples": dict(run.samples)}
    print("record " + json.dumps(record, sort_keys=True))

    missing = [n for n, _ in wanted if n not in metrics]
    correct = not run.failures and not missing
    if missing:
        print(f"no value for: {', '.join(missing)}")
    print(json.dumps({
        "correct": correct, "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {n: {"value": metrics[n], "unit": u}
                    for n, u in wanted if n in metrics}}))
    return 0


def run_all(args):
    """Every workload in its own process, so peak RSS stays per workload."""
    ok = True
    for name in WORKLOADS:
        print(f"== {name}", flush=True)
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        print(proc.stdout, end="")
        lines = proc.stdout.strip().splitlines()
        ok = ok and proc.returncode == 0 and bool(lines) and json.loads(
            lines[-1])["correct"]
    return 0 if ok else 1


def _edit_csv(path, row, col, edit):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    cells = lines[row].split(",")
    cells[col] = edit(cells[col])
    lines[row] = ",".join(cells)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


# (description, workload, op expected to fail, corruption of --out)
CORRUPTIONS = (
    ("results.csv with a rank edited", "sea_states_year", "rank",
     lambda out: _edit_csv(os.path.join(out, "results.csv"), -1, -1,
                           lambda v: "1")),
    ("features.csv with one mean height perturbed", "sea_states_year",
     "analyze",
     lambda out: _edit_csv(os.path.join(out, "features.csv"), 1, 2,
                           lambda v: repr(float(v) * 1.001))),
    ("zone_shares.csv with a share edited", "sea_states_year", "rank",
     lambda out: _edit_csv(os.path.join(out, "zone_shares.csv"), 1, 2,
                           lambda v: repr(float(v) + 0.01))),
    ("reference.csv with the power lowered", "sea_states_year", "optimize",
     lambda out: _edit_csv(os.path.join(out, "reference.csv"), 1, 3,
                           lambda v: repr(float(v) * 0.99))),
    ("elevation features.csv with a mean period off by 10 %",
     "elevation_records", "analyze",
     lambda out: _edit_csv(os.path.join(out, "features.csv"), 1, 3,
                           lambda v: repr(float(v) * 1.1))),
)


def self_test(args):
    """Tiny runs pass their checks; corrupted outputs count as failed."""
    results = []
    for name, wl in TINY.items():
        run = run_workload(wl, args.seed, 0, trace=False)
        results.append((f"tiny {name} passes its checks",
                        run.attempted > 0 and not run.failures))
    run = run_workload(TINY["sea_states_year"], args.seed, 0, trace=True)
    results.append(("tiny traced run gives every per-layer metric",
                     not run.failures and all(
                         n in per_layer(run) for n, _ in PER_LAYER)))
    for what, name, op, corrupt in CORRUPTIONS:
        run = run_workload(TINY[name], args.seed, 0, trace=False,
                           corrupt=corrupt)
        caught = any(f.startswith(f"{op}:") for f in run.failures)
        results.append((f"{what} is caught as a failed {op}", caught))
    for what, ok in results:
        print(f"[{'PASS' if ok else 'FAIL'}] {what}")
    return 0 if all(ok for _, ok in results) else 1


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", choices=sorted(WORKLOADS))
    mode.add_argument("--all", action="store_true",
                      help="run every workload, one after another")
    mode.add_argument("--self-test", action="store_true",
                      help="tiny runs plus corrupted-output checks")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--seconds", type=float, default=_SPEC["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # on SIGTERM, unwind: subprocess.run kills and reaps the running
    # child, and the work directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if args.self_test:
        return self_test(args)
    if args.all:
        return run_all(args)
    return benchmark(args)


if __name__ == "__main__":
    sys.exit(main())
