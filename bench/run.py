"""Benchmark of the transverse-index command line, end to end and per layer.

    python3 bench/run.py --workload index --seed 1 --seconds 18 --trace 0

Run from the root of a checkout; stdlib only, one process, one thread.
Set-up runs ``setup_inputs.py`` as child processes (several times, timed
inside the child from before the package import) and writes the seeded
inputs under ``bench/.work``.  The measured process then calls
``transverse_index.cli.main(argv)`` in-process for each operation of the
workload, with stdout captured, pass after pass until ``--seconds`` of
passes have run.  Every output is checked (see ``checks.py``).

``--trace 0`` prints the end-to-end metrics: ``cal_wall_s`` (seconds per
pass, calibrated against ``calibrate.py``'s loop), ``setup_s`` (median
calibrated set-up) and ``peak_rss_mib``, and the raw ``wall_s``.  ``--trace 1``
alternates untraced and traced passes, checks that their outputs agree and
prints the per-layer metrics, including the tracing overhead.  The last
stdout line is one JSON object; a run record with the environment, every
sample and the spans goes to ``bench/results/``.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import importlib.util
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import calibrate
import checks
import layertrace
import workloads
from layertrace import by_function

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
ORACLES = ROOT / "tests" / "oracles.py"
WORK = HERE / ".work"
RESULTS = HERE / "results"
THREADS_ENV = "TRANSVERSE_INDEX_THREADS"
SETUP_REPS, SETUP_MIN_S, SETUP_MAX_REPS = 3, 1.5, 5


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


# -- set-up -----------------------------------------------------------------
def run_setup(workload: str, seed: int, out_dir: str, trace: bool) -> dict:
    cmd = [sys.executable, str(HERE / "setup_inputs.py"), "--workload", workload,
           "--seed", str(seed), "--out", out_dir]
    if trace:
        cmd.append("--trace")
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150, cwd=ROOT)
    if proc.returncode != 0:
        raise BenchError(f"set-up failed:\n{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def set_up(workload: str, seed: int, out_dir: str, trace: bool) -> list[dict]:
    """Untraced: repeat until SETUP_REPS reps and SETUP_MIN_S seconds.  Traced: once."""
    reps = [run_setup(workload, seed, out_dir, trace)]
    while not trace and len(reps) < SETUP_MAX_REPS and (
        len(reps) < SETUP_REPS or sum(r["setup_s"] for r in reps) < SETUP_MIN_S
    ):
        reps.append(run_setup(workload, seed, out_dir, trace))
    if len({r["digest"] for r in reps}) != 1:
        raise BenchError("set-up is not deterministic: the input digest changed between reps")
    return reps


# -- operations ---------------------------------------------------------------
def run_op(cli, argv):
    """One in-process CLI call: (seconds, exit code, stdout, error text or None)."""
    out, err = io.StringIO(), io.StringIO()
    crash = None
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash is a failed operation, not a failed benchmark
            code, crash = None, traceback.format_exc(limit=3)
    elapsed = time.perf_counter() - start
    return elapsed, code, out.getvalue(), crash


class Gate:
    """Counts attempted and failed operations.

    The first output of each operation gets the full check; every later
    output (more passes, traced passes) must equal it byte for byte.
    """

    def __init__(self, checker):
        self.checker = checker
        self.first: dict[str, tuple] = {}
        self.attempted = 0
        self.failures: list[dict] = []

    def record(self, op, code, stdout, crash) -> None:
        self.attempted += 1
        name = op["name"]
        if crash is not None:
            reason = f"crashed: {crash.strip().splitlines()[-1]}"
        elif name not in self.first:
            try:
                reason = self.checker.check_op(op, code, stdout)
            except (KeyError, TypeError, ValueError, AttributeError) as exc:
                reason = f"malformed output ({type(exc).__name__}: {exc})"
            self.first[name] = (code, stdout, reason)
        else:
            first_code, first_out, first_reason = self.first[name]
            same = (code, stdout) == (first_code, first_out)
            reason = first_reason if same else "output differs from the first pass"
        if reason is not None:
            self.failures.append({"op": name, "attempt": self.attempted, "reason": reason})


def run_pass(cli, ops, tracer=None):
    """Run every operation once; return the pass time and per-op results.

    The pass time is the sum of the operations' times.  The calibration loop
    runs before the first operation and after each one, and each result gets
    "cal_s": its time calibrated by the mean of the two loops around it.
    """
    gc.collect()
    results = []
    loop_before = calibrate.loop_s()
    for op in ops:
        if tracer is not None:
            tracer.begin_op(op["name"])
        elapsed, code, stdout, crash = run_op(cli, op["argv"])
        stats = tracer.end_op() if tracer is not None else None
        result = {"op": op, "s": elapsed, "code": code, "stdout": stdout,
                  "crash": crash, "stats": stats}
        loop_after = calibrate.loop_s()
        result["loop_s"] = (loop_before + loop_after) / 2
        result["cal_s"] = calibrate.calibrated(elapsed, result["loop_s"])
        loop_before = loop_after
        results.append(result)
    return sum(r["s"] for r in results), results


# -- metrics ------------------------------------------------------------------
def percentile_summary(samples: list[float]) -> dict:
    """Median, count, and the highest percentile with at least ten samples beyond it."""
    out = {"median": statistics.median(samples), "count": len(samples),
           "min": min(samples), "max": max(samples)}
    for q in (99, 95, 90, 75):
        if len(samples) * (100 - q) / 100 >= 10:
            out[f"p{q}"] = statistics.quantiles(samples, n=100, method="inclusive")[q - 1]
            break
    else:
        out["highest_percentile"] = "none below 20 samples" if len(samples) < 20 else "p50"
    return out


def _box_chars(op) -> int:
    spec = op["check"]
    return (2 * spec["bound"] + 1) ** spec["m"] - 1 if spec["kind"] == "sweep" else 0


def _eigensolutions(result) -> int:
    if result["op"]["check"]["kind"] != "spectrum" or result["code"] != 0:
        return 0
    return sum(json.loads(result["stdout"]).values())


def throughput(workload: str, results, wall_s: float) -> dict:
    """The workload's own work rate, at its stated input size."""
    if workload.startswith("verify"):
        work, name, unit = sum(_box_chars(r["op"]) for r in results), "box_chars_per_s", "1/s"
    elif workload == "index":
        work, name, unit = len(results), "queries_per_s", "1/s"
    else:
        work, name, unit = sum(_eigensolutions(r) for r in results), "eigensolutions_per_s", "1/s"
    return {name: {"value": work / wall_s, "unit": unit, "work_per_pass": work}}


def _ratio(num, den):
    return num / den if den else 0.0


SWEEP_FNS = ("sweeps.sweep_killing", "sweeps.sweep_de_rham_vanishing")
SUPPORT_FNS = ("sweeps.kernel_support", "sweeps.signature_support")
PREPARE_FNS = ("lattice.enumerate_kernel_solutions", "lattice.kernel_count",
               "lattice.restricted_count", "lattice.enumerate_nonneg_combinations",
               "lattice.scaled_slope")
SOLVE = ("lattice.solve_in_box",)
SPECTRUM = ("spectrum.total_spectrum",)
# Counts that the inputs or the mathematics fix: the gate already holds them,
# so they are printed and recorded but are not tracked as metrics (a tracked
# direction would read a correctness loss as a gain or a loss).
FIXED_COUNTS = ("sweeps.box_chars", "sweeps.nonzero", "spectrum.eigensolutions", "spectrum.rows")


def _metric_table(s, p, setup):
    """name -> (unit, wrap targets it needs, value) for one traced pass.

    s: the pass's aggregates, p: facts about the pass, setup: the traced
    set-up's aggregates.  A ratio whose base is 0 reads 0.
    """

    def sum_of(names, field, stats=s):
        return sum(getattr(by_function(stats, n), field) for n in names)

    def extra(names, key, stats=s):
        return sum(by_function(stats, n).extra.get(key, 0) for n in names)

    solve = by_function(s, SOLVE[0])
    candidates = extra(SWEEP_FNS, "checked")
    return {
        "cli.self_s": ("s", ("cli.main",), sum_of(("cli.main",), "self_s")),
        "cli.stdout_bytes": ("bytes", (), p["stdout_bytes"]),
        "serialize.load_setup_s": ("s", ("serialize.load_setup",), sum_of(("serialize.load_setup",), "total_s")),
        "serialize.setup_bytes": ("bytes", (), p["setup_bytes"]),
        "model.validate_setup_s": ("s", ("model.validate_setup",), sum_of(("model.validate_setup",), "total_s")),
        "model.normalize_setup_s": ("s", ("model.normalize_setup",), sum_of(("model.normalize_setup",), "total_s")),
        "model.normalize_setup_calls": ("count", ("model.normalize_setup",), sum_of(("model.normalize_setup",), "calls")),
        "engine.transverse_index_s": ("s", ("engine.transverse_index",), sum_of(("engine.transverse_index",), "total_s")),
        "engine.b_signature_sum_s": ("s", ("engine.b_signature_sum",), sum_of(("engine.b_signature_sum",), "total_s")),
        "lattice.prepare_s": ("s", PREPARE_FNS, sum_of(PREPARE_FNS, "self_s")),
        "lattice.scaled_slope_calls": ("count", ("lattice.scaled_slope",), sum_of(("lattice.scaled_slope",), "calls")),
        "lattice.enumerate_s": ("s", SOLVE, solve.total_s),
        "lattice.solve_calls": ("count", SOLVE, solve.calls),
        "lattice.solutions": ("count", SOLVE, solve.yielded),
        "lattice.solve_hit_ratio": ("ratio", SOLVE, _ratio(solve.hits, solve.calls)),
        "sweeps.support_s": ("s", SUPPORT_FNS, sum_of(SUPPORT_FNS, "total_s")),
        "sweeps.support_chars": ("count", SUPPORT_FNS, extra(SUPPORT_FNS, "chars")),
        "sweeps.candidates": ("count", SWEEP_FNS, candidates),
        "sweeps.box_chars": ("count", (), p["box_chars"]),
        "sweeps.candidate_ratio": ("ratio", SWEEP_FNS, _ratio(candidates, p["box_chars"])),
        "sweeps.self_s": ("s", SWEEP_FNS, sum_of(SWEEP_FNS, "self_s")),
        "sweeps.nonzero": ("count", SWEEP_FNS, extra(SWEEP_FNS, "nonzero")),
        "spectrum.total_spectrum_s": ("s", SPECTRUM, sum_of(SPECTRUM, "total_s")),
        "spectrum.self_s": ("s", SPECTRUM, sum_of(SPECTRUM, "self_s")),
        "spectrum.m_solutions": ("count", SOLVE, by_function(s, SOLVE[0], site="spectrum").yielded),
        "spectrum.eigensolutions": ("count", SPECTRUM, extra(SPECTRUM, "eigensolutions")),
        "spectrum.rows": ("count", SPECTRUM, extra(SPECTRUM, "rows")),
        "generators.gen_cpn_s": ("s", ("generators.gen_cpn",), sum_of(("generators.gen_cpn",), "total_s", setup)),
        "serialize.save_setup_s": ("s", ("serialize.save_setup",), sum_of(("serialize.save_setup",), "total_s", setup)),
        "generators.lines_built": ("count", ("generators.gen_cpn",), extra(("generators.gen_cpn",), "lines", setup)),
    }


def layer_metrics(pass_results, setup_stats, missing):
    """Per-layer values of one traced pass; metrics needing a missing target are left out."""
    stats = layertrace.merge(r["stats"] for r in pass_results)
    facts = {
        "stdout_bytes": sum(len(r["stdout"].encode()) for r in pass_results),
        "setup_bytes": sum(os.path.getsize(r["op"]["argv"][1]) for r in pass_results),
        "box_chars": sum(_box_chars(r["op"]) for r in pass_results),
    }
    values, units, absent = {}, {}, []
    for name, (unit, needs, value) in _metric_table(stats, facts, setup_stats).items():
        units[name] = unit
        if any(target in missing for target in needs):
            absent.append(name)
        else:
            values[name] = value
    return values, units, absent


# -- environment ---------------------------------------------------------------
def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int, threads_env: str | None) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_count": os.cpu_count(),
        "git_commit": git_commit(),
        "seed": seed,
        THREADS_ENV: "unset" if threads_env is None else f"was {threads_env!r}, removed for the run",
    }


def load_package():
    if not (SRC / "transverse_index" / "cli.py").is_file():
        raise BenchError(f"no package source at {SRC / 'transverse_index'}")
    if not ORACLES.is_file():
        raise BenchError(f"no brute-force oracles at {ORACLES}")
    sys.path.insert(0, str(SRC))
    import transverse_index
    import transverse_index.cli as cli

    spec = importlib.util.spec_from_file_location("oracles", ORACLES)
    oracles = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracles)
    return transverse_index, cli, oracles


# -- main -------------------------------------------------------------------------
def measure(args, ops, cli, gate, setup_reps):
    """Untraced, calibrated passes for --seconds; the end-to-end metrics."""
    walls, cal_walls, loops, last = [], [], [], None
    per_op, cal_per_op = {op["name"]: [] for op in ops}, {op["name"]: [] for op in ops}
    while not walls or sum(walls) < args.seconds:
        wall, results = run_pass(cli, ops)
        walls.append(wall)
        cal_walls.append(sum(r["cal_s"] for r in results))
        for r in results:
            per_op[r["op"]["name"]].append(r["s"])
            cal_per_op[r["op"]["name"]].append(r["cal_s"])
            loops.append(r["loop_s"])
            gate.record(r["op"], r["code"], r["stdout"], r["crash"])
        last = results
    wall_s = statistics.median(walls)
    # a slow stretch of the host that the loop does not fully cancel hits a
    # few passes; the per-operation medians drop it op by op
    cal_wall_s = sum(statistics.median(v) for v in cal_per_op.values())
    setup_s = [r["setup_s"] for r in setup_reps]
    cal_setup_s = [calibrate.calibrated(r["setup_s"], r["loop_s"]) for r in setup_reps]
    metrics = {
        "cal_wall_s": {"value": cal_wall_s, "unit": "s"},
        "setup_s": {"value": statistics.median(cal_setup_s), "unit": "s"},
        "peak_rss_mib": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MiB"},
    }
    record = {
        "cal_wall_s": percentile_summary(cal_walls), "cal_wall_s_samples": cal_walls,
        "wall_s": percentile_summary(walls), "wall_s_samples": walls,
        "loop_s": percentile_summary(loops), "loop_nominal_s": calibrate.NOMINAL_S,
        "setup_s": percentile_summary(cal_setup_s), "setup_s_samples": cal_setup_s,
        "raw_setup_s_samples": setup_s,
        "per_op_s": {name: percentile_summary(v) for name, v in per_op.items()},
        "cal_per_op_s": {name: percentile_summary(v) for name, v in cal_per_op.items()},
        "cal_per_op_s_samples": cal_per_op,
        "throughput": throughput(args.workload, last, wall_s),
    }
    return metrics, record


def measure_traced(args, ops, cli, gate, setup_reps):
    """Alternate untraced and traced passes; the per-layer metrics and the overhead."""
    setup_stats = {(fn, site): _stat_from(d) for fn, site, d in setup_reps[0]["stats"]}
    untraced, traced, samples, spans, missing = [], [], [], [], list(setup_reps[0]["missing"])
    measured = 0.0
    while not traced or measured < args.seconds:
        wall, results = run_pass(cli, ops)
        untraced.append(wall)
        for r in results:
            gate.record(r["op"], r["code"], r["stdout"], r["crash"])
        tracer = layertrace.Tracer()
        tracer.install()
        try:
            twall, tresults = run_pass(cli, ops, tracer)
        finally:
            tracer.uninstall()
        traced.append(twall)
        for r in tresults:
            gate.record(r["op"], r["code"], r["stdout"], r["crash"])
        missing = sorted(set(missing) | set(tracer.missing))
        samples.append(layer_metrics(tresults, setup_stats, missing))
        spans.append(tracer.spans)
        measured += wall + twall
    units = samples[0][1]
    absent = sorted(set().union(*(a for _, _, a in samples)))
    metrics = {
        name: {"value": statistics.median(v[name] for v, _, _ in samples), "unit": units[name]}
        for name in units
        if name not in absent
    }
    overhead = statistics.median(traced) - statistics.median(untraced)
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    fixed_counts = {name: metrics.pop(name) for name in FIXED_COUNTS if name in metrics}
    record = {
        "fixed_counts": fixed_counts,
        "untraced_wall_s": percentile_summary(untraced), "untraced_wall_s_samples": untraced,
        "traced_wall_s": percentile_summary(traced), "traced_wall_s_samples": traced,
        "missing_targets": missing, "missing_metrics": absent,
        "spans_last_traced_pass": spans[-1],
    }
    return metrics, record


def _stat_from(d: dict) -> layertrace.Stat:
    stat = layertrace.Stat()
    for field in ("calls", "total_s", "self_s", "yielded", "hits"):
        setattr(stat, field, d.pop(field))
    stat.extra = d
    return stat


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    threads_env = os.environ.pop(THREADS_ENV, None)
    tix, cli, oracles = load_package()
    WORK.mkdir(parents=True, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        setup_reps = set_up(args.workload, args.seed, work_dir, bool(args.trace))
        with open(os.path.join(work_dir, "manifest.json"), encoding="utf-8") as fh:
            ops = json.load(fh)["ops"]
        gate = Gate(checks.Checker(tix, oracles, args.seed))
        measure_fn = measure_traced if args.trace else measure
        metrics, record = measure_fn(args, ops, cli, gate, setup_reps)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    failed = len(gate.failures)
    record.update({
        "workload": args.workload, "trace": args.trace, "seconds": args.seconds,
        "environment": environment(args.seed, threads_env),
        "input_digest": setup_reps[0]["digest"],
        "attempted": gate.attempted, "failed": failed,
        "failed_ops": failed / gate.attempted, "failures": gate.failures,
        "metrics": metrics,
    })
    RESULTS.mkdir(parents=True, exist_ok=True)
    record_path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    for name, m in metrics.items():
        print(f"{name:28s} {m['value']:.6g} {m['unit']}")
    for name, m in {**record.get("throughput", {}), **record.get("fixed_counts", {})}.items():
        print(f"{name:28s} {m['value']:.6g} {m['unit']}")
    for name in ("cal_wall_s", "wall_s", "loop_s"):
        if name not in record:
            continue
        summary = record[name]
        tail = next((f"{k} {v:.6g} s" for k, v in summary.items() if k[0] == "p" and k[1:].isdigit()),
                    f"highest percentile {summary.get('highest_percentile')}")
        print(f"{name + ' summary':28s} median {summary['median']:.6g} s, count {summary['count']}, "
              f"min {summary['min']:.6g} s, max {summary['max']:.6g} s, {tail}")
    print(f"{'failed_ops':28s} {failed / gate.attempted:.6g} share ({failed} of {gate.attempted})")
    for failure in gate.failures[:10]:
        print(f"FAILED {failure['op']}: {failure['reason']}")
    print(f"record: {record_path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": gate.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        sys.exit(2)
