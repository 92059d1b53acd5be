"""fdtwrc benchmark: Monte Carlo throughput, solution quality and per-layer spans.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sumrate_all4 --seed 1 --seconds 42 --trace 0

A run builds nothing: it puts the checkout's ``src`` on the import path.
With ``--trace 0`` it interleaves set-up probes (package import plus a
warm-up trial in a fresh interpreter), serial chunks (``workers=1``) and
parallel chunks (``workers=nproc``) of ``run_experiment`` calls, and prints
the end-to-end metrics, quoted at a fixed host speed read from a reference
kernel that runs between the chunks.  With ``--trace 1`` it runs the same
chunks without probes, then the first serial chunks again with every public
fdtwrc function wrapped in spans, and prints the per-layer metrics.  Every run
checks its results (see ``gate``) and exits 1 with ``"correct": false``
when a check fails.  The last stdout line is one JSON object; a run record
and, for traced runs, the spans are written under ``perfbench/out``.
See perfbench/README.md for the workloads and metrics.
"""

import os

# One BLAS/OpenMP thread per process on a small box: the pool supplies the
# parallelism.  Set before numpy loads; probes and pool workers inherit it.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 5
MAX_EXTRA = 31  # extra chunks per phase: serial in blocks 1..31, parallel in 32..62
TRACE_SLACK = 1.3  # traced over untraced wall time of the same chunks, with a margin
REF_LOOPS = 2000
# reference kernel time at the host speed the time metrics are quoted at:
# about its median on a 2-vCPU Xeon host when the benchmark was defined
REF_NOMINAL_S = 0.1
PROBE_TIMEOUT_S = 120


@dataclass
class Batch:
    phase: str
    master_seed: int
    trials: int
    tasks: int
    cells: int
    wall_s: float
    table: object
    error: str | None


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=None,
                   help="workload seed (default: the paper's 20240)")
    p.add_argument("--seconds", type=float, required=True,
                   help="time of the whole measurement: probes, kernel, all chunks")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--held-out", action="store_true",
                   help="refuse a seed that shares any trial seed with the default seed")
    return p.parse_args(argv)


def die(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def run_batch(harness, workload, phase, master, trials, workers):
    spec = workload.spec(trials, master)
    t0 = time.perf_counter()
    try:
        table, error = harness.run_experiment(spec, workers=workers, keep_samples=True), None
    except Exception:
        table, error = None, traceback.format_exc()
    return Batch(phase, master, trials, workload.tasks(trials), workload.cells(trials),
                 time.perf_counter() - t0, table, error)


def throughput(batches):
    """Tasks per second over all chunks of a phase."""
    done = sum(b.tasks for b in batches if b.table is not None)
    return done / sum(b.wall_s for b in batches)


def sustained_rate(batches):
    """Tasks per second: the mean rate of the slower half of a phase's chunks.

    The host runs in bursts of a few seconds up to 1.6x faster than its
    steady speed.  The slower half of a run's chunks reads the steady speed,
    which repeats from run to run; an average over all of them depends on
    how many bursts the run happened to catch.
    """
    rates = sorted(b.tasks / b.wall_s for b in batches if b.table is not None)
    half = rates[: math.ceil(len(rates) / 2)]
    return sum(half) / len(half) if half else 0.0


def reference_kernel(numpy):
    """Seconds a fixed piece of work takes now: small complex linear algebra
    driven from Python, like the fdtwrc solvers, but none of their code, so
    a change to fdtwrc cannot change it."""
    rng = numpy.random.default_rng(0)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    t0 = time.perf_counter()
    acc = 0.0
    for _ in range(REF_LOOPS):
        s = numpy.linalg.svd(a, compute_uv=False)
        w = numpy.linalg.eigvalsh(a @ a.conj().T)
        x = numpy.linalg.solve(a, a[:, 0])
        acc += float(s[0] + w[-1] + abs(x[0]))
    elapsed = time.perf_counter() - t0
    if not math.isfinite(acc):
        die("reference kernel gave a non-finite result", code=1)
    return elapsed


def setup_probe(workload):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), workload.name],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        die(f"set-up probe failed:\n{proc.stderr}", code=1)
    return float(proc.stdout.strip().splitlines()[-1])


def measure(bw, numpy, harness, workload, seed, seconds, workers, probes, traced_chunks):
    """Serial (workers=1) and parallel (workers=nproc) chunks in turn.

    The machine's speed drifts over seconds, so the two phases and the
    set-up probes are interleaved to sample the same stretch of time, and
    the reference kernel runs before every pair and after the last, to read
    the host's speed over the run.  The core chunks always run; then pairs
    of fresh extra chunks run while the next pair, the probes still due and
    the traced rerun of the first ``traced_chunks`` serial chunks are
    expected to end within ``seconds`` of the start.
    """
    deadline = time.perf_counter() + seconds
    serial_core, parallel_core = workload.serial_core(seed), workload.parallel_core(seed)
    n_core = max(len(serial_core), len(parallel_core))
    serial, parallel, setup, ref = [], [], [], []
    for i in range(n_core + MAX_EXTRA):
        if i < n_core:
            s_call = serial_core[i] if i < len(serial_core) else None
            p_call = parallel_core[i] if i < len(parallel_core) else None
        else:
            extra = i - n_core
            if any(b.error for b in serial + parallel):
                break
            next_pair = (workload.tasks(workload.serial_chunk) / throughput(serial)
                         + workload.tasks(workload.parallel_chunk) / throughput(parallel)
                         + 2 * max(ref))
            probes_due = (probes - len(setup)) * max(setup, default=0.0)
            traced = TRACE_SLACK * sum(b.wall_s for b in serial[:traced_chunks])
            if time.perf_counter() + next_pair + probes_due + traced > deadline:
                break
            s_call = (bw.master_seed(seed, 1 + extra), workload.serial_chunk)
            p_call = (bw.master_seed(seed, 1 + MAX_EXTRA + extra), workload.parallel_chunk)
        ref.append(reference_kernel(numpy))
        if len(setup) < probes:
            setup.append(setup_probe(workload))
        if s_call:
            serial.append(run_batch(harness, workload, "serial", *s_call, 1))
        if p_call:
            parallel.append(run_batch(harness, workload, "parallel", *p_call, workers))
    while len(setup) < probes:
        setup.append(setup_probe(workload))
    ref.append(reference_kernel(numpy))
    return serial, parallel, setup, ref


def peak_rss_mb(workers):
    """Benchmark process peak plus ``workers`` times the largest child's peak
    (children are the pool workers and set-up probes)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers * child) / 1024.0


def git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30, check=False)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(numpy, workers):
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = None
    return {
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "workers": workers,
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "machine": platform.machine(),
    }


def source_info():
    lines = 0
    for path in sorted((SRC / "fdtwrc").glob("*.py")):
        with open(path, encoding="utf-8") as fh:
            lines += sum(1 for _ in fh)
    return {"git_commit": git_commit(), "src_fdtwrc_lines": lines}


def core_values(bw, batches):
    """Per-trial samples of the core (block 0) chunks, or None if one raised."""
    core = [b for b in batches if bw.block_of(b.master_seed) == 0]
    if any(b.table is None for b in core):
        return None
    return bw.cell_values(*(b.table for b in core))


def gate(bw, workload, batches, serial_core, parallel_core, traced_core):
    """Every check of the run; returns the failure messages."""
    errors = []
    for b in batches:
        if b.error:
            errors.append(f"{b.phase} batch with master seed {b.master_seed} raised:\n{b.error}")
        else:
            errors += [f"{b.phase}: {e}" for e in bw.check_table(workload, b.table)]
    start = workload.serial_start
    if serial_core is not None and parallel_core is not None:
        errors += bw.check_overlap(parallel_core, 0, serial_core, start, "serial vs parallel core")
    if traced_core is not None and serial_core is not None:
        errors += bw.check_overlap(serial_core, start, traced_core, start,
                                   "traced vs untraced serial core")
    return errors


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "fdtwrc" / "__init__.py").is_file():
        die(f"no fdtwrc sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import numpy
    import bench_workloads as bw
    from fdtwrc import harness
    from fdtwrc.model import SystemConfig

    if Path(harness.__file__).resolve().parent != (SRC / "fdtwrc").resolve():
        die(f"imported fdtwrc from {harness.__file__}, not from {SRC}")
    workload = bw.WORKLOADS.get(args.workload)
    if workload is None:
        die(f"unknown workload {args.workload!r}; choose from {sorted(bw.WORKLOADS)}")
    seed = bw.DEFAULT_SEED if args.seed is None else args.seed
    if not 0 <= seed < bw.MAX_SEED:
        die(f"--seed must lie in [0, {bw.MAX_SEED})")
    if args.seconds <= 0:
        die("--seconds must be positive")
    core_end = workload.serial_start + workload.serial_trials
    shared = bw.shared_trial_seeds(bw.master_seed(seed, 0), bw.master_seed(bw.DEFAULT_SEED, 0),
                                   core_end)
    if args.held_out and shared:
        die(f"seed {seed} is not held out: its core shares {shared} trial seeds "
            f"with the default seed {bw.DEFAULT_SEED}")

    workers = len(os.sched_getaffinity(0))
    traced_chunks = len(workload.traced_core(seed)) if args.trace == 1 else 0
    serial, parallel, setup, ref = measure(bw, numpy, harness, workload, seed, args.seconds,
                                           workers, SETUP_REPEATS if args.trace == 0 else 0,
                                           traced_chunks)
    serial_rate, parallel_rate = sustained_rate(serial), sustained_rate(parallel)
    # time metrics are quoted at the host speed where the kernel takes REF_NOMINAL_S
    host_slowdown = statistics.median(ref) / REF_NOMINAL_S

    traced, tracer = [], None
    if args.trace == 1:
        import bench_trace
        tracer = bench_trace.Tracer()
        with tracer.installed():
            traced = [run_batch(harness, workload, "traced", master, trials, 1)
                      for master, trials in workload.traced_core(seed)]

    batches = serial + parallel + traced
    serial_core, parallel_core = core_values(bw, serial), core_values(bw, parallel)
    errors = gate(bw, workload, batches, serial_core, parallel_core,
                  core_values(bw, traced) if traced else None)
    attempted = sum(b.cells for b in batches)
    failed = sum(b.cells if b.table is None else bw.count_failed(workload, b.table)
                 for b in batches)
    quality = {}
    if serial_core is not None and parallel_core is not None:
        quality = bw.scheme_mean_sum_bits(
            workload, bw.union_values(parallel_core, serial_core, workload.serial_start))
        if not all(math.isfinite(v) for v in quality.values()):
            errors.append(f"a scheme has no finite result in the cores: {quality}")
    gain = None
    if {"proposed", "hd"} <= quality.keys() and quality["hd"] > 0:
        gain = quality["proposed"] / quality["hd"]
    correct = not errors

    if args.trace == 0:
        metrics = {
            "trials_per_s": (parallel_rate * host_slowdown, "1/s"),
            "serial_trials_per_s": (serial_rate * host_slowdown, "1/s"),
            "setup_s": (statistics.median(setup) / host_slowdown, "s"),
            "peak_rss_mb": (peak_rss_mb(workers), "MB"),
        }
        if correct:
            metrics["lead_mean_sum_bits"] = (quality[workload.lead], "bits")
            metrics["ref_mean_sum_bits"] = (quality[workload.ref], "bits")
    else:
        # every workload runs the default SystemConfig
        metrics = bench_trace.layer_metrics(tracer.spans, sum(b.tasks for b in traced),
                                            len(workload.sweep), SystemConfig().iter_max)
        # the traced chunks repeat the first serial core chunks, run untraced earlier
        untraced = sum(b.wall_s for b in serial[: len(traced)])
        metrics["harness.pool_efficiency"] = (
            parallel_rate / (workers * serial_rate) if serial_rate else 0.0, "ratio")
        metrics["harness.tracing_overhead"] = (sum(b.wall_s for b in traced) / untraced, "ratio")

    OUT.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{seed}-trace{args.trace}"
    record = {
        "workload": workload.name,
        "seed": seed,
        "held_out": args.held_out,
        "seconds": args.seconds,
        "environment": environment(numpy, workers),
        "source": source_info(),
        "trial_seeds": {
            "layout": "seed s owns trial seeds [s << 20, (s + 1) << 20); block b starts at "
                      "(s << 20) | (b << 14); block 0 holds the cores, blocks 1.. the extras",
            "default_seed": bw.DEFAULT_SEED,
            "core_trials": {"parallel": [0, workload.parallel_trials],
                            "serial": [workload.serial_start, core_end]},
            "core_shared_with_default": shared,
        },
        "batches": [{"phase": b.phase, "master_seed": b.master_seed, "trials": b.trials,
                     "tasks": b.tasks, "cells": b.cells, "wall_s": b.wall_s,
                     "raised": b.error is not None} for b in batches],
        "setup_s_samples": setup,
        "reference_kernel_s_samples": ref,
        "host_slowdown": host_slowdown,
        "raw": {"trials_per_s": parallel_rate, "serial_trials_per_s": serial_rate,
                "setup_s": statistics.median(setup) if setup else None},
        "attempted_cells": attempted,
        "failed_cells": failed,
        "failed_share": failed / attempted,
        "mean_sum_bits": quality,
        "proposed_over_hd_gain": gain,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "correct": correct,
        "errors": errors,
    }
    if tracer is not None:
        spans_path = OUT / f"{workload.name}-seed{seed}-spans.jsonl.gz"
        tracer.write(spans_path)
        record["tracing"] = {
            "spans_file": str(spans_path.relative_to(ROOT)),
            "spans": len(tracer.spans),
            "span_counts": bench_trace.span_counts(tracer.spans),
            "bindings": tracer.bindings,
            "missing": tracer.missing,
        }
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    for name, (value, unit) in metrics.items():
        print(f"{workload.name} {name} {value:.6g} {unit}")
    for name, value in record["raw"].items():
        if args.trace == 0:
            print(f"{workload.name} raw_{name} {value:.6g} {metrics[name][1]}")
    print(f"{workload.name} host_slowdown {host_slowdown:.6g} ratio")
    print(f"{workload.name} failed_share {failed / attempted:.6g} share")
    for scheme, value in quality.items():
        print(f"{workload.name} {scheme}_mean_sum_bits {value:.6g} bits")
    if gain is not None:
        print(f"{workload.name} proposed_over_hd_gain {gain:.6g} ratio")
    for e in errors:
        print(f"perfbench: CHECK FAILED: {e}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
