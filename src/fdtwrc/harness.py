"""Monte Carlo experiment runner and result emission.

Each trial draws one channel realization from a per-trial seed (master seed
XOR trial index) and evaluates every requested scheme on that same
realization, so scheme comparisons are paired and adding a scheme never
changes the channel stream.  A task is a run of consecutive trials of one
configuration (``_task_sizes``): its realizations are drawn in one pass
(``sample_realizations``, each with the bits of its seed alone), proposed
and ub solve all of them and their zero-loopback copies in one lockstep
together, hd in one lockstep of its own, and the closed-form fd2 and
localcsi schemes in one stacked computation each.
Tasks run in a process pool.  A trial's answer does not depend on the
other trials of its task, and aggregation is order-independent, so
results do not depend on the worker count.

Because of the XOR, master seeds that differ only in bits below the trial
count draw the same set of realizations, in a different order: 20240 and
20241 share all of their first 1000 trial seeds.  Such runs are not
independent samples.
"""

import csv
import io
import json
import logging
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import astuple, dataclass, field, replace

import numpy as np

from . import __version__
from .baselines import (
    SchemeId,
    _upper_bound_points,
    fd_oneway_regions,
    fd_oneway_sum_rates,
    hd_anc_regions,
    hd_anc_solves,
    local_csi_solves,
)
from .model import SystemConfig, db_to_linear, sample_realizations, zero_loopback
from .rate_region import rate_regions

# max_sum_rate is not called here; it stays bound because the perfbench
# tracer test requires it to wrap this binding
from .sum_rate import max_sum_rate, max_sum_rates  # noqa: F401

__all__ = ["ExperimentSpec", "ResultRow", "ResultTable", "run_experiment", "emit"]

log = logging.getLogger("fdtwrc.harness")

# sum-rate kind -> the configuration one sweep value gives (dB for the
# powers and the residual SI, a count for the antennas)
SWEEPS = {
    "sumrate_vs_source_snr": lambda base, v: replace(
        base, **dict.fromkeys(("p_a_max", "p_b_max"), db_to_linear(v))),
    "sumrate_vs_relay_snr": lambda base, v: replace(base, p_r_max=db_to_linear(v)),
    "sumrate_vs_si": lambda base, v: replace(
        base, **dict.fromkeys(("sigma2_a", "sigma2_b", "sigma2_r"), db_to_linear(v))),
    "sumrate_vs_antennas": lambda base, v: replace(
        base, **dict.fromkeys(("m_t", "m_r"), int(round(v)))),
}
# a region run sweeps boundary fractions at the base configuration
REGION_KINDS = {"rate_region"}


def _rates(pt):
    return pt.rate_a, pt.rate_b


def _region_pairs(entries):
    return [(math.nan, math.nan) if pt is None else _rates(pt) for _, pt in entries]


# scheme -> (sum-rate fn, region fn or None), each over a task's trials.  A
# sum-rate fn maps (realizations, config, trial seeds, solved) to one rate
# pair (R_A, R_B) per trial; a region fn maps (realizations, config,
# n_points, solved) to one list per trial of a rate pair per boundary
# point.  ``solved`` is the task's shared lockstep of proposed and ub
# (``_run_task``): the trials' points or regions, then their zero-loopback
# copies'.  hd calls its lockstep once per task, over all of its trials,
# and fd2 and localcsi one stacked computation.  The lambdas look the
# solvers up in this module when called, so rebinding a module attribute
# (as a tracer does) reaches them.
SCHEMES = {
    SchemeId.PROPOSED_FD: (
        lambda chs, cfg, tseeds, solved: [_rates(pt) for pt in solved[:len(chs)]],
        lambda chs, cfg, n, solved: [_region_pairs(e) for e in solved[:len(chs)]]),
    SchemeId.HD_ANC: (
        lambda chs, cfg, tseeds, solved: [_rates(pt) for pt in hd_anc_solves(chs, cfg)],
        lambda chs, cfg, n, solved: [_region_pairs(e) for e in hd_anc_regions(chs, n, cfg)]),
    SchemeId.FD_ONEWAY: (
        lambda chs, cfg, tseeds, solved: fd_oneway_sum_rates(chs, cfg),
        lambda chs, cfg, n, solved: fd_oneway_regions(chs, n, cfg)),
    SchemeId.FD_UPPER_BOUND: (
        lambda chs, cfg, tseeds, solved: [_rates(pt) for pt in _upper_bound_points(chs, solved)],
        lambda chs, cfg, n, solved: [_region_pairs(e) for e in solved[-len(chs):]]),
    SchemeId.LOCAL_CSI: (
        lambda chs, cfg, tseeds, solved: [
            rates for _, _, rates in local_csi_solves(chs, cfg, tseeds)],
        None),
}

# a task holds at most this many trials (see _task_sizes)
TASK_TRIALS = 16

# one column per ResultRow field, in field order
CSV_COLUMNS = ("sweep_value", "scheme", "mean_RA", "se_RA", "mean_RB", "se_RB",
               "mean_sum", "se_sum", "gain_vs_hd")


@dataclass(frozen=True)
class ExperimentSpec:
    kind: str
    schemes: tuple
    sweep: tuple
    trials: int
    seed: int
    base: SystemConfig = field(default_factory=SystemConfig)

    def __post_init__(self):
        if self.kind not in SWEEPS and self.kind not in REGION_KINDS:
            raise ValueError(f"unknown experiment kind {self.kind!r}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must lie in [0, 2**64), got {self.seed}")
        if self.kind in REGION_KINDS:
            # run_experiment solves n equally spaced boundary points and
            # labels them with the sweep, so the sweep must be those points
            n = len(self.sweep)
            if n < 2:
                raise ValueError(f"a rate region needs at least 2 points, got {n}")
            if not np.allclose(np.asarray(self.sweep, dtype=float), np.linspace(0.0, 1.0, n),
                               rtol=0.0, atol=1e-12):
                raise ValueError(f"a rate region sweeps {n} equally spaced fractions from "
                                 f"0 to 1, got {self.sweep}")
        if not self.sweep:
            raise ValueError("sweep must be nonempty")
        if not self.schemes:
            raise ValueError("at least one scheme is required")
        for i, scheme in enumerate(self.schemes):
            if scheme not in SCHEMES:
                raise ValueError(f"unknown scheme {scheme!r}")
            if scheme in self.schemes[:i]:
                raise ValueError(f"scheme {scheme.value} is listed twice")
            if self.kind in REGION_KINDS and SCHEMES[scheme][1] is None:
                raise ValueError(f"{scheme.value} has no region objective")


@dataclass
class ResultRow:
    sweep_value: float
    scheme: str
    mean_ra: float
    se_ra: float
    mean_rb: float
    se_rb: float
    mean_sum: float
    se_sum: float
    gain_vs_hd: float


@dataclass
class ResultTable:
    rows: list
    metadata: dict
    samples: dict | None = None  # (sweep value, scheme) -> per-trial float array


def trial_seed(seed, t):
    return int(np.uint64(seed) ^ np.uint64(t))


def _task_sizes(trials, workers):
    """The trial counts of one configuration's tasks, in order: near-equal
    (differing by at most one), at least ``workers`` tasks (so every worker
    gets one) and at most ``TASK_TRIALS`` trials each (past that a
    lockstep search's cost per realization falls little, and smaller tasks
    balance the pool), but no empty task."""
    n = min(trials, max(workers, -(-trials // TASK_TRIALS)))
    return [trials // n + (i < trials % n) for i in range(n)]


def _run_task(payload):
    """One task, consecutive trials of one configuration: per trial,
    scheme -> its rate pair (sum-rate kinds) or one rate pair per boundary
    point (region kinds); and the task's seconds, "setup" (sampling) and
    per scheme name.

    proposed and ub share one lockstep, ``max_sum_rates`` or
    ``rate_regions``, of the trials' realizations (proposed's, and in a
    sum-rate run those of ub's fallback) followed by their zero-loopback
    copies (ub's).  Its seconds are proposed's, or ub's when proposed is
    not run; ub's fallback (``_upper_bound_points``) is ub's own."""
    kind, config, schemes, tseeds, n_points = payload
    t0 = time.perf_counter()
    chs = sample_realizations(config, tseeds)
    seconds = {"setup": time.perf_counter() - t0}
    region, solved = kind in REGION_KINDS, None
    shared = [s for s in (SchemeId.PROPOSED_FD, SchemeId.FD_UPPER_BOUND) if s in schemes]
    if shared:
        t0 = time.perf_counter()
        batch = (chs if SchemeId.PROPOSED_FD in schemes or not region else []) + (
            [zero_loopback(ch) for ch in chs] if SchemeId.FD_UPPER_BOUND in schemes else [])
        solved = rate_regions(batch, n_points, config) if region else max_sum_rates(batch, config)
        seconds[shared[0].value] = time.perf_counter() - t0
    by_scheme = {}
    for s in schemes:
        t0 = time.perf_counter()
        by_scheme[s] = (SCHEMES[s][1](chs, config, n_points, solved) if region
                        else SCHEMES[s][0](chs, config, tseeds, solved))
        seconds[s.value] = seconds.get(s.value, 0.0) + time.perf_counter() - t0
    return [{s: by_scheme[s][t] for s in schemes} for t in range(len(chs))], seconds


def _mean_se(values):
    arr = np.asarray(values, dtype=float)
    arr = arr[np.isfinite(arr)]
    if arr.size == 0:
        return math.nan, math.nan
    mean = float(arr.mean())
    se = float(arr.std(ddof=1) / math.sqrt(arr.size)) if arr.size > 1 else 0.0
    return mean, se


def run_experiment(spec, workers=None, keep_samples=False):
    """Run every (sweep value, trial, scheme) cell and aggregate.

    Rows and samples are deterministic in ``spec``: the i-th trial of every
    sweep value uses the seed ``spec.seed ^ i``.  ``workers=1`` forces
    serial execution.  The metadata also records the numpy version, the
    worker count, the cpu count, the run's wall time (``runtime_s``), the
    number of harness tasks (``tasks``) and the largest task's trial count
    (``trials_per_task``; ``_task_sizes``), the seconds spent on sampling
    and per scheme, summed over tasks (``time_s``; ``_run_task``) and, per
    scheme and sweep value, the trials whose rate pair is not finite
    (``nonfinite``): the means and standard errors leave them out.
    """
    t_start = time.perf_counter()
    if workers is None:
        workers = min(os.cpu_count() or 1, 16)
    region = spec.kind in REGION_KINDS
    n_points = len(spec.sweep) if region else None
    configs = [spec.base] if region else [SWEEPS[spec.kind](spec.base, v) for v in spec.sweep]
    sizes = _task_sizes(spec.trials, workers)
    payloads = []
    for config in configs:
        start = 0
        for size in sizes:
            payloads.append((spec.kind, config, tuple(spec.schemes),
                             [trial_seed(spec.seed, t) for t in range(start, start + size)],
                             n_points))
            start += size
    log.info("running %d tasks (%s, %d trials, %d workers)",
             len(payloads), spec.kind, spec.trials, workers)
    if workers <= 1 or len(payloads) <= 1:
        tasks = [_run_task(p) for p in payloads]
    else:
        chunk = max(1, len(payloads) // (workers * 8))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            tasks = list(pool.map(_run_task, payloads, chunksize=chunk))
    results = [trial for trials, _ in tasks for trial in trials]
    time_s = {name: sum(seconds.get(name, 0.0) for _, seconds in tasks)
              for name in ("setup", *(s.value for s in spec.schemes))}

    # (sweep value, its trials' results, boundary point index): a region
    # run has one trial set and a point per sweep fraction, a sum-rate run
    # one trial set per sweep value and a single pair per trial
    if region:
        cells = [(f, results, j) for j, f in enumerate(spec.sweep)]
    else:
        t = spec.trials
        cells = [(v, results[i * t:(i + 1) * t], None) for i, v in enumerate(spec.sweep)]
    rows = []
    samples = {} if keep_samples else None
    # scheme -> per sweep value, the trials whose rate pair _mean_se drops
    nonfinite = {s.value: [] for s in spec.schemes}
    for value, trials, j in cells:
        pairs = {s: [res[s] if j is None else res[s][j] for res in trials]
                 for s in spec.schemes}
        for scheme, p in pairs.items():
            nonfinite[scheme.value].append(
                sum(not (math.isfinite(a) and math.isfinite(b)) for a, b in p))
        sums = {s: [a + b for a, b in p] for s, p in pairs.items()}
        hd_mean = _mean_se(sums[SchemeId.HD_ANC])[0] if SchemeId.HD_ANC in sums else math.nan
        for scheme in spec.schemes:
            ras = [p[0] for p in pairs[scheme]]
            rbs = [p[1] for p in pairs[scheme]]
            m_ra, se_ra = _mean_se(ras)
            m_rb, se_rb = _mean_se(rbs)
            m_s, se_s = _mean_se(sums[scheme])
            gain = m_s / hd_mean if hd_mean and not math.isnan(hd_mean) else math.nan
            rows.append(ResultRow(value, scheme.value, m_ra, se_ra,
                                  m_rb, se_rb, m_s, se_s, gain))
            if keep_samples:  # float arrays: compact when a caller keeps many tables
                samples[(value, scheme.value)] = np.array(
                    list(zip(ras, rbs)) if region else sums[scheme])

    metadata = {
        "kind": spec.kind,
        "schemes": [s.value for s in spec.schemes],
        "sweep": list(spec.sweep),
        "trials": spec.trials,
        "seed": spec.seed,
        "base_config": {k: getattr(spec.base, k) for k in (
            "m_t", "m_r", "p_a_max", "p_b_max", "p_r_max", "sigma2_a", "sigma2_b",
            "sigma2_r", "gain_br", "alpha_grid", "iter_max", "conv_tol", "grid_points")},
        "version": __version__,
        "gain_definition": "ratio of mean sum rates (scheme mean / hd mean)",
        "numpy_version": np.__version__,
        "workers": workers,
        "cpu_count": os.cpu_count(),
        "runtime_s": time.perf_counter() - t_start,
        "tasks": len(payloads),
        "trials_per_task": sizes[0],
        "time_s": time_s,
        "nonfinite": nonfinite,
    }
    lost = {scheme: counts for scheme, counts in nonfinite.items() if any(counts)}
    if lost:
        log.warning("non-finite rate pairs left out of the means, per sweep value: %s", lost)
    return ResultTable(rows=rows, metadata=metadata, samples=samples)


def _fmt(x):
    return f"{x:.6g}"


def table_to_csv(table):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in table.rows:
        writer.writerow([v if isinstance(v, str) else _fmt(v) for v in astuple(r)])
    return buf.getvalue()


def table_to_json(table):
    rows = [dict(zip(CSV_COLUMNS, astuple(r))) for r in table.rows]
    return json.dumps({"metadata": table.metadata, "rows": rows}, indent=2)


def emit(table, fmt, path):
    """Write a result table as CSV or JSON; errors carry the path context."""
    if not table.rows:
        raise ValueError("refusing to emit an empty result table")
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown format {fmt!r}")
    text = table_to_csv(table) if fmt == "csv" else table_to_json(table)
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write result table to {path}: {exc}") from exc
