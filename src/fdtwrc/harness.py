"""Monte Carlo experiment runner and result emission.

Each trial draws one channel realization from a per-trial seed (master seed
XOR trial index) and evaluates every requested scheme on that same
realization, so scheme comparisons are paired and adding a scheme never
changes the channel stream.  Trials run in a process pool; aggregation is
order-independent, so results do not depend on the worker count.

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
from dataclasses import dataclass, field, replace

import numpy as np

from . import __version__
from .baselines import (
    SchemeId,
    fd_oneway_region,
    fd_oneway_sum_rate,
    hd_anc_region,
    hd_anc_solve,
    local_csi_sum_rate,
    scheme_cli_name,
    upper_bound_region,
    upper_bound_solve,
)
from .model import SystemConfig, db_to_linear, sample_channels
from .rate_region import rate_region
from .sum_rate import max_sum_rate

__all__ = ["ExperimentSpec", "ResultRow", "ResultTable", "run_experiment", "emit", "read_table"]

log = logging.getLogger("fdtwrc.harness")

SUM_RATE_KINDS = {
    "sumrate_vs_source_snr",
    "sumrate_vs_relay_snr",
    "sumrate_vs_si",
    "sumrate_vs_antennas",
    "asymmetric_sumrate",
    "local_csi_sweep",
}
REGION_KINDS = {"rate_region", "asymmetric_region"}


def _rates(pt):
    return pt.rate_a, pt.rate_b


def _region_pairs(entries):
    return [(math.nan, math.nan) if pt is None else _rates(pt) for _, pt in entries]


# scheme -> (sum-rate fn, region fn or None).  A sum-rate fn maps (channels,
# config, trial seed, the trial's proposed point) to its rate pair (R_A,
# R_B); a region fn maps (channels, config, n_points) to one rate pair per
# boundary point.  The lambdas look the solvers up in this module when
# called, so rebinding a module attribute (as a tracer does) reaches them.
SCHEMES = {
    SchemeId.PROPOSED_FD: (
        lambda ch, cfg, tseed, proposed: _rates(proposed),
        lambda ch, cfg, n: _region_pairs(rate_region(ch, n, cfg))),
    SchemeId.HD_ANC: (
        lambda ch, cfg, tseed, proposed: _rates(hd_anc_solve(ch, "sum_rate", cfg)),
        lambda ch, cfg, n: _region_pairs(hd_anc_region(ch, n, cfg))),
    SchemeId.FD_ONEWAY: (
        lambda ch, cfg, tseed, proposed: fd_oneway_sum_rate(ch, cfg),
        lambda ch, cfg, n: fd_oneway_region(ch, n, cfg)),
    SchemeId.FD_UPPER_BOUND: (
        lambda ch, cfg, tseed, proposed: _rates(
            upper_bound_solve(ch, "sum_rate", cfg, proposed=proposed)),
        lambda ch, cfg, n: _region_pairs(upper_bound_region(ch, n, cfg))),
    SchemeId.LOCAL_CSI: (
        lambda ch, cfg, tseed, proposed: _rates(local_csi_sum_rate(ch, cfg, seed=tseed)),
        None),
}

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
        if self.kind not in SUM_RATE_KINDS | REGION_KINDS:
            raise ValueError(f"unknown experiment kind {self.kind!r}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not self.sweep:
            raise ValueError("sweep must be nonempty")
        if not self.schemes:
            raise ValueError("at least one scheme is required")
        for scheme in self.schemes:
            if scheme not in SCHEMES:
                raise ValueError(f"unknown scheme {scheme!r}")
            if self.kind in REGION_KINDS and SCHEMES[scheme][1] is None:
                raise ValueError(f"{scheme_cli_name(scheme)} has no region objective")


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
    samples: dict | None = None


def trial_seed(seed, t):
    return int(np.uint64(seed) ^ np.uint64(t))


def config_for(kind, base, value):
    """Map a sweep value onto the configuration field it drives."""
    if kind in ("sumrate_vs_source_snr", "asymmetric_sumrate", "local_csi_sweep"):
        p = db_to_linear(value)
        return replace(base, p_a_max=p, p_b_max=p)
    if kind == "sumrate_vs_relay_snr":
        return replace(base, p_r_max=db_to_linear(value))
    if kind == "sumrate_vs_si":
        s = db_to_linear(value)
        return replace(base, sigma2_a=s, sigma2_b=s, sigma2_r=s)
    if kind == "sumrate_vs_antennas":
        m = int(round(value))
        if m < 2:
            raise ValueError("antenna sweep requires m >= 2")
        return replace(base, m_t=m, m_r=m)
    if kind in REGION_KINDS:
        return base
    raise ValueError(f"unknown experiment kind {kind!r}")


def _run_task(payload):
    """One trial: scheme -> its rate pair (sum-rate kinds) or one rate pair
    per boundary point (region kinds)."""
    kind, config, schemes, tseed, n_points = payload
    channels = sample_channels(config, tseed)
    if kind in REGION_KINDS:
        return {s: SCHEMES[s][1](channels, config, n_points) for s in schemes}
    # ub reuses the trial's proposed point
    need_proposed = SchemeId.PROPOSED_FD in schemes or SchemeId.FD_UPPER_BOUND in schemes
    proposed = max_sum_rate(channels, config) if need_proposed else None
    return {s: SCHEMES[s][0](channels, config, tseed, proposed) for s in schemes}


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
    worker count, the cpu count and the run's wall time (``runtime_s``).
    """
    t_start = time.perf_counter()
    if workers is None:
        workers = min(os.cpu_count() or 1, 16)
    region = spec.kind in REGION_KINDS
    n_points = len(spec.sweep) if region else None
    payloads = []
    for value in spec.sweep if not region else [0.0]:
        config = config_for(spec.kind, spec.base, value)
        for t in range(spec.trials):
            payloads.append((spec.kind, config, tuple(spec.schemes),
                             trial_seed(spec.seed, t), n_points))
    log.info("running %d tasks (%s, %d trials, %d workers)",
             len(payloads), spec.kind, spec.trials, workers)
    if workers <= 1 or len(payloads) <= 1:
        results = [_run_task(p) for p in payloads]
    else:
        chunk = max(1, len(payloads) // (workers * 8))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_task, payloads, chunksize=chunk))

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
    for value, trials, j in cells:
        pairs = {s: [res[s] if j is None else res[s][j] for res in trials]
                 for s in spec.schemes}
        sums = {s: [a + b for a, b in p] for s, p in pairs.items()}
        hd_mean = _mean_se(sums[SchemeId.HD_ANC])[0] if SchemeId.HD_ANC in sums else math.nan
        for scheme in spec.schemes:
            ras = [p[0] for p in pairs[scheme]]
            rbs = [p[1] for p in pairs[scheme]]
            m_ra, se_ra = _mean_se(ras)
            m_rb, se_rb = _mean_se(rbs)
            m_s, se_s = _mean_se(sums[scheme])
            gain = m_s / hd_mean if hd_mean and not math.isnan(hd_mean) else math.nan
            rows.append(ResultRow(value, scheme_cli_name(scheme), m_ra, se_ra,
                                  m_rb, se_rb, m_s, se_s, gain))
            if keep_samples:
                samples[(value, scheme_cli_name(scheme))] = (
                    list(zip(ras, rbs)) if region else sums[scheme])

    metadata = {
        "kind": spec.kind,
        "schemes": [scheme_cli_name(s) for s in spec.schemes],
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
    }
    return ResultTable(rows=rows, metadata=metadata, samples=samples)


def _fmt(x):
    return f"{x:.6g}"


def table_to_csv(table):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in table.rows:
        writer.writerow([_fmt(r.sweep_value), r.scheme, _fmt(r.mean_ra), _fmt(r.se_ra),
                         _fmt(r.mean_rb), _fmt(r.se_rb), _fmt(r.mean_sum),
                         _fmt(r.se_sum), _fmt(r.gain_vs_hd)])
    return buf.getvalue()


def table_to_json(table):
    doc = {
        "metadata": table.metadata,
        "rows": [
            {
                "sweep_value": r.sweep_value, "scheme": r.scheme,
                "mean_RA": r.mean_ra, "se_RA": r.se_ra,
                "mean_RB": r.mean_rb, "se_RB": r.se_rb,
                "mean_sum": r.mean_sum, "se_sum": r.se_sum,
                "gain_vs_hd": r.gain_vs_hd,
            }
            for r in table.rows
        ],
    }
    return json.dumps(doc, indent=2)


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


def read_table(path, fmt):
    """Parse an emitted table back into rows of floats (round-trip support)."""
    with open(path, encoding="utf-8") as fh:
        if fmt == "json":
            doc = json.load(fh)
            rows = [ResultRow(r["sweep_value"], r["scheme"], r["mean_RA"], r["se_RA"],
                              r["mean_RB"], r["se_RB"], r["mean_sum"], r["se_sum"],
                              r["gain_vs_hd"]) for r in doc["rows"]]
            return ResultTable(rows=rows, metadata=doc["metadata"])
        reader = csv.reader(fh)
        header = next(reader)
        if tuple(header) != CSV_COLUMNS:
            raise ValueError(f"unexpected CSV header {header}")
        rows = []
        for rec in reader:
            vals = [float(rec[0]), rec[1]] + [float(x) for x in rec[2:]]
            rows.append(ResultRow(*vals))
        return ResultTable(rows=rows, metadata={})
