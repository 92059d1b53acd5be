"""Workloads, trial-seed layout, quality figures and the correctness gate.

Every workload is a series of ``fdtwrc.harness.run_experiment`` calls with
``keep_samples=True``.  The benchmark seed owns a block of 2**20
consecutive trial seeds, split into 64 batch blocks of 2**14.  The harness
derives trial seeds as ``master ^ t``, so a call with master seed
``(seed << 20) | (b << 14) | k``, ``k`` a multiple of a power-of-two chunk
size and ``t`` below that size, draws the trial seeds
``(seed << 20) + (b << 14) + k + t``.  Block 0 holds the fixed core trials
(cut into such chunks); later blocks hold the extra batches that fill a
run's time.  Two different benchmark seeds therefore never share a
realization, unlike two raw master seeds that differ only in bits below
the trial count.
"""

import math
from dataclasses import dataclass

import numpy as np

from fdtwrc import harness
from fdtwrc.baselines import parse_scheme

DEFAULT_SEED = 20240
SEED_SHIFT = 20
BATCH_SHIFT = 14
MAX_SEED = 2**42
# the set-up warm-up draws from a block no benchmark seed can reach
WARMUP_MASTER_SEED = 2**62
UB_TOL = 1e-6


@dataclass(frozen=True)
class Workload:
    """One named experiment plus the sizes of its fixed core trial sets.

    ``lead`` is the scheme whose solver the workload is built around and
    ``ref`` the scheme it is compared against; their mean sum rates are the
    quality metrics.  The parallel core is trials [0, parallel_trials).  The
    serial core starts one serial chunk before that ends, so the two share
    that chunk trial for trial, and the quality set is their union.  The
    traced core is a prefix of the serial core.  Cores run in power-of-two
    chunks.
    """

    name: str
    kind: str
    schemes: tuple
    sweep: tuple
    lead: str
    ref: str
    serial_trials: int
    serial_chunk: int
    parallel_trials: int
    parallel_chunk: int
    traced_trials: int

    def __post_init__(self):
        for chunk in (self.serial_chunk, self.parallel_chunk):
            if chunk < 1 or chunk & (chunk - 1) or chunk > 2**BATCH_SHIFT:
                raise ValueError("chunk sizes must be powers of two up to 2**14")
        if self.parallel_trials < self.serial_chunk or self.parallel_trials % self.serial_chunk:
            raise ValueError("the parallel core must end on a serial chunk boundary")
        if not 0 < self.traced_trials <= self.serial_trials or self.traced_trials % self.serial_chunk:
            raise ValueError("the traced core must be whole serial chunks of the serial core")
        if self.serial_start + self.serial_trials > 2**BATCH_SHIFT:
            raise ValueError("the cores must fit in one block of 2**14 trials")

    @property
    def serial_start(self):
        return self.parallel_trials - self.serial_chunk

    def parallel_core(self, seed):
        return core_chunks(seed, 0, self.parallel_trials, self.parallel_chunk)

    def serial_core(self, seed):
        return core_chunks(seed, self.serial_start, self.serial_trials, self.serial_chunk)

    def traced_core(self, seed):
        return self.serial_core(seed)[: self.traced_trials // self.serial_chunk]

    def spec(self, trials, master_seed):
        return harness.ExperimentSpec(
            kind=self.kind, schemes=tuple(parse_scheme(s) for s in self.schemes),
            sweep=self.sweep, trials=trials, seed=master_seed)

    @property
    def region(self):
        return self.kind in harness.REGION_KINDS

    def tasks(self, trials):
        """Harness tasks (one channel realization at one sweep value)."""
        return trials if self.region else trials * len(self.sweep)

    def cells(self, trials):
        """(trial, scheme, point) cells: the unit failures are counted in."""
        return trials * len(self.schemes) * len(self.sweep)


WORKLOADS = {
    w.name: w for w in (
        Workload("sumrate_all4", "sumrate_vs_source_snr", ("proposed", "hd", "fd2", "ub"),
                 (10.0,), lead="proposed", ref="hd",
                 serial_trials=32, serial_chunk=4, parallel_trials=64, parallel_chunk=8,
                 traced_trials=32),
        Workload("region9", "rate_region", ("proposed", "hd"),
                 tuple(float(f) for f in np.linspace(0.0, 1.0, 9)), lead="proposed", ref="hd",
                 serial_trials=12, serial_chunk=2, parallel_trials=16, parallel_chunk=4,
                 traced_trials=8),
        Workload("closed_form_antennas", "sumrate_vs_antennas", ("fd2", "localcsi"),
                 tuple(float(m) for m in range(2, 9)), lead="localcsi", ref="fd2",
                 serial_trials=1024, serial_chunk=512, parallel_trials=2048,
                 parallel_chunk=1024, traced_trials=512),
    )
}


def master_seed(seed, batch):
    if not 0 <= seed < MAX_SEED:
        raise ValueError(f"seed must lie in [0, {MAX_SEED})")
    if not 0 <= batch < 2 ** (SEED_SHIFT - BATCH_SHIFT):
        raise ValueError("batch index outside the seed's block")
    return (seed << SEED_SHIFT) | (batch << BATCH_SHIFT)


def block_of(master):
    return (master >> BATCH_SHIFT) % 2 ** (SEED_SHIFT - BATCH_SHIFT)


def core_chunks(seed, start, trials, chunk):
    """(master seed, trials) calls that together draw the trials
    [start, start + trials) of block 0; ``start`` is a multiple of ``chunk``."""
    base = master_seed(seed, 0) + start
    return [(base + k, min(chunk, trials - k)) for k in range(0, trials, chunk)]


def trial_seeds(master, trials):
    return {harness.trial_seed(master, t) for t in range(trials)}


def shared_trial_seeds(master_a, master_b, trials):
    """Number of realizations two master seeds draw in common over ``trials``."""
    return len(trial_seeds(master_a, trials) & trial_seeds(master_b, trials))


def cell_values(*tables):
    """Per-(sweep value, scheme) float arrays of per-trial results, the
    tables' trials concatenated in order.

    Sum-rate kinds keep one sum per trial, region kinds one (rate_a, rate_b)
    pair per trial and boundary point, giving shape (trials, 2).
    """
    parts = {}
    for table in tables:
        for key, vals in table.samples.items():
            parts.setdefault(key, []).append(np.asarray(vals, dtype=float))
    return {key: np.concatenate(arrs) for key, arrs in parts.items()}


def count_failed(workload, table):
    """Cells whose per-trial result is not finite (a NaN region pair counts once)."""
    failed = 0
    for arr in cell_values(table).values():
        bad = ~np.isfinite(arr)
        failed += int(bad.any(axis=1).sum() if workload.region else bad.sum())
    return failed


def scheme_mean_sum_bits(workload, values):
    """Mean sum rate per scheme over the finite cells of ``cell_values``
    output; on a region workload the mean runs over trials and boundary
    points."""
    per_scheme = {}
    for (_, scheme), arr in values.items():
        sums = arr.sum(axis=1) if workload.region else arr
        per_scheme.setdefault(scheme, []).append(sums)
    out = {}
    for scheme, parts in per_scheme.items():
        sums = np.concatenate(parts)
        sums = sums[np.isfinite(sums)]
        out[scheme] = float(sums.mean()) if sums.size else math.nan
    return out


def check_table(workload, table):
    """Invariants one result table must satisfy; returns failure messages."""
    errors = []
    values = cell_values(table)
    for (point, scheme), arr in values.items():
        finite = arr[np.isfinite(arr)]
        if finite.size and finite.min() < 0.0:
            errors.append(f"negative rate {finite.min()!r} for {scheme} at {point}")
    for row in table.rows:
        for name in ("mean_ra", "mean_rb", "mean_sum"):
            v = getattr(row, name)
            if math.isfinite(v) and v < 0.0:
                errors.append(f"negative {name} {v!r} for {row.scheme} at {row.sweep_value}")
    if not workload.region and {"proposed", "ub"} <= set(workload.schemes):
        for point in workload.sweep:
            prop, ub = values[(point, "proposed")], values[(point, "ub")]
            bad = np.flatnonzero(ub < prop - UB_TOL)
            if bad.size:
                t = int(bad[0])
                errors.append(f"ub {ub[t]!r} < proposed {prop[t]!r} - {UB_TOL} "
                              f"at trial {t} of master seed {table.metadata['seed']}")
    if workload.region:
        for scheme in workload.schemes:
            ras = [r.mean_ra for r in table.rows if r.scheme == scheme]
            for i in range(1, len(ras)):
                if ras[i] > ras[i - 1] + 1e-12 * max(1.0, abs(ras[i - 1])):
                    errors.append(f"{scheme} mean rate_a rises along the boundary: "
                                  f"{ras[i - 1]!r} -> {ras[i]!r} at point {i}")
    return errors


def check_overlap(a_vals, a_start, b_vals, b_start, label):
    """Two ``cell_values`` results over trial ranges starting at ``a_start``
    and ``b_start`` must agree bit for bit on every trial they share."""
    if set(a_vals) != set(b_vals):
        return [f"{label}: sample keys differ"]
    errors = []
    for key, a in a_vals.items():
        b = b_vals[key]
        lo, hi = max(a_start, b_start), min(a_start + len(a), b_start + len(b))
        if hi <= lo:
            return [f"{label}: no shared trials"]
        if a[lo - a_start:hi - a_start].tobytes() != b[lo - b_start:hi - b_start].tobytes():
            errors.append(f"{label}: per-trial samples differ for {key}")
    return errors


def union_values(a_vals, b_vals, b_start):
    """Samples over the union of trials [0, len(a)) and [b_start, b_start + len(b))."""
    return {key: np.concatenate([a, b_vals[key][len(a) - b_start:]])
            for key, a in a_vals.items()}
