"""Span tracing of fdtwrc's public functions, from outside the package.

Modules bind functions with ``from .x import y``, so one function can be
looked up through several module attributes (``max_sum_rate`` lives in
``sum_rate``, ``harness``, ``baselines`` and the package itself).  The
tracer replaces the function at every fdtwrc module attribute that holds
it and puts each binding back afterwards.  Spans stay in memory until the
run ends; they carry a name, start and end, parent span, trial id, whether
the call returned, and the iteration count of a returned operating point.
"""

import contextlib
import functools
import gzip
import json
import sys
import time

import numpy as np

TRACED = {
    "harness": ("run_experiment",),
    "sum_rate": ("max_sum_rate", "optimize_fixed_alpha_p2", "solve_txbf_p2",
                 "solve_power_p2", "dc_step"),
    "rate_region": ("rate_region", "region_sweep", "max_rate_given_rb", "_alpha_search",
                    "optimize_fixed_alpha_p1", "solve_txbf_p1", "solve_power_p1"),
    "baselines": ("hd_anc_solve", "hd_anc_region", "upper_bound_solve",
                  "fd_oneway_direction_rate", "local_csi_sum_rate"),
    "model": ("sample_channels", "make_operating_point", "effective_gains",
              "relay_null_basis"),
    "numerics": ("null_space_basis", "maximize_1d", "real_cubic_roots"),
}
# the harness task runner marks trial boundaries; it is not a span itself,
# so its dispatch work stays in the harness's self time
TRIAL_MARKER = ("harness", "_run_task")

SPAN_FIELDS = ("parent", "name", "trial", "start_ns", "end_ns", "ok", "iters")


def _package_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "fdtwrc" or n.startswith("fdtwrc."))]


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self.trial = None
        self._trials_seen = 0
        self._patched = []
        self.bindings = {}
        self.missing = []

    def _span_wrapper(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            result = None
            ok = False
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                t1 = clock()
                stack.pop()
                trace = getattr(result, "trace", None)
                iters = len(trace) if ok and isinstance(trace, list) else None
                spans[sid] = (parent, name, self.trial, t0, t1, ok, iters)

        return traced

    def _marker_wrapper(self, fn):
        @functools.wraps(fn)
        def marked(*args, **kwargs):
            self.trial = self._trials_seen
            self._trials_seen += 1
            return fn(*args, **kwargs)

        return marked

    def _patch(self, modules, layer, fname, make):
        owner = sys.modules.get(f"fdtwrc.{layer}")
        fn = getattr(owner, fname, None) if owner is not None else None
        if not callable(fn):
            self.missing.append(f"{layer}.{fname}")
            return
        wrapper = make(fn)
        found = []
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    setattr(mod, attr, wrapper)
                    self._patched.append((mod, attr, fn))
                    found.append(f"{mod.__name__}.{attr}")
        self.bindings[f"{layer}.{fname}"] = sorted(found)

    @contextlib.contextmanager
    def installed(self):
        """Wrap every binding of the traced functions; restore them on exit."""
        modules = _package_modules()
        try:
            for layer, names in TRACED.items():
                for fname in names:
                    name = f"{layer}.{fname}"
                    self._patch(modules, layer, fname,
                                lambda fn, name=name: self._span_wrapper(name, fn))
            self._patch(modules, *TRIAL_MARKER, self._marker_wrapper)
            yield self
        finally:
            for mod, attr, fn in reversed(self._patched):
                setattr(mod, attr, fn)
            self._patched.clear()

    def write(self, path):
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["id", *SPAN_FIELDS]}) + "\n")
            for sid, span in enumerate(self.spans):
                fh.write(json.dumps([sid, *span]) + "\n")


def _pct(values, q):
    return float(np.percentile(values, q)) if len(values) else 0.0


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, tasks, n_points, iter_max):
    """Per-layer figures of one traced serial run over ``tasks`` harness tasks.

    A function the workload never calls reports 0 for each of its figures.
    """
    by_name = {}
    for sid, (parent, name, trial, t0, t1, ok, iters) in enumerate(spans):
        by_name.setdefault(name, []).append((sid, parent, trial, (t1 - t0) / 1e6, ok, iters))

    def calls(name):
        return by_name.get(name, [])

    def ms(name):
        return [s[3] for s in calls(name)]

    def us_p50(name):
        return 1e3 * _pct(ms(name), 50)

    def iters(name):
        return [s[5] for s in calls(name) if s[4] and s[5] is not None]

    def per_task(name):
        return _ratio(len(calls(name)), tasks)

    def within(sid, ancestor_name):
        parent = spans[sid][0]
        while parent >= 0:
            if spans[parent][1] == ancestor_name:
                return parent
            parent = spans[parent][0]
        return None

    # region sweeps: every point solve beyond the n_points boundary targets
    # is spent locating B's largest feasible target
    sweep_solves = {}
    for sid, *_ in calls("rate_region.max_rate_given_rb"):
        root = within(sid, "rate_region.rate_region")
        if root is not None:
            sweep_solves[root] = sweep_solves.get(root, 0) + 1
    bisect = sum(max(0, c - n_points) for c in sweep_solves.values())

    # harness: run_experiment minus its direct child spans, and per-trial
    # sums of those child spans
    run_ids = {s[0] for s in calls("harness.run_experiment")}
    run_ms = sum(ms("harness.run_experiment"))
    child_ms, trial_ms = 0.0, {}
    for sid, (parent, name, trial, t0, t1, ok, _) in enumerate(spans):
        if parent in run_ids:
            d = (t1 - t0) / 1e6
            child_ms += d
            trial_ms[trial] = trial_ms.get(trial, 0.0) + d

    p2_iters = iters("sum_rate.optimize_fixed_alpha_p2")
    p1 = calls("rate_region.optimize_fixed_alpha_p1")
    rb = calls("rate_region.max_rate_given_rb")
    return {
        "sum_rate.max_sum_rate.ms_p50": (_pct(ms("sum_rate.max_sum_rate"), 50), "ms"),
        "sum_rate.max_sum_rate.ms_p90": (_pct(ms("sum_rate.max_sum_rate"), 90), "ms"),
        "sum_rate.optimize_fixed_alpha_p2.calls_per_solve": (
            _ratio(len(calls("sum_rate.optimize_fixed_alpha_p2")),
                   len(calls("sum_rate.max_sum_rate"))), "calls/solve"),
        "sum_rate.optimize_fixed_alpha_p2.ms_p50": (
            _pct(ms("sum_rate.optimize_fixed_alpha_p2"), 50), "ms"),
        "sum_rate.optimize_fixed_alpha_p2.iters_p50": (_pct(p2_iters, 50), "iters"),
        "sum_rate.iter_max_hit_share": (
            _ratio(sum(1 for i in p2_iters if i >= iter_max), len(p2_iters)), "share"),
        "sum_rate.solve_txbf_p2.ms_p50": (_pct(ms("sum_rate.solve_txbf_p2"), 50), "ms"),
        "sum_rate.solve_power_p2.ms_p50": (_pct(ms("sum_rate.solve_power_p2"), 50), "ms"),
        "sum_rate.dc_step.calls_per_txbf": (
            _ratio(len(calls("sum_rate.dc_step")), len(calls("sum_rate.solve_txbf_p2"))),
            "calls/txbf"),
        "rate_region.rate_region.ms_p50": (_pct(ms("rate_region.rate_region"), 50), "ms"),
        "rate_region.rate_region.ms_p90": (_pct(ms("rate_region.rate_region"), 90), "ms"),
        "rate_region.max_rate_given_rb.calls_per_sweep": (
            _ratio(len(rb), len(calls("rate_region.rate_region"))), "calls/sweep"),
        "rate_region.bisect_share": (_ratio(bisect, sum(sweep_solves.values())), "share"),
        "rate_region.max_rate_given_rb.feasible_share": (
            _ratio(sum(1 for s in rb if s[4]), len(rb)), "share"),
        "rate_region.optimize_fixed_alpha_p1.ms_p50": (
            _pct(ms("rate_region.optimize_fixed_alpha_p1"), 50), "ms"),
        "rate_region.optimize_fixed_alpha_p1.iters_p50": (
            _pct(iters("rate_region.optimize_fixed_alpha_p1"), 50), "iters"),
        "rate_region.infeasible_share": (
            _ratio(sum(1 for s in p1 if not s[4]), len(p1)), "share"),
        "rate_region.solve_txbf_p1.ms_p50": (_pct(ms("rate_region.solve_txbf_p1"), 50), "ms"),
        "rate_region.solve_power_p1.ms_p50": (_pct(ms("rate_region.solve_power_p1"), 50), "ms"),
        "baselines.hd_anc_solve.ms_p50": (_pct(ms("baselines.hd_anc_solve"), 50), "ms"),
        "baselines.hd_anc_region.ms_p50": (_pct(ms("baselines.hd_anc_region"), 50), "ms"),
        "baselines.upper_bound_solve.ms_p50": (
            _pct(ms("baselines.upper_bound_solve"), 50), "ms"),
        "baselines.fd_oneway_direction_rate.us_p50": (
            us_p50("baselines.fd_oneway_direction_rate"), "us"),
        "baselines.local_csi_sum_rate.us_p50": (us_p50("baselines.local_csi_sum_rate"), "us"),
        "model.sample_channels.us_p50": (us_p50("model.sample_channels"), "us"),
        "model.make_operating_point.calls_per_trial": (
            per_task("model.make_operating_point"), "calls/trial"),
        "model.effective_gains.calls_per_trial": (
            per_task("model.effective_gains"), "calls/trial"),
        "model.relay_null_basis.calls_per_trial": (
            per_task("model.relay_null_basis"), "calls/trial"),
        "numerics.null_space_basis.calls_per_trial": (
            per_task("numerics.null_space_basis"), "calls/trial"),
        "numerics.maximize_1d.calls_per_trial": (per_task("numerics.maximize_1d"), "calls/trial"),
        "numerics.real_cubic_roots.calls_per_trial": (
            per_task("numerics.real_cubic_roots"), "calls/trial"),
        "harness.self_ms_per_trial": (_ratio(run_ms - child_ms, tasks), "ms"),
        "harness.trial_ms_p50": (_pct(list(trial_ms.values()), 50), "ms"),
        "harness.trial_ms_p90": (_pct(list(trial_ms.values()), 90), "ms"),
    }


def span_counts(spans):
    counts = {}
    for span in spans:
        counts[span[1]] = counts.get(span[1], 0) + 1
    return counts
