import csv
import json
import math
import multiprocessing
import time
from dataclasses import astuple, fields, replace

import numpy as np
import pytest

import fdtwrc.harness
from fdtwrc.baselines import SchemeId
from fdtwrc.harness import (
    CSV_COLUMNS,
    REGION_KINDS,
    SCHEMES,
    SWEEPS,
    TASK_TRIALS,
    ExperimentSpec,
    ResultRow,
    ResultTable,
    _task_sizes,
    emit,
    run_experiment,
    table_to_csv,
    table_to_json,
    trial_seed,
)
from fdtwrc.model import SystemConfig

BASE = SystemConfig()
FAST = (SchemeId.FD_ONEWAY,)
FASTPAIR = (SchemeId.HD_ANC, SchemeId.FD_ONEWAY)


def _nan_at_trial_1_of_10db(chs, cfg, tseeds, solved):
    """A sum-rate scheme whose rates are (1, 2) per trial of a task, or NaN
    at trial 1 of a 10 dB source SNR run with master seed 11."""
    lost = trial_seed(11, 1) if cfg.p_a_max == 10.0 else None
    return [(math.nan, math.nan) if tseed == lost else (1.0, 2.0) for tseed in tseeds]


class TestSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            ExperimentSpec(kind="nope", schemes=FAST, sweep=(1.0,), trials=1, seed=0)

    def test_empty_sweep(self):
        with pytest.raises(ValueError):
            ExperimentSpec(kind="sumrate_vs_source_snr", schemes=FAST, sweep=(),
                           trials=1, seed=0)

    def test_zero_trials(self):
        with pytest.raises(ValueError):
            ExperimentSpec(kind="sumrate_vs_source_snr", schemes=FAST, sweep=(1.0,),
                           trials=0, seed=0)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_uint64(self, seed):
        # trial seeds are the master seed XOR the trial index in 64 bits
        with pytest.raises(ValueError, match=r"seed must lie in \[0, 2\*\*64\)"):
            ExperimentSpec(kind="sumrate_vs_source_snr", schemes=FAST, sweep=(1.0,),
                           trials=1, seed=seed)

    @pytest.mark.parametrize("sweep", [(0.0,), ()])
    def test_region_needs_two_points(self, sweep):
        # refused with the spec, before any realization is drawn
        with pytest.raises(ValueError, match="at least 2 points"):
            ExperimentSpec(kind="rate_region", schemes=FASTPAIR, sweep=sweep, trials=1, seed=0)

    @pytest.mark.parametrize("sweep", [
        (0.0, 0.3, 1.0),  # unequal spacing
        (1.0, 0.5, 0.0),  # descending
        (1.0, 0.2, 0.0),
        (0.2, 0.6, 1.0),  # not from 0
        (0.0, 0.25, 0.5),  # not to 1
        (0.0, 1.0, 2.0),  # outside [0, 1]
        (0.0, math.nan, 1.0),
    ])
    def test_region_sweep_must_be_equally_spaced_fractions(self, sweep):
        # a region's boundary points are n equally spaced fractions whatever
        # the sweep holds, so any other sweep would only mislabel them
        with pytest.raises(ValueError, match="equally spaced fractions from 0 to 1"):
            ExperimentSpec(kind="rate_region", schemes=FASTPAIR, sweep=sweep, trials=1, seed=0)

    @pytest.mark.parametrize("sweep", [
        (0.0, 1.0),
        tuple(np.linspace(0.0, 1.0, 11)),
        (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0),  # decimal literals
    ])
    def test_region_sweep_of_equally_spaced_fractions(self, sweep):
        ExperimentSpec(kind="rate_region", schemes=FASTPAIR, sweep=sweep, trials=1, seed=0)

    @pytest.mark.parametrize("kind, sweep", [("sumrate_vs_source_snr", (10.0,)),
                                             ("rate_region", (0.0, 1.0))])
    def test_duplicate_scheme(self, kind, sweep):
        # a scheme listed twice would run twice and print two identical rows
        with pytest.raises(ValueError, match="scheme fd2 is listed twice"):
            ExperimentSpec(kind=kind, sweep=sweep, trials=1, seed=0,
                           schemes=(SchemeId.FD_ONEWAY, SchemeId.HD_ANC, SchemeId.FD_ONEWAY))

    @pytest.mark.parametrize("kind, sweep", [("sumrate_vs_si", (-20.0, -10.0, -20.0)),
                                             ("sumrate_vs_antennas", (3.0, 3))])
    def test_repeated_sweep_value(self, kind, sweep):
        # a repeated value would run twice and print two identical rows
        with pytest.raises(ValueError, match="a sweep value is listed twice"):
            ExperimentSpec(kind=kind, schemes=FAST, sweep=sweep, trials=1, seed=0)

    @pytest.mark.parametrize("sweep", [(2.6, 3.0), (4.0, 3.5), (math.nan,), (math.inf,)])
    def test_non_integral_antenna_count(self, sweep):
        # 2.6 would run 3 antennas and label the row 2.6
        with pytest.raises(ValueError, match="antenna counts must be integers"):
            ExperimentSpec(kind="sumrate_vs_antennas", schemes=FAST, sweep=sweep, trials=1,
                           seed=0)

    def test_integral_antenna_counts(self):
        spec = ExperimentSpec(kind="sumrate_vs_antennas", schemes=FAST, sweep=(2.0, 3, 8.0),
                              trials=1, seed=0)
        assert [SWEEPS[spec.kind](BASE, v).m_t for v in spec.sweep] == [2, 3, 8]

    def test_local_csi_has_no_region(self):
        with pytest.raises(ValueError):
            ExperimentSpec(kind="rate_region", schemes=(SchemeId.LOCAL_CSI,),
                           sweep=(0.0, 1.0), trials=1, seed=0)

    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            ExperimentSpec(kind="sumrate_vs_source_snr", schemes=("proposed",),
                           sweep=(1.0,), trials=1, seed=0)

    def test_antenna_sweep_floor(self):
        # SystemConfig refuses m_t < 2, so the sweep needs no check of its own
        with pytest.raises(ValueError, match="m_t >= 2"):
            SWEEPS["sumrate_vs_antennas"](BASE, 1.0)


class TestConfigMapping:
    def test_source_snr(self):
        cfg = SWEEPS["sumrate_vs_source_snr"](BASE, 20.0)
        assert cfg.p_a_max == cfg.p_b_max == pytest.approx(100.0)
        assert cfg.p_r_max == BASE.p_r_max

    def test_relay_snr(self):
        cfg = SWEEPS["sumrate_vs_relay_snr"](BASE, 0.0)
        assert cfg.p_r_max == pytest.approx(1.0)

    def test_si(self):
        cfg = SWEEPS["sumrate_vs_si"](BASE, -10.0)
        assert cfg.sigma2_a == cfg.sigma2_b == cfg.sigma2_r == pytest.approx(0.1)

    def test_antennas(self):
        cfg = SWEEPS["sumrate_vs_antennas"](BASE, 5.0)
        assert (cfg.m_t, cfg.m_r) == (5, 5)

    def test_region_kind_passthrough(self, monkeypatch):
        # every trial of a region run draws its channels at the base config
        base = SystemConfig(gain_br=0.1)
        drawn = []
        sample = fdtwrc.harness.sample_realizations

        def recording(config, seeds):
            drawn.extend([config] * len(seeds))
            return sample(config, seeds)

        monkeypatch.setattr(fdtwrc.harness, "sample_realizations", recording)
        spec = ExperimentSpec(kind="rate_region", schemes=FAST, sweep=(0.0, 0.5, 1.0),
                              trials=2, seed=0, base=base)
        run_experiment(spec, workers=1)
        assert len(drawn) == 2 and all(c is base for c in drawn)
        assert not REGION_KINDS & SWEEPS.keys()

    def test_trial_seed_xor(self):
        assert trial_seed(12, 0) == 12
        assert trial_seed(12, 5) == 12 ^ 5


class TestRunExperiment:
    def test_single_trial_bit_identical(self):
        spec = ExperimentSpec(kind="sumrate_vs_source_snr", schemes=FAST,
                              sweep=(10.0,), trials=1, seed=7, base=BASE)
        a = run_experiment(spec, workers=1)
        b = run_experiment(spec, workers=1)
        assert len(a.rows) == 1
        assert a.rows == b.rows

    def test_worker_count_independence(self):
        # the worker count sets how a configuration's trials are cut into
        # tasks, and every scheme solves a task's trials together (a
        # lockstep, or fd2's and localcsi's stacked computation): at trial
        # counts that are not multiples of a task, every per-trial sample
        # must be the same bytes whatever the cut
        specs = [ExperimentSpec(kind="sumrate_vs_source_snr", schemes=FASTPAIR,
                                sweep=(5.0, 10.0), trials=6, seed=3, base=BASE)]
        for trials in (1, 5, 11):
            specs += [
                ExperimentSpec(kind="sumrate_vs_source_snr",
                               schemes=(SchemeId.PROPOSED_FD, SchemeId.HD_ANC,
                                        SchemeId.FD_UPPER_BOUND),
                               sweep=(10.0,), trials=trials, seed=13, base=BASE),
                ExperimentSpec(kind="rate_region",
                               schemes=(SchemeId.PROPOSED_FD, SchemeId.HD_ANC,
                                        SchemeId.FD_UPPER_BOUND),
                               sweep=(0.0, 0.5, 1.0), trials=trials, seed=14, base=BASE),
                ExperimentSpec(kind="sumrate_vs_antennas",
                               schemes=(SchemeId.FD_ONEWAY, SchemeId.LOCAL_CSI),
                               sweep=(2.0, 3.0, 8.0), trials=trials, seed=15, base=BASE),
                ExperimentSpec(kind="rate_region", schemes=FAST,
                               sweep=(0.0, 0.5, 1.0), trials=trials, seed=16, base=BASE)]
        for spec in specs:
            tables = [run_experiment(spec, workers=w, keep_samples=True) for w in (1, 2, 3)]
            if spec.trials > 1:  # the worker counts cut the trials differently
                assert len({t.metadata["tasks"] for t in tables}) > 1
            assert all(v.dtype == np.float64 for v in tables[0].samples.values())
            assert len({tuple(t.metadata["time_s"]) for t in tables}) == 1
            for table in tables[1:]:
                assert repr(table.rows) == repr(tables[0].rows)
                assert {k: np.asarray(v).tobytes() for k, v in table.samples.items()} == {
                    k: np.asarray(v).tobytes() for k, v in tables[0].samples.items()}

    @pytest.mark.parametrize("trials, workers, sizes", [
        (1, 3, [1]), (4, 1, [4]), (8, 2, [4, 4]), (11, 3, [4, 4, 3]), (17, 1, [9, 8]),
        (33, 1, [11] * 3), (1024, 2, [16] * 64)])
    def test_task_sizes(self, trials, workers, sizes):
        # near-equal tasks of consecutive trials: at least one per worker,
        # at most TASK_TRIALS trials each, and none empty
        assert _task_sizes(trials, workers) == sizes
        assert max(sizes) <= TASK_TRIALS

    @pytest.mark.parametrize("workers, tasks, per_task", [(1, 4, 10), (2, 4, 10), (4, 8, 5)])
    def test_tasks_in_metadata(self, workers, tasks, per_task):
        spec = ExperimentSpec(kind="sumrate_vs_source_snr", schemes=FAST,
                              sweep=(0.0, 10.0), trials=20, seed=3, base=BASE)
        meta = run_experiment(spec, workers=workers).metadata
        assert (meta["tasks"], meta["trials_per_task"]) == (tasks, per_task)

    @pytest.mark.parametrize("kind, schemes, sweep", [
        ("sumrate_vs_source_snr", (SchemeId.PROPOSED_FD, SchemeId.FD_UPPER_BOUND,
                                   SchemeId.LOCAL_CSI), (5.0, 10.0)),
        ("sumrate_vs_source_snr", (SchemeId.FD_UPPER_BOUND,), (10.0,)),
        ("rate_region", (SchemeId.PROPOSED_FD, SchemeId.HD_ANC), (0.0, 1.0))])
    def test_time_s_per_scheme(self, kind, schemes, sweep, monkeypatch):
        # set-up and per-scheme solver seconds, summed over tasks; the
        # lockstep that proposed and ub share (here slowed by 0.2 s a call)
        # is proposed's time, or ub's when proposed is not run, and ub's
        # own seconds are those of its fallback alone
        def slowed(solve):
            def slow(*args):
                time.sleep(0.2)
                return solve(*args)
            return slow

        for name in ("max_sum_rates", "rate_regions"):
            monkeypatch.setattr(fdtwrc.harness, name, slowed(getattr(fdtwrc.harness, name)))
        spec = ExperimentSpec(kind=kind, schemes=schemes, sweep=sweep, trials=3, seed=9,
                              base=BASE)
        table = run_experiment(spec, workers=1)
        time_s = table.metadata["time_s"]
        assert list(time_s) == ["setup", *(s.value for s in schemes)]
        assert all(math.isfinite(v) and v >= 0.0 for v in time_s.values())
        assert time_s["setup"] > 0.0 and sum(time_s.values()) <= table.metadata["runtime_s"]
        tasks = 1 if kind == "rate_region" else len(sweep)
        assert time_s[schemes[0].value] >= 0.2 * tasks
        if schemes[0] == SchemeId.PROPOSED_FD and SchemeId.FD_UPPER_BOUND in schemes:
            assert time_s["ub"] < 0.2 * tasks
        assert json.loads(table_to_json(table))["metadata"]["time_s"] == time_s

    @pytest.mark.parametrize("workers", [1, 2])
    def test_nonfinite_pairs_are_counted(self, workers, monkeypatch):
        # a stub fd2 loses trial 1 at 10 dB; the means leave it out and the
        # metadata counts it, per sweep value, whatever the worker count
        # (the pool's workers inherit the patched table by fork)
        if workers > 1 and multiprocessing.get_start_method() != "fork":
            pytest.skip("the patched scheme table reaches pool workers only by fork")
        monkeypatch.setitem(SCHEMES, SchemeId.FD_ONEWAY, (_nan_at_trial_1_of_10db, None))
        spec = ExperimentSpec(kind="sumrate_vs_source_snr", schemes=FAST,
                              sweep=(5.0, 10.0), trials=3, seed=11, base=BASE)
        table = run_experiment(spec, workers=workers)
        assert table.metadata["nonfinite"] == {"fd2": [0, 1]}
        assert [r.mean_sum for r in table.rows] == [3.0, 3.0]
        assert json.loads(table_to_json(table))["metadata"]["nonfinite"] == {"fd2": [0, 1]}

    def test_row_count_and_order(self):
        spec = ExperimentSpec(kind="sumrate_vs_source_snr", schemes=FASTPAIR,
                              sweep=(0.0, 10.0), trials=2, seed=1, base=BASE)
        t = run_experiment(spec, workers=1)
        assert len(t.rows) == 4
        assert [r.sweep_value for r in t.rows] == [0.0, 0.0, 10.0, 10.0]
        assert [r.scheme for r in t.rows] == ["hd", "fd2", "hd", "fd2"]
        assert all(r.se_sum >= 0 for r in t.rows)

    def test_gain_column(self):
        spec = ExperimentSpec(kind="sumrate_vs_source_snr", schemes=FASTPAIR,
                              sweep=(10.0,), trials=3, seed=2, base=BASE)
        t = run_experiment(spec, workers=1)
        hd = next(r for r in t.rows if r.scheme == "hd")
        fd2 = next(r for r in t.rows if r.scheme == "fd2")
        assert hd.gain_vs_hd == pytest.approx(1.0)
        assert fd2.gain_vs_hd == pytest.approx(fd2.mean_sum / hd.mean_sum)

    def test_b_link_gain_floor_runs_finite(self):
        # at the smallest accepted gain_br every scheme solves every trial
        base = SystemConfig(gain_br=1e-100)
        for kind, schemes, sweep in (
                ("sumrate_vs_relay_snr", tuple(SchemeId), (10.0,)),
                ("rate_region", (SchemeId.PROPOSED_FD, SchemeId.HD_ANC, SchemeId.FD_ONEWAY,
                                 SchemeId.FD_UPPER_BOUND), (0.0, 0.5, 1.0))):
            spec = ExperimentSpec(kind=kind, schemes=schemes, sweep=sweep, trials=3, seed=5,
                                  base=base)
            t = run_experiment(spec, workers=1, keep_samples=True)
            assert len(t.rows) == len(schemes) * len(sweep)
            assert all(math.isfinite(v) for r in t.rows for v in (r.mean_ra, r.mean_rb))
            assert np.all(np.isfinite(np.asarray(list(t.samples.values()), dtype=float)))

    def test_se_shrinks_with_trials(self):
        spec100 = ExperimentSpec(kind="sumrate_vs_source_snr", schemes=FAST,
                                 sweep=(10.0,), trials=100, seed=5, base=BASE)
        spec400 = replace(spec100, trials=400)
        se100 = run_experiment(spec100, workers=1).rows[0].se_sum
        se400 = run_experiment(spec400, workers=1).rows[0].se_sum
        assert se400 < 0.75 * se100

    def test_paired_ordering_per_trial(self):
        spec = ExperimentSpec(
            kind="sumrate_vs_source_snr",
            schemes=(SchemeId.PROPOSED_FD, SchemeId.FD_UPPER_BOUND, SchemeId.LOCAL_CSI),
            sweep=(10.0,), trials=5, seed=6, base=BASE)
        t = run_experiment(spec, workers=1, keep_samples=True)
        ub = np.array(t.samples[(10.0, "ub")])
        prop = np.array(t.samples[(10.0, "proposed")])
        lc = np.array(t.samples[(10.0, "localcsi")])
        assert np.all(ub >= prop - 1e-6)
        assert np.all(prop >= lc - 1e-6)

    def test_region_kind_rows(self):
        fr = tuple(np.linspace(0.0, 1.0, 4))
        spec = ExperimentSpec(kind="rate_region", schemes=(SchemeId.FD_ONEWAY,),
                              sweep=fr, trials=2, seed=8, base=BASE)
        t = run_experiment(spec, workers=1)
        assert len(t.rows) == 4
        # fraction 0 is the A-max end of the time-sharing segment
        assert t.rows[0].mean_ra > 0
        assert t.rows[0].mean_rb == 0.0
        assert t.rows[-1].mean_ra == 0.0


class TestSchemeTable:
    def test_one_entry_per_scheme(self):
        assert set(SCHEMES) == set(SchemeId)
        assert all(len(entry) == 2 and callable(entry[0]) for entry in SCHEMES.values())

    @pytest.mark.parametrize("kind", sorted(REGION_KINDS))
    def test_region_kinds_reject_schemes_without_region(self, kind):
        for scheme, (_, region_fn) in SCHEMES.items():
            if region_fn is None:
                with pytest.raises(ValueError, match="no region objective"):
                    ExperimentSpec(kind=kind, schemes=(SchemeId.HD_ANC, scheme),
                                   sweep=(0.0, 1.0), trials=1, seed=0)
            else:
                ExperimentSpec(kind=kind, schemes=(scheme,), sweep=(0.0, 1.0),
                               trials=1, seed=0)

    def test_solvers_are_looked_up_at_call_time(self, monkeypatch):
        # a rebound module attribute (a tracer's wrapper) must be the one
        # the run calls
        # (one call per task: the HD solver takes a task's trials at once,
        # and proposed and ub share one lockstep)
        calls = {}

        def counting(name, solve):
            def counted(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return solve(*args, **kwargs)
            return counted

        for name in ("hd_anc_solves", "max_sum_rates"):
            solve = getattr(fdtwrc.harness, name)
            monkeypatch.setattr(fdtwrc.harness, name, counting(name, solve))
        spec = ExperimentSpec(kind="sumrate_vs_source_snr",
                              schemes=(*FASTPAIR, SchemeId.PROPOSED_FD, SchemeId.FD_UPPER_BOUND),
                              sweep=(5.0, 10.0), trials=2, seed=4, base=BASE)
        table = run_experiment(spec, workers=1)
        assert calls == {"hd_anc_solves": 2, "max_sum_rates": 2} and table.metadata["tasks"] == 2


def _tiny_table():
    rows = [
        ResultRow(10.0, "proposed", 2.5, 0.01, 2.25, 0.02, 4.75, 0.03, 1.56),
        ResultRow(10.0, "hd", 1.5, 0.01, 1.5, 0.01, 3.0, 0.02, 1.0),
    ]
    return ResultTable(rows=rows, metadata={"kind": "sumrate_vs_source_snr"})


class TestEmit:
    def test_csv_golden_format(self):
        text = table_to_csv(_tiny_table())
        lines = text.strip().split("\n")
        assert lines[0] == "sweep_value,scheme,mean_RA,se_RA,mean_RB,se_RB,mean_sum,se_sum,gain_vs_hd"
        assert lines[1] == "10,proposed,2.5,0.01,2.25,0.02,4.75,0.03,1.56"
        assert lines[2] == "10,hd,1.5,0.01,1.5,0.01,3,0.02,1"

    def test_columns_follow_row_fields(self):
        assert [c.lower() for c in CSV_COLUMNS] == [f.name for f in fields(ResultRow)]

    def test_round_trip_csv(self, tmp_path):
        table = _tiny_table()
        path = tmp_path / "out.csv"
        emit(table, "csv", path)
        with open(path, newline="", encoding="utf-8") as fh:
            header, *recs = csv.reader(fh)
        assert tuple(header) == CSV_COLUMNS
        for row, rec in zip(table.rows, recs, strict=True):
            assert rec[1] == row.scheme
            back = [float(x) for x in rec[:1] + rec[2:]]
            want = [v for v in astuple(row) if not isinstance(v, str)]
            assert back == pytest.approx(want, rel=1e-6, abs=1e-6)

    def test_round_trip_json(self, tmp_path):
        table = _tiny_table()
        path = tmp_path / "out.json"
        emit(table, "json", path)
        doc = json.loads(path.read_text())
        assert doc["metadata"]["kind"] == "sumrate_vs_source_snr"
        assert all(tuple(r) == CSV_COLUMNS for r in doc["rows"])
        assert [ResultRow(*r.values()) for r in doc["rows"]] == table.rows

    def test_csv_and_json_rows_agree(self):
        spec = ExperimentSpec(kind="sumrate_vs_source_snr", schemes=FASTPAIR,
                              sweep=(0.0, 10.0), trials=2, seed=9, base=BASE)
        table = run_experiment(spec, workers=1)
        header, *recs = csv.reader(table_to_csv(table).splitlines())
        rows = json.loads(table_to_json(table))["rows"]
        assert tuple(header) == CSV_COLUMNS and len(recs) == len(rows) == 4
        for rec, row in zip(recs, rows):
            assert tuple(row) == CSV_COLUMNS
            assert rec == [v if isinstance(v, str) else f"{v:.6g}" for v in row.values()]

    def test_json_carries_run_metadata(self, tmp_path):
        spec = ExperimentSpec(kind="sumrate_vs_source_snr", schemes=FAST,
                              sweep=(10.0,), trials=2, seed=5, base=BASE)
        path = tmp_path / "run.json"
        emit(run_experiment(spec, workers=1), "json", path)
        meta = json.loads(path.read_text())["metadata"]
        assert meta["numpy_version"] == np.__version__
        assert meta["workers"] == 1
        assert isinstance(meta["cpu_count"], int) and meta["cpu_count"] >= 1
        assert math.isfinite(meta["runtime_s"]) and meta["runtime_s"] > 0.0

    def test_empty_table_guard(self, tmp_path):
        path = tmp_path / "never.csv"
        with pytest.raises(ValueError):
            emit(ResultTable(rows=[], metadata={}), "csv", path)
        assert not path.exists()

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValueError):
            emit(_tiny_table(), "xml", tmp_path / "x")

    def test_io_error_carries_path(self):
        with pytest.raises(OSError) as exc:
            emit(_tiny_table(), "csv", "/nonexistent-dir/out.csv")
        assert "/nonexistent-dir/out.csv" in str(exc.value)

    def test_six_significant_digits(self):
        rows = [ResultRow(1.0, "fd2", 1.2345678, 0.0, 2.3456789, 0.0, 3.5802467, 0.0,
                          float("nan"))]
        text = table_to_csv(ResultTable(rows=rows, metadata={}))
        assert "1.23457" in text
        assert "3.58025" in text
