import json
import math
from dataclasses import replace

import numpy as np
import pytest

import fdtwrc.harness
from fdtwrc.baselines import SchemeId
from fdtwrc.harness import (
    CSV_COLUMNS,
    REGION_KINDS,
    SCHEMES,
    ExperimentSpec,
    ResultRow,
    ResultTable,
    config_for,
    emit,
    read_table,
    run_experiment,
    table_to_csv,
    trial_seed,
)
from fdtwrc.model import SystemConfig, db_to_linear

BASE = SystemConfig()
FAST = (SchemeId.FD_ONEWAY,)
FASTPAIR = (SchemeId.HD_ANC, SchemeId.FD_ONEWAY)


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

    def test_local_csi_has_no_region(self):
        with pytest.raises(ValueError):
            ExperimentSpec(kind="rate_region", schemes=(SchemeId.LOCAL_CSI,),
                           sweep=(0.0, 1.0), trials=1, seed=0)

    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            ExperimentSpec(kind="sumrate_vs_source_snr", schemes=("proposed",),
                           sweep=(1.0,), trials=1, seed=0)

    def test_antenna_sweep_floor(self):
        with pytest.raises(ValueError):
            config_for("sumrate_vs_antennas", BASE, 1.0)


class TestConfigMapping:
    def test_source_snr(self):
        cfg = config_for("sumrate_vs_source_snr", BASE, 20.0)
        assert cfg.p_a_max == cfg.p_b_max == pytest.approx(100.0)
        assert cfg.p_r_max == BASE.p_r_max

    def test_relay_snr(self):
        cfg = config_for("sumrate_vs_relay_snr", BASE, 0.0)
        assert cfg.p_r_max == pytest.approx(1.0)

    def test_si(self):
        cfg = config_for("sumrate_vs_si", BASE, -10.0)
        assert cfg.sigma2_a == cfg.sigma2_b == cfg.sigma2_r == pytest.approx(0.1)

    def test_antennas(self):
        cfg = config_for("sumrate_vs_antennas", BASE, 5.0)
        assert (cfg.m_t, cfg.m_r) == (5, 5)

    def test_region_kind_passthrough(self):
        assert config_for("rate_region", BASE, 0.3) is BASE

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
        spec = ExperimentSpec(kind="sumrate_vs_source_snr", schemes=FASTPAIR,
                              sweep=(5.0, 10.0), trials=6, seed=3, base=BASE)
        serial = run_experiment(spec, workers=1)
        parallel = run_experiment(spec, workers=2)
        assert serial.rows == parallel.rows

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
        calls = []
        solve = fdtwrc.harness.hd_anc_solve

        def counting(*args, **kwargs):
            calls.append(args[1])
            return solve(*args, **kwargs)

        monkeypatch.setattr(fdtwrc.harness, "hd_anc_solve", counting)
        spec = ExperimentSpec(kind="sumrate_vs_source_snr", schemes=FASTPAIR,
                              sweep=(10.0,), trials=2, seed=4, base=BASE)
        run_experiment(spec, workers=1)
        assert calls == ["sum_rate", "sum_rate"]


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

    def test_round_trip_csv(self, tmp_path):
        table = _tiny_table()
        path = tmp_path / "out.csv"
        emit(table, "csv", path)
        back = read_table(path, "csv")
        for a, b in zip(table.rows, back.rows):
            assert b.scheme == a.scheme
            for field in ("sweep_value", "mean_ra", "se_ra", "mean_rb", "se_rb",
                          "mean_sum", "se_sum", "gain_vs_hd"):
                x, y = getattr(a, field), getattr(b, field)
                assert abs(x - y) <= 1e-6 * max(1.0, abs(x))

    def test_round_trip_json(self, tmp_path):
        table = _tiny_table()
        path = tmp_path / "out.json"
        emit(table, "json", path)
        back = read_table(path, "json")
        assert back.metadata["kind"] == "sumrate_vs_source_snr"
        assert back.rows == table.rows

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
