import argparse
import csv
import json

import pytest

import fdtwrc.harness
from fdtwrc.cli import build_parser, main
from fdtwrc.harness import CSV_COLUMNS, SWEEPS


def _csv_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        assert tuple(reader.fieldnames) == CSV_COLUMNS
        return list(reader)


def test_sumrate_writes_csv(tmp_path):
    out = tmp_path / "sumrate.csv"
    rc = main(["sumrate", "--trials", "2", "--seed", "3", "--schemes", "hd,fd2",
               "--out", str(out)])
    assert rc == 0
    assert {r["scheme"] for r in _csv_rows(out)} == {"hd", "fd2"}


def test_sweep_json(tmp_path):
    out = tmp_path / "sweep.json"
    rc = main(["sweep", "--param", "relay-snr", "--values", "0,10", "--trials", "1",
               "--schemes", "fd2", "--format", "json", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["metadata"]["kind"] == "sumrate_vs_relay_snr"
    assert len(doc["rows"]) == 2


def test_sweep_params_match_sweep_kinds(capsys):
    # each --param choice runs its own SWEEPS kind, and every kind has one
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    param = next(a for a in sub.choices["sweep"]._actions if a.dest == "param")
    kinds = []
    for choice in param.choices:
        rc = main(["sweep", "--param", choice, "--values", "2", "--trials", "1",
                   "--schemes", "fd2", "--format", "json", "--workers", "1"])
        assert rc == 0
        kinds.append(json.loads(capsys.readouterr().out)["metadata"]["kind"])
    assert sorted(kinds) == sorted(SWEEPS)


def test_sweep_accepts_spaced_negative_values(capsys):
    # "--values -30,-10" is not one plain number, so argparse alone would
    # read it as an option
    common = ["--param", "si", "--trials", "1", "--schemes", "fd2", "--workers", "1"]
    assert main(["sweep", "--values", "-30,-10", *common]) == 0
    spaced = capsys.readouterr().out
    assert main(["sweep", "--values=-30,-10", *common]) == 0
    assert spaced == capsys.readouterr().out
    assert [line.split(",")[0] for line in spaced.splitlines()[1:]] == ["-30", "-10"]
    with pytest.raises(SystemExit) as exc:  # an option after --values is still no value
        main(["sweep", "--values", "--trials", "1", "--param", "si"])
    assert exc.value.code == 2


def test_region_command(tmp_path):
    out = tmp_path / "region.csv"
    rc = main(["region", "--trials", "1", "--points", "3", "--schemes", "fd2",
               "--out", str(out)])
    assert rc == 0
    assert len(_csv_rows(out)) == 3


def test_weak_b_link_region_is_a_rate_region(capsys):
    # the asymmetry lives in the base config, not in a second kind name
    rc = main(["region", "--trials", "1", "--points", "3", "--schemes", "fd2",
               "--gain-br", "-10", "--format", "json", "--workers", "1"])
    assert rc == 0
    meta = json.loads(capsys.readouterr().out)["metadata"]
    assert meta["kind"] == "rate_region"
    assert meta["base_config"]["gain_br"] == pytest.approx(0.1)


def test_stdout_when_no_out(capsys):
    rc = main(["sumrate", "--trials", "1", "--schemes", "fd2"])
    assert rc == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("sweep_value,scheme,")


def test_json_stdout_when_no_out(capsys):
    rc = main(["sumrate", "--trials", "1", "--schemes", "fd2", "--format", "json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["metadata"]["kind"] == "sumrate_vs_source_snr"
    assert [r["scheme"] for r in doc["rows"]] == ["fd2"]


def test_bad_scheme_exits_nonzero(capsys):
    rc = main(["sumrate", "--trials", "1", "--schemes", "bogus"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_missing_subcommand_raises():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code != 0


def test_config_file_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"m_r": 2, "sigma2_r": 0.1}))
    out = tmp_path / "o.json"
    rc = main(["sumrate", "--trials", "1", "--schemes", "fd2", "--config", str(cfg),
               "--format", "json", "--out", str(out)])
    assert rc == 0
    base = json.loads(out.read_text())["metadata"]["base_config"]
    assert (base["m_t"], base["m_r"], base["sigma2_r"]) == (3, 2, 0.1)


def _no_trial(payload):
    raise AssertionError("a trial ran")


@pytest.mark.parametrize("key", ["foo", "alpha_grid", "iter_max", "conv_tol", "grid_points"])
def test_unknown_config_key_exits_before_any_trial(key, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(fdtwrc.harness, "_run_task", _no_trial)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: 5}))
    rc = main(["sumrate", "--trials", "1", "--schemes", "fd2", "--config", str(cfg),
               "--workers", "1"])
    assert rc == 1
    assert f"error: unknown SystemConfig field {key}" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["[1]", '["m_t"]', "3", "null"])
def test_non_object_config_exits_before_any_trial(text, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(fdtwrc.harness, "_run_task", _no_trial)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    rc = main(["sumrate", "--trials", "1", "--schemes", "fd2", "--config", str(cfg),
               "--workers", "1"])
    assert rc == 1
    assert "must hold a JSON object" in capsys.readouterr().err


def test_non_integer_count_config_exits_before_any_trial(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(fdtwrc.harness, "_run_task", _no_trial)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"m_t": 2.5}))
    rc = main(["sumrate", "--trials", "1", "--schemes", "proposed,localcsi",
               "--config", str(cfg), "--workers", "1"])
    assert rc == 1
    assert "m_t must be an integer" in capsys.readouterr().err


def test_zero_b_link_gain_config_exits_before_any_trial(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(fdtwrc.harness, "_run_task", _no_trial)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"gain_br": 0}))
    rc = main(["sumrate", "--trials", "1", "--schemes", "proposed,localcsi",
               "--config", str(cfg), "--workers", "1"])
    assert rc == 1
    assert "gain_br" in capsys.readouterr().err


def test_b_link_gain_below_floor_exits_before_any_trial(monkeypatch, capsys):
    # -3000 dB is 1e-300, below SystemConfig's gain_br floor of 1e-100
    monkeypatch.setattr(fdtwrc.harness, "_run_task", _no_trial)
    rc = main(["sumrate", "--trials", "1", "--schemes", "proposed", "--gain-br", "-3000",
               "--workers", "1"])
    assert rc == 1
    assert "gain_br" in capsys.readouterr().err


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_seed_outside_uint64_exits_before_any_trial(seed, monkeypatch, capsys):
    monkeypatch.setattr(fdtwrc.harness, "_run_task", _no_trial)
    rc = main(["sumrate", "--trials", "1", "--schemes", "fd2", "--seed", seed, "--workers", "1"])
    assert rc == 1
    assert "error: seed must lie in [0, 2**64)" in capsys.readouterr().err


@pytest.mark.parametrize("override", ['{"p_r_max": NaN}', '{"sigma2_a": Infinity}'])
def test_non_finite_config_exits_before_any_trial(override, tmp_path, monkeypatch, capsys):
    # json.load accepts NaN and Infinity, so the config must refuse them
    monkeypatch.setattr(fdtwrc.harness, "_run_task", _no_trial)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(override)
    rc = main(["sumrate", "--trials", "1", "--schemes", "proposed,localcsi",
               "--config", str(cfg), "--workers", "1"])
    assert rc == 1
    assert "must be finite" in capsys.readouterr().err
