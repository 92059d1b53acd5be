import json

import pytest

import fdtwrc.harness
from fdtwrc.cli import main
from fdtwrc.harness import read_table


def test_sumrate_writes_csv(tmp_path):
    out = tmp_path / "sumrate.csv"
    rc = main(["sumrate", "--trials", "2", "--seed", "3", "--schemes", "hd,fd2",
               "--out", str(out)])
    assert rc == 0
    table = read_table(out, "csv")
    assert {r.scheme for r in table.rows} == {"hd", "fd2"}


def test_sweep_json(tmp_path):
    out = tmp_path / "sweep.json"
    rc = main(["sweep", "--param", "relay-snr", "--values", "0,10", "--trials", "1",
               "--schemes", "fd2", "--format", "json", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["metadata"]["kind"] == "sumrate_vs_relay_snr"
    assert len(doc["rows"]) == 2


def test_region_command(tmp_path):
    out = tmp_path / "region.csv"
    rc = main(["region", "--trials", "1", "--points", "3", "--schemes", "fd2",
               "--out", str(out)])
    assert rc == 0
    table = read_table(out, "csv")
    assert len(table.rows) == 3


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
    cfg.write_text(json.dumps({"alpha_grid": 5, "iter_max": 3}))
    out = tmp_path / "o.csv"
    rc = main(["sumrate", "--trials", "1", "--schemes", "fd2", "--config", str(cfg),
               "--out", str(out)])
    assert rc == 0


def test_zero_b_link_gain_config_exits_before_any_trial(tmp_path, monkeypatch, capsys):
    def no_trial(payload):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(fdtwrc.harness, "_run_task", no_trial)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"gain_br": 0}))
    rc = main(["sumrate", "--trials", "1", "--schemes", "proposed,localcsi",
               "--config", str(cfg), "--workers", "1"])
    assert rc == 1
    assert "gain_br" in capsys.readouterr().err


@pytest.mark.parametrize("override", ['{"p_r_max": NaN}', '{"sigma2_a": Infinity}'])
def test_non_finite_config_exits_before_any_trial(override, tmp_path, monkeypatch, capsys):
    # json.load accepts NaN and Infinity, so the config must refuse them
    def no_trial(payload):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(fdtwrc.harness, "_run_task", no_trial)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(override)
    rc = main(["sumrate", "--trials", "1", "--schemes", "proposed,localcsi",
               "--config", str(cfg), "--workers", "1"])
    assert rc == 1
    assert "must be finite" in capsys.readouterr().err
