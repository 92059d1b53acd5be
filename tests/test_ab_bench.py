"""scripts/ab_bench.py: pairing of base and change runs."""

import importlib.util
import io
import json
import tarfile
import tempfile
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "ab_bench.py"
_spec = importlib.util.spec_from_file_location("ab_bench", _PATH)
ab_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_bench)


def _runs(values):
    """run.py results with one metric, ``None`` standing for a failed run."""
    return [{"metrics": {} if v is None else {"m": {"value": v}}} for v in values]


class TestCompare:
    def test_failed_runs_skip_their_pair(self):
        # Base run 1 and change run 3 failed: pairs 0 and 2 remain.  Dropping
        # the failures side by side would pair base 3.0 with change 20.0.
        cmp = ab_bench.compare("m", "higher", _runs([1.0, None, 3.0, 4.0]),
                               _runs([10.0, 0.5, 2.0, None]))
        assert cmp["pairs"] == 2
        assert cmp["skipped_pairs"] == 2
        assert cmp["base"]["values"] == [1.0, 3.0]
        assert cmp["change"]["values"] == [10.0, 2.0]
        assert cmp["change_wins"] == 1

    def test_one_complete_pair(self):
        cmp = ab_bench.compare("m", "lower", _runs([2.0, None]), _runs([1.0, 5.0]))
        assert cmp["pairs"] == 1 and cmp["skipped_pairs"] == 1
        assert cmp["base"]["median"] == cmp["base"]["q1"] == cmp["base"]["q3"] == 2.0
        assert cmp["change_over_base"] == 0.5
        assert cmp["change_wins"] == 1
        assert cmp["base_iqr"] == 0.0

    def test_no_complete_pair(self):
        cmp = ab_bench.compare("m", "higher", _runs([None, 1.0]), _runs([1.0, None]))
        assert cmp["pairs"] == 0 and cmp["skipped_pairs"] == 2
        assert cmp["base"] is None and cmp["change"] is None
        assert cmp["change_over_base"] is None and cmp["base_iqr"] is None

    def test_wins_and_ties_by_direction(self):
        base, change = _runs([1.0, 2.0, 3.0]), _runs([2.0, 2.0, 1.0])
        higher = ab_bench.compare("m", "higher", base, change)
        lower = ab_bench.compare("m", "lower", base, change)
        assert (higher["change_wins"], higher["ties"]) == (1, 1)
        assert (lower["change_wins"], lower["ties"]) == (1, 1)
        assert higher["base"]["median"] == 2.0


def test_run_length_comes_from_the_benchmark():
    with pytest.raises(SystemExit):
        ab_bench.parse_args(["--base", "HEAD", "--workload", "w", "--out", "o.json",
                             "--seconds", "10"])


def test_held_out_needs_its_own_seed():
    with pytest.raises(SystemExit):
        ab_bench.parse_args(["--base", "HEAD", "--workload", "w", "--out", "o.json",
                             "--held-out"])
    args = ab_bench.parse_args(["--base", "HEAD", "--workload", "w", "--out", "o.json",
                                "--held-out", "--seed", "7"])
    assert (args.held_out, args.seed) == (True, 7)


class _FakeGit:
    """Stands in for ``ab_bench.git``: a fixed ``status`` output, a fake
    hash per revision, and a one-file tree for ``archive``."""

    def __init__(self, status=""):
        self.status = status
        self.archived = []

    def __call__(self, *args, stdout=None):
        if args[0] == "status":
            return self.status
        if args[0] == "rev-parse":
            rev = args[2].removesuffix("^{commit}")
            return ("a" if rev == "HEAD" else "b") * 40 + "\n"
        assert args[0] == "archive"
        self.archived.append(args[1])
        with tarfile.open(fileobj=stdout, mode="w") as tar:
            data = args[1].encode()
            info = tarfile.TarInfo("REVISION")
            info.size = len(data)
            tar.addfile(info, io.BytesIO(data))
        return None


def _main(monkeypatch, tmp_path, git):
    exports = tmp_path / "tmp"
    exports.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(exports))
    monkeypatch.setattr(ab_bench, "git", git)
    runs = []

    def run_once(checkout, workload, seconds, seed, held_out):
        runs.append((Path(checkout), (Path(checkout) / "REVISION").read_text()))
        return {"correct": True, "metrics": {"trials_per_s": {"value": 1.0}}}

    monkeypatch.setattr(ab_bench, "run_once", run_once)
    out = tmp_path / "ab.json"
    rc = ab_bench.main(["--base", "HEAD~1", "--workload", "w", "--pairs", "2",
                        "--out", str(out)])
    return rc, runs, exports, out


def test_both_sides_run_from_exports(monkeypatch, tmp_path):
    git = _FakeGit()
    rc, runs, exports, out = _main(monkeypatch, tmp_path, git)
    assert rc == 0
    assert git.archived == ["b" * 40, "a" * 40]
    assert len(runs) == 4
    for checkout, _ in runs:
        assert checkout.is_relative_to(exports)
        assert not checkout.is_relative_to(ab_bench.ROOT)
    # pairs alternate the order; the change side ran HEAD's tree
    assert [rev for _, rev in runs] == ["b" * 40, "a" * 40, "a" * 40, "b" * 40]
    record = json.loads(out.read_text())
    assert (record["base"], record["change"]) == ("b" * 40, "a" * 40)


def test_dirty_tree_exits_before_any_run(monkeypatch, tmp_path):
    git = _FakeGit(status=" M src/fdtwrc/model.py\n")
    rc, runs, _, out = _main(monkeypatch, tmp_path, git)
    assert rc != 0
    assert runs == [] and git.archived == []
    assert not out.exists()
