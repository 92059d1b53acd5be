"""scripts/ab_bench.py: pairing of base and change runs."""

import importlib.util
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
