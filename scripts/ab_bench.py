"""A/B comparison of two fdtwrc checkouts on the perfbench workloads.

Runs ``perfbench/run.py --trace 0`` in a base checkout and in this one
(the change), alternating which goes first in each pair, and writes the
per-metric medians, quartiles and win counts of the end-to-end metrics
named in ``BENCHMARK.json``:

    python3 scripts/ab_bench.py --base HEAD~1 --workload sumrate_all4 \\
        --pairs 10 --out BENCH_10.json

``--base`` is a git revision of this repository; its tree is exported
with ``git archive`` into a temporary directory.  Every run lasts the
benchmark's ``run_seconds`` and uses the benchmark's own seed unless
``--seed`` is given; ``--held-out`` is passed on to ``run.py``.  Runs are
compared pair by pair: a pair in which either side did not report a
metric is left out of that metric's figures and counted in its
``skipped_pairs``.  An existing ``--out`` file is extended: the new rows
are added to (or replace) its rows.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", required=True, help="git revision of the base")
    p.add_argument("--workload", action="append", required=True,
                   help="perfbench workload; repeat for several")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--held-out", action="store_true")
    p.add_argument("--out", required=True, help="JSON file to write (or extend)")
    args = p.parse_args(argv)
    if args.pairs < 2:
        p.error("--pairs must be at least 2 (quartiles need two runs a side)")
    if args.held_out and args.seed is None:
        # run.py refuses the default seed as held out, and the rows would
        # replace the default seed's rows of the same workloads in --out
        p.error("--held-out needs a --seed other than the default")
    return args


def export_revision(rev, dest):
    """Write the tree of git revision ``rev`` of this repository under ``dest``."""
    archive = Path(dest) / "tree.tar"
    with open(archive, "wb") as fh:
        subprocess.run(["git", "archive", rev], cwd=ROOT, stdout=fh, check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(Path(dest) / "tree", filter="data")
    archive.unlink()
    return Path(dest) / "tree"


def git_commit(path):
    """The checkout's HEAD, marked ``-dirty`` when its tree has changes."""
    proc = subprocess.run(["git", "describe", "--always", "--dirty", "--abbrev=40"],
                          cwd=path, capture_output=True, text=True, check=False)
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_once(checkout, workload, seconds, seed, held_out):
    """One ``run.py`` call; returns its final JSON line plus the wall time."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seconds", str(seconds), "--trace", "0"]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    if held_out:
        cmd.append("--held-out")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True,
                          check=False)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "metrics": {}, "error": proc.stderr[-2000:]}
    result["wall_s"] = wall
    return result


def summary(values):
    """Median and quartiles of ``values``; ``None`` when there are none."""
    if not values:
        return None
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "values": values}


def compare(metric, better, base_runs, change_runs):
    """Pair run ``i`` of the base with run ``i`` of the change.

    A pair in which either run lacks ``metric`` is skipped and counted, so a
    failed run shows in the row instead of shifting the pairs after it.
    """
    pairs = [(b["metrics"][metric]["value"], c["metrics"][metric]["value"])
             for b, c in zip(base_runs, change_runs, strict=True)
             if metric in b["metrics"] and metric in c["metrics"]]
    base = summary([x for x, _ in pairs])
    change = summary([y for _, y in pairs])
    sign = 1.0 if better == "higher" else -1.0
    return {
        "better": better,
        "base": base,
        "change": change,
        "change_over_base": (change["median"] / base["median"]
                             if pairs and base["median"] else None),
        "change_wins": sum(sign * (y - x) > 0 for x, y in pairs),
        "ties": sum(y == x for x, y in pairs),
        "pairs": len(pairs),
        "skipped_pairs": len(base_runs) - len(pairs),
        "base_iqr": base["q3"] - base["q1"] if pairs else None,
    }


def main(argv=None):
    args = parse_args(argv)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    directions = {m["name"]: m["better"] for m in bench["end_to_end"]}
    base_rev = subprocess.run(["git", "rev-parse", "--verify", args.base + "^{commit}"],
                              cwd=ROOT, check=True, capture_output=True,
                              text=True).stdout.strip()
    with tempfile.TemporaryDirectory(prefix="ab_bench_") as tmp:
        base = export_revision(base_rev, tmp)
        rows = {}
        for workload in args.workload:
            runs = {"base": [], "change": []}
            for i in range(args.pairs):
                order = ("base", "change") if i % 2 == 0 else ("change", "base")
                for side in order:
                    path = base if side == "base" else ROOT
                    res = run_once(path, workload, seconds, args.seed, args.held_out)
                    runs[side].append(res)
                    print(f"{workload} pair {i + 1}/{args.pairs} {side}: "
                          f"correct={res.get('correct')} "
                          + " ".join(f"{k}={v['value']:.4g}"
                                     for k, v in res.get("metrics", {}).items()),
                          flush=True)
            key = f"{workload}-seed{args.seed if args.seed is not None else 'default'}"
            rows[key] = {
                "workload": workload,
                "seed": args.seed,
                "held_out": args.held_out,
                "seconds": seconds,
                "pairs": args.pairs,
                "all_correct": all(r.get("correct") for side in runs.values() for r in side),
                "metrics": {m: compare(m, better, runs["base"], runs["change"])
                            for m, better in directions.items()},
            }
    out = Path(args.out)
    record = json.loads(out.read_text()) if out.exists() else {}
    record.setdefault("rows", {}).update(rows)
    record["base"] = base_rev
    record["change"] = git_commit(ROOT) or str(ROOT)
    record["environment"] = {"cpu_count": os.cpu_count(), "python": platform.python_version(),
                             "machine": platform.machine()}
    out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
