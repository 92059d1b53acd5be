"""Command-line front end: region / sumrate / sweep subcommands."""

import argparse
import json
import logging
import os
import sys
from dataclasses import fields, replace

import numpy as np

from .baselines import parse_scheme
from .harness import SWEEPS, ExperimentSpec, emit, run_experiment, table_to_csv, table_to_json
from .model import SystemConfig, db_to_linear

log = logging.getLogger("fdtwrc")

# sweep --param names the sum-rate kind: relay-snr is sumrate_vs_relay_snr
_SWEEP_PREFIX = "sumrate_vs_"


def _add_common(p, default_schemes):
    p.add_argument("--trials", type=int, default=100, help="channel realizations per point")
    p.add_argument("--seed", type=int, default=1, help="master seed")
    p.add_argument("--schemes", default=default_schemes,
                   help="comma list from: proposed,hd,fd2,ub,localcsi")
    p.add_argument("--snr-source", type=float, default=10.0, help="source SNR in dB")
    p.add_argument("--snr-relay", type=float, default=10.0, help="relay SNR in dB")
    p.add_argument("--si", type=float, default=-20.0, help="residual SI variance in dB")
    p.add_argument("--antennas", type=int, default=3, help="relay antennas (m_t = m_r)")
    p.add_argument("--gain-br", type=float, default=0.0, help="B-side link gain in dB")
    p.add_argument("--points", type=int, default=11, help="points on a region boundary (>= 2)")
    p.add_argument("--out", default=None, help="output path (default: stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--config", default=None, help="JSON file with SystemConfig overrides")
    p.add_argument("--workers", type=int, default=None, help="process pool size")


def _base_config(args):
    overrides = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            overrides = json.load(fh)
        if not isinstance(overrides, dict):
            raise ValueError(f"{args.config} must hold a JSON object of SystemConfig fields")
    unknown = sorted(set(overrides) - {f.name for f in fields(SystemConfig)})
    if unknown:
        raise ValueError(f"unknown SystemConfig field {', '.join(unknown)} in {args.config}")
    p_src = db_to_linear(args.snr_source)
    si = db_to_linear(args.si)
    base = SystemConfig(
        m_t=args.antennas, m_r=args.antennas,
        p_a_max=p_src, p_b_max=p_src, p_r_max=db_to_linear(args.snr_relay),
        sigma2_a=si, sigma2_b=si, sigma2_r=si,
        gain_br=db_to_linear(args.gain_br),
    )
    return replace(base, **overrides)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fdtwrc",
        description="Full-duplex two-way relay simulator: rate regions, sum "
                    "rates and parameter sweeps for the proposed scheme and "
                    "its benchmarks.")
    sub = parser.add_subparsers(dest="command", required=True)

    region = sub.add_parser("region", help="average achievable rate-region boundary")
    _add_common(region, "proposed,hd,fd2,ub")

    sumrate = sub.add_parser("sumrate", help="sum-rate comparison at one operating point")
    _add_common(sumrate, "proposed,hd,fd2,ub")

    sweep = sub.add_parser("sweep", help="sum rate against a swept parameter")
    _add_common(sweep, "proposed,hd,fd2")
    sweep.add_argument("--param", required=True, choices=sorted(
        k.removeprefix(_SWEEP_PREFIX).replace("_", "-") for k in SWEEPS))
    sweep.add_argument("--values", required=True,
                       help="comma list of sweep values (dB, or counts for antennas)")
    return parser


def main(argv=None):
    level = os.environ.get("FDTWRC_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")
    argv = list(sys.argv[1:] if argv is None else argv)
    for i in reversed(range(len(argv) - 1)):  # argparse reads "-30,-10" as an option
        if argv[i] == "--values" and argv[i + 1][:1] == "-" and argv[i + 1][1:2] != "-":
            argv[i:i + 2] = [f"--values={argv[i + 1]}"]
    args = build_parser().parse_args(argv)
    try:
        base = _base_config(args)
        schemes = tuple(parse_scheme(s) for s in args.schemes.split(",") if s.strip())
        if args.command == "region":
            kind = "rate_region"
            sweep_vals = tuple(np.linspace(0.0, 1.0, args.points))
        elif args.command == "sumrate":
            kind = "sumrate_vs_source_snr"
            sweep_vals = (args.snr_source,)
        else:
            kind = _SWEEP_PREFIX + args.param.replace("-", "_")
            sweep_vals = tuple(float(v) for v in args.values.split(","))
        spec = ExperimentSpec(kind=kind, schemes=schemes, sweep=sweep_vals,
                              trials=args.trials, seed=args.seed, base=base)
        table = run_experiment(spec, workers=args.workers)
        if args.out:
            emit(table, args.format, args.out)
            log.info("wrote %s (%d rows)", args.out, len(table.rows))
        elif args.format == "json":
            sys.stdout.write(table_to_json(table))
        else:
            sys.stdout.write(table_to_csv(table))
        return 0
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
