"""Command-line benchmark runner (``bspapa-bench``)."""

from __future__ import annotations

import argparse
import sys

from . import bench
from .filters import FilterConfig


def _cmd_run(args) -> int:
    config = bench.load_experiment_config(args.config)
    if args.seed is not None:
        config = bench.with_seed(config, args.seed)
    return _run_and_report(config, args.out or config.output_path or "traces.csv")


def _cmd_preset(args) -> int:
    flags = ("seed", "total_samples", "snr_db", "trace_decimation")
    given = {key: getattr(args, key) for key in flags if key in args}
    return _run_and_report(bench.preset_config(args.name, **given), args.out or f"{args.name}.csv")


def _run_and_report(config, out) -> int:
    traces, summary = bench.run_experiment(config)
    if traces:
        trace_path, summary_path = bench.write_traces_csv(traces, summary, out)
        print(f"wrote {trace_path} and {summary_path}")
    for label, reason in summary.failures.items():
        print(f"run failed: {label}: {reason}", file=sys.stderr)
    return 1 if summary.failures or not traces else 0


def _cmd_count_mults(args) -> int:
    # Instantiating the config validates the (L, M, P) combination.
    cfg = FilterConfig("bs-papa", args.L, args.M, args.P)
    print(
        f"L={args.L} M={args.M} P={args.P} (N={cfg.block_count}): "
        f"direct M*L = {args.M * args.L}, "
        f"efficient (P+M-1)*N = {cfg.multiplications_per_step}"
    )
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bspapa-bench",
        description="Run block-sparse proportionate affine projection benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run an experiment described by a JSON config file")
    run.add_argument("--config", required=True, help="path to the experiment JSON file")
    run.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    run.add_argument("--out", default=None, help="trace CSV output path")
    run.set_defaults(func=_cmd_run)

    # A flag left out stays out of the namespace, so preset_config's default applies.
    preset = sub.add_parser(
        "preset", help="run a built-in benchmark preset", argument_default=argparse.SUPPRESS
    )
    preset.add_argument("name", choices=bench.PRESET_NAMES)
    preset.add_argument("--out", default=None, help="trace CSV output path")
    preset.add_argument("--seed", type=int, help="scenario seed")
    preset.add_argument("--total-samples", type=int)
    preset.add_argument("--snr-db", type=float)
    preset.add_argument("--decimation", type=int, dest="trace_decimation", metavar="N")
    preset.set_defaults(func=_cmd_preset)

    count = sub.add_parser(
        "count-mults", help="print direct vs efficient regressor multiplication counts"
    )
    count.add_argument("--L", type=int, required=True, help="filter length")
    count.add_argument("--M", type=int, required=True, help="projection order")
    count.add_argument("--P", type=int, required=True, help="group size")
    count.set_defaults(func=_cmd_count_mults)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # ConfigError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
