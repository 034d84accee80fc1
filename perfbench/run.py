"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload yield_lot --seed 1 --seconds 15 --trace 0

Run it from a checkout of the repository: the program under test is
imported from ``src/`` next to this directory.  The last line of
standard output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``; the lines above it are the same figures for people, with
the seed, sample counts and, for traced runs, each layer's share.
``--trace 0`` reports the ``end_to_end`` metrics of ``BENCHMARK.json``,
``--trace 1`` its ``per_layer`` metrics.  A wrong result prints
``"correct": false`` and exits 1; a run that cannot start exits 2
without a result.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true",
        help="shrink every job (the benchmark's own tests)",
    )
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def load_contract() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def result_line(record: dict, contract: dict, trace: bool) -> dict:
    """The contract's last line: the metrics the run mode promises."""
    wanted = contract["per_layer" if trace else "end_to_end"]
    metrics = {}
    for metric in wanted:
        if metric["name"] not in record["metrics"]:
            raise RuntimeError(f"metric {metric['name']!r} was not measured")
        metrics[metric["name"]] = {
            "value": record["metrics"][metric["name"]],
            "unit": metric["unit"],
        }
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }


def print_report(record: dict, line: dict) -> None:
    print(
        f"# {record['workload']}  seed={record['seed']}  trace={int(record['trace'])}  "
        f"jobs={record['samples']}  attempted={record['attempted']}  "
        f"failed={record['failed']}  failed_frac={record['metrics']['failed_frac']:.4g} ratio"
    )
    for key, value in sorted(record["notes"].items()):
        print(f"#   {key} = {value}")
    for failure in record["failures"][:10]:
        print(f"#   FAILED: {failure}")
    for name, entry in line["metrics"].items():
        print(f"{name:<32} {entry['value']:>14.6g} {entry['unit']}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import measure

    if args.workload not in measure.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {measure.WORKLOADS}", file=sys.stderr)
        return 2
    if args.probe_setup:
        measure.probe_setup(args.workload, args.tiny)
        return 0
    contract = load_contract()
    try:
        if args.workload == "service_mix":
            record = measure.run_service_workload(args.seed, args.seconds, bool(args.trace), args.tiny)
        else:
            record = measure.run_session_workload(
                args.workload, args.seed, args.seconds, bool(args.trace), args.tiny
            )
    except measure.BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    line = result_line(record, contract, bool(args.trace))
    print_report(record, line)
    print(json.dumps(line), flush=True)
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
