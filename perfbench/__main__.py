"""``python -m perfbench run | compare | spec``."""

from __future__ import annotations

import argparse
import sys

from perfbench import compare, runner, spec


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m perfbench", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)
    runner.add_arguments(commands.add_parser(
        "run", help="run the workloads, verify every reply, print every metric"))
    compare.add_arguments(commands.add_parser(
        "compare", help="compare two results.json files row by row"))
    spec_parser = commands.add_parser(
        "spec", help="print BENCHMARK.json as spec.py defines it")
    spec_parser.add_argument("--write", action="store_true",
                             help="rewrite BENCHMARK.json and the README table")
    args = parser.parse_args(argv)
    if args.command == "run":
        return runner.main(args)
    if args.command == "compare":
        return compare.main(args)
    if args.write:
        for path in spec.write_derived():
            print(f"wrote {path}")
    else:
        print(spec.render_benchmark_json(), end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
