#!/usr/bin/env python3
"""Reproduce the two summary tables (dimensions and characters).

Usage:
    python scripts/reproduce_tables.py [--max-degree K] [--format md|json|csv]

Degree 9 dominates the runtime (a few seconds in all on a 2-core
machine); pass --max-degree 7 for a quick run.
"""

import argparse
import sys

from mccool.cli import main as cli_main


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-degree", type=int, default=9)
    parser.add_argument("--format", choices=("md", "json", "csv"), default="md")
    args = parser.parse_args()
    rc = cli_main(["dims", "--max-degree", str(args.max_degree), "--format", args.format])
    if rc:
        return rc
    if args.max_degree >= 6:
        rc = cli_main(
            ["characters", "--max-degree", str(args.max_degree), "--format", args.format]
        )
    return rc


if __name__ == "__main__":
    sys.exit(main())
