#!/usr/bin/env python3
"""Tabulate how often each poset shape occurs across the catalogue.

For each degree, read the catalogue sweep's rows and print a census of
the classified shapes.  A disagreement between the predicted family and
the classification is flagged loudly; the height column records the
largest height seen per shape.
"""
import argparse
from collections import Counter, defaultdict

from dcbruhat.cli import _parse_degree_range
from dcbruhat.spherical import verify_theorem


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--degrees", default="4..7", type=_parse_degree_range, help="degree or A..B range"
    )
    args = parser.parse_args()

    for degree in args.degrees:
        counts: Counter = Counter()
        tallest: dict = defaultdict(int)
        mismatches = []
        for row in verify_theorem(degree).rows:
            shape = str(row.actual_shape)
            counts[shape] += 1
            tallest[shape] = max(tallest[shape], row.height)
            if not row.shape_ok:
                mismatches.append((row.case.key(), row.case.tag, shape))
        print(f"degree {degree}: {sum(counts.values())} pairs")
        for name in sorted(counts):
            print(f"  {name:<22} x{counts[name]:<4} tallest {tallest[name]}")
        for key, tag, got in mismatches:
            print(f"  MISMATCH {key}: predicted {tag}, classified {got}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
