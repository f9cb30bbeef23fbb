#!/usr/bin/env python3
"""Tabulate how often each poset shape occurs across the catalogue.

For each degree, brute-force every catalogued pair, classify the
resulting poset, and print a census.  A disagreement between the
predicted family and the classification is flagged loudly; the height
column records the largest height seen per shape.
"""
import argparse
from collections import Counter, defaultdict

from dcbruhat.poset import classify_shape
from dcbruhat.spherical import build_xplus_poset, shape_in_family, spherical_pairs


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--degrees", default="4..7", help="degree or A..B range")
    args = parser.parse_args()

    lo, _, hi = args.degrees.partition("..")
    degrees = range(int(lo), int(hi or lo) + 1)

    for degree in degrees:
        counts: Counter = Counter()
        tallest: dict = defaultdict(int)
        mismatches = []
        for case in spherical_pairs(degree):
            p = build_xplus_poset(degree, case.i_complement, case.j_complement)
            shape = classify_shape(p)
            counts[str(shape)] += 1
            tallest[str(shape)] = max(tallest[str(shape)], p.height())
            if not shape_in_family(shape, case.predicted_shape):
                mismatches.append((case.key(), case.tag, str(shape)))
        print(f"degree {degree}: {sum(counts.values())} pairs")
        for name in sorted(counts):
            print(f"  {name:<22} x{counts[name]:<4} tallest {tallest[name]}")
        for key, tag, got in mismatches:
            print(f"  MISMATCH {key}: predicted {tag}, classified {got}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
