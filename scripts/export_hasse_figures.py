#!/usr/bin/env python3
"""Export DOT drawings for the showcase posets.

Writes one .dot file per catalogued non-chain pair in the requested
degree range, named after its parameters and shape, e.g.
``deg6_ic2_jc2-4_stretched-diamond.dot``.  Render with graphviz:

    dot -Tsvg out/deg6_ic2_jc2-4_stretched-diamond.dot > figure.svg
"""
import argparse
import pathlib

from dcbruhat.cli import _parse_degree_range
from dcbruhat.poset import classify_shape
from dcbruhat.spherical import build_xplus_poset, spherical_pairs
from dcbruhat.symgroup import format_perm


def slug(values):
    return "-".join(str(v) for v in values) or "none"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--degrees", default="6..7", type=_parse_degree_range, help="degree or A..B range"
    )
    parser.add_argument("--out", default="figures", help="output directory")
    parser.add_argument(
        "--all", action="store_true",
        help="also export chains and points, not only the branching shapes",
    )
    args = parser.parse_args()

    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    written = 0
    for degree in args.degrees:
        for case in spherical_pairs(degree):
            p = build_xplus_poset(degree, case.i_complement, case.j_complement)
            shape = classify_shape(p)
            if not args.all and shape.tag in ("point", "chain"):
                continue
            name = (
                f"deg{degree}_ic{slug(case.i_complement)}"
                f"_jc{slug(case.j_complement)}_{shape.tag}.dot"
            )
            (out / name).write_text(p.to_dot(label=format_perm))
            written += 1
    print(f"wrote {written} files to {out}/")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
