"""
Command-line surface.

Subcommands: ``cosets`` (double coset table), ``hasse`` (the longest
representative poset), ``verify`` (catalogue sweep), ``tight`` (orbit
tightness scan), ``compare`` (one comparison), ``orbit`` (weight orbit
poset).  Genset flags take the COMPLEMENTS of the two generating sets,
matching how the catalogue is parameterized.

Exit codes: 0 success, 1 verification failure, 2 usage or domain error.
"""
from __future__ import annotations

import os
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING, NamedTuple

from . import bruhat, parabolic, spherical, weights
from .symgroup import (
    DEFAULT_DEGREE_CAP,
    CapExceeded,
    format_perm,
    full_genset,
    parse_genset,
    parse_perm,
)

if TYPE_CHECKING:
    import argparse

ENV_DEGREE_CAP = "DCBRUHAT_DEGREE_CAP"


def _degree_cap(args, default: int = DEFAULT_DEGREE_CAP) -> int:
    if args.degree_cap is not None:
        return args.degree_cap
    env = os.environ.get(ENV_DEGREE_CAP)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"bad {ENV_DEGREE_CAP} value: {env!r}") from None
    return default


def _check_degree(degree: int, cap: int) -> int:
    if degree < 2:
        raise ValueError(f"degree must be at least 2, got {degree}")
    if degree > cap:
        raise CapExceeded(f"degree {degree} exceeds the cap {cap}")
    return degree


def _complements(args):
    degree = args.degree
    ic = parse_genset(args.ic)
    jc = parse_genset(args.jc)
    full = full_genset(degree)
    if not ic <= full or not jc <= full:
        raise ValueError(
            f"complement indices must lie in 1..{degree - 1}: ic={args.ic} jc={args.jc}"
        )
    return ic, jc


def _emit(text: str, args) -> None:
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write {args.output}: {exc.strerror}") from None
    else:
        sys.stdout.write(text)


def _parse_degree_range(text: str) -> list[int]:
    lo_text, dots, hi_text = text.partition("..")
    try:
        lo = int(lo_text)
        hi = int(hi_text) if dots else lo
    except ValueError:
        raise ValueError(f"bad degree range: {text!r}") from None
    if lo < 2 or hi < lo:
        raise ValueError(f"bad degree range: {text!r}")
    return list(range(lo, hi + 1))


def cmd_cosets(args) -> int:
    degree = _check_degree(args.degree, _degree_cap(args))
    ic, jc = _complements(args)
    full = full_genset(degree)
    table = parabolic.decompose(degree, full - ic, full - jc)
    _emit(table.to_json() if args.format == "json" else table.to_table(), args)
    return 0


def cmd_hasse(args) -> int:
    degree = _check_degree(args.degree, _degree_cap(args))
    ic, jc = _complements(args)
    poset = spherical.build_xplus_poset(degree, ic, jc)
    if args.format == "dot":
        _emit(poset.to_dot(label=format_perm), args)
    else:
        _emit(poset.to_json(label=list), args)
    return 0


def cmd_verify(args) -> int:
    cap = _degree_cap(args)
    degrees = _parse_degree_range(args.degrees)
    for degree in degrees:
        _check_degree(degree, cap)
    all_pass = True
    chunks = []
    for degree in degrees:
        report = spherical.verify_theorem(degree)
        all_pass = all_pass and report.all_pass
        chunks.append(report.to_json() if args.format == "json" else report.to_table())
    _emit("".join(chunks), args)
    return 0 if all_pass else 1


def cmd_tight(args) -> int:
    report = weights.tight_scan(args.degree, _degree_cap(args, weights.TIGHT_SCAN_CAP))
    if args.format == "json":
        _emit(report.to_json(), args)
    else:
        _emit(report.to_table(), args)
    return 0 if report.all_match else 1


def cmd_compare(args) -> int:
    u = parse_perm(args.first)
    v = parse_perm(args.second)
    if args.oracle:
        result = bruhat.leq_subword_oracle(u, v)
    else:
        result = bruhat.leq(u, v)
    _emit(("true" if result else "false") + "\n", args)
    return 0


def cmd_orbit(args) -> int:
    theta = weights.check_dominant(weights.parse_weight(args.theta))
    cap = _degree_cap(args)
    if len(theta) > cap:
        raise CapExceeded(f"degree {len(theta)} exceeds the cap {cap}")
    restriction = None
    if args.restrict is not None:
        restriction = parse_genset(args.restrict)
    built = weights.orbit_poset(theta, restriction)
    if args.format == "dot":
        _emit(built.poset.to_dot(label=weights.format_weight), args)
    elif args.format == "json":
        _emit(built.poset.to_json(label=weights.format_weight), args)
    else:
        lines = [f"theta {weights.format_weight(theta)}  members {len(built.members)}"]
        for mu in built.members:
            lines.append(weights.format_weight(mu))
        _emit("\n".join(lines) + "\n", args)
    return 0


class Option(NamedTuple):
    """One command-line argument: ``--flag VALUE``, a switch or a positional.

    ``kind`` is ``int`` or ``str`` for a flag that takes a value,
    ``bool`` for a switch that takes none; a ``flag`` without leading
    dashes names a positional argument.
    """

    flag: str
    dest: str
    kind: type = str
    required: bool = False
    default: object = None
    choices: tuple[str, ...] | None = None
    help: str | None = None


def _common(formats: tuple[str, ...], default_format: str) -> tuple[Option, ...]:
    return (
        Option("--format", "format", default=default_format, choices=formats),
        Option("--output", "output", help="write to a file instead of stdout"),
        Option("--degree-cap", "degree_cap", int,
               help=f"override the degree cap (env {ENV_DEGREE_CAP})"),
    )


_DEGREE = Option("--degree", "degree", int, required=True)

#: Each subcommand's help line, handler and options, in help order.
#: ``build_parser`` and ``read_argv`` both read this table.
COMMANDS = {
    "cosets": ("double coset table for one pair", cmd_cosets, (
        _DEGREE,
        Option("--ic", "ic", required=True, help="left genset complement, e.g. {2}"),
        Option("--jc", "jc", required=True, help="right genset complement, e.g. {2,4}"),
    ) + _common(("json", "table"), "table")),
    "hasse": ("poset of longest representatives", cmd_hasse, (
        _DEGREE,
        Option("--ic", "ic", required=True),
        Option("--jc", "jc", required=True),
    ) + _common(("dot", "json"), "dot")),
    "verify": ("run the catalogue checks", cmd_verify, (
        Option("--degrees", "degrees", required=True, help="a degree or range, e.g. 4..6"),
    ) + _common(("table", "json"), "table")),
    "tight": ("orbit tightness scan for one degree", cmd_tight,
              (_DEGREE,) + _common(("table", "json"), "table")),
    "compare": ("compare two permutations in strong order", cmd_compare, (
        Option("first", "first", required=True),
        Option("second", "second", required=True),
        Option("--oracle", "oracle", bool, default=False,
               help="use the slow subword check instead of the prefix test"),
        Option("--output", "output"),
    )),
    "orbit": ("weight orbit poset", cmd_orbit, (
        Option("--theta", "theta", required=True, help="dominant weight, e.g. 2,1,1,0"),
        Option("--restrict", "restrict",
               help="genset the orbit members must respect, e.g. {1,3}"),
    ) + _common(("dot", "json", "table"), "table")),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The argument parser, with every subcommand's arguments or only command's.

    All six subcommands are registered either way, so the top-level help
    and the invalid-choice error do not depend on command; parsing one
    subcommand's command line needs only that subcommand's arguments.
    """
    import argparse

    parser = argparse.ArgumentParser(
        prog="dcbruhat",
        description="Double coset posets of the symmetric group under strong order.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, func, options) in COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        if command not in (None, name):
            continue
        for opt in options:
            kwargs = {"help": opt.help}
            if opt.kind is bool:
                kwargs["action"] = "store_true"
            else:
                kwargs.update(type=int if opt.kind is int else None,
                              default=opt.default, choices=opt.choices)
            if opt.flag.startswith("-"):
                kwargs.update(dest=opt.dest, required=opt.required)
            p.add_argument(opt.flag, **kwargs)
        p.set_defaults(func=func)
    return parser


def read_argv(argv) -> SimpleNamespace | None:
    """What ``build_parser().parse_args(argv)`` returns, for well-formed calls.

    Takes ``COMMAND --flag VALUE ...`` with full flag spellings, each
    flag at most once and every required one present, no value starting
    with ``-``, int values that ``int()`` accepts and a ``--format``
    among its choices.  Returns None for anything else (help, switches,
    positionals, abbreviations, ``--flag=VALUE``, usage errors), which
    ``main`` hands to argparse for its own messages and exit codes.
    """
    if not argv or argv[0] not in COMMANDS:
        return None
    _, func, options = COMMANDS[argv[0]]
    valued = {
        opt.flag: opt for opt in options if opt.flag.startswith("--") and opt.kind is not bool
    }
    words = argv[1:]
    if len(words) % 2:
        return None
    values = {"command": argv[0], "func": func}
    values.update((opt.dest, opt.default) for opt in options)
    seen = set()
    for flag, value in zip(words[::2], words[1::2]):
        opt = valued.get(flag)
        if opt is None or opt.dest in seen or value.startswith("-"):
            return None
        if opt.kind is int:
            try:
                value = int(value)
            except ValueError:
                return None
        elif opt.choices is not None and value not in opt.choices:
            return None
        values[opt.dest] = value
        seen.add(opt.dest)
    if any(opt.required and opt.dest not in seen for opt in options):
        return None
    return SimpleNamespace(**values)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = read_argv(argv)
    if args is None:
        try:
            args = build_parser(argv[0] if argv else None).parse_args(argv)
        except SystemExit as exc:
            return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ValueError, CapExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())
