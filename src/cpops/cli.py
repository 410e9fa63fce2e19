"""Command-line front end.

Subcommands: dim, count, patterns, pops, monomials, char, branch, verify.
Weights are given in exactly one coordinate system, either --omegas with the
fundamental-weight multiplicities or --lambdas with the weakly decreasing
tuple; --rank is optional and must agree with the tuple length when present.

Listings stream one JSON object per line (--format json) or one display line
per item (--format text) and are deterministic across runs. The patterns,
pops and monomials listings walk pattern chains, render each chain row and
each gap block (the gap positions between two adjacent rows) once, and write
their lines in batches of at most BATCH_LINES. `char` computes only the
dominant part of the character and writes the output from it, grade by
grade, in bulk writes, rendering each image of a dominant weight's signed
orbit once; the full character is never built. Exit status is 0 on
success, 1 when a requested check fails, 2 on usage errors (a --max-total
too large to sweep and a dimension too long to print among them), 3 on an
internal error (one stderr line, no traceback), 141 when the reader closes
stdout early.
"""

from __future__ import annotations

import argparse
import itertools
import json
import operator
import os
import sys

from .branching import (
    count_chains,
    shtepin_branch_l,
    shtepin_branch_v,
    verify_identities,
    weyl_filtration,
)
# char writes from the dominant part and calls none of character_direct,
# character_fermionic and character_to_*; perfbench/traced.py wraps these
# names here.
from .characters import (  # noqa: F401
    character_direct,
    character_fermionic,
    character_to_csv,
    character_to_json,
    character_to_latex,
    character_to_text,
    dominant_character_direct,
    dominant_character_fermionic,
    write_csv,
    write_json,
    write_latex,
    write_text,
)
from .oracle import weyl_dim
# count and dim --check read count_chains and the listings walk
# pattern_chains; the four enumerate_* names are imported only so that
# perfbench/traced.py can wrap them under this module's name.
from .patterns import (  # noqa: F401
    _Memo,
    enumerate_patterns,
    enumerate_restricted_patterns,
    overlay_positions,
    pattern_chains,
)
# The pops and monomials listings render from memos of rows and gap blocks
# and call none of pop_to_json, pop_monomial and monomial_to_json, which stay
# the reference for their lines; perfbench/traced.py wraps these names here.
from .pops import (  # noqa: F401
    _BOXES,
    _block_lists,
    _Blocks,
    enumerate_pops,
    enumerate_restricted_pops,
    monomial_to_json,
    pop_count_formula,
    pop_count_log10,
    pop_monomial,
    pop_to_json,
    restricted_pop_count_formula,
)
from .rootsys import DominantWeight, label_text, sweep_dominant_weights

# `dim` prints counts of at most this many digits, CPython's default limit
# for converting an int to a string.
MAX_DIGITS = 4300

# `verify --rank R --max-total T` refuses sweeps of more weight coordinates
# (rank times weights) than this: at about 3.5 ms per weight of the rank-3
# sweep to total 3 (2-core x86 host), a third of that many weights takes
# about 20 minutes, and larger weights take longer.
MAX_SWEEP = 10 ** 6

MONOMIAL_GRAMMAR = (
    'monomial text grammar: WORD := "1" | FACTOR (" " FACTOR)* ; '
    'FACTOR := "x-(" I "," J ["~"] ")@t^" S with "~" marking a barred label'
)


def _parse_int_tuple(text: str, parser: argparse.ArgumentParser, flag: str) -> tuple:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        parser.error(f"{flag} expects a comma-separated integer list, got {text!r}")


def _resolve_weight(args, parser: argparse.ArgumentParser) -> DominantWeight:
    has_omegas = getattr(args, "omegas", None) is not None
    has_lambdas = getattr(args, "lambdas", None) is not None
    if has_omegas == has_lambdas:
        parser.error("supply exactly one of --omegas or --lambdas")
    try:
        if has_omegas:
            weight = DominantWeight.from_omegas(
                _parse_int_tuple(args.omegas, parser, "--omegas"))
        else:
            weight = DominantWeight(
                _parse_int_tuple(args.lambdas, parser, "--lambdas"))
    except ValueError as exc:
        parser.error(str(exc))
    if args.rank is not None and args.rank != weight.rank:
        parser.error(f"--rank {args.rank} inconsistent with weight length {weight.rank}")
    return weight


def _add_weight_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--rank", type=int, default=None,
                     help="rank r; optional, checked against the weight length")
    sub.add_argument("--omegas", default=None,
                     help="fundamental-weight multiplicities m_1,...,m_r")
    sub.add_argument("--lambdas", default=None,
                     help="weakly decreasing tuple lam_1,...,lam_r")


def cmd_dim(args, parser) -> int:
    weight = _resolve_weight(args, parser)
    what = "dim V" if args.irreducible else "the overlaid-pattern count"
    too_many = f"{what} has more than {MAX_DIGITS} digits"
    if not args.irreducible and pop_count_log10(weight) > MAX_DIGITS + 1:
        parser.error(too_many)  # refused before the power is taken
    value = weyl_dim(weight) if args.irreducible else pop_count_formula(weight)
    if value >= 10 ** MAX_DIGITS:
        parser.error(too_many)
    if args.check:
        counted = count_chains(weight)[0 if args.irreducible else 1]
        if counted != value:
            print(f"mismatch: formula {value}, sum over rows {counted}",
                  file=sys.stderr)
            return 1
    print(value)
    return 0


def cmd_count(args, parser) -> int:
    weight = _resolve_weight(args, parser)
    counts = dict(zip(("patterns", "pops"), count_chains(weight)))
    if args.restricted:
        eta = weight.lam
        counts["restricted_patterns"], counts["restricted_pops"] = count_chains(eta, True)
        counts["restricted_pop_formula"] = restricted_pop_count_formula(eta)
    counts["pop_formula"] = pop_count_formula(weight)
    if args.format == "json":
        print(json.dumps(counts, sort_keys=True))
    else:
        for name in sorted(counts):
            print(f"{name}: {counts[name]}")
    return 0


def _print_stream(items, to_json, to_text, fmt: str) -> None:
    for item in items:
        if fmt == "json":
            print(json.dumps(to_json(item), sort_keys=True))
        else:
            print(to_text(item))


# Each chain row rendered once as a JSON array, keyed by the row tuple; a
# row set renders as "[" + ", ".join(rows) + "]". Without this memo
# `patterns --omegas 1,1,1,1` took 1.15 s instead of 0.49 s on a 2-core x86
# host. It is module-level, so _row_set needs no memo passed in: a listing
# walks far fewer distinct rows than patterns, and a process runs one
# command.
_ROWS = _Memo(lambda *row: "[" + ", ".join(map(str, row)) + "]")


def _row_set(rows) -> str:
    return "[" + ", ".join(map(_ROWS.__getitem__, rows)) + "]"


# The listings read pattern chains (rows bottom-up: eta^1, lambda^1, ...),
# so the eta rows are rows[::2] and the lambda rows rows[1::2].
def _pattern_text(rows) -> str:
    return f"eta={_row_set(rows[::2])} lambda={_row_set(rows[1::2])}"


def _pattern_json(rows) -> str:
    # json.dumps(pattern_to_json(PatternC.from_rows(rows)), sort_keys=True)
    return (f'{{"eta": {_row_set(rows[::2])}, "lambda": {_row_set(rows[1::2])}, '
            f'"rank": {len(rows[-1])}}}')


# Lines go out in one write per batch of at most this many, so a pattern
# with a huge overlay product is never held whole.
BATCH_LINES = 1024


def _write_lines(write, head: str, lines, tail: str) -> None:
    # Each line framed by head and tail, in one write per batch.
    glue = tail + head
    while True:
        batch = list(itertools.islice(lines, BATCH_LINES))
        if batch:
            write(head + glue.join(batch) + tail)
        if len(batch) < BATCH_LINES:
            return


def cmd_patterns(args, parser) -> int:
    weight = _resolve_weight(args, parser)
    line = _pattern_json if args.format == "json" else _pattern_text
    _write_lines(sys.stdout.write, "",
                 map(line, pattern_chains(weight, args.restricted)), "\n")
    return 0


def _position_json(pos) -> str:
    # The "barred", "i" and "j" members of a position's JSON object.
    i, j, barred = pos
    return f'"barred": {"true" if barred else "false"}, "i": {i}, "j": {j}'


# A slot is the text of one gap position under one partition of its box; a
# listing line joins one slot per position. Each format renders a position's
# slots, one per partition in _BOXES order, from (position, box), for a
# pops._Blocks memo that the command makes.

def _pops_json_slots(pos, box) -> list:
    prefix = f'{{{_position_json(pos)}, "parts": '
    return [f"{prefix}[{', '.join(map(str, parts))}]}}" for parts in _BOXES[box]]


def _pops_text_slots(pos, box) -> list:
    # The overlays as one JSON object keyed by label: each slot starts with
    # its quoted label.
    key = f'"{label_text(pos)}": '
    return [key + "[" + ", ".join(map(str, parts)) + "]" for parts in _BOXES[box]]


def _word_slots(by_t: list, box, sep: str) -> list:
    # A partition's factors, one per part t, joined.
    return [sep.join(map(by_t.__getitem__, parts)) for parts in _BOXES[box]]


def _words_text_slots(pos, box) -> list:
    return _word_slots([f"x-{label_text(pos)}@t^{t}" for t in range(box[1] + 1)],
                       box, " ")


def _words_json_slots(pos, box) -> list:
    prefix = f'{{{_position_json(pos)}, "t": '
    return _word_slots([f"{prefix}{t}}}" for t in range(box[1] + 1)], box, ", ")


def _words_degrees(pos, box) -> list:
    # The t-degree of each partition, in the same order as the word slots.
    return list(map(sum, _BOXES[box]))


def cmd_pops(args, parser) -> int:
    weight = _resolve_weight(args, parser)
    text = args.format == "text"
    blocks = _Blocks(_pops_text_slots if text else _pops_json_slots)
    order = None
    if text:
        # Slots go out sorted by label, as json.dumps(sort_keys=True) gives
        # them; the order is the same for every pattern of the listing.
        labels = list(map(label_text, overlay_positions(
            weight.rank, restricted=args.restricted)))
        if len(labels) > 1:  # one or no slot is already in order
            order = operator.itemgetter(*sorted(range(len(labels)), key=labels.__getitem__))
    write = sys.stdout.write
    for rows in pattern_chains(weight, args.restricted):
        combos = itertools.product(*_block_lists(blocks, rows))
        if order is not None:
            combos = map(order, combos)
        if text:
            head, tail = f"{_pattern_text(rows)} overlays={{", "}\n"
        else:
            head = (f'{{"eta": {_row_set(rows[::2])}, '
                    f'"lambda": {_row_set(rows[1::2])}, "overlays": [')
            tail = f'], "rank": {len(rows[-1])}}}\n'
        _write_lines(write, head, map(", ".join, combos), tail)
    return 0


def cmd_monomials(args, parser) -> int:
    weight = _resolve_weight(args, parser)
    write = sys.stdout.write
    if args.format == "text":
        blocks = _Blocks(_words_text_slots, words=True)
        for rows in pattern_chains(weight, False):
            # The empty word prints "1".
            slots = _block_lists(blocks, rows) or [["1"]]
            _write_lines(write, "", map(" ".join, itertools.product(*slots)), "\n")
        return 0
    blocks = _Blocks(_words_json_slots, words=True)
    degree_blocks = _Blocks(_words_degrees, words=True)
    line = '{}, "factors": [{}'.format
    for rows in pattern_chains(weight, False):
        degrees = itertools.product(*_block_lists(degree_blocks, rows))
        words = itertools.product(*_block_lists(blocks, rows))
        _write_lines(write, '{"degree": ', map(line, map(sum, degrees),
                                               map(", ".join, words)), "]}\n")
    return 0


CHARACTER_WRITERS = {"json": write_json, "csv": write_csv, "latex": write_latex,
                     "text": write_text}


def cmd_char(args, parser) -> int:
    weight = _resolve_weight(args, parser)
    ch = (dominant_character_fermionic if args.method == "fermionic"
          else dominant_character_direct)(weight)
    if args.method == "both" and ch != dominant_character_fermionic(weight):
        print("character mismatch between direct and fermionic methods",
              file=sys.stderr)
        return 1
    CHARACTER_WRITERS[args.format](sys.stdout.write, ch, expand=not args.dominant)
    return 0


def cmd_branch(args, parser) -> int:
    weight = _resolve_weight(args, parser)
    if args.kind == "filtration":
        if weight.rank < 2:
            parser.error("--kind filtration needs rank at least 2")
        fields = ({"ell": list(t.ell), "ellp": list(t.ellp), "mult": t.mult,
                   "target": list(t.target)} for t in weyl_filtration(weight))
        _print_stream(fields, dict, lambda f: " ".join(
            f"{name}={value}" for name, value in f.items()), args.format)
    else:
        rows = (shtepin_branch_v(weight) if args.kind == "shtepin-v"
                else shtepin_branch_l(weight.lam))
        _print_stream(rows, list, lambda row: str(list(row)), args.format)
    return 0


def cmd_verify(args, parser) -> int:
    if args.rank is None and args.omegas is None and args.lambdas is None:
        parser.error("verify needs --rank (with --max-total) or a weight")
    if args.omegas is not None or args.lambdas is not None:
        weights = [_resolve_weight(args, parser)]
    elif args.rank < 1:
        parser.error(f"--rank must be a positive integer, got {args.rank}")
    elif args.max_total < 0:
        parser.error(f"--max-total must be non-negative, got {args.max_total}")
    else:
        # The sweep has comb(rank + max_total, rank) weights of rank
        # coordinates each. The product runs over the smaller side of the
        # binomial, starting from the rank, and stops once it passes the bound.
        a, b = sorted((args.rank, args.max_total))
        size = args.rank
        for i in range(1, a + 1):
            if size > MAX_SWEEP:
                break
            size = size * (b + i) // i
        if size > MAX_SWEEP:
            parser.error(f"sweep too large: --rank {args.rank} --max-total "
                         f"{args.max_total} has more than {MAX_SWEEP} weight "
                         "coordinates (rank times weights)")
        weights = list(sweep_dominant_weights(args.rank, args.max_total))
    reports = [verify_identities(w) for w in weights]
    if args.format == "json":
        print(json.dumps([r.to_json() for r in reports]))
    else:
        for report in reports:
            print(report.to_text())
        n_fail = sum(0 if r.ok else 1 for r in reports)
        print(f"verified {len(reports)} weight(s), {n_fail} failure(s)")
    return 0 if all(r.ok for r in reports) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cpops",
        description="Exact symplectic pattern/overlay combinatorics and "
                    "graded Weyl-module characters.",
        epilog=MONOMIAL_GRAMMAR,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dim", help="dimension by the product formula")
    _add_weight_flags(p)
    p.add_argument("--irreducible", action="store_true",
                   help="dimension of the irreducible module instead")
    p.add_argument("--check", action="store_true",
                   help="cross-check the formula against a sum over "
                        "pattern rows")
    p.set_defaults(func=cmd_dim)

    p = sub.add_parser("count", help="pattern and overlay counts")
    _add_weight_flags(p)
    p.add_argument("--restricted", action="store_true",
                   help="also count restricted patterns and overlays")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("patterns", help="stream all patterns")
    _add_weight_flags(p)
    p.add_argument("--restricted", action="store_true")
    p.add_argument("--format", choices=("text", "json"), default="json")
    p.set_defaults(func=cmd_patterns)

    p = sub.add_parser("pops", help="stream all partition-overlaid patterns")
    _add_weight_flags(p)
    p.add_argument("--restricted", action="store_true")
    p.add_argument("--format", choices=("text", "json"), default="json")
    p.set_defaults(func=cmd_pops)

    p = sub.add_parser("monomials", help="stream the basis words, one per overlay")
    _add_weight_flags(p)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_monomials)

    p = sub.add_parser("char", help="graded character")
    _add_weight_flags(p)
    p.add_argument("--method", choices=("direct", "fermionic", "both"),
                   default="direct",
                   help="'both' compares the two computations and fails on "
                        "any difference")
    p.add_argument("--format", choices=("text", "json", "csv", "latex"),
                   default="text",
                   help="csv columns: grade,a1..ar,mult; "
                        "latex terms: m q^{s} e^{...}")
    p.add_argument("--dominant", action="store_true",
                   help="print only the terms of dominant weight, which fix "
                        "the character")
    p.set_defaults(func=cmd_char)

    p = sub.add_parser("branch", help="filtration and branching listings")
    _add_weight_flags(p)
    p.add_argument("--kind", choices=("filtration", "shtepin-v", "shtepin-l"),
                   default="filtration")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_branch)

    p = sub.add_parser("verify", help="run the identity suite over a weight sweep")
    _add_weight_flags(p)
    p.add_argument("--max-total", type=int, default=2,
                   help="sweep all weights with multiplicity sum up to this")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args, parser)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout. Point it at devnull so the interpreter's
        # final flush cannot raise again, and exit as SIGPIPE would (128 + 13).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except Exception as exc:
        message = " ".join(str(exc).split())
        print(f"cpops: internal error: {type(exc).__name__}: {message}",
              file=sys.stderr)
        return 3
    return code


if __name__ == "__main__":
    sys.exit(main())
