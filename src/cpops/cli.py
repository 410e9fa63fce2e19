"""Command-line front end.

Subcommands: dim, count, patterns, pops, monomials, char, branch, verify.
Weights are given in exactly one coordinate system, either --omegas with the
fundamental-weight multiplicities or --lambdas with the weakly decreasing
tuple; --rank is optional and must agree with the tuple length when present.

Listings stream one JSON object per line (--format json) or one display line
per item (--format text) and are deterministic across runs. Exit status is 0
on success, 1 when a requested check fails, 2 on usage errors (a --max-total
too large to sweep and a dimension too long to print among them), 3 on an
internal error (one stderr line, no traceback), 141 when the reader closes
stdout early.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .branching import shtepin_branch_l, shtepin_branch_v, verify_identities, weyl_filtration
from .characters import (
    character_direct,
    character_fermionic,
    character_to_csv,
    character_to_json,
    character_to_latex,
    character_to_text,
    dominant_character_direct,
    dominant_character_fermionic,
    expand_dominant,
)
from .oracle import weyl_dim
from .patterns import enumerate_patterns, enumerate_restricted_patterns, pattern_to_json
from .pops import (
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

CACHE_ENV_VAR = "CPOPS_CACHE_DIR"

# `dim` prints counts of at most this many digits, CPython's default limit
# for converting an int to a string.
MAX_DIGITS = 4300

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
        stream = enumerate_patterns(weight) if args.irreducible \
            else enumerate_pops(weight)
        counted = sum(1 for _ in stream)
        if counted != value:
            print(f"mismatch: formula {value}, enumeration {counted}",
                  file=sys.stderr)
            return 1
    print(value)
    return 0


def cmd_count(args, parser) -> int:
    weight = _resolve_weight(args, parser)
    counts = {
        "patterns": sum(1 for _ in enumerate_patterns(weight)),
        "pops": sum(1 for _ in enumerate_pops(weight)),
    }
    if args.restricted:
        eta = weight.lam
        counts["restricted_patterns"] = sum(
            1 for _ in enumerate_restricted_patterns(eta))
        counts["restricted_pops"] = sum(
            1 for _ in enumerate_restricted_pops(eta))
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


def _pattern_text(p) -> str:
    return (f"eta={json.dumps([list(r) for r in p.eta_rows])} "
            f"lambda={json.dumps([list(r) for r in p.lambda_rows])}")


def cmd_patterns(args, parser) -> int:
    weight = _resolve_weight(args, parser)
    items = (enumerate_restricted_patterns(weight.lam) if args.restricted
             else enumerate_patterns(weight))
    _print_stream(items, pattern_to_json, _pattern_text, args.format)
    return 0


def _pop_text(p) -> str:
    overlays = {label_text(pos): list(parts)
                for pos, parts in zip(p.pattern.positions, p.overlays)}
    return _pattern_text(p.pattern) + f" overlays={json.dumps(overlays, sort_keys=True)}"


def cmd_pops(args, parser) -> int:
    weight = _resolve_weight(args, parser)
    items = (enumerate_restricted_pops(weight.lam) if args.restricted
             else enumerate_pops(weight))
    _print_stream(items, pop_to_json, _pop_text, args.format)
    return 0


def cmd_monomials(args, parser) -> int:
    weight = _resolve_weight(args, parser)
    words = (pop_monomial(p) for p in enumerate_pops(weight))
    _print_stream(words, monomial_to_json, lambda w: w.text(), args.format)
    return 0


def _character_with_cache(args, weight: DominantWeight):
    compute = character_direct if args.method == "direct" else character_fermionic
    cache_dir = args.cache_dir or os.environ.get(CACHE_ENV_VAR)
    if cache_dir is None:
        return compute(weight)
    from . import cache as cache_mod  # hashlib is imported only when needed
    cached = cache_mod.cache_lookup(cache_dir, weight.rank, weight.lam, args.method)
    if cached is not None:
        if args.verbose:
            print(f"cache hit: {args.method} {weight.lam}", file=sys.stderr)
        return cached
    ch = compute(weight)
    try:
        cache_mod.cache_store(cache_dir, weight.rank, weight.lam, args.method, ch)
    except OSError as exc:
        print(f"warning: cache entry not stored: {cache_dir} ({exc})",
              file=sys.stderr)
    return ch


def _render_character(ch, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(character_to_json(ch), sort_keys=True)
    if fmt == "csv":
        return character_to_csv(ch).rstrip("\n")
    if fmt == "latex":
        return character_to_latex(ch)
    return character_to_text(ch)


def cmd_char(args, parser) -> int:
    weight = _resolve_weight(args, parser)
    if args.method == "both":
        # A cross-check compares fresh computations, never cached blobs.
        ch = dominant_character_direct(weight)
        if ch != dominant_character_fermionic(weight):
            print("character mismatch between direct and fermionic methods",
                  file=sys.stderr)
            return 1
        if not args.dominant:
            ch = expand_dominant(ch)
    elif args.dominant:
        ch = (dominant_character_direct if args.method == "direct"
              else dominant_character_fermionic)(weight)
    else:
        ch = _character_with_cache(args, weight)
    print(_render_character(ch, args.format))
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
        try:
            weights = list(sweep_dominant_weights(args.rank, args.max_total))
        except OverflowError:
            parser.error(f"sweep too large: --rank {args.rank} "
                         f"--max-total {args.max_total}")
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
                   help="cross-check the formula by enumeration")
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
                        "the character; computed afresh, without the cache")
    p.add_argument("--cache-dir", default=None,
                   help=f"cache directory (default: ${CACHE_ENV_VAR})")
    p.add_argument("--verbose", action="store_true")
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
