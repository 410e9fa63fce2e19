"""Command-line front end.

Subcommands: dim, count, patterns, pops, monomials, char, branch, verify.
Weights are given in exactly one coordinate system, either --omegas with the
fundamental-weight multiplicities or --lambdas with the weakly decreasing
tuple; --rank is optional and must agree with the tuple length when present.

Flags are read from one table, COMMANDS, without argparse: importing it and
building its parsers took about 8 ms of every start-up (2-core x86 host,
Python 3.11.7). A flag takes its value as `--flag value` or `--flag=value`,
may be shortened to any unique prefix (`--om 1,1`), and may come in any
order; a repeated flag keeps its last value, and a value may start with "-"
(`--lambdas -0`). `cpops -h` lists the commands and `cpops COMMAND -h` (or
--help) a command's flags, on stdout with exit status 0. A usage error is
one stderr line, `cpops: error: <message>`.

Listings stream one JSON object per line (--format json) or one display line
per item (--format text) and are deterministic across runs. The patterns,
pops and monomials listings walk pattern chains, render each chain row and
each gap block (the gap positions between two adjacent rows) once, and write
their lines in batches of at most BATCH_LINES; the branch listings go out in
the same batches. `char` computes only the dominant part of the character
and writes the output from it, grade by grade, in bulk writes; each
dominant weight's signed orbit is generated already in descending order,
each image rendered once, and the full character is never built. Exit
status is 0 on success, 1 when a requested check fails, 2 on usage errors
(a --max-total too large to sweep and a dimension too long to print among
them), 3 on an internal error (one stderr line, no traceback), 141 when the
reader closes stdout early. A command's process ends right after stdout and
stderr are flushed, without interpreter teardown, so no `atexit` hook runs.
No command imports `json`, about 2 ms of start-up: `count`, `branch` and
`verify` write their JSON as text, byte for byte what json.dumps wrote, and
`verify` imports it only to quote a failed check's witness. `verify` writes
each weight's report as soon as the weight is checked.
"""

from __future__ import annotations

import itertools
import operator
import os
import sys
import types

from .branching import (
    _int_array,
    count_chains,
    count_table,
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
# count reads count_table, dim --check count_chains, and the listings walk
# pattern_chains; the four enumerate_* names are imported only so that
# perfbench/traced.py can wrap them under this module's name.
from .patterns import (  # noqa: F401
    enumerate_patterns,
    enumerate_restricted_patterns,
    overlay_positions,
    pattern_chains,
    row_levels,
)
# The pops and monomials listings render from memos of rows and gap blocks
# and call none of pop_to_json, pop_monomial and monomial_to_json, which stay
# the reference for their lines; perfbench/traced.py wraps these names here.
from .pops import (  # noqa: F401
    _block_lists,
    _Blocks,
    enumerate_pops,
    enumerate_restricted_pops,
    monomial_to_json,
    partitions_in_box,
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


def _usage_error(message: str):
    # One stderr line, whatever the message holds, and exit status 2.
    sys.stderr.write(f"cpops: error: {' '.join(message.split())}\n")
    raise SystemExit(2)


def _parse_int_tuple(text: str, flag: str) -> tuple:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        _usage_error(f"{flag} expects a comma-separated integer list, got {text!r}")


def _resolve_weight(args) -> DominantWeight:
    has_omegas = args.omegas is not None
    has_lambdas = args.lambdas is not None
    if has_omegas == has_lambdas:
        _usage_error("supply exactly one of --omegas or --lambdas")
    try:
        if has_omegas:
            weight = DominantWeight.from_omegas(_parse_int_tuple(args.omegas, "--omegas"))
        else:
            weight = DominantWeight(_parse_int_tuple(args.lambdas, "--lambdas"))
    except ValueError as exc:
        _usage_error(str(exc))
    if args.rank is not None and args.rank != weight.rank:
        _usage_error(f"--rank {args.rank} inconsistent with weight length {weight.rank}")
    return weight


def cmd_dim(args) -> int:
    weight = _resolve_weight(args)
    what = "dim V" if args.irreducible else "the overlaid-pattern count"
    too_many = f"{what} has more than {MAX_DIGITS} digits"
    if not args.irreducible and pop_count_log10(weight) > MAX_DIGITS + 1:
        _usage_error(too_many)  # refused before the power is taken
    value = weyl_dim(weight) if args.irreducible else pop_count_formula(weight)
    if value >= 10 ** MAX_DIGITS:
        _usage_error(too_many)
    if args.check:
        counted = count_chains(weight)[0 if args.irreducible else 1]
        if counted != value:
            print(f"mismatch: formula {value}, sum over rows {counted}",
                  file=sys.stderr)
            return 1
    print(value)
    return 0


def cmd_count(args) -> int:
    lam = _resolve_weight(args).lam
    table = count_table(row_levels(lam))  # lam is also an eta row under lam
    counts = dict(zip(("patterns", "pops"), table[lam, False]))
    if args.restricted:
        counts["restricted_patterns"], counts["restricted_pops"] = table[lam, True]
        counts["restricted_pop_formula"] = restricted_pop_count_formula(lam)
    counts["pop_formula"] = pop_count_formula(lam)
    if args.format == "json":  # json.dumps(counts, sort_keys=True)
        print("{" + ", ".join(f'"{name}": {counts[name]}' for name in sorted(counts)) + "}")
    else:
        for name in sorted(counts):
            print(f"{name}: {counts[name]}")
    return 0


# Each chain row rendered once as a JSON array, keyed by the row tuple; a
# row set renders as "[" + ", ".join(rows) + "]". Without this memo
# `patterns --omegas 1,1,1,1` took 1.15 s instead of 0.49 s on a 2-core x86
# host. It is a dict read by map(_ROWS.__getitem__, rows), not a
# functools.cache: a one-argument cache keys each row on a fresh (row,)
# tuple, and a map over 2.5 M cached rows took 0.32 s through it against
# 0.17 s through the dict (2-core x86, Python 3.11.7). It is module-level, so
# _row_set needs no memo passed in: a listing walks far fewer distinct rows
# than patterns, and a process runs one command.
class _Rows(dict):
    def __missing__(self, row):
        self[row] = text = _int_array(row)
        return text


_ROWS = _Rows()


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


def cmd_patterns(args) -> int:
    weight = _resolve_weight(args)
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
# slots, one per partition in partitions_in_box order, from (position, box),
# for a pops._Blocks memo that the command makes.

def _pops_json_slots(pos, box) -> list:
    prefix = f'{{{_position_json(pos)}, "parts": '
    return [f"{prefix}{_int_array(parts)}}}" for parts in partitions_in_box(*box)]


def _pops_text_slots(pos, box) -> list:
    # The overlays as one JSON object keyed by label: each slot starts with
    # its quoted label.
    key = f'"{label_text(pos)}": '
    return [key + _int_array(parts) for parts in partitions_in_box(*box)]


def _word_slots(by_t: list, box, sep: str) -> list:
    # A partition's factors, one per part t, joined.
    return [sep.join(map(by_t.__getitem__, parts)) for parts in partitions_in_box(*box)]


def _words_text_slots(pos, box) -> list:
    return _word_slots([f"x-{label_text(pos)}@t^{t}" for t in range(box[1] + 1)],
                       box, " ")


def _words_json_slots(pos, box) -> list:
    prefix = f'{{{_position_json(pos)}, "t": '
    return _word_slots([f"{prefix}{t}}}" for t in range(box[1] + 1)], box, ", ")


def _words_degrees(pos, box) -> list:
    # The t-degree of each partition, in the same order as the word slots.
    return list(map(sum, partitions_in_box(*box)))


def cmd_pops(args) -> int:
    weight = _resolve_weight(args)
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


def cmd_monomials(args) -> int:
    weight = _resolve_weight(args)
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


def cmd_char(args) -> int:
    weight = _resolve_weight(args)
    ch = (dominant_character_fermionic if args.method == "fermionic"
          else dominant_character_direct)(weight)
    if args.method == "both" and ch != dominant_character_fermionic(weight):
        print("character mismatch between direct and fermionic methods",
              file=sys.stderr)
        return 1
    CHARACTER_WRITERS[args.format](sys.stdout.write, ch, expand=not args.dominant)
    return 0


def cmd_branch(args) -> int:
    weight = _resolve_weight(args)
    # A row's JSON array, "[a, b]", is also its text.
    row = _ROWS.__getitem__
    if args.kind == "filtration":
        if weight.rank < 2:
            _usage_error("--kind filtration needs rank at least 2")
        # The JSON object's members go in sorted order, as json.dumps(...,
        # sort_keys=True) wrote them.
        line = ('{{"ell": {}, "ellp": {}, "mult": {}, "target": {}}}'
                if args.format == "json" else "ell={} ellp={} mult={} target={}").format
        lines = (line(row(t.ell), row(t.ellp), t.mult, row(t.target))
                 for t in weyl_filtration(weight))
    else:
        lines = map(row, shtepin_branch_v(weight) if args.kind == "shtepin-v"
                    else shtepin_branch_l(weight.lam))
    _write_lines(sys.stdout.write, "", lines, "\n")
    return 0


def cmd_verify(args) -> int:
    if args.rank is None and args.omegas is None and args.lambdas is None:
        _usage_error("verify needs --rank (with --max-total) or a weight")
    if args.omegas is not None or args.lambdas is not None:
        weights = [_resolve_weight(args)]
    elif args.rank < 1:
        _usage_error(f"--rank must be a positive integer, got {args.rank}")
    elif args.max_total < 0:
        _usage_error(f"--max-total must be non-negative, got {args.max_total}")
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
            _usage_error(f"sweep too large: --rank {args.rank} --max-total "
                         f"{args.max_total} has more than {MAX_SWEEP} weight "
                         "coordinates (rank times weights)")
        weights = sweep_dominant_weights(args.rank, args.max_total)
    # Each report goes out as soon as its weight is checked: the JSON list
    # json.dumps([r.to_json() ...]) one element at a time, or each report's
    # text and then the summary.
    as_json = args.format == "json"
    stdout = sys.stdout
    if as_json:
        stdout.write("[")
    n = n_fail = 0
    for report in map(verify_identities, weights):
        if as_json:
            stdout.write((", " if n else "") + report.json_text())
        else:
            stdout.write(report.to_text() + "\n")
        stdout.flush()
        n += 1
        n_fail += not report.ok
    stdout.write("]\n" if as_json else f"verified {n} weight(s), {n_fail} failure(s)\n")
    return 1 if n_fail else 0


# The command table. A flag is (kind, default, help), its kind int, str, bool
# (a switch that takes no value) or the tuple of its choices; a command is
# (handler, help, its own flags), and takes the weight flags before those.
HELP_FLAG = {"--help": (bool, False, "show this help and exit")}

WEIGHT_FLAGS = {
    "--rank": (int, None, "rank r; optional, checked against the weight length"),
    "--omegas": (str, None, "fundamental-weight multiplicities m_1,...,m_r"),
    "--lambdas": (str, None, "weakly decreasing tuple lam_1,...,lam_r"),
}

COMMANDS = {
    "dim": (cmd_dim, "dimension by the product formula", {
        "--irreducible": (bool, False, "dimension of the irreducible module instead"),
        "--check": (bool, False,
                    "cross-check the formula against a sum over pattern rows"),
    }),
    "count": (cmd_count, "pattern and overlay counts", {
        "--restricted": (bool, False, "also count restricted patterns and overlays"),
        "--format": (("text", "json"), "text", None),
    }),
    "patterns": (cmd_patterns, "stream all patterns", {
        "--restricted": (bool, False, "only the restricted patterns"),
        "--format": (("text", "json"), "json", None),
    }),
    "pops": (cmd_pops, "stream all partition-overlaid patterns", {
        "--restricted": (bool, False, "only the restricted overlaid patterns"),
        "--format": (("text", "json"), "json", None),
    }),
    "monomials": (cmd_monomials, "stream the basis words, one per overlay", {
        "--format": (("text", "json"), "text", None),
    }),
    "char": (cmd_char, "graded character", {
        "--method": (("direct", "fermionic", "both"), "direct",
                     "'both' compares the two computations and fails on any difference"),
        "--format": (("text", "json", "csv", "latex"), "text",
                     "csv columns: grade,a1..ar,mult; latex terms: m q^{s} e^{...}"),
        "--dominant": (bool, False,
                       "print only the terms of dominant weight, which fix the character"),
    }),
    "branch": (cmd_branch, "filtration and branching listings", {
        "--kind": (("filtration", "shtepin-v", "shtepin-l"), "filtration", None),
        "--format": (("text", "json"), "text", None),
    }),
    "verify": (cmd_verify, "run the identity suite over a weight sweep", {
        "--max-total": (int, 2, "sweep all weights with multiplicity sum up to this"),
        "--format": (("text", "json"), "text", None),
    }),
}


def _flags(command: str) -> dict:
    return {**HELP_FLAG, **WEIGHT_FLAGS, **COMMANDS[command][2]}


def _help(command=None) -> str:
    if command is None:
        names = "\n".join(f"  {name:<11}{COMMANDS[name][1]}" for name in COMMANDS)
        return ("usage: cpops [-h] COMMAND [FLAGS]\n\n"
                "Exact symplectic pattern/overlay combinatorics and graded "
                f"Weyl-module characters.\n\ncommands:\n{names}\n\n"
                "cpops COMMAND -h lists the flags of COMMAND.\n\n"
                f"{MONOMIAL_GRAMMAR}\n")
    lines = [f"usage: cpops {command} [FLAGS]", "", COMMANDS[command][1], "", "flags:"]
    for name, (kind, default, text) in _flags(command).items():
        if kind is int:
            name += " N"
        elif kind is str:
            name += " LIST"
        elif kind is not bool:
            name += f" {{{','.join(kind)}}} (default: {default})"
        lines.append("  -h, --help" if name == "--help" else f"  {name}")
        if text:
            lines.append(f"      {text}")
    return "\n".join(lines) + "\n"


def _flag(token: str, flags: dict):
    """The flag a token names and its attached value (None without "="), or
    None when the token is a value; an unknown flag has the name "".

    A flag is named in full or by a unique prefix, as --name or --name=value;
    "-h" is --help, and "-hX" is --help with the value X. A token that starts
    with "-" is still a value when it is "-", "--" or a negative number, or
    holds a space.
    """
    if token[:1] != "-" or token in ("-", "--"):
        return None
    if token[:2] == "-h":
        return "--help", token[2:] or None
    name, eq, value = token.partition("=")
    if token.startswith("--"):
        matches = [name] if name in flags else [f for f in flags if f.startswith(name)]
        if len(matches) > 1:
            _usage_error(f"ambiguous option: {token} could match {', '.join(matches)}")
        if matches:
            return matches[0], value if eq else None
    # A negative number as argparse matched it, -\d+$ or -\d*\.\d+$ (where $
    # also matches before a final newline), is a value.
    number = token[1:].removesuffix("\n")
    if (number.replace(".", "", 1).isdecimal() and number[-1] != ".") or " " in token:
        return None
    return "", None


def _parse(argv: list):
    """The handler of the command argv names and its flag values.

    Writes the help and exits 0 on -h or --help; a usage error exits 2. An
    unknown flag or a stray value is reported only once the command's flags
    have all been read, and every token after "--" is a stray value.
    """
    stray = []
    for i, token in enumerate(argv):
        flag = _flag(token, HELP_FLAG)
        if flag is None:
            break
        if flag[0]:
            _switch(flag, None)
        stray.append(token)
    else:
        _usage_error("the following arguments are required: command")
    command, tokens = argv[i], argv[i + 1:]
    if command not in COMMANDS:
        choices = ", ".join(map(repr, COMMANDS))
        _usage_error(f"argument command: invalid choice: {command!r} (choose from {choices})")
    cut = tokens.index("--") if "--" in tokens else len(tokens)
    tokens, after = tokens[:cut], tokens[cut:]
    flags = _flags(command)
    # Every flag is named before any is read, so an ambiguous prefix is
    # reported even after -h.
    found = [_flag(token, flags) for token in tokens]
    values = {name: default for name, (_, default, _) in flags.items()}
    i = 0
    while i < len(tokens):
        flag = found[i]
        i += 1
        if flag is None or not flag[0]:
            stray.append(tokens[i - 1])
            continue
        name, value = flag
        kind = flags[name][0]
        if kind is bool:
            value = _switch(flag, command)
        else:
            if value is None:
                if i == len(tokens) or found[i] is not None:
                    _usage_error(f"argument {name}: expected one argument")
                value = tokens[i]
                i += 1
            if kind is int:
                try:
                    value = int(value)
                except ValueError:
                    _usage_error(f"argument {name}: invalid int value: {value!r}")
            elif kind is not str and value not in kind:
                choices = ", ".join(map(repr, kind))
                _usage_error(f"argument {name}: invalid choice: {value!r} "
                             f"(choose from {choices})")
        values[name] = value
    if stray or after:
        _usage_error(f"unrecognized arguments: {' '.join(stray + after)}")
    del values["--help"]
    return COMMANDS[command][0], types.SimpleNamespace(
        **{name[2:].replace("-", "_"): value for name, value in values.items()})


def _switch(flag: tuple, command) -> bool:
    # A flag that takes no value: True, or the help of the command (None
    # for the program) on stdout and exit status 0.
    name, value = flag
    if value is not None:
        _usage_error(f"argument {name}: ignored explicit argument {value!r}")
    if name == "--help":
        sys.stdout.write(_help(command))
        raise SystemExit(0)
    return True


def main(argv=None) -> int:
    handler, args = _parse(sys.argv[1:] if argv is None else list(argv))
    try:
        code = handler(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout. Point it at devnull so a later flush (run's,
        # or the interpreter's at exit) cannot raise again, and exit as SIGPIPE
        # would (128 + 13).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except Exception as exc:
        message = " ".join(str(exc).split())
        print(f"cpops: internal error: {type(exc).__name__}: {message}",
              file=sys.stderr)
        return 3
    return code


def run(argv=None) -> None:
    """The `cpops` program: main's status as the exit status, with stdout and
    stderr flushed and no interpreter teardown."""
    code = main(argv)
    for stream in (sys.stdout, sys.stderr):
        if stream is None:  # its file descriptor was closed at start-up
            continue
        try:
            stream.flush()
        except OSError:
            # A reader that closed the pipe gets nothing more, and main's
            # status stands.
            pass
    # Teardown runs GC passes over every module and frees each object, 9 to
    # 14 ms per run on a 2-core x86 host, for a process that is done.
    os._exit(code)


if __name__ == "__main__":
    run()
