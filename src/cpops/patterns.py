"""Symplectic interlacing patterns: validation, enumeration, differences.

A pattern of rank r is one chain of integer rows, read bottom-up as
``PatternC.rows``: eta^1, lam^1, eta^2, lam^2, ..., where eta^j and lam^j have
length j, so row k of the chain has length k//2 + 1. Each row interlaces the
one above it, upper_i >= lower_i >= upper_{i+1}, where an entry past the end
of a row counts as 0; hence every entry is a non-negative integer. A full
pattern has 2r rows and ends at the bounding row lam^r; a restricted pattern
has 2r-1 rows and ends at eta^r. One record serves both kinds, and the
lambda-row count (r or r-1) tells them apart.

The gaps between rows k and k+1 sit at the positions (i, k//2 + 1, barred =
k even), i = 1..k//2 + 1. Walking k upward gives the one word-block order of
:func:`overlay_positions`: for each level j < r the barred block then the
unbarred block, then for full patterns the barred block at level r.

Enumeration (:func:`pattern_chains`) walks the chain depth-first from the
bounding row down, in a loop. Each row is constrained entrywise by the row
above it only, so its candidate values form independent ranges and
generation never backtracks.
"""

from __future__ import annotations

import functools
import itertools
from collections import namedtuple
from typing import Iterator, Sequence

from .rootsys import WeightVector, lambda_tuple


class PatternC(namedtuple("PatternC", "rank eta_rows lambda_rows")):
    """Pattern of rank r: r eta-rows and r lambda-rows (full) or r-1
    lambda-rows (restricted), row j of length j."""

    __slots__ = ()

    @classmethod
    def from_rows(cls, rows: Sequence[tuple]) -> PatternC:
        """The pattern whose chain, read bottom-up, is ``rows``."""
        return cls(len(rows[-1]), tuple(rows[::2]), tuple(rows[1::2]))

    @property
    def rows(self) -> tuple:
        """The chain eta^1, lam^1, eta^2, ..., ending at the bounding row."""
        rows = [None] * (len(self.eta_rows) + len(self.lambda_rows))
        rows[::2], rows[1::2] = self.eta_rows, self.lambda_rows
        return tuple(rows)

    @property
    def restricted(self) -> bool:
        return len(self.lambda_rows) == self.rank - 1

    @property
    def bounding(self) -> tuple:
        return (self.eta_rows if self.restricted else self.lambda_rows)[-1]

    @property
    def positions(self) -> tuple:
        """Gap positions (i, j, barred) in word-block order."""
        return overlay_positions(self.rank, restricted=self.restricted)


def _gap_level(k: int) -> tuple:
    # (j, barred) of the gaps between rows k and k+1 of the chain.
    return k // 2 + 1, k % 2 == 0


def _row_name(k: int) -> str:
    # Row k of the chain: eta^{k//2+1} when k is even, lambda^{k//2+1} when odd.
    return f"{'lambda' if k % 2 else 'eta'}^{k // 2 + 1}"


# Read through PatternC.positions (by the Pop serializers and pop_from_json)
# and by the text pops listing, which reads one (rank, kind) key per
# command. Bounding the memo frees large ranks.
@functools.lru_cache(maxsize=4)
def overlay_positions(rank: int, *, restricted: bool = False) -> tuple:
    """Overlay positions (i, j, barred) in word-block order: for each level
    j < rank the barred block then the unbarred block, then for full patterns
    the barred block at level rank."""
    return tuple((i, *_gap_level(k)) for k in range(2 * rank - 1 - restricted)
                 for i in range(1, k // 2 + 2))


def validate_pattern(p: PatternC) -> list:
    """Return a list of violated constraints, empty when the pattern is valid.

    Row-shape problems are reported on their own; interlacing inequalities are
    only checked for rows of the correct length. Violation strings carry the
    row kind and the (j, i) position.
    """
    r = p.rank
    if r < 1:
        return [f"rank must be at least 1, got {r}"]
    problems = []
    for name, rows, n in (("eta", p.eta_rows, r),
                          ("lambda", p.lambda_rows, r - p.restricted)):
        if len(rows) != n:
            problems.append(f"expected {n} {name} rows, got {len(rows)}")
        problems += [f"{name}^{j} has length {len(row)}, expected {j}"
                     for j, row in enumerate(rows[:n], start=1) if len(row) != j]
    if problems:
        return problems

    rows = p.rows
    for k in range(len(rows) - 1):
        lower, upper = rows[k], rows[k + 1] + (0,)
        lo, up = _row_name(k), _row_name(k + 1)
        for i, x in enumerate(lower, start=1):
            if not upper[i - 1] >= x:
                problems.append(f"{up}_{i} >= {lo}_{i} fails: {upper[i - 1]} < {x}")
            if not x >= upper[i]:
                problems.append(f"{lo}_{i} >= {up}_{i + 1} fails: {x} < {upper[i]}")
    for name, rows in (("eta", p.eta_rows), ("lambda", p.lambda_rows)):
        if any(x < 0 for row in rows for x in row):
            problems.append(f"negative entry in {name} rows")
    return problems


def interlacing_rows(upper: tuple) -> Iterator[tuple]:
    """Rows one shorter than ``upper`` interlacing it, upper_i >= w_i >=
    upper_{i+1}, in lexicographic order. The eta rows under a lambda row
    lam are ``interlacing_rows(lam + (0,))``."""
    return itertools.product(
        *[range(upper[i + 1], upper[i] + 1) for i in range(len(upper) - 1)])


def pattern_chains(bounding, restricted: bool) -> Iterator[tuple]:
    """Every chain of 2r (full) or 2r-1 (restricted) rows ending at the
    bounding row, as the tuple of rows read bottom-up. The walk is
    depth-first from the top, every row in lexicographic order of its
    entries, so the stream is deterministic."""
    # ``pending[-1]`` yields the candidates for row k = n - len(pending)
    # under the current rows above it.
    top = lambda_tuple(bounding)
    n = 2 * len(top) - restricted
    rows, pending = [None] * n, [iter((top,))]
    while pending:
        row = next(pending[-1], None)
        k = n - len(pending)
        if row is None:
            pending.pop()
        elif k:
            rows[k] = row
            pending.append(interlacing_rows(row + (0,) if k % 2 else row))
        else:
            rows[0] = row
            yield tuple(rows)


def enumerate_patterns(bounding) -> Iterator[PatternC]:
    """All patterns with the given bounding sequence, each exactly once, in
    the order of :func:`pattern_chains`.

    ``bounding`` is any lambda tuple (a :class:`DominantWeight` is one).
    """
    return map(PatternC.from_rows, pattern_chains(bounding, False))


def enumerate_restricted_patterns(bounding) -> Iterator[PatternC]:
    """All restricted patterns bounded by the weakly decreasing ``bounding``."""
    return map(PatternC.from_rows, pattern_chains(bounding, True))


def gap_block(lower: tuple, upper: tuple) -> list:
    """The gaps between two adjacent chain rows, as ((i, j, barred), (l, lp))
    pairs for i = 1..j: j = len(lower), barred when upper has length j too,
    l = upper_i - lower_i and lp = lower_i - upper_{i+1} (upper_{j+1} = 0).
    Walking the chain's adjacent pairs bottom-up gives :func:`differences`."""
    j = len(lower)
    barred = len(upper) == j
    return [((i, j, barred), (u - x, x - t)) for i, (u, x, t)
            in enumerate(zip(upper, lower, upper[1:] + (0,)), start=1)]


class _Memo(dict):
    # Values of ``fn`` keyed by its argument tuple: memo[a, b] is fn(a, b),
    # computed once. Every entry is kept, so callers make one per call or
    # command where the keys could grow without bound.
    __slots__ = ("fn",)

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        self[key] = value = self.fn(*key)
        return value


def differences(p: PatternC) -> dict:
    """Gaps of a valid pattern, (i, j, barred) -> (l, lp) in the order of
    ``p.positions``: the :func:`gap_block` of each pair of adjacent rows,
    bottom-up. All entries are non-negative."""
    return dict(itertools.chain.from_iterable(
        itertools.starmap(gap_block, itertools.pairwise(p.rows))))


def reconstruct_pattern(bounding: Sequence[int], gaps: dict) -> PatternC:
    """Rebuild the unique pattern with the given bounding row whose gaps have
    the prescribed first components; inverse of :func:`differences`."""
    rows = [lambda_tuple(bounding)]
    for k in range(2 * len(rows[0]) - 2, -1, -1):
        j, barred = _gap_level(k)
        rows.append(tuple(rows[-1][i] - gaps[(i + 1, j, barred)][0] for i in range(j)))
    return PatternC.from_rows(rows[::-1])


def chain_weight(rows: Sequence[tuple]) -> WeightVector:
    """Epsilon-coordinates (a_1, ..., a_r) of the pattern whose chain is
    ``rows``, from its row sums: a_j is twice the eta^j row sum minus the
    lam^j and lam^{j-1} row sums; a restricted chain reads its bounding row
    eta^r in place of the missing lam^r."""
    sums = list(map(sum, rows))
    if len(sums) % 2:  # restricted: 2|eta^r| - |eta^r| - |lam^{r-1}|
        sums.append(sums[-1])
    eta, lam = sums[::2], sums[1::2]
    return tuple([2 * e - x - prev for e, x, prev in zip(eta, lam, [0] + lam)])


def pattern_weight(p: PatternC) -> WeightVector:
    """Epsilon-coordinates of the pattern: :func:`chain_weight` of its rows."""
    return chain_weight(p.rows)


def pattern_to_json(p: PatternC) -> dict:
    """JSON shape {"rank", "eta", "lambda"} with rows ordered j = 1..r."""
    return {
        "rank": p.rank,
        "eta": [list(row) for row in p.eta_rows],
        "lambda": [list(row) for row in p.lambda_rows],
    }


def _json_field(obj, key: str, kind: type):
    # obj[key] when obj is a JSON object holding a ``kind`` there.
    value = obj.get(key) if isinstance(obj, dict) else None
    if type(value) is not kind:
        raise ValueError(f"{key!r} must be a JSON {kind.__name__}, got {value!r}")
    return value


def _json_ints(value, what: str) -> tuple:
    # A JSON array of integers as a tuple.
    if type(value) is not list or any(type(x) is not int for x in value):
        raise ValueError(f"{what} must be a list of integers, got {value!r}")
    return tuple(value)


def pattern_from_json(obj: dict) -> PatternC:
    """Inverse of :func:`pattern_to_json`; the row counts decide the kind.
    Malformed JSON or a pattern that :func:`validate_pattern` rejects is a
    ValueError."""
    p = PatternC(_json_field(obj, "rank", int), *(
        tuple(_json_ints(row, f"a row of {k!r}") for row in _json_field(obj, k, list))
        for k in ("eta", "lambda")))
    problems = validate_pattern(p)
    if problems:
        raise ValueError("invalid pattern: " + "; ".join(problems))
    return p
