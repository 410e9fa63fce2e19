"""Symplectic interlacing patterns: validation, enumeration, differences.

A pattern of rank r is a stack of 2r integer rows eta^1, lam^1, ..., eta^r,
lam^r where row j has length j. Row lam^j dominates eta^j entrywise with the
shifted tail condition lam^j_{j+1} = 0, and eta^{j+1} dominates lam^j the same
way, so every entry is a non-negative integer. The final row lam^r is the
bounding sequence. A restricted pattern is the same stack with the final lam^r
row removed, bounded by its eta^r row instead: the same object one half-step
down, so both kinds share one record and the lambda-row count (r or r-1)
tells them apart.

The gaps between adjacent rows sit at overlay positions (i, j, barred), kept
in one fixed word-block order (:func:`overlay_positions`): for each level
j < r the barred block then the unbarred block, then for full patterns the
barred block at level r.

Enumeration is depth-first from the bounding row upward. Each new row is
constrained entrywise by the adjacent known row only, so the candidate values
per position form independent ranges and generation never backtracks.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterator, Sequence

from .rootsys import DominantWeight, WeightVector, lambda_tuple


@dataclass(frozen=True)
class PatternC:
    """Pattern of rank r: r eta-rows and r lambda-rows (full) or r-1
    lambda-rows (restricted), row j of length j."""

    rank: int
    eta_rows: tuple
    lambda_rows: tuple

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


@functools.cache
def overlay_positions(rank: int, *, restricted: bool = False) -> tuple:
    """Overlay positions (i, j, barred) in word-block order: for each level
    j < rank the barred block then the unbarred block, then for full patterns
    the barred block at level rank."""
    pos = []
    for j in range(1, rank):
        pos.extend((i, j, True) for i in range(1, j + 1))
        pos.extend((i, j, False) for i in range(1, j + 1))
    if not restricted:
        pos.extend((i, rank, True) for i in range(1, rank + 1))
    return tuple(pos)


def validate_pattern(p: PatternC) -> list:
    """Return a list of violated constraints, empty when the pattern is valid.

    Row-shape problems are reported on their own; interlacing inequalities are
    only checked for rows of the correct length. Violation strings carry the
    row kind and the (j, i) position.
    """
    problems = []
    r = p.rank
    n_lambda = r - 1 if p.restricted else r
    if len(p.eta_rows) != r:
        problems.append(f"expected {r} eta rows, got {len(p.eta_rows)}")
    if len(p.lambda_rows) != n_lambda:
        problems.append(f"expected {n_lambda} lambda rows, got {len(p.lambda_rows)}")
    for j, row in enumerate(p.eta_rows, start=1):
        if j <= r and len(row) != j:
            problems.append(f"eta^{j} has length {len(row)}, expected {j}")
    for j, row in enumerate(p.lambda_rows, start=1):
        if j <= n_lambda and len(row) != j:
            problems.append(f"lambda^{j} has length {len(row)}, expected {j}")
    if problems:
        return problems

    for j in range(1, n_lambda + 1):
        lam_j = p.lambda_rows[j - 1]
        eta_j = p.eta_rows[j - 1]
        for i in range(1, j + 1):
            hi = lam_j[i - 1]
            lo = lam_j[i] if i < j else 0
            if not hi >= eta_j[i - 1]:
                problems.append(
                    f"lambda^{j}_{i} >= eta^{j}_{i} fails: {hi} < {eta_j[i - 1]}"
                )
            if not eta_j[i - 1] >= lo:
                problems.append(
                    f"eta^{j}_{i} >= lambda^{j}_{i + 1} fails: {eta_j[i - 1]} < {lo}"
                )
    for j in range(1, r):
        lam_j = p.lambda_rows[j - 1]
        eta_next = p.eta_rows[j]
        for i in range(1, j + 1):
            if not eta_next[i - 1] >= lam_j[i - 1]:
                problems.append(
                    f"eta^{j + 1}_{i} >= lambda^{j}_{i} fails: "
                    f"{eta_next[i - 1]} < {lam_j[i - 1]}"
                )
            if not lam_j[i - 1] >= eta_next[i]:
                problems.append(
                    f"lambda^{j}_{i} >= eta^{j + 1}_{i + 1} fails: "
                    f"{lam_j[i - 1]} < {eta_next[i]}"
                )
    if any(x < 0 for row in p.eta_rows for x in row):
        problems.append("negative entry in eta rows")
    if any(x < 0 for row in p.lambda_rows for x in row):
        problems.append("negative entry in lambda rows")
    return problems


def interlacing_rows(upper: tuple) -> Iterator[tuple]:
    """Rows one shorter than ``upper`` interlacing it, upper_i >= w_i >=
    upper_{i+1}, in lexicographic order. The eta rows under a lambda row
    lam are ``interlacing_rows(lam + (0,))``."""
    return itertools.product(
        *[range(upper[i + 1], upper[i] + 1) for i in range(len(upper) - 1)])


def _pattern_rows(j: int, lam_j: tuple) -> Iterator[tuple]:
    # All (eta_rows, lambda_rows) of a rank-j pattern bounded by lam_j.
    for eta_j in interlacing_rows(lam_j + (0,)):
        if j == 1:
            yield (eta_j,), (lam_j,)
        else:
            for lam_prev in interlacing_rows(eta_j):
                for etas, lams in _pattern_rows(j - 1, lam_prev):
                    yield etas + (eta_j,), lams + (lam_j,)


def _as_lambda_tuple(bounding) -> tuple:
    if isinstance(bounding, DominantWeight):
        return bounding.lam
    return lambda_tuple(bounding)


def enumerate_patterns(bounding) -> Iterator[PatternC]:
    """All patterns with the given bounding sequence, each exactly once.

    ``bounding`` may be a :class:`DominantWeight` or a weakly decreasing
    sequence. Rows are generated upward from the bounding row, every row in
    lexicographic order of its entries, so the stream is deterministic.
    """
    lam = _as_lambda_tuple(bounding)
    r = len(lam)
    for etas, lams in _pattern_rows(r, lam):
        yield PatternC(r, etas, lams)


def enumerate_restricted_patterns(bounding) -> Iterator[PatternC]:
    """All restricted patterns bounded by the weakly decreasing ``bounding``."""
    eta_r = _as_lambda_tuple(bounding)
    r = len(eta_r)
    if r == 1:
        yield PatternC(1, (eta_r,), ())
        return
    for lam_prev in interlacing_rows(eta_r):
        for etas, lams in _pattern_rows(r - 1, lam_prev):
            yield PatternC(r, etas + (eta_r,), lams)


def differences(p: PatternC) -> dict:
    """Gaps of a valid pattern, (i, j, barred) -> (l, lp) in the order of
    ``p.positions``; all entries are non-negative. A position's gaps are
    l = upper_i - lower_i and lp = lower_i - upper_{i+1} (upper_{j+1} = 0),
    where upper/lower is lam^j/eta^j when barred and eta^{j+1}/lam^j when not.
    """
    gaps = {}
    for pos in p.positions:
        i, j, barred = pos
        if barred:
            upper, lower = p.lambda_rows[j - 1], p.eta_rows[j - 1]
        else:
            upper, lower = p.eta_rows[j], p.lambda_rows[j - 1]
        tail = upper[i] if i < len(upper) else 0
        gaps[pos] = (upper[i - 1] - lower[i - 1], lower[i - 1] - tail)
    return gaps


def reconstruct_pattern(bounding: Sequence[int], gaps: dict) -> PatternC:
    """Rebuild the unique pattern with the given bounding row whose gaps have
    the prescribed first components; inverse of :func:`differences`."""
    lam = lambda_tuple(bounding)
    r = len(lam)
    lambda_rows = [None] * r
    eta_rows = [None] * r
    lambda_rows[r - 1] = lam
    for j in range(r, 0, -1):
        lam_j = lambda_rows[j - 1]
        eta_j = tuple(lam_j[i - 1] - gaps[(i, j, True)][0] for i in range(1, j + 1))
        eta_rows[j - 1] = eta_j
        if j > 1:
            lambda_rows[j - 2] = tuple(
                eta_j[i - 1] - gaps[(i, j - 1, False)][0] for i in range(1, j)
            )
    return PatternC(r, tuple(eta_rows), tuple(lambda_rows))


def pattern_weight(p: PatternC) -> WeightVector:
    """Epsilon-coordinates (a_1, ..., a_r) of the pattern, where a_j is twice
    the eta^j row sum minus the lam^j and lam^{j-1} row sums."""
    coords = []
    prev_sum = 0
    for j in range(1, p.rank + 1):
        lam_sum = sum(p.lambda_rows[j - 1])
        coords.append(2 * sum(p.eta_rows[j - 1]) - lam_sum - prev_sum)
        prev_sum = lam_sum
    return tuple(coords)


def pattern_to_json(p: PatternC) -> dict:
    """JSON shape {"rank", "eta", "lambda"} with rows ordered j = 1..r."""
    return {
        "rank": p.rank,
        "eta": [list(row) for row in p.eta_rows],
        "lambda": [list(row) for row in p.lambda_rows],
    }


def pattern_from_json(obj: dict) -> PatternC:
    """Inverse of :func:`pattern_to_json`; the row counts decide the kind.
    A pattern that :func:`validate_pattern` rejects is a ValueError."""
    p = PatternC(int(obj["rank"]), *(
        tuple(tuple(int(x) for x in row) for row in obj[k]) for k in ("eta", "lambda")))
    problems = validate_pattern(p)
    if problems:
        raise ValueError("invalid pattern: " + "; ".join(problems))
    return p
