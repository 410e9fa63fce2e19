"""Partition-overlaid patterns and their lowering-operator words.

A partition here is a weakly increasing tuple of non-negative integers; it
fits a box (l, lp) when it has exactly l parts, all at most lp. An overlaid
pattern is a pattern plus a tuple of partitions, one per gap position in the
word-block order of :func:`~cpops.patterns.overlay_positions`, each fitting
the box that the pattern's gaps give there. Its word lists one lowering
generator per partition part, graded by that part, in the same order.
Counts are plain Python integers, so the product formulas never overflow.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from collections.abc import Iterator, Sequence
from math import comb, log10

# The overlay streams walk pattern_chains; enumerate_patterns and
# enumerate_restricted_patterns are imported only so that perfbench/traced.py
# can wrap them under this module's name.
from .patterns import (  # noqa: F401
    PatternC,
    _json_field,
    _json_ints,
    differences,
    enumerate_patterns,
    enumerate_restricted_patterns,
    gap_block,
    overlay_positions,  # re-exported as cpops.pops.overlay_positions
    pattern_chains,
    pattern_from_json,
    pattern_to_json,
    pattern_weight,
)
# root_vector is imported only so that perfbench/traced.py can count its
# calls under this module's name.
from .rootsys import (  # noqa: F401
    WeightVector,
    label_text,
    lambda_to_omegas,
    root_vector,
)

# A partition: weakly increasing tuple of non-negative integers.
Partition = tuple
# An (ell, partition) pair with the partition of length exactly ell.
FPair = tuple


def partitions_in_box(ell: int, ellp: int) -> tuple:
    """Weakly increasing tuples of length ``ell`` with parts at most ``ellp``,
    in lexicographic order; there are comb(ell + ellp, ell) of them."""
    if ell < 0 or ellp < 0:
        raise ValueError("box sides must be non-negative")
    return tuple(itertools.combinations_with_replacement(range(ellp + 1), ell))


def fits_box(parts: Partition, ell: int, ellp: int) -> bool:
    """Whether ``parts`` is a valid partition of length ell with parts <= ellp."""
    if len(parts) != ell:
        return False
    if any(parts[i] > parts[i + 1] for i in range(len(parts) - 1)):
        return False
    if any(x < 0 for x in parts):
        return False
    return ell == 0 or parts[-1] <= ellp


def enumerate_f(m: int) -> Iterator[FPair]:
    """All pairs (ell, partition) with 0 <= ell <= m and the partition fitting
    the box (ell, m - ell); there are 2**m of them."""
    if m < 0:
        raise ValueError("m must be non-negative")
    for ell in range(m + 1):
        for s in partitions_in_box(ell, m - ell):
            yield (ell, s)


class Pop(namedtuple("Pop", "pattern overlays")):
    """Pattern plus one box-fitting partition per gap position, aligned with
    ``pattern.positions``; a restricted pattern has no positions at the top
    level."""

    __slots__ = ()


class PbwMonomial(namedtuple("PbwMonomial", "factors")):
    """Ordered word of (label, s) factors x-_alpha (x) t^s; each label is a gap
    position (i, j, barred), the plain tuple naming the positive root alpha."""

    __slots__ = ()

    @property
    def t_degree(self) -> int:
        return sum(t for _, t in self.factors)

    def text(self) -> str:
        """Space-separated factors "x-(i,j~)@t^s"; the empty word prints "1"."""
        if not self.factors:
            return "1"
        return " ".join(f"x-{label_text(label)}@t^{t}" for label, t in self.factors)


class _Blocks(dict):
    # The gap blocks of pattern chains, keyed by the block's two rows (lower,
    # upper): one list per position of their `gap_block`, ``render(position,
    # box)``, with one entry per partition of the box in partitions_in_box
    # order. With ``words`` the positions of boxes with no part (ell = 0) are
    # dropped: their one partition gives no factor of a word. A block is kept
    # only when each of its lists has at most 64 entries, so the memo grows
    # with the small boxes alone.
    def __init__(self, render, words: bool = False):
        super().__init__()
        self.render, self.words = render, words

    def __missing__(self, rows):
        block = tuple([self.render(pos, box) for pos, box in gap_block(*rows)
                       if box[0] or not self.words])
        if all(len(slots) <= 64 for slots in block):
            self[rows] = block
        return block


def _block_lists(blocks: _Blocks, rows: tuple) -> list:
    # The chain's per-position lists in word-block order: one memo read per
    # gap block.
    return list(itertools.chain.from_iterable(
        map(blocks.__getitem__, itertools.pairwise(rows))))


def _overlaid(bounding, restricted: bool) -> Iterator[Pop]:
    # Each chain crossed with every choice of box-fitting partitions, read
    # from one gap-block memo.
    blocks = _Blocks(lambda pos, box: partitions_in_box(*box))
    for rows in pattern_chains(bounding, restricted):
        pattern = PatternC.from_rows(rows)
        for combo in itertools.product(*_block_lists(blocks, rows)):
            yield Pop(pattern, combo)


def enumerate_pops(bounding) -> Iterator[Pop]:
    """All overlaid patterns with the given bounding sequence: each chain of
    :func:`~cpops.patterns.pattern_chains` crossed with every choice of
    box-fitting partitions, read from one gap-block memo."""
    return _overlaid(bounding, False)


def enumerate_restricted_pops(bounding) -> Iterator[Pop]:
    """Overlaid restricted patterns bounded by the weakly decreasing input."""
    return _overlaid(bounding, True)


def _count_factors(n: int, omegas: Sequence[int]) -> list:
    # (comb(n, i) - comb(n, i-2), omegas_i) for each i; comb(n, -1) is 0.
    return [(comb(n, i) - (comb(n, i - 2) if i > 1 else 0), m)
            for i, m in enumerate(omegas, start=1)]


def _count_product(n: int, omegas: Sequence[int]) -> int:
    # Product over i of (comb(n, i) - comb(n, i-2)) ** omegas_i.
    out = 1
    for base, m in _count_factors(n, omegas):
        out *= base ** m
    return out


def pop_count_formula(lam: Sequence[int]) -> int:
    """Product over i of (comb(2r, i) - comb(2r, i-2)) ** m_i with
    m_i = lam_i - lam_{i+1} and lam_{r+1} = 0."""
    m = lambda_to_omegas(lam)
    return _count_product(2 * len(m), m)


def pop_count_log10(lam: Sequence[int]) -> float:
    """Base-10 logarithm of :func:`pop_count_formula`, the sum of
    m_i * log10(base_i), so a count too large to compute shows before any
    power is taken."""
    m = lambda_to_omegas(lam)
    return sum(e * log10(base) for base, e in _count_factors(2 * len(m), m) if e)


def restricted_pop_count_formula(eta: Sequence[int]) -> int:
    """Product over i of (comb(2r-1, i) - comb(2r-1, i-2)) ** n_i with
    n_i = eta_i - eta_{i+1} and eta_{r+1} = 0."""
    n = lambda_to_omegas(eta)
    return _count_product(2 * len(n) - 1, n)


def pop_weight(p: Pop) -> WeightVector:
    """Weight of an overlaid pattern: the weight of its underlying pattern.
    ``verify_identities`` checks that formula against the root expansion."""
    return pattern_weight(p.pattern)


def pop_boxes(p) -> int:
    """Total number of boxes over all overlay partitions."""
    return sum(map(sum, p.overlays))


def pop_monomial(p: Pop) -> PbwMonomial:
    """Word of the overlaid pattern: per position in block order, one factor
    per partition part, the part giving the t-exponent. The total t-degree
    equals the box count of the overlay."""
    factors = []
    for pos, parts in zip(p.pattern.positions, p.overlays):
        factors.extend((pos, t) for t in parts)
    return PbwMonomial(tuple(factors))


def pop_to_json(p: Pop) -> dict:
    """Pattern JSON extended with an "overlays" list in block order."""
    obj = pattern_to_json(p.pattern)
    obj["overlays"] = [
        {"i": i, "j": j, "barred": barred, "parts": list(parts)}
        for (i, j, barred), parts in zip(p.pattern.positions, p.overlays)
    ]
    return obj


def pop_from_json(obj: dict) -> Pop:
    """Inverse of :func:`pop_to_json`. The pattern must be valid and the
    overlays must name exactly its positions, in block order, each with a
    partition fitting the box there; anything else, malformed JSON included,
    is a ValueError."""
    pattern = pattern_from_json(obj)
    entries = _json_field(obj, "overlays", list)
    named = tuple((_json_field(e, "i", int), _json_field(e, "j", int),
                   _json_field(e, "barred", bool)) for e in entries)
    if named != pattern.positions:
        raise ValueError(
            f"overlay positions {named} differ from the pattern's {pattern.positions}")
    overlays = tuple(_json_ints(e.get("parts"), "'parts'") for e in entries)
    for pos, parts, box in zip(named, overlays, differences(pattern).values()):
        if not fits_box(parts, *box):
            raise ValueError(f"parts {list(parts)} at {pos} do not fit the box {box}")
    return Pop(pattern, overlays)


def monomial_to_json(m: PbwMonomial) -> dict:
    return {
        "factors": [
            {"i": i, "j": j, "barred": barred, "t": t}
            for (i, j, barred), t in m.factors
        ],
        "degree": m.t_degree,
    }
