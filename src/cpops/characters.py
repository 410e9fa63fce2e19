"""Exact q-series arithmetic and graded characters, computed two ways.

A graded character is a finitely supported integer map from (grade, weight)
pairs, the weight in epsilon-coordinates. Each graded piece of a local Weyl
module is an sp(2r)-module, so its character is invariant under signed
permutations of the coordinates and is fixed by its dominant weights. Both
methods compute only that dominant part: ``dominant_character_direct`` sums
box generating functions over the patterns of dominant weight, row pair by
row pair, and ``dominant_character_fermionic`` evaluates a lattice sum of
Gaussian-binomial products over gap arrays, level by level, touching none of
the pattern machinery. Each sum cuts a branch once a coordinate it has fixed
breaks dominance, and is memoized on the few numbers the rest of its walk
reads: in one pass down, paths that reach the same key merge their dense
coefficient lists, and the character is built once at the end.
``character_direct`` and ``character_fermionic`` expand the dominant part
to the full character with :func:`expand_dominant`. The two must agree
exactly, which is the package's central cross-check.

Each output format has one writer, ``write_json``, ``write_csv``,
``write_latex`` or ``write_text``, which writes a character through a
``write`` callable, optionally expanded to its signed orbits on the fly: each
distinct weight's orbit is computed, sorted and rendered once, and every
grade that holds the weight reuses it. ``character_to_csv``,
``character_to_latex`` and ``character_to_text`` return a writer's output as
a string, with no expansion.

Gaussian binomials use the zero convention out of range: the polynomial is
zero whenever the bottom index exceeds the top or the top is negative. Under
that convention gap arrays that correspond to no pattern contribute nothing
to the lattice sum, so it converges term for term to the direct count.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

from . import oracle
from .patterns import _json_field, _json_ints, interlacing_rows
# enumerate_pops, pop_boxes and pop_weight are imported only so that
# perfbench/traced.py can wrap them under this module's name.
from .pops import enumerate_pops, pop_boxes, pop_weight  # noqa: F401
from .rootsys import DominantWeight


def _signed_sum(terms) -> str:
    # Non-zero (coefficient, symbol) pairs as one signed sum: the first term
    # keeps its own sign, later ones are joined by +/-, a coefficient of +-1
    # on a non-empty symbol prints without the 1, and no terms print 0.
    out = []
    for c, symbol in terms:
        mag = "" if abs(c) == 1 and symbol else str(abs(c))
        out.append(f"{'-' if c < 0 else '+' if out else ''}{mag}{symbol}")
    return "".join(out) or "0"


class QPolynomial:
    """Polynomial in q with integer coefficients, stored sparsely.

    Instances are treated as immutable: all operations return new objects.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs=None):
        self._coeffs = {}
        if coeffs:
            for exp, c in dict(coeffs).items():
                if c:
                    if exp < 0:
                        raise ValueError("q-exponents must be non-negative")
                    self._coeffs[int(exp)] = int(c)

    @classmethod
    def zero(cls) -> "QPolynomial":
        return cls()

    @classmethod
    def one(cls) -> "QPolynomial":
        return cls({0: 1})

    @classmethod
    def q_power(cls, exp: int, coeff: int = 1) -> "QPolynomial":
        return cls({exp: coeff})

    def coeffs(self) -> dict:
        return dict(self._coeffs)

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self._coeffs == ({0: other} if other else {})
        if isinstance(other, QPolynomial):
            return self._coeffs == other._coeffs
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self._coeffs.items()))

    def __add__(self, other: "QPolynomial") -> "QPolynomial":
        out = dict(self._coeffs)
        for exp, c in other._coeffs.items():
            out[exp] = out.get(exp, 0) + c
            if not out[exp]:
                del out[exp]
        res = QPolynomial()
        res._coeffs = out
        return res

    def __mul__(self, other) -> "QPolynomial":
        if isinstance(other, int):
            res = QPolynomial()
            if other:
                res._coeffs = {e: c * other for e, c in self._coeffs.items()}
            return res
        out = {}
        for e1, c1 in self._coeffs.items():
            for e2, c2 in other._coeffs.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
                if not out[e]:
                    del out[e]
        res = QPolynomial()
        res._coeffs = out
        return res

    __rmul__ = __mul__

    def at_one(self) -> int:
        """Value at q = 1, the sum of all coefficients."""
        return sum(self._coeffs.values())

    def degree(self) -> int:
        """Largest exponent with non-zero coefficient; -1 for the zero polynomial."""
        return max(self._coeffs, default=-1)

    def __str__(self) -> str:
        return _signed_sum(
            (self._coeffs[exp], "" if exp == 0 else "q" if exp == 1 else f"q^{exp}")
            for exp in sorted(self._coeffs))

    def __repr__(self) -> str:
        return f"QPolynomial({self._coeffs!r})"


# Row n of Gaussian binomials, which both walks and q_binomial read: the
# coefficient tuples up to the largest bottom asked for so far, at most
# n // 2 (the rest mirror).
_BINOMIAL_ROWS = {}


def _binomial_coeffs(n: int, s: int) -> tuple:
    """Dense coefficients of [n, s] for 0 <= s <= n. Row n grows one entry
    at a time, without recursion: [n, t] is [n, t - 1] times 1 - q^(n-t+1),
    divided exactly by 1 - q^t."""
    s = min(s, n - s)
    row = _BINOMIAL_ROWS.setdefault(n, [(1,)])
    while len(row) <= s:
        t = len(row)
        a, degree = n - t + 1, t * (n - t)
        coeffs = list(row[-1]) + [0] * (degree + 1 - len(row[-1]))
        for e in range(degree, a - 1, -1):
            coeffs[e] -= coeffs[e - a]
        for e in range(t, degree + 1):
            coeffs[e] += coeffs[e - t]
        row.append(tuple(coeffs))
    return row[s]


@lru_cache(maxsize=None)
def q_binomial(n: int, s: int) -> QPolynomial:
    """Gaussian binomial with top n and bottom s.

    Zero polynomial when s < 0, n < 0, or s > n; otherwise a polynomial with
    non-negative coefficients, degree s*(n-s), and value comb(n, s) at q = 1,
    read from the shared row n.
    """
    if s < 0 or n < 0 or s > n:
        return QPolynomial.zero()
    return QPolynomial(dict(enumerate(_binomial_coeffs(n, s))))


def box_generating_function(ell: int, ellp: int) -> QPolynomial:
    """Sum of q**|s| over the partitions fitting the box (ell, ellp), counted
    by size: the Gaussian binomial q_binomial(ell + ellp, ell)."""
    if ell < 0 or ellp < 0:
        raise ValueError("box sides must be non-negative")
    return q_binomial(ell + ellp, ell)


class GradedCharacter:
    """Finitely supported signed-integer map from (grade, weight) pairs.

    Weights are epsilon-coordinate tuples of length ``rank``. No zero values
    are stored. Merging characters is plain dictionary addition, so partial
    results computed in any split of the underlying enumeration combine to
    the same object.
    """

    __slots__ = ("rank", "terms")

    def __init__(self, rank: int, terms=None):
        self.rank = rank
        self.terms = {}
        if terms:
            for (grade, weight), mult in dict(terms).items():
                self.add_term(grade, weight, mult)

    def add_term(self, grade: int, weight: Sequence[int], mult: int = 1) -> None:
        if len(weight) != self.rank:
            raise ValueError(f"weight length {len(weight)} != rank {self.rank}")
        if grade < 0:
            raise ValueError("grades must be non-negative")
        key = (grade, tuple(weight))
        new = self.terms.get(key, 0) + mult
        if new:
            self.terms[key] = new
        else:
            self.terms.pop(key, None)

    def merge(self, other: "GradedCharacter", scale: int = 1) -> "GradedCharacter":
        if other.rank != self.rank:
            raise ValueError("rank mismatch in character merge")
        for (grade, weight), mult in other.terms.items():
            self.add_term(grade, weight, mult * scale)
        return self

    def __eq__(self, other) -> bool:
        if not isinstance(other, GradedCharacter):
            return NotImplemented
        return self.rank == other.rank and self.terms == other.terms

    __hash__ = None  # mutable container

    def canonical_terms(self) -> list:
        """Terms sorted by ascending grade, then descending lexicographic weight:
        two stable sorts, the second keeping the first's order within a grade."""
        terms = sorted(self.terms.items(), key=lambda kv: kv[0][1], reverse=True)
        terms.sort(key=lambda kv: kv[0][0])
        return terms

    def grades(self) -> set:
        return {grade for grade, _ in self.terms}

    def grade_slice(self, grade: int) -> dict:
        """Weight -> multiplicity map of one graded piece."""
        return {w: m for (s, w), m in self.terms.items() if s == grade}

    def __repr__(self) -> str:
        return f"GradedCharacter(rank={self.rank}, terms={len(self.terms)})"


def expand_dominant(dominant: GradedCharacter) -> GradedCharacter:
    """The full character whose dominant-weight terms are ``dominant``: each
    graded piece is invariant under signed permutations of the coordinates,
    so every term is copied to each weight of its signed orbit."""
    ch = GradedCharacter(dominant.rank)
    orbits = {}
    for (grade, mu), mult in dominant.terms.items():
        if mu not in orbits:
            orbits[mu] = oracle.signed_orbit(mu)
        for w in orbits[mu]:  # orbits of distinct dominant weights are disjoint
            ch.terms[grade, w] = mult
    return ch


def _dense_mul(a: Sequence[int], b: Sequence[int]) -> Sequence[int]:
    # Product of two dense coefficient sequences (index = q-exponent). A
    # factor 1 returns the other operand itself, so results are read only.
    if len(a) < len(b):
        a, b = b, a
    if len(b) == 1:
        return a if b[0] == 1 else [b[0] * x for x in a]
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(b):
        if x:
            for e, y in enumerate(a, i):
                out[e] += x * y
    return out


def _accumulate(sums: dict, key, poly: Sequence[int]) -> None:
    # sums[key] += poly, on dense coefficient lists that ``sums`` owns.
    acc = sums.get(key)
    if acc is None:
        sums[key] = list(poly)
        return
    if len(acc) < len(poly):
        acc.extend([0] * (len(poly) - len(acc)))
    for e, c in enumerate(poly):
        acc[e] += c


def _push(below: dict, child, fixed: tuple, poly: Sequence[int], sums: dict) -> None:
    # below[child][fixed + above] += poly * sums[above], for every tuple of
    # coordinates ``above`` fixed before the step to ``child``.
    acc = below.setdefault(child, {})
    for above, sub in sums.items():
        _accumulate(acc, fixed + above, _dense_mul(poly, sub))


def _dense_character(rank: int, sums: dict) -> "GradedCharacter":
    # The character holding dense polynomials keyed by weight.
    ch = GradedCharacter(rank)
    for weight, poly in sums.items():
        for grade, mult in enumerate(poly):
            if mult:
                ch.terms[grade, weight] = mult
    return ch


def _gap_boxes(upper: tuple, lower: tuple) -> Sequence[int]:
    # Product of the box generating functions, the Gaussian binomials
    # [ell + ellp, ell], over the gaps between a row and the row under it:
    # box i is (ell, ellp) = (upper_i - lower_i, lower_i - upper_{i+1}).
    # An eta row's upper row carries the trailing 0 of its lambda row.
    poly = (1,)
    for i, x in enumerate(lower):
        ell, ellp = upper[i] - x, x - upper[i + 1]
        if ell and ellp:  # a box with one side 0 holds one empty partition
            poly = _dense_mul(poly, _binomial_coeffs(ell + ellp, ell))
    return poly


def dominant_character_direct(lam: DominantWeight) -> GradedCharacter:
    """Dominant-weight terms of the graded character, summed over patterns:
    each pattern of dominant weight contributes, at that weight, the product
    over its gap boxes of the box generating function, which counts the
    box's partitions by size. That is its overlaid patterns counted by box
    count, without building them.

    The sum runs over the chain from the top row lam^r down, eta^j under
    lam^j and lam^{j-1} under eta^j, and is memoized row by row. Choosing
    lam^{j-1} fixes a_j = 2|eta^j| - |lam^j| - |lam^{j-1}|, which must be at
    least a_{j+1} (a_{r+1} = 0; lam^0 is empty). So the rest of the sum
    depends on a lam^j row only through (lam^j, a_{j+1}), and on an eta^j row
    through (eta^j, |lam^j|, a_{j+1}). One pass down the rows keeps, per key
    of the current row, dense polynomials keyed by the coordinates a_{j+1}..
    a_r fixed above it, and pushes each, times the product of box generating
    functions of the row pair (memoized per pair), to every child key; paths
    that reach the same key merge there. Each box generating function is a
    Gaussian binomial, read from the rows that the fermionic walk also reads.
    """
    pairs = {}

    def boxes(upper: tuple, lower: tuple) -> Sequence[int]:
        if (upper, lower) not in pairs:
            pairs[upper, lower] = _gap_boxes(upper, lower)
        return pairs[upper, lower]

    state = {(lam.lam, 0): {(): (1,)}}
    for k in range(2 * lam.rank):
        below = {}
        for key, sums in state.items():
            if k % 2 == 0:  # (lam^j, a_{j+1}) -> eta^j
                row, a_next = key
                upper = row + (0,)
                for eta in interlacing_rows(upper):
                    _push(below, (eta, sum(row), a_next), (), boxes(upper, eta), sums)
            else:  # (eta^j, |lam^j|, a_{j+1}) -> lam^{j-1}, fixing a_j
                eta, lam_sum, a_next = key
                for row in interlacing_rows(eta):
                    a = 2 * sum(eta) - lam_sum - sum(row)
                    if a >= a_next:
                        _push(below, (row, a), (a,), boxes(eta, row), sums)
        state = below
    # One final key ((), a_1) per value of a_1, so their weights are disjoint.
    return _dense_character(lam.rank, {w: p for sums in state.values() for w, p in sums.items()})


def character_direct(lam: DominantWeight) -> GradedCharacter:
    """Graded character counted over overlaid patterns: the orbit expansion
    of :func:`dominant_character_direct`. Every overlaid pattern adds 1 at
    its weight and at the grade given by its box count."""
    return expand_dominant(dominant_character_direct(lam))


def _binomial_products(tops: Sequence[int], start: Sequence[int]) -> list:
    # Every entry tuple with 0 <= entry_i <= tops[i], each with ``start``
    # times the Gaussian binomials [tops[i], entry_i], built one position at a
    # time; a negative top admits no entry.
    partial = [((), start)]
    for n in tops:
        partial = [(entries + (e,), _dense_mul(poly, _binomial_coeffs(n, e)))
                   for entries, poly in partial for e in range(n + 1)]
    return partial


def _fermionic_level(omegas: tuple, lam_t: tuple, j: int, key: tuple) -> dict:
    # Walk level j from a key (T_1..T_{j+1}, a_{j+1}, a_{j+2}) at the
    # boundary before it: child key -> summed binomial products of the
    # level's entries that lead to it. The unbarred entries (i, j) come
    # first, then the barred ones; level r has no unbarred entries.
    totals, a_hi, a_top = key
    tops = ([omegas[i] + totals[i + 1] - totals[i] for i in range(j)]
            if j < len(lam_t) else [0] * j)
    out = {}
    for unbarred, poly in _binomial_products(tops, (1,)):
        hi = a_hi + sum(unbarred)  # a_{j+1} is final after level j
        if hi < a_top:
            continue
        lo = lam_t[j - 1] - totals[j - 1] - unbarred[j - 1]
        barred_tops = [omegas[i] + totals[i + 1] + unbarred[i + 1] - totals[i] - unbarred[i]
                       for i in range(j - 1)] + [lo]
        for barred, prod in _binomial_products(barred_tops, poly):
            child = (tuple(map(sum, zip(totals, unbarred, barred))),
                     lo - sum(barred) - barred[j - 1], hi)
            _accumulate(out, child, prod)
    return out


def dominant_character_fermionic(lam: DominantWeight) -> GradedCharacter:
    """Dominant-weight terms of the graded character, as a lattice sum over
    gap arrays.

    A gap array assigns one non-negative integer to every barred position
    (i, j <= rank) and unbarred position (i, j < rank). The sum walks them
    level by level downward, j = r, ..., 1: per level its unbarred block,
    then its barred block. Each position carries a Gaussian-binomial factor
    whose top argument is a fixed affine function of the multiplicities and
    the entries at higher levels: with T_i the total of row i's entries
    walked so far, the top at unbarred (i, j) is m_i + T_{i+1} - T_i, at
    barred (i, j), i < j, it is m_i + T_{i+1} + u_{i+1,j} - T_i - u_{i,j}, and
    at barred (j, j) it is lam_j - T_j - u_{j,j}. The array's weight is the
    bounding weight minus the gap-weighted sum of positive roots. Entries
    beyond their top argument, and branches whose top goes negative,
    contribute zero by the out-of-range convention and are skipped.

    Level j holds the last roots touching coordinate j + 1, so a branch is
    cut once level j is done and a_{j+1} < a_{j+2}, where a_{r+1} = 0; a leaf
    is kept only when also a_1 >= a_2. Before level j, every top argument
    still to come reads the walked entries through T_1..T_{j+1} only, and
    a_t = lam_t - T_t for t <= j. So the sum is memoized on the key (T_1..
    T_{j+1}, a_{j+1} as walked so far, a_{j+2}, which is final). The barred
    entries (i, j + 1), i <= j, also move a_{j+1}, so it is no function of
    the T_i and must be in the key. One pass down the levels keeps, per key,
    dense polynomials keyed by the final a_{j+2}..a_r, and pushes each, times
    the summed binomial products of level j leading to a child key, to that
    child; paths that reach the same key merge there. The walk touches no
    pattern code.
    """
    r, omegas, lam_t = lam.rank, lam.omegas, lam.lam
    state = {((0,) * (r + 1), 0, 0): {(): (1,)}}
    for j in range(r, 0, -1):
        below = {}
        for key, sums in state.items():
            for child, poly in _fermionic_level(omegas, lam_t, j, key).items():
                # a_{j+1} is final now; a_{r+1} = 0 is no coordinate.
                _push(below, child, (child[2],) if j < r else (), poly, sums)
        state = below
    weights = {}
    for (_, a_1, a_2), sums in state.items():  # after level 1: (T, a_1, a_2)
        if a_1 >= a_2:
            for above, poly in sums.items():
                _accumulate(weights, (a_1,) + above, poly)
    return _dense_character(r, weights)


def character_fermionic(lam: DominantWeight) -> GradedCharacter:
    """Graded character as a lattice sum over gap arrays: the orbit
    expansion of :func:`dominant_character_fermionic`. Equals
    :func:`character_direct`."""
    return expand_dominant(dominant_character_fermionic(lam))


def specialize_q1(ch: GradedCharacter) -> GradedCharacter:
    """Collapse all grades to 0, summing multiplicities per weight."""
    out = GradedCharacter(ch.rank)
    for (_, weight), mult in ch.terms.items():
        out.add_term(0, weight, mult)
    return out


def total_dim(ch: GradedCharacter) -> int:
    """Sum of all multiplicities over grades and weights."""
    return sum(ch.terms.values())


def restrict_drop_last(ch: GradedCharacter) -> GradedCharacter:
    """Delete the last epsilon-coordinate from every weight, merging
    multiplicities; the result has rank one less."""
    if ch.rank < 2:
        raise ValueError("cannot drop a coordinate from a rank-1 character")
    out = GradedCharacter(ch.rank - 1)
    for (grade, weight), mult in ch.terms.items():
        out.add_term(grade, weight[:-1], mult)
    return out


def character_to_json(ch: GradedCharacter) -> dict:
    """JSON shape {"rank", "terms"} with terms in canonical order."""
    return {
        "rank": ch.rank,
        "terms": [
            {"grade": grade, "weight": list(weight), "mult": mult}
            for (grade, weight), mult in ch.canonical_terms()
        ],
    }


def character_from_json(obj: dict) -> GradedCharacter:
    """Inverse of :func:`character_to_json`. A missing key, a rank, grade or
    mult that is not a JSON integer, a weight that is not an array of rank
    integers, rank < 1 or a negative grade is a ValueError."""
    rank = _json_field(obj, "rank", int)
    if rank < 1:
        raise ValueError(f"rank must be at least 1, got {rank}")
    ch = GradedCharacter(rank)
    for term in _json_field(obj, "terms", list):
        ch.add_term(_json_field(term, "grade", int),
                    _json_ints(_json_field(term, "weight", list), "'weight'"),
                    _json_field(term, "mult", int))
    return ch


def _orbit_runs(ch: GradedCharacter, expand: bool, render) -> dict:
    # Per distinct weight of ``ch``: the sort keys of its images in descending
    # order (the signed orbit when expanding, else the weight alone) and each
    # image rendered once. A key reads a weight as the digits, each of
    # absolute value at most m, of a number in base 2m + 1, so keys order as
    # their weights do lexicographically.
    base = 2 * max((abs(x) for _, mu in ch.terms for x in mu), default=0) + 1
    runs = {}
    for _, mu in ch.terms:
        if mu not in runs:
            images = sorted(oracle.signed_orbit(mu), reverse=True) if expand else [mu]
            keys = []
            for w in images:
                key = 0
                for x in w:
                    key = key * base + x
                keys.append(key)
            runs[mu] = keys, [render(w) for w in images]
    return runs


# Lines per write call: a grade's lines are rendered and written in slices of
# this many, so no more than a slice of output is held at once.
_WRITE_LINES = 1 << 14


def _write_runs(write, ch: GradedCharacter, expand: bool, render, groups, sep: str,
                empty: str) -> None:
    # Each group lists (weight, pre, post) with distinct weights of ``ch``.
    # Its lines, pre + rendered image + post over every image of its
    # weights, go out in descending order of image, merged by one sort over
    # the concatenated descending runs of keys. Groups are joined by ``sep``;
    # when there is no line at all, ``empty`` is written instead.
    runs = _orbit_runs(ch, expand, render)
    written = False
    for group in groups:
        keys, texts, pres, posts = [], [], [], []
        for mu, pre, post in group:
            run, rendered = runs[mu]
            keys += run
            texts += rendered
            pres += [pre] * len(run)
            posts += [post] * len(run)
        order = sorted(range(len(keys)), key=keys.__getitem__, reverse=True)
        for start in range(0, len(order), _WRITE_LINES):
            if written:
                write(sep)
            write(sep.join([pres[i] + texts[i] + posts[i]
                            for i in order[start:start + _WRITE_LINES]]))
            written = True
    if not written:
        write(empty)


def _write_graded(write, ch: GradedCharacter, expand: bool, render, term, sep: str,
                  empty: str = "") -> None:
    # Canonical order: ascending grade, then descending weight. A grade's
    # line for an image of mu is pre + render(image) + post, with
    # (pre, post) = term(grade, mult).
    by_grade = {}
    for (grade, mu), mult in ch.terms.items():
        by_grade.setdefault(grade, []).append((mu, *term(grade, mult)))
    _write_runs(write, ch, expand, render, (by_grade[g] for g in sorted(by_grade)), sep,
                empty)


def write_json(write, ch: GradedCharacter, expand: bool = False) -> None:
    """Write json.dumps(character_to_json(full), sort_keys=True) and a
    newline through ``write``, where ``full`` is ``ch``, or with ``expand``
    its orbit expansion, which is never built."""
    write(f'{{"rank": {ch.rank}, "terms": [')
    _write_graded(write, ch, expand, (", ".join(["%d"] * ch.rank) + "]}").__mod__,
                  lambda grade, mult: (f'{{"grade": {grade}, "mult": {mult}, "weight": [', ""),
                  ", ")
    write("]}\n")


def write_csv(write, ch: GradedCharacter, expand: bool = False) -> None:
    """Write CSV with columns grade, a1..ar, mult, rows in canonical order,
    of ``ch`` or, with ``expand``, of its orbit expansion."""
    write("grade," + ",".join(f"a{i}" for i in range(1, ch.rank + 1)) + ",mult")
    _write_graded(write, ch, expand, ",".join(["%d"] * ch.rank).__mod__,
                  lambda grade, mult: (f"\n{grade},", f",{mult}"), "")
    write("\n")


def _weight_linear(weight: Sequence[int], symbol: str, sub: str) -> str:
    return _signed_sum((a, f"{symbol}{sub.format(i=i)}")
                       for i, a in enumerate(weight, start=1) if a)


def write_latex(write, ch: GradedCharacter, expand: bool = False) -> None:
    """Write the terms "m q^{s} e^{...}" in canonical order, joined by " + ",
    and a newline, of ``ch`` or, with ``expand``, of its orbit expansion."""
    _write_graded(write, ch, expand,
                  lambda w: _weight_linear(w, r"\varepsilon_", "{{{i}}}") + "}",
                  lambda grade, mult: (f"{mult} q^{{{grade}}} e^{{", ""), " + ", "0")
    write("\n")


def _text_image(weight: Sequence[int]) -> str:
    exp = _weight_linear(weight, "ε", "{i}")
    return "1" if exp == "0" else f"e^{{{exp}}}"


def write_text(write, ch: GradedCharacter, expand: bool = False) -> None:
    """Write the display form and a newline: the terms grouped by weight,
    descending lexicographically across all grades, each weight with its
    q-polynomial of grade multiplicities; of ``ch`` or, with ``expand``, of
    its orbit expansion, whose images share their dominant weight's
    polynomial."""
    by_weight = {}
    for (grade, mu), mult in ch.terms.items():
        by_weight.setdefault(mu, {})[grade] = mult
    group = []
    for mu, coeffs in by_weight.items():
        poly = QPolynomial(coeffs)
        group.append((mu, "" if poly == 1 else f"({poly})·", ""))
    _write_runs(write, ch, expand, _text_image, [group], " + ", "0")
    write("\n")


def _rendered(writer, ch: GradedCharacter) -> str:
    out = []
    writer(out.append, ch)
    return "".join(out)


def character_to_csv(ch: GradedCharacter) -> str:
    """CSV with columns grade, a1..ar, mult, rows in canonical order."""
    return _rendered(write_csv, ch)


def character_to_latex(ch: GradedCharacter) -> str:
    """Terms rendered as "m q^{s} e^{...}" joined by " + "."""
    return _rendered(write_latex, ch)[:-1]


def character_to_text(ch: GradedCharacter) -> str:
    """Display form grouping terms by weight, descending lexicographically;
    each weight carries its q-polynomial of grade multiplicities."""
    return _rendered(write_text, ch)[:-1]
