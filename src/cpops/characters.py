"""Exact q-series arithmetic and graded characters, computed two ways.

A graded character is a finitely supported integer map from (grade, weight)
pairs, the weight in epsilon-coordinates. Each graded piece of a local Weyl
module is an sp(2r)-module, so its character is invariant under signed
permutations of the coordinates and is fixed by its dominant weights. Both
methods compute only that dominant part: ``dominant_character_direct`` sums
box generating functions over the patterns of dominant weight, and
``dominant_character_fermionic`` evaluates a lattice sum of Gaussian-binomial
products over gap arrays, touching none of the pattern machinery. Each walk
cuts a branch once a coordinate it has fixed breaks dominance.
``character_direct`` and ``character_fermionic`` expand the dominant part to
the full character with :func:`expand_dominant`. The two must agree exactly,
which is the package's central cross-check.

Gaussian binomials use the zero convention out of range: the polynomial is
zero whenever the bottom index exceeds the top or the top is negative. Under
that convention gap arrays that correspond to no pattern contribute nothing
to the lattice sum, so it converges term for term to the direct count.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

from . import oracle
from .patterns import (
    _json_field,
    _json_ints,
    differences,
    enumerate_dominant_patterns,
    pattern_weight,
)
# enumerate_pops, pop_boxes and pop_weight are imported only so that
# perfbench/traced.py can wrap them under this module's name.
from .pops import enumerate_pops, partitions_in_box, pop_boxes, pop_weight  # noqa: F401
from .rootsys import DominantWeight, root_vector


def _signed_sum(terms) -> str:
    # Non-zero (coefficient, symbol) pairs as one signed sum: the first term
    # keeps its own sign, later ones are joined by +/-, a coefficient of +-1
    # on a non-empty symbol prints without the 1, and no terms print 0.
    out = ""
    for c, symbol in terms:
        mag = "" if abs(c) == 1 and symbol else str(abs(c))
        out += f"{'-' if c < 0 else '+' if out else ''}{mag}{symbol}"
    return out or "0"


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


@lru_cache(maxsize=None)
def q_binomial(n: int, s: int) -> QPolynomial:
    """Gaussian binomial with top n and bottom s.

    Zero polynomial when s < 0, n < 0, or s > n; otherwise a polynomial with
    non-negative coefficients, degree s*(n-s), and value comb(n, s) at q = 1.
    Built without recursion from [m, 0] = 1, m = n - max(s, n - s): step t
    multiplies [m + t - 1, t - 1] by 1 - q^(m+t) and divides exactly by 1 - q^t.
    """
    if s < 0 or n < 0 or s > n:
        return QPolynomial.zero()
    s = min(s, n - s)
    m = n - s
    coeffs = [1]
    for t in range(1, s + 1):
        coeffs += [0] * (m + t)
        for e in range(len(coeffs) - 1, m + t - 1, -1):
            coeffs[e] -= coeffs[e - m - t]
        for e in range(t, len(coeffs)):
            coeffs[e] += coeffs[e - t]
        del coeffs[t * m + 1:]
    return QPolynomial(dict(enumerate(coeffs)))


@lru_cache(maxsize=None)
def box_generating_function(ell: int, ellp: int) -> QPolynomial:
    """Sum of q**|s| over the partitions fitting the box (ell, ellp), computed
    by direct enumeration and memoized per box; equals q_binomial(ell + ellp,
    ell)."""
    coeffs = {}
    for parts in partitions_in_box(ell, ellp):
        size = sum(parts)
        coeffs[size] = coeffs.get(size, 0) + 1
    return QPolynomial(coeffs)


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
        """Terms sorted by ascending grade, then descending lexicographic weight."""
        return sorted(
            self.terms.items(),
            key=lambda kv: (kv[0][0], tuple(-x for x in kv[0][1])),
        )

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


def dominant_character_direct(lam: DominantWeight) -> GradedCharacter:
    """Dominant-weight terms of the graded character, summed over patterns:
    each pattern of dominant weight contributes, at that weight, the product
    over its gap boxes of :func:`box_generating_function`, which counts the
    box's partitions by size. That is its overlaid patterns counted by box
    count, without building them."""
    ch = GradedCharacter(lam.rank)
    for p in enumerate_dominant_patterns(lam):
        poly = QPolynomial.one()
        for ell, ellp in differences(p).values():
            if ell and ellp:  # a box with one side 0 holds one empty partition
                poly = poly * box_generating_function(ell, ellp)
        w = pattern_weight(p)
        for exp, coeff in poly.coeffs().items():
            ch.add_term(exp, w, coeff)
    return ch


def character_direct(lam: DominantWeight) -> GradedCharacter:
    """Graded character counted over overlaid patterns: the orbit expansion
    of :func:`dominant_character_direct`. Every overlaid pattern adds 1 at
    its weight and at the grade given by its box count."""
    return expand_dominant(dominant_character_direct(lam))


def dominant_character_fermionic(lam: DominantWeight) -> GradedCharacter:
    """Dominant-weight terms of the graded character, as a lattice sum over
    gap arrays.

    A gap array assigns one non-negative integer to every barred position
    (i, j <= rank) and unbarred position (i, j < rank). The walk visits them
    level by level downward (the top barred block, then per lower level its
    unbarred and barred blocks) and keeps the entries in one list indexed by
    walk position. Each position carries a Gaussian-binomial factor whose top
    argument is a fixed affine function of the multiplicities and the entries
    at higher levels, tabulated once per call as a constant plus (sign,
    earlier walk index) terms. The array's weight is the bounding weight minus
    the gap-weighted sum of positive roots. Entries beyond their top argument,
    and branches whose top goes negative, contribute zero by the out-of-range
    convention and are skipped. A forced position, whose top argument is 0,
    is passed over without a call.

    Level j holds the last roots touching coordinate j + 1, so a branch is
    cut once level j is done and a_{j+1} < a_{j+2}, where a_{r+1} = 0; a
    leaf is kept only when also a_1 >= a_2. The walk touches no pattern code.
    """
    r, omegas, lam_t = lam.rank, lam.omegas, lam.lam
    positions = [(i, r, True) for i in range(1, r + 1)]
    # fixed[k]: 0-based coordinates that are final from walk index k on and
    # must not fall below the next one.
    fixed = {}
    for j in range(r - 1, 0, -1):
        positions.extend((i, j, False) for i in range(1, j + 1))
        positions.extend((i, j, True) for i in range(1, j + 1))
        fixed[len(positions)] = (j,)
    leaf = len(positions)
    fixed[leaf] = fixed.get(leaf, ()) + (0,)
    fixed = [fixed.get(k, ()) for k in range(leaf + 1)]
    index = {pos: k for k, pos in enumerate(positions)}
    vectors = [[(t, c) for t, c in enumerate(root_vector(p, r)) if c]
               for p in positions]

    def row(i: int, sign: int, lo_unbarred: int, lo_barred: int) -> list:
        # Signed entries of row i from the given levels up to the top.
        return [(sign, index[(i, k, False)]) for k in range(lo_unbarred, r)] + [
            (sign, index[(i, k, True)]) for k in range(lo_barred, r + 1)]

    # Position k reads only entries at indices below k, so the entry list
    # never needs resetting between branches.
    tops = []
    for i, j, barred in positions:
        lo = j if barred else j + 1
        terms = row(i, -1, lo, j + 1)
        if barred and i == j:
            tops.append((lam_t[i - 1], terms))
        else:
            tops.append((omegas[i - 1], row(i + 1, 1, lo, j + 1) + terms))

    entries = [0] * len(positions)
    # Each node undoes its own root subtractions; the trailing 0 is a_{r+1}.
    weight = list(lam_t) + [0]
    ch = GradedCharacter(r)

    def walk(k: int, poly: QPolynomial) -> None:
        # A position whose top argument is 0 (entry 0, factor 1, no weight
        # change) is passed over here, so the recursion depth is the number
        # of free positions on a path, not the number of positions.
        while True:
            for t in fixed[k]:
                if weight[t] < weight[t + 1]:
                    return
            if k == leaf:
                w = tuple(weight[:r])
                for exp, coeff in poly.coeffs().items():
                    ch.add_term(exp, w, coeff)
                return
            const, terms = tops[k]
            n = const + sum(s * entries[t] for s, t in terms)
            if n < 0:
                return
            if n:
                break
            entries[k] = 0
            k += 1
        for ell in range(n + 1):
            entries[k] = ell
            walk(k + 1, poly * q_binomial(n, ell))
            for t, c in vectors[k]:
                weight[t] -= c
        for t, c in vectors[k]:
            weight[t] += (n + 1) * c

    walk(0, QPolynomial.one())
    return ch


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


def character_to_csv(ch: GradedCharacter) -> str:
    """CSV with columns grade, a1..ar, mult, rows in canonical order."""
    header = "grade," + ",".join(f"a{i}" for i in range(1, ch.rank + 1)) + ",mult"
    lines = [header]
    for (grade, weight), mult in ch.canonical_terms():
        lines.append(f"{grade}," + ",".join(str(x) for x in weight) + f",{mult}")
    return "\n".join(lines) + "\n"


def _weight_linear(weight: Sequence[int], symbol: str, sub: str) -> str:
    return _signed_sum((a, f"{symbol}{sub.format(i=i)}")
                       for i, a in enumerate(weight, start=1) if a)


def character_to_latex(ch: GradedCharacter) -> str:
    """Terms rendered as "m q^{s} e^{...}" joined by " + "."""
    pieces = []
    for (grade, weight), mult in ch.canonical_terms():
        linear = _weight_linear(weight, r"\varepsilon_", "{{{i}}}")
        pieces.append(f"{mult} q^{{{grade}}} e^{{{linear}}}")
    return " + ".join(pieces) if pieces else "0"


def character_to_text(ch: GradedCharacter) -> str:
    """Display form grouping terms by weight, descending lexicographically;
    each weight carries its q-polynomial of grade multiplicities."""
    by_weight = {}
    for (grade, weight), mult in ch.terms.items():
        by_weight.setdefault(weight, {})[grade] = mult
    pieces = []
    for weight in sorted(by_weight, key=lambda w: tuple(-x for x in w)):
        poly = QPolynomial(by_weight[weight])
        exp = _weight_linear(weight, "ε", "{i}")
        body = "1" if exp == "0" else f"e^{{{exp}}}"
        if poly == 1:
            pieces.append(body)
        else:
            pieces.append(f"({poly})·{body}")
    return " + ".join(pieces) if pieces else "0"
