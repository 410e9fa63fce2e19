"""Independent classical checks: Weyl dimension and Freudenthal multiplicities.

Everything here is derived from the root system alone, with exact integer
arithmetic, so it can sit in judgement over the combinatorial enumeration.
Weight multiplicities of an irreducible module are computed by Freudenthal's
recursion on the dominant weights under the highest weight, walked in an order
compatible with dominance (:func:`dominant_freudenthal`);
:func:`freudenthal_character` closes them under the signed-permutation group,
and :func:`orbit_size` counts an orbit without listing it.
"""

from __future__ import annotations

import itertools
from collections import Counter
from math import factorial
from typing import Sequence

from .rootsys import DominantWeight, inner, positive_roots


def _rho(rank: int) -> tuple:
    return tuple(range(rank, 0, -1))


def weyl_dim(lam: DominantWeight) -> int:
    """Dimension of the irreducible module of highest weight ``lam``: the
    product over positive roots of (lam + rho, alpha) / (rho, alpha),
    evaluated exactly."""
    r = lam.rank
    rho = _rho(r)
    shifted = tuple(a + b for a, b in zip(lam.lam, rho))
    num = 1
    den = 1
    for alpha in positive_roots(r):
        num *= inner(shifted, alpha)
        den *= inner(rho, alpha)
    if num % den:
        raise RuntimeError(f"internal error: Weyl product {num}/{den} not integral")
    return num // den


def dominant_rep(weight: Sequence[int]) -> tuple:
    """Dominant representative of a weight's signed-permutation orbit:
    absolute values sorted decreasingly."""
    return tuple(sorted((abs(x) for x in weight), reverse=True))


def signed_orbit(weight: Sequence[int]) -> set:
    """All images of a weight under reordering of its coordinates and sign
    flips, built by inserting each signed coordinate y into the distinct
    partial images only at positions up to the first y already there. Every
    image still arises, as the one whose leftmost y is the inserted one."""
    out = {()}
    for x in weight:
        out = {img[:k] + (y,) + img[k:]
               for img in out for y in {x, -x}
               for k in range((img + (y,)).index(y) + 1)}
    return out


def orbit_size(weight: Sequence[int]) -> int:
    """The size of a weight's signed-permutation orbit, len(signed_orbit(mu)):
    r! over the factorials of each value's copy count among the absolute
    values, times 2 per non-zero coordinate."""
    size = factorial(len(weight)) << sum(1 for x in weight if x)
    for copies in Counter(map(abs, weight)).values():
        size //= factorial(copies)
    return size


def positive_root_coordinates(vec: Sequence[int]):
    """Coefficients (c_1..c_r) of ``vec`` in the simple-root basis, or None
    when some coefficient is negative or non-integral."""
    r = len(vec)
    coeffs = []
    partial = 0
    for k in range(r - 1):
        partial += vec[k]
        if partial < 0:
            return None
        coeffs.append(partial)
    last2 = partial + vec[r - 1] if r > 1 else vec[0]
    if last2 < 0 or last2 % 2:
        return None
    coeffs.append(last2 // 2)
    return tuple(coeffs)


def in_positive_root_lattice(vec: Sequence[int]) -> bool:
    return positive_root_coordinates(vec) is not None


def dominant_weights_below(lam: DominantWeight) -> list:
    """Dominant weights mu such that lam - mu is a non-negative integer
    combination of simple roots, ordered compatibly with dominance (the
    combination's coefficient sum ascending, ties broken lexicographically)."""
    r = lam.rank
    top = lam.lam
    found = []
    for mu in itertools.combinations_with_replacement(range(top[0], -1, -1), r):
        coords = positive_root_coordinates(tuple(a - b for a, b in zip(top, mu)))
        if coords is not None:
            found.append((sum(coords), tuple(-x for x in mu), mu))
    found.sort()
    return [mu for _, _, mu in found]


def dominant_freudenthal(lam: DominantWeight) -> dict:
    """Dominant weight -> multiplicity map of the irreducible module of
    highest weight ``lam``, by Freudenthal's recursion seeded with
    multiplicity 1 at the top; weights of multiplicity 0 are left out. The
    sum of multiplicity times :func:`orbit_size` equals :func:`weyl_dim`."""
    r = lam.rank
    top = lam.lam
    rho = _rho(r)
    roots = positive_roots(r)
    top_norm = inner(top, top)
    shifted_top = tuple(a + b for a, b in zip(top, rho))
    shifted_top_norm = inner(shifted_top, shifted_top)

    mults = {top: 1}
    for mu in dominant_weights_below(lam):
        if mu == top:
            continue
        numerator = 0
        for alpha in roots:
            k = 1
            while True:
                v = tuple(a + k * b for a, b in zip(mu, alpha))
                if inner(v, v) > top_norm:
                    break
                m = mults.get(dominant_rep(v), 0)
                if m:
                    numerator += inner(v, alpha) * m
                k += 1
        numerator *= 2
        shifted = tuple(a + b for a, b in zip(mu, rho))
        denominator = shifted_top_norm - inner(shifted, shifted)
        if denominator <= 0 or numerator % denominator:
            raise RuntimeError(
                f"internal error: Freudenthal step at {mu} gives "
                f"{numerator}/{denominator}"
            )
        value = numerator // denominator
        if value:
            mults[mu] = value
    return mults


def freudenthal_character(lam: DominantWeight) -> dict:
    """Weight -> multiplicity map of the irreducible module of highest
    weight ``lam``: :func:`dominant_freudenthal` closed under the
    signed-permutation group of the epsilon-coordinates. The total equals
    :func:`weyl_dim`."""
    return {w: m for mu, m in dominant_freudenthal(lam).items()
            for w in signed_orbit(mu)}
