import itertools
from collections import Counter
from math import comb, factorial

import pytest

from cpops.oracle import (
    dominant_rep,
    dominant_weights_below,
    freudenthal_character,
    in_positive_root_lattice,
    signed_orbit,
    weyl_dim,
)
from cpops.patterns import enumerate_patterns, pattern_weight
from cpops.rootsys import DominantWeight, sweep_dominant_weights


def test_weyl_dim_examples():
    assert weyl_dim(DominantWeight.from_omegas((0, 0))) == 1
    assert weyl_dim(DominantWeight.from_omegas((0, 1))) == 5
    assert weyl_dim(DominantWeight.from_omegas((1, 1))) == 16


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_weyl_dim_fundamentals_match_binomials(rank):
    for i in range(1, rank + 1):
        m = tuple(1 if k == i else 0 for k in range(1, rank + 1))
        expected = comb(2 * rank, i) - (comb(2 * rank, i - 2) if i >= 2 else 0)
        assert weyl_dim(DominantWeight.from_omegas(m)) == expected


def test_root_lattice_membership():
    assert in_positive_root_lattice((0, 0))
    assert in_positive_root_lattice((1, 1))
    assert not in_positive_root_lattice((0, 1))  # odd coefficient on the long root
    assert not in_positive_root_lattice((-1, 1))
    assert in_positive_root_lattice((2,))
    assert not in_positive_root_lattice((1,))


def test_dominant_weights_below_examples():
    zero = DominantWeight.from_omegas((0, 0))
    assert dominant_weights_below(zero) == [(0, 0)]
    w2 = DominantWeight.from_omegas((0, 1))
    assert dominant_weights_below(w2) == [(1, 1), (0, 0)]
    two_w1 = DominantWeight.from_omegas((2, 0))
    assert dominant_weights_below(two_w1) == [(2, 0), (1, 1), (0, 0)]


def test_dominant_weights_below_is_dominance_compatible():
    w = DominantWeight.from_omegas((1, 1, 0))
    below = dominant_weights_below(w)
    assert below[0] == w.lam
    for earlier_index, mu in enumerate(below):
        for nu in below[earlier_index + 1 :]:
            # nothing later may dominate an earlier entry strictly
            diff = tuple(a - b for a, b in zip(nu, mu))
            assert not (in_positive_root_lattice(diff) and nu != mu)


def test_freudenthal_zero_weight():
    table = freudenthal_character(DominantWeight.from_omegas((0, 0)))
    assert table == {(0, 0): 1}


def test_freudenthal_defining_representation():
    table = freudenthal_character(DominantWeight.from_omegas((1, 0)))
    assert table == {(1, 0): 1, (-1, 0): 1, (0, 1): 1, (0, -1): 1}
    assert sum(table.values()) == 4


def test_freudenthal_omega2():
    table = freudenthal_character(DominantWeight.from_omegas((0, 1)))
    expected = {w: 1 for w in signed_orbit((1, 1))}
    expected[(0, 0)] = 1
    assert table == expected
    assert sum(table.values()) == 5


def test_freudenthal_total_matches_weyl_dim():
    for r in (1, 2, 3):
        for w in sweep_dominant_weights(r, 2):
            assert sum(freudenthal_character(w).values()) == weyl_dim(w), w


def test_freudenthal_orbit_closure():
    table = freudenthal_character(DominantWeight.from_omegas((1, 1)))
    for weight, mult in table.items():
        rep = dominant_rep(weight)
        assert table[rep] == mult


def test_freudenthal_matches_pattern_weight_multiset():
    for r in (1, 2):
        for w in sweep_dominant_weights(r, 2):
            counted = Counter(pattern_weight(p) for p in enumerate_patterns(w))
            assert dict(counted) == freudenthal_character(w), w


def _signed_permutation_images(weight):
    # Reference: every one of the r!·2^r signed permutations.
    out = set()
    for perm in itertools.permutations(weight):
        for signs in itertools.product((1, -1), repeat=len(weight)):
            out.add(tuple(s * x for s, x in zip(signs, perm)))
    return out


def test_signed_orbit_matches_all_signed_permutations():
    weights = [w.lam for r in range(1, 6) for w in sweep_dominant_weights(r, 2)]
    weights += [(0, -2, 1), (3, -3, 0, 3), (1, 1, 1, 0, 0, 0)]
    for weight in weights:
        orbit = signed_orbit(weight)
        assert orbit == _signed_permutation_images(weight), weight
        size = 2 ** sum(1 for x in weight if x) * factorial(len(weight))
        for mult in Counter(abs(x) for x in weight).values():
            size //= factorial(mult)
        assert len(orbit) == size, weight
