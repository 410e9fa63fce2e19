import hashlib
import json
import random
from math import comb

import pytest

from cpops.characters import (
    GradedCharacter,
    QPolynomial,
    box_generating_function,
    character_direct,
    character_fermionic,
    character_from_json,
    character_to_csv,
    character_to_json,
    character_to_latex,
    character_to_text,
    dominant_character_direct,
    dominant_character_fermionic,
    q_binomial,
    restrict_drop_last,
    specialize_q1,
    total_dim,
)
from cpops.oracle import signed_orbit
from cpops.pops import enumerate_pops, partitions_in_box, pop_boxes, pop_weight
from cpops.rootsys import DominantWeight, sweep_dominant_weights


def test_qpolynomial_arithmetic():
    one = QPolynomial.one()
    q = QPolynomial.q_power(1)
    assert one + q == QPolynomial({0: 1, 1: 1})
    assert (one + q) * (one + q) == QPolynomial({0: 1, 1: 2, 2: 1})
    assert (one + q) * 0 == QPolynomial.zero()
    assert 3 * q == QPolynomial({1: 3})
    assert str(one + q) == "1+q"
    assert str(QPolynomial({0: 1, 2: 2, 3: 1})) == "1+2q^2+q^3"
    assert str(QPolynomial.zero()) == "0"
    assert str(QPolynomial({0: -1, 1: -1, 3: 2})) == "-1-q+2q^3"
    assert str(QPolynomial({2: -1})) == "-q^2"
    assert str(QPolynomial({1: 1})) == "q"


def test_q_binomial_examples():
    for n in (0, 1, 5, 9):
        assert q_binomial(n, 0) == QPolynomial.one()
    assert q_binomial(2, 1) == QPolynomial({0: 1, 1: 1})
    assert q_binomial(4, 2) == QPolynomial({0: 1, 1: 1, 2: 2, 3: 1, 4: 1})


def test_q_binomial_out_of_range_is_zero():
    assert q_binomial(-1, 0) == QPolynomial.zero()
    assert q_binomial(2, 3) == QPolynomial.zero()
    assert q_binomial(-2, -1) == QPolynomial.zero()


@pytest.mark.parametrize("n", range(9))
def test_q_binomial_specialization_and_degree(n):
    for s in range(n + 1):
        poly = q_binomial(n, s)
        assert poly.at_one() == comb(n, s)
        assert poly.degree() == s * (n - s)
        assert all(c > 0 for c in poly.coeffs().values())


def test_q_binomial_deep_tops():
    # A top of 1,200 is far past the interpreter's recursion limit.
    for s in (2, 1198):
        poly = q_binomial(1200, s)
        assert poly.at_one() == comb(1200, 2)
        assert poly.degree() == 2 * 1198


def test_binomial_rows_equal_q_binomial():
    # The fermionic walk reads rows grown from [n, s - 1] to [n, s], and
    # q_binomial reads the same rows; the box recurrence, which counts the
    # partitions of the box (s, n - s) by size, is the reference for both.
    from cpops.characters import _binomial_coeffs, _box_coeffs

    for n in range(25):
        for s in range(n + 1):
            poly = q_binomial(n, s)
            dense = tuple(poly.coeffs().get(e, 0) for e in range(poly.degree() + 1))
            assert _binomial_coeffs(n, s) == dense == _box_coeffs(s, n - s), (n, s)


def test_q_binomial_equals_box_generating_function():
    # Two independent recurrences: Gaussian-binomial rows grown by
    # multiplying and dividing by 1 - q^a, and partitions in a box counted
    # by their smallest part.
    for n in range(13):
        for s in range(n + 1):
            assert q_binomial(n, s) == box_generating_function(s, n - s), (n, s)


def test_box_generating_function_examples():
    assert box_generating_function(0, 7) == QPolynomial.one()
    assert box_generating_function(1, 1) == QPolynomial({0: 1, 1: 1})
    assert box_generating_function(2, 2) == QPolynomial({0: 1, 1: 1, 2: 2, 3: 1, 4: 1})


def test_box_coeffs_equal_enumeration():
    # The direct walk counts box partitions by size with a recurrence;
    # listing them is the reference.
    from cpops.characters import _box_coeffs

    for ell in range(9):
        for ellp in range(9):
            counts = [0] * (ell * ellp + 1)
            for parts in partitions_in_box(ell, ellp):
                counts[sum(parts)] += 1
            assert _box_coeffs(ell, ellp) == tuple(counts), (ell, ellp)


def test_box_generating_function_equals_q_binomial():
    for ell in range(7):
        for ellp in range(7):
            assert box_generating_function(ell, ellp) == q_binomial(ell + ellp, ell)


def test_character_direct_zero_weight():
    for r in (1, 2, 3):
        ch = character_direct(DominantWeight.from_omegas((0,) * r))
        assert ch.terms == {(0, (0,) * r): 1}


def test_character_direct_rank1_example():
    ch = character_direct(DominantWeight.from_omegas((2,)))
    assert ch.terms == {
        (0, (2,)): 1,
        (0, (0,)): 1,
        (1, (0,)): 1,
        (0, (-2,)): 1,
    }


def test_character_direct_omega1_rank2():
    ch = character_direct(DominantWeight.from_omegas((1, 0)))
    assert ch.terms == {
        (0, (1, 0)): 1,
        (0, (0, 1)): 1,
        (0, (0, -1)): 1,
        (0, (-1, 0)): 1,
    }


def test_character_fermionic_examples():
    assert character_fermionic(DominantWeight.from_omegas((0, 0))).terms == {
        (0, (0, 0)): 1
    }
    ch = character_fermionic(DominantWeight.from_omegas((2,)))
    assert ch == character_direct(DominantWeight.from_omegas((2,)))
    w = DominantWeight.from_omegas((0, 1))
    assert character_fermionic(w) == character_direct(w)


def test_character_methods_agree_rank1_sweep():
    # rank 1 up to total 3, and ranks 4-6, which the benchmark walks
    for rank, max_total in ((1, 3), (4, 2), (5, 1), (6, 1)):
        for w in sweep_dominant_weights(rank, max_total):
            assert character_direct(w) == character_fermionic(w), w


def test_characters_equal_per_pop_accumulation():
    # Neither method walks overlaid patterns any more; this ties both to
    # counting them one by one.
    for rank, max_total in ((1, 4), (2, 3), (3, 2), (4, 1)):
        for w in sweep_dominant_weights(rank, max_total):
            per_pop = GradedCharacter(w.rank)
            for pop in enumerate_pops(w):
                per_pop.add_term(pop_boxes(pop), pop_weight(pop))
            assert character_direct(w) == per_pop, w
            assert character_fermionic(w) == per_pop, w


def test_methods_share_no_enumeration(monkeypatch):
    # The direct method uses no Gaussian binomial and none of the fermionic
    # walk's helpers, the fermionic one no pattern code and none of the
    # direct walk's helpers; each still runs with the other's tools broken.
    from cpops import characters

    def broken(*args):
        raise AssertionError("called across methods")

    w = DominantWeight.from_omegas((1, 0, 1))
    expected = character_direct(w)
    with monkeypatch.context() as m:
        for name in ("q_binomial", "_binomial_coeffs", "_binomial_products",
                     "_fermionic_level"):
            m.setattr(characters, name, broken)
        assert character_direct(w) == expected
    for name in ("interlacing_rows", "box_generating_function", "_box_coeffs",
                 "_gap_boxes"):
        monkeypatch.setattr(characters, name, broken)
    assert character_fermionic(w) == expected


# SHA-256 of json.dumps(character_to_json(dominant part), sort_keys=True),
# recorded from the pattern-by-pattern walk, with its term count and total
# multiplicity; (2, 2, 2, 2) was recorded from the two-pass memoized walks.
# All three weights lie beyond the per-POP accumulation test.
DOMINANT_DIGESTS = {
    (2, 1, 1, 1): (224, 84204,
                   "44178aefdaa66546b9580260e621ce45ff3d111d408c40b614a4f54c24a7c375"),
    (2, 2, 2, 2): (3271, 3838446799,
                   "f6cc5fe337e98e79b1ee51f79a93c87032b197d02fe886b7ff0a86e66901ef05"),
    (1, 1, 1, 1, 1): (673, 7865562,
                      "680dd57ff951bc6fe5877da99c061246c97812f0db485d80ae9aa7110ae633ac"),
}


@pytest.mark.parametrize("omegas", sorted(DOMINANT_DIGESTS))
@pytest.mark.parametrize("method", [dominant_character_direct, dominant_character_fermionic])
def test_dominant_parts_match_recorded_digests(method, omegas):
    terms, total, digest = DOMINANT_DIGESTS[omegas]
    ch = method(DominantWeight.from_omegas(omegas))
    assert (len(ch.terms), total_dim(ch)) == (terms, total)
    blob = json.dumps(character_to_json(ch), sort_keys=True).encode("utf-8")
    assert hashlib.sha256(blob).hexdigest() == digest


def test_dominant_parts_agree_on_large_boxes():
    # Rank 1 at 40 has gap boxes up to (20, 20), of comb(40, 20) partitions
    # each, which the direct walk counts without listing.
    w = DominantWeight.from_omegas((40,))
    assert dominant_character_direct(w) == dominant_character_fermionic(w)


def test_dominant_parts_agree_and_are_dominant():
    for rank, max_total in ((1, 4), (2, 3), (3, 2), (4, 1)):
        for w in sweep_dominant_weights(rank, max_total):
            dominant = dominant_character_direct(w)
            assert dominant == dominant_character_fermionic(w), w
            for _, mu in dominant.terms:
                assert all(a >= b for a, b in zip(mu, mu[1:] + (0,))), (w, mu)


def test_binomial_tops_equal_gap_sums_pointwise():
    # On every valid pattern, the top argument the lattice sum assigns to a
    # position, computed from the gap entries alone, equals l + lp of the
    # pattern's gap array there. This is the pointwise reason the two
    # character computations agree.
    from cpops.patterns import differences, enumerate_patterns

    for rank in (1, 2, 3):
        for w in sweep_dominant_weights(rank, 2):
            r = w.rank
            m = w.omegas
            lam = w.lam
            for p in enumerate_patterns(w):
                d = differences(p)
                ubar = {(i, j): gap[0] for (i, j, b), gap in d.items() if not b}
                bar = {(i, j): gap[0] for (i, j, b), gap in d.items() if b}
                for (i, j, barred), (ell, ellp) in d.items():
                    if not barred:
                        top = (
                            m[i - 1]
                            + sum(ubar[(i + 1, k)] - ubar[(i, k)]
                                  for k in range(j + 1, r))
                            + sum(bar[(i + 1, k)] - bar[(i, k)]
                                  for k in range(j + 1, r + 1))
                        )
                    elif i == j:
                        top = (
                            lam[i - 1]
                            - sum(ubar[(i, k)] for k in range(i, r))
                            - sum(bar[(i, k)] for k in range(i + 1, r + 1))
                        )
                    else:
                        top = (
                            m[i - 1]
                            + sum(ubar[(i + 1, k)] - ubar[(i, k)]
                                  for k in range(j, r))
                            + sum(bar[(i + 1, k)] - bar[(i, k)]
                                  for k in range(j + 1, r + 1))
                        )
                    assert top == ell + ellp, (w, p, i, j, barred)


def test_zeroth_piece_examples():
    ch = character_direct(DominantWeight.from_omegas((2,)))
    assert ch.grade_slice(0) == {(2,): 1, (0,): 1, (-2,): 1}
    tiny = GradedCharacter(2, {(0, (0, 0)): 1})
    assert tiny.grade_slice(0) == {(0, 0): 1}
    w1 = character_direct(DominantWeight.from_omegas((1, 0)))
    assert w1.grades() == {0}


def test_specialize_and_total_dim():
    assert total_dim(character_direct(DominantWeight.from_omegas((2,)))) == 4
    assert total_dim(character_direct(DominantWeight.from_omegas((0, 0)))) == 1
    assert total_dim(character_direct(DominantWeight.from_omegas((1, 1)))) == 20
    sp = specialize_q1(character_direct(DominantWeight.from_omegas((2,))))
    assert sp.terms == {(0, (2,)): 1, (0, (0,)): 2, (0, (-2,)): 1}


def test_restrict_drop_last():
    ch = character_direct(DominantWeight.from_omegas((1, 0)))
    dropped = restrict_drop_last(ch)
    assert dropped.rank == 1
    assert dropped.terms == {(0, (1,)): 1, (0, (-1,)): 1, (0, (0,)): 2}
    tiny = GradedCharacter(2, {(0, (0, 0)): 1})
    assert restrict_drop_last(tiny).terms == {(0, (0,)): 1}
    w2 = restrict_drop_last(character_direct(DominantWeight.from_omegas((0, 1))))
    assert total_dim(w2) == 5
    with pytest.raises(ValueError):
        restrict_drop_last(GradedCharacter(1, {(0, (0,)): 1}))


def test_canonical_term_order():
    ch = character_direct(DominantWeight.from_omegas((2,)))
    keys = [key for key, _ in ch.canonical_terms()]
    assert keys == [(0, (2,)), (0, (0,)), (0, (-2,)), (1, (0,))]


def test_character_json_round_trip():
    for w in sweep_dominant_weights(2, 2):
        ch = character_direct(w)
        blob = json.dumps(character_to_json(ch))
        assert character_from_json(json.loads(blob)) == ch


@pytest.mark.parametrize("obj", [
    {"rank": 2, "terms": [{"grade": 1.5, "weight": "12", "mult": True}]},
    {"rank": 2, "terms": [{"grade": 1.5, "weight": [1, 2], "mult": 1}]},
    {"rank": 2, "terms": [{"grade": 1, "weight": "12", "mult": 1}]},
    {"rank": 2, "terms": [{"grade": 1, "weight": [1, 2], "mult": True}]},
    {"rank": 2, "terms": [{"grade": 1, "weight": [1, 2]}]},
    {"rank": 2, "terms": [{"weight": [1, 2], "mult": 1}]},
    {"rank": 2, "terms": [{"grade": 1, "weight": [1, 2.0], "mult": 1}]},
    {"rank": 2, "terms": [{"grade": 1, "weight": [1], "mult": 1}]},
    {"rank": 2, "terms": [{"grade": -1, "weight": [1, 2], "mult": 1}]},
    {"rank": 2, "terms": [[1, [1, 2], 1]]},
    {"rank": 2, "terms": {"grade": 1}},
    {"rank": "2", "terms": []},
    {"rank": 0, "terms": []},
    {"terms": []},
    {"rank": 2},
    [],
    None,
])
def test_character_json_rejects_malformed(obj):
    with pytest.raises(ValueError):
        character_from_json(obj)


def test_render_formats_smoke():
    ch = character_direct(DominantWeight.from_omegas((2,)))
    assert character_to_text(ch) == "e^{2ε1} + (1+q)·1 + e^{-2ε1}"
    csv = character_to_csv(ch)
    assert csv.splitlines()[0] == "grade,a1,mult"
    assert "1,0,1" in csv.splitlines()
    latex = character_to_latex(ch)
    assert "q^{1}" in latex and "\\varepsilon_{1}" in latex
    signed = GradedCharacter(3, {(0, (0, -2, 1)): 1, (2, (0, 0, 0)): -3,
                                 (1, (1, -1, 0)): 2})
    assert character_to_text(signed) == \
        "(2q)·e^{ε1-ε2} + (-3q^2)·1 + e^{-2ε2+ε3}"
    assert character_to_latex(signed) == (
        r"1 q^{0} e^{-2\varepsilon_{2}+\varepsilon_{3}} + "
        r"2 q^{1} e^{\varepsilon_{1}-\varepsilon_{2}} + -3 q^{2} e^{0}")


def test_signed_permutation_invariance_of_slices():
    for w in sweep_dominant_weights(2, 2):
        ch = character_direct(w)
        for grade in ch.grades():
            piece = ch.grade_slice(grade)
            for weight, mult in piece.items():
                for image in signed_orbit(weight):
                    assert piece.get(image) == mult, (w, grade, weight)


def test_merge_is_partition_independent():
    w = DominantWeight.from_omegas((1, 1))
    sequential = character_direct(w)
    chunks = {}
    for pop in enumerate_pops(w):
        chunks.setdefault(pop.pattern.eta_rows[-1], []).append(pop)
    keys = list(chunks)
    random.Random(7).shuffle(keys)
    merged = GradedCharacter(w.rank)
    for key in keys:
        part = GradedCharacter(w.rank)
        for pop in chunks[key]:
            part.add_term(pop_boxes(pop), pop_weight(pop))
        merged.merge(part)
    assert merged == sequential
