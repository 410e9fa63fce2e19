"""Acceptance suite: every promised identity at its stated range, all exact.

Each test sweeps the stated weight ranges, asserts the identity with zero
tolerance, and prints one pass line (visible with ``pytest -s``). A failure
raises with the offending weight in the message.
"""

import itertools
import json
import time
from collections import Counter
from math import comb

from cpops.branching import shtepin_branch_l, shtepin_branch_v, weyl_filtration
from cpops.characters import (
    GradedCharacter,
    box_generating_function,
    character_direct,
    character_fermionic,
    character_from_json,
    character_to_json,
    q_binomial,
    restrict_drop_last,
    specialize_q1,
    total_dim,
)
from cpops.oracle import freudenthal_character, signed_orbit, weyl_dim
from cpops.patterns import (
    differences,
    enumerate_patterns,
    enumerate_restricted_patterns,
    pattern_from_json,
    pattern_to_json,
    pattern_weight,
)
from cpops.pops import (
    enumerate_f,
    enumerate_pops,
    enumerate_restricted_pops,
    pop_boxes,
    pop_count_formula,
    pop_from_json,
    pop_to_json,
    pop_weight,
)
from cpops.rootsys import (
    DominantWeight,
    RootLabel,
    root_vector,
    sweep_dominant_weights,
)

COUNTING_SWEEP = [(1, 3), (2, 3), (3, 3)]
CHARACTER_SWEEP = [(2, 3), (3, 2)]


def weights_in(sweep):
    for rank, max_total in sweep:
        yield from sweep_dominant_weights(rank, max_total)


def test_c1_pop_counting():
    started = time.perf_counter()
    for w in weights_in(COUNTING_SWEEP):
        count = sum(1 for _ in enumerate_pops(w))
        expected = 1
        for i, m in enumerate(w.omegas, start=1):
            base = comb(2 * w.rank, i) - (comb(2 * w.rank, i - 2) if i >= 2 else 0)
            expected *= base ** m
        assert count == expected == pop_count_formula(w), w
    assert sum(1 for _ in enumerate_pops(DominantWeight.from_omegas((1, 1)))) == 20
    assert sum(1 for _ in enumerate_pops(DominantWeight.from_omegas((0, 0, 1)))) == 14
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"counting sweep took {elapsed:.2f}s"
    print(f"\n[PASS] criterion 1: POP counts match the product formula "
          f"(r<=3, sum(m)<=3; {elapsed:.2f}s)")


def test_c2_fermionic_formula():
    started = time.perf_counter()
    for w in weights_in(CHARACTER_SWEEP):
        assert character_direct(w) == character_fermionic(w), w
    spot = character_direct(DominantWeight.from_omegas((2,)))
    assert spot.terms == {
        (0, (2,)): 1, (0, (0,)): 1, (1, (0,)): 1, (0, (-2,)): 1,
    }
    assert spot == character_fermionic(DominantWeight.from_omegas((2,)))
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"character sweep took {elapsed:.2f}s"
    print(f"\n[PASS] criterion 2: direct and fermionic characters agree "
          f"(r=2 sum<=3, r=3 sum<=2; {elapsed:.2f}s)")


def test_c3_zeroth_piece():
    for w in weights_in(CHARACTER_SWEEP):
        zero_slice = character_direct(w).grade_slice(0)
        assert zero_slice == freudenthal_character(w), w
    for rank in (1, 2, 3):
        for i in range(1, rank + 1):
            m = tuple(1 if k == i else 0 for k in range(1, rank + 1))
            ch = character_direct(DominantWeight.from_omegas(m))
            assert ch.grades() == {0}, (rank, i)
    print("\n[PASS] criterion 3: grade-0 piece equals the Freudenthal "
          "character; fundamental-weight characters live at q^0")


def test_c4_pattern_basis():
    for w in weights_in(COUNTING_SWEEP):
        patterns = list(enumerate_patterns(w))
        assert len(patterns) == weyl_dim(w), w
        counted = Counter(pattern_weight(p) for p in patterns)
        assert dict(counted) == freudenthal_character(w), w
    assert weyl_dim(DominantWeight.from_omegas((1, 0))) == 4
    assert weyl_dim(DominantWeight.from_omegas((0, 1))) == 5
    assert weyl_dim(DominantWeight.from_omegas((1, 1))) == 16
    print("\n[PASS] criterion 4: pattern counts and weight multisets match "
          "the classical oracle (r<=3, sum(m)<=3)")


def test_c5_dimension_product():
    for w in weights_in(COUNTING_SWEEP):
        product = 1
        for i, m in enumerate(w.omegas, start=1):
            fundamental = tuple(
                1 if k == i else 0 for k in range(1, w.rank + 1))
            product *= weyl_dim(DominantWeight.from_omegas(fundamental)) ** m
        assert total_dim(character_direct(w)) == product, w
        assert product == pop_count_formula(w), w
    print("\n[PASS] criterion 5: graded dimension equals the product of "
          "fundamental dimensions (r<=3, sum(m)<=3)")


def test_c6_recursions():
    for rank in (1, 2, 3):
        for w in sweep_dominant_weights(rank, 2):
            r = w.rank
            groups = Counter()
            for pop in enumerate_pops(w):
                lam_row = pop.pattern.lambda_rows[-1]
                eta_row = pop.pattern.eta_rows[-1]
                key = (
                    tuple(a - b for a, b in zip(lam_row, eta_row)),
                    pop.overlays[-r:],
                )
                groups[key] += 1
            expected = {}
            for combo in itertools.product(
                    *(list(enumerate_f(m)) for m in w.omegas)):
                ells = tuple(e for e, _ in combo)
                parts = tuple(s for _, s in combo)
                eta = tuple(l - e for l, e in zip(w.lam, ells))
                expected[(ells, parts)] = sum(
                    1 for _ in enumerate_restricted_pops(eta))
            assert dict(groups) == expected, w

            if r < 2:
                continue
            for ells in itertools.product(*(range(m + 1) for m in w.omegas)):
                eta = tuple(l - e for l, e in zip(w.lam, ells))
                n = tuple(eta[i] - (eta[i + 1] if i + 1 < r else 0)
                          for i in range(r))
                sub_groups = Counter()
                for rpop in enumerate_restricted_pops(eta):
                    eta_row = rpop.pattern.eta_rows[-1]
                    lam_row = rpop.pattern.lambda_rows[-1]
                    key = (
                        tuple(eta_row[i] - lam_row[i] for i in range(r - 1)),
                        rpop.overlays[-(r - 1):],
                    )
                    sub_groups[key] += 1
                sub_expected = {}
                for combo in itertools.product(
                        *(list(enumerate_f(n[i])) for i in range(r - 1))):
                    sub_ells = tuple(e for e, _ in combo)
                    parts = tuple(s for _, s in combo)
                    target = tuple(eta[i] - sub_ells[i] for i in range(r - 1))
                    sub_expected[(sub_ells, parts)] = sum(
                        1 for _ in enumerate_pops(
                            DominantWeight(target)))
                assert dict(sub_groups) == sub_expected, (w, eta)
    print("\n[PASS] criterion 6: the overlay enumeration refines exactly "
          "through restricted and rank-lowered enumerations (r<=3, sum(m)<=2)")


def test_c7_branching():
    for w in weights_in(COUNTING_SWEEP):
        n_patterns = sum(1 for _ in enumerate_patterns(w))
        etas = shtepin_branch_v(w)
        assert n_patterns == sum(
            sum(1 for _ in enumerate_restricted_patterns(eta)) for eta in etas), w
        for eta in etas:
            lhs = sum(1 for _ in enumerate_restricted_patterns(eta))
            rhs = 0
            for nu in shtepin_branch_l(eta):
                if len(nu) == 0:
                    rhs += 1
                else:
                    rhs += sum(1 for _ in enumerate_patterns(
                        DominantWeight(nu)))
            assert lhs == rhs, (w, eta)

        if w.rank < 2:
            continue
        terms = weyl_filtration(w)
        booked = sum(
            t.mult * pop_count_formula(DominantWeight(t.target))
            for t in terms)
        assert booked == pop_count_formula(w), w

        lhs = restrict_drop_last(specialize_q1(character_direct(w)))
        rhs = GradedCharacter(w.rank - 1)
        cache = {}
        for t in terms:
            if t.target not in cache:
                cache[t.target] = specialize_q1(character_direct(
                    DominantWeight(t.target)))
            rhs.merge(cache[t.target], scale=t.mult)
        assert lhs == rhs, w

    spot = weyl_filtration(DominantWeight.from_omegas((0, 1)))
    booked = [t.mult * pop_count_formula(DominantWeight(t.target))
              for t in spot]
    assert booked == [2, 2, 1] and sum(booked) == 5
    print("\n[PASS] criterion 7: interlacing dimension sums, filtration "
          "bookkeeping, and the ungraded restriction identity hold "
          "(r<=3, sum(m)<=3)")


def test_c8_q_series():
    for ell in range(7):
        for ellp in range(7):
            assert box_generating_function(ell, ellp) == \
                q_binomial(ell + ellp, ell), (ell, ellp)
    print("\n[PASS] criterion 8: box generating functions equal Gaussian "
          "binomials (sides <= 6)")


def test_c9_property_suites():
    # signed-permutation invariance of every graded slice
    for w in weights_in(CHARACTER_SWEEP):
        ch = character_direct(w)
        for grade in ch.grades():
            piece = ch.grade_slice(grade)
            for weight, mult in piece.items():
                for image in signed_orbit(weight):
                    assert piece.get(image) == mult, (w, grade, weight)

    # weight agreement between the row formula and the root expansion
    for rank, max_total in ((1, 3), (2, 2), (3, 1)):
        for w in sweep_dominant_weights(rank, max_total):
            for pop in enumerate_pops(w):
                expected = list(w.lam)
                for (i, j, barred), (ell, _) in differences(pop.pattern).items():
                    vec = root_vector(RootLabel(i, j, barred), w.rank)
                    expected = [a - ell * b for a, b in zip(expected, vec)]
                assert pop_weight(pop) == tuple(expected), (w, pop)

    # JSON round trips
    for w in sweep_dominant_weights(2, 2):
        for p in enumerate_patterns(w):
            assert pattern_from_json(
                json.loads(json.dumps(pattern_to_json(p)))) == p
        for pop in enumerate_pops(w):
            assert pop_from_json(json.loads(json.dumps(pop_to_json(pop)))) == pop
        ch = character_direct(w)
        assert character_from_json(
            json.loads(json.dumps(character_to_json(ch)))) == ch

    # determinism under partitioned accumulation
    w = DominantWeight.from_omegas((1, 1))
    sequential = character_direct(w)
    chunks = {}
    for pop in enumerate_pops(w):
        chunks.setdefault(pop.pattern.eta_rows[-1], []).append(pop)
    merged = GradedCharacter(w.rank)
    for key in reversed(sorted(chunks)):
        part = GradedCharacter(w.rank)
        for pop in chunks[key]:
            part.add_term(pop_boxes(pop), pop_weight(pop))
        merged.merge(part)
    assert merged == sequential

    print("\n[PASS] criterion 9: slice symmetry, weight-formula agreement, "
          "JSON round trips, and partition-independent accumulation")
