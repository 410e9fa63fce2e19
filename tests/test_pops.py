import itertools
from collections import Counter
from math import comb

import pytest

from cpops.branching import count_chains, count_table, shtepin_branch_l, shtepin_branch_v
from cpops.patterns import (
    PatternC,
    differences,
    enumerate_patterns,
    enumerate_restricted_patterns,
    pattern_chains,
    pattern_weight,
    row_levels,
)
from cpops.pops import (
    PbwMonomial,
    Pop,
    enumerate_f,
    enumerate_pops,
    enumerate_restricted_pops,
    fits_box,
    monomial_to_json,
    overlay_positions,
    partitions_in_box,
    pop_boxes,
    pop_count_formula,
    pop_from_json,
    pop_monomial,
    pop_to_json,
    pop_weight,
    restricted_pop_count_formula,
)
from cpops.rootsys import DominantWeight, RootLabel, root_vector, sweep_dominant_weights


def test_partitions_in_box_examples():
    assert list(partitions_in_box(0, 5)) == [()]
    assert list(partitions_in_box(1, 1)) == [(0,), (1,)]
    assert list(partitions_in_box(2, 1)) == [(0, 0), (0, 1), (1, 1)]


@pytest.mark.parametrize("ell", range(5))
@pytest.mark.parametrize("ellp", range(5))
def test_partitions_in_box_count_and_order(ell, ellp):
    parts = list(partitions_in_box(ell, ellp))
    assert len(parts) == comb(ell + ellp, ell)
    assert parts == sorted(parts)
    assert len(set(parts)) == len(parts)
    for s in parts:
        assert fits_box(s, ell, ellp)


def test_zero_length_box_sides():
    assert list(partitions_in_box(3, 0)) == [(0, 0, 0)]
    assert list(partitions_in_box(0, 0)) == [()]


def test_enumerate_f_examples():
    assert list(enumerate_f(0)) == [(0, ())]
    assert list(enumerate_f(1)) == [(0, ()), (1, (0,))]
    for m in range(9):
        assert sum(1 for _ in enumerate_f(m)) == 2 ** m
    with pytest.raises(ValueError):
        list(enumerate_f(-1))


def test_pop_count_zero_weight():
    for r in (1, 2, 3):
        pops = list(enumerate_pops(DominantWeight.from_omegas((0,) * r)))
        assert len(pops) == 1
        assert pop_boxes(pops[0]) == 0


@pytest.mark.parametrize("m", range(6))
def test_pop_count_rank1(m):
    w = DominantWeight.from_omegas((m,))
    assert sum(1 for _ in enumerate_pops(w)) == 2 ** m


def test_pop_count_example_rank2():
    w = DominantWeight.from_omegas((1, 1))
    assert sum(1 for _ in enumerate_pops(w)) == 20


def test_pop_count_formula_examples():
    assert pop_count_formula(DominantWeight.from_omegas((0, 1))) == 5
    assert pop_count_formula(DominantWeight.from_omegas((0, 0, 1))) == 14
    assert pop_count_formula(DominantWeight.from_omegas((1, 1))) == 20


def test_restricted_pop_count_formula_examples():
    assert restricted_pop_count_formula((1, 0)) == 3
    assert restricted_pop_count_formula((1, 1)) == 2
    assert restricted_pop_count_formula((0, 0, 0)) == 1


def test_restricted_pop_counts_match_formula():
    assert sum(1 for _ in enumerate_restricted_pops((0, 0))) == 1
    assert sum(1 for _ in enumerate_restricted_pops((1, 0))) == 3
    assert sum(1 for _ in enumerate_restricted_pops((1, 1))) == 2
    # every bounding sequence reachable from a small sweep
    for w in sweep_dominant_weights(2, 2):
        for ells in itertools.product(*(range(m + 1) for m in w.omegas)):
            eta = tuple(l - e for l, e in zip(w.lam, ells))
            count = sum(1 for _ in enumerate_restricted_pops(eta))
            assert count == restricted_pop_count_formula(eta), eta


def test_enumeration_matches_formula_sweep():
    for r in (1, 2, 3):
        for w in sweep_dominant_weights(r, 2):
            assert sum(1 for _ in enumerate_pops(w)) == pop_count_formula(w), w


def test_pop_weight_examples():
    # highest pattern with empty overlays keeps the bounding weight
    w = DominantWeight.from_omegas((1, 1))
    for pop in enumerate_pops(w):
        if pop.pattern.eta_rows == ((2,), (2, 1)) and \
                pop.pattern.lambda_rows == ((2,), (2, 1)):
            assert pop_weight(pop) == (2, 1)
            break
    else:
        pytest.fail("highest pattern not enumerated")
    # rank 1, bounding (2): weight is twice the row entry minus the bounding
    for pop in enumerate_pops(DominantWeight.from_omegas((2,))):
        eta = pop.pattern.eta_rows[0][0]
        assert pop_weight(pop) == (2 * eta - 2,)


def test_pop_weight_two_formulas_agree_sweep():
    # full and restricted overlaid patterns: the row formula equals the
    # bounding weight minus the gap-weighted positive roots
    for w in sweep_dominant_weights(2, 2):
        for pop in itertools.chain(enumerate_pops(w), enumerate_restricted_pops(w.lam)):
            expected = list(w.lam)
            for (i, j, barred), (ell, _) in differences(pop.pattern).items():
                vec = root_vector(RootLabel(i, j, barred), 2)
                expected = [a - ell * b for a, b in zip(expected, vec)]
            assert pop_weight(pop) == tuple(expected)
            assert pop_weight(pop) == pattern_weight(pop.pattern)


def test_pop_boxes_examples():
    w = DominantWeight.from_omegas((2,))
    boxes = sorted(pop_boxes(p) for p in enumerate_pops(w))
    assert boxes == [0, 0, 0, 1]


def test_pop_monomial_substitution_example():
    # rank 1: bounding (2), eta (0), overlay (0, 1) substitutes into a
    # two-factor word with t-exponents 0 and 1
    pattern = PatternC(1, ((0,),), ((2,),))
    pop = Pop(pattern, ((0, 1),))
    word = pop_monomial(pop)
    assert word.factors == (
        (RootLabel(1, 1, True), 0),
        (RootLabel(1, 1, True), 1),
    )
    assert word.t_degree == 1
    assert word.text() == "x-(1,1~)@t^0 x-(1,1~)@t^1"


def test_pop_monomial_single_unbarred_factor():
    w = DominantWeight((1, 0))
    for pop in enumerate_pops(w):
        d = differences(pop.pattern)
        if d[(1, 1, False)][0] == 1:
            word = pop_monomial(pop)
            assert word.factors == ((RootLabel(1, 1, False), 0),)
            assert type(word.factors[0][0]) is tuple  # the position itself
            return
    pytest.fail("expected pattern not enumerated")


def test_empty_monomial_is_identity():
    w = DominantWeight.from_omegas((0, 0))
    (pop,) = list(enumerate_pops(w))
    word = pop_monomial(pop)
    assert word == PbwMonomial(())
    assert word.text() == "1"
    assert monomial_to_json(word) == {"factors": [], "degree": 0}


def test_monomial_degree_and_injectivity():
    streams = [enumerate_pops(w) for w in sweep_dominant_weights(2, 2)]
    streams += [enumerate_restricted_pops(eta) for eta in ((1, 0), (2, 1), (2, 1, 0))]
    for stream in streams:
        seen = set()
        for pop in stream:
            word = pop_monomial(pop)
            assert word.t_degree == pop_boxes(pop)
            assert len(word.factors) == sum(
                ell for ell, _ in differences(pop.pattern).values())
            assert word not in seen
            seen.add(word)


def test_overlay_positions_block_order():
    assert overlay_positions(2) == (
        (1, 1, True), (1, 1, False), (1, 2, True), (2, 2, True),
    )
    assert overlay_positions(2, restricted=True) == ((1, 1, True), (1, 1, False))
    assert all(type(pos) is tuple for pos in overlay_positions(3))


def test_overlay_positions_memo_is_bounded():
    # A rank of 1,100 holds 1,210,000 position tuples; the memo must let
    # them go once later ranks push the key out.
    overlay_positions(1100)
    for rank in (1, 2, 3, 4):
        overlay_positions(rank)
    assert overlay_positions.cache_info().currsize <= 4


def test_pop_json_round_trip():
    for w in sweep_dominant_weights(2, 2):
        for pop in enumerate_pops(w):
            assert pop_from_json(pop_to_json(pop)) == pop
    for rpop in enumerate_restricted_pops((2, 1)):
        assert pop_from_json(pop_to_json(rpop)) == rpop
    # the overlays must name exactly the pattern's positions, in block order
    obj = pop_to_json(next(enumerate_pops(DominantWeight.from_omegas((1, 1)))))
    entries = obj["overlays"]
    extra = {"i": 5, "j": 9, "barred": True, "parts": []}
    for bad in (entries[:-1], entries + [extra], entries + entries[-1:],
                entries[:-2] + [entries[-1], entries[-2]], entries[:-1] + [extra]):
        with pytest.raises(ValueError):
            pop_from_json(dict(obj, overlays=bad))
    rank1 = pop_to_json(next(enumerate_pops(DominantWeight.from_omegas((1,)))))
    rank1["overlays"].append(extra)
    with pytest.raises(ValueError):
        pop_from_json(rank1)
    # the parts must fit their boxes and the pattern must be valid
    first, second = map(pop_to_json, enumerate_pops(DominantWeight.from_omegas((1,))))
    # eta=[[0]] under lambda=[[2]]: the box (2, 0)
    box20 = pop_to_json(next(enumerate_pops(DominantWeight.from_omegas((2,)))))
    for base, bad in (
        # the right length, but increasing or negative parts
        (box20, {"overlays": [dict(box20["overlays"][0], parts=[1, 0])]}),
        (box20, {"overlays": [dict(box20["overlays"][0], parts=[-1, 0])]}),
        (second, {"overlays": [dict(second["overlays"][0], parts=[7, 3])]}),
        (first, {"overlays": [dict(first["overlays"][0], parts=[1])]}),
        (first, {"eta": [[9]]}),
        (obj, {"eta": [[0]]}),
        # malformed JSON: a missing key, a wrong type, a non-boolean "barred"
        (first, {"overlays": None}),
        (first, {"overlays": [dict(first["overlays"][0], parts=3)]}),
        (first, {"overlays": [dict(first["overlays"][0], barred="no")]}),
        (first, {"overlays": [dict(first["overlays"][0], barred=1)]}),
        (first, {"overlays": [dict(first["overlays"][0], i="1")]}),
        (first, {"overlays": [[1, 1, True, []]]}),
        (first, {"rank": 0, "eta": [], "lambda": [], "overlays": []}),
    ):
        with pytest.raises(ValueError):
            pop_from_json(dict(base, **bad))
    for key in ("overlays", "eta"):
        with pytest.raises(ValueError):
            pop_from_json({k: v for k, v in first.items() if k != key})


def _groups_per_pop(pops, top, k):
    # Overlaid patterns bounded by ``top`` grouped by top - rows[-2] and the
    # overlays of their last k positions; a rank-1 restricted pattern has one
    # row and an empty top block.
    groups = Counter()
    for pop in pops:
        ells = tuple(a - b for a, b in zip(top, pop.pattern.rows[-2])) if k else ()
        groups[ells, pop.overlays[len(pop.overlays) - k:]] += 1
    return groups


def _gap_construction(patterns) -> list:
    # Every pattern crossed with every choice of one partition per box of its
    # position-keyed gaps, built without the gap-block memo.
    return [Pop(p, combo) for p in patterns for combo in itertools.product(
        *[partitions_in_box(*box) for box in differences(p).values()])]


def test_enumerated_overlays_equal_the_gap_construction():
    # The overlay streams read gap blocks from the memo type the listings
    # use; (12,) has boxes of more than 64 partitions, which it does not keep.
    weights = [w for r in (1, 2, 3) for w in sweep_dominant_weights(r, 2)]
    weights += [DominantWeight.from_omegas((1, 0, 0, 1)),
                DominantWeight.from_omegas((12,))]
    for w in weights:
        assert list(enumerate_pops(w)) == _gap_construction(enumerate_patterns(w)), w
        assert list(enumerate_restricted_pops(w.lam)) == _gap_construction(
            enumerate_restricted_patterns(w.lam)), w


def test_count_chains_equals_the_listings():
    # One pass down the rows counts what the pattern and overlay streams
    # list, full and restricted (lambda is an eta row under itself, so its
    # table holds both); the empty row bounds one rank-0 pattern.
    weights = [w for r in (1, 2, 3) for w in sweep_dominant_weights(r, 2)]
    weights += [DominantWeight.from_omegas((1, 0, 0, 1)),
                DominantWeight.from_omegas((12,))]
    for w in weights:
        assert count_chains(w) == (sum(1 for _ in enumerate_patterns(w)),
                                   sum(1 for _ in enumerate_pops(w))), w
        assert count_table(row_levels(w.lam))[w.lam, True] == (
            sum(1 for _ in enumerate_restricted_patterns(w.lam)),
            sum(1 for _ in enumerate_restricted_pops(w.lam))), w
    assert count_chains(()) == count_table(row_levels(()))[(), True] == (1, 1)


def test_full_table_holds_the_restricted_top():
    # count reads both kinds from lambda's one table: its (lambda, True)
    # entry is the top entry of the restricted table.
    weights = [w for r, total in ((1, 6), (2, 4), (3, 3), (4, 2))
               for w in sweep_dominant_weights(r, total)]
    for w in weights:
        restricted = count_table(row_levels(w.lam, True))[w.lam, True]
        assert count_table(row_levels(w.lam))[w.lam, True] == restricted, w


def test_count_table_holds_every_row_under_the_top():
    # One pass down and one back up count the chains under every row of the
    # top's chains, of both kinds, as the listings bounded by that row do,
    # and the pass up leaves the table of rows it reads as it was.
    for w in [w for r in (1, 2, 3) for w in sweep_dominant_weights(r, 2)]:
        for restricted in (False, True):
            levels = row_levels(w.lam, restricted)
            table = count_table(levels)
            assert levels == row_levels(w.lam, restricted)
            assert set(table) == {((), False), ((), True)} | {
                (rows[k], not k % 2) for rows in pattern_chains(w, restricted)
                for k in range(len(rows))}
            for (row, eta), counts in table.items():
                if not row:
                    assert counts == (1, 1)
                    continue
                pops = enumerate_restricted_pops if eta else enumerate_pops
                assert counts == (sum(1 for _ in pattern_chains(row, eta)),
                                  sum(1 for _ in pops(row))), (w, row, eta)


def test_refinement_by_top_block_small():
    # splitting the overlaid patterns on their top barred block reproduces
    # the admissible block set crossed with restricted enumerations, and the
    # count table that verify_identities reads holds the product formula at
    # every row one and two levels under the top
    for r in (1, 2, 3):
        for w in sweep_dominant_weights(r, 2):
            groups = _groups_per_pop(enumerate_pops(w), w.lam, r)
            expected = {}
            for combo in itertools.product(*(list(enumerate_f(m)) for m in w.omegas)):
                ells = tuple(e for e, _ in combo)
                parts = tuple(s for _, s in combo)
                eta = tuple(l - e for l, e in zip(w.lam, ells))
                expected[(ells, parts)] = sum(
                    1 for _ in enumerate_restricted_pops(eta))
            assert groups == expected, w
            table = count_table(row_levels(w.lam))
            for eta in shtepin_branch_v(w):
                assert table[eta, True][1] == restricted_pop_count_formula(eta), eta
                if r > 1:  # a rank-0 row has no product formula
                    assert all(table[nu, False][1] == pop_count_formula(nu)
                               for nu in shtepin_branch_l(eta)), eta
