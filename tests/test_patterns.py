import itertools

import pytest

from cpops.oracle import weyl_dim
from cpops.patterns import (
    PatternC,
    differences,
    enumerate_patterns,
    enumerate_restricted_patterns,
    gap_block,
    pattern_chains,
    pattern_from_json,
    pattern_to_json,
    pattern_weight,
    reconstruct_pattern,
    validate_pattern,
)
from cpops.rootsys import DominantWeight, sweep_dominant_weights


def zero_pattern(rank):
    rows = tuple(tuple([0] * j) for j in range(1, rank + 1))
    return PatternC(rank, rows, rows)


def highest_pattern(lam):
    rows = tuple(tuple(lam[:j]) for j in range(1, len(lam) + 1))
    return PatternC(len(lam), rows, rows)


def test_validate_zero_patterns():
    for r in (1, 2, 3):
        assert validate_pattern(zero_pattern(r)) == []


def test_validate_hand_checked_pattern():
    good = PatternC(2, ((1,), (1, 0)), ((1,), (1, 0)))
    assert validate_pattern(good) == []


def test_validate_reports_forced_violation():
    bad = PatternC(2, ((2,), (1, 0)), ((1,), (1, 0)))
    problems = validate_pattern(bad)
    assert any("lambda^1_1 >= eta^1_1" in p for p in problems)


def test_validate_reports_shape_separately():
    malformed = PatternC(2, ((1, 0), (1, 0)), ((1,), (1, 0)))
    problems = validate_pattern(malformed)
    assert problems == ["eta^1 has length 2, expected 1"]


def _row_stacks(rank, n_lambda, values):
    # Every PatternC of the given shape with entries drawn from ``values``.
    lengths = list(range(1, rank + 1)) + list(range(1, n_lambda + 1))
    for flat in itertools.product(values, repeat=sum(lengths)):
        it = iter(flat)
        rows = [tuple(itertools.islice(it, n)) for n in lengths]
        yield PatternC(rank, tuple(rows[:rank]), tuple(rows[rank:]))


@pytest.mark.parametrize("rank,restricted,values", [
    (1, False, range(-1, 4)), (1, True, range(-1, 4)), (2, False, range(-1, 3)),
    (2, True, range(-1, 3)), (3, True, range(-1, 2)), (3, False, range(2))])
def test_validate_accepts_exactly_the_enumerated_patterns(rank, restricted, values):
    # Brute force over all row stacks with entries in ``values``: the valid
    # ones are exactly the patterns enumerated under the bounding rows there.
    enumerate_kind = enumerate_restricted_patterns if restricted else enumerate_patterns
    enumerated = set()
    for bounding in itertools.combinations_with_replacement(
            range(max(values), -1, -1), rank):
        enumerated.update(enumerate_kind(bounding))
    valid = {p for p in _row_stacks(rank, rank - restricted, values)
             if validate_pattern(p) == []}
    assert valid == enumerated
    assert all(len(p.rows) == 2 * rank - restricted for p in valid)


def test_rows_are_the_chain():
    p = PatternC(2, ((1,), (2, 1)), ((1,), (2, 0)))
    assert p.rows == ((1,), (1,), (2, 1), (2, 0))
    assert PatternC.from_rows(p.rows) == p
    restricted = PatternC(2, ((0,), (1, 0)), ((1,),))
    assert restricted.rows == ((0,), (1,), (1, 0))
    assert restricted.rows[-1] == restricted.bounding
    assert PatternC.from_rows(restricted.rows) == restricted


def test_enumerate_zero_weight_single_pattern():
    for r in (1, 2, 3):
        pats = list(enumerate_patterns(DominantWeight.from_omegas((0,) * r)))
        assert pats == [zero_pattern(r)]


def test_enumerate_count_omega1_rank2():
    pats = list(enumerate_patterns(DominantWeight((1, 0))))
    assert len(pats) == 4


@pytest.mark.parametrize("m", range(6))
def test_enumerate_rank1_counts(m):
    pats = list(enumerate_patterns(DominantWeight.from_omegas((m,))))
    assert len(pats) == m + 1


def test_enumeration_matches_weyl_dim_small_sweep():
    for r in (1, 2, 3):
        for w in sweep_dominant_weights(r, 2):
            assert sum(1 for _ in enumerate_patterns(w)) == weyl_dim(w), w


def test_enumeration_valid_unique_deterministic():
    w = DominantWeight.from_omegas((1, 1))
    first = list(enumerate_patterns(w))
    second = list(enumerate_patterns(w))
    assert first == second
    assert len(set(first)) == len(first)
    for p in first:
        assert validate_pattern(p) == []


def test_chains_are_the_enumerated_rows():
    # Each chain is its own tuple, not a view of the walk's working rows,
    # and the enumerators wrap the chains in stream order.
    for r in (1, 2, 3):
        for w in sweep_dominant_weights(r, 2):
            for restricted, stream in ((False, enumerate_patterns),
                                       (True, enumerate_restricted_patterns)):
                chains = list(pattern_chains(w, restricted))
                assert chains == [p.rows for p in stream(w)], (w, restricted)
                assert all(type(chain) is tuple for chain in chains)


def test_restricted_counts():
    assert len(list(enumerate_restricted_patterns((0, 0)))) == 1
    assert len(list(enumerate_restricted_patterns((1, 0)))) == 3
    assert len(list(enumerate_restricted_patterns((1, 1)))) == 2


def test_restricted_rank1_is_single_row():
    pats = list(enumerate_restricted_patterns((3,)))
    assert pats == [PatternC(1, ((3,),), ())]


def test_restricted_rejects_bad_bounding():
    with pytest.raises(ValueError):
        list(enumerate_restricted_patterns((0, 1)))
    with pytest.raises(ValueError):
        list(enumerate_patterns(()))
    with pytest.raises(ValueError):
        list(enumerate_restricted_patterns(()))
    with pytest.raises(ValueError):
        reconstruct_pattern((), differences(zero_pattern(1)))


def test_differences_highest_pattern_all_ell_zero():
    d = differences(highest_pattern((2, 1)))
    assert all(ell == 0 for ell, _ in d.values())


def test_differences_rank1_example():
    p = PatternC(1, ((1,),), ((2,),))
    d = differences(p)
    assert d[(1, 1, True)] == (1, 1)


def test_differences_rank2_example():
    p = PatternC(2, ((0,), (1, 0)), ((0,), (1, 0)))
    d = differences(p)
    assert d[(1, 1, False)] == (1, 0)
    assert d[(1, 1, True)][0] == 0
    assert d[(1, 2, True)][0] == 0
    assert d[(2, 2, True)][0] == 0


def test_differences_restricted_has_no_top_level():
    p = next(iter(enumerate_restricted_patterns((1, 0))))
    d = differences(p)
    assert all(j < 2 for _, j, _ in d)


def test_differences_nonnegative_and_reconstruction():
    for w in sweep_dominant_weights(2, 2):
        for p in enumerate_patterns(w):
            d = differences(p)
            assert tuple(d) == p.positions
            for ell, ellp in d.values():
                assert ell >= 0 and ellp >= 0
            assert reconstruct_pattern(p.bounding, d) == p
            # The gap blocks of adjacent rows, bottom-up, are the same gaps.
            assert [gap for rows in itertools.pairwise(p.rows)
                    for gap in gap_block(*rows)] == list(d.items())


def test_pattern_weight_examples():
    assert pattern_weight(zero_pattern(2)) == (0, 0)
    assert pattern_weight(highest_pattern((1, 0))) == (1, 0)
    assert pattern_weight(PatternC(1, ((0,),), ((2,),))) == (-2,)
    # a restricted pattern reads its bounding row in place of lambda^r
    assert pattern_weight(PatternC(1, ((3,),), ())) == (3,)
    assert pattern_weight(PatternC(2, ((0,), (1, 0)), ((1,),))) == (-1, 0)


def test_json_round_trip():
    for w in sweep_dominant_weights(2, 2):
        for p in enumerate_patterns(w):
            assert pattern_from_json(pattern_to_json(p)) == p
    for p in enumerate_restricted_patterns((2, 1)):
        assert pattern_from_json(pattern_to_json(p)) == p
    # outside input: an invalid pattern, a missing row or key, a wrong JSON
    # type or a rank below 1 is a ValueError
    for bad in (
        {"rank": 1, "eta": [[9]], "lambda": [[1]]},
        {"rank": 2, "eta": [[0]], "lambda": [[0], [0, 0]]},
        {"rank": 1, "lambda": [[1]]},
        {"eta": [[0]], "lambda": [[1]]},
        {"rank": 0, "eta": [], "lambda": []},
        {"rank": -1, "eta": [], "lambda": []},
        {"rank": "1", "eta": [[0]], "lambda": [[1]]},
        {"rank": 1, "eta": [0], "lambda": [[1]]},
        {"rank": 1, "eta": "0", "lambda": [[1]]},
        {"rank": 1, "eta": [[0.5]], "lambda": [[1]]},
        {"rank": 1, "eta": [[True]], "lambda": [[1]]},
        [1, [[0]], [[1]]],
        None,
    ):
        with pytest.raises(ValueError):
            pattern_from_json(bad)
