import itertools

import pytest

from cpops.rootsys import (
    DominantWeight,
    RootLabel,
    inner,
    label_text,
    lambda_to_omegas,
    omegas_to_lambda,
    positive_root_labels,
    positive_roots,
    root_vector,
    simple_root,
    sweep_dominant_weights,
)


def test_omegas_to_lambda_examples():
    assert omegas_to_lambda((1, 1)) == (2, 1)
    assert omegas_to_lambda((0, 0, 0)) == (0, 0, 0)
    assert omegas_to_lambda((2, 0, 1)) == (3, 1, 1)


def test_lambda_to_omegas_examples():
    assert lambda_to_omegas((2, 1)) == (1, 1)
    assert lambda_to_omegas((0, 0)) == (0, 0)
    assert lambda_to_omegas((3, 1, 1)) == (2, 0, 1)


def test_lambda_to_omegas_rejects_bad_input():
    with pytest.raises(ValueError):
        lambda_to_omegas((1, 2))
    with pytest.raises(ValueError):
        lambda_to_omegas((2, -1))
    with pytest.raises(ValueError):
        lambda_to_omegas(())


def test_round_trip_all_small():
    for r in range(1, 5):
        for m in itertools.product(range(6), repeat=r):
            assert lambda_to_omegas(omegas_to_lambda(m)) == m


def test_dominant_weight_consistency():
    w = DominantWeight.from_omegas((1, 1))
    assert w.lam == (2, 1)
    assert w == (2, 1) and hash(w) == hash((2, 1))
    assert w.rank == 2 and w.omegas == (1, 1)
    assert DominantWeight((2, 1)) == w
    with pytest.raises(ValueError):
        DominantWeight((1, 2))
    with pytest.raises(ValueError):
        DominantWeight.from_omegas((-1,))


def test_root_vector_examples():
    assert root_vector(RootLabel(1, 1, True), 1) == (2,)
    assert root_vector(RootLabel(1, 1, False), 2) == (1, -1)
    assert root_vector(RootLabel(1, 2, True), 3) == (1, 1, 0)
    assert root_vector((1, 2, True), 3) == (1, 1, 0)  # any (i, j, barred) tuple


def test_root_label_validation():
    with pytest.raises(ValueError):
        RootLabel(2, 1, False)
    with pytest.raises(ValueError):
        root_vector(RootLabel(1, 2, False), 2)  # unbarred needs j < rank
    with pytest.raises(ValueError):
        root_vector(RootLabel(1, 3, True), 2)
    for bad, rank in [((1, 2, False), 2), ((2, 1, True), 3), ((0, 1, True), 2),
                      ((1, 3, True), 2), ((1, 1, True), 0)]:
        with pytest.raises(ValueError):
            root_vector(bad, rank)
    with pytest.raises(ValueError):
        simple_root(0, 2)


def test_root_label_is_its_tuple():
    label = RootLabel(1, 2, True)
    assert label == (1, 2, True) and hash(label) == hash((1, 2, True))
    assert (label.i, label.j, label.barred) == (1, 2, True)
    assert {(1, 2, True): "x"}[label] == "x"
    assert label_text(label) == label_text((1, 2, True)) == "(1,2~)"
    assert label_text((2, 3, False)) == "(2,3)"


@pytest.mark.parametrize("rank", range(1, 9))
def test_closed_forms_match_telescoped_sums(rank):
    # root_vector's closed forms against sums of consecutive simple roots:
    # i..j for the unbarred label, i..rank then rank-1 down to j for the
    # barred one.
    for label in positive_root_labels(rank):
        i, j, barred = label
        if barred:
            path = list(range(i, rank + 1)) + list(range(rank - 1, j - 1, -1))
        else:
            path = list(range(i, j + 1))
        path_sum = tuple(map(sum, zip(*(simple_root(k, rank) for k in path))))
        assert root_vector(label, rank) == path_sum, label


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_unbarred_top_level_identified_with_barred(rank):
    # The simple-root sum from i to rank telescopes to the same vector as the
    # barred label (i, rank).
    for i in range(1, rank + 1):
        path_sum = [0] * rank
        for k in range(i, rank + 1):
            a = simple_root(k, rank)
            path_sum = [x + y for x, y in zip(path_sum, a)]
        assert tuple(path_sum) == root_vector(RootLabel(i, rank, True), rank)


def test_positive_roots_counts_and_uniqueness():
    assert positive_roots(1) == [(2,)]
    r2 = positive_roots(2)
    assert len(r2) == 4
    assert set(r2) == {(1, -1), (1, 1), (2, 0), (0, 2)}
    r3 = positive_roots(3)
    assert len(r3) == 9
    assert len(set(r3)) == 9
    with pytest.raises(ValueError):
        positive_roots(0)


def test_inner_examples():
    assert inner((1, 0), (1, 0)) == 1
    assert inner((1, 1), (1, -1)) == 0
    assert inner((2, 1), (4, 2)) == 10
    with pytest.raises(ValueError):
        inner((1, 0), (1, 0, 0))


def test_inner_symmetric_bilinear_spot():
    u, v, w = (2, -1, 3), (0, 4, 1), (1, 1, 1)
    assert inner(u, v) == inner(v, u)
    assert inner(tuple(a + b for a, b in zip(u, v)), w) == inner(u, w) + inner(v, w)


def test_sweep_dominant_weights():
    weights = list(sweep_dominant_weights(2, 2))
    assert len(weights) == 6
    assert all(sum(w.omegas) <= 2 for w in weights)
    assert len({w.omegas for w in weights}) == 6



def test_sweep_dominant_weights_order_and_size():
    # The old definition filtered every (max_total + 1)**rank tuple; the
    # sweep must give the same tuples in the same order without doing so.
    for rank, max_total in ((3, 2), (4, 2), (1, 3), (2, 0), (2, -1)):
        filtered = [m for m in itertools.product(range(max_total + 1), repeat=rank)
                    if sum(m) <= max_total]
        assert [w.omegas for w in sweep_dominant_weights(rank, max_total)] == filtered
    # 65**64 tuples would never be filtered; the sweep has 65 weights.
    weights = list(sweep_dominant_weights(64, 1))
    assert len(weights) == 65
    assert weights[0].omegas == (0,) * 64 and weights[-1].omegas == (1,) + (0,) * 63
