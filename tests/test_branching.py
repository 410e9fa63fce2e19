from collections import Counter

import pytest

from cpops import branching, pops
from cpops.branching import (
    FiltrationTerm,
    shtepin_branch_l,
    shtepin_branch_v,
    verify_identities,
    weyl_filtration,
)
from cpops.patterns import enumerate_patterns, enumerate_restricted_patterns
from cpops.pops import pop_count_formula
from cpops.rootsys import DominantWeight, sweep_dominant_weights


def count_patterns(lam_tuple):
    if not lam_tuple:
        return 1
    return sum(1 for _ in enumerate_patterns(DominantWeight(lam_tuple)))


def test_shtepin_branch_v_examples():
    assert shtepin_branch_v(DominantWeight.from_omegas((0, 0))) == [(0, 0)]
    assert shtepin_branch_v(DominantWeight((1, 0))) == [(0, 0), (1, 0)]
    assert shtepin_branch_v(DominantWeight((1, 1))) == [(1, 0), (1, 1)]


def test_shtepin_branch_l_examples():
    assert shtepin_branch_l((0, 0)) == [(0,)]
    assert shtepin_branch_l((1, 0)) == [(0,), (1,)]
    assert shtepin_branch_l((1, 1)) == [(1,)]
    with pytest.raises(ValueError):
        shtepin_branch_l((0, 1))
    with pytest.raises(ValueError):
        shtepin_branch_l((0, -1))


def test_branch_cardinalities():
    for w in sweep_dominant_weights(3, 2):
        lam = w.lam + (0,)
        expected = 1
        for i in range(3):
            expected *= lam[i] - lam[i + 1] + 1
        assert len(shtepin_branch_v(w)) == expected
        for eta in shtepin_branch_v(w):
            expected_l = 1
            for i in range(2):
                expected_l *= eta[i] - eta[i + 1] + 1
            assert len(shtepin_branch_l(eta)) == expected_l


def test_weyl_filtration_zero_weight():
    terms = weyl_filtration(DominantWeight.from_omegas((0, 0)))
    assert terms == [FiltrationTerm((0, 0), (0,), 1, (0,))]


def test_weyl_filtration_omega2_example():
    terms = weyl_filtration(DominantWeight.from_omegas((0, 1)))
    assert terms == [
        FiltrationTerm((0, 0), (0,), 1, (1,)),
        FiltrationTerm((0, 1), (0,), 1, (1,)),
        FiltrationTerm((0, 1), (1,), 1, (0,)),
    ]
    booked = sum(
        t.mult * pop_count_formula(DominantWeight(t.target))
        for t in terms
    )
    assert booked == 5


def test_weyl_filtration_omega1_bookkeeping():
    terms = weyl_filtration(DominantWeight.from_omegas((1, 0)))
    booked = sum(
        t.mult * pop_count_formula(DominantWeight(t.target))
        for t in terms
    )
    assert booked == 4


def test_weyl_filtration_rejects_rank1():
    with pytest.raises(ValueError):
        weyl_filtration(DominantWeight.from_omegas((2,)))


def test_filtration_targets_are_dominant():
    for w in sweep_dominant_weights(3, 2):
        for term in weyl_filtration(w):
            assert all(x >= 0 for x in term.target)
            assert all(
                term.target[i] >= term.target[i + 1]
                for i in range(len(term.target) - 1)
            )
            assert term.mult >= 1


def test_shtepin_dimension_sums_small():
    for r in (1, 2, 3):
        for w in sweep_dominant_weights(r, 2):
            total = sum(
                sum(1 for _ in enumerate_restricted_patterns(eta))
                for eta in shtepin_branch_v(w)
            )
            assert total == count_patterns(w.lam), w
            for eta in shtepin_branch_v(w):
                lhs = sum(1 for _ in enumerate_restricted_patterns(eta))
                rhs = sum(count_patterns(nu) for nu in shtepin_branch_l(eta))
                assert lhs == rhs, (w, eta)


def test_verify_identities_zero_weight_all_ranks():
    for r in (1, 2, 3):
        report = verify_identities(DominantWeight.from_omegas((0,) * r))
        assert report.ok, report.to_text()
        assert all(e.status in ("ok", "skipped") for e in report.entries)


def test_verify_identities_w1_plus_w2():
    report = verify_identities(DominantWeight.from_omegas((1, 1)))
    assert report.ok, report.to_text()
    by_name = {e.check: e for e in report.entries}
    assert by_name["pop-count-vs-product-formula"].lhs == 20


def test_verify_identities_two_w1():
    report = verify_identities(DominantWeight.from_omegas((2, 0)))
    assert report.ok, report.to_text()
    assert len(shtepin_branch_v(DominantWeight.from_omegas((2, 0)))) == 3


def test_verify_rank1_skips_rank_lowering_checks():
    report = verify_identities(DominantWeight.from_omegas((1,)))
    assert report.ok
    skipped = {e.check for e in report.entries if e.status == "skipped"}
    assert "weyl-filtration-dimension" in skipped
    assert "ungraded-restriction-character" in skipped


def test_report_serialization():
    report = verify_identities(DominantWeight.from_omegas((1, 0)))
    blob = report.to_json()
    assert blob["ok"] is True
    assert blob["lambda"] == [1, 0]
    assert all({"check", "status", "lhs", "rhs"} <= set(c) for c in blob["checks"])
    text = report.to_text()
    assert "pattern-count-vs-weyl-dim" in text


def _after(fn, change):
    def faulty(arg):
        out = fn(arg)
        change(out)
        return out
    return faulty


def _move_one(table):
    # Shift one unit of multiplicity between two weights; the total stays.
    table[min(table)] -= 1
    table[max(table)] += 1


# (name in cpops.branching, original -> faulty replacement, checks that fail)
VERIFY_FAULTS = {
    "weyl-dim-zero": (
        "weyl_dim", lambda f: lambda lam: 0, {"pattern-count-vs-weyl-dim"}),
    "fermionic-extra-term": (
        "character_fermionic",
        lambda f: _after(f, lambda ch: ch.add_term(99, (0,) * ch.rank)),
        {"character-direct-vs-fermionic"}),
    "fermionic-mult-plus-one": (
        "character_fermionic",
        lambda f: _after(f, lambda ch: ch.add_term(*min(ch.terms))),
        {"character-direct-vs-fermionic"}),
    "freudenthal-moved-one": (
        "freudenthal_character", lambda f: _after(f, _move_one),
        {"zeroth-piece-vs-freudenthal"}),
    "weight-by-roots-zero": (
        "_block_roots", lambda f: lambda rank, lower, upper: (0,) * rank,
        {"pattern-weight-vs-root-expansion"}),
    "block-count-plus-one": (
        "_block_count", lambda f: lambda lower, upper: f(lower, upper) + 1,
        {"pop-refinement-by-top-block", "restricted-refinement-by-top-block"}),
    "branch-l-drops-last": (
        "shtepin_branch_l", lambda f: lambda eta: f(eta)[:-1],
        {"intermediate-dim-vs-irreducible-sum"}),
    "pop-formula-plus-one": (
        "pop_count_formula", lambda f: lambda lam: f(lam) + 1,
        {"pop-count-vs-product-formula", "weyl-filtration-dimension"}),
    "restricted-patterns-drops-last": (
        "pattern_chains",
        lambda f: lambda row, restricted: list(f(row, restricted))[:-1] if restricted
        else f(row, restricted),
        {"pop-refinement-by-top-block", "restricted-refinement-by-top-block",
         "irreducible-dim-vs-intermediate-sum",
         "intermediate-dim-vs-irreducible-sum"}),
}


@pytest.mark.parametrize("fault", sorted(VERIFY_FAULTS))
def test_verify_identities_reports_each_fault(monkeypatch, fault):
    name, make_faulty, failing = VERIFY_FAULTS[fault]
    monkeypatch.setattr(branching, name, make_faulty(getattr(branching, name)))
    report = verify_identities(DominantWeight.from_omegas((1, 1)))
    assert report.ok is False
    failed = [e for e in report.entries if e.status == "fail"]
    assert {e.check for e in failed} == failing
    # Equal summaries with different maps fail through the witness alone.
    assert all(e.witness for e in failed if e.lhs == e.rhs)


def test_verify_identities_builds_no_overlaid_pattern(monkeypatch):
    def refuse(*args):
        raise AssertionError("an overlaid pattern was built")
    monkeypatch.setattr(pops, "_overlays_for", refuse)
    assert verify_identities(DominantWeight.from_omegas((1, 1, 1))).ok


def test_verify_identities_walks_each_stream_once(monkeypatch):
    calls = Counter()

    def counted(row, restricted, chains=branching.pattern_chains):
        calls[tuple(row), restricted] += 1
        return chains(row, restricted)
    monkeypatch.setattr(branching, "pattern_chains", counted)
    lam = DominantWeight.from_omegas((1, 1, 1))
    assert verify_identities(lam).ok
    # lam's full stream feeds both the top-block walk and the weight check.
    assert calls[lam.lam, False] == 1
    assert {restricted for _, restricted in calls} == {False, True}
    assert set(calls.values()) == {1}


def test_verify_identities_rank4_sweep():
    for w in sweep_dominant_weights(4, 2):
        report = verify_identities(w)
        assert report.ok, report.to_text()
