from collections import Counter

import pytest

from cpops import branching, characters, oracle, patterns, pops
from cpops.branching import (
    FiltrationTerm,
    shtepin_branch_l,
    shtepin_branch_v,
    verify_identities,
    weyl_filtration,
)
from cpops.characters import (
    character_direct,
    dominant_character_direct,
    restrict_drop_last,
    specialize_q1,
)
from cpops.patterns import (
    PatternC,
    chain_weight,
    differences,
    enumerate_patterns,
    enumerate_restricted_patterns,
    pattern_chains,
    pattern_to_json,
)
from cpops.pops import pop_count_formula
from cpops.rootsys import DominantWeight, root_vector, sweep_dominant_weights


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
        "dominant_character_fermionic",
        lambda f: _after(f, lambda ch: ch.add_term(99, (0,) * ch.rank)),
        {"character-direct-vs-fermionic"}),
    "fermionic-mult-plus-one": (
        "dominant_character_fermionic",
        lambda f: _after(f, lambda ch: ch.add_term(*min(ch.terms))),
        {"character-direct-vs-fermionic"}),
    "freudenthal-moved-one": (
        "dominant_freudenthal", lambda f: _after(f, _move_one),
        {"zeroth-piece-vs-freudenthal"}),
    "restriction-moved-one": (
        "_restricted_at_q1", lambda f: _after(f, _move_one),
        {"ungraded-restriction-character"}),
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
    # Restricted counts lose one pattern, with its one overlaid pattern.
    "restricted-patterns-drops-last": (
        "count_chains",
        lambda f: lambda row, restricted=False: tuple(
            x - restricted for x in f(row, restricted)),
        {"pattern-count-vs-weyl-dim", "pop-refinement-by-top-block",
         "restricted-refinement-by-top-block",
         "irreducible-dim-vs-intermediate-sum",
         "intermediate-dim-vs-irreducible-sum"}),
}


MAP_CHECKS = {"character-direct-vs-fermionic", "zeroth-piece-vs-freudenthal",
              "ungraded-restriction-character", "pattern-weight-vs-root-expansion"}


@pytest.mark.parametrize("fault", sorted(VERIFY_FAULTS))
def test_verify_identities_reports_each_fault(monkeypatch, fault):
    name, make_faulty, failing = VERIFY_FAULTS[fault]
    monkeypatch.setattr(branching, name, make_faulty(getattr(branching, name)))
    report = verify_identities(DominantWeight.from_omegas((1, 1)))
    assert report.ok is False
    failed = [e for e in report.entries if e.status == "fail"]
    assert {e.check for e in failed} == failing
    # Equal summaries with different maps fail through the witness alone,
    # and a check that compares maps names where they differ.
    assert all(e.witness for e in failed if e.lhs == e.rhs or e.check in MAP_CHECKS)


def test_verify_identities_builds_no_overlaid_pattern(monkeypatch):
    def refuse(*args):
        raise AssertionError("an overlaid pattern was built")
    monkeypatch.setattr(pops, "Pop", refuse)
    assert verify_identities(DominantWeight.from_omegas((1, 1, 1))).ok


def test_verify_identities_walks_each_stream_once(monkeypatch):
    passes, chains = Counter(), Counter()

    def counted(row, restricted=False, count=branching.count_chains):
        passes[tuple(row), restricted] += 1
        return count(row, restricted)

    def walked(row, restricted, walk=patterns.pattern_chains):
        chains[tuple(row), restricted] += 1
        return walk(row, restricted)
    monkeypatch.setattr(branching, "count_chains", counted)
    monkeypatch.setattr(patterns, "pattern_chains", walked)
    lam = DominantWeight.from_omegas((1, 1, 1))
    assert verify_identities(lam).ok
    # Each (row, kind) count is one count_chains pass, and no check walks
    # a pattern chain, not even the weight check.
    assert passes and set(passes.values()) == {1}
    assert not chains


def test_verify_identities_expands_no_character(monkeypatch):
    def refuse(*args):
        raise AssertionError("verify expanded a character")
    for owner, name in [(characters, "expand_dominant"), (characters, "specialize_q1"),
                        (characters, "restrict_drop_last"), (oracle, "signed_orbit"),
                        (characters, "character_direct"), (branching, "character_direct"),
                        (characters, "character_fermionic"),
                        (branching, "character_fermionic")]:
        monkeypatch.setattr(owner, name, refuse)
    for w in sweep_dominant_weights(3, 2):
        assert verify_identities(w).ok


def _reference_weight_check(lam, pair, delta):
    # Lambda's chains walked one by one: their number, the number that pass
    # the weight check and the witnesses of those that fail. The root
    # expansion sums ell * root_vector over the differences, plus ``delta``
    # when the chain holds the adjacent rows ``pair``.
    r = lam.rank
    total = agree = 0
    rejected = set()
    for chain in pattern_chains(lam, False):
        total += 1
        p = PatternC.from_rows(chain)
        roots = [delta[t] if pair in zip(chain, chain[1:]) else 0 for t in range(r)]
        for pos, (ell, _) in differences(p).items():
            for t, x in enumerate(root_vector(pos, r)):
                roots[t] += ell * x
        w, by_roots = chain_weight(chain), tuple(a - b for a, b in zip(lam.lam, roots))
        if w == by_roots:
            agree += 1
        else:
            rejected.add(f"pattern {pattern_to_json(p)}: {w} vs {by_roots}")
    return total, agree, rejected


def test_weight_check_one_corrupted_block(monkeypatch):
    # One row pair, lam^1 = (1,) under eta^2 = (2, 0), gets a wrong root
    # expansion: the chains through it, and only those, must fail.
    lam = DominantWeight.from_omegas((1, 1))
    pair, delta = ((1,), (2, 0)), (1, 0)
    total, agree, rejected = _reference_weight_check(lam, pair, delta)
    assert 0 < agree < total

    def corrupt(rank, lower, upper, true=branching._block_roots):
        roots = true(rank, lower, upper)
        if (lower, upper) == pair:
            roots = tuple(a + b for a, b in zip(roots, delta))
        return roots
    monkeypatch.setattr(branching, "_block_roots", corrupt)
    report = verify_identities(lam)
    failed = [e for e in report.entries if e.status == "fail"]
    assert [e.check for e in failed] == ["pattern-weight-vs-root-expansion"]
    entry = failed[0]
    assert (entry.lhs, entry.rhs) == (total, agree)
    assert entry.witness in rejected


def test_dominant_restriction_matches_the_full_restriction():
    for r in (2, 3, 4):
        for w in sweep_dominant_weights(r, 3):
            full = restrict_drop_last(specialize_q1(character_direct(w))).terms
            dominant = {(0, mu): m for (_, mu), m in full.items()
                        if list(mu) == sorted(map(abs, mu), reverse=True)}
            rule = branching._restricted_at_q1(dominant_character_direct(w).terms)
            assert {(0, mu): m for mu, m in rule.items()} == dominant, w


def test_verify_identities_rank4_sweep():
    for w in sweep_dominant_weights(4, 2):
        report = verify_identities(w)
        assert report.ok, report.to_text()


def test_verify_identities_rank5_sweep():
    for w in sweep_dominant_weights(5, 2):
        report = verify_identities(w)
        assert report.ok, report.to_text()
