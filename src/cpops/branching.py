"""Branching bookkeeping: two-step interlacing filtrations, refinement of the
overlay enumeration by its top blocks, and the rank-lowering Weyl filtration.

``verify_identities`` bundles every counting, character, and branching
identity the package promises for a single dominant weight into a structured
report; failures become report entries with witnesses, never exceptions.
It builds no overlaid pattern: it walks pattern chains, reads each gap
block's overlay count (a product of box sizes) and root expansion from memos
keyed by the block's two rows, and lists the top block's partitions once per
row under the top.
"""

from __future__ import annotations

import functools
import itertools
import operator
from collections import Counter, namedtuple
from math import comb, prod
from typing import Optional

from .characters import (
    GradedCharacter,
    character_direct,
    character_fermionic,
    restrict_drop_last,
    specialize_q1,
    total_dim,
)
from .oracle import freudenthal_character, weyl_dim
# verify walks pattern_chains; enumerate_patterns and
# enumerate_restricted_patterns are imported only so that perfbench/traced.py
# can wrap them under this module's name.
from .patterns import (  # noqa: F401
    PatternC,
    _Memo,
    chain_weight,
    enumerate_patterns,
    enumerate_restricted_patterns,
    gap_block,
    interlacing_rows,
    pattern_chains,
    pattern_to_json,
)
# enumerate_pops and enumerate_restricted_pops are imported only so that
# perfbench/traced.py can wrap them under this module's name.
from .pops import (  # noqa: F401
    enumerate_f,
    enumerate_pops,
    enumerate_restricted_pops,
    partitions_in_box,
    pop_count_formula,
)
from .rootsys import (
    DominantWeight,
    WeightVector,
    lambda_to_omegas,
    lambda_tuple,
    root_vector,
)


class FiltrationTerm(namedtuple("FiltrationTerm", "ell ellp mult target")):
    """One summand of the rank-lowering filtration: outer and inner gap
    tuples, binomial multiplicity, and the rank-(r-1) bounding sequence."""

    __slots__ = ()


def weyl_filtration(lam: DominantWeight) -> list:
    """All filtration terms of ``lam``: ell_i <= m_i, ellp_i <= n_i with
    n_i = m_i - ell_i + ell_{i+1}, multiplicity the product of the two
    binomial families, target the first r-1 entries of lam minus both gaps.

    The dimension bookkeeping sum(mult * dim W(target)) = dim W(lam) holds
    exactly; rank-1 input is rejected.
    """
    r = lam.rank
    if r < 2:
        raise ValueError("filtration needs rank at least 2")
    m = lam.omegas
    lam_t = lam.lam
    terms = []
    for ell in itertools.product(*(range(mi + 1) for mi in m)):
        n = tuple(
            m[i] - ell[i] + (ell[i + 1] if i + 1 < r else 0) for i in range(r - 1)
        )
        outer_mult = 1
        for mi, li in zip(m, ell):
            outer_mult *= comb(mi, li)
        for ellp in itertools.product(*(range(ni + 1) for ni in n)):
            mult = outer_mult
            for ni, li in zip(n, ellp):
                mult *= comb(ni, li)
            target = tuple(lam_t[i] - ell[i] - ellp[i] for i in range(r - 1))
            terms.append(FiltrationTerm(ell, ellp, mult, target))
    return terms


def shtepin_branch_v(lam) -> list:
    """Bounding sequences of the intermediate-algebra constituents of the
    irreducible module: all integer tuples eta with lam_i >= eta_i >= lam_{i+1}
    (lam_{r+1} = 0), each exactly once."""
    return list(interlacing_rows(lambda_tuple(lam) + (0,)))


def shtepin_branch_l(eta) -> list:
    """Constituents of an intermediate-algebra module: all (r-1)-tuples nu
    with eta_i >= nu_i >= eta_{i+1}."""
    return list(interlacing_rows(lambda_tuple(eta)))


class CheckResult(namedtuple("CheckResult", "check status lhs rhs witness",
                               defaults=(None, None, None))):
    """One check of a report; status is "ok", "fail" or "skipped"."""

    __slots__ = ()

    def to_json(self) -> dict:
        obj = {"check": self.check, "status": self.status,
               "lhs": self.lhs, "rhs": self.rhs}
        if self.witness is not None:
            obj["witness"] = self.witness
        return obj


class Report:
    """The checks run on one weight, in order."""

    __slots__ = ("weight", "entries")

    def __init__(self, weight: DominantWeight):
        self.weight = weight
        self.entries = []

    @property
    def ok(self) -> bool:
        return all(entry.status != "fail" for entry in self.entries)

    def to_json(self) -> dict:
        return {
            "rank": self.weight.rank,
            "omegas": list(self.weight.omegas),
            "lambda": list(self.weight.lam),
            "ok": self.ok,
            "checks": [entry.to_json() for entry in self.entries],
        }

    def to_text(self) -> str:
        head = f"lambda={self.weight.lam} (omegas={self.weight.omegas})"
        lines = [head]
        for e in self.entries:
            line = f"  [{e.status:>7}] {e.check}: lhs={e.lhs} rhs={e.rhs}"
            if e.witness:
                line += f" witness={e.witness}"
            lines.append(line)
        return "\n".join(lines)


def _diff_witness(a: dict, b: dict, label: str) -> Optional[str]:
    # The first sorted key where the two maps differ, or None when equal.
    for key in sorted(set(a) | set(b)):
        if a.get(key) != b.get(key):
            return f"{label} {key}: {a.get(key, 0)} vs {b.get(key, 0)}"
    return None


def _block_count(lower: tuple, upper: tuple) -> int:
    # The overlays of a gap block: the product of its boxes' partition counts.
    return prod([comb(ell + ellp, ell) for _, (ell, ellp) in gap_block(lower, upper)])


def _block_roots(rank: int, lower: tuple, upper: tuple) -> WeightVector:
    # The root expansion of a gap block: the sum of ell * root(position) over
    # its positions.
    acc = [0] * rank
    for pos, (ell, _) in gap_block(lower, upper):
        if ell:
            for t, x in enumerate(root_vector(pos, rank)):
                acc[t] += ell * x
    return tuple(acc)


def _weight_by_roots(chain: tuple, block_roots: _Memo) -> WeightVector:
    # The bounding weight minus the gap-weighted sum of positive roots, one
    # memo vector per gap block; must equal chain_weight(chain).
    vectors = map(block_roots.__getitem__, itertools.pairwise(chain))
    return tuple(map(operator.sub, chain[-1], map(sum, zip(*vectors))))


def _top_block_walk(row: tuple, restricted: bool, counts: _Memo, check=None) -> tuple:
    # Walk the (restricted) pattern chains bounded by ``row`` once. Returns
    # their number and their overlaid patterns counted by top block (ells,
    # parts): the last len(row) - restricted gaps, between the top row and
    # the one under it (the empty row when there is none). Every other block
    # multiplies by its box-count product from ``counts``, a memo of
    # _block_count; the products are summed by the row under the top, and
    # each such row's top-block partitions are listed once, after the walk.
    # ``check``, when given, is called with every chain. The empty row bounds
    # the one rank-0 pattern.
    if not row:
        return 1, Counter({((), ()): 1})
    n, under = 0, Counter()
    for chain in pattern_chains(row, restricted):
        n += 1
        under[chain[-2] if len(chain) > 1 else ()] += prod(
            map(counts.__getitem__, itertools.pairwise(chain[:-1])))
        if check is not None:
            check(chain)
    groups = Counter()
    for lower, rest in under.items():
        boxes = [box for _, box in gap_block(lower, row)]
        ells = tuple([ell for ell, _ in boxes])
        for parts in itertools.product(*[partitions_in_box(*b) for b in boxes]):
            groups[ells, parts] += rest
    return n, groups


def _refinement_by_top_block(walk, top: tuple, restricted: bool) -> tuple:
    # The top-block groups of ``walk[top, restricted]`` must be exactly the
    # block choices for the top block's multiplicities, each of the size of
    # the other kind's count one half-step down, under the row ``target``
    # that the choice bounds.
    # Returns (groups, expected, witness).
    groups = walk[top, restricted][1]
    expected = {}
    omegas = lambda_to_omegas(top)[:len(top) - restricted]
    for combo in itertools.product(*(list(enumerate_f(m)) for m in omegas)):
        ells, parts = zip(*combo)
        target = tuple(t - ell for t, ell in zip(top, ells))
        expected[(ells, parts)] = sum(walk[target, not restricted][1].values())
    return len(groups), len(expected), _diff_witness(groups, expected, "block")


def verify_identities(lam: DominantWeight) -> Report:
    """Run every identity the package asserts for one dominant weight and
    report each as ok, fail, or skipped (when the rank is too small for it).
    Overlaid patterns are counted by box products, never built, each gap
    block's product and root expansion is computed once per call, and each
    (row, kind) pattern stream is walked once."""
    r = lam.rank
    report = Report(lam)

    def check(name, lhs, rhs, witness=None):
        status = "ok" if lhs == rhs and witness is None else "fail"
        report.entries.append(CheckResult(name, status, lhs, rhs, witness))

    # The memos are made afresh on each call, so a long sweep grows none.
    counts = _Memo(_block_count)
    walk = _Memo(functools.partial(_top_block_walk, counts=counts))
    block_roots = _Memo(functools.partial(_block_roots, r))
    weights_agree = 0
    weight_witness = None

    def weigh(chain):
        nonlocal weights_agree, weight_witness
        w, by_roots = chain_weight(chain), _weight_by_roots(chain, block_roots)
        if w == by_roots:
            weights_agree += 1
        elif weight_witness is None:
            p = PatternC.from_rows(chain)
            weight_witness = f"pattern {pattern_to_json(p)}: {w} vs {by_roots}"

    # The weight check rides on the top-block walk of lam's stream.
    walk[lam.lam, False] = _top_block_walk(lam.lam, False, counts, weigh)
    n_patterns = walk[lam.lam, False][0]
    check("pattern-count-vs-weyl-dim", n_patterns, weyl_dim(lam))

    # The direct character counts every overlaid pattern once.
    direct = character_direct(lam)
    formula = pop_count_formula(lam)
    check("pop-count-vs-product-formula", total_dim(direct), formula)

    fermionic = character_fermionic(lam)
    check("character-direct-vs-fermionic", len(direct.terms),
          len(fermionic.terms), _diff_witness(direct.terms, fermionic.terms, "term"))

    zero_slice = direct.grade_slice(0)
    table = freudenthal_character(lam)
    check("zeroth-piece-vs-freudenthal", sum(zero_slice.values()),
          sum(table.values()), _diff_witness(zero_slice, table, "weight"))

    check("pop-refinement-by-top-block", *_refinement_by_top_block(walk, lam, False))

    etas = shtepin_branch_v(lam)
    if r >= 2:
        bad = None
        for eta in etas:
            witness = _refinement_by_top_block(walk, eta, True)[2]
            if witness:
                bad = f"eta={eta}: {witness}"
                break
        check("restricted-refinement-by-top-block", len(etas), len(etas), bad)
    else:
        report.entries.append(
            CheckResult("restricted-refinement-by-top-block", "skipped"))

    check("irreducible-dim-vs-intermediate-sum", n_patterns,
          sum(walk[eta, True][0] for eta in etas))

    bad = None
    for eta in etas:
        lhs = walk[eta, True][0]
        rhs = sum(walk[nu, False][0] for nu in shtepin_branch_l(eta))
        if lhs != rhs:
            bad = f"eta={eta}: {lhs} vs {rhs}"
            break
    check("intermediate-dim-vs-irreducible-sum", len(etas), len(etas), bad)

    if r >= 2:
        terms = weyl_filtration(lam)
        booked = sum(term.mult * pop_count_formula(term.target) for term in terms)
        check("weyl-filtration-dimension", booked, formula)

        lhs = restrict_drop_last(specialize_q1(direct))
        rhs = GradedCharacter(r - 1)
        cache = {}
        for term in terms:
            if term.target not in cache:
                cache[term.target] = specialize_q1(
                    character_direct(DominantWeight(term.target)))
            rhs.merge(cache[term.target], scale=term.mult)
        check("ungraded-restriction-character", total_dim(lhs), total_dim(rhs),
              _diff_witness(lhs.terms, rhs.terms, "term"))
    else:
        for name in ("weyl-filtration-dimension", "ungraded-restriction-character"):
            report.entries.append(CheckResult(name, "skipped"))

    check("pattern-weight-vs-root-expansion", n_patterns, weights_agree,
          weight_witness)
    return report
