"""Branching bookkeeping: two-step interlacing filtrations, refinement of the
overlay enumeration by its top blocks, and the rank-lowering Weyl filtration.

``verify_identities`` bundles every counting, character, and branching
identity the package promises for a single dominant weight into a structured
report; failures become report entries with witnesses, never exceptions.
It builds no overlaid pattern and walks no pattern chain: :func:`count_chains`
counts the patterns and overlaid patterns under each row in one pass down the
rows, the top block's partitions are listed once per row under the top, and
the weight check is a pass down lambda's rows that counts chains by their
running weight difference. The character checks compare dominant parts: each
graded piece is invariant under signed permutations, so a term or a
multiplicity at a dominant weight stands for its whole orbit, counted by
:func:`orbit_size`.
"""

from __future__ import annotations

import functools
import itertools
import operator
from collections import Counter, namedtuple
from math import comb, prod
from typing import Optional

# character_direct and character_fermionic are imported only so that
# perfbench/traced.py can wrap them under this module's name.
from .characters import (  # noqa: F401
    character_direct,
    character_fermionic,
    dominant_character_direct,
    dominant_character_fermionic,
)
# freudenthal_character is imported only so that perfbench/traced.py can wrap
# it under this module's name.
from .oracle import (  # noqa: F401
    dominant_freudenthal,
    freudenthal_character,
    orbit_size,
    weyl_dim,
)
# enumerate_patterns and enumerate_restricted_patterns are imported only so
# that perfbench/traced.py can wrap them under this module's name.
from .patterns import (  # noqa: F401
    PatternC,
    _Memo,
    chain_weight,
    enumerate_patterns,
    enumerate_restricted_patterns,
    gap_block,
    interlacing_rows,
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


def count_chains(bounding, restricted: bool = False) -> tuple:
    """The number of full (or restricted) patterns bounded by ``bounding``
    and of their overlaid patterns, in one pass down the rows: each row
    keeps the chains above it and their overlays, and the row under it
    multiplies the overlays by the gap block's :func:`_block_count`. No
    chain is listed. The empty row bounds the one rank-0 pattern."""
    top = lambda_tuple(bounding) if bounding else ()
    level = {top: (1, 1)}
    for k in range(2 * len(top) - 1 - restricted, 0, -1):
        below = {}
        for row, (n, overlays) in level.items():
            for lower in interlacing_rows(row + (0,) if k % 2 else row):
                m, o = below.get(lower, (0, 0))
                below[lower] = (m + n, o + overlays * _block_count(lower, row))
        level = below
    return tuple(map(sum, zip(*level.values())))


def _block_roots(rank: int, lower: tuple, upper: tuple) -> WeightVector:
    # The root expansion of a gap block: the sum of ell * root(position) over
    # its positions.
    acc = [0] * rank
    for pos, (ell, _) in gap_block(lower, upper):
        if ell:
            for t, x in enumerate(root_vector(pos, rank)):
                acc[t] += ell * x
    return tuple(acc)


def _weight_step(rank: int, lower: tuple, upper: tuple) -> WeightVector:
    # What stepping down from ``upper`` to ``lower`` takes off the running
    # difference: the gap block's root expansion plus the lower row's share
    # of chain_weight, 2|eta^j| at a_j for an eta row, -|lam^j| at a_j and
    # a_{j+1} for a lambda row.
    acc = list(_block_roots(rank, lower, upper))
    j, s = len(lower), sum(lower)
    if j == len(upper):
        acc[j - 1] += 2 * s
    else:
        acc[j - 1] -= s
        acc[j] -= s
    return tuple(acc)


def _weight_walk(lam: tuple) -> tuple:
    # Lambda's full chains, counted by their weight difference d = lam minus
    # the root expansions of the gap blocks minus chain_weight, in one pass
    # down the rows keyed (row, d so far), each step read from a memo of
    # _weight_step. Returns (chains, chains with d = 0, witness), the witness
    # None or one chain with d != 0, rebuilt from the first (row, d) key that
    # reached each key.
    r = len(lam)
    steps = _Memo(functools.partial(_weight_step, r))
    start = (lam, lam[:-1] + (lam[-1] + sum(lam),))  # lam^r adds -|lam| at a_r
    level, parents = {start: 1}, []
    for k in range(2 * r - 1, 0, -1):
        below, back = {}, {}
        for key, n in level.items():
            row, d = key
            for lower in interlacing_rows(row + (0,) if k % 2 else row):
                child = (lower, tuple(map(operator.sub, d, steps[lower, row])))
                if child in below:
                    below[child] += n
                else:
                    below[child], back[child] = n, key
        level = below
        parents.append(back)
    total = sum(level.values())
    agree = sum(n for (_, d), n in level.items() if not any(d))
    if agree == total:
        return total, agree, None
    key = next(key for key in level if any(key[1]))
    d, chain = key[1], [key[0]]
    for back in reversed(parents):
        key = back[key]
        chain.append(key[0])
    w = chain_weight(chain)
    return total, agree, (f"pattern {pattern_to_json(PatternC.from_rows(chain))}: "
                          f"{w} vs {tuple(map(operator.add, w, d))}")


def _orbit_sum(items) -> int:
    # The total of an orbit expansion, from (dominant weight, mult) pairs.
    return sum(m * orbit_size(mu) for mu, m in items)


def _restricted_at_q1(terms: dict) -> Counter:
    # The dominant part, at q = 1, of the restriction to the first r - 1
    # coordinates of the character whose dominant terms are ``terms``: the
    # images in mu's orbit that end in +-c, for each distinct value c of mu,
    # put mult * (2 if c else 1) at mu with one c removed.
    out = Counter()
    for (_, mu), m in terms.items():
        for i, c in enumerate(mu):
            if not i or mu[i - 1] != c:
                out[mu[:i] + mu[i + 1:]] += m * (2 if c else 1)
    return out


def _top_block_walk(row: tuple, restricted: bool, totals: _Memo) -> tuple:
    # The (restricted) patterns bounded by ``row``: their number and their
    # overlaid patterns counted by top block (ells, parts), the last
    # len(row) - restricted gaps, between the top row and the one under it.
    # Each row under the top lists its top-block partitions once and reads
    # the chains under it, of the other kind, from ``totals``, a memo of
    # count_chains.
    n, groups = 0, Counter()
    for lower in interlacing_rows(row if restricted else row + (0,)):
        patterns, overlays = totals[lower, not restricted]
        n += patterns
        boxes = [box for _, box in gap_block(lower, row)]
        ells = tuple([ell for ell, _ in boxes])
        for parts in itertools.product(*[partitions_in_box(*b) for b in boxes]):
            groups[ells, parts] += overlays
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
    Overlaid patterns are counted by box products, never built: each (row,
    kind) count is one :func:`count_chains` pass, computed once per call,
    and the weight check counts lambda's chains in one pass down its rows.
    Characters are compared on their dominant parts; every total is that of
    the orbit expansion, which is never built."""
    r = lam.rank
    report = Report(lam)

    def check(name, lhs, rhs, witness=None):
        status = "ok" if lhs == rhs and witness is None else "fail"
        report.entries.append(CheckResult(name, status, lhs, rhs, witness))

    # The memos are made afresh on each call, so a long sweep grows none.
    walk = _Memo(functools.partial(_top_block_walk, totals=_Memo(count_chains)))
    n_patterns = walk[lam.lam, False][0]
    check("pattern-count-vs-weyl-dim", n_patterns, weyl_dim(lam))

    # The direct character counts every overlaid pattern once.
    direct = dominant_character_direct(lam).terms
    formula = pop_count_formula(lam)
    check("pop-count-vs-product-formula",
          _orbit_sum((mu, m) for (_, mu), m in direct.items()), formula)

    fermionic = dominant_character_fermionic(lam).terms
    check("character-direct-vs-fermionic", _orbit_sum((mu, 1) for _, mu in direct),
          _orbit_sum((mu, 1) for _, mu in fermionic),
          _diff_witness(direct, fermionic, "term"))

    zero_slice = {mu: m for (grade, mu), m in direct.items() if grade == 0}
    table = dominant_freudenthal(lam)
    check("zeroth-piece-vs-freudenthal", _orbit_sum(zero_slice.items()),
          _orbit_sum(table.items()), _diff_witness(zero_slice, table, "weight"))

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

        lhs = _restricted_at_q1(direct)
        by_target = Counter()
        for term in terms:
            by_target[term.target] += term.mult
        rhs = Counter()
        for target, mult in by_target.items():
            for (_, mu), m in dominant_character_direct(DominantWeight(target)).terms.items():
                rhs[mu] += mult * m
        check("ungraded-restriction-character", _orbit_sum(lhs.items()),
              _orbit_sum(rhs.items()), _diff_witness(lhs, rhs, "weight"))
    else:
        for name in ("weyl-filtration-dimension", "ungraded-restriction-character"):
            report.entries.append(CheckResult(name, "skipped"))

    check("pattern-weight-vs-root-expansion", *_weight_walk(lam.lam))
    return report
