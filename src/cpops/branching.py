"""Branching bookkeeping: two-step interlacing filtrations, refinement of the
overlay enumeration by its top blocks, and the rank-lowering Weyl filtration.

``verify_identities`` bundles every counting, character, and branching
identity the package promises for a single dominant weight into a structured
report; failures become report entries with witnesses, never exceptions.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from dataclasses import dataclass, field
from math import comb
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
from .patterns import (
    enumerate_patterns,
    enumerate_restricted_patterns,
    interlacing_rows,
    pattern_to_json,
    pattern_weight,
)
from .pops import (
    _weight_by_roots,
    enumerate_f,
    enumerate_pops,
    enumerate_restricted_pops,
    pop_count_formula,
)
from .rootsys import DominantWeight, lambda_to_omegas, lambda_tuple


@dataclass(frozen=True)
class FiltrationTerm:
    """One summand of the rank-lowering filtration: outer and inner gap
    tuples, binomial multiplicity, and the rank-(r-1) bounding sequence."""

    ell: tuple
    ellp: tuple
    mult: int
    target: tuple


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


@dataclass
class CheckResult:
    check: str
    status: str  # "ok" | "fail" | "skipped"
    lhs: object = None
    rhs: object = None
    witness: Optional[str] = None

    def to_json(self) -> dict:
        obj = {"check": self.check, "status": self.status,
               "lhs": self.lhs, "rhs": self.rhs}
        if self.witness is not None:
            obj["witness"] = self.witness
        return obj


@dataclass
class Report:
    weight: DominantWeight
    entries: list = field(default_factory=list)

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


def _refinement_by_top_block(pops, omegas: tuple, top: tuple, lower) -> tuple:
    # Group the overlaid patterns ``pops`` bounded by ``top`` by the gaps and
    # overlays of the block between the top row and the row under it,
    # ``rows[-2]`` (the final barred block of a full pattern, the top unbarred
    # block of a restricted one: the last len(omegas) positions). The groups
    # must be exactly the block choices for ``omegas``, each of the size
    # ``lower(target)``: the count one half-step down, under the row
    # ``target`` that the choice bounds.
    # Returns (groups, expected, witness).
    groups = Counter()
    for pop in pops:
        ells = tuple(a - b for a, b in zip(top, pop.pattern.rows[-2]))
        groups[(ells, pop.overlays[len(pop.overlays) - len(omegas):])] += 1
    expected = {}
    for combo in itertools.product(*(list(enumerate_f(m)) for m in omegas)):
        ells, parts = zip(*combo)
        target = tuple(t - ell for t, ell in zip(top, ells))
        expected[(ells, parts)] = lower(target)
    return len(groups), len(expected), _diff_witness(groups, expected, "block")


def verify_identities(lam: DominantWeight) -> Report:
    """Run every identity the package asserts for one dominant weight and
    report each as ok, fail, or skipped (when the rank is too small for it)."""
    r = lam.rank
    report = Report(lam)

    def check(name, lhs, rhs, witness=None):
        status = "ok" if lhs == rhs and witness is None else "fail"
        report.entries.append(CheckResult(name, status, lhs, rhs, witness))

    @functools.cache
    def count(stream, row) -> int:
        # Length of stream(row), walked once per call; the empty row bounds
        # the one rank-0 pattern.
        return sum(1 for _ in stream(row)) if row else 1

    n_patterns = 0
    weights_agree = 0
    weight_witness = None
    for p in enumerate_patterns(lam):
        n_patterns += 1
        w, by_roots = pattern_weight(p), _weight_by_roots(p)
        if w == by_roots:
            weights_agree += 1
        elif weight_witness is None:
            weight_witness = f"pattern {pattern_to_json(p)}: {w} vs {by_roots}"
    check("pattern-count-vs-weyl-dim", n_patterns, weyl_dim(lam))

    # Every enumerated overlaid pattern adds 1 to the direct character.
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

    check("pop-refinement-by-top-block", *_refinement_by_top_block(
        enumerate_pops(lam), lam.omegas, lam,
        functools.partial(count, enumerate_restricted_pops)))

    etas = shtepin_branch_v(lam)
    if r >= 2:
        bad = None
        for eta in etas:
            witness = _refinement_by_top_block(
                enumerate_restricted_pops(eta), lambda_to_omegas(eta)[:-1], eta,
                functools.partial(count, enumerate_pops))[2]
            if witness:
                bad = f"eta={eta}: {witness}"
                break
        check("restricted-refinement-by-top-block", len(etas), len(etas), bad)
    else:
        report.entries.append(
            CheckResult("restricted-refinement-by-top-block", "skipped"))

    check("irreducible-dim-vs-intermediate-sum", n_patterns,
          sum(count(enumerate_restricted_patterns, eta) for eta in etas))

    bad = None
    for eta in etas:
        lhs = count(enumerate_restricted_patterns, eta)
        rhs = sum(count(enumerate_patterns, nu) for nu in shtepin_branch_l(eta))
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
