"""Branching bookkeeping: two-step interlacing filtrations, refinement of the
overlay enumeration by its top blocks, and the rank-lowering Weyl filtration.

``verify_identities`` bundles every counting, character, and branching
identity the package promises for a single dominant weight into a structured
report; failures become report entries with witnesses, never exceptions.
It builds no overlaid pattern, lists no partition and walks no pattern chain,
and every pass reads one :func:`~cpops.patterns.row_levels` table of lambda:
:func:`count_table` counts the patterns under every row in one pass up it,
and their overlays by the direct character's box products at q = 1; lambda's
direct character and the weight check (row shares from chain_weight, root
expansions from rootsys.root_vector) are passes down it; and the restriction
check compares the fermionic restriction with one direct walk down it from
every target. The count checks compare that one table with closed forms that
share no code with it: the product formulas under each row below the top,
and the Weyl dimensions of the rank r-1 rows two levels down.
The character checks compare dominant parts: each graded piece is invariant
under signed permutations, so a term or a multiplicity at a dominant weight
stands for its whole orbit, counted by :func:`orbit_size`.
"""

from __future__ import annotations

import functools
import itertools
import operator
from collections import Counter, namedtuple
from math import comb, prod

# character_direct and character_fermionic are imported only so that
# perfbench/traced.py can wrap them under this module's name.
from .characters import (  # noqa: F401
    _direct_character,
    _direct_walk,
    _gap_boxes,
    character_direct,
    character_fermionic,
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
    chain_weight,
    enumerate_patterns,
    enumerate_restricted_patterns,
    gap_block,
    interlacing_rows,
    pattern_to_json,
    row_levels,
)
# enumerate_pops and enumerate_restricted_pops are imported only so that
# perfbench/traced.py can wrap them under this module's name.
from .pops import (  # noqa: F401
    enumerate_pops,
    enumerate_restricted_pops,
    pop_count_formula,
    restricted_pop_count_formula,
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


def weyl_filtration(lam: DominantWeight):
    """The filtration terms of ``lam``, yielded one at a time: ell_i <= m_i,
    ellp_i <= n_i with n_i = m_i - ell_i + ell_{i+1}, multiplicity the
    product of the two binomial families, target the first r-1 entries of
    lam minus both gaps.

    The dimension bookkeeping sum(mult * dim W(target)) = dim W(lam) holds
    exactly; rank-1 input is rejected when this is called, before any term
    is asked for.
    """
    if lam.rank < 2:
        raise ValueError("filtration needs rank at least 2")
    return _filtration_terms(lam.omegas, lam.lam)


def _filtration_terms(m: tuple, lam_t: tuple):
    r = len(m)
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
            yield FiltrationTerm(ell, ellp, mult, target)


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

    def json_text(self) -> str:
        """``json.dumps(self.to_json())``, written out: the check and status
        are plain names and lhs and rhs integers or None, so only a witness
        needs json's quoting."""
        text = (f'{{"check": "{self.check}", "status": "{self.status}", '
                f'"lhs": {_int_or_null(self.lhs)}, "rhs": {_int_or_null(self.rhs)}')
        if self.witness is not None:
            import json  # only a failed check has a witness

            text += f', "witness": {json.dumps(self.witness)}'
        return text + "}"


def _int_or_null(value) -> str:
    return "null" if value is None else str(value)


def _int_array(values) -> str:
    # json.dumps of a sequence of ints.
    return "[" + ", ".join(map(str, values)) + "]"


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

    def json_text(self) -> str:
        """``json.dumps(self.to_json())``, written out without json."""
        weight = self.weight
        checks = ", ".join([entry.json_text() for entry in self.entries])
        return (f'{{"rank": {weight.rank}, "omegas": {_int_array(weight.omegas)}, '
                f'"lambda": {_int_array(weight.lam)}, '
                f'"ok": {"true" if self.ok else "false"}, "checks": [{checks}]}}')

    def to_text(self) -> str:
        head = f"lambda={self.weight.lam} (omegas={self.weight.omegas})"
        lines = [head]
        for e in self.entries:
            line = f"  [{e.status:>7}] {e.check}: lhs={e.lhs} rhs={e.rhs}"
            if e.witness:
                line += f" witness={e.witness}"
            lines.append(line)
        return "\n".join(lines)


def _diff_witness(a: dict, b: dict, label: str) -> str | None:
    # The first sorted key where the two maps differ, or None when equal.
    for key in sorted(set(a) | set(b)):
        if a.get(key) != b.get(key):
            return f"{label} {key}: {a.get(key, 0)} vs {b.get(key, 0)}"
    return None


def count_table(levels: list) -> dict:
    """(row, restricted) -> (patterns, overlaid patterns) bounded by that
    row, for every row of ``levels``, a top row's unchanged
    :func:`~cpops.patterns.row_levels`: a full (lambda) row has the key False
    and a restricted (eta) row the key True. One pass up ``levels`` sums, for
    each row, the counts of the rows under it, their overlays multiplied by
    the gap block's partition count, the direct character's box product at
    q = 1. No chain is listed and nothing recurses. The empty row, of either
    kind, bounds the one rank-0 pattern."""
    table = {((), False): (1, 1), ((), True): (1, 1)}
    # Row k of a chain, counted from the bottom, is a lambda row when k is odd.
    for k, level in enumerate(reversed(levels)):
        for row, lowers in level.items():
            n = overlays = 0
            for lower in lowers:
                m, o = table[lower, k % 2 == 1]
                n += m
                overlays += o * _gap_boxes(lower, row, comb)
            table[row, not k % 2] = n, overlays
    return table


def count_chains(bounding) -> tuple:
    """The number of patterns bounded by ``bounding`` and of their overlaid
    patterns: its entry in :func:`count_table`."""
    top = lambda_tuple(bounding) if bounding else ()
    return count_table(row_levels(top))[top, False]


def _block_roots(rank: int, lower: tuple, upper: tuple) -> WeightVector:
    # The root expansion of a gap block: the sum of ell * root_vector(position)
    # over its positions.
    acc = [0] * rank
    for pos, (ell, _) in gap_block(lower, upper):
        if ell:
            for t, x in enumerate(root_vector(pos, rank)):
                acc[t] += ell * x
    return tuple(acc)


def _weight_step(rank: int, share: list, lower: tuple, upper: tuple) -> WeightVector:
    # What stepping down from ``upper`` to ``lower`` takes off the running
    # difference: the gap block's root expansion plus the lower row's share
    # of chain_weight, its row sum times each (coordinate, coefficient) of
    # ``share``.
    acc = list(_block_roots(rank, lower, upper))
    s = sum(lower)
    for i, c in share:
        acc[i] += c * s
    return tuple(acc)


def _weight_walk(lam: tuple, levels: list) -> tuple:
    # Lambda's full chains, counted by their weight difference d = lam minus
    # the root expansions of the gap blocks minus chain_weight, in one pass
    # down their row_levels ``levels`` keyed (row, d so far), each step read
    # from a memo of _weight_step per level. chain_weight is linear in the row
    # sums, so row k's share is read from chain_weight of a chain whose one
    # non-zero row sum is 1 at row k. Returns (chains, chains with d = 0,
    # witness), the witness None or one chain with d != 0, rebuilt from the
    # first (row, d) key that reached each key.
    r, height = len(lam), len(levels)
    shares = [[(i, c) for i, c in enumerate(chain_weight(
        [(1,) if j == k else () for j in range(height)])) if c] for k in range(height)]
    start = _weight_step(r, shares[-1], lam, lam)  # lam over lam: no gap, lam^r's share
    level, parents = {(lam, tuple(map(operator.sub, lam, start))): 1}, []
    for under, share in zip(levels, shares[-2::-1]):
        steps = functools.cache(functools.partial(_weight_step, r, share))
        below, back = {}, {}
        for key, n in level.items():
            row, d = key
            for lower in under[row]:
                child = (lower, tuple(map(operator.sub, d, steps(lower, row))))
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
    chain = [key[0]]
    for back in reversed(parents):
        key = back[key]
        chain.append(key[0])
    roots = map(sum, zip(*map(functools.partial(_block_roots, r), chain, chain[1:])))
    return total, agree, (f"pattern {pattern_to_json(PatternC.from_rows(chain))}: "
                          f"{chain_weight(chain)} vs {tuple(map(operator.sub, lam, roots))}")


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


def _refinement_by_top_block(top: tuple, restricted: bool, lowers, counts: dict) -> tuple:
    # The top block's choices under ``top``, counted per row L under it (the
    # ``lowers``): prod comb(m_i, ell_i) with ell = top - L, which total
    # 2**sum(m), the size of enumerate_f's product. Under each L, ``counts``
    # must hold the other kind's product formula of overlaid patterns.
    # Returns (choices, 2**sum(m), witness).
    m = lambda_to_omegas(top)[:len(top) - restricted]
    formula = pop_count_formula if restricted else restricted_pop_count_formula
    choices, witness = 0, None
    for lower in lowers:
        ell = tuple(map(operator.sub, top, lower))
        choices += prod(map(comb, m, ell))
        counted, expected = counts[lower, not restricted][1], formula(lower)
        if witness is None and counted != expected:
            witness = f"block {ell}: {counted} vs {expected}"
    return choices, 2 ** sum(m), witness


def verify_identities(lam: DominantWeight) -> Report:
    """Run every identity the package asserts for one dominant weight and
    report each as ok, fail, or skipped (when the rank is too small for it).
    One row_levels table of lambda serves every check, and one
    :func:`count_table` of it every pattern and overlay count. Those counts
    are compared with closed forms: lambda's with its Weyl dimension, each
    row's under the top with its product formula, and each eta row's with
    the Weyl dimensions of the rank r-1 rows under it. Lambda's direct
    character and the weight check (row shares from chain_weight) are passes
    down the table, and so is the direct walk at q = 1, seeded with every
    filtration target, that the fermionic restriction is compared with.
    Nothing is built: overlaid patterns are counted by box products, and
    characters are compared on dominant parts, with the totals of their
    orbit expansions."""
    r = lam.rank
    report = Report(lam)

    def check(name, lhs, rhs, witness=None):
        status = "ok" if lhs == rhs and witness is None else "fail"
        report.entries.append(CheckResult(name, status, lhs, rhs, witness))

    levels = row_levels(lam.lam)
    counts = count_table(levels)
    n_patterns = counts[lam.lam, False][0]
    check("pattern-count-vs-weyl-dim", n_patterns, weyl_dim(lam))

    # The direct character counts every overlaid pattern once.
    direct = _direct_character(lam, levels).terms
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

    etas = levels[0][lam.lam]
    check("pop-refinement-by-top-block",
          *_refinement_by_top_block(lam.lam, False, etas, counts))

    if r >= 2:
        bad = None
        for eta in etas:
            witness = _refinement_by_top_block(eta, True, levels[1][eta], counts)[2]
            if witness:
                bad = f"eta={eta}: {witness}"
                break
        check("restricted-refinement-by-top-block", len(etas), len(etas), bad)
    else:
        report.entries.append(
            CheckResult("restricted-refinement-by-top-block", "skipped"))

    # Each eta row's patterns against the Weyl dimensions of the rank r-1
    # rows under it, memoized afresh on each call; a rank-0 row counts 1.
    dim = functools.cache(lambda nu: weyl_dim(DominantWeight(nu)) if nu else 1)
    branched = {eta: sum(map(dim, levels[1][eta])) for eta in etas}
    check("irreducible-dim-vs-intermediate-sum", n_patterns, sum(branched.values()))
    bad = next((f"eta={eta}: {counts[eta, True][0]} vs {n}"
                for eta, n in branched.items() if counts[eta, True][0] != n), None)
    check("intermediate-dim-vs-irreducible-sum", len(etas), len(etas), bad)

    if r >= 2:
        by_target = Counter()
        for term in weyl_filtration(lam):
            by_target[term.target] += term.mult
        booked = sum(mult * pop_count_formula(t) for t, mult in by_target.items())
        check("weyl-filtration-dimension", booked, formula)

        lhs = _restricted_at_q1(fermionic)
        # One walk at q = 1 down lambda's levels from lam^{r-1}, seeded with
        # every target, a key of levels[2]: ellp_i <= n_i gives target_i >=
        # lam_{i+1} - ell_{i+1} >= lam_{i+2}, and target is dominant, so
        # eta_i = max(lam_{i+1}, target_i), eta_r = 0, is a row between them.
        rhs = _direct_walk(levels[2:], {(t, 0): {(): m} for t, m in by_target.items()}, comb)
        check("ungraded-restriction-character", _orbit_sum(lhs.items()),
              _orbit_sum(rhs.items()), _diff_witness(lhs, rhs, "weight"))
    else:
        for name in ("weyl-filtration-dimension", "ungraded-restriction-character"):
            report.entries.append(CheckResult(name, "skipped"))

    check("pattern-weight-vs-root-expansion", *_weight_walk(lam.lam, levels))
    return report
