"""Root system of sp_{2r}: coordinates, positive roots, and the pairing.

Weights are plain tuples of signed integers holding epsilon-coordinates, and
root labels plain (i, j, barred) tuples, so they hash, compare, and serialize
with no ceremony; a ``RootLabel`` is such a tuple. A ``DominantWeight`` is its
weakly decreasing epsilon-coordinate tuple lam, the suffix sums of its
fundamental-weight multiplicities (m_1, ..., m_r), which it derives.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator, Sequence

# A weight in epsilon-coordinates: tuple of `rank` signed integers.
WeightVector = tuple


def omegas_to_lambda(m: Sequence[int]) -> WeightVector:
    """Suffix sums (m_i + ... + m_r); the result is weakly decreasing."""
    out = []
    acc = 0
    for x in reversed(tuple(m)):
        acc += x
        out.append(acc)
    return tuple(reversed(out))


def lambda_tuple(seq: Sequence[int]) -> tuple:
    """``seq`` as a tuple of ints, checked to be a lambda tuple: non-empty,
    weakly decreasing and non-negative. Every bounding row is one."""
    seq = tuple(int(x) for x in seq)
    if not seq or seq[-1] < 0 or any(a < b for a, b in zip(seq, seq[1:])):
        raise ValueError(f"lambda tuple must be non-empty, weakly decreasing "
                         f"and non-negative: {seq}")
    return seq


def lambda_to_omegas(lam: Sequence[int]) -> tuple:
    """Adjacent differences lam_i - lam_{i+1}, taking lam_{r+1} = 0.

    Inverse of :func:`omegas_to_lambda`; rejects what :func:`lambda_tuple`
    rejects.
    """
    lam = lambda_tuple(lam)
    return tuple(a - b for a, b in zip(lam, lam[1:] + (0,)))


class DominantWeight(tuple):
    """Dominant integral weight of sp_{2r}: its lambda tuple (lam_1, ..., lam_r),
    checked by :func:`lambda_tuple` and equal to that tuple, which is also the
    epsilon-coordinate vector of the weight. ``rank``, the plain tuple ``lam``
    and the fundamental-weight multiplicities ``omegas`` are read from it;
    ``omegas`` is recomputed on each access, so read it once per call.
    """

    __slots__ = ()

    def __new__(cls, lam: Sequence[int]):
        return super().__new__(cls, lambda_tuple(lam))

    @classmethod
    def from_omegas(cls, m: Sequence[int]) -> "DominantWeight":
        m = tuple(int(x) for x in m)
        if any(x < 0 for x in m):
            raise ValueError(f"omega coordinates must be non-negative: {m}")
        return cls(omegas_to_lambda(m))

    rank = property(len)
    lam = property(tuple)
    omegas = property(lambda_to_omegas)


class RootLabel(namedtuple("RootLabel", "i j barred")):
    """Label (i, j, barred) of a positive root of sp_{2r}, equal to its plain
    tuple. Unbarred (i, j) requires i <= j < rank; barred (i, j) requires
    i <= j <= rank. The unbarred label with j = rank is rejected because that
    root coincides with its barred twin; :func:`root_vector` checks the rank.
    """

    __slots__ = ()

    def __new__(cls, i: int, j: int, barred: bool):
        if i < 1 or j < i:
            raise ValueError(f"need 1 <= i <= j, got i={i}, j={j}")
        return super().__new__(cls, i, j, barred)


def label_text(label) -> str:
    """Root label (i, j, barred) as "(i,j)", or "(i,j~)" when barred."""
    i, j, barred = label
    return f"({i},{j}{'~' if barred else ''})"


def simple_root(k: int, rank: int) -> WeightVector:
    """k-th simple root: eps_k - eps_{k+1} for k < rank, 2*eps_rank for k = rank."""
    if not 1 <= k <= rank:
        raise ValueError(f"simple root index {k} out of range for rank {rank}")
    v = [0] * rank
    if k < rank:
        v[k - 1] = 1
        v[k] = -1
    else:
        v[rank - 1] = 2
    return tuple(v)


def root_vector(label, rank: int) -> WeightVector:
    """Epsilon-expansion of the positive root labelled (i, j, barred):
    eps_i - eps_{j+1} (unbarred), eps_i + eps_j (barred, i < j) and 2*eps_i
    (barred, i = j). These are the sums of the consecutive simple roots
    i..j (unbarred), and i..rank followed by rank-1 down to j (barred).
    """
    i, j, barred = label
    if not 1 <= i <= j <= (rank if barred else rank - 1):
        raise ValueError(f"label {label_text(label)} is no positive root of rank {rank}")
    v = [0] * rank
    v[i - 1] = 1
    if barred:
        v[j - 1] += 1
    else:
        v[j] -= 1
    return tuple(v)


def positive_root_labels(rank: int) -> Iterator[RootLabel]:
    """All rank^2 positive-root labels: unbarred (i, j) for j < rank then
    barred (i, j) for j <= rank, each block ordered by (j, i)."""
    for j in range(1, rank):
        for i in range(1, j + 1):
            yield RootLabel(i, j, False)
    for j in range(1, rank + 1):
        for i in range(1, j + 1):
            yield RootLabel(i, j, True)


def positive_roots(rank: int) -> list:
    """Epsilon-vectors of the rank^2 positive roots, in the order of
    :func:`positive_root_labels`."""
    if rank < 1:
        raise ValueError("rank must be a positive integer")
    return [root_vector(label, rank) for label in positive_root_labels(rank)]


def inner(u: Sequence[int], v: Sequence[int]) -> int:
    """Euclidean pairing of epsilon-coordinate vectors, (eps_i, eps_j) = delta_ij."""
    if len(u) != len(v):
        raise ValueError(f"rank mismatch: {len(u)} vs {len(v)}")
    return sum(a * b for a, b in zip(u, v))


def sweep_dominant_weights(rank: int, max_total: int) -> Iterator[DominantWeight]:
    """Dominant weights with all omega-multiplicities summing to at most
    ``max_total``, in lexicographic order of the multiplicity tuple. Each
    step goes straight to the next such tuple, so none is filtered out."""
    m, total = [0] * rank, 0
    while total <= max_total:
        yield DominantWeight.from_omegas(m)
        k = rank - 1
        if total == max_total:  # zero the last non-zero entry, carry left
            k = max((i for i in range(rank) if m[i]), default=0)
            total -= m[k]
            m[k] = 0
            k -= 1
        if k < 0:
            return
        m[k] += 1
        total += 1
