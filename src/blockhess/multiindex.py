"""Combinatorics of k-element multiindices.

A multiindex is a strictly increasing tuple of k integers in [1, N]; it
labels one coordinate of a degree-k alternating array on an N-dimensional
space.  Everything downstream (arrays, Hessians, node constructions) is
phrased in terms of the two distinguished multiindices

    first_index(k, N) = (1, ..., k)          -- written If in comments
    last_index(k, N)  = (N-k+1, ..., N)      -- written Il in comments

and the sign bookkeeping of sorting tuples that may arrive out of order.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable
from operator import gt, lt

MultiIndex = tuple[int, ...]


def sort_with_sign(values: Iterable[int], N: int | None = None) -> tuple[MultiIndex, int]:
    """(sorted ``values``, sign): the sign is (-1)**tau for tau transpositions
    that sort ``values``, or 0 if an entry repeats (the alternating
    coordinate vanishes).

    >>> sort_with_sign((2, 1, 3))
    ((1, 2, 3), -1)
    >>> sort_with_sign((1, 2, 3))
    ((1, 2, 3), 1)
    >>> sort_with_sign((4, 1, 4))
    ((1, 4, 4), 0)
    """
    seq = tuple(values)
    if N is not None:
        for v in seq:
            if not 1 <= v <= N:
                raise ValueError(f"entry {v} out of range [1, {N}]")
    if len(set(seq)) != len(seq):
        return tuple(sorted(seq)), 0
    # Counting inversions pair-by-pair is O(n^2) but n = k <= 7 throughout.
    inversions = sum(itertools.starmap(gt, itertools.combinations(seq, 2)))
    return tuple(sorted(seq)), -1 if inversions % 2 else 1


def enumerate_indices(k: int, N: int) -> list[MultiIndex]:
    """All C(N,k) multiindices in lexicographic order.

    This is the canonical serialization order for array coordinates.

    >>> enumerate_indices(2, 3)
    [(1, 2), (1, 3), (2, 3)]
    """
    if not 1 <= k <= N:
        raise ValueError(f"need 1 <= k <= N, got k={k}, N={N}")
    return list(itertools.combinations(range(1, N + 1), k))


def first_index(k: int, N: int) -> MultiIndex:
    """The multiindex (1, ..., k)."""
    return tuple(range(1, k + 1))


def last_index(k: int, N: int) -> MultiIndex:
    """The multiindex (N-k+1, ..., N)."""
    return tuple(range(N - k + 1, N + 1))


def is_valid_index(I: MultiIndex, k: int, N: int) -> bool:
    """Is I a strictly increasing tuple of k ints in [1, N]?  (bools count as ints.)

    Once the entries increase, range checks on the ends cover all of them.
    """
    return (
        len(I) == k
        and all(map(isinstance, I, itertools.repeat(int)))
        and all(map(lt, I, I[1:]))
        and (not I or 1 <= I[0] and I[-1] <= N)
    )


class NodeIndexSet:
    """A k-subset J of If ∪ Il.

    Carries (k, N) context so that the replacement pairing between the
    first-block and last-block halves is well defined.  Requires N >= 2k
    so that If and Il are disjoint.
    """

    __slots__ = ("k", "N", "J")

    def __init__(self, k: int, N: int, J: MultiIndex):
        If = set(first_index(k, N))
        Il = set(last_index(k, N))
        if If & Il:
            raise ValueError(f"need N >= 2k for disjoint end blocks, got k={k}, N={N}")
        if not is_valid_index(J, k, N):
            raise ValueError(f"invalid multiindex {J}")
        if not set(J) <= (If | Il):
            raise ValueError(f"J={J} not contained in {sorted(If | Il)}")
        self.k = k
        self.N = N
        self.J = J

    @property
    def in_first(self) -> tuple[int, ...]:
        """J ∩ If, sorted."""
        return tuple(v for v in self.J if v <= self.k)


def replacement_pairing(node: NodeIndexSet) -> dict[int, int]:
    """The pairing r -> s between If and the last block, determined by J.

    Elements of If ∩ J pair with elements of Il \\ J (these rows carry T in
    the node frame); elements of If \\ J pair with elements of Il ∩ J (the
    T^-1 rows).  Within each group the pairing preserves order.

    >>> replacement_pairing(NodeIndexSet(4, 10, (2, 3, 8, 9)))
    {1: 8, 2: 7, 3: 10, 4: 9}
    """
    k, N = node.k, node.N
    If = first_index(k, N)
    Il = set(last_index(k, N))
    f_in = [v for v in If if v in set(node.J)]
    f_out = [v for v in If if v not in set(node.J)]
    l_in = sorted(set(node.J) & Il)
    l_out = sorted(Il - set(node.J))
    if len(f_in) != len(l_out) or len(f_out) != len(l_in):
        raise AssertionError(f"group sizes disagree for J={node.J}")
    pairing: dict[int, int] = {}
    pairing.update(zip(f_in, l_out))
    pairing.update(zip(f_out, l_in))
    return {r: pairing[r] for r in If}

