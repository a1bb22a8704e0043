import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from blockhess.multiindex import (
    NodeIndexSet,
    enumerate_indices,
    first_index,
    is_valid_index,
    last_index,
    replacement_pairing,
    sort_with_sign,
)
from exterior_oracle import star


def bubble_parity(seq):
    seq = list(seq)
    sign = 1
    for i in range(len(seq)):
        for j in range(len(seq) - 1 - i):
            if seq[j] > seq[j + 1]:
                seq[j], seq[j + 1] = seq[j + 1], seq[j]
                sign = -sign
    return tuple(seq), sign


def test_sort_with_sign_basics():
    assert sort_with_sign((1, 2, 3), 6) == ((1, 2, 3), 1)
    assert sort_with_sign((2, 1, 3), 6) == ((1, 2, 3), -1)
    assert sort_with_sign((3, 1, 2), 6) == ((1, 2, 3), 1)
    assert sort_with_sign((1, 1, 3), 6)[1] == 0
    with pytest.raises(ValueError):
        sort_with_sign((0, 1, 2), 6)
    with pytest.raises(ValueError):
        sort_with_sign((1, 2, 7), 6)


@given(st.lists(st.integers(1, 9), min_size=1, max_size=6, unique=True))
def test_sort_with_sign_matches_bubble_parity(raw):
    idx, sign = sort_with_sign(tuple(raw), 9)
    ref_idx, ref_sign = bubble_parity(raw)
    assert idx == ref_idx
    assert sign == ref_sign


@given(st.lists(st.integers(1, 9), min_size=2, max_size=5))
def test_sort_with_sign_zero_iff_repeat(raw):
    _, sign = sort_with_sign(tuple(raw), 9)
    assert (sign == 0) == (len(set(raw)) != len(raw))


@pytest.mark.parametrize("k,N", [(1, 4), (2, 5), (3, 6), (3, 9), (4, 8)])
def test_enumerate_indices_count_and_order(k, N):
    idxs = list(enumerate_indices(k, N))
    assert len(idxs) == math.comb(N, k)
    assert idxs == sorted(idxs)
    assert all(len(I) == k and all(a < b for a, b in zip(I, I[1:])) for I in idxs)
    assert all(1 <= I[0] and I[-1] <= N for I in idxs)


def test_first_last_index():
    assert first_index(3, 7) == (1, 2, 3)
    assert last_index(3, 7) == (5, 6, 7)
    assert first_index(4, 8) == (1, 2, 3, 4)
    assert last_index(4, 8) == (5, 6, 7, 8)


def test_star_contains_single_replacements_and_center():
    I = (1, 2, 3)
    s = star(I, 6)
    assert I in s
    assert (1, 2, 4) in s and (2, 3, 6) in s
    assert all(len(set(J) & {1, 2, 3}) >= 2 for J in s)
    assert len(s) == 1 + 3 * 3
    with pytest.raises(ValueError):
        star((3, 1, 2), 6)


def test_is_valid_index():
    assert is_valid_index((1, 3, 6), 3, 6)
    assert not is_valid_index((1, 3, 3), 3, 6)
    assert not is_valid_index((3, 1, 6), 3, 6)
    assert not is_valid_index((1, 3), 3, 6)
    assert not is_valid_index((1, 3, 7), 3, 6)
    table = [
        ((1, 2), True),
        ((5, 6), True),
        ((True, 2), True),  # bools are ints
        ((False, 2), False),  # False is 0, out of range
        ((1, True), False),
        ((1.0, 2), False),
        ((1, 2.5), False),
        (("1", 2), False),
        ((2, 1), False),
        ((3, 3), False),
        ((0, 2), False),
        ((5, 7), False),
        ((-1, 2), False),
        ((1,), False),
        ((1, 2, 3), False),
        ((), False),
    ]
    for key, ok in table:
        assert is_valid_index(key, 2, 6) is ok, key
    assert is_valid_index((), 0, 6)


def test_node_index_set_accepts_only_two_block_patterns():
    node = NodeIndexSet(3, 7, (2, 3, 6))
    assert node.in_first == (2, 3)
    # J must sit inside first-block union last-block
    with pytest.raises(ValueError):
        NodeIndexSet(3, 7, (2, 4, 6))
    with pytest.raises(ValueError):
        NodeIndexSet(3, 7, (2, 3, 9))
    with pytest.raises(ValueError):
        NodeIndexSet(3, 7, (2, 3))


@pytest.mark.parametrize(
    "k,N,J",
    [
        (3, 7, (2, 3, 6)),
        (3, 9, (1, 8, 9)),
        (4, 8, (3, 4, 5, 6)),
        (4, 10, (2, 3, 8, 9)),
        (5, 11, (1, 2, 3, 10, 11)),
    ],
)
def test_replacement_pairing_is_an_exchange(k, N, J):
    node = NodeIndexSet(k, N, J)
    pairing = replacement_pairing(node)
    If = set(first_index(k, N))
    Il = set(last_index(k, N))
    assert set(pairing) == If
    kept = set(node.in_first)
    incoming = set(node.J) & Il
    # rows of If ∩ J pair into Il \ J; rows of If \ J pair into Il ∩ J
    assert {pairing[p] for p in kept} == Il - incoming
    assert {pairing[p] for p in If - kept} == incoming
    assert len({pairing[p] for p in If}) == k
    # order preserved within each group
    for group in (sorted(kept), sorted(If - kept)):
        images = [pairing[p] for p in group]
        assert images == sorted(images)
