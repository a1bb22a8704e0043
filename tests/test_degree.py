import pytest

from blockhess.degree import feasible_degrees


# frozen expectations, derived independently from the two divisibility
# constraints k | (k-2)d and (N-k) | 2d on 1 <= d <= k(N-k)
FROZEN = {
    (3, 6): (3, 6, 9),
    (3, 7): (6, 12),
    (3, 8): (15,),
    (3, 10): (21,),
    (3, 11): (12, 24),
    (3, 15): (6, 12, 18, 24, 30, 36),
    (4, 10): (6, 12, 18, 24),
    (4, 11): (14, 28),
    (5, 12): (35,),
}


@pytest.mark.parametrize("k,N", sorted(FROZEN))
def test_feasible_degrees_frozen(k, N):
    assert feasible_degrees(k, N) == FROZEN[(k, N)]


@pytest.mark.parametrize("k,N", sorted(FROZEN))
def test_feasible_degrees_satisfy_divisibility(k, N):
    for d in feasible_degrees(k, N):
        assert 1 <= d <= k * (N - k)
        assert ((k - 2) * d) % k == 0
        assert (2 * d) % (N - k) == 0


def test_brute_force_agreement():
    for k, N in [(2, 6), (3, 9), (4, 9), (5, 11), (6, 13)]:
        expect = tuple(
            d
            for d in range(1, k * (N - k) + 1)
            if ((k - 2) * d) % k == 0 and (2 * d) % (N - k) == 0
        )
        assert feasible_degrees(k, N) == expect


def test_rejects_degenerate_shapes():
    with pytest.raises(ValueError):
        feasible_degrees(1, 5)
    with pytest.raises(ValueError):
        feasible_degrees(3, 3)

