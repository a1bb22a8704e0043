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
    for k, N in ((k, N) for k in range(2, 30) for N in range(k + 1, 120)):
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



def test_huge_N_lists_the_few_multiples_of_one_step():
    # feasible degrees are multiples of lcm(k / gcd(k, k-2), (N-k) / gcd(N-k, 2)),
    # at most 2k of them, so N is not walked
    N = 10**12
    assert feasible_degrees(3, N) == (3 * (N - 3),)
    step = (N - 4) // 2
    assert feasible_degrees(4, N) == tuple(range(step, 4 * (N - 4) + 1, step))
    assert len(feasible_degrees(4, N)) == 8
