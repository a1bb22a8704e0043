"""Degree feasibility for factors of the assembled determinant.

The determinant of the side-k(N-k) Hessian is an invariant of the array
under the GL_k x GL_{N-k} chart stabilizer, and so is every irreducible
factor.  A factor of degree d can exist only if both rectangular highest
weights fit: k | (k-2)d and (N-k) | 2d.  These conditions are necessary,
never sufficient; the irreducibility engine uses them purely as a filter.
"""

from __future__ import annotations

from math import gcd, lcm


def feasible_degrees(k: int, N: int) -> tuple[int, ...]:
    """All d in [1, k(N-k)] with k | (k-2)d and (N-k) | 2d; the total
    degree of the determinant is k(N-k).

    For k = 3 this is exactly: 3 | d, (N-3) | 2d, d <= 3(N-3).  The two
    conditions say k / gcd(k, k-2) | d and (N-k) / gcd(N-k, 2) | d.
    """
    if k < 2 or N <= k:
        raise ValueError(f"need k >= 2 and N > k, got ({k},{N})")
    step = lcm(k // gcd(k, k - 2), (N - k) // gcd(N - k, 2))
    return tuple(range(step, k * (N - k) + 1, step))
