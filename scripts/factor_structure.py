"""Probe the factor structure of block Hessian determinants by line restriction.

Restricting the determinant to a random rational line gives a univariate
polynomial whose root multiplicities are visible over a prime field without
any multivariate factorization: a determinant that is globally an r-th power
(up to a constant) restricts to an r-th power on every line.  Three shapes
are probed per run:

  (3,6)                 expected perfect cube
  (3,7)                 expected perfect square
  (4,8), pair block 0   expected perfect square

Each trial draws a fresh base point and direction over F_p, interpolates
det H along the line from side+1 samples, and checks the r-th-power shape.
"""

import argparse
import random

from blockhess.hessian import det_on_line_mod
from blockhess.multiindex import enumerate_indices
from blockhess.ring import prime_for_trial, uni_root_structure_mod


def random_coeffs(rng, k, N, p, zero_pair=False):
    coeffs = {}
    for I in enumerate_indices(k, N):
        if zero_pair and set(I) & {1, 2, 3, 4} == {3, 4}:
            continue
        coeffs[I] = rng.randrange(p)
    return coeffs


def run_shape(k, N, r, trials, seed, zero_pair=False):
    label = f"({k},{N})" + (" pair block zeroed" if zero_pair else "")
    rng = random.Random(f"{seed}/{label}")
    ok = 0
    for trial in range(trials):
        p = prime_for_trial(trial)
        base = random_coeffs(rng, k, N, p, zero_pair)
        direction = random_coeffs(rng, k, N, p, zero_pair)
        coeffs = det_on_line_mod(k, N, base, direction, p)
        if all(c == 0 for c in coeffs):
            verdict = "zero restriction"
            ok += 1
        elif uni_root_structure_mod(coeffs, r, p) is not None:
            verdict = f"perfect {'cube' if r == 3 else 'square'}"
            ok += 1
        else:
            verdict = "NOT an r-th power"
        print(f"  trial {trial:>2}  p={p:<6} deg={len(coeffs) - 1:>2}  {verdict}")
    print(f"{label}: {ok}/{trials} lines consistent with r={r}")
    return ok == trials


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=5, help="lines per shape")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    all_ok = True
    print("(3,6), expecting a cube:")
    all_ok &= run_shape(3, 6, 3, args.trials, args.seed)
    print("(3,7), expecting a square:")
    all_ok &= run_shape(3, 7, 2, args.trials, args.seed)
    print("(4,8) with the pair block zeroed, expecting a square:")
    all_ok &= run_shape(4, 8, 2, args.trials, args.seed, zero_pair=True)
    return 0 if all_ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
