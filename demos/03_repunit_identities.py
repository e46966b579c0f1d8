#!/usr/bin/env python3
"""Walkthrough: repunits as determinants, cosine products, exact inverses.

The matrix with diagonal d+1, subdiagonal d and superdiagonal 1 has
determinant 1 + d + ... + d^n -- the repunit R_{n+1}(d).  The general
framework then factorises that repunit into cosine factors, conditions
the matrix exactly, and writes every inverse entry as a ratio of
repunits, all of it checkable in exact integer/rational arithmetic.
"""

from fractions import Fraction

import numpy as np

from tritoep import (
    build_kernel,
    cheb_repunit_identity_residual,
    cosine_product,
    inverse_entry,
    repunit,
    repunit_condition,
    repunit_det_exact,
    repunit_inverse_entry,
    repunit_matrix_spec,
)
from tritoep.oracle import dense_from_spec, dense_inverse

print("determinants are repunits, exactly (base 10 shown):")
for n in range(1, 8):
    det = repunit_det_exact(10, n)
    print(f"  n = {n}: det = {det}  (R_{n + 1}(10) = {repunit(n + 1, 10).exact_value})")
print()

print("the same number as a product of cosine factors (floating point):")
for d in (2, 10):
    for n in (3, 7, 20):
        prod = cosine_product(d, n)
        exact = repunit(n + 1, d).exact_value
        print(f"  d = {d:>2}, n = {n:>2}: product = {prod:.6f}, "
              f"exact = {exact}, rel err = {abs(prod - exact) / exact:.2e}")
print()

print("weighted condition numbers stay tame for d away from 1:")
for d in (1, 2, 10, 100):
    conds = [repunit_condition(d, n) for n in (5, 50, 500)]
    print(f"  d = {d:>3}: cond(n=5) = {conds[0]:.4f}, cond(n=50) = {conds[1]:.4f}, "
          f"cond(n=500) = {conds[2]:.4f}")
print()

d, n = 10, 4
print(f"exact inverse of the n = {n} matrix in base d = {d}, as fractions:")
for i in range(1, n + 1):
    row = [str(repunit_inverse_entry(d, n, i, j).value) for j in range(1, n + 1)]
    print("  [" + ", ".join(f"{cell:>12}" for cell in row) + "]")

# multiply back in exact rational arithmetic: identity, no tolerance needed
inv = [[repunit_inverse_entry(d, n, i, j).value for j in range(1, n + 1)]
       for i in range(1, n + 1)]
ok = True
for r in range(n):
    for col in range(n):
        acc = Fraction(0)
        if r > 0:
            acc += d * inv[r - 1][col]
        acc += (d + 1) * inv[r][col]
        if r < n - 1:
            acc += inv[r + 1][col]
        ok &= acc == (1 if r == col else 0)
print("V * V^-1 == I exactly:", ok)
print()

print("the prefactor pitfall, demonstrated on d = 10, n = 2:")
dense = dense_inverse(dense_from_spec(repunit_matrix_spec(10, 2)))
print("  dense inverse entry (1,2)          :", dense[0, 1])
print("  repunit formula entry (1,2)        :",
      repunit_inverse_entry(10, 2, 1, 2).value)
# the variant times the entry by d^((i-j)/2)/sqrt(d) = 10^-1 at (1, 2)
print("  d^((i-j)/2)/sqrt(d)-scaled variant :",
      repunit_inverse_entry(10, 2, 1, 2).value / 10, " <- not the inverse")
print()

print("floating kernel path agrees with the exact entries (d = 10, n = 9):")
kernel = build_kernel(repunit_matrix_spec(10, 9))
worst = 0.0
for i in range(1, 10):
    for j in range(1, 10):
        exact = repunit_inverse_entry(10, 9, i, j).float_value
        worst = max(worst, abs(inverse_entry(kernel, i, j) - exact)
                    / max(abs(exact), 1e-300))
print("  max relative difference:", worst)
print()

print("Chebyshev-repunit bridge residuals at large degree:")
for d in (0.3, 2.0, 50.0):
    for m in (10, 100, 300):
        print(f"  d = {d:>5}, m = {m:>3}: residual = "
              f"{cheb_repunit_identity_residual(d, m):.2e}")

# boundary base d = 1: the discrete Laplacian-like case sits at x = 1
spec1 = repunit_matrix_spec(1, 5)
print()
print("d = 1 sits on the spectral gap boundary (x = 1): det =",
      repunit_det_exact(1, 5), "= n + 1, inverse still fine:",
      np.round([inverse_entry(build_kernel(spec1), 1, j) for j in range(1, 6)], 6))
