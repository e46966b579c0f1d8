#!/usr/bin/env python3
"""Walkthrough: the semiseparable inverse kernel, fast solves, and decay.

The inverse of an invertible tridiagonal Toeplitz matrix has closed-form
entries built from one Chebyshev sequence, read forwards and backwards.
The kernel gives O(1) access to any entry, an O(n) solve, and (in the
gapped regime x > 1) a geometric decay envelope.  The classical Thomas
elimination is kept as a baseline.
"""

import time

import numpy as np

from tritoep import (
    apply_inverse,
    build_kernel,
    decay_bound,
    decay_envelope,
    hyperbolic_inverse_entry,
    inverse_dense,
    inverse_entry,
    make_spec,
    symmetrise,
    thomas_solve,
)
from tritoep.oracle import dense_from_spec, dense_inverse

spec = make_spec(a=1.0, b=2.5, c=1.0, n=8)
kernel = build_kernel(spec)
form = symmetrise(spec)

print(f"n = {spec.n}, x = {form.x} (gapped: x > 1), "
      f"Wronskian U_n(x) = {kernel.wronskian.to_float():.6f}")
print("Wronskian constancy residual:", kernel.wronskian_residual)
print()

# a few kernel entries against a dense brute-force inverse
dense_inv = dense_inverse(dense_from_spec(spec))
print("entry (i,j)   kernel           dense            hyperbolic form")
for i, j in ((1, 1), (2, 5), (7, 3), (8, 8)):
    k_val = inverse_entry(kernel, i, j)
    h_val = hyperbolic_inverse_entry(form, i, j)
    print(f"  ({i},{j})     {k_val:+.12f}  {dense_inv[i-1, j-1]:+.12f}  {h_val:+.12f}")
print()

# exponential decay along the first row, next to the envelope
env = decay_envelope(spec)
print(f"decay envelope: eta = {env.eta}, prefactor = {env.prefactor:.6f}")
print(" j    |inverse(1,j)|   bound")
for j in range(1, spec.n + 1):
    print(f"  {j}   {abs(inverse_entry(kernel, 1, j)):.3e}      "
          f"{decay_bound(spec, 1, j):.3e}")
print()

# O(n) solve via prefix/suffix scans vs Thomas elimination vs dense LU
rng = np.random.default_rng(0)
print("      n   apply_inverse   thomas      max|x_kernel - x_thomas|/|x|")
for n in (1_000, 10_000, 100_000):
    big = make_spec(1.0, 2.5, 1.0, n)
    rhs = rng.standard_normal(n)
    big_kernel = build_kernel(big)

    t0 = time.perf_counter()
    x_kernel = apply_inverse(big_kernel, rhs)
    t_kernel = time.perf_counter() - t0

    t0 = time.perf_counter()
    x_thomas = thomas_solve(big, rhs)
    t_thomas = time.perf_counter() - t0

    disc = np.max(np.abs(x_kernel - x_thomas)) / np.max(np.abs(x_thomas))
    print(f"{n:>7}   {t_kernel * 1e3:8.2f} ms    {t_thomas * 1e3:8.2f} ms   {disc:.2e}")
print()

# localisation: a point load produces an exponentially localised solution
n = 41
mid = make_spec(1.0, 2.5, 1.0, n)
e_mid = np.zeros(n)
e_mid[n // 2] = 1.0
x = apply_inverse(build_kernel(mid), e_mid)
print("point load at the centre, solution magnitude by distance:")
for dist in (0, 2, 5, 10, 20):
    print(f"  |x[centre +- {dist:>2}]| = {abs(x[n // 2 + dist]):.3e}")

# materialising the whole inverse stays available for small n
full = inverse_dense(kernel)
print()
print("max |kernel inverse - dense inverse| =",
      np.max(np.abs(full - dense_inv)))
