"""Acceptance suite: one test per release criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the PASS lines;
every criterion pins its tolerance and its runtime budget.
"""

import json
import math
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np

from helpers import inverse_entry_alt_scaling, log_abs_fraction, repunit_fraction
from tritoep import (
    apply_inverse,
    build_kernel,
    cosine_product_log,
    inverse_dense,
    make_spec,
    repunit,
    repunit_det_exact,
    repunit_inverse_entry,
    symmetrise,
    thomas_solve,
    weighted_condition,
)
from tritoep.cli import main as cli_main
from tritoep.oracle import dense_from_spec, dense_inverse


def _report(num, label, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num} {label}: PASS{suffix}")


def _budget(num, started, seconds):
    elapsed = time.perf_counter() - started
    assert elapsed < seconds, f"criterion {num} took {elapsed:.2f}s, budget {seconds}s"
    return elapsed


def test_criterion_1_exact_repunit_determinant():
    t0 = time.perf_counter()
    for d in (1, 2, 3, 10, 16):
        for n in range(1, 65):
            expected = sum(d**j for j in range(n + 1))
            assert repunit_det_exact(d, n) == expected
            assert repunit(n + 1, d).exact_value == expected
    elapsed = _budget(1, t0, 1.0)
    _report(1, "exact repunit determinant, d in {1,2,3,10,16}, n <= 64",
            f"{elapsed:.2f}s")


def test_criterion_2_cosine_product_factorisation():
    t0 = time.perf_counter()
    worst = 0.0
    for d in (0.5, 1.0, 2.0, 10.0):
        for n in range(1, 201):
            ref = log_abs_fraction(repunit_fraction(n + 1, Fraction(d)))
            err = abs(cosine_product_log(d, n) - ref)
            assert err <= 1e-10 * (n + 1)
            worst = max(worst, err / (n + 1))
    elapsed = _budget(2, t0, 1.0)
    _report(2, "cosine product equals the repunit (log scale)",
            f"max scaled err {worst:.2e}, {elapsed:.2f}s")


def test_criterion_3_eigen_residuals():
    t0 = time.perf_counter()
    rng = np.random.default_rng(3001)
    worst = 0.0
    for _ in range(500):
        n = int(rng.integers(1, 201))
        sign = -1.0 if rng.random() < 0.5 else 1.0
        a = sign * math.exp(rng.uniform(-0.5, 0.5))
        c = sign * math.exp(rng.uniform(-0.5, 0.5))
        s = math.sqrt(a * c)
        b = rng.uniform(-3.0, 3.0) * s
        spec = make_spec(a, b, c, n)
        form = symmetrise(spec)
        k = np.arange(1, n + 1)
        theta = k * math.pi / (n + 1)
        lam = b + 2.0 * s * np.cos(theta)
        vecs = np.power(form.q, np.arange(n, dtype=float))[:, None] * np.sin(
            np.outer(np.arange(1, n + 1), theta)
        )
        resid = dense_from_spec(spec) @ vecs - vecs * lam[None, :]
        ratios = np.max(np.abs(resid), axis=0) / (
            spec.row_scale() * np.max(np.abs(vecs), axis=0)
        )
        worst = max(worst, float(np.max(ratios)))
        assert np.all(ratios <= 1e-11)
    elapsed = _budget(3, t0, 10.0)
    _report(3, "eigen residuals, 500 random specs, n <= 200",
            f"max {worst:.2e} vs 1e-11, {elapsed:.2f}s")


def test_criterion_4_inverse_kernel_vs_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(3002)
    done = 0
    worst = 0.0
    while done < 200:
        n = int(rng.integers(1, 51))
        sign = -1.0 if rng.random() < 0.5 else 1.0
        a = sign * math.exp(rng.uniform(-0.6, 0.6))
        c = sign * math.exp(rng.uniform(-0.6, 0.6))
        b = rng.uniform(-3.0, 3.0) * math.sqrt(a * c)
        spec = make_spec(a, b, c, n)
        kernel = build_kernel(spec, singular_tol=1e-6)
        if not kernel.invertible:
            continue
        done += 1
        got = inverse_dense(kernel)
        want = dense_inverse(dense_from_spec(spec))
        err = float(np.max(np.abs(got - want)) / np.max(np.abs(want)))
        worst = max(worst, err)
        assert err <= 1e-9
    elapsed = _budget(4, t0, 10.0)
    _report(4, "inverse kernel vs dense oracle, 200 invertible specs, n <= 50",
            f"max {worst:.2e} vs 1e-9, {elapsed:.2f}s")


def test_criterion_5_exact_rational_arbiter_and_erratum():
    t0 = time.perf_counter()
    for d in (1, 2, 10):
        for n in range(1, 13):
            inv = [
                [repunit_inverse_entry(d, n, i, j).value for j in range(1, n + 1)]
                for i in range(1, n + 1)
            ]
            for r in range(n):
                for col in range(n):
                    acc = Fraction(0)
                    if r > 0:
                        acc += d * inv[r - 1][col]
                    acc += (d + 1) * inv[r][col]
                    if r < n - 1:
                        acc += inv[r + 1][col]
                    assert acc == (1 if r == col else 0)
    # the rejected prefactor reproduces -1/1110 where the inverse is -1/111
    assert inverse_entry_alt_scaling(10, 2, 1, 2) == Fraction(-1, 1110)
    assert repunit_inverse_entry(10, 2, 1, 2).value == Fraction(-1, 111)
    dense = dense_inverse(dense_from_spec(make_spec(10, 11, 1, 2)))
    assert abs(dense[0, 1] - (-1 / 111)) <= 1e-12
    elapsed = _budget(5, t0, 1.0)
    _report(5, "exact V * V^-1 = I and documented prefactor discrepancy",
            f"{elapsed:.2f}s")


def test_criterion_6_decay_domination():
    t0 = time.perf_counter()
    rng = np.random.default_rng(3003)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 301))
        sign = -1.0 if rng.random() < 0.5 else 1.0
        a = sign * math.exp(rng.uniform(-0.4, 0.4))
        c = sign * math.exp(rng.uniform(-0.4, 0.4))
        s = math.sqrt(a * c)
        x = rng.uniform(1.05, 3.0)
        spec = make_spec(a, 2.0 * s * x, c, n)
        kernel = build_kernel(spec)
        inv = np.abs(inverse_dense(kernel))
        form = symmetrise(spec)
        gamma = math.acosh(form.x)
        idx = np.arange(1, n + 1)
        diff = np.subtract.outer(idx, idx)
        log_env = (
            math.log(2.0 / form.s)
            - math.log(2.0 * math.sinh(gamma))
            + diff * math.log(abs(form.q))
            - np.abs(diff) * gamma
        )
        bound = np.exp(log_env)
        assert np.all(inv <= bound * (1.0 + 1e-12))
        with np.errstate(divide="ignore"):
            worst = max(worst, float(np.max(np.where(bound > 0, inv / bound, 0.0))))
    elapsed = _budget(6, t0, 10.0)
    _report(6, "decay bound dominates inverse entries, 100 gapped specs, n <= 300",
            f"max ratio {worst:.3f}, {elapsed:.2f}s")


def test_criterion_7_weighted_conditioning():
    t0 = time.perf_counter()
    rng = np.random.default_rng(3004)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 51))
        sign = -1.0 if rng.random() < 0.5 else 1.0
        a = sign * math.exp(rng.uniform(-0.7, 0.7))
        c = sign * math.exp(rng.uniform(-0.7, 0.7))
        s = math.sqrt(a * c)
        x = rng.uniform(1.0 + 1e-3, 4.0)
        spec = make_spec(a, 2.0 * s * x, c, n)
        rep = weighted_condition(spec)
        assert rep.positive_definite
        lam = np.linalg.eigvalsh(dense_from_spec(make_spec(s, spec.b, s, n)))
        err = abs(rep.cond_weighted / float(lam[-1] / lam[0]) - 1.0)
        worst = max(worst, err)
        assert err <= 1e-10
    assert weighted_condition(make_spec(4, 5, 1, 2)).cond_weighted == (
        (5.0 + 2.0 * 2.0 * math.cos(math.pi / 3.0))
        / (5.0 - 2.0 * 2.0 * math.cos(math.pi / 3.0))
    )
    assert abs(weighted_condition(make_spec(4, 5, 1, 2)).cond_weighted - 7 / 3) <= 1e-14
    elapsed = _budget(7, t0, 5.0)
    _report(7, "weighted conditioning vs dense symmetrised ratio, 100 PD specs",
            f"max {worst:.2e} vs 1e-10, 7/3 reproduced, {elapsed:.2f}s")


def test_criterion_8_wronskian_and_weighted_symmetry():
    t0 = time.perf_counter()
    rng = np.random.default_rng(3005)
    worst_w = 0.0
    done = 0
    while done < 60:
        n = int(rng.integers(2, 501))
        if rng.random() < 0.5:
            k_star = int(rng.integers(max(1, n // 6), max(2, (5 * n) // 6)))
            x = math.cos((k_star + 0.5) * math.pi / (n + 1))
        else:
            x = rng.uniform(1.001, 3.0)
        kernel = build_kernel(make_spec(1.0, 2.0 * x, 1.0, n))
        if not kernel.invertible:
            continue
        done += 1
        worst_w = max(worst_w, kernel.wronskian_residual)
        assert kernel.wronskian_residual <= 1e-9
    worst_s = 0.0
    for _ in range(25):
        n = int(rng.integers(2, 121))
        sign = -1.0 if rng.random() < 0.5 else 1.0
        a = sign * math.exp(rng.uniform(-0.4, 0.4))
        c = sign * math.exp(rng.uniform(-0.4, 0.4))
        b = rng.uniform(1.02, 3.0) * 2.0 * math.sqrt(a * c)
        spec = make_spec(a, b, c, n)
        kernel = build_kernel(spec)
        inv = inverse_dense(kernel)
        idx = np.arange(1, n + 1)
        factor = np.power(kernel.q * kernel.q, np.subtract.outer(idx, idx))
        mirrored = factor * inv.T
        mask = np.abs(inv) > 1e-250
        err = float(np.max(np.abs(inv[mask] - mirrored[mask]) / np.abs(inv[mask])))
        worst_s = max(worst_s, err)
        assert err <= 1e-10
    elapsed = _budget(8, t0, 5.0)
    _report(8, "Wronskian constancy (n <= 500) and weighted symmetry of the inverse",
            f"max wronskian {worst_w:.2e}, max symmetry {worst_s:.2e}, {elapsed:.2f}s")


def test_criterion_9_performance_scaling():
    t0 = time.perf_counter()
    rng = np.random.default_rng(3006)

    spec_big = make_spec(1.0, 2.5, 1.0, 10_000)
    rhs_big = rng.standard_normal(10_000)
    kernel_big = build_kernel(spec_big)
    x_kernel = apply_inverse(kernel_big, rhs_big)
    x_thomas = thomas_solve(spec_big, rhs_big)
    scale = float(np.max(np.abs(x_thomas)))
    agreement = float(np.max(np.abs(x_kernel - x_thomas))) / scale
    assert agreement <= 1e-9

    spec_small = make_spec(1.0, 2.5, 1.0, 1_000)
    rhs_small = rng.standard_normal(1_000)
    kernel_small = build_kernel(spec_small)

    def median_time(fn, reps=7):
        times = []
        for _ in range(reps):
            start = time.perf_counter()
            fn()
            times.append(time.perf_counter() - start)
        return sorted(times)[len(times) // 2]

    t_big = median_time(lambda: apply_inverse(kernel_big, rhs_big))
    t_small = median_time(lambda: apply_inverse(kernel_small, rhs_small))
    ratio = t_big / t_small
    assert ratio < 50.0, f"apply_inverse 10k/1k time ratio {ratio:.1f} >= 50"
    elapsed = _budget(9, t0, 30.0)
    _report(9, "apply_inverse ~ O(n) and agrees with thomas at n = 10^4",
            f"agreement {agreement:.2e}, time ratio {ratio:.1f}, {elapsed:.2f}s")


def test_criterion_10_cli_determinism(capsys, tmp_path):
    t0 = time.perf_counter()
    fixtures = [
        ["eig", "-a", "1", "-b", "2", "-c", "1", "-n", "8", "--format", "json"],
        ["eig", "-a", "4", "-b", "5", "-c", "1", "-n", "6", "-k", "2",
         "--format", "csv"],
        ["det", "-a", "10", "-b", "11", "-c", "1", "-n", "8", "--format", "json"],
        ["charpoly", "-a", "1", "-b", "2", "-c", "1", "-n", "5", "-t", "0.5",
         "--format", "json"],
        ["inverse", "-a", "10", "-b", "11", "-c", "1", "-n", "6", "-i", "2",
         "-j", "5", "--format", "json"],
        ["inverse", "-a", "1", "-b", "2.5", "-c", "1", "-n", "5",
         "--rhs", "1,0,0,0,2", "--format", "csv"],
        ["solve", "-a", "1", "-b", "2.5", "-c", "1", "-n", "5",
         "--rhs", "1,0,0,0,2", "--format", "json"],
        ["cond", "-a", "4", "-b", "5", "-c", "1", "-n", "7", "--format", "json"],
        ["decay", "-a", "1", "-b", "2.5", "-c", "1", "-n", "9", "-i", "2",
         "-j", "7", "--format", "json"],
        ["repunit", "value", "--base", "10", "-m", "40", "--exact"],
        ["repunit", "det", "--base", "10", "-n", "12", "--exact"],
        ["repunit", "product", "--base", "2", "-n", "50", "--format", "json"],
        ["repunit", "cond", "--base", "10", "-n", "9", "--format", "csv"],
        ["repunit", "inverse", "--base", "10", "-n", "5", "-i", "4", "-j", "2",
         "--format", "json"],
        ["repunit", "identity", "--base", "0.3", "-m", "120", "--format", "json"],
        ["verify", "-a", "10", "-b", "11", "-c", "1", "-n", "8", "--format", "csv"],
        ["bench", "--grid", "8,16", "-a", "1", "-b", "2.5", "-c", "1",
         "--reps", "0"],
    ]
    for argv in fixtures:
        code1 = cli_main(argv)
        out1 = capsys.readouterr().out.encode()
        code2 = cli_main(argv)
        out2 = capsys.readouterr().out.encode()
        assert code1 == code2 == 0, argv
        assert out1 == out2, f"nondeterministic output for {argv}"
        assert out1, argv

    # same check across fresh interpreter processes for a representative pair
    argv = [sys.executable, "-m", "tritoep", "verify", "-a", "10", "-b", "11",
            "-c", "1", "-n", "8", "--format", "json"]
    r1 = subprocess.run(argv, capture_output=True)
    r2 = subprocess.run(argv, capture_output=True)
    assert r1.returncode == r2.returncode == 0
    assert r1.stdout == r2.stdout
    elapsed = _budget(10, t0, 5.0)
    _report(10, "CLI byte-identical outputs for every subcommand",
            f"{len(fixtures)} fixtures, {elapsed:.2f}s")
