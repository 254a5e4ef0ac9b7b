"""Acceptance gate: one test per criterion, at its stated tolerance.

Run with -s to see one PASS line per criterion.  Every expected value is
either trivial, verified against the closed forms, or computed by the
independent brute-force oracles in oracles.py.
"""

import math
import time

import numpy as np

from bhbounds import (
    FamilyParams,
    SearchConfig,
    bh_ratio,
    build_quadratic,
    build_witness,
    certificate_json,
    certify,
    family_ratio,
    lower_bound,
    lower_bound_excess,
    optimal_x,
    quadratic_sup_norm,
    search,
    sup_norm,
    upper_bound,
)
from oracles import (
    brute_force_torus_max,
    lipschitz_slack,
    random_polynomial,
    random_valid_quadratic,
)


def test_criterion_1_prior_constant_reproduction():
    # warm-up, then time the closed-form evaluation itself
    lower_bound(2)
    start = time.perf_counter()
    value = lower_bound(2)
    elapsed = time.perf_counter() - start
    assert value >= 1.1066
    assert abs(value - 1.1066) < 1e-4  # agrees with the prior bound to 4 decimals
    assert elapsed < 1e-3
    print(f"\nPASS criterion 1: lower_bound(2) = {value:.7f} >= 1.1066 "
          f"({elapsed * 1e6:.1f} us)")


def test_criterion_2_closed_form_pipeline_agreement():
    start = time.perf_counter()
    worst = 0.0
    for m in (2, 3, 4, 5):
        witness = build_witness(m, FamilyParams(1.0, -1.0, 2.0 ** ((m + 1) / 2.0)))
        estimate = bh_ratio(witness, 64).estimate
        err = abs(estimate - lower_bound(m))
        worst = max(worst, err)
        assert err <= 1e-6, f"m={m}: |{estimate} - {lower_bound(m)}| = {err}"
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"\nPASS criterion 2: pipeline matches the closed form for m=2..5, "
          f"worst |err| = {worst:.2e} ({elapsed:.2f} s)")


def test_criterion_3_closed_form_norm_oracle():
    rng = np.random.default_rng(16180339)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        a, b, c = random_valid_quadratic(rng)
        P = build_quadratic(FamilyParams(a, b, c))
        numeric = sup_norm(P).lower_estimate
        err = abs(numeric - quadratic_sup_norm(a, b, c))
        worst = max(worst, err)
        assert err <= 1e-6, f"(a,b,c)=({a},{b},{c}): err={err}"
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"\nPASS criterion 3: 50 random quadratics, worst |err| = {worst:.2e} "
          f"({elapsed:.2f} s)")


def test_criterion_4_critical_point_and_maximality():
    h = 1e-5
    xs = np.logspace(-3, 6, 1000)
    start = time.perf_counter()
    for m in range(2, 13):
        x_star = optimal_x(m)
        f_star = family_ratio(m, x_star)
        derivative = (family_ratio(m, x_star + h) - family_ratio(m, x_star - h)) / (2 * h)
        assert abs(derivative) <= 1e-6 * f_star
        assert all(f_star >= family_ratio(m, float(x)) for x in xs)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"\nPASS criterion 4: vanishing derivative and maximality at the "
          f"optimal weight for m=2..12 ({elapsed:.2f} s)")


def test_criterion_5_strictly_above_one():
    start = time.perf_counter()
    for m in range(2, 1001):
        value = lower_bound(m)
        assert math.isfinite(value) and not math.isnan(value)
        assert value >= 1.0
        # float spacing near 1.0 swallows the gap for m >~ 48; the strict
        # inequality is checked on the exactly equivalent excess form
        assert lower_bound_excess(m) > 0.0
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"\nPASS criterion 5: lower bound strictly above 1 for m=2..1000, "
          f"no overflow ({elapsed:.2f} s)")


def test_criterion_6_bound_ordering():
    start = time.perf_counter()
    for m in range(2, 101):
        assert lower_bound(m) < upper_bound(m)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"\nPASS criterion 6: lower < upper for m=2..100 ({elapsed:.2f} s)")


def test_criterion_7_certificate_soundness():
    rng = np.random.default_rng(9001)
    brute_grid = 1024
    start = time.perf_counter()
    for i in range(20):
        n = 3 if i % 3 == 0 else 2
        m = int(rng.integers(2, 5))
        P = random_polynomial(rng, m, n)
        cert = certify(P)
        assert cert.certified_lower <= cert.estimate
        brute = brute_force_torus_max(P, brute_grid)
        # brute is itself a grid value: it cannot exceed the rigorous top
        # of the bracket, and it can sit below the attained lower estimate
        # only by its own discretization slack
        assert brute <= cert.supnorm.upper_bracket + 1e-9
        assert cert.supnorm.lower_estimate <= brute + lipschitz_slack(P, brute_grid) + 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    print(f"\nPASS criterion 7: 20 random certificates sound against the "
          f"K={brute_grid} brute force ({elapsed:.1f} s)")


def test_criterion_8_search_floor_and_determinism():
    cfg = SearchConfig(m=2, num_vars=2, rng_seed=0)  # default budget and restarts
    start = time.perf_counter()
    run1 = search(cfg)
    run2 = search(cfg)
    elapsed = time.perf_counter() - start
    for cert in (run1, run2):
        assert cert.estimate >= 1.1066
    assert certificate_json(run1) == certificate_json(run2)
    assert elapsed < 120.0
    print(f"\nPASS criterion 8: seeded search estimate {run1.estimate:.7f} >= 1.1066, "
          f"identical across repeats ({elapsed:.1f} s)")
