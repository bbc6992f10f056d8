"""Acceptance gate: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""
import time
from fractions import Fraction

import numpy as np
import pytest

from eqdesign.effects import build_incidence, elementary_effects, order_vertices, \
    randomize
from eqdesign.families import (gen_G, gen_H, gen_M, gen_path,
                               min_size_oracle, predicted_size_G,
                               predicted_size_H, q_min)
from eqdesign.poly import DesignPoly
from eqdesign.screening import REFERENCE_CLASSES, ScreenConfig, run_screen

M_CAP = 64
D_CAP = 12


def _m_range(d, lo=1):
    return range(lo, min(1 << (d - 1), M_CAP) + 1)


def test_criterion_1_equitability_sweep():
    start = time.monotonic()
    checked = 0
    for d in range(1, D_CAP + 1):
        for m in _m_range(d):
            assert gen_G(d, m).is_equitable() == m, ("G", d, m)
            checked += 1
    for d in range(2, D_CAP + 1):
        for m in _m_range(d, lo=2):
            assert gen_H(d, m).is_equitable() == m, ("H", d, m)
            checked += 1
    for d in range(2, D_CAP + 1):
        for m in _m_range(d):
            if d >= 2 * q_min(m):
                assert gen_M(d, m).is_equitable() == m, ("M", d, m)
                checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    print(f"\nACCEPTANCE 1: PASS — {checked} designs all equitable in {elapsed:.1f}s")


def test_criterion_2_size_theorems():
    for d in range(1, D_CAP + 1):
        for m in _m_range(d):
            kappa = m.bit_length() - 1
            assert len(gen_G(d, m)) == m * (d - kappa) + (1 << (kappa + 1)) - m
            assert predicted_size_G(d, m) == len(gen_G(d, m))
    for d in range(2, D_CAP + 1):
        for m in _m_range(d, lo=2):
            assert len(gen_H(d, m)) == predicted_size_H(d, m), (d, m)
    # special case m = 2^kappa + 2^(kappa-1): |H| = 2^kappa ((d - kappa) + 3/2)
    for kappa in range(1, 5):
        m = (1 << kappa) + (1 << (kappa - 1))
        for d in range(kappa + 2, 21):
            if m > 1 << (d - 1):
                continue
            expected = Fraction(1 << kappa) * (Fraction(d - kappa) + Fraction(3, 2))
            assert expected.denominator == 1
            assert len(gen_H(d, m)) == int(expected), (d, m)
    print("\nACCEPTANCE 2: PASS — size formulas exact on the full sweep")


def test_criterion_3_evaluation_counts():
    clustered = run_screen(ScreenConfig(d=20, m=4, r=3, family="M", seed=0))
    assert clustered.n_evals == 147
    baseline = run_screen(ScreenConfig(d=20, m=1, r=12, family="path", seed=0))
    assert baseline.n_evals == 252
    print("\nACCEPTANCE 3: PASS — n_evals 147 (clustered) and 252 (baseline)")


def test_criterion_4_cross_family_condition():
    checked = 0
    for d in range(1, 11):
        for k in range(1, 1 << (d - 1)):
            assert gen_G(d, k).scalar(gen_G(d, k + 1).mirror(0b1)) == 2 * k + 1, (d, k)
            checked += 1
    print(f"\nACCEPTANCE 4: PASS — <G_k, X1 G_(k+1)> = 2k+1 on {checked} pairs")


def test_criterion_5_complement_theorem():
    rng = np.random.default_rng(20260826)
    for trial in range(200):
        d = int(rng.integers(2, 11))
        m = int(rng.integers(1, (1 << (d - 1)) + 1))
        if m == 1:
            base = gen_path(d) if rng.integers(2) else gen_G(d, 1)
        else:
            base = gen_G(d, m) if rng.integers(2) else gen_H(d, m)
        design, _, _ = randomize(base, rng)
        expect = (1 << (d - 1)) + m - len(design)
        assert design.complement().is_equitable() == expect, (trial, d, m)
    print("\nACCEPTANCE 5: PASS — complement multiplicity exact on 200 random designs")


def _economy_row(d, m):
    rows = {}
    rows["G"] = gen_G(d, m).economy(m)
    if m >= 2:
        rows["H"] = gen_H(d, m).economy(m)
    if d >= 2 * q_min(m):
        rows["M"] = gen_M(d, m).economy(m)
    return rows


def test_criterion_6_economy_ordering():
    for m in range(1, 201):
        rows = _economy_row(30, m)
        if "H" in rows:
            assert rows["G"] <= rows["H"], (30, m)
        if "H" in rows and "M" in rows:
            assert rows["H"] <= rows["M"], (30, m)
    for m in range(1, (1 << 9) + 1):
        rows = _economy_row(10, m)
        if "H" in rows:
            assert rows["G"] <= rows["H"], (10, m)
        if "H" in rows and "M" in rows:
            assert rows["H"] <= rows["M"], (10, m)
    top = _economy_row(10, 1 << 9)
    assert top["G"] == top["H"] == Fraction(10, 2)
    print("\nACCEPTANCE 6: PASS — Gamma(G) <= Gamma(H) <= Gamma(M), equality d/2 at m=2^(d-1)")


def test_criterion_7_worked_example():
    design = DesignPoly.of(4, [0b0000, 0b0001, 0b0010, 0b0011, 0b0111, 0b1011,
                               0b1111])
    od = order_vertices(design)
    inc = build_incidence(od, 2)
    assert inc.pairs == ((1, 3, 1), (2, 4, 1))
    f = [1.0, 4.0, 9.0, 16.0, 25.0, 36.0, 49.0]
    delta = 0.5
    assert elementary_effects(inc, f, delta).tolist() == [(9.0 - 1.0) / delta,
                                                          (16.0 - 4.0) / delta]
    print("\nACCEPTANCE 7: PASS — worked-example pairs (1,3,+1), (2,4,+1) and effects")


def test_criterion_8_minimality_oracle():
    start = time.monotonic()
    assert min_size_oracle(3, 2)[0] == 6 == len(gen_H(3, 2))
    for d in range(2, 5):
        size, witness = min_size_oracle(d, 2)
        assert size == len(gen_H(d, 2)), d
        assert witness.is_equitable() == 2
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 8: PASS — oracle matches |H(d,2)| for d <= 4 in {elapsed:.1f}s")


def test_criterion_9_screening_quality():
    start = time.monotonic()
    n_runs = 100
    separated = 0
    accuracies = []
    for seed in range(n_runs):
        report = run_screen(ScreenConfig(seed=seed))
        mu_star = report.stats.mu_star
        if np.median(mu_star[10:]) < min(mu_star[:10]):
            separated += 1
        correct = sum(1 for i in range(20)
                      if i != 2 and report.classes[i] == REFERENCE_CLASSES[i])
        accuracies.append(correct / 19)
    elapsed = time.monotonic() - start
    mean_acc = sum(accuracies) / n_runs
    assert separated >= 0.9 * n_runs, f"separation only {separated}/{n_runs}"
    assert mean_acc >= 0.80, f"mean accuracy {mean_acc:.3f}"
    assert elapsed < 120.0
    print(f"\nACCEPTANCE 9: PASS — separation {separated}/100, "
          f"mean accuracy {mean_acc:.1%}, {elapsed:.1f}s")


def test_criterion_10_property_suite_volume():
    import test_properties
    from hypothesis import settings as hyp_settings

    total = 0
    for name in dir(test_properties):
        fn = getattr(test_properties, name)
        if name.startswith("test_") and hasattr(fn, "hypothesis"):
            configured = getattr(fn, "_hypothesis_internal_use_settings", None)
            total += (configured or hyp_settings.default).max_examples
    assert total >= 1000, f"only {total} generated cases configured"
    print(f"\nACCEPTANCE 10: PASS — property suite configured for {total} generated cases")
