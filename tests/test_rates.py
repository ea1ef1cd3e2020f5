"""Closed-form average rate formulas."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgepir import rates
from edgepir.topology import CoverageDistribution


def test_nopir_nothing_cached_costs_full_files():
    assert rates.backhaul_nopir([0.6, 0.4], [0, 0], [1.0]) == 1.0


def test_nopir_equivalence_identity_random():
    """sum_i p_i mu_i sum_b gamma_b max(0, k_i - b) equals
    sum_i p_i sum_b gamma_b (1 - min(1, b*mu_i)) for mu_i = 1/k_i."""
    rnd = random.Random(0)
    for _ in range(10000):
        F = rnd.randint(1, 4)
        ks = [rnd.choice([0, 1, 2, 3, 5]) for _ in range(F)]
        mu = [Fraction(1, k) if k else Fraction(0) for k in ks]
        p = [Fraction(rnd.randint(0, 5), 1) for _ in range(F)]
        s = sum(p)
        if s == 0:
            continue
        p = [x / s for x in p]
        B = rnd.randint(1, 6)
        g = [Fraction(rnd.randint(0, 4), 1) for _ in range(B)]
        gs = sum(g)
        if gs == 0:
            continue
        g = [x / gs for x in g]
        lhs = rates.backhaul_nopir(p, mu, g)
        rhs = sum(
            pi * sum(gb * (1 - min(1, b * mi)) for b, gb in enumerate(g))
            for pi, mi in zip(p, mu))
        assert lhs == rhs  # exact Fractions throughout


def test_nopir_point_mass_values():
    # k=2, always exactly 1 SBS in range: MBS sends 1 of 2 symbols
    assert rates.backhaul_nopir([1], [Fraction(1, 2)], [0, 1]) == Fraction(1, 2)
    # b >= k: free
    assert rates.backhaul_nopir([1], [Fraction(1, 2)], [0, 0, 1]) == 0


def test_nopir_rejects_bad_mu():
    with pytest.raises(ValueError):
        rates.backhaul_nopir([1], [Fraction(2, 3)], [1])


def test_nopir_popular():
    g = [0.3, 0.7]
    p = [0.5, 0.3, 0.2]
    assert rates.backhaul_nopir_popular(p, 2, g) == pytest.approx(
        0.3 * 0.8 + 0.2)
    assert rates.backhaul_nopir_popular(p, 0, g) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        rates.backhaul_nopir_popular(p, 4, g)


def test_pir_factor_values_and_infeasible():
    assert rates._pir_factor(Fraction(1, 2), Fraction(1), 4, 1) == 1
    assert rates._pir_factor(Fraction(1), Fraction(1), 2, 1) == 1
    assert rates._pir_factor(Fraction(1, 2), Fraction(1, 2), 6, 2) == \
        Fraction(1, 3)
    with pytest.raises(ValueError):
        rates._pir_factor(Fraction(1, 3), Fraction(1, 3), 3, 1)


def test_pir_worked_example_rate():
    """Repetition + length-5 SPC placement over 6 SBSs, T = 1: every
    coordinate's response is d*mu_max = 5 file units, and the per-coordinate
    factor mu_max/(mu_min*(n-T+1) - 1) = 1/(6/5 - 1) = 5 agrees."""
    mu = [Fraction(1), Fraction(1, 5)]
    p = [Fraction(1, 2), Fraction(1, 2)]
    factor = rates._pir_factor(Fraction(1, 5), Fraction(1), 6, 1)
    assert factor == Fraction(5)
    g = [0] * 6 + [1]  # always all 6 in range
    assert rates.backhaul_pir(p, mu, g, 6, 1) == 0
    assert rates.sbs_rate_pir(p, mu, g, 6, 1) == 30
    g = [0, 0, 0, 0, 1]  # b = 4: two coordinates answered by the MBS
    assert rates.backhaul_pir(p, mu, g, 6, 1) == 10
    assert rates.sbs_rate_pir(p, mu, g, 6, 1) == 20


def test_pir_uncached_files_cost_full():
    mu = [Fraction(1), Fraction(0)]
    p = [Fraction(1, 4), Fraction(3, 4)]
    g = [0, 0, 1]  # b = n = 2 always
    assert rates.backhaul_pir(p, mu, g, 2, 1) == Fraction(3, 4)
    # sbs rate counts every session (the user hides which file it wants)
    assert rates.sbs_rate_pir(p, mu, g, 2, 1) == 2


def test_pir_nothing_cached():
    assert rates.backhaul_pir([1], [0], [0, 1], 3, 1) == 1
    assert rates.sbs_rate_pir([1], [0], [0, 1], 3, 1) == 0


def test_pir_tail_capped_at_n():
    mu = [Fraction(1)]
    p = [1]
    g_tail = [0, 0, 0, 0, 1]  # b = 4 > n = 2
    g_at_n = [0, 0, 1]
    assert rates.backhaul_pir(p, mu, g_tail, 2, 1) == \
        rates.backhaul_pir(p, mu, g_at_n, 2, 1)
    assert rates.sbs_rate_pir(p, mu, g_tail, 2, 1) == \
        rates.sbs_rate_pir(p, mu, g_at_n, 2, 1)


@given(st.integers(2, 8), st.integers(1, 3))
@settings(max_examples=50, deadline=None)
def test_pir_rate_decreases_in_coverage(n, T):
    """Moving gamma mass from b to b+1 cannot increase the MBS rate."""
    if n < 2 + T:
        return
    mu = [Fraction(1, 2)]
    p = [Fraction(1)]
    for b in range(n):
        lo = [Fraction(0)] * (n + 1)
        hi = [Fraction(0)] * (n + 1)
        lo[b] = Fraction(1)
        hi[b + 1] = Fraction(1)
        assert rates.backhaul_pir(p, mu, hi, n, T) <= \
            rates.backhaul_pir(p, mu, lo, n, T)


def test_weighted_rate():
    assert rates.weighted_rate(Fraction(1, 2), Fraction(2), Fraction(1, 4)) \
        == Fraction(1)
    assert rates.weighted_rate(1.0, 3.0, 0) == 1.0
    with pytest.raises(ValueError):
        rates.weighted_rate(1, 1, 1.5)


def test_accepts_coverage_distribution_objects():
    cd = CoverageDistribution([0.0, 0.0, 1.0])
    assert rates.backhaul_nopir([1.0], [Fraction(1, 2)], cd) == 0
    assert rates.sbs_rate_pir([1.0], [Fraction(1)], cd, 2, 1) == 2.0


def test_expected_mbs_coords_exact():
    """E[(n - b)^+] in exact arithmetic; b >= n leaves the MBS idle."""
    g = [Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)]
    assert rates.expected_mbs_coords(g, 2) == Fraction(3, 4)
    assert rates.expected_mbs_coords(g, 0) == 0
    mu = [Fraction(1, 2)]
    assert rates.backhaul_pir([1], mu, g, 3, 1) == \
        rates._pir_factor(mu[0], mu[0], 3, 1) * rates.expected_mbs_coords(g, 3)


def parent_closed_forms(p, mu, g, n, T):
    """backhaul_pir and sbs_rate_pir as Fraction comparisons and
    float * Fraction products computed them before the integer tests."""
    cached = [m for m in mu if m != 0]
    factor = rates._pir_factor(min(cached), max(cached), n, T)
    mbs_coords = rates.expected_mbs_coords(g, n)
    total = 0
    for pi, mi in zip(p, mu):
        total += pi if mi == 0 else pi * factor * mbs_coords
    return total, factor * sum(gb * min(b, n) for b, gb in enumerate(g))


def test_pir_closed_forms_match_parent_expression_bit_for_bit():
    rnd = random.Random(5)
    for _ in range(200):
        F, T = rnd.randint(1, 30), rnd.randint(1, 2)
        ks = [rnd.choice([0, 1, 2, 3, 5]) for _ in range(F)]
        ks[rnd.randrange(F)] = rnd.choice([1, 2, 3, 5])
        mu = [Fraction(1, k) if k else Fraction(0) for k in ks]
        w = [rnd.random() for _ in range(F)]
        g = [rnd.random() for _ in range(rnd.randint(1, 8))]
        n = max(ks) + T + rnd.randint(0, 4)
        for p in ([x / sum(w) for x in w], [np.float64(x / sum(w)) for x in w]):
            got = (rates.backhaul_pir(p, mu, g, n, T), rates.sbs_rate_pir(p, mu, g, n, T))
            assert repr(got) == repr(parent_closed_forms(p, mu, g, n, T))
        p = [Fraction(rnd.randint(1, 9), 7) for _ in range(F)]
        g = [Fraction(rnd.randint(0, 9), 11) for _ in g]
        got = (rates.backhaul_pir(p, mu, g, n, T), rates.sbs_rate_pir(p, mu, g, n, T))
        assert all(type(x) is Fraction for x in got)
        assert got == parent_closed_forms(p, mu, g, n, T)


@pytest.mark.parametrize("rate", [
    lambda p, mu, g: rates.backhaul_nopir(p, mu, g),
    lambda p, mu, g: rates.backhaul_pir(p, mu, g, 4, 1),
    lambda p, mu, g: rates.sbs_rate_pir(p, mu, g, 4, 1),
], ids=["backhaul_nopir", "backhaul_pir", "sbs_rate_pir"])
def test_rates_reject_placement_of_wrong_length(rate):
    g = [0, 0, 0, 0, 1]
    rate([0.5, 0.5], [Fraction(1, 2)] * 2, g)
    for mu in ([Fraction(1, 2)] * 3, [Fraction(1, 2)]):
        with pytest.raises(ValueError, match="placement has"):
            rate([0.5, 0.5], mu, g)
