"""Placement optimizers: PIR grid scan, popular placement, no-privacy DP."""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from edgepir import optimizer, rates, topology

GRID_GAMMA = [0.0, 0.0, 0.1736, 0.5113, 0.3151]


def zipf_p(F=200, alpha=0.7):
    return topology.zipf(F, alpha)


def brute_force_pir(p, gamma, M, T, theta=0.0, n_max=10, k_max=10):
    """Independent re-evaluation of the uniform-placement objective."""
    F = len(p)
    best = (float(sum(p)), None, None)  # value, k, n
    for k in range(1, k_max + 1):
        fc = min(int(Fraction(M) * k), F)
        if fc == 0:
            continue
        mu = [Fraction(1, k)] * fc + [Fraction(0)] * (F - fc)
        for n in range(k + T, n_max + 1):
            R = rates.backhaul_pir(p, mu, gamma, n, T)
            D = rates.sbs_rate_pir(p, mu, gamma, n, T)
            val = float(R) + theta * float(D)
            if val < best[0] - 1e-12:
                best = (val, k, n)
    return best


# -- optimize_pir ------------------------------------------------------------

def test_pir_matches_brute_force_random_instances():
    import random
    rnd = random.Random(0)
    for _ in range(30):
        F = rnd.randint(1, 5)
        w = [rnd.random() + 0.01 for _ in range(F)]
        s = sum(w)
        p = sorted((x / s for x in w), reverse=True)
        B = rnd.randint(1, 5)
        gw = [rnd.random() for _ in range(B + 1)]
        gs = sum(gw)
        g = [x / gs for x in gw]
        M = Fraction(rnd.randint(1, 2 * F), 2)
        T = rnd.randint(1, 2)
        theta = rnd.choice([0.0, 0.3, 1.0])
        opt = optimizer.optimize_pir(p, g, M, T, theta=theta)
        val, k, n = brute_force_pir(p, g, M, T, theta, n_max=2 * B + 4,
                                    k_max=2 * B + 2)
        assert opt.value == pytest.approx(val, abs=1e-9)
        if k is not None:
            assert (opt.n_star, opt.k_star) == (n, k)


def test_pir_objective_matches_rate_formula():
    p = zipf_p(20, 0.7)
    g = GRID_GAMMA
    opt = optimizer.optimize_pir(p, g, 5, 1)
    fc = opt.files_cached
    mu = [opt.mu_star] * fc + [Fraction(0)] * (20 - fc)
    R = rates.backhaul_pir(p, mu, g, opt.n_star, 1)
    assert opt.value == pytest.approx(float(R), abs=1e-12)


def test_pir_grid_t1_checkpoints():
    """T = 1 on the reference grid coverage: (3, 2) for small caches, and
    from M = 119 caching the most popular files whole, matching the popular
    placement, is optimal."""
    p = zipf_p()
    for M, expect in [(10, (3, 2)), (50, (3, 2)), (118, (3, 2)),
                      (119, (2, 1)), (200, (2, 1))]:
        opt = optimizer.optimize_pir(p, GRID_GAMMA, M, 1)
        assert (opt.n_star, opt.k_star) == expect


def test_pir_grid_t2_t3_popular_placement_optimal():
    p = zipf_p()
    for T, expect_n in [(2, 3), (3, 4)]:
        for M in (10, 100, 200):
            opt = optimizer.optimize_pir(p, GRID_GAMMA, M, T)
            assert opt.k_star == 1 and opt.n_star == expect_n
            pop = optimizer.popular_pir(p, GRID_GAMMA, min(M, 200), T)
            assert opt.value == pytest.approx(pop.value, abs=1e-9)


def test_pir_no_caching_baseline():
    # M so small nothing fits: floor(M*k) = 0 for k up to the scan bound
    opt = optimizer.optimize_pir([1.0], [0.5, 0.5], Fraction(1, 100), 1)
    assert opt.k_star is None and opt.mu_star == 0 and opt.value == 1.0


def test_pir_caching_never_pays_when_no_coverage():
    # gamma puts all mass at b = 0: SBSs are never reachable
    opt = optimizer.optimize_pir(zipf_p(10), [1.0], 5, 1)
    assert opt.k_star is None and opt.value == pytest.approx(1.0)


def reference_optimize_pir(p, gamma, M, T, theta=0.0):
    """The per-candidate optimize_pir loop that the array scan replaced,
    kept as its reference: (Optimum, table of every candidate evaluated)."""
    g = rates._gamma_list(gamma)
    F = len(p)
    M = Fraction(M)
    N_max = max((b for b, x in enumerate(g) if x > 0), default=0)
    P = [0.0]
    for x in p:
        P.append(P[-1] + x)
    cdf, first_moment = [0.0], [0.0]
    for b, gb in enumerate(g):
        cdf.append(cdf[-1] + gb)
        first_moment.append(first_moment[-1] + b * gb)
    candidates = sorted((n, k) for k in range(1, max(2, 2 * N_max) + 1)
                        for n in range(k + T, N_max + k + T + 1))
    table, best = [], None
    for n, k in candidates:
        files_cached = min(M.numerator * k // M.denominator, F)
        if files_cached == 0:
            continue
        m = min(n, len(g))
        mbs = n * cdf[m] - first_moment[m]
        sbs = first_moment[m] + n * (cdf[-1] - cdf[m])
        factor = 1.0 / (n - T + 1 - k)
        obj = factor * (P[files_cached] * mbs + theta * sbs) + (P[F] - P[files_cached])
        table.append({"k": k, "n": n, "files_cached": files_cached, "value": obj})
        if best is None or obj < best["value"] - optimizer.SLACK:
            best = table[-1]
    baseline = float(P[F])
    if best is None or best["value"] >= baseline - optimizer.SLACK:
        return optimizer.Optimum(Fraction(0), None, None, 0, baseline), table
    return optimizer.Optimum(Fraction(1, best["k"]), best["k"], best["n"],
                             best["files_cached"], best["value"]), table


def optimum_key(opt):
    return opt.mu_star, opt.k_star, opt.n_star, opt.files_cached, repr(opt.value)


def random_gamma(rnd, N_max):
    """A coverage distribution reaching N_max: random, a point mass, or one
    with zero entries below N_max."""
    kind = rnd.choice(["random", "point", "sparse"])
    if kind == "point":
        return [0.0] * N_max + [1.0]
    w = [rnd.random() if kind == "random" or rnd.random() < 0.3 else 0.0
         for _ in range(N_max)] + [rnd.random() + 0.01]
    return [x / sum(w) for x in w]


def ppp(psi, r_u=60.0):
    return topology.ppp_gamma(topology.PppModel(psi / (math.pi * r_u ** 2), r_u))


def random_popularity(rnd):
    """Zipf, equal (so many candidates tie) or with repeated values."""
    F = rnd.randint(1, 60)
    kind = rnd.choice(["zipf", "equal", "repeated"])
    if kind == "zipf":
        return topology.zipf(F, rnd.choice([0.0, 0.4, 0.7, 1.3]))
    if kind == "equal":
        return [1.0 / F] * F
    w = sorted((rnd.choice([0.5, 0.25, rnd.random()]) for _ in range(F)), reverse=True)
    return [x / sum(w) for x in w]


GRID_GAMMAS = [GRID_GAMMA,
               topology.grid_gamma(topology.GridModel(200.0, 40.0, 60.0), 2000, 1),
               topology.grid_gamma(topology.GridModel(300.0, 30.0, 70.0), 2000, 2)]
# N_max 0, 5, 8, 12, 15, 19, 23
PPP_GAMMAS = [ppp(psi) for psi in (0.0, 0.01, 0.1, 0.5, 1.0, 2.0, 3.0)]


@pytest.mark.parametrize("seed", range(3))
def test_scan_equals_per_candidate_reference(seed):
    """Identical optimum, files cached and value bits as the per-candidate
    loop, on random, grid and PPP coverage with N_max from 0 to 25, theta
    in {0, 0.5, 1}, T in {1, 2, 3}, and cache sizes from nothing cached to
    everything cached whole.  Point-mass coverage and equal popularities
    give many candidates whose objectives are equal in exact arithmetic
    but round differently."""
    rnd = random.Random(seed)
    gammas = [random_gamma(rnd, N_max) for N_max in range(26) for _ in range(2)]
    gammas += GRID_GAMMAS + PPP_GAMMAS + [[0, 0, 0, 1.0], [0, 1.0], [1.0]]
    for g in gammas:
        p = random_popularity(rnd)
        for M in (0, Fraction(1, 3), 7, 10 ** 3, Fraction(rnd.randint(1, 40), rnd.randint(1, 9))):
            theta, T = rnd.choice([0.0, 0.5, 1.0]), rnd.choice([1, 2, 3])
            got = optimizer.optimize_pir(p, g, M, T, theta=theta)
            want, _ = reference_optimize_pir(p, g, M, T, theta)
            assert optimum_key(got) == optimum_key(want), (p, g, M, T, theta)


def row_key(row, axis):
    return row[axis], row["mu_star"], row["k_star"], row["n_star"], repr(row["value"])


@pytest.mark.parametrize("theta", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("T", [1, 2, 3])
def test_sweeps_equal_per_point_reference(theta, T):
    """One scan over every cache size, and one per density, give the rows
    of per-point reference calls."""
    p = zipf_p(60, 0.7)
    Ms = [0, Fraction(1, 3), 1, Fraction(5, 2), 7, 30, 59, 60, 61, 10 ** 3]
    for g in GRID_GAMMAS + [[0, 0, 0, 1.0], PPP_GAMMAS[3]]:
        want = [reference_optimize_pir(p, g, M, T, theta)[0] for M in Ms]
        assert [row_key(r, "M") for r in optimizer.sweep_cache_size(p, g, Ms, T, theta=theta)] \
            == [(M, *optimum_key(w)[:3], repr(w.value)) for M, w in zip(Ms, want)]
    lams = [i * 3e-5 for i in range(12)]
    want = [reference_optimize_pir(p, topology.ppp_gamma(topology.PppModel(lam, 60.0)),
                                   20, T, theta)[0] for lam in lams]
    assert [row_key(r, "lambda") for r in optimizer.sweep_density(p, 20, T, lams, 60.0,
                                                                   theta=theta)] \
        == [(lam, *optimum_key(w)[:3], repr(w.value)) for lam, w in zip(lams, want)]


def test_pir_tie_break_prefers_small_n_then_small_k():
    """Many (n, k) reach the optimum: rate 0 with a point mass at b = 3;
    with mass 0.3 at b = T = 1, every k = 1, n <= 14 gives 0.3 in exact
    arithmetic, which floats round to values on both sides of 0.3.  The
    reported optimum is the first one in (n, k) order, not the smallest
    float."""
    for gamma in ([0, 0, 0, 1.0], [0, 0.3] + [0] * 12 + [0.7]):
        opt = optimizer.optimize_pir([1.0], gamma, 10, 1)
        want, table = reference_optimize_pir([1.0], gamma, 10, 1)
        assert optimum_key(opt) == optimum_key(want)
        near = [(row["n"], row["k"]) for row in table
                if row["value"] < opt.value + optimizer.SLACK]
        assert len(near) > 1 and min(near) == (opt.n_star, opt.k_star) == (2, 1)


@pytest.mark.parametrize("call", [
    lambda T: optimizer.optimize_pir(zipf_p(20), [0, 0, 1.0], 5, T),
    lambda T: optimizer.popular_pir(zipf_p(20), [0, 0, 1.0], 5, T),
    lambda T: optimizer.sweep_cache_size(zipf_p(20), [0, 0, 1.0], [5], T),
    lambda T: optimizer.sweep_density(zipf_p(20), 5, T, [1e-4], 60.0),
    lambda T: rates._pir_factor(Fraction(1, 2), Fraction(1, 2), 4, T),
    lambda T: rates.backhaul_pir([1.0], [Fraction(1, 2)], [0, 0, 1.0], 4, T),
], ids=["optimize_pir", "popular_pir", "sweep_cache_size", "sweep_density",
        "_pir_factor", "backhaul_pir"])
def test_collusion_threshold_below_one_raises(call):
    """T = 0 or T = -1 once gave an optimum with n* < k* or rate 0."""
    call(1)
    for T in (0, -1):
        with pytest.raises(ValueError, match="threshold T must be at least 1"):
            call(T)


def test_optimize_weighted_bounds_theta():
    with pytest.raises(ValueError):
        optimizer.optimize_weighted([1.0], [0, 1.0], 1, 1, theta=1.5)


@pytest.mark.parametrize("theta", [-1.0, 1.5, 3.0, float("nan")])
def test_optimize_pir_and_sweeps_reject_theta_outside_unit_interval(theta):
    """The sweeps and the CLI call optimize_pir directly, so it is the one
    place theta is checked."""
    p = zipf_p(20, 0.7)
    for call in (lambda: optimizer.optimize_pir(p, GRID_GAMMA, 5, 1, theta=theta),
                 lambda: optimizer.sweep_cache_size(p, GRID_GAMMA, [5], 1, theta=theta),
                 lambda: optimizer.sweep_density(p, 5, 1, [1e-4], 60.0, theta=theta)):
        with pytest.raises(ValueError, match="theta must lie in"):
            call()


def test_weighted_theta_half_helps_from_m87():
    p = zipf_p()
    for M, expect_caching in [(86, False), (87, True), (150, True)]:
        opt = optimizer.optimize_weighted(p, GRID_GAMMA, M, 1, theta=0.5)
        assert (opt.k_star is not None) == expect_caching


def test_weighted_theta_07_never_helps():
    p = zipf_p()
    for M in (50, 100, 150, 200):
        opt = optimizer.optimize_weighted(p, GRID_GAMMA, M, 1, theta=0.7)
        assert opt.k_star is None and opt.value == pytest.approx(1.0)


# -- popular_pir -------------------------------------------------------------

def test_popular_pir_matches_formula():
    p = zipf_p(50, 0.7)
    pop = optimizer.popular_pir(p, GRID_GAMMA, 10, 1)
    mu = [Fraction(1)] * 10 + [Fraction(0)] * 40
    R = rates.backhaul_pir(p, mu, GRID_GAMMA, pop.n_star, 1)
    assert pop.value == pytest.approx(float(R), abs=1e-12)
    with pytest.raises(ValueError):
        optimizer.popular_pir(p, GRID_GAMMA, 51, 1)


def test_popular_pir_never_below_general_optimum():
    p = zipf_p(60, 0.7)
    for M in (5, 20, 60):
        pop = optimizer.popular_pir(p, GRID_GAMMA, M, 1)
        opt = optimizer.optimize_pir(p, GRID_GAMMA, M, 1)
        assert opt.value <= pop.value + 1e-9


# -- optimize_nopir ----------------------------------------------------------

def brute_force_nopir(p, gamma, M, k_set):
    F = len(p)
    best = None
    options = [Fraction(0)] + [Fraction(1, k) for k in k_set]
    for combo in itertools.product(options, repeat=F):
        if sum(combo) > Fraction(M):
            continue
        val = float(rates.backhaul_nopir(p, list(combo), gamma))
        if best is None or val < best[0] - 1e-12:
            best = (val, combo)
    return best


def test_nopir_dp_matches_brute_force_small():
    import random
    rnd = random.Random(1)
    k_set = [1, 2, 3]
    for _ in range(15):
        F = rnd.randint(1, 3)
        w = [rnd.random() + 0.05 for _ in range(F)]
        s = sum(w)
        p = sorted((x / s for x in w), reverse=True)
        B = rnd.randint(1, 3)
        gw = [rnd.random() for _ in range(B + 1)]
        gs = sum(gw)
        g = [x / gs for x in gw]
        M = Fraction(rnd.randint(1, 2 * F), 2)
        opt = optimizer.optimize_nopir(p, g, M, k_candidates=k_set)
        brute_val, _ = brute_force_nopir(p, g, M, k_set)
        assert opt.value == pytest.approx(brute_val, abs=1e-9)


def reference_optimize_nopir(p, gamma, M, k_candidates=None):
    """The no-privacy DP over the whole discretized budget, one int16
    choice row of budget + 1 cells per file: the implementation that the
    windowed DP replaced, kept as its reference."""
    g = rates._gamma_list(gamma)
    F = len(p)
    M = Fraction(M)
    N_max = max((b for b, x in enumerate(g) if x > 0), default=0)
    if k_candidates is None:
        k_candidates = list(range(1, max(2, 2 * N_max) + 1))
    k_candidates = sorted(set(k_candidates))
    unit = math.lcm(*k_candidates)
    budget = int(math.floor(M * unit))
    costs = [unit // k for k in k_candidates]
    miss = {k: sum(gb * max(0, k - b) for b, gb in enumerate(g)) / k
            for k in k_candidates}
    savings = [1.0 - miss[k] for k in k_candidates]
    dp = np.zeros(budget + 1)
    choice = np.zeros((F, budget + 1), dtype=np.int16)
    for i in range(F):
        best_val = dp.copy()
        best_choice = np.zeros(budget + 1, dtype=np.int16)
        for ci, (cost, save) in enumerate(zip(costs, savings), start=1):
            if cost > budget or save <= 0:
                continue
            cand = dp[:-cost] + p[i] * save
            upd = cand > best_val[cost:] + optimizer.SLACK
            best_val[cost:][upd] = cand[upd]
            best_choice[cost:][upd] = ci
        dp = best_val
        choice[i] = best_choice
    b = budget
    mu = [Fraction(0)] * F
    ks = [None] * F
    for i in range(F - 1, -1, -1):
        ci = int(choice[i][b])
        if ci:
            k = k_candidates[ci - 1]
            mu[i] = Fraction(1, k)
            ks[i] = k
            b -= costs[ci - 1]
    value = float(sum(p)) - float(dp[budget])
    return optimizer.Optimum(mu, ks, None, sum(1 for m in mu if m), value)


def random_nopir_instance(rnd):
    """Popularity (sometimes all equal, sometimes with repeated values),
    gamma (sometimes with zero and point masses), a budget from 0 to above
    the library, and the default or a custom candidate set."""
    F = rnd.randint(1, 12)
    if rnd.random() < 0.3:
        p = [1.0 / F] * F
    else:
        w = [rnd.choice([rnd.random(), 0.5, 0.25]) for _ in range(F)]
        p = sorted((x / sum(w) for x in w), reverse=True)
    gw = [rnd.choice([rnd.random(), 0.0, 1.0]) for _ in range(rnd.randint(1, 6))]
    gw[-1] = gw[-1] or 1.0
    g = [x / sum(gw) for x in gw]
    M = Fraction(rnd.randint(0, 3 * F + 2), rnd.choice([1, 2, 3, 7]))
    k_set = None if rnd.random() < 0.4 else rnd.sample(range(1, 9), rnd.randint(1, 5))
    return p, g, M, k_set


def divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


@pytest.mark.parametrize("seed", range(4))
def test_nopir_windowed_dp_equals_full_budget_reference(seed):
    rnd = random.Random(seed)
    cases = [random_nopir_instance(rnd) for _ in range(150)]
    cases += [
        (zipf_p(), GRID_GAMMA, 100, None),                 # the analytics workload
        (zipf_p(30, 0.0), GRID_GAMMA, Fraction(7, 3), None),  # equal popularities
        (zipf_p(10), GRID_GAMMA, 0, None),                 # M = 0
        (zipf_p(10), GRID_GAMMA, 25, [2, 3, 5]),           # M above the library
        (zipf_p(10), [0.6, 0.4], 3, [1, 2]),               # no saving at all
        # 256 candidates: the last one, k = 1081080 at cost 1, is the only fit
        ([1.0], [0, 0, 1.0], Fraction(1, 1081080), divisors(1081080)),
    ]
    for p, g, M, k_set in cases:
        got = optimizer.optimize_nopir(p, g, M, k_candidates=k_set)
        want = reference_optimize_nopir(p, g, M, k_candidates=k_set)
        assert (got.mu_star, got.k_star, got.files_cached, got.value) == \
            (want.mu_star, want.k_star, want.files_cached, want.value), (p, g, M, k_set)


def test_nopir_zero_rate_when_budget_ample():
    """M = 100, F = 200 with >= 2 SBSs always in range: spreading every
    file at k = 2 fits the budget and zeroes the rate."""
    p = zipf_p(200, 0.7)
    opt = optimizer.optimize_nopir(p, GRID_GAMMA, 100)
    assert opt.value == pytest.approx(0.0, abs=1e-12)
    assert all(k == 2 for k in opt.k_star)


def test_nopir_respects_budget():
    p = zipf_p(10, 0.7)
    for M in (Fraction(1, 2), 1, Fraction(5, 2)):
        opt = optimizer.optimize_nopir(p, GRID_GAMMA, M)
        assert sum(opt.mu_star) <= Fraction(M)


@pytest.mark.parametrize("k_set,bad", [([0, 1], "k = 0"), ([2, -1], "k = -1"),
                                       ([1.5], "k = 1.5"), ([], "at least one")])
def test_nopir_rejects_bad_candidates(k_set, bad):
    """k = 0 once raised ZeroDivisionError, and an empty set cached nothing."""
    with pytest.raises(ValueError, match=bad):
        optimizer.optimize_nopir(zipf_p(10), GRID_GAMMA, 5, k_candidates=k_set)


def test_nopir_budget_overflow_raises():
    with pytest.raises(ValueError):
        optimizer.optimize_nopir([1.0], [0, 1.0], 10 ** 9,
                                 k_candidates=[2, 3], max_budget_units=100)


# -- sweeps ------------------------------------------------------------------

@pytest.mark.parametrize("optimize,M", [
    (lambda M: optimizer.optimize_pir(zipf_p(), GRID_GAMMA, M, 1), -1),
    (lambda M: optimizer.optimize_nopir(zipf_p(), GRID_GAMMA, M), -1),
    (lambda M: optimizer.popular_pir(zipf_p(), GRID_GAMMA, M, 1), -2),
], ids=["optimize_pir", "optimize_nopir", "popular_pir"])
def test_optimizers_reject_negative_cache_size(optimize, M):
    optimize(0)
    with pytest.raises(ValueError):
        optimize(M)


def test_sweep_cache_size_rows():
    p = zipf_p(20, 0.7)
    rows = optimizer.sweep_cache_size(p, GRID_GAMMA, [5, 10, 20], 1)
    assert [r["M"] for r in rows] == [5, 10, 20]
    for r in rows:
        assert r["value"] <= 1.0 + 1e-12


def test_sweep_density_ppp_transitions():
    """PPP sweep at M = 50, T = 1, r_u = 60 m: no caching at very low
    density, then (4,1), (3,1), and (2,1) as density grows."""
    p = zipf_p()
    lams = [round(1e-5 * i, 10) for i in range(1, 33)]
    rows = optimizer.sweep_density(p, 50, 1, lams, 60.0)
    by_lam = {round(r["lambda"] * 1e5): (r["n_star"], r["k_star"])
              for r in rows}
    assert by_lam[8] == (None, None)
    assert by_lam[9] == (4, 1)
    assert by_lam[10] == (3, 1) and by_lam[12] == (3, 1)
    assert by_lam[13] == (2, 1) and by_lam[32] == (2, 1)
    trans = optimizer.transition_points(rows, "lambda")
    keys = [(r["n_star"], r["k_star"]) for r in trans]
    assert keys == [(None, None), (4, 1), (3, 1), (2, 1)]


def test_transition_points_collapses_runs():
    rows = [{"n_star": 3, "k_star": 2, "x": 1},
            {"n_star": 3, "k_star": 2, "x": 2},
            {"n_star": 2, "k_star": 1, "x": 3}]
    out = optimizer.transition_points(rows, "x")
    assert [r["x"] for r in out] == [1, 3]


# -- uniform placement is optimal under PIR ----------------------------------

def test_uniform_placement_optimal_brute_force():
    """Exhaustive check on a small instance: no non-uniform placement beats
    the uniform-placement optimum for the PIR objective."""
    F, N_max, T = 3, 4, 1
    p = topology.zipf(F, 0.7)
    g = [0.1, 0.2, 0.3, 0.2, 0.2]
    for M in (Fraction(1), Fraction(3, 2), Fraction(2), Fraction(3)):
        opt = optimizer.optimize_pir(p, g, M, T)
        best = float(sum(p))
        options = [Fraction(0)] + [Fraction(1, k) for k in range(1, 2 * N_max + 1)]
        for combo in itertools.product(options, repeat=F):
            if sum(combo) > M:
                continue
            cached = [m for m in combo if m != 0]
            if not cached:
                continue
            for n in range(max(c.denominator for c in cached) + T,
                           2 * N_max + T + 1):
                try:
                    val = float(rates.backhaul_pir(p, list(combo), g, n, T))
                except ValueError:
                    continue
                best = min(best, val)
        assert opt.value <= best + 1e-9
