"""Content-placement and protocol-parameter optimization.

With PIR, uniform placement (one cached fraction mu = 1/k shared by the
min(M*k, F) most popular files) is optimal, so the PIR optimizers scan the
(n, k) grid exhaustively.  One array scan evaluates the objective at every
cache size and every candidate (n, k), k <= max(2, 2*N_max) and
k + T <= n <= N_max + k + T, in float64 with the same operations, in the
same order, as a per-candidate loop; each cache size then walks its
candidates in (n, k) order and moves to one only when it is below the best
so far by more than SLACK.  So ties go to smaller n first, then smaller k
(larger mu), and sweep transition tables are reproducible; an argmin would
pick differently among values within SLACK of each other.  Without PIR the
per-file placement matters and is solved by a knapsack-style dynamic
program over a discretized cache budget.  All optimizers compare against
the no-caching baseline (rate 1) and report mu = 0 when caching never
helps.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import floor, lcm
from typing import Optional, Sequence

import numpy as np

from . import rates, topology

SLACK = 1e-12


@dataclass
class Optimum:
    mu_star: object          # Fraction (uniform scans) or list (per-file DP)
    k_star: object           # int, None (no caching), or list
    n_star: Optional[int]
    files_cached: int
    value: float


def _check_budget(M) -> Fraction:
    M = Fraction(M)
    if M < 0:
        raise ValueError(f"cache size M must be non-negative, got {M}")
    return M


def _scan(p: Sequence[float], gamma, M_values: Sequence, T: int,
          theta: float) -> list[Optimum]:
    """The uniform-placement optimum of R + theta*D at each cache size.

    The objective factor*(P[fc]*E[(n-b)^+] + theta*E[min(b, n)]) + (P[F] - P[fc]),
    factor = 1/(n - T + 1 - k), fc = min(floor(M*k), F) and P the prefix
    sums of p, is one (cache size x candidate) float64 array; candidates
    with fc = 0 read inf, so they are never taken."""
    if not 0 <= theta <= 1:
        raise ValueError("theta must lie in [0, 1]")
    rates._check_T(T)
    g = rates._gamma_list(gamma)
    F = len(p)
    M_values = [_check_budget(M) for M in M_values]
    N_max = max((b for b, x in enumerate(g) if x > 0), default=0)
    K = max(2, 2 * N_max)
    k, j = np.meshgrid(np.arange(1, K + 1), np.arange(1, N_max + 2))  # j = n-T+1-k
    k, j = k.ravel(), j.ravel()
    order = np.lexsort((k, k + j))  # (n, k) order
    k, j = k[order], j[order]
    n = k + j + T - 1
    # np.cumsum adds left to right: a loop's prefix sums, bit for bit
    cdf = np.cumsum([0.0, *g], dtype=float)
    first_moment = np.cumsum([0.0, *(b * gb for b, gb in enumerate(g))], dtype=float)
    m = np.minimum(n, len(g))
    mbs = n * cdf[m] - first_moment[m]                  # E[(n - b)^+]
    sbs = first_moment[m] + n * (cdf[-1] - cdf[m])      # E[min(b, n)]
    fc = np.array([[min(M.numerator * c // M.denominator, F) for c in range(1, K + 1)]
                   for M in M_values], dtype=np.int64).reshape(-1, K)[:, k - 1]
    P = np.cumsum([0.0, *p], dtype=float)
    obj = (1.0 / j) * (P[fc] * mbs + theta * sbs) + (P[F] - P[fc])
    obj[fc == 0] = np.inf
    baseline = float(P[F])  # no caching: full file from the MBS every time
    k, n, out = k.tolist(), n.tolist(), []
    for cached, row in zip(fc.tolist(), obj.tolist()):
        best, at = np.inf, None
        for i, value in enumerate(row):
            if value < best - SLACK:
                best, at = value, i
        if at is None or best >= baseline - SLACK:
            out.append(Optimum(Fraction(0), None, None, 0, baseline))
        else:
            out.append(Optimum(Fraction(1, k[at]), k[at], n[at], cached[at], best))
    return out


def optimize_pir(p: Sequence[float], gamma, M, T: int,
                 theta: float = 0.0) -> Optimum:
    """Exhaustive (n, k) scan of the uniform-placement objective
    R + theta*D, theta in [0, 1]; theta = 0 optimizes the backhaul rate
    alone."""
    return _scan(p, gamma, [M], T, theta)[0]


def optimize_weighted(p: Sequence[float], gamma, M, T: int, theta: float,
                      **kwargs) -> Optimum:
    """Minimize the weighted rate C = R + theta*D over uniform placements."""
    return optimize_pir(p, gamma, M, T, theta=theta, **kwargs)


def popular_pir(p: Sequence[float], gamma, M: int, T: int) -> Optimum:
    """PIR rate when the M most popular files are cached whole (k = 1),
    minimized over the number of contacted coordinates n."""
    rates._check_T(T)
    g = rates._gamma_list(gamma)
    F = len(p)
    if not 0 <= M <= F:
        raise ValueError(f"cannot cache {M} whole files of {F}")
    N_max = max((b for b, x in enumerate(g) if x > 0), default=0)
    P = np.cumsum([0.0, *p], dtype=float).tolist()
    best, n_star = np.inf, None
    for n in range(T + 1, N_max + T + 2):
        obj = P[M] * rates.expected_mbs_coords(g, n) / (n - T) + (P[F] - P[M])
        if obj < best - SLACK:
            best, n_star = obj, n
    return Optimum(Fraction(1), 1, n_star, M, best)


def optimize_nopir(p: Sequence[float], gamma, M,
                   k_candidates: Optional[Sequence[int]] = None,
                   max_budget_units: int = 2_000_000) -> Optimum:
    """Per-file placement without privacy, by dynamic programming.

    The cache budget is discretized in units of 1/lcm(k_candidates); each
    file independently picks mu_i in {0} union {1/k}.  The default
    candidate set {1, ..., 2*N_max} suffices because gamma_b = 0 above
    N_max makes every k >= N_max equally effective per unit of budget, so
    spreading thinner than that is dominated.

    With c_max the largest cost of a usable choice, the DP values after
    file i are flat above (i+1)*c_max (every choice fits there), and the
    backtrack reads file i's choices only at budget cells at or above
    budget - (F-1-i)*c_max.  So file i is computed only on that window,
    with the flat tail read from the window's top cell, and its choices
    are stored for that window alone, as uint8 rows when there are fewer
    than 256 candidates.  Each window cell sees the same float operations
    and the same `cand > best + SLACK` rule, in the same item order, as a
    DP over the whole budget, so the result is bit-identical to it.
    """
    g = rates._gamma_list(gamma)
    F = len(p)
    M = _check_budget(M)
    N_max = max((b for b, x in enumerate(g) if x > 0), default=0)
    if k_candidates is None:
        k_candidates = list(range(1, max(2, 2 * N_max) + 1))
    k_candidates = list(k_candidates)
    for k in k_candidates:
        if not isinstance(k, (int, np.integer)) or k < 1:
            raise ValueError(f"candidate k = {k!r} is not a positive integer")
    if not k_candidates:
        raise ValueError("need at least one candidate k")
    k_candidates = sorted(set(k_candidates))
    unit = lcm(*k_candidates)
    budget = int(floor(M * unit))
    if budget > max_budget_units:
        raise ValueError(
            f"budget discretization needs {budget} units "
            f"(> {max_budget_units}); pass a smaller k_candidates set")
    costs = [unit // k for k in k_candidates]
    # saving of caching file i at 1/k, relative to fetching it whole
    miss = {k: sum(gb * max(0, k - b) for b, gb in enumerate(g)) / k
            for k in k_candidates}
    savings = [1.0 - miss[k] for k in k_candidates]
    items = [(ci, cost, save) for ci, (cost, save) in enumerate(zip(costs, savings), start=1)
             if cost <= budget and save > 0]
    c_max = max((cost for _, cost, _ in items), default=0)
    dtype = np.min_scalar_type(len(k_candidates))
    prev, cur = np.zeros(budget + 1), np.zeros(budget + 1)
    cand, limit = np.empty(budget + 1), np.empty(budget + 1)
    upd = np.empty(budget + 1, dtype=bool)
    rows = []  # (lo, hi, choice index per cell of [lo, hi]) per file
    top = 0    # prev is exact on cells <= top and flat above it
    for i in range(F):
        hi = min(budget, (i + 1) * c_max)
        lo = min(max(0, budget - (F - 1 - i) * c_max), hi)
        prev[top + 1:hi + 1] = prev[top]
        cur[lo:hi + 1] = prev[lo:hi + 1]
        row = np.zeros(hi + 1 - lo, dtype=dtype)
        gain = p[i]
        for ci, cost, save in items:
            a = max(lo, cost)
            if a > hi:
                continue
            width = hi + 1 - a
            c, lim, u = cand[:width], limit[:width], upd[:width]
            np.add(prev[a - cost:hi + 1 - cost], gain * save, out=c)
            np.add(cur[a:hi + 1], SLACK, out=lim)
            np.greater(c, lim, out=u)
            np.copyto(cur[a:hi + 1], c, where=u)
            np.copyto(row[a - lo:], ci, where=u)
        rows.append((lo, hi, row))
        prev, cur, top = cur, prev, hi
    b = budget
    mu = [Fraction(0)] * F
    ks: list[Optional[int]] = [None] * F
    for i in range(F - 1, -1, -1):
        lo, hi, row = rows[i]
        ci = int(row[min(b, hi) - lo])
        if ci:
            k = k_candidates[ci - 1]
            mu[i] = Fraction(1, k)
            ks[i] = k
            b -= costs[ci - 1]
    value = float(sum(p)) - float(prev[min(budget, top)])
    cached = sum(1 for m in mu if m)
    return Optimum(mu, ks, None, cached, value)


def sweep_cache_size(p: Sequence[float], gamma, M_values: Sequence, T: int,
                     theta: float = 0.0) -> list[dict]:
    """One uniform-placement optimum per cache size M, from one scan."""
    return [{"M": M, "mu_star": opt.mu_star, "k_star": opt.k_star,
             "n_star": opt.n_star, "value": opt.value}
            for M, opt in zip(M_values, _scan(p, gamma, M_values, T, theta))]


def sweep_density(p: Sequence[float], M, T: int, lam_values: Sequence[float],
                  r_u: float, theta: float = 0.0) -> list[dict]:
    """PPP density sweep: one optimum per SBS density lambda."""
    out = []
    for lam in lam_values:
        gamma = topology.ppp_gamma(topology.PppModel(lam, r_u))
        [opt] = _scan(p, gamma, [M], T, theta)
        out.append({"lambda": lam, "mu_star": opt.mu_star, "k_star": opt.k_star,
                    "n_star": opt.n_star, "value": opt.value})
    return out


def transition_points(rows: list[dict], axis: str) -> list[dict]:
    """Collapse a sweep table to the rows where (n*, k*) changes."""
    out = []
    prev = object()
    for row in rows:
        key = (row["n_star"], row["k_star"])
        if key != prev:
            out.append(row)
            prev = key
    return out
