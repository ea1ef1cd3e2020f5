"""Content-placement and protocol-parameter optimization.

With PIR, uniform placement (one cached fraction mu = 1/k shared by the
min(M*k, F) most popular files) is optimal, so the PIR optimizers scan the
(k, n) grid exhaustively.  Without PIR the per-file placement matters and
is solved by a knapsack-style dynamic program over a discretized cache
budget.  All optimizers compare against the no-caching baseline (rate 1)
and report mu = 0 when caching never helps.

Tie-breaking is deterministic: smaller n first, then larger mu (smaller k),
so sweep transition tables are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    table: list = field(default_factory=list, repr=False)


def _check_budget(M) -> Fraction:
    M = Fraction(M)
    if M < 0:
        raise ValueError(f"cache size M must be non-negative, got {M}")
    return M


def _prefix_sums(p: Sequence[float]) -> list[float]:
    out = [0.0]
    for x in p:
        out.append(out[-1] + x)
    return out


class _GammaSums:
    """Prefix sums of gamma enabling O(1) evaluation of the expected MBS
    and SBS coordinate counts E[n - min(b, n)] and E[min(b, n)]."""

    def __init__(self, gamma: list):
        self.cdf = [0.0]
        self.first_moment = [0.0]
        for b, gb in enumerate(gamma):
            self.cdf.append(self.cdf[-1] + gb)
            self.first_moment.append(self.first_moment[-1] + b * gb)
        self.total = self.cdf[-1]

    def mbs(self, n: int) -> float:
        """E[(n - b)^+] = sum_{b < n} gamma_b (n - b)."""
        m = min(n, len(self.cdf) - 1)
        return n * self.cdf[m] - self.first_moment[m]

    def sbs(self, n: int) -> float:
        """E[min(b, n)]."""
        m = min(n, len(self.cdf) - 1)
        return self.first_moment[m] + n * (self.total - self.cdf[m])


def optimize_pir(p: Sequence[float], gamma, M, T: int,
                 k_candidates: Optional[Sequence[int]] = None,
                 theta: float = 0.0) -> Optimum:
    """Exhaustive (k, n) scan of the uniform-placement objective
    R + theta*D, theta in [0, 1]; theta = 0 optimizes the backhaul rate
    alone."""
    if not 0 <= theta <= 1:
        raise ValueError("theta must lie in [0, 1]")
    g = rates._gamma_list(gamma)
    F = len(p)
    M = _check_budget(M)
    N_max = max((b for b, x in enumerate(g) if x > 0), default=0)
    if k_candidates is None:
        k_candidates = range(1, max(2, 2 * N_max) + 1)
    P = _prefix_sums(p)
    table = []
    best = None
    candidates = []
    for k in k_candidates:
        for n in range(k + T, N_max + k + T + 1):
            candidates.append((n, k))
    sums = _GammaSums(g)
    cached = {k: min(M.numerator * k // M.denominator, F) for _, k in candidates}
    mbs = {n: sums.mbs(n) for n, _ in candidates}
    sbs = {n: sums.sbs(n) for n, _ in candidates}
    for n, k in sorted(candidates):
        files_cached = cached[k]
        if files_cached == 0:
            continue
        factor = 1.0 / (n - T + 1 - k)
        obj = factor * (P[files_cached] * mbs[n]
                        + theta * sbs[n]) + (P[F] - P[files_cached])
        table.append({"k": k, "n": n, "files_cached": files_cached, "value": obj})
        if best is None or obj < best["value"] - SLACK:
            best = table[-1]
    baseline = float(P[F])  # no caching: full file from the MBS every time
    if best is None or best["value"] >= baseline - SLACK:
        return Optimum(Fraction(0), None, None, 0, baseline, table)
    return Optimum(Fraction(1, best["k"]), best["k"], best["n"],
                   best["files_cached"], best["value"], table)


def optimize_weighted(p: Sequence[float], gamma, M, T: int, theta: float,
                      **kwargs) -> Optimum:
    """Minimize the weighted rate C = R + theta*D over uniform placements."""
    return optimize_pir(p, gamma, M, T, theta=theta, **kwargs)


def popular_pir(p: Sequence[float], gamma, M: int, T: int) -> Optimum:
    """PIR rate when the M most popular files are cached whole (k = 1),
    minimized over the number of contacted coordinates n."""
    g = rates._gamma_list(gamma)
    F = len(p)
    if not 0 <= M <= F:
        raise ValueError(f"cannot cache {M} whole files of {F}")
    N_max = max((b for b, x in enumerate(g) if x > 0), default=0)
    P = _prefix_sums(p)
    table = []
    best = None
    for n in range(T + 1, N_max + T + 2):
        obj = P[M] * rates.expected_mbs_coords(g, n) / (n - T) + (P[F] - P[M])
        table.append({"k": 1, "n": n, "files_cached": M, "value": obj})
        if best is None or obj < best["value"] - SLACK:
            best = table[-1]
    return Optimum(Fraction(1), 1, best["n"], M, best["value"], table)


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
    """One uniform-placement optimum per cache size M."""
    out = []
    for M in M_values:
        opt = optimize_pir(p, gamma, M, T, theta=theta)
        out.append({"M": M, "mu_star": opt.mu_star, "k_star": opt.k_star,
                    "n_star": opt.n_star, "value": opt.value})
    return out


def sweep_density(p: Sequence[float], M, T: int, lam_values: Sequence[float],
                  r_u: float, theta: float = 0.0) -> list[dict]:
    """PPP density sweep: one optimum per SBS density lambda."""
    out = []
    for lam in lam_values:
        gamma = topology.ppp_gamma(topology.PppModel(lam, r_u))
        opt = optimize_pir(p, gamma, M, T, theta=theta)
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
