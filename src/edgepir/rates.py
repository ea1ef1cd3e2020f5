"""Closed-form average rates for coded caching with and without PIR.

All rates are normalized by the file size (beta * L bits).  ``gamma`` is
the distribution of the number b of in-range SBSs; placements are vectors
mu with mu_i in {0} union {1/k}.  Arithmetic is carried out with whatever
number types are supplied, so exact Fractions flow through untouched.

Conventions:
* a file with mu_i = 0 is not cached and costs a full file from the MBS;
* gamma mass at b > n behaves like b = n (extra SBSs beyond the n protocol
  coordinates are not contacted): the tail above n is absorbed at b = n.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence


def _gamma_list(gamma) -> list:
    if hasattr(gamma, "gamma"):
        return list(gamma.gamma)
    return list(gamma)


def _check_mu(mu) -> tuple[list[Fraction], list[int]]:
    """mu as Fractions, each checked to be 0 or 1/k, and each entry's k (0
    where mu_i = 0), in one pass over mu."""
    out, ks = [], []
    for m in mu:
        f = m if isinstance(m, Fraction) else Fraction(m)
        num, k = f.as_integer_ratio()
        if num not in (0, 1):
            raise ValueError(f"placement entries must be 0 or 1/k, got {m}")
        ks.append(k if num else 0)
        out.append(f)
    return out, ks


def _check_placement(p: Sequence, mu: Sequence) -> tuple[list[Fraction], list[int]]:
    """mu checked by _check_mu, with one entry per popularity value."""
    if len(p) != len(mu):
        raise ValueError(f"placement has {len(mu)} entries for {len(p)} files")
    return _check_mu(mu)


def backhaul_nopir(p: Sequence, mu: Sequence, gamma) -> object:
    """Average MBS rate without privacy: in-range SBSs each contribute one
    of the k_i coded symbols, the MBS supplies the max(0, k_i - b) missing
    ones; uncached files are fetched whole."""
    g = _gamma_list(gamma)
    mu, _ = _check_placement(p, mu)
    total = 0
    for pi, mi in zip(p, mu):
        if mi == 0:
            total += pi
            continue
        k = mi.denominator
        total += pi * sum(gb * max(0, k - b) for b, gb in enumerate(g)) * mi
    return total


def backhaul_nopir_popular(p: Sequence, M: int, gamma) -> object:
    """No-privacy rate when the M most popular files are replicated whole
    in every SBS: a cached file costs a full file only with no SBS in range."""
    g = _gamma_list(gamma)
    if M > len(p):
        raise ValueError("cannot cache more files than exist")
    g0 = g[0] if g else 0
    return g0 * sum(p[:M]) + sum(p[M:])


def _cached_extremes(ks: list[int]):
    """(mu_min, mu_max) over the cached entries 1/k, i.e. (1/max k, 1/min k),
    from each entry's k (0 where uncached), or None when nothing is cached."""
    ks = [k for k in ks if k]
    return (Fraction(1, max(ks)), Fraction(1, min(ks))) if ks else None


def _check_T(T) -> None:
    if T < 1:
        raise ValueError(f"collusion threshold T must be at least 1, got {T}")


def _pir_factor(mu_min: Fraction, mu_max: Fraction, n: int, T: int):
    _check_T(T)
    den = mu_min * (n - T + 1) - 1
    if den <= 0:
        raise ValueError(
            f"infeasible protocol: mu_min*(n-T+1)-1 = {den} must be positive")
    return mu_max / den


def expected_mbs_coords(gamma, n: int) -> object:
    """E[(n - b)^+]: expected protocol coordinates the MBS must answer."""
    return sum(gb * (n - min(b, n)) for b, gb in enumerate(_gamma_list(gamma)))


def backhaul_pir(p: Sequence, mu: Sequence, gamma, n: int, T: int) -> object:
    """Average MBS rate with PIR: the MBS answers the n - b query matrices
    that in-range SBSs cannot, each answer d*L*mu_max bits; uncached files
    are fetched whole."""
    g = _gamma_list(gamma)
    _, ks = _check_placement(p, mu)
    extremes = _cached_extremes(ks)
    if extremes is None:
        return sum(p)
    factor = _pir_factor(*extremes, n, T)
    # float * Fraction is float * float(Fraction): convert once, same bits
    float_factor = float(factor)
    mbs_coords = expected_mbs_coords(g, n)
    total = 0
    for pi, k in zip(p, ks):
        if not k:
            total += pi
        elif type(pi) is float:
            total += pi * float_factor * mbs_coords
        else:
            total += pi * factor * mbs_coords
    return total


def sbs_rate_pir(p: Sequence, mu: Sequence, gamma, n: int, T: int) -> object:
    """Average SBS download rate with PIR.  Privacy forces queries to all
    min(b, n) in-range SBSs regardless of which file is requested, so the
    rate does not depend on the popularity profile."""
    g = _gamma_list(gamma)
    _, ks = _check_placement(p, mu)
    extremes = _cached_extremes(ks)
    if extremes is None:
        return 0
    factor = _pir_factor(*extremes, n, T)
    return factor * sum(gb * min(b, n) for b, gb in enumerate(g))


def weighted_rate(R_pir, D_pir, theta) -> object:
    """C = R + theta * D, theta in [0, 1] weighting SBS traffic against the
    backhaul bottleneck."""
    if not 0 <= theta <= 1:
        raise ValueError("theta must lie in [0, 1]")
    return R_pir + theta * D_pir
