"""Coverage-distribution and popularity models.

Produces the vector gamma = (gamma_0, ..., gamma_Nmax) giving the
probability that a user is within communication range of exactly b SBSs,
for two deployment models:

* a regular square grid of SBSs inside a macro-cell disc of radius D, with
  users uniform over the disc (gamma estimated by Monte-Carlo), and
* SBSs placed by a Poisson point process of density lambda, where the
  in-range count is Poisson with mean psi = lambda * pi * r_u^2.

Also provides the Zipf popularity model and coverage sampling for the
network simulator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass
class CoverageDistribution:
    gamma: list

    def __post_init__(self):
        g = [float(x) for x in self.gamma]
        if any(x < 0 for x in g):
            raise ValueError("gamma entries must be non-negative")
        if abs(sum(g) - 1.0) > 1e-9:
            raise ValueError("gamma must sum to 1")
        self.gamma = g

    @property
    def N_max(self) -> int:
        return max((b for b, x in enumerate(self.gamma) if x > 0), default=0)


def zipf(F: int, alpha: float) -> list[float]:
    """Popularity p_i proportional to i^(-alpha), i = 1..F."""
    if F < 1:
        raise ValueError("need at least one file")
    if alpha < 0:
        raise ValueError("skewness must be non-negative")
    w = [i ** -alpha for i in range(1, F + 1)]
    s = sum(w)
    return [x / s for x in w]


@dataclass
class GridModel:
    D: float        # macro-cell radius (m)
    spacing: float  # inter-SBS distance (m)
    r: float        # SBS communication radius (m)
    phi: float = 1.0  # user density; cancels in gamma, kept for fidelity

    def sbs_positions(self) -> np.ndarray:
        """Square-lattice points covering the disc plus a margin of r, so
        users near the cell edge still see the SBSs just outside it."""
        reach = self.D + self.r
        m = int(math.ceil(reach / self.spacing))
        xs = np.arange(-m, m + 1) * self.spacing
        gx, gy = np.meshgrid(xs, xs)
        pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
        keep = np.hypot(pts[:, 0], pts[:, 1]) <= reach + 1e-9
        return pts[keep]

    def sbs_count_in_cell(self) -> int:
        pts = self.sbs_positions()
        inside = np.hypot(pts[:, 0], pts[:, 1]) <= self.D + 1e-9
        return int(inside.sum())


def spacing_for_count(D: float, target: int) -> float:
    """Search the lattice spacing whose point count inside the disc of
    radius D is closest to ``target`` (exact when attainable)."""
    best = None
    for s in np.linspace(D / math.sqrt(target) * 0.5, D / math.sqrt(target) * 2.0, 4001):
        m = int(math.ceil(D / s))
        xs = np.arange(-m, m + 1) * s
        gx, gy = np.meshgrid(xs, xs)
        count = int((gx ** 2 + gy ** 2 <= D ** 2 + 1e-9).sum())
        diff = abs(count - target)
        if best is None or diff < best[0]:
            best = (diff, s)
            if diff == 0:
                break
    return best[1]


def grid_gamma(model: GridModel, mc_samples: int = 1000000,
               seed: int = 0) -> CoverageDistribution:
    """Monte-Carlo estimate of the in-range SBS count distribution for a
    user uniform over the macro-cell disc."""
    if mc_samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    pts = model.sbs_positions()
    counts = np.zeros(0, dtype=np.int64)
    max_b = 0
    hist: dict[int, int] = {}
    chunk = 200000
    done = 0
    while done < mc_samples:
        size = min(chunk, mc_samples - done)
        rad = model.D * np.sqrt(rng.random(size))
        ang = 2 * np.pi * rng.random(size)
        ux, uy = rad * np.cos(ang), rad * np.sin(ang)
        if len(pts):
            d2 = (ux[:, None] - pts[None, :, 0]) ** 2 + (uy[:, None] - pts[None, :, 1]) ** 2
            b = (d2 <= model.r ** 2 + 1e-9).sum(axis=1)
        else:
            b = np.zeros(size, dtype=np.int64)
        for val, cnt in zip(*np.unique(b, return_counts=True)):
            hist[int(val)] = hist.get(int(val), 0) + int(cnt)
        done += size
    max_b = max(hist)
    gamma = [hist.get(b, 0) / mc_samples for b in range(max_b + 1)]
    return CoverageDistribution(gamma)


@dataclass
class PppModel:
    lam: float  # SBS density per m^2
    r_u: float  # user connection radius (m)

    @property
    def psi(self) -> float:
        return self.lam * math.pi * self.r_u ** 2


def ppp_gamma(model: PppModel, cutoff: int | None = None) -> CoverageDistribution:
    """Poisson pmf with mean psi, truncated where the tail mass drops below
    1e-9 and renormalized."""
    psi = model.psi
    if psi < 0:
        raise ValueError("psi must be non-negative")

    def pmf(b: int) -> float:  # log space: psi^b and b! overflow from psi = 89
        return math.exp(b * math.log(psi) - psi - math.lgamma(b + 1)) if psi else float(b == 0)

    if cutoff is None:
        cutoff = 1
        while pmf(cutoff) > 1e-12 or cutoff < psi:
            cutoff += 1
            if cutoff > 10000:
                break
    probs = [pmf(b) for b in range(cutoff + 1)]
    tail = 1.0 - sum(probs)
    if tail > 1e-9:
        raise ValueError("cutoff leaves too much tail mass")
    s = sum(probs)
    return CoverageDistribution([x / s for x in probs])


def sample_coverage(model, rng) -> tuple[tuple[float, float], list[int]]:
    """Sample a user position and the indices of in-range SBSs.

    For grid models the SBS lattice is fixed and the user is uniform in the
    disc.  For PPP models the SBSs are redrawn each call in a square window
    extending r_u beyond the user's possible positions.
    """
    if isinstance(model, GridModel):
        pts = model.sbs_positions()
        rad = model.D * math.sqrt(rng.random())
        ang = 2 * math.pi * rng.random()
        ux, uy = rad * math.cos(ang), rad * math.sin(ang)
        d2 = (pts[:, 0] - ux) ** 2 + (pts[:, 1] - uy) ** 2
        return (ux, uy), [int(i) for i in np.flatnonzero(d2 <= model.r ** 2 + 1e-9)]
    if isinstance(model, PppModel):
        # user at the origin; window of half-width r_u guarantees every SBS
        # that could be in range is realized
        half = model.r_u
        area = (2 * half) ** 2
        count = rng.poisson(model.lam * area)
        xs = rng.uniform(-half, half, count)
        ys = rng.uniform(-half, half, count)
        d2 = xs ** 2 + ys ** 2
        return (0.0, 0.0), [int(i) for i in np.flatnonzero(d2 <= model.r_u ** 2)]
    raise TypeError(f"unknown topology model {type(model).__name__}")
