"""Coverage-distribution and popularity models.

Produces the vector gamma = (gamma_0, ..., gamma_Nmax) giving the
probability that a user is within communication range of exactly b SBSs,
for two deployment models:

* a regular square grid of SBSs inside a macro-cell disc of radius D, with
  users uniform over the disc (gamma estimated by Monte-Carlo), and
* SBSs placed by a Poisson point process of density lambda, where the
  in-range count is Poisson with mean psi = lambda * pi * r_u^2.

Also provides the Zipf popularity model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

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


@dataclass(frozen=True)
class GridModel:
    D: float        # macro-cell radius (m)
    spacing: float  # inter-SBS distance (m)
    r: float        # SBS communication radius (m)

    def __post_init__(self):
        if not all(math.isfinite(x) for x in (self.D, self.spacing, self.r)):
            raise ValueError("grid D, spacing and r must be finite")
        if self.spacing <= 0:
            raise ValueError("grid spacing must be positive")
        if self.D < 0 or self.r < 0:
            raise ValueError("grid D and r must be non-negative")

    @cached_property
    def _lattice(self) -> tuple[int, int, np.ndarray, np.ndarray, list]:
        """(m, w, index, reach2, stencil): the lattice point (ix*s, iy*s),
        |ix|, |iy| <= m, is entry [iy + m + w, ix + m + w] of ``index``,
        which holds its position in sbs_positions(), or -1 where no SBS
        stands.  ``reach2`` holds the range test's r^2 + 1e-9 where an SBS
        stands and -1 elsewhere, so a user's squared distance d2 to a
        lattice point passes d2 <= reach2 exactly when an SBS stands there
        in range (a squared distance is never <= -1).  The tables are
        padded by w, the stencil half-width, so every stencil lookup of a
        user in the disc stays inside them.

        A user lies within 1/2 step of its nearest lattice point along each
        axis, so the point at offset (dx, dy) from it is at least
        s*(|dx| - 1/2)^+ and s*(|dy| - 1/2)^+ away along the axes.
        ``stencil`` lists, dy-major, the offsets (dx, dy) where that bound
        is within the range test's sqrt(r^2 + 1e-9); the others can never
        hold an SBS in range.  The bound uses half-width H = 1/2 + 1e-6
        steps: the excess covers the rounding of rint(ux/s) and of the
        float distance test, both below 1e-10 steps for any lattice that
        fits in memory, so no offset the test could accept is dropped.
        With r = s that leaves 9 offsets of the 25 in |dx|, |dy| <= 2;
        about 1 + 4r/s + pi*(r/s)^2 in general."""
        s = self.spacing
        reach = self.D + self.r
        m = int(math.ceil(reach / s))
        H, r2 = 0.5 + 1e-6, (self.r ** 2 + 1e-9) / s ** 2
        w = math.floor(H + math.sqrt(r2))
        stencil = [(dx, dy) for dy in range(-w, w + 1) for dx in range(-w, w + 1)
                   if max(abs(dx) - H, 0) ** 2 + max(abs(dy) - H, 0) ** 2 <= r2]
        xs = np.arange(-m, m + 1) * s
        gx, gy = np.meshgrid(xs, xs)
        keep = np.hypot(gx, gy) <= reach + 1e-9
        index = np.where(keep, np.cumsum(keep).reshape(keep.shape) - 1, -1)
        index = np.pad(index, w, constant_values=-1)
        return m, w, index, np.where(index >= 0, self.r ** 2 + 1e-9, -1.0), stencil

    def sbs_positions(self) -> np.ndarray:
        """Square-lattice points covering the disc plus a margin of r, so
        users near the cell edge still see the SBSs just outside it."""
        m, w, index, _, _ = self._lattice
        iy, ix = np.nonzero(index >= 0)
        return np.stack([(ix - m - w) * self.spacing, (iy - m - w) * self.spacing], axis=1)

    def sbs_count_in_cell(self) -> int:
        pts = self.sbs_positions()
        inside = np.hypot(pts[:, 0], pts[:, 1]) <= self.D + 1e-9
        return int(inside.sum())


def spacing_for_count(D: float, target: int) -> float:
    """Search the lattice spacing whose point count inside the disc of
    radius D is closest to ``target`` (exact when attainable)."""
    if target < 1:
        raise ValueError("need a target of at least one SBS")
    if not D > 0:
        raise ValueError("need a positive cell radius D to search a spacing")
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


def _in_range(model: GridModel, ux, uy):
    """Yield, per ``model._lattice`` stencil offset, the flat position in
    its index table of the lattice point at that offset from each user's
    nearest lattice point, and which of them are SBSs in range of the user.
    ux and uy are arrays of users.  Every in-range SBS
    turns up at exactly one offset, and the cost is O(len(ux) * len(stencil))
    whatever the SBS count."""
    m, w, index, reach2, stencil = model._lattice
    s = model.spacing
    cx = np.rint(ux / s).astype(np.int64)
    cy = np.rint(uy / s).astype(np.int64)
    width, reach2 = index.shape[1], reach2.ravel()
    base = (cy + m + w) * width + cx + m + w
    dx2 = {dx: (ux - (cx + dx) * s) ** 2 for dx in range(-w, w + 1)}
    dy2 = {dy: (uy - (cy + dy) * s) ** 2 for dy in range(-w, w + 1)}
    for dx, dy in stencil:
        at = base + (dy * width + dx)
        yield at, dx2[dx] + dy2[dy] <= reach2.take(at)


def grid_gamma(model: GridModel, mc_samples: int = 1000000,
               seed: int = 0) -> CoverageDistribution:
    """Monte-Carlo estimate of the in-range SBS count distribution for a
    user uniform over the macro-cell disc.

    Users are drawn in chunks of 200,000 (radii, then angles, per chunk, so
    the chunk size fixes every sample) and counted in blocks of 25,000, so
    that each stencil offset's temporaries stay in cache; the counts are
    uint8 while the stencil has fewer than 256 offsets."""
    if mc_samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    hist = np.zeros(0, dtype=np.int64)  # hist[b]: users with b SBSs in range
    chunk, block = 200000, 25000
    dtype = np.min_scalar_type(len(model._lattice[4]))
    done = 0
    while done < mc_samples:
        size = min(chunk, mc_samples - done)
        rad = model.D * np.sqrt(rng.random(size))
        ang = 2 * np.pi * rng.random(size)
        ux, uy = rad * np.cos(ang), rad * np.sin(ang)
        b = np.zeros(size, dtype=dtype)
        for lo in range(0, size, block):
            count = b[lo:lo + block]
            for _, hit in _in_range(model, ux[lo:lo + block], uy[lo:lo + block]):
                count += hit
        counts = np.bincount(b, minlength=len(hist))
        counts[:len(hist)] += hist
        hist = counts
        done += size
    return CoverageDistribution([int(c) / mc_samples for c in hist])


@dataclass
class PppModel:
    lam: float  # SBS density per m^2
    r_u: float  # user connection radius (m)

    @property
    def psi(self) -> float:
        return self.lam * math.pi * self.r_u ** 2


def ppp_gamma(model: PppModel) -> CoverageDistribution:
    """Poisson pmf with mean psi, truncated where the tail mass drops below
    1e-9 and renormalized."""
    psi = model.psi
    if psi < 0:
        raise ValueError("psi must be non-negative")

    def pmf(b: int) -> float:  # log space: psi^b and b! overflow from psi = 89
        return math.exp(b * math.log(psi) - psi - math.lgamma(b + 1)) if psi else float(b == 0)

    cutoff = 1
    while pmf(cutoff) > 1e-12 or cutoff < psi:
        cutoff += 1
        if cutoff > 10000:
            break
    probs = [pmf(b) for b in range(cutoff + 1)]
    tail = 1.0 - sum(probs)
    if tail > 1e-9:
        raise ValueError(f"psi = {psi:g} leaves tail mass {tail:.3g} above b = {cutoff}")
    s = sum(probs)
    return CoverageDistribution([x / s for x in probs])
