"""Coverage distributions for grid and PPP deployments."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

from edgepir import topology


def test_coverage_validation():
    with pytest.raises(ValueError):
        topology.CoverageDistribution([0.5, 0.6])
    with pytest.raises(ValueError):
        topology.CoverageDistribution([-0.1, 1.1])
    cd = topology.CoverageDistribution([0.25, 0.5, 0.25])
    assert cd.N_max == 2
    assert topology.CoverageDistribution([1.0, 0.0]).N_max == 0


def test_zipf_basics():
    p = topology.zipf(5, 0.0)
    assert p == [0.2] * 5
    p = topology.zipf(4, 1.0)
    s = 1 + 1 / 2 + 1 / 3 + 1 / 4
    assert abs(p[0] - 1 / s) < 1e-12
    assert all(a >= b for a, b in zip(p, p[1:]))
    assert abs(sum(p) - 1.0) < 1e-12
    with pytest.raises(ValueError):
        topology.zipf(0, 1.0)
    with pytest.raises(ValueError):
        topology.zipf(3, -0.5)


def test_grid_positions_symmetric_and_in_reach():
    m = topology.GridModel(D=500.0, spacing=60.0, r=60.0)
    pts = m.sbs_positions()
    reach = m.D + m.r
    assert (np.hypot(pts[:, 0], pts[:, 1]) <= reach + 1e-6).all()
    # origin is a lattice point, and the set is symmetric under negation
    assert any((p == [0.0, 0.0]).all() for p in pts)
    keys = {(round(x, 6), round(y, 6)) for x, y in pts}
    assert all((-x, -y) in keys for x, y in keys)


def test_sbs_count_in_cell():
    m = topology.GridModel(D=500.0, spacing=60.0, r=60.0)
    # lattice points with x,y multiples of 60 inside radius 500
    brute = sum(1 for i in range(-9, 10) for j in range(-9, 10)
                if (60 * i) ** 2 + (60 * j) ** 2 <= 500 ** 2 + 1e-9)
    assert m.sbs_count_in_cell() == brute


def test_spacing_for_count_hits_attainable_targets():
    for target in (5, 9, 21, 221):
        s = topology.spacing_for_count(500.0, target)
        m = topology.GridModel(D=500.0, spacing=s, r=0.0)
        assert m.sbs_count_in_cell() == target


def test_spacing_for_count_near_316():
    """316 points are not attainable on a centered square lattice in a
    500 m disc; the closest count is 317, at spacing just under 50 m."""
    s = topology.spacing_for_count(500.0, 316)
    m = topology.GridModel(D=500.0, spacing=s, r=0.0)
    assert m.sbs_count_in_cell() == 317
    assert 49.0 < s < 51.0


def test_grid_gamma_matches_reference_curve():
    """60 m spacing and range in a 500 m cell: mostly 3-5 SBSs in range."""
    m = topology.GridModel(D=500.0, spacing=60.0, r=60.0)
    cd = topology.grid_gamma(m, mc_samples=200000, seed=0)
    ref = [0.0, 0.0, 0.1736, 0.5113, 0.3151]
    assert cd.N_max == 4
    for b, g in enumerate(ref):
        assert abs(cd.gamma[b] - g) < 0.01


def test_grid_gamma_deterministic_in_seed():
    m = topology.GridModel(D=100.0, spacing=40.0, r=50.0)
    a = topology.grid_gamma(m, mc_samples=5000, seed=3)
    b = topology.grid_gamma(m, mc_samples=5000, seed=3)
    assert a.gamma == b.gamma


def test_grid_gamma_geometry_oracle():
    """A single SBS at the origin, always in range: gamma is a point mass."""
    m = topology.GridModel(D=50.0, spacing=3000.0, r=1000.0)
    pts = m.sbs_positions()
    assert len(pts) == 1
    cd = topology.grid_gamma(m, mc_samples=1000, seed=0)
    assert cd.gamma == [0.0, 1.0]


def brute_grid_gamma(D, s, r, mc_samples, seed):
    """Reference: every lattice point within D + r of the origin tested
    against every user, with grid_gamma's draws and distance test."""
    m = math.ceil((D + r) / s)
    pts = [(i * s, j * s) for j in range(-m, m + 1) for i in range(-m, m + 1)
           if math.hypot(i * s, j * s) <= D + r + 1e-9]
    rng = np.random.default_rng(seed)
    hist, done = {}, 0
    while done < mc_samples:
        size = min(200000, mc_samples - done)
        rad = D * np.sqrt(rng.random(size))
        ang = 2 * np.pi * rng.random(size)
        ux, uy = rad * np.cos(ang), rad * np.sin(ang)
        b = sum(((ux - px) ** 2 + (uy - py) ** 2 <= r ** 2 + 1e-9).astype(np.int64)
                for px, py in pts)
        for val in b.tolist():
            hist[val] = hist.get(val, 0) + 1
        done += size
    return [hist.get(v, 0) / mc_samples for v in range(max(hist) + 1)]


@pytest.mark.parametrize("D,s,r", [
    (200.0, 30.0, 70.0),     # spacing < r
    (200.0, 90.0, 40.0),     # spacing > r
    (150.0, 40.0, 0.0),      # r = 0
    (0.0, 40.0, 50.0),       # D = 0: every user at the origin
    (300.0, 7.0, 61.3),      # r/s not an integer
    (50.0, 3000.0, 1000.0),  # the geometry-oracle model
    (1e-4, 1e-5, 0.0),       # the 1e-9 m^2 slack spans several lattice steps
    (200.0, 40.0, 59.6),     # r = 1.49 s: offset (2, 0) just pruned
    (200.0, 40.0, 60.0),     # r = 1.5 s: offset (2, 0) kept at its boundary
    (20.0, 1.0, 10.0),       # about 314 SBSs in range: counts beyond uint8
])
@pytest.mark.parametrize("seed", [0, 1])
def test_grid_gamma_equals_full_lattice_reference(D, s, r, seed):
    got = topology.grid_gamma(topology.GridModel(D, s, r), mc_samples=3000, seed=seed)
    assert got.gamma == brute_grid_gamma(D, s, r, 3000, seed)


@pytest.mark.parametrize("D,s,r", [(200.0, 90.0, 40.0), (200.0, 30.0, 70.0)])
@pytest.mark.parametrize("mc_samples", [37777, 200001])
def test_grid_gamma_equals_reference_across_blocks_and_chunks(D, s, r, mc_samples):
    """grid_gamma counts each 200,000-sample chunk in blocks of 25,000:
    37,777 samples end inside the second block, and 200,001 put one sample
    in a second chunk."""
    got = topology.grid_gamma(topology.GridModel(D, s, r), mc_samples=mc_samples, seed=4)
    assert got.gamma == brute_grid_gamma(D, s, r, mc_samples, 4)


def test_grid_gamma_criterion_2_model_is_unchanged():
    """The 60 m model at 10^6 samples, seed 0: the exact gamma that the
    samples x SBS distance matrix gave."""
    cd = topology.grid_gamma(topology.GridModel(500.0, 60.0, 60.0), 10 ** 6, seed=0)
    assert cd.gamma == [0.0, 0.0, 0.174998, 0.513484, 0.311518]


def test_grid_gamma_dense_lattice_runs_in_bounded_memory():
    """32 937 SBSs at 5 m spacing: a samples x SBS matrix would need tens
    of GB per chunk.  The child process is capped at 2 GB of address space,
    so a regression fails fast with MemoryError."""
    m = topology.GridModel(500.0, 5.0, 12.0)
    assert len(m.sbs_positions()) == 32937
    code = ("import resource; resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
            "from edgepir import topology\n"
            "g = topology.grid_gamma(topology.GridModel(500.0, 5.0, 12.0), 200000, 0).gamma\n"
            "print(sum(b * x for b, x in enumerate(g)))\n")
    src = os.path.dirname(os.path.dirname(topology.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert abs(float(done.stdout) - math.pi * 12.0 ** 2 / 5.0 ** 2) < 0.05


@pytest.mark.parametrize("kwargs", [
    {"spacing": 0.0}, {"spacing": -60.0}, {"D": -1.0}, {"r": -60.0},
    {"spacing": math.inf}, {"D": math.nan}, {"r": math.inf}],
    ids=lambda kwargs: ",".join(f"{k}={v}" for k, v in kwargs.items()))
def test_grid_model_rejects_bad_geometry(kwargs):
    with pytest.raises(ValueError):
        topology.GridModel(**({"D": 500.0, "spacing": 60.0, "r": 60.0} | kwargs))


@pytest.mark.parametrize("D,target", [(500.0, 0), (500.0, -3), (0.0, 5)])
def test_spacing_for_count_rejects_bad_input(D, target):
    with pytest.raises(ValueError):
        topology.spacing_for_count(D, target)


def test_ppp_gamma_is_poisson():
    model = topology.PppModel(lam=1e-4, r_u=60.0)
    psi = model.psi
    assert abs(psi - 1e-4 * math.pi * 3600) < 1e-12
    cd = topology.ppp_gamma(model)
    for b in range(6):
        expect = math.exp(-psi) * psi ** b / math.factorial(b)
        assert abs(cd.gamma[b] - expect) < 1e-9
    assert abs(sum(cd.gamma) - 1.0) < 1e-12


def test_ppp_gamma_zero_density():
    cd = topology.ppp_gamma(topology.PppModel(lam=0.0, r_u=60.0))
    assert cd.gamma[0] == 1.0 and cd.N_max == 0


def disc_users(model, rng, size):
    """x and y arrays of users uniform over the macro-cell disc."""
    rad = model.D * np.sqrt(rng.random(size))
    ang = 2 * np.pi * rng.random(size)
    return rad * np.cos(ang), rad * np.sin(ang)


def stencil_hits(model, ux, uy):
    """Per user, the sbs_positions() indices that topology._in_range finds
    in range, ascending."""
    index = model._lattice[2].ravel()
    hits = [[] for _ in ux]
    for at, hit in topology._in_range(model, ux, uy):
        for u in np.flatnonzero(hit):
            hits[u].append(int(index[at[u]]))
    return [sorted(h) for h in hits]


def test_sample_coverage_grid_agrees_with_gamma():
    """grid_gamma against in-range counts from the distance of sampled
    users to every SBS."""
    m = topology.GridModel(D=200.0, spacing=80.0, r=80.0)
    cd = topology.grid_gamma(m, mc_samples=400000, seed=1)
    pts = m.sbs_positions()
    trials = 20000
    ux, uy = disc_users(m, np.random.default_rng(2), trials)
    d2 = (ux[:, None] - pts[:, 0]) ** 2 + (uy[:, None] - pts[:, 1]) ** 2
    counts = np.bincount((d2 <= m.r ** 2 + 1e-9).sum(axis=1), minlength=len(cd.gamma))
    assert len(counts) == len(cd.gamma)
    for g, c in zip(cd.gamma, counts):
        obs = c / trials
        sigma = math.sqrt(max(g * (1 - g), 1e-12) / trials)
        assert abs(obs - g) <= max(4 * sigma, 1e-3)


def test_sample_coverage_ppp_agrees_with_gamma():
    """ppp_gamma against the in-range counts of a user at the origin of
    sampled Poisson deployments, in a window that holds every SBS in
    range."""
    model = topology.PppModel(lam=2e-4, r_u=60.0)
    cd = topology.ppp_gamma(model)
    rng = np.random.default_rng(4)
    trials, half = 20000, model.r_u
    counts = {}
    for _ in range(trials):
        count = rng.poisson(model.lam * (2 * half) ** 2)
        xs, ys = rng.uniform(-half, half, count), rng.uniform(-half, half, count)
        b = int((xs ** 2 + ys ** 2 <= model.r_u ** 2).sum())
        counts[b] = counts.get(b, 0) + 1
    for b in range(6):
        g = cd.gamma[b]
        obs = counts.get(b, 0) / trials
        sigma = math.sqrt(max(g * (1 - g), 1e-12) / trials)
        assert abs(obs - g) <= max(4 * sigma, 1e-3)


def test_sample_coverage_indices_are_in_range():
    m = topology.GridModel(D=150.0, spacing=70.0, r=90.0)
    pts = m.sbs_positions()
    ux, uy = disc_users(m, np.random.default_rng(6), 50)
    for x, y, inrange in zip(ux, uy, stencil_hits(m, ux, uy)):
        assert math.hypot(x, y) <= m.D + 1e-9
        for i in range(len(pts)):
            d = math.hypot(pts[i, 0] - x, pts[i, 1] - y)
            assert (i in inrange) == (d <= m.r + 1e-9)


@pytest.mark.parametrize("D,s,r", [(150.0, 70.0, 90.0), (200.0, 40.0, 59.6),
                                   (300.0, 7.0, 61.3)])
def test_sample_coverage_equals_full_lattice_reference(D, s, r):
    """The pruned stencil that grid_gamma counts with finds exactly the
    SBSs that pass the distance test against every lattice point."""
    m = topology.GridModel(D, s, r)
    pts = m.sbs_positions()
    ux, uy = disc_users(m, np.random.default_rng(7), 300)
    for x, y, inrange in zip(ux, uy, stencil_hits(m, ux, uy)):
        hit = (x - pts[:, 0]) ** 2 + (y - pts[:, 1]) ** 2 <= r ** 2 + 1e-9
        assert inrange == np.flatnonzero(hit).tolist()


@pytest.mark.parametrize("psi", [89.0, 90.0, 500.0])
def test_ppp_gamma_large_psi(psi):
    """Dense deployments: psi^b and b! overflow a float long before the
    pmf itself is negligible."""
    r_u = 60.0
    cd = topology.ppp_gamma(topology.PppModel(psi / (math.pi * r_u ** 2), r_u))
    assert abs(sum(cd.gamma) - 1.0) < 1e-12
    mean = sum(b * g for b, g in enumerate(cd.gamma))
    assert abs(mean - psi) < 1e-9 * psi
