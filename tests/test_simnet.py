"""Simulated network sessions and their exact bit accounting."""

import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from edgepir import cache, pirproto, rates, simnet
from edgepir.topology import CoverageDistribution


def example_network(gamma=None):
    lib = cache.FileLibrary([[[1, 0, 0, 1, 1]], [[0, 1, 1, 0, 1]]], 5,
                            [0.5, 0.5])
    scheme = cache.CachingScheme(6, Fraction(6, 5),
                                 [Fraction(1), Fraction(1, 5)], q=2)
    enc = cache.EncodedCache(lib, scheme)
    if gamma is None:
        gamma = [0.0] * 6 + [1.0]
    return simnet.Network(enc, gamma)


def partial_network(gamma):
    """Three files, only the first two cached."""
    rng = np.random.default_rng(0)
    lib = cache.FileLibrary.random(3, 1, 6, [0.5, 0.3, 0.2], rng)
    mu = [Fraction(1), Fraction(1, 2), Fraction(0)]
    scheme = cache.CachingScheme(7, Fraction(3, 2), mu, q=8)
    enc = cache.EncodedCache(lib, scheme)
    return simnet.Network(enc, gamma)


def test_network_validates_gamma():
    with pytest.raises(ValueError):
        example_network([0.5, 0.6])
    net = example_network(CoverageDistribution([0.0, 1.0]))
    assert net.gamma == [0.0, 1.0]


def test_sample_b_distribution():
    net = example_network([0.0, 0.25, 0.75])
    rng = np.random.default_rng(1)
    draws = [net.sample_b(rng) for _ in range(4000)]
    assert abs(draws.count(1) / 4000 - 0.25) < 0.03
    assert 0 not in draws


def test_response_bits_worked_example():
    net = example_network()
    # d = 5 subresponses of a 5-bit symbol each
    assert simnet.response_bits(net.cache, 5) == 25


def test_transcript_bit_counts_closed_form():
    net = example_network()
    # cached, all n = 6 in range: everything from SBSs
    assert simnet.transcript_bit_counts(net.cache, True, 6, 6, 5) == (0, 150)
    # cached, b = 0: the MBS answers all 6 coordinates
    assert simnet.transcript_bit_counts(net.cache, True, 0, 6, 5) == (150, 0)
    # cached, b = 4: split 2 / 4
    assert simnet.transcript_bit_counts(net.cache, True, 4, 6, 5) == (50, 100)
    # b beyond n behaves like b = n
    assert simnet.transcript_bit_counts(net.cache, True, 9, 6, 5) == (0, 150)
    # uncached: whole file from the MBS plus dummy SBS downloads
    assert simnet.transcript_bit_counts(net.cache, False, 4, 6, 5) == (5, 100)


def test_run_retrieval_recovers_and_accounts():
    net = example_network()
    rng = np.random.default_rng(2)
    for b in (0, 3, 6):
        tr = simnet.run_retrieval(net, 1, 6, 0, rng, b=b)
        assert tr.success and tr.cached
        assert (tr.bits_from_mbs, tr.bits_from_sbs) == \
            simnet.transcript_bit_counts(net.cache, True, b, 6, 5)
        assert len(tr.coords) == 6 and len(set(tr.coords)) == 6


def test_run_retrieval_uncached_uses_dummy_queries():
    gamma = [0.0, 0.0, 0.0, 1.0]
    net = partial_network(gamma)
    rng = np.random.default_rng(3)
    tr = simnet.run_retrieval(net, 1, 3, 2, rng, keep_messages=True)
    assert not tr.cached and tr.success
    assert tr.bits_from_mbs == net.cache.library.L  # beta = 1
    assert tr.bits_from_sbs == 3 * simnet.response_bits(net.cache, 2)
    # the dummy queries target some cached file
    assert tr.queries.file_index in (0, 1)


def test_run_retrieval_cached_partial_coverage():
    net = partial_network([0.0, 1.0])
    rng = np.random.default_rng(4)
    for i in (0, 1):
        tr = simnet.run_retrieval(net, 1, 3, i, rng, b=1)
        assert tr.success
        assert tr.bits_from_sbs == simnet.response_bits(net.cache, 2)
        assert tr.bits_from_mbs == 2 * simnet.response_bits(net.cache, 2)


def test_all_cached_at_k1_with_n_equal_q_recovers():
    """N_sbs = n = q = 8 with every file at k = 1: storage and blinding
    codes are length-8 repetition codes over GF(8), whose dual distance
    is k + 1 = 2 because they are MDS."""
    rng = np.random.default_rng(8)
    lib = cache.FileLibrary.random(4, 7, 16, [0.25] * 4, rng)
    enc = cache.EncodedCache(lib, cache.CachingScheme(8, 4, [1] * 4, q=8))
    net = simnet.Network(enc, [0.0] * 8 + [1.0])
    for i in range(4):
        for b in (0, 2, 3):
            tr = simnet.run_retrieval(net, 1, 8, i, rng, b=b)
            assert tr.success and tr.cached  # recovered bits are checked


def test_run_retrieval_deterministic_under_seed():
    net = example_network([0.2, 0.1, 0.1, 0.1, 0.1, 0.2, 0.2])
    a = simnet.run_retrieval(net, 1, 6, 1, np.random.default_rng(9),
                             keep_messages=True)
    b = simnet.run_retrieval(net, 1, 6, 1, np.random.default_rng(9),
                             keep_messages=True)
    assert a.summary() == b.summary()
    assert a.queries.Q.tolist() == b.queries.Q.tolist() and a.responses == b.responses


def test_records_holding_arrays_compare_by_identity():
    """Transcripts, query sets and erasure matrices hold arrays, so they
    compare by identity (values are compared through summary() and
    .tolist()); == gives a bool instead of raising."""
    net = example_network([0.2, 0.1, 0.1, 0.1, 0.1, 0.2, 0.2])
    a, b = (simnet.run_retrieval(net, 1, 6, 1, np.random.default_rng(9), keep_messages=True)
            for _ in range(2))
    em = net.plan(1, 6, a.coords)[1]
    fresh_em = pirproto.build_erasure_matrix(pirproto.plan_protocol(net.cache, 1, 6, a.coords))
    assert (a == b, a.queries == b.queries, em == fresh_em) == (False, False, False)
    assert a == a and a.queries == a.queries and em == em


def test_monte_carlo_matches_closed_form_rates():
    gamma = [0.0, 0.1, 0.2, 0.4, 0.2, 0.1]
    net = partial_network(gamma)
    rng = np.random.default_rng(5)
    est = simnet.monte_carlo(net, 1, 3, trials=40000, rng=rng,
                             full_sessions=20)
    lib = net.cache.library
    mu = net.cache.scheme.mu
    R = float(rates.backhaul_pir(lib.popularity, mu, gamma, 3, 1))
    D = float(rates.sbs_rate_pir(lib.popularity, mu, gamma, 3, 1))
    assert abs(est["R_hat"] - R) <= 3 * est["R_stderr"] + 1e-9
    assert abs(est["D_hat"] - D) <= 3 * est["D_stderr"] + 1e-9
    assert est["full_sessions"] == 20


def test_monte_carlo_point_mass_exact():
    net = example_network([0.0] * 6 + [1.0])  # b = 6 always, everything cached
    rng = np.random.default_rng(6)
    est = simnet.monte_carlo(net, 1, 6, trials=500, rng=rng, full_sessions=5)
    assert est["R_hat"] == 0.0
    assert est["D_hat"] == pytest.approx(6 * 25 / 5)


def test_spy_coalition_detects_sabotage():
    """A spy SBS watching a network's sessions whose blinding codewords are
    all zero sees queries that depend on the file: the chi-square test
    rejects independence."""
    net = example_network()
    params, em = net.plan(1, 6, range(6))
    zero = [[[0] * params.n for _ in range(params.width)] for _ in range(params.d)]
    p_value = pirproto.chi2_view_test(
        params, [0], 400, np.random.default_rng(8),
        lambda iota: pirproto._queries_from_codewords(params, em, iota, zero))
    assert p_value < 1e-6


def test_plans_built_once_per_coordinate_list(monkeypatch):
    """Over 200 sessions on one network, plan_protocol runs once per
    distinct (T, n, coords), and every transcript equals the one a fresh
    network per session gives under the same seed."""
    mu = [Fraction(1)] * 2 + [Fraction(1, 2)] * 4 + [Fraction(0)] * 2
    lib = cache.FileLibrary.random(8, 4, 24, [1 / 8] * 8, np.random.default_rng(0))
    enc = cache.EncodedCache(lib, cache.CachingScheme(6, sum(mu), mu, q=8))
    gamma = [1 / 7] * 7
    calls = []
    plan = pirproto.plan_protocol

    def counted(cache_, T, n, coords=None):
        calls.append((T, n, tuple(coords)))
        return plan(cache_, T, n, coords)

    monkeypatch.setattr(pirproto, "plan_protocol", counted)

    def sessions(network_for):
        rng = np.random.default_rng(5)
        trs = [simnet.run_retrieval(network_for(), 1, 6, t % 8, rng, keep_messages=True)
               for t in range(200)]
        return [(tr.summary(), tr.in_range, tr.coords, tr.queries.Q.tolist(),
                 tr.queries.codewords.tolist(), tr.responses) for tr in trs]

    net = simnet.Network(enc, gamma)
    shared = sessions(lambda: net)
    assert len(calls) == len(set(calls)) == len({tuple(tr[2]) for tr in shared}) > 10
    calls.clear()
    assert sessions(lambda: simnet.Network(enc, gamma)) == shared
    assert len(calls) == 200


def test_network_plan_is_a_fresh_plan():
    """A kept plan holds what planning the same coordinates afresh gives:
    the erasure matrix, the recovery matrices and the retrieval code."""
    mu = [Fraction(1)] * 2 + [Fraction(1, 2)] * 4 + [Fraction(0)] * 2
    lib = cache.FileLibrary.random(8, 4, 24, [1 / 8] * 8, np.random.default_rng(0))
    enc = cache.EncodedCache(lib, cache.CachingScheme(6, sum(mu), mu, q=8))
    net = simnet.Network(enc, [1 / 7] * 7)
    for coords in ([0, 1, 2, 3, 4, 5], [4, 2, 0, 1, 3, 5]):
        params, em = net.plan(1, 6, coords)
        assert net.plan(1, 6, coords)[1] is em
        fresh = pirproto.plan_protocol(enc, 1, 6, coords)
        fresh_em = pirproto.build_erasure_matrix(fresh)
        assert params.Ctilde.H.tolist() == fresh.Ctilde.H.tolist() and em.Ehat == fresh_em.Ehat
        assert np.array_equal(em.D, fresh_em.D) and np.array_equal(em.gather, fresh_em.gather)
        assert em.decoders.keys() == fresh_em.decoders.keys()
        assert all(np.array_equal(em.decoders[C], fresh_em.decoders[C]) for C in em.decoders)


def test_monte_carlo_counts_bits_from_responses(monkeypatch):
    """Session bits are measured from the responses built, so a responder
    that drops a subresponse breaks the closed-form check.  The requests
    are all for the uncached file, whose responses are never decoded."""
    lib = cache.FileLibrary([[[1, 0, 0, 1, 1]], [[0, 1, 1, 0, 1]]], 5,
                            [1.0, 0.0])
    scheme = cache.CachingScheme(6, Fraction(1, 5),
                                 [Fraction(0), Fraction(1, 5)], q=2)
    net = simnet.Network(cache.EncodedCache(lib, scheme), [0.0] * 6 + [1.0])
    respond = simnet.pirproto.respond
    monkeypatch.setattr(simnet.pirproto, "respond",
                        lambda *args: respond(*args)[:-1])
    with pytest.raises(RuntimeError, match="closed form"):
        simnet.monte_carlo(net, 1, 6, trials=10, rng=np.random.default_rng(0),
                           full_sessions=1)


def run_child(code: str, timeout: float = 60) -> str:
    """Run ``code`` in a fresh interpreter; a hang fails the test at the
    timeout instead of stalling the suite."""
    src = os.path.dirname(os.path.dirname(simnet.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=timeout)
    assert done.returncode == 0, done.stderr
    return done.stdout


SESSIONS = """
from fractions import Fraction
import numpy as np
from edgepir import cache, simnet
F, beta, L, q, N, n, T, mu, sessions = {args}
rng = np.random.default_rng(0)
lib = cache.FileLibrary.random(F, beta, L, [1 / F] * F, rng)
enc = cache.EncodedCache(lib, cache.CachingScheme(N, sum(mu), mu, q=q))
net = simnet.Network(enc, [0.0] * N + [1.0])
for s in range(sessions):
    f = s % F
    tr = simnet.run_retrieval(net, T, n, f, rng, b=s % (N + 1))
    assert tr.success and tr.cached == (mu[f] != 0)
print(enc.delta_max)
"""


@pytest.mark.parametrize("args,delta_max", [
    # the multi-rate shape (k in {1, 2}, q = 8) at realistic stripe lengths:
    # every file and every in-range count from 0 to N
    ("8, 4, 40, 8, 6, 6, 1, [Fraction(1)] * 2 + [Fraction(1, 2)] * 4 + [Fraction(0)] * 2, 16",
     14),
    ("8, 4, 128, 8, 6, 6, 1, [Fraction(1)] * 2 + [Fraction(1, 2)] * 4 + [Fraction(0)] * 2, 16",
     44),
    # 512-bit stripes at q = 16, k = 3
    ("2, 1, 512, 16, 6, 4, 1, [Fraction(1, 3)] * 2, 4", 43),
], ids=["multirate-L40", "multirate-L128", "q16-k3-L512"])
def test_realistic_stripes_recover_bit_exactly(args, delta_max):
    """run_retrieval raises VerificationError unless the recovered file is
    bit-identical to the library's."""
    assert int(run_child(SESSIONS.format(args=args))) == delta_max


@pytest.mark.parametrize("ks,T", [((31, 31), 1), ((21, 42), 1), ((20, 40), 2)],
                         ids=["k31-31-T1", "k21-42-T1", "k20-40-T2"])
def test_large_field_sessions_recover_bit_exactly(ks, T):
    """q = 64 with N = n = b = 63 and two cached files: one retrieval of
    each file recovers it bit-exactly (run_retrieval raises
    VerificationError otherwise), every coordinate answered by an SBS."""
    N = 63
    mu = [Fraction(1, k) for k in ks]
    beta = N - (max(ks) + T - 1)
    lib = cache.FileLibrary.random(2, beta, 40, [0.5, 0.5], np.random.default_rng(T))
    net = simnet.Network(cache.EncodedCache(lib, cache.CachingScheme(N, sum(mu), mu, q=64)),
                         [0.0] * N + [1.0])
    for f in (0, 1):
        tr = simnet.run_retrieval(net, T, N, f, np.random.default_rng(f), b=N)
        assert tr.success and tr.cached and tr.bits_from_mbs == 0
