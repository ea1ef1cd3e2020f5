"""PIR protocol: parameterization, erasure matrix, queries, recovery,
privacy."""

import os
import subprocess
import sys
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest

from edgepir import cache, codes, gf, pirproto, simnet
from edgepir.spec import ProtocolError


def example_instance():
    lib = cache.FileLibrary([[[1, 0, 0, 1, 1]], [[0, 1, 1, 0, 1]]], 5,
                            [0.5, 0.5])
    scheme = cache.CachingScheme(6, Fraction(6, 5),
                                 [Fraction(1), Fraction(1, 5)], q=2)
    enc = cache.EncodedCache(lib, scheme)
    params = pirproto.plan_protocol(enc, T=1, n=6)
    em = pirproto.build_erasure_matrix(params)
    return enc, params, em


def grs_instance(F=2, beta=1, L=4, q=8, N=6, ks=(1, 2), T=2, n=None, seed=0):
    """A GRS-coded instance; n defaults to k_max + T + beta - 1."""
    rng = np.random.default_rng(seed)
    p = [1.0 / F] * F
    lib = cache.FileLibrary.random(F, beta, L, p, rng)
    mu = [Fraction(1, k) for k in ks] + [Fraction(0)] * (F - len(ks))
    scheme = cache.CachingScheme(N, sum(mu), mu, q=q)
    enc = cache.EncodedCache(lib, scheme)
    if n is None:
        n = max(ks) + T + beta - 1
    params = pirproto.plan_protocol(enc, T=T, n=n)
    em = pirproto.build_erasure_matrix(params)
    return enc, params, em


def run_roundtrip(enc, params, em, file_index, rng):
    qs = pirproto.generate_queries(params, em, file_index, rng)
    cols = [enc.cache_column(c) for c in params.coords]
    resp = pirproto.collect_responses(params, qs, cols)
    return pirproto.recover(params, em, qs, resp)


# -- plan_protocol -----------------------------------------------------------

def test_plan_example_parameters():
    _, params, _ = example_instance()
    assert (params.beta, params.Gamma, params.d) == (1, 1, 5)
    assert params.Ctilde.k == 5
    assert codes.dual_min_distance(params.Cbar) - 1 >= 1


def test_plan_punctures_each_distinct_code_once():
    """Files of one rate share one punctured code, and the retrieval code
    equals the one summed file by file: same generator, same parity check."""
    enc, params, _ = grs_instance(F=5, beta=2, L=8, q=16, N=10,
                                  ks=(2, 4, 2, 4), T=2, n=7)
    assert params.Cprime[0] is params.Cprime[2] and params.Cprime[1] is params.Cprime[3]
    Csum = None
    for i in params.cached:
        C = codes.puncture(enc.codes[i], params.coords)
        Csum = C if Csum is None else codes.sum_code(Csum, C)
    reference = codes.hadamard(Csum, params.Cbar)
    assert params.Ctilde.G.tolist() == reference.G.tolist()
    assert params.Ctilde.H.tolist() == reference.H.tolist()


def test_plan_trivial_repetition():
    rng = np.random.default_rng(0)
    lib = cache.FileLibrary.random(1, 1, 3, [1.0], rng)
    scheme = cache.CachingScheme(3, 1, [Fraction(1)], q=2)
    enc = cache.EncodedCache(lib, scheme)
    params = pirproto.plan_protocol(enc, T=1, n=2)
    assert (params.beta, params.Gamma, params.d) == (1, 1, 1)


def test_plan_grs_dimensions():
    _, params, _ = grs_instance(ks=(1, 2), T=2, n=5, beta=2)
    assert params.d == 2 and params.Gamma == 2 and params.beta == 2
    assert params.Ctilde.k == 3  # k_max + T - 1, Hadamard rank oracle below
    had = codes.hadamard(params.Cprime[1], params.Cbar)
    assert had.k == 3


def test_plan_rejects_small_n():
    enc, _, _ = example_instance()
    with pytest.raises(ValueError):
        pirproto.plan_protocol(enc, T=1, n=5)  # n < k_max + T


def test_plan_rejects_beta_mismatch():
    rng = np.random.default_rng(0)
    lib = cache.FileLibrary.random(1, 1, 4, [1.0], rng)  # beta=1
    scheme = cache.CachingScheme(6, 1, [Fraction(1, 2)], q=8)
    enc = cache.EncodedCache(lib, scheme)
    with pytest.raises(ValueError):
        pirproto.plan_protocol(enc, T=1, n=4)  # would need beta=2


def test_gamma_d_covers_stripe_symbols():
    for ks, T in [((1, 2), 1), ((2, 4), 1), ((1, 2), 2)]:
        n = max(ks) + T
        _, params, _ = grs_instance(ks=ks, T=T, n=n, beta=1)
        for i in params.cached:
            ki = params.cache.scheme.k[i]
            assert params.Gamma * params.d >= params.beta * ki


# -- erasure matrix ----------------------------------------------------------

def test_example_erasure_matrix():
    _, params, em = example_instance()
    expect = [[1 if c == j else 0 for c in range(6)] for j in range(5)]
    assert em.Ehat == expect
    assert em.I_sets == [{0, 1, 2, 3, 4}]
    assert em.F_sets == [[0], [0], [0], [0], [0], []]


def test_cyclic_supports():
    _, params, em = grs_instance(ks=(2,), T=1, n=4, beta=2, L=4)
    # n=4, k_max=2, T=1 -> Gamma=2, d=2
    assert em.J == [[0, 1], [1, 2]]
    assert em.I_sets == [{0, 1}, {1, 2}]


def test_single_row_all_ones():
    # d=1, Gamma=n: k_max=1, T=1, n=3 -> Gamma = 3-(1+1-1) = 2... use n, T
    # giving a full-width row: k_max=1, T=1, n=2 -> Gamma=1? choose n=3,T=1,
    # k_max=1 -> Gamma=2,d=1: single row with 2 ones
    _, params, em = grs_instance(F=1, ks=(1,), T=1, n=3, beta=2, L=4)
    assert params.d == 1
    assert em.Ehat == [[1, 1, 0]]


def test_conditions_c1_c2_c3_random_instances():
    for ks, T, n, beta in [((1, 2), 1, 4, 2), ((2,), 2, 5, 2),
                           ((1, 3), 1, 5, 2), ((2, 4), 1, 6, 2),
                           ((1, 2), 2, 5, 2)]:
        _, params, em = grs_instance(ks=ks, T=T, n=n, beta=beta, L=4)
        for row in em.Ehat:
            assert sum(row) == params.Gamma  # C1
            assert codes.correctable(params.Ctilde, row)  # C2
        for l in range(params.n):
            colw = sum(em.Ehat[j][l] for j in range(params.d))
            assert colw == len(em.F_sets[l])  # C3
        i_max = max(params.cached, key=lambda i: params.cache.scheme.k[i])
        for I in em.I_sets:
            assert len(I) == params.cache.scheme.k_max
            assert codes.is_information_set(params.Cprime[i_max], sorted(I))


def test_information_sets_simple_case():
    # d=1, Gamma=n, k_max=1: I_m = {m}, F_l = {l}
    Ehat = [[1, 1, 1]]
    I_sets, F_sets = pirproto.build_information_sets(Ehat, beta=3, n=3, d=1)
    assert I_sets == [{0}, {1}, {2}]
    assert F_sets == [[0], [1], [2]]


def test_information_sets_weight_mismatch_raises():
    with pytest.raises(ValueError):
        pirproto.build_information_sets([[1, 1, 0]], beta=3, n=3, d=1)


# -- queries -----------------------------------------------------------------

def test_example_query_structure_all_ones_codewords():
    """With all blinding codewords equal to the all-ones codeword, the
    round-1 subqueries are c_ring + (1,0) at coordinate 1 and c_ring
    elsewhere."""
    _, params, em = example_instance()
    ones = [1] * 6
    cws = [[ones, ones] for _ in range(params.d)]
    qs = pirproto._queries_from_codewords(params, em, 0, cws)
    for l in range(6):
        row0 = qs.Q[l][0]
        assert row0.tolist() == ([0, 1] if l == 0 else [1, 1])


def test_zero_codewords_give_pure_unit_vectors():
    _, params, em = example_instance()
    zero = [0] * 6
    cws = [[zero, zero] for _ in range(params.d)]
    qs = pirproto._queries_from_codewords(params, em, 1, cws)
    for l in range(6):
        for j in range(params.d):
            row = qs.Q[l][j]
            if em.Ehat[j][l]:
                assert row.tolist() == [0, 1]  # unit vector in file 2's block
            else:
                assert row.tolist() == [0, 0]


def test_s_assignment_distinct_within_coordinate():
    _, params, em = grs_instance(ks=(2, 4), T=1, n=6, beta=2, L=4)
    s = pirproto._s_assignment(em, params.d, params.n)
    for l in range(params.n):
        vals = [s[(l, j)] for j in range(params.d) if em.Ehat[j][l]]
        assert len(vals) == len(set(vals))
        assert all(v in em.F_sets[l] for v in vals)


def test_generate_queries_rejects_uncached():
    enc, params, em = grs_instance(F=3, ks=(1, 2), T=1, n=4, beta=2, L=4)
    with pytest.raises(ValueError):
        pirproto.generate_queries(params, em, 2, np.random.default_rng(0))


# -- responses and recovery --------------------------------------------------

def test_zero_query_zero_response():
    enc, params, em = example_instance()
    zeroQ = np.zeros((params.d, 2), int)
    column = params.big_field.digits(enc.cache_column(0))
    assert pirproto.respond(params, zeroQ, column) == [0] * params.d


def test_respond_linearity():
    enc, params, em = example_instance()
    rng = np.random.default_rng(2)
    big = params.big_field
    qs = pirproto.generate_queries(params, em, 0, rng)
    c1 = enc.cache_column(0)
    c2 = enc.cache_column(3)
    csum = [big.add(a, b) for a, b in zip(c1, c2)]
    r1 = pirproto.respond(params, qs.Q[0], big.digits(c1))
    r2 = pirproto.respond(params, qs.Q[0], big.digits(c2))
    rs = pirproto.respond(params, qs.Q[0], big.digits(csum))
    assert rs == [big.add(a, b) for a, b in zip(r1, r2)]


def test_example_rho_decomposition():
    """With all-ones blinding codewords the first-round subresponses are
    x1 + (j-th SPC symbol) + the extra x1 at coordinate 1, and the
    retrieval-code parity check returns x1 exactly."""
    enc, params, em = example_instance()
    ones = [1] * 6
    cws = [[ones, ones] for _ in range(params.d)]
    qs = pirproto._queries_from_codewords(params, em, 0, cws)
    cols = [enc.cache_column(j) for j in range(6)]
    resp = pirproto.collect_responses(params, qs, cols)
    big = params.big_field
    x1 = 0b10011
    spc = enc.symbols[1][0]  # one digit each; zero padding keeps the ints
    rho1 = [resp[l][0] for l in range(6)]
    for l in range(6):
        expect = big.add(x1, spc[l])
        if l == 0:
            expect = big.add(expect, x1)
        assert rho1[l] == expect
    # H of the retrieval code is the all-ones row; applying it yields x1
    acc = 0
    for v in rho1:
        acc = big.add(acc, v)
    assert acc == x1


def test_end_to_end_example_both_files():
    enc, params, em = example_instance()
    rng = np.random.default_rng(7)
    for i in (0, 1):
        for _ in range(5):
            assert run_roundtrip(enc, params, em, i, rng) == enc.library.files[i]


@pytest.mark.parametrize("ks,T,n,beta,q,L", [
    ((1, 2), 1, 4, 2, 8, 6),
    ((2,), 2, 5, 2, 8, 4),
    ((1, 3), 1, 5, 2, 8, 6),
    ((2, 4), 1, 6, 2, 16, 8),
    ((1, 2), 2, 5, 2, 8, 4),
    ((1,), 1, 2, 1, 2, 3),
])
def test_end_to_end_random_instances(ks, T, n, beta, q, L):
    enc, params, em = grs_instance(ks=ks, T=T, n=n, beta=beta, q=q, L=L)
    rng = np.random.default_rng(11)
    for i in params.cached:
        assert run_roundtrip(enc, params, em, i, rng) == enc.library.files[i]


def test_recovery_on_subset_of_coords():
    """Retrieval over a non-initial coordinate subset (puncturing path)."""
    enc0, _, _ = grs_instance(ks=(1, 2), T=1, n=4, beta=2, L=4, N=6)
    params = pirproto.plan_protocol(enc0, T=1, n=4, coords=[1, 3, 4, 5])
    em = pirproto.build_erasure_matrix(params)
    rng = np.random.default_rng(3)
    for i in params.cached:
        assert run_roundtrip(enc0, params, em, i, rng) == enc0.library.files[i]


def test_corrupted_response_detected():
    enc, params, em = example_instance()
    rng = np.random.default_rng(5)
    qs = pirproto.generate_queries(params, em, 1, rng)
    cols = [enc.cache_column(j) for j in range(6)]
    resp = pirproto.collect_responses(params, qs, cols)
    # set a digit of the solved symbol above file 1's single digit
    resp[2][1] = params.big_field.add(resp[2][1], 2)
    with pytest.raises(ProtocolError):
        pirproto.recover(params, em, qs, resp)


def test_response_bit_accounting():
    """Each response is d subresponses over GF(q^delta_max): d*L*mu_max
    bits, n*d*L*mu_max in total."""
    enc, params, em = example_instance()
    L, mu_max = 5, 1
    per_response_bits = params.d * enc.delta_max * 1  # log2(q) = 1
    assert per_response_bits == params.d * L * mu_max
    rng = np.random.default_rng(0)
    qs = pirproto.generate_queries(params, em, 0, rng)
    resp = pirproto.collect_responses(
        params, qs, [enc.cache_column(j) for j in range(6)])
    assert len(resp) == 6 and all(len(r) == params.d for r in resp)


# -- privacy -----------------------------------------------------------------

def test_privacy_empty_coalition_trivial():
    _, params, em = example_instance()
    rep = pirproto.verify_privacy(params, em, [], mode="exact")
    assert rep["private"] and rep["max_tv"] == 0.0


def test_privacy_exact_example_all_single_spies():
    _, params, em = example_instance()
    for l in range(6):
        rep = pirproto.verify_privacy(params, em, [l], mode="exact")
        assert rep["max_tv"] == 0.0


def test_privacy_exact_t2_instance():
    _, params, em = grs_instance(ks=(1,), T=2, n=3, beta=1, q=2, L=2, N=3)
    for coalition in combinations(range(3), 2):
        rep = pirproto.verify_privacy(params, em, list(coalition), mode="exact")
        assert rep["max_tv"] == 0.0


def test_privacy_coalition_too_large():
    _, params, em = example_instance()
    with pytest.raises(ValueError):
        pirproto.verify_privacy(params, em, [0, 1], mode="exact")


def test_sabotaged_protocol_detected():
    """Without blinding, the spy's view determines the file: TV distance 1."""
    _, params, em = example_instance()
    zero = [0] * 6
    views = []
    for iota in (0, 1):
        cws = [[zero, zero] for _ in range(params.d)]
        qs = pirproto._queries_from_codewords(params, em, iota, cws)
        views.append(pirproto._view(qs, [0]))
    assert views[0] != views[1]


def test_privacy_statistical_mode():
    enc, _, _ = grs_instance(F=2, ks=(1, 1), T=2, n=3, beta=1, q=2, L=2, N=3)
    params = pirproto.plan_protocol(enc, T=2, n=3)
    em = pirproto.build_erasure_matrix(params)
    rng = np.random.default_rng(0)
    rep = pirproto.verify_privacy(params, em, [0, 2], mode="statistical",
                                  sessions=4000, rng=rng)
    assert not rep["reject"]


def test_chi2_view_test_serves_both_privacy_checks():
    """The one chi-square routine gives verify_privacy's statistical
    p-value on the same sampled sessions (a coalition with 16 possible
    views, which 500 sessions cover), and rejects queries built from
    all-zero blinding codewords, whose view determines the file."""
    _, params, em = grs_instance(F=2, ks=(1, 1), T=2, n=3, beta=1, q=2, L=2, N=3)
    rng = np.random.default_rng(4)
    direct = pirproto.chi2_view_test(
        params, [0, 2], 500, rng,
        lambda iota: pirproto.generate_queries(params, em, params.cached[iota], rng))
    rep = pirproto.verify_privacy(params, em, [0, 2], mode="statistical",
                                  sessions=500, rng=np.random.default_rng(4))
    assert direct == rep["p_value"] and not rep["reject"]
    _, params, em = example_instance()
    zero = [[[0] * params.n for _ in range(params.width)] for _ in range(params.d)]
    sabotaged = pirproto.chi2_view_test(
        params, [0], 400, np.random.default_rng(8),
        lambda iota: pirproto._queries_from_codewords(params, em, iota, zero))
    assert sabotaged < 1e-6


@pytest.mark.parametrize("damage", ["short", "missing"])
def test_recover_rejects_missing_or_short_response(damage):
    enc, params, em = example_instance()
    qs = pirproto.generate_queries(params, em, 1, np.random.default_rng(5))
    resp = pirproto.collect_responses(params, qs, [enc.cache_column(j) for j in range(6)])
    resp[3] = resp[3][:-1] if damage == "short" else None
    with pytest.raises(ProtocolError, match="need 6 responses of 5 subresponses each"):
        pirproto.recover(params, em, qs, resp)


def test_corrupted_multirate_response_fails_typed():
    """On a multi-rate cache (k in {1, 2}, q = 8), a subresponse with 1,
    2^5 or 2^20 XOR-ed in either raises ProtocolError or returns bits;
    it never surfaces as a bare ValueError."""
    rng = np.random.default_rng(0)
    mu = [Fraction(1)] * 2 + [Fraction(1, 2)] * 4 + [Fraction(0)] * 2
    lib = cache.FileLibrary.random(8, 4, 24, [1 / 8] * 8, rng)
    enc = cache.EncodedCache(lib, cache.CachingScheme(6, sum(mu), mu, q=8))
    params = pirproto.plan_protocol(enc, T=1, n=6)
    em = pirproto.build_erasure_matrix(params)
    cols = [enc.cache_column(c) for c in params.coords]
    for i in (0, 2):
        qs = pirproto.generate_queries(params, em, i, rng)
        resp = pirproto.collect_responses(params, qs, cols)
        assert pirproto.recover(params, em, qs, resp) == lib.files[i]
        for l, j, v in product(range(params.n), range(params.d), (1, 1 << 5, 1 << 20)):
            bad = [list(r) for r in resp]
            bad[l][j] ^= v
            try:
                pirproto.recover(params, em, qs, bad)
            except ProtocolError:
                pass


def reference_recover(params, em, queries, responses):
    """Recovery with one elimination per round and one per stripe: the
    implementation that the plan-time matrices replaced, kept as their
    reference.  Round j solves H_J x = H rho_j; each stripe's symbols are
    decoded through their ints with codes.solve_message."""
    big = params.big_field
    i = queries.file_index
    H, Gamma = params.Ctilde.H, params.Gamma
    if len(responses) != params.n or any(r is None or len(r) != params.d for r in responses):
        raise ProtocolError(f"need {params.n} responses of {params.d} subresponses each")
    try:
        rho = big.digits([s for r in responses for s in r]).reshape(params.n, params.d, -1)
    except ValueError as e:
        raise ProtocolError(f"malformed response: {e}")
    s_assign = pirproto._s_assignment(em, params.d, params.n)
    recovered = {}  # (stripe m, coord l) -> digits
    for j in range(params.d):
        syndrome = gf.matmul(big.q, H, rho[:, j]).tolist()
        support = em.J[j]
        aug = [[Hrow[l] for l in support] + s for Hrow, s in zip(H, syndrome)]
        R, pivots = gf.rref(params.base_field, aug)
        if pivots != list(range(Gamma)):
            raise ProtocolError("inconsistent responses: corrupted subresponse")
        for l, row in zip(support, R):
            recovered[(s_assign[(l, j)], l)] = row[Gamma:]
    code, delta = params.cache.codes[i], params.cache.deltas[i]
    symbol_bits = delta * params.base_field.degree
    stripes_bits = []
    for m in range(params.beta):
        I = sorted(em.I_sets[m])
        digits = np.array([recovered[(m, l)] for l in I])
        try:
            symbols = big.ints(gf.project(digits, delta))
            word = [None] * code.n
            for l, sym in zip(I, symbols):
                word[params.coords[l]] = sym
            msg = codes.solve_message(code, word)
        except ValueError as e:
            raise ProtocolError(f"inconsistent responses: {e}")
        bits = gf.ints_to_bits(msg, symbol_bits).reshape(-1)[:params.cache.library.L]
        stripes_bits.append(bits.tolist())
    return stripes_bits


def fig2_cache():
    return example_instance()[0]


def medium_cache():
    """Medium-shaped: q = 16, every file at k = 3 (n = N_sbs = 6, T = 2)."""
    mu = [Fraction(1, 3)] * 4
    lib = cache.FileLibrary.random(4, 2, 16, [0.25] * 4, np.random.default_rng(1))
    return cache.EncodedCache(lib, cache.CachingScheme(6, sum(mu), mu, q=16))


def multirate_cache():
    """Multirate-shaped: q = 8, k in {1, 2}, two uncached files."""
    mu = [Fraction(1)] * 2 + [Fraction(1, 2)] * 4 + [Fraction(0)] * 2
    lib = cache.FileLibrary.random(8, 4, 24, [1 / 8] * 8, np.random.default_rng(0))
    return cache.EncodedCache(lib, cache.CachingScheme(6, sum(mu), mu, q=8))


def reference_queries(params, em, iota, codewords):
    """The per-entry loop that the array builder replaced, kept as its
    reference: Q[l][j][t] = codewords[j][t][l], plus 1 at t = beta*iota + s
    on every round j whose erasure-matrix row covers l."""
    F = params.base_field
    s_assign = pirproto._s_assignment(em, params.d, params.n)
    Q = []
    for l in range(params.n):
        rows = []
        for j in range(params.d):
            row = [codewords[j][t][l] for t in range(params.width)]
            if em.Ehat[j][l]:
                t = params.beta * iota + s_assign[(l, j)]
                row[t] = F.add(row[t], 1)
            rows.append(row)
        Q.append(rows)
    return Q


@pytest.mark.parametrize("make_cache,T", [(fig2_cache, 1), (medium_cache, 2),
                                          (multirate_cache, 1)])
def test_queries_match_reference_builder(make_cache, T):
    """For every requested position and random blinding codewords, Q equals
    the reference's; the plan's unit slots (l, j, s) are beta*k_max
    pairwise distinct triples, as fancy-index XOR adds a repeated one once."""
    enc = make_cache()
    params = pirproto.plan_protocol(enc, T, enc.scheme.N_sbs)
    em = pirproto.build_erasure_matrix(params)
    assert len(set(zip(*em.units.tolist()))) == em.units.shape[1] == \
        params.beta * enc.scheme.k_max
    rng = np.random.default_rng(3)
    for iota in range(len(params.cached)):
        cws = rng.integers(params.base_field.order, size=(params.d, params.width, params.n))
        qs = pirproto._queries_from_codewords(params, em, iota, cws)
        assert qs.Q.tolist() == reference_queries(params, em, iota, cws.tolist())


def outcome(recover, params, em, qs, resp):
    try:
        return recover(params, em, qs, resp)
    except ProtocolError:
        return ProtocolError


@pytest.mark.parametrize("make_cache,T", [(fig2_cache, 1), (medium_cache, 2),
                                          (multirate_cache, 1)])
def test_recover_matches_reference_under_corruption(make_cache, T):
    """At every in-range count b, a session's recovery equals the
    reference's, and so does every corrupted copy of its responses (1,
    2^5 or 2^20 XOR-ed into one subresponse, one response dropped or
    short): the same bits, or ProtocolError from both."""
    enc = make_cache()
    net = simnet.Network(enc, [1.0])
    n, rng = enc.scheme.N_sbs, np.random.default_rng(7)
    cached = enc.scheme.cached_files()
    for b in range(n + 1):
        tr = simnet.run_retrieval(net, T, n, cached[b % len(cached)], rng, b=b,
                                  keep_messages=True)
        params = pirproto.plan_protocol(enc, T, n, tr.coords)
        em = pirproto.build_erasure_matrix(params)
        resp = tr.responses
        assert pirproto.recover(params, em, tr.queries, resp) == \
            reference_recover(params, em, tr.queries, resp) == enc.library.files[tr.file_index]
        damaged = []
        for l, j, v in product(range(n), range(params.d), (1, 1 << 5, 1 << 20)):
            bad = [list(r) for r in resp]
            bad[l][j] ^= v
            damaged.append(bad)
        damaged += [resp[:2] + [None] + resp[3:], resp[:2] + [resp[2][:-1]] + resp[3:]]
        for bad in damaged:
            assert outcome(pirproto.recover, params, em, tr.queries, bad) == \
                outcome(reference_recover, params, em, tr.queries, bad)


def test_surplus_symbol_of_low_rate_stripe_is_checked():
    """A k = 1 file's stripe gets k_max = 2 symbols; corrupting either one
    in its low digit (so it still fits delta_i digits) must raise."""
    enc = multirate_cache()
    params = pirproto.plan_protocol(enc, T=1, n=6)
    em = pirproto.build_erasure_matrix(params)
    qs = pirproto.generate_queries(params, em, 0, np.random.default_rng(3))
    resp = pirproto.collect_responses(params, qs, [enc.cache_column(c) for c in params.coords])
    assert enc.scheme.k[0] == 1 and pirproto.recover(params, em, qs, resp) == enc.library.files[0]
    for row in em.gather:
        for slot in row:
            # XOR into coordinate J_j[t]'s round-j subresponse moves only
            # the freed symbol (j, t), since D_j's column J_j[t] is e_t
            j, t = divmod(int(slot), params.Gamma)
            bad = [list(r) for r in resp]
            bad[em.J[j][t]][j] ^= 1
            with pytest.raises(ProtocolError, match="not consistent with the code"):
                pirproto.recover(params, em, qs, bad)


def test_planned_session_needs_no_elimination(monkeypatch):
    """After planning, a full cached session (queries, responses,
    recovery) runs without gf.rref."""
    net = simnet.Network(multirate_cache(), [1.0])
    simnet.run_retrieval(net, 1, 6, 2, np.random.default_rng(0), b=6)

    def no_rref(*args):
        raise AssertionError("gf.rref called after planning")

    monkeypatch.setattr(gf, "rref", no_rref)
    for f in (0, 2, 5):
        tr = simnet.run_retrieval(net, 1, 6, f, np.random.default_rng(f), b=6)
        assert tr.success and tr.cached


def test_exact_privacy_refuses_before_enumerating():
    """q^T = 2^28 blinding messages: the refusal must come from the size
    check, not from building the message list, so it fits in 1 GB."""
    code = ("import resource; resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "from fractions import Fraction\n"
            "import numpy as np\n"
            "from edgepir import cache, pirproto\n"
            "lib = cache.FileLibrary.random(1, 1, 7, [1.0], np.random.default_rng(0))\n"
            "scheme = cache.CachingScheme(5, 1, [Fraction(1)], q=128)\n"
            "params = pirproto.plan_protocol(cache.EncodedCache(lib, scheme), T=4, n=5)\n"
            "em = pirproto.build_erasure_matrix(params)\n"
            "try:\n"
            "    pirproto.verify_privacy(params, em, [0], mode='exact')\n"
            "except ValueError as e:\n"
            "    print(type(e).__name__, e)\n")
    src = os.path.dirname(os.path.dirname(pirproto.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == \
        "ValueError randomness space too large for exact enumeration"
