"""Linear / GRS code constructions and erasure handling."""

import random
from itertools import combinations, product

import pytest

from edgepir import codes, gf


GF8 = gf.make_field(8)
GF2 = gf.make_field(2)


# -- reference: scalar base-q digits, one divmod per digit -----------------

def ref_to_digits(x, q, delta):
    """The delta base-q digits of x, least significant first."""
    out = []
    for _ in range(delta):
        x, d = divmod(x, q)
        out.append(d)
    return out


def ref_from_digits(digits, q):
    """Inverse of ref_to_digits."""
    x = 0
    for d in reversed(digits):
        x = x * q + d
    return x


def ref_min_weight(field, rows):
    """Minimum Hamming weight of the non-zero words in the span of rows,
    by enumerating all q^len(rows) combinations (desk scale only)."""
    best = None
    for msg in product(range(field.order), repeat=len(rows)):
        word = [0] * len(rows[0])
        for c, row in zip(msg, rows):
            word = [w ^ field.mul(c, x) for w, x in zip(word, row)]
        weight = sum(1 for x in word if x)
        if weight and (best is None or weight < best):
            best = weight
    return best


def test_grs_k1_generator_is_v():
    c = codes.grs(GF8, 3, 1, kappa=[1, 2, 3])
    assert c.G.tolist() == [[1, 1, 1]]


def test_grs_full_dimension_is_full_space():
    c = codes.grs(GF8, 4, 4)
    assert gf.rank(GF8, c.G) == 4
    assert c.H.shape == (0, 4)


def test_grs_every_k_subset_information_set():
    c = codes.grs(GF8, 5, 2)
    for I in combinations(range(5), 2):
        assert codes.is_information_set(c, I)


def test_grs_rejects_bad_parameters():
    with pytest.raises(ValueError):
        codes.grs(GF8, 5, 2, kappa=[1, 2, 3, 4, 4])
    with pytest.raises(ValueError):
        codes.grs(GF8, 8, 2)  # needs n <= q-1
    with pytest.raises(ValueError):
        codes.grs(GF8, 3, 4)


def test_grs_parity_check_annihilates_generator():
    c = codes.grs(GF8, 6, 3)
    for grow in c.G:
        for hrow in c.H:
            assert sum_dot(GF8, grow, hrow) == 0


def sum_dot(F, a, b):
    acc = 0
    for x, y in zip(a, b):
        acc = F.add(acc, F.mul(x, y))
    return acc


def test_grs_nesting():
    """Codewords of the (n,k) code lie in the (n,k') code for k < k'."""
    for k, kp in [(1, 2), (2, 3), (1, 3), (3, 5)]:
        small = codes.grs(GF8, 6, k)
        big = codes.grs(GF8, 6, kp)
        for row in small.G:
            assert big.contains(row)


def test_repetition_and_spc_codes():
    rep = codes.repetition_code(GF2, 6)
    assert rep.G.tolist() == [[1] * 6]
    assert rep.mds
    spc = codes.spc_code(GF2, 6)
    assert spc.k == 5 and spc.n == 6
    assert spc.mds
    # parity check is the all-ones row
    assert len(spc.H) == 1 and all(x == 1 for x in spc.H[0])


def test_linear_code_rejects_rank_deficient():
    with pytest.raises(ValueError):
        codes.LinearCode(GF2, [[1, 1], [1, 1]])


@pytest.mark.parametrize("make,match", [
    (lambda: codes.LinearCode(GF8, []), "generator matrix is empty"),
    (lambda: codes.LinearCode(GF8, [[1, 2, 3], [1, 2]]), "generator matrix is ragged"),
    (lambda: codes.LinearCode(GF8, [[1, 9, 3]]), r"generator matrix has an entry not in GF\(8\)"),
    (lambda: codes.grs(GF8, 6, 3).contains([1, 2, 3]), "word must be 6 field elements"),
    (lambda: codes.grs(GF8, 6, 3).contains([9, 0, 0, 0, 0, 0]),
     r"word has an entry not in GF\(8\)"),
    (lambda: codes.grs(GF8, 6, 3).encode([9, 1, 1]), r"message has an entry not in GF\(8\)"),
], ids=["empty", "ragged", "generator-entry", "word-length", "word-entry", "message-entry"])
def test_malformed_code_input_raises_value_error(make, match):
    """Malformed generators, words and messages raise ValueError naming
    the problem, not an IndexError or numpy's broadcast message."""
    with pytest.raises(ValueError, match=match):
        make()


def test_linear_code_eliminates_generator_once(monkeypatch):
    """The rank check and the parity-check matrix come from one rref of G."""
    grs = codes.grs(GF8, 6, 3)
    calls = []
    rref = gf.rref
    monkeypatch.setattr(gf, "rref", lambda F, A: calls.append(A) or rref(F, A))
    c = codes.LinearCode(GF8, grs.G)
    assert [A.tolist() for A in calls] == [grs.G.tolist()]
    assert c.H.tolist() == grs.H.tolist()
    with pytest.raises(ValueError, match="rank deficient"):
        codes.LinearCode(GF8, [[1, 2, 3], [2, 4, 6]])
    assert len(calls) == 2


def test_identity_generator_no_redundancy():
    c = codes.LinearCode(GF2, [[1, 0], [0, 1]])
    assert c.H.shape == (0, 2)
    assert not codes.correctable(c, [1, 0])


def test_puncture_keep_all_identity():
    c = codes.grs(GF8, 5, 2)
    p = codes.puncture(c, range(5))
    assert p.G.tolist() == c.G.tolist()


def test_puncture_grs_restricts_parameters():
    c = codes.grs(GF8, 5, 2)
    p = codes.puncture(c, [0, 1, 2])
    assert isinstance(p, codes.GrsCode)
    assert p.kappa == c.kappa[:3]
    for I in combinations(range(3), 2):
        assert codes.is_information_set(p, I)


def test_puncture_below_k_raises():
    c = codes.grs(GF8, 5, 3)
    with pytest.raises(ValueError):
        codes.puncture(c, [0, 1])


def test_hadamard_with_repetition_is_identity():
    c = codes.grs(GF8, 5, 3)
    rep = codes.grs(GF8, 5, 1)
    h = codes.hadamard(rep, c)
    assert h.k == c.k
    for row in c.G:
        assert h.contains(row)


def test_hadamard_grs_dimension_law():
    a = codes.grs(GF8, 5, 2)
    h = codes.hadamard(a, a)
    assert h.k == 3
    for ka, kb in [(1, 2), (2, 3), (1, 4)]:
        ca, cb = codes.grs(GF8, 6, ka), codes.grs(GF8, 6, kb)
        assert codes.hadamard(ca, cb).k == ka + kb - 1


def test_worked_example_retrieval_code():
    """(repetition + SPC) Hadamard repetition = SPC over GF(2), n = 6."""
    c1 = codes.repetition_code(GF2, 6)
    c2 = codes.spc_code(GF2, 6)
    s = codes.sum_code(c1, c2)
    assert s.k == c2.k
    for row in c2.G:
        assert s.contains(row)
    tilde = codes.hadamard(s, c1)
    assert tilde.k == 5
    for row in tilde.G:
        assert c2.contains(row)


def test_sum_code_idempotent_and_rank():
    c = codes.grs(GF8, 5, 2)
    assert codes.sum_code(c, c).k == 2
    rnd = random.Random(0)
    for _ in range(10):
        Ga = [[rnd.randrange(8) for _ in range(5)] for _ in range(2)]
        Gb = [[rnd.randrange(8) for _ in range(5)] for _ in range(2)]
        if gf.rank(GF8, Ga) < 2 or gf.rank(GF8, Gb) < 2:
            continue
        a, b = codes.LinearCode(GF8, Ga), codes.LinearCode(GF8, Gb)
        assert codes.sum_code(a, b).k == gf.rank(GF8, Ga + Gb)


def test_information_set_counting_grs_5_3():
    c = codes.grs(GF8, 5, 3)
    count = sum(codes.is_information_set(c, I)
                for I in combinations(range(5), 3))
    assert count == 10


def test_spc_information_set():
    spc = codes.spc_code(GF2, 6)
    assert codes.is_information_set(spc, [0, 1, 2, 3, 4])
    rep = codes.repetition_code(GF2, 6)
    for j in range(6):
        assert codes.is_information_set(rep, [j])


def test_correctable_trivial_and_singleton_bound():
    c = codes.grs(GF8, 6, 3)
    assert codes.correctable(c, [0] * 6)
    # weight n-k+1 = 4 exceeds the Singleton bound
    assert not codes.correctable(c, [1, 1, 1, 1, 0, 0])


def test_correctable_exhaustive_grs_6_3_matches_decoder():
    c = codes.grs(GF8, 6, 3)
    msg = [3, 5, 1]
    cw = c.encode(msg)
    for pattern in product([0, 1], repeat=6):
        ok = codes.correctable(c, list(pattern))
        if sum(pattern) <= 3:
            assert ok  # MDS corrects any n-k erasures
        word = [None if e else x for x, e in zip(cw, pattern)]
        try:
            dec = codes.erasure_decode(c, word)
            succeeded = dec == cw
        except ValueError:
            succeeded = False
        assert ok == succeeded


def test_erasure_decode_no_erasures_identity():
    c = codes.grs(GF8, 5, 2)
    cw = c.encode([4, 6])
    assert codes.erasure_decode(c, cw) == cw


def test_erasure_decode_repetition():
    rep = codes.repetition_code(GF2, 6)
    word = [None] * 6
    word[3] = 1
    assert codes.erasure_decode(rep, word) == [1] * 6


def test_erasure_decode_grs_roundtrip_random():
    c = codes.grs(GF8, 7, 3)
    rnd = random.Random(9)
    for _ in range(20):
        msg = [rnd.randrange(8) for _ in range(3)]
        cw = c.encode(msg)
        erase = rnd.sample(range(7), 4)
        word = [None if j in erase else x for j, x in enumerate(cw)]
        assert codes.erasure_decode(c, word) == cw


def test_erasure_decode_symbols_of_several_digits():
    """Symbols of delta GF(q) digits decode with one right-hand side per
    digit: a repetition code over GF(2) on 5-digit symbols, and a GRS code
    over GF(8) on 4-digit symbols checked digit by digit."""
    rep = codes.repetition_code(GF2, 6)
    word = [None] * 6
    word[0] = 27
    assert codes.erasure_decode(rep, word) == [27] * 6
    c = codes.grs(GF8, 7, 3)
    rnd = random.Random(4)
    msg = [rnd.randrange(8 ** 4) for _ in range(3)]
    per_digit = [c.encode([ref_to_digits(m, 8, 4)[e] for m in msg]) for e in range(4)]
    cw = [ref_from_digits([per_digit[e][j] for e in range(4)], 8) for j in range(7)]
    word = [None, cw[1], None, cw[3], None, cw[5], None]
    assert codes.solve_message(c, word) == msg
    assert codes.erasure_decode(c, word) == cw
    word[0] = cw[0] ^ (1 << 9)  # one corrupted high digit
    with pytest.raises(ValueError, match="not consistent"):
        codes.solve_message(c, word)


def test_dual_min_distance():
    assert codes.dual_min_distance(codes.grs(GF8, 6, 2)) == 3
    assert codes.dual_min_distance(codes.repetition_code(GF2, 6)) == 2
    assert codes.dual_min_distance(codes.puncture(codes.grs(GF8, 6, 2), [0, 2, 4, 5])) == 3
    with pytest.raises(ValueError, match="trivial"):
        codes.dual_min_distance(codes.grs(GF8, 4, 4))


def test_dual_min_distance_refuses_codes_not_known_mds():
    """A sum of MDS codes, or a code built from a generator, is not known
    to be MDS, so its dual distance is refused rather than guessed."""
    summed = codes.sum_code(codes.grs(GF8, 6, 2), codes.repetition_code(GF8, 6))
    generic = codes.LinearCode(GF2, [[1, 0, 0, 0], [0, 1, 0, 0]])
    for c in (summed, generic):
        assert c.mds is None
        with pytest.raises(ValueError, match="known to be MDS"):
            codes.dual_min_distance(c)


def test_dual_min_distance_of_mds_codes_is_k_plus_1():
    """k + 1 for every MDS code mds_code builds over GF(2), GF(4) and
    GF(8) with n <= 5 (GRS, repetition and single parity-check), against
    an exhaustive weight scan of the dual."""
    checked = 0
    for q in (2, 4, 8):
        F = gf.make_field(q)
        for n in range(2, 6):
            for k in range(1, n):
                try:
                    c = codes.mds_code(F, n, k)
                except ValueError:
                    continue
                assert codes.dual_min_distance(c) == ref_min_weight(F, c.H) == k + 1
                checked += 1
    assert checked == 24


def test_mds_flag_exhaustive_small():
    """The flag is set by construction, and every code that carries it
    has every k-subset of coordinates as an information set."""
    flagged = [codes.grs(GF8, 6, 3), codes.spc_code(GF2, 6), codes.repetition_code(GF2, 5),
               codes.puncture(codes.spc_code(GF2, 6), [0, 1, 2, 3, 4])]
    for c in flagged:
        assert c.mds is True
        assert all(codes.is_information_set(c, I) for I in combinations(range(c.n), c.k))
    not_mds = codes.LinearCode(GF2, [[1, 0, 0, 0], [0, 1, 0, 0]])
    assert not_mds.mds is None and not codes.is_information_set(not_mds, [2, 3])


@pytest.mark.parametrize("n,k", [(4, 2), (5, 3), (6, 2), (7, 4), (8, 5)])
def test_grs_mds_exhaustive(n, k):
    F = gf.make_field(8) if n <= 7 else gf.make_field(16)
    c = codes.grs(F, n, k)
    for I in combinations(range(n), k):
        assert codes.is_information_set(c, I)


def test_solve_message_recovers_message_and_rejects_bad_words():
    c = codes.grs(GF8, 7, 3)
    msg = [5, 0, 7]
    cw = c.encode(msg)
    word = [None, cw[1], None, cw[3], None, None, cw[6]]
    assert codes.solve_message(c, word) == msg
    with pytest.raises(ValueError, match="no information set"):
        codes.solve_message(c, [None, cw[1], None, cw[3], None, None, None])
    word[0] = GF8.add(cw[0], 1)
    with pytest.raises(ValueError, match="not consistent"):
        codes.solve_message(c, word)
