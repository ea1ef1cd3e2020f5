"""Finite-field arithmetic and linear algebra."""

import random
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgepir import gf


SMALL_FIELDS = [
    gf.make_field(2), gf.make_field(3), gf.make_field(5),
    gf.make_field(4), gf.make_field(8), gf.make_field(9),
    gf.make_field(32), gf.ExtField(gf.PrimeField(2), 2),
    gf.ExtField(gf.make_field(4), 2),
]


def test_make_field_rejects_non_prime_power():
    for q in (6, 10, 12, 1, 0):
        with pytest.raises(ValueError):
            gf.make_field(q)


def test_ext_field_rejects_reducible_modulus():
    # x^2 + 1 = (x+1)^2 over GF(2)
    with pytest.raises(ValueError):
        gf.ExtField(gf.PrimeField(2), 2, modulus=(1, 0, 1))


def test_gf2_basics():
    F = gf.make_field(2)
    assert F.mul(1, 1) == 1
    assert F.add(1, 1) == 0


def test_gf5_mul():
    F = gf.make_field(5)
    assert F.mul(3, 4) == 2


def test_gf4_defining_polynomial():
    # with modulus x^2 + x + 1, alpha * alpha = alpha + 1
    F = gf.ExtField(gf.PrimeField(2), 2, modulus=(1, 1, 1))
    alpha = 2  # the polynomial x
    assert F.mul(alpha, alpha) == F.add(alpha, 1)


def test_gf4_default_is_x2_x_1():
    F = gf.make_field(4)
    assert F.modulus == (1, 1, 1)
    assert F.mul(2, 2) == 3


@pytest.mark.parametrize("F", SMALL_FIELDS, ids=repr)
def test_field_axioms_exhaustive(F):
    els = list(F.elements())
    if F.order > 16:
        rnd = random.Random(0)
        els = [0, 1] + [rnd.randrange(F.order) for _ in range(6)]
    for a in els:
        assert F.add(a, 0) == a
        assert F.mul(a, 1) == a
        assert F.mul(a, 0) == 0
        assert F.add(a, F.neg(a)) == 0
        if a != 0:
            assert F.mul(a, F.inv(a)) == 1
        for b in els:
            assert F.add(a, b) == F.add(b, a)
            assert F.mul(a, b) == F.mul(b, a)
            for c in els:
                assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
                assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
                assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))


@pytest.mark.parametrize("q", [4, 8, 16, 32, 64])
def test_gf2m_table_matches_polynomial_mul_exhaustive(q):
    """The carry-less product table against polynomial multiplication and
    reduction, for every pair of elements."""
    F = gf.make_field(q)
    assert F._mul_tab == [[F._mul_poly(a, b) for b in range(q)] for a in range(q)]


def test_gf256_table_matches_polynomial_mul_sampled():
    F = gf.make_field(256)
    rnd = random.Random(256)
    pairs = [(rnd.randrange(256), rnd.randrange(256)) for _ in range(4096)]
    assert all(F.mul(a, b) == F._mul_poly(a, b) for a, b in pairs)
    assert all(type(x) is int for row in F._mul_tab for x in row)


def test_gf256_builds_fast():
    """The 256 x 256 product table is built vectorised, not one polynomial
    product per entry (best of three, well under 50 ms)."""
    def build():
        t = time.perf_counter()
        gf.ExtField(gf.PrimeField(2), 8)
        return time.perf_counter() - t
    assert min(build() for _ in range(3)) < 0.05


def test_inv_zero_raises():
    for F in SMALL_FIELDS:
        with pytest.raises(ZeroDivisionError):
            F.inv(0)


def test_pow_matches_repeated_mul():
    F = gf.make_field(32)
    for a in (1, 7, 19, 31):
        acc = 1
        for e in range(10):
            assert F.pow(a, e) == acc
            acc = F.mul(acc, a)
    assert F.mul(F.pow(7, -3), F.pow(7, 3)) == 1


@given(st.integers(0, 31), st.integers(0, 31), st.integers(0, 31))
@settings(max_examples=200, deadline=None)
def test_gf32_ring_axioms_property(a, b, c):
    F = gf.make_field(32)
    assert F.add(a, b) == F.add(b, a)
    assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))


# -- symbols: zero-padding embedding and the digit kernel ------------------

def digits(q, delta, values):
    return gf.SymbolSpace(q, delta).digits(values)


def test_embed_fixes_0_and_1():
    padded = gf.embed(digits(2, 1, [0, 1]), 5)
    assert padded.shape == (2, 5)
    assert gf.SymbolSpace(2, 5).ints(padded) == [0, 1]


def test_embed_gf2_into_gf32_homomorphism_exhaustive():
    """Zero padding GF(2)^1 into GF(2)^5 commutes with addition and with
    scaling by GF(2)."""
    src, dst = gf.SymbolSpace(2, 1), gf.SymbolSpace(2, 5)
    emb = lambda a: dst.ints(gf.embed(src.digits([a]), 5))[0]
    for a in range(2):
        for b in range(2):
            assert emb(src.add(a, b)) == dst.add(emb(a), emb(b))
            assert emb(src.mul(b, a)) == dst.mul(b, emb(a))


@pytest.mark.parametrize("d1,d2", [(1, 2), (1, 3), (2, 4), (2, 6), (3, 6)])
def test_embed_homomorphism_and_roundtrip(d1, d2):
    """Zero padding GF(2)^d1 into GF(2)^d2 is linear, injective, keeps every
    int, and project undoes it."""
    src, dst = gf.SymbolSpace(2, d1), gf.SymbolSpace(2, d2)
    xs = list(range(src.order))
    padded = gf.embed(src.digits(xs), d2)
    assert dst.ints(padded) == xs  # the int is unchanged, so injective
    assert np.array_equal(gf.project(padded, d1), src.digits(xs))
    for a in xs:
        for b in xs:
            s = dst.ints(gf.embed(src.digits([src.add(a, b)]), d2))[0]
            assert s == dst.add(a, b)


def test_embed_rejects_fewer_digits():
    with pytest.raises(ValueError):
        gf.embed(digits(2, 5, [1]), 2)


def test_project_rejects_outside_image():
    """A symbol of GF(2)^4 with a non-zero digit above the low two is not
    in the image of GF(2)^2."""
    image = gf.SymbolSpace(2, 2).order
    for y in range(image, 16):
        with pytest.raises(ValueError, match="non-zero digit"):
            gf.project(digits(2, 4, [y]), 2)


def test_base_of_extension_tower_embeds_as_identity_ints():
    # GF(4) digits inside GF(4)^3: constants 0..3 stay themselves
    padded = gf.embed(digits(4, 1, [0, 1, 2, 3]), 3)
    assert gf.SymbolSpace(4, 3).ints(padded) == [0, 1, 2, 3]


@pytest.mark.parametrize("q", [2, 4, 8, 16, 256])
def test_matmul_matches_field_mul(q):
    """The log/antilog kernel against the field's own mul and add."""
    F = gf.make_field(q)
    rnd = random.Random(q)
    A = [[rnd.randrange(q) for _ in range(5)] for _ in range(3)]
    D = [[rnd.randrange(q) for _ in range(4)] for _ in range(5)]
    D[0] = [0] * 4
    A[1][2] = 0
    got = gf.matmul(q, A, np.array(D, np.min_scalar_type(q - 1)))
    assert got.tolist() == gf.mat_mul(F, A, D)
    if q <= 16:  # every product of two elements
        pairs = gf.matmul(q, [[a] for a in range(q)], np.arange(q).reshape(1, q))
        assert pairs.tolist() == [[F.mul(a, b) for b in range(q)] for a in range(q)]


def test_symbol_mul_scales_every_digit():
    space = gf.SymbolSpace(8, 3)
    F = gf.make_field(8)
    for c in range(8):
        for x in (0, 1, 0o123, 0o777):
            expect = [F.mul(c, d) for d in gf.to_digits(x, 8, 3)]
            assert space.mul(c, x) == gf.from_digits(expect, 8)


def test_symbol_space_rejects_out_of_range_ints():
    space = gf.SymbolSpace(8, 2)
    for bad in (-1, 64, 1 << 20):
        with pytest.raises(ValueError, match="outside"):
            space.digits([bad])
    with pytest.raises(ValueError):
        gf.SymbolSpace(9, 2)


@pytest.mark.parametrize("q,delta", [(2, 1), (2, 13), (4, 3), (8, 5), (16, 11),
                                     (32, 7), (256, 3), (512, 4), (2, 200)])
def test_digit_array_matches_scalar_digits(q, delta):
    """Bytes-and-bit-group conversion against one divmod per digit, at
    digit widths that do and do not divide a byte."""
    rnd = random.Random(q * delta)
    values = [0, 1, q ** delta - 1] + [rnd.randrange(q ** delta) for _ in range(40)]
    digits = gf.digit_array(values, q, delta)
    assert digits.shape == (len(values), delta)
    assert digits.tolist() == [gf.to_digits(x, q, delta) for x in values]
    assert gf.digit_ints(digits, q) == values
    space = gf.SymbolSpace(q, delta)
    assert np.array_equal(space.digits(values), digits)
    assert space.ints(digits.reshape(1, -1, delta)) == [values]  # nested


def test_digit_conversion_odd_q_and_empty():
    assert gf.digit_array([0, 26, 7], 3, 3).tolist() == [[0, 0, 0], [2, 2, 2], [1, 2, 0]]
    assert gf.digit_ints(np.array([[2, 2, 2], [1, 2, 0]]), 3) == [26, 7]
    assert gf.digit_array([], 8, 2).shape == (0, 2)
    assert gf.SymbolSpace(8, 2).ints(np.zeros((0, 2), np.uint8)) == []


@pytest.mark.parametrize("nbits", [1, 5, 8, 9, 44, 64, 130])
def test_bits_ints_roundtrip(nbits):
    rnd = random.Random(nbits)
    values = [rnd.randrange(1 << nbits) for _ in range(25)]
    bits = gf.ints_to_bits(values, nbits)
    assert bits.tolist() == [[(x >> (nbits - 1 - t)) & 1 for t in range(nbits)]
                             for x in values]
    assert gf.bits_to_ints(bits) == values
    assert all(type(x) is int for x in gf.bits_to_ints(bits))


# -- linear algebra ---------------------------------------------------------

def _independent_rank(F, A):
    """Second elimination routine (forward elimination only), used as an
    oracle against gf.rank."""
    M = [list(r) for r in A]
    rows, cols = len(M), len(M[0]) if M else 0
    r = 0
    for c in range(cols):
        piv = None
        for i in range(r, rows):
            if M[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        for i in range(r + 1, rows):
            if M[i][c] != 0:
                f = F.mul(M[i][c], F.inv(M[r][c]))
                M[i] = [F.sub(x, F.mul(f, y)) for x, y in zip(M[i], M[r])]
        r += 1
    return r


def test_rank_trivial():
    F = gf.make_field(2)
    I3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert gf.rank(F, I3) == 3
    assert gf.rank(F, [[0, 0], [0, 0]]) == 0


def test_rank_random_gf7_vs_oracle():
    F = gf.make_field(7)
    rnd = random.Random(42)
    for _ in range(50):
        A = [[rnd.randrange(7) for _ in range(4)] for _ in range(4)]
        assert gf.rank(F, A) == _independent_rank(F, A)


def test_rank_product_bound():
    F = gf.make_field(5)
    rnd = random.Random(7)
    for _ in range(30):
        A = [[rnd.randrange(5) for _ in range(4)] for _ in range(3)]
        B = [[rnd.randrange(5) for _ in range(5)] for _ in range(4)]
        assert gf.rank(F, gf.mat_mul(F, A, B)) <= min(gf.rank(F, A), gf.rank(F, B))


def test_solve_returns_solution_or_raises():
    F = gf.make_field(3)
    rnd = random.Random(3)
    for _ in range(50):
        A = [[rnd.randrange(3) for _ in range(4)] for _ in range(3)]
        x0 = [rnd.randrange(3) for _ in range(4)]
        b = gf.mat_vec(F, A, x0)
        x = gf.solve(F, A, b)
        assert gf.mat_vec(F, A, x) == b


def test_solve_inconsistent_raises():
    F = gf.make_field(2)
    with pytest.raises(gf.NoSolution):
        gf.solve(F, [[1, 1], [1, 1]], [0, 1])


def test_invert_roundtrip_and_singular():
    F = gf.make_field(8)
    rnd = random.Random(5)
    n = 3
    found = 0
    while found < 10:
        A = [[rnd.randrange(8) for _ in range(n)] for _ in range(n)]
        if gf.rank(F, A) < n:
            with pytest.raises(gf.Singular):
                gf.invert(F, A)
            continue
        Ainv = gf.invert(F, A)
        I = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        assert gf.mat_mul(F, A, Ainv) == I
        found += 1


def test_null_space_annihilates_and_spans():
    F = gf.make_field(5)
    rnd = random.Random(11)
    for _ in range(20):
        A = [[rnd.randrange(5) for _ in range(5)] for _ in range(3)]
        ns = gf.null_space(F, A)
        assert len(ns) == 5 - gf.rank(F, A)
        for v in ns:
            assert all(x == 0 for x in gf.mat_vec(F, A, v))
        if ns:
            assert gf.rank(F, ns) == len(ns)
