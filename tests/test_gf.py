"""Finite-field arithmetic and linear algebra."""

import random
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgepir import gf


SMALL_FIELDS = [
    gf.make_field(2), gf.make_field(4), gf.make_field(8),
    gf.make_field(32), gf.ExtField(2),
]


# -- reference: GF(p) by residues mod p ------------------------------------
# The prime-field class GF(2) was before it became GF(2^m) with m = 1, kept
# as its reference and as the coefficient arithmetic of the polynomial
# reference below.

class RefPrimeField:
    def __init__(self, p):
        self.order = p

    def add(self, a, b):
        return (a + b) % self.order

    def sub(self, a, b):
        return (a - b) % self.order

    def neg(self, a):
        return (-a) % self.order

    def mul(self, a, b):
        return (a * b) % self.order

    def inv(self, a):
        if a % self.order == 0:
            raise ZeroDivisionError("inverse of 0")
        return pow(a, self.order - 2, self.order)

    def pow(self, a, e):
        if e < 0:
            return self.inv(self.pow(a, -e))
        return pow(a, e, self.order)


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


def ref_mat_mul(F, A, B):
    """A B over F, one field product per pair of entries."""
    out = [[0] * len(B[0]) for _ in A]
    for i, Ai in enumerate(A):
        for t, Bt in enumerate(B):
            for j, b in enumerate(Bt):
                out[i][j] = F.add(out[i][j], F.mul(Ai[t], b))
    return out


# -- reference: polynomial arithmetic over GF(2) ----------------------------
# The implementation that the table-driven GF(2^m) replaced, kept as its
# reference: coefficient lists (c[j] is the coefficient of x^j), long
# division, extended Euclid, Rabin's irreducibility test and the
# lexicographic search for the default modulus.

GF2 = RefPrimeField(2)


def _trim(c):
    while c and c[-1] == 0:
        c.pop()
    return c


def ref_poly_add(a, b):
    n = max(len(a), len(b))
    return _trim([GF2.add(a[i] if i < len(a) else 0, b[i] if i < len(b) else 0)
                  for i in range(n)])


def ref_poly_mul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            if x and y:
                out[i + j] = GF2.add(out[i + j], GF2.mul(x, y))
    return _trim(out)


def ref_poly_divmod(a, b):
    a = _trim(list(a))
    q = [0] * max(0, len(a) - len(b) + 1)
    while len(a) >= len(b):
        coef = GF2.mul(a[-1], GF2.inv(b[-1]))
        deg = len(a) - len(b)
        q[deg] = coef
        for i, y in enumerate(b):
            a[deg + i] = GF2.sub(a[deg + i], GF2.mul(coef, y))
        _trim(a)
    return _trim(q), a


def ref_poly_mod(a, b):
    return ref_poly_divmod(a, b)[1]


def ref_poly_powmod(a, e, mod):
    result, base = [1], ref_poly_mod(list(a), mod)
    while e:
        if e & 1:
            result = ref_poly_mod(ref_poly_mul(result, base), mod)
        e >>= 1
        if e:
            base = ref_poly_mod(ref_poly_mul(base, base), mod)
    return result


def ref_is_irreducible(coeffs):
    """Rabin: monic f of degree d is irreducible over GF(2) iff
    x^(2^d) = x (mod f) and gcd(x^(2^(d/p)) - x, f) = 1 for every prime
    p dividing d."""
    c = _trim(list(coeffs))
    d = len(c) - 1
    if d < 1:
        return False
    primes = [p for p in range(2, d + 1) if d % p == 0
              and all(p % r for r in range(2, p))]
    for p in primes:
        a, b = ref_poly_add(ref_poly_powmod([0, 1], 2 ** (d // p), c), [0, 1]), c
        while b:
            a, b = b, ref_poly_mod(a, b)
        if len(a) != 1:
            return False
    return not ref_poly_add(ref_poly_powmod([0, 1], 2 ** d, c), [0, 1])


def ref_modulus(m):
    """The lexicographically smallest (in the digit encoding) monic
    irreducible polynomial of degree m over GF(2)."""
    for idx in range(2 ** m):
        cand = [(idx >> j) & 1 for j in range(m)] + [1]
        if ref_is_irreducible(cand):
            return tuple(cand)


class RefField:
    """GF(2)[x]/f by polynomial arithmetic on digit lists."""

    def __init__(self, modulus):
        self.f, self.m = list(modulus), len(modulus) - 1

    def coeffs(self, a):
        return [(a >> j) & 1 for j in range(self.m)]

    def value(self, c):
        return sum(x << j for j, x in enumerate(c))

    def add(self, a, b):
        return self.value([GF2.add(x, y) for x, y in zip(self.coeffs(a), self.coeffs(b))])

    def sub(self, a, b):
        return self.value([GF2.sub(x, y) for x, y in zip(self.coeffs(a), self.coeffs(b))])

    def neg(self, a):
        return self.value([GF2.neg(x) for x in self.coeffs(a)])

    def mul(self, a, b):
        prod = ref_poly_mul(_trim(self.coeffs(a)), _trim(self.coeffs(b)))
        return self.value(ref_poly_mod(prod, self.f))

    def inv(self, a):
        """Extended Euclid on (a, f)."""
        r0, r1 = list(self.f), _trim(self.coeffs(a))
        s0, s1 = [], [1]
        while r1:
            q, r = ref_poly_divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, ref_poly_add(s0, ref_poly_mul(q, s1))
        return self.value(ref_poly_mod(s0, self.f))

    def pow(self, a, e):
        if e < 0:
            return self.inv(self.pow(a, -e))
        out = 1
        while e:
            if e & 1:
                out = self.mul(out, a)
            a = self.mul(a, a)
            e >>= 1
        return out


def test_make_field_rejects_non_prime_power():
    for q in (6, 10, 12, 1, 0):
        with pytest.raises(ValueError):
            gf.make_field(q)


def test_make_field_refuses_every_q_but_2_to_the_m():
    """One refusal, naming the constraint, for every q that is not 2^m
    with 1 <= m <= 16: odd primes, odd prime powers, q < 2 and q > 2^16."""
    for q in (0, 1, 3, 5, 6, 7, 9, 12, 65537, 1 << 17):
        with pytest.raises(ValueError, match=r"q must be 2\^m, 1 <= m <= 16"):
            gf.make_field(q)
    assert [gf.field_degree(1 << m) for m in range(1, 17)] == list(range(1, 17))


def test_ext_field_rejects_reducible_modulus():
    # x^2 + 1 = (x+1)^2 over GF(2)
    with pytest.raises(ValueError):
        gf.ExtField(2, modulus=(1, 0, 1))


def test_gf2_basics():
    F = gf.make_field(2)
    assert F.mul(1, 1) == 1
    assert F.add(1, 1) == 0


def test_gf2_is_the_prime_field_exhaustive():
    """GF(2) as GF(2^m) with m = 1 (modulus x, generator 1) against the
    residue arithmetic mod 2 of the prime field it replaced."""
    F, ref = gf.make_field(2), RefPrimeField(2)
    assert F.modulus == (0, 1) and F._log[:2] == [4, 0]
    for a in range(2):
        assert [F.add(a, b) for b in range(2)] == [ref.add(a, b) for b in range(2)]
        assert [F.mul(a, b) for b in range(2)] == [ref.mul(a, b) for b in range(2)]
        exps = range(-3, 4) if a else range(4)
        assert [F.pow(a, e) for e in exps] == [ref.pow(a, e) for e in exps]
        if a:
            assert F.inv(a) == ref.inv(a)
        else:
            with pytest.raises(ZeroDivisionError):
                F.pow(a, -1)
            with pytest.raises(ZeroDivisionError):
                ref.pow(a, -1)


def test_gf4_defining_polynomial():
    # with modulus x^2 + x + 1, alpha * alpha = alpha + 1
    F = gf.ExtField(2, modulus=(1, 1, 1))
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
        assert F.add(a, a) == 0  # a is its own negative
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
    """The product table against polynomial multiplication and reduction,
    for every pair of elements."""
    F = gf.make_field(q)
    ref = RefField(F.modulus)
    assert F._mul_tab == [[ref.mul(a, b) for b in range(q)] for a in range(q)]


def test_gf256_table_matches_polynomial_mul_sampled():
    F = gf.make_field(256)
    ref = RefField(F.modulus)
    rnd = random.Random(256)
    pairs = [(rnd.randrange(256), rnd.randrange(256)) for _ in range(4096)]
    assert all(F.mul(a, b) == ref.mul(a, b) for a, b in pairs)
    assert all(type(x) is int for row in F._mul_tab for x in row)


@pytest.mark.parametrize("m", range(2, 9))
def test_field_ops_match_polynomial_reference_exhaustive(m):
    """add/mul/inv/pow of GF(2^m) against polynomial arithmetic, for every
    element and pair of elements, negative exponents included; the
    reference's subtraction is the field's add and its negation the
    identity."""
    q = 1 << m
    F = gf.make_field(q)
    ref = RefField(F.modulus)
    for a in range(q):
        assert a == ref.neg(a)
        assert [F.add(a, b) for b in range(q)] == [ref.add(a, b) for b in range(q)]
        assert [F.add(a, b) for b in range(q)] == [ref.sub(a, b) for b in range(q)]
        assert [F.mul(a, b) for b in range(q)] == [ref.mul(a, b) for b in range(q)]
        exps = [0, 1, 2, 3, q - 2, q - 1, q, 2 * q + 5]
        if a:
            assert F.inv(a) == ref.inv(a)
            exps += [-1, -2, -q]
        assert [F.pow(a, e) for e in exps] == [ref.pow(a, e) for e in exps]


def test_gf4096_ops_match_polynomial_reference_sampled():
    F = gf.make_field(1 << 12)
    assert F._mul_tab is None  # products by log/antilog tables
    ref = RefField(F.modulus)
    rnd = random.Random(12)
    for _ in range(4096):
        a, b, e = rnd.randrange(1, 4096), rnd.randrange(4096), rnd.randrange(-40, 40)
        assert (F.add(a, b), F.add(a, b), b, F.mul(a, b), F.inv(a), F.pow(a, e)) \
            == (ref.add(a, b), ref.sub(a, b), ref.neg(b), ref.mul(a, b), ref.inv(a), ref.pow(a, e))
    assert F.mul(0, 7) == F.mul(7, 0) == F.pow(0, 5) == 0 and F.pow(0, 0) == 1


@pytest.mark.parametrize("q", [1 << 10, 1 << 16])
def test_sub_scaled_without_table(q):
    """The elimination row operations of a field without a product table."""
    F = gf.make_field(q)
    rnd = random.Random(q)
    x = [rnd.randrange(q) for _ in range(30)] + [0, 5]
    y = [rnd.randrange(q) for _ in range(30)] + [0, 0]
    for c in (1, 2, q - 1, rnd.randrange(1, q)):
        assert F.sub_scaled(x, c, y) == [F.add(v, F.mul(c, w)) for v, w in zip(x, y)]
        assert F.scaled(c, y) == [F.mul(c, w) for w in y]


def test_pinned_moduli_are_the_lexicographic_search():
    for m in range(2, 17):
        assert gf.make_field(1 << m).modulus == ref_modulus(m), m


def test_pinned_fields_generated_by_x_or_x_plus_1():
    """Why building GF(2^m) is cheap: its generator search walks the powers
    of x (a shift) and of x + 1 (a shift and an XOR) and mostly stops
    there.  x generates every pinned field but m in {8, 9, 12, 14, 16},
    and x + 1 generates those with m in {8, 12, 16}."""
    def order(F, g):
        n = F.order - 1
        return min(d for d in range(1, n + 1) if n % d == 0 and F.pow(g, d) == 1)
    for m in range(2, 17):
        F = gf.make_field(1 << m)
        assert (order(F, 2) == F.order - 1) == (m not in {8, 9, 12, 14, 16}), m
        if m in {8, 9, 12, 14, 16}:
            assert (order(F, 3) == F.order - 1) == (m in {8, 12, 16}), m


@pytest.mark.parametrize("m", range(2, 8))
def test_ext_field_accepts_exactly_the_irreducible_moduli(m):
    for idx in range(2 ** m):
        modulus = [(idx >> j) & 1 for j in range(m)] + [1]
        if ref_is_irreducible(modulus):
            F = gf.ExtField(m, modulus=modulus)
            ref = RefField(modulus)
            top = F.order - 1  # every coefficient set
            assert all(F.mul(a, F.inv(a)) == 1 for a in range(1, F.order))
            assert [F.mul(top, b) for b in F.elements()] \
                == [ref.mul(top, b) for b in F.elements()]
        else:
            with pytest.raises(ValueError, match="reducible"):
                gf.ExtField(m, modulus=modulus)


def test_ext_field_rejects_reducible_modulus_of_irreducible_factor_degrees():
    """(x^3 + x + 1)(x^3 + x^2 + 1) satisfies x^64 = x, so only the
    generator search shows it is not a field."""
    f = ref_poly_mul([1, 1, 0, 1], [1, 0, 1, 1])
    assert not ref_poly_add(ref_poly_powmod([0, 1], 64, f), [0, 1])
    with pytest.raises(ValueError, match="reducible"):
        gf.ExtField(6, modulus=f)


def test_odd_extension_fields_and_unpinned_degrees_refused():
    for q in (9, 25, 27, 49, 1 << 17):
        with pytest.raises(ValueError, match="2\\^m"):
            gf.make_field(q)
    for degree in (0, 17):
        with pytest.raises(ValueError, match="pinned"):
            gf.ExtField(degree)


def test_gf65536_builds_fast():
    """GF(2^16)'s log/antilog tables come from one walk of x's powers and
    one of x + 1's (best of two, well under 200 ms)."""
    def build():
        t = time.perf_counter()
        gf.ExtField(16)
        return time.perf_counter() - t
    assert min(build() for _ in range(2)) < 0.2


def test_gf256_builds_fast():
    """The 256 x 256 product table is built vectorised, not one polynomial
    product per entry (best of three, well under 50 ms)."""
    def build():
        t = time.perf_counter()
        gf.ExtField(8)
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
    assert got.tolist() == ref_mat_mul(F, A, D)
    if q <= 16:  # every product of two elements
        pairs = gf.matmul(q, [[a] for a in range(q)], np.arange(q).reshape(1, q))
        assert pairs.tolist() == [[F.mul(a, b) for b in range(q)] for a in range(q)]


def test_symbol_mul_scales_every_digit():
    space = gf.SymbolSpace(8, 3)
    F = gf.make_field(8)
    for c in range(8):
        for x in (0, 1, 0o123, 0o777):
            expect = [F.mul(c, d) for d in ref_to_digits(x, 8, 3)]
            assert space.mul(c, x) == ref_from_digits(expect, 8)


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
    assert digits.tolist() == [ref_to_digits(x, q, delta) for x in values]
    assert gf.digit_ints(digits, q) == values
    space = gf.SymbolSpace(q, delta)
    assert np.array_equal(space.digits(values), digits)
    assert space.ints(digits.reshape(1, -1, delta)) == [values]  # nested


def test_digit_conversion_odd_q_and_empty():
    """Odd q is refused; empty arrays convert."""
    with pytest.raises(ValueError, match="2\\^m"):
        gf.digit_array([0, 26, 7], 3, 3)
    with pytest.raises(ValueError, match="2\\^m"):
        gf.digit_ints(np.array([[2, 2, 2], [1, 2, 0]]), 3)
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
                M[i] = [F.add(x, F.mul(f, y)) for x, y in zip(M[i], M[r])]
        r += 1
    return r


def test_rank_trivial():
    F = gf.make_field(2)
    I3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert gf.rank(F, I3) == 3
    assert gf.rank(F, [[0, 0], [0, 0]]) == 0


def test_rank_random_gf8_vs_oracle():
    F = gf.make_field(8)
    rnd = random.Random(42)
    for _ in range(50):
        A = [[rnd.randrange(8) for _ in range(4)] for _ in range(4)]
        assert gf.rank(F, A) == _independent_rank(F, A)


def test_rank_product_bound():
    F = gf.make_field(8)
    rnd = random.Random(7)
    for _ in range(30):
        A = [[rnd.randrange(8) for _ in range(4)] for _ in range(3)]
        B = [[rnd.randrange(8) for _ in range(5)] for _ in range(4)]
        assert gf.rank(F, ref_mat_mul(F, A, B)) <= min(gf.rank(F, A), gf.rank(F, B))


def test_solve_returns_solution_or_raises():
    F = gf.make_field(8)
    rnd = random.Random(3)
    for _ in range(50):
        A = [[rnd.randrange(8) for _ in range(4)] for _ in range(3)]
        x0 = [rnd.randrange(8) for _ in range(4)]
        b = gf.mat_vec(F, A, x0)
        x = gf.solve(F, A, b)
        assert gf.mat_vec(F, A, x) == b


def test_solve_inconsistent_raises():
    F = gf.make_field(2)
    with pytest.raises(gf.NoSolution):
        gf.solve(F, [[1, 1], [1, 1]], [0, 1])


def test_null_space_annihilates_and_spans():
    F = gf.make_field(8)
    rnd = random.Random(11)
    for _ in range(20):
        A = [[rnd.randrange(8) for _ in range(5)] for _ in range(3)]
        ns = gf.null_space(F, A)
        assert len(ns) == 5 - gf.rank(F, A)
        for v in ns:
            assert all(x == 0 for x in gf.mat_vec(F, A, v))
        if ns:
            assert gf.rank(F, ns) == len(ns)
