"""Exact arithmetic over prime-power fields GF(q), symbols as GF(q) digit
vectors, and dense linear algebra.

Field elements are plain Python ints in ``range(field.order)``.  For a
prime field GF(p) the int is the residue itself.  For GF(p^m) = GF(p)[x]/f
the int is read as m base-p digits, least significant digit first: digit j
is the coefficient of x^j.  So 0 and 1 are the identities of every field.

The retrieval scheme is GF(q)-linear: queries, parity checks and storage
generators all live in GF(q).  A symbol of a file cached at rate 1/k_i is
therefore a vector of delta_i GF(q) digits (:class:`SymbolSpace`), packed
into the int whose base-q digits, least significant first, are those
digits.  File i occupies the low delta_i digits of GF(q)^{delta_max}: the
inclusion zero-pads (:func:`embed`, which leaves the int unchanged) and
:func:`project` is its checked inverse.  :func:`matmul` multiplies a GF(q)
matrix into digit arrays with log/antilog tables (q = 2^m).  For q = 2^m a
symbol's big-endian bits are its digits' m-bit groups, so whole arrays of
symbols convert to digits through bytes (:func:`digit_array`,
:func:`digit_ints`).  GF(2^m) builds its product table by vectorised
carry-less multiplication.

Dense linear algebra (rank / solve / invert / null space) is provided as
module functions operating on lists of rows of ints.
"""

from __future__ import annotations

from functools import lru_cache
from math import prod
from typing import Iterable, Optional, Sequence

import numpy as np

Matrix = list  # list[list[int]]; rows of field-element ints


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def factor_prime_power(q: int) -> tuple[int, int]:
    """Return (p, m) with q = p^m, or raise ValueError if q is not a prime power."""
    if q < 2:
        raise ValueError(f"not a prime power: {q}")
    for p in range(2, q + 1):
        if q % p == 0:
            if not _is_prime(p):
                raise ValueError(f"not a prime power: {q}")
            m = 0
            r = q
            while r % p == 0:
                r //= p
                m += 1
            if r != 1:
                raise ValueError(f"not a prime power: {q}")
            return p, m
    raise ValueError(f"not a prime power: {q}")


def to_digits(x: int, q: int, delta: int) -> list[int]:
    """The delta base-q digits of x, least significant first."""
    out = []
    for _ in range(delta):
        x, d = divmod(x, q)
        out.append(d)
    return out


def from_digits(digits: Sequence[int], q: int) -> int:
    """Inverse of :func:`to_digits`."""
    x = 0
    for d in reversed(digits):
        x = x * q + d
    return x


class PrimeField:
    """GF(p) with int arithmetic mod p."""

    def __init__(self, p: int):
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.char = p
        self.order = p
        self.degree = 1  # over itself

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.order

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.order

    def neg(self, a: int) -> int:
        return (-a) % self.order

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.order

    def inv(self, a: int) -> int:
        if a % self.order == 0:
            raise ZeroDivisionError("inverse of 0")
        return pow(a, self.order - 2, self.order)

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return self.inv(self.pow(a, -e))
        return pow(a, e, self.order)

    def elements(self) -> range:
        return range(self.order)

    def nonzero(self) -> range:
        return range(1, self.order)

    def __repr__(self) -> str:
        return f"GF({self.order})"

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and other.order == self.order

    def __hash__(self) -> int:
        return hash(("PrimeField", self.order))


# ---------------------------------------------------------------------------
# polynomial helpers over an arbitrary base field (coefficient lists, c[j] is
# the coefficient of x^j, normalized to drop trailing zeros)
# ---------------------------------------------------------------------------

def _poly_trim(c: list) -> list:
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_add(F, a: Sequence[int], b: Sequence[int]) -> list:
    n = max(len(a), len(b))
    out = []
    for i in range(n):
        x = a[i] if i < len(a) else 0
        y = b[i] if i < len(b) else 0
        out.append(F.add(x, y))
    return _poly_trim(out)


def _poly_mul(F, a: Sequence[int], b: Sequence[int]) -> list:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            if y:
                out[i + j] = F.add(out[i + j], F.mul(x, y))
    return _poly_trim(out)


def _poly_divmod(F, a: Sequence[int], b: Sequence[int]) -> tuple[list, list]:
    a = list(a)
    _poly_trim(a)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    binv = F.inv(b[-1])
    q = [0] * max(0, len(a) - len(b) + 1)
    while len(a) >= len(b):
        coef = F.mul(a[-1], binv)
        deg = len(a) - len(b)
        q[deg] = coef
        for i, y in enumerate(b):
            a[deg + i] = F.sub(a[deg + i], F.mul(coef, y))
        _poly_trim(a)
    return _poly_trim(q), a


def _poly_mod(F, a, b):
    return _poly_divmod(F, a, b)[1]


def _poly_powmod(F, a: Sequence[int], e: int, mod: Sequence[int]) -> list:
    """a(x)^e mod mod(x) by square-and-multiply."""
    result = [1]
    base = _poly_mod(F, list(a), mod)
    while e:
        if e & 1:
            result = _poly_mod(F, _poly_mul(F, result, base), mod)
        e >>= 1
        if e:
            base = _poly_mod(F, _poly_mul(F, base, base), mod)
    return result


def _poly_gcd(F, a: Sequence[int], b: Sequence[int]) -> list:
    a, b = _poly_trim(list(a)), _poly_trim(list(b))
    while b:
        a, b = b, _poly_mod(F, a, b)
    return a


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def poly_is_irreducible(F, coeffs: Sequence[int]) -> bool:
    """Rabin's criterion: monic f of degree d is irreducible over GF(q) iff
    x^(q^d) = x (mod f) and gcd(x^(q^(d/p)) - x, f) = 1 for every prime
    p dividing d."""
    c = _poly_trim(list(coeffs))
    d = len(c) - 1
    if d < 1:
        return False
    if d == 1:
        return True
    q = F.order
    x = [0, 1]
    for p in _prime_factors(d):
        h = _poly_powmod(F, x, q ** (d // p), c)
        diff = _poly_add(F, h, [F.neg(v) for v in x])
        if len(_poly_gcd(F, diff, c)) != 1:
            return False
    h = _poly_powmod(F, x, q ** d, c)
    return not _poly_trim(_poly_add(F, h, [F.neg(v) for v in x]))


def _monic_polys(F, deg: int) -> Iterable[list]:
    q = F.order
    for idx in range(q ** deg):
        c = []
        t = idx
        for _ in range(deg):
            c.append(t % q)
            t //= q
        c.append(1)
        yield c


def default_modulus(F, degree: int) -> tuple[int, ...]:
    """Lexicographically smallest (in the digit encoding) monic irreducible
    polynomial of the given degree over F.  Deterministic, so field specs and
    transcripts are reproducible across runs."""
    for cand in _monic_polys(F, degree):
        if poly_is_irreducible(F, cand):
            return tuple(cand)
    raise RuntimeError("no irreducible polynomial found")  # unreachable


def _gf2_mul_table(modulus: Sequence[int]) -> list[list[int]]:
    """Every product in GF(2)[x]/f: carry-less products of the element ints
    (bit j is the coefficient of x^j), reduced by f from the top bit down."""
    m = len(modulus) - 1
    f = sum(c << j for j, c in enumerate(modulus))
    x = np.arange(1 << m, dtype=np.int64)
    prod = np.zeros((1 << m, 1 << m), np.int64)
    for j in range(m):
        prod ^= ((x[None, :] >> j) & 1) * (x[:, None] << j)
    for t in range(2 * m - 2, m - 1, -1):
        prod ^= ((prod >> t) & 1) * (f << (t - m))
    return prod.tolist()


class ExtField:
    """GF(|base|^degree) as polynomials over ``base`` modulo an irreducible."""

    _TABLE_LIMIT = 1 << 9  # build full mul tables only for small fields

    def __init__(self, base, degree: int, modulus: Optional[Sequence[int]] = None):
        if degree < 1:
            raise ValueError("degree must be >= 1")
        self.base = base
        self.degree = degree
        self.char = base.char
        self.order = base.order ** degree
        if modulus is None:
            modulus = default_modulus(base, degree)
        modulus = tuple(modulus)
        if len(modulus) != degree + 1 or modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree == extension degree")
        if not poly_is_irreducible(base, modulus):
            raise ValueError("modulus is reducible")
        self.modulus = modulus
        if self.order > self._TABLE_LIMIT:
            self._mul_tab = None
        elif base.order == 2:
            self._mul_tab = _gf2_mul_table(modulus)
        else:
            self._mul_tab = [
                [self._mul_poly(a, b) for b in range(self.order)]
                for a in range(self.order)
            ]

    # -- encoding ----------------------------------------------------------
    def to_coeffs(self, a: int) -> list[int]:
        return to_digits(a, self.base.order, self.degree)

    def from_coeffs(self, coeffs: Sequence[int]) -> int:
        if len(coeffs) > self.degree:
            raise ValueError("too many coefficients")
        return from_digits(list(coeffs), self.base.order)

    # -- arithmetic --------------------------------------------------------
    def add(self, a: int, b: int) -> int:
        ca, cb = self.to_coeffs(a), self.to_coeffs(b)
        return self.from_coeffs([self.base.add(x, y) for x, y in zip(ca, cb)])

    def sub(self, a: int, b: int) -> int:
        ca, cb = self.to_coeffs(a), self.to_coeffs(b)
        return self.from_coeffs([self.base.sub(x, y) for x, y in zip(ca, cb)])

    def neg(self, a: int) -> int:
        return self.from_coeffs([self.base.neg(x) for x in self.to_coeffs(a)])

    def _mul_poly(self, a: int, b: int) -> int:
        prod = _poly_mul(self.base, self.to_coeffs(a), self.to_coeffs(b))
        rem = _poly_mod(self.base, prod, list(self.modulus))
        return self.from_coeffs(rem + [0] * (self.degree - len(rem)))

    def mul(self, a: int, b: int) -> int:
        if self._mul_tab is not None:
            return self._mul_tab[a][b]
        return self._mul_poly(a, b)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        # extended Euclid on (a, modulus) over the base field
        r0, r1 = list(self.modulus), _poly_trim(self.to_coeffs(a))
        s0, s1 = [], [1]
        while r1:
            q, r = _poly_divmod(self.base, r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _poly_add(self.base, s0, [self.base.neg(c) for c in _poly_mul(self.base, q, s1)])
        # r0 = gcd (a nonzero constant); normalize
        c = self.base.inv(r0[0])
        s0 = [self.base.mul(c, x) for x in s0]
        s0 = _poly_mod(self.base, s0, list(self.modulus))
        return self.from_coeffs(s0 + [0] * (self.degree - len(s0)))

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return self.inv(self.pow(a, -e))
        out, b = 1, a
        while e:
            if e & 1:
                out = self.mul(out, b)
            b = self.mul(b, b)
            e >>= 1
        return out

    def elements(self) -> range:
        return range(self.order)

    def nonzero(self) -> range:
        return range(1, self.order)

    def __repr__(self) -> str:
        return f"GF({self.base.order}^{self.degree})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ExtField)
            and other.base == self.base
            and other.modulus == self.modulus
        )

    def __hash__(self) -> int:
        return hash(("ExtField", hash(self.base), self.modulus))


Field = PrimeField | ExtField


@lru_cache(maxsize=None)
def make_field(q: int) -> Field:
    """GF(q) for a prime power q = p^m.

    For m > 1 the defining polynomial is the lexicographically smallest
    irreducible one over GF(p), so repeated calls return the identical field.
    """
    p, m = factor_prime_power(q)
    return PrimeField(p) if m == 1 else ExtField(PrimeField(p), m)


# ---------------------------------------------------------------------------
# symbols: vectors of base-q digits
# ---------------------------------------------------------------------------

def digit_count(values: Iterable[int], q: int) -> int:
    """Fewest base-q digits (at least one) that hold every value."""
    top, delta = max(values, default=0), 1
    while q ** delta <= top:
        delta += 1
    return delta


def embed(digits: np.ndarray, delta: int) -> np.ndarray:
    """GF(q)^d -> GF(q)^delta for d <= delta: zero-pad every symbol (the
    last axis) to delta digits, which leaves its int unchanged."""
    pad = [(0, 0)] * (digits.ndim - 1) + [(0, delta - digits.shape[-1])]
    return np.pad(digits, pad)


def project(digits: np.ndarray, delta: int) -> np.ndarray:
    """Inverse of :func:`embed`: the low delta digits of every symbol.

    Raises ValueError if a higher digit is non-zero.
    """
    if digits[..., delta:].any():
        raise ValueError(f"symbol has a non-zero digit above its low {delta}")
    return digits[..., :delta]


@lru_cache(maxsize=None)
def _log_exp(q: int) -> tuple[np.ndarray, np.ndarray]:
    """Log and antilog tables of GF(q) to the first generator found.

    log[0] is 2q, so a sum of two logs involving 0 lands in the zero tail
    of exp, and exp repeats its q - 1 powers so nonzero sums need no mod.
    """
    F = make_field(q)
    for g in F.nonzero():
        powers, x = [1], g
        while x != 1:
            powers.append(x)
            x = F.mul(x, g)
        if len(powers) == q - 1:
            break
    log = np.full(q, 2 * q, np.intp)
    log[powers] = np.arange(q - 1)
    exp = np.zeros(4 * q + 1, np.min_scalar_type(q - 1))
    exp[:2 * q - 2] = powers * 2
    return log, exp


def matmul(q: int, A, D: np.ndarray) -> np.ndarray:
    """A D over GF(q) for q = 2^m: A is r x k GF(q) elements, D is k x c
    (symbol digits, or GF(q) elements); the result is r x c."""
    log, exp = _log_exp(q)
    A = np.asarray(A, dtype=np.intp)
    terms = exp[log[A][:, :, None] + log[D][None]]
    return np.bitwise_xor.reduce(terms, axis=1)


def ints_to_bits(values: Sequence[int], nbits: int) -> np.ndarray:
    """len(values) x nbits array of each value's low nbits bits, most
    significant first, through one bytes object."""
    width = (nbits + 7) // 8
    data = np.frombuffer(b"".join(x.to_bytes(width, "big") for x in values), np.uint8)
    return np.unpackbits(data).reshape(len(values), 8 * width)[:, 8 * width - nbits:]


def bits_to_ints(bits: np.ndarray) -> list:
    """The ints whose big-endian bits lie along the last axis of a 0/1
    array, nested as lists over the other axes."""
    rows, nbits = prod(bits.shape[:-1]), bits.shape[-1]
    data = np.packbits(bits.reshape(rows, nbits), axis=1).tobytes()
    width, shift = (nbits + 7) // 8, -nbits % 8
    flat = [int.from_bytes(data[j * width:(j + 1) * width], "big") >> shift
            for j in range(rows)]
    return np.array(flat, object).reshape(bits.shape[:-1]).tolist()


def bit_digits(bits: np.ndarray, m: int) -> np.ndarray:
    """The base-2^m digits, least significant first, of the big-endian bit
    strings along the last axis: m-bit groups times their bit weights."""
    groups = bits.reshape(*bits.shape[:-1], bits.shape[-1] // m, m)
    weights = 1 << np.arange(m - 1, -1, -1)
    return (groups @ weights)[..., ::-1].astype(np.min_scalar_type((1 << m) - 1))


def digit_array(values: Sequence[int], q: int, delta: int) -> np.ndarray:
    """len(values) x delta array of the values' base-q digits, least
    significant first, in O(total bits) for q = 2^m (values must fit)."""
    p, m = factor_prime_power(q)
    if p != 2:
        return np.array([to_digits(x, q, delta) for x in values]).reshape(len(values), delta)
    return bit_digits(ints_to_bits(values, delta * m), m)


def digit_ints(digits, q: int) -> list:
    """Inverse of :func:`digit_array` along the last axis of a digit array
    (or nested lists), nested as lists over the other axes (rows of a 2-D
    array only, for odd q)."""
    digits, (p, m) = np.asarray(digits), factor_prime_power(q)
    if p != 2:
        return [from_digits(row, q) for row in digits.tolist()]
    bits = (digits[..., ::-1, None] >> np.arange(m - 1, -1, -1, dtype=digits.dtype)) & 1
    return bits_to_ints(bits.reshape(*digits.shape[:-1], digits.shape[-1] * m))


class SymbolSpace:
    """GF(q)^delta for q = 2^m, where every stored, served and recovered
    symbol lives.  A symbol is the int whose base-q digits, least
    significant first, are its coordinates, so its big-endian bits are its
    digits' m-bit groups, most significant digit first; a GF(q) scalar
    times a symbol scales every digit, and addition is digit-wise (XOR of
    the ints).  :meth:`digits` and :meth:`ints` convert whole arrays
    through bytes, in time linear in their bits."""

    def __init__(self, q: int, delta: int):
        if factor_prime_power(q)[0] != 2:
            raise ValueError("symbol digits need q to be a power of 2")
        self.q, self.delta, self.order = q, delta, q ** delta

    def add(self, a: int, b: int) -> int:
        return a ^ b

    def mul(self, c: int, x: int) -> int:
        """The GF(q) scalar c times the symbol x."""
        return self.ints(matmul(self.q, [[c]], self.digits([x])))[0]

    def digits(self, values: Sequence[int]) -> np.ndarray:
        """len(values) x delta digit array; ValueError for a value that is
        not a symbol."""
        if len(values) and not (0 <= min(values) and max(values) < self.order):
            raise ValueError(f"symbol outside GF({self.q})^{self.delta}")
        return digit_array(values, self.q, self.delta)

    def ints(self, digits: np.ndarray) -> list:
        """The symbols along the last axis of a digit array, nested as lists
        over its other axes (a flat list for the rows of a 2-D array)."""
        return digit_ints(digits, self.q)


# ---------------------------------------------------------------------------
# dense linear algebra over a field
# ---------------------------------------------------------------------------

class Singular(ValueError):
    """Raised by invert() on rank-deficient input."""


class NoSolution(ValueError):
    """Raised by solve() when the system is inconsistent."""


def mat_mul(F: Field, A: Matrix, B: Matrix) -> Matrix:
    n, m, p = len(A), len(B), len(B[0]) if B else 0
    out = [[0] * p for _ in range(n)]
    for i in range(n):
        Ai = A[i]
        for t in range(m):
            a = Ai[t]
            if a == 0:
                continue
            Bt = B[t]
            row = out[i]
            for j in range(p):
                if Bt[j]:
                    row[j] = F.add(row[j], F.mul(a, Bt[j]))
    return out


def mat_vec(F: Field, A: Matrix, x: Sequence[int]) -> list[int]:
    return [r[0] for r in mat_mul(F, A, [[v] for v in x])]


def rref(F: Field, A: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form; returns (R, pivot column indices)."""
    R = [list(r) for r in A]
    rows = len(R)
    cols = len(R[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pr = next((i for i in range(r, rows) if R[i][c] != 0), None)
        if pr is None:
            continue
        R[r], R[pr] = R[pr], R[r]
        inv = F.inv(R[r][c])
        R[r] = [F.mul(inv, v) for v in R[r]]
        for i in range(rows):
            if i != r and R[i][c] != 0:
                f = R[i][c]
                R[i] = [F.sub(v, F.mul(f, w)) for v, w in zip(R[i], R[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return R, pivots


def rank(F: Field, A: Matrix) -> int:
    return len(rref(F, A)[1])


def solve(F: Field, A: Matrix, b: Sequence[int]) -> list[int]:
    """Any solution x of A x = b; free variables (in column-echelon order)
    are set to zero.  Raises NoSolution if inconsistent."""
    rows = len(A)
    aug = [list(A[i]) + [b[i]] for i in range(rows)]
    R, pivots = rref(F, aug)
    cols = len(A[0]) if rows else 0
    if cols in pivots:
        raise NoSolution("inconsistent linear system")
    x = [0] * cols
    for i, c in enumerate(pivots):
        x[c] = R[i][cols]
    return x


def invert(F: Field, A: Matrix) -> Matrix:
    n = len(A)
    if any(len(r) != n for r in A):
        raise ValueError("invert() needs a square matrix")
    aug = [list(A[i]) + [1 if j == i else 0 for j in range(n)] for i in range(n)]
    R, pivots = rref(F, aug)
    if pivots != list(range(n)):
        raise Singular("matrix is singular")
    return [row[n:] for row in R]


def null_space(F: Field, A: Matrix) -> Matrix:
    """Basis (as rows) of {x : A x = 0}."""
    rows = len(A)
    cols = len(A[0]) if rows else 0
    R, pivots = rref(F, A)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        x = [0] * cols
        x[fc] = 1
        for i, pc in enumerate(pivots):
            x[pc] = F.neg(R[i][fc])
        basis.append(x)
    return basis
