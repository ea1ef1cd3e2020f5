"""Exact arithmetic over GF(q), symbols as GF(q) digit vectors, and dense
linear algebra.

Field elements are plain Python ints in ``range(field.order)``, and 0 and 1
are the identities of every field.  Two kinds of field exist: a prime field
GF(p) (:class:`PrimeField`, the int is the residue), and GF(2^m) for
m = 2..16 (:class:`ExtField`), one table-driven field over GF(2)[x]/f whose
int has the coefficient of x^j as bit j.  Its defining polynomial f is
pinned per m (:data:`MODULI`), its sums are XOR and its products, inverses
and powers are table lookups.  Extension fields of odd characteristic are
refused: the data path packs bits into GF(2^m) digits.

The retrieval scheme is GF(q)-linear: queries, parity checks and storage
generators all live in GF(q).  A symbol of a file cached at rate 1/k_i is
therefore a vector of delta_i GF(q) digits (:class:`SymbolSpace`), packed
into the int whose base-q digits, least significant first, are those
digits.  File i occupies the low delta_i digits of GF(q)^{delta_max}: the
inclusion zero-pads (:func:`embed`, which leaves the int unchanged) and
:func:`project` is its checked inverse.  :func:`matmul` multiplies a GF(q)
matrix into digit arrays with the field's log/antilog tables (q = 2^m).
For q = 2^m a symbol's big-endian bits are its digits' m-bit groups, so
whole arrays of symbols convert to digits through bytes
(:func:`digit_array`, :func:`digit_ints`).

Dense linear algebra (rank / solve / invert / null space) is provided as
module functions operating on lists of rows of ints; each field supplies
the one row operation its elimination needs (``sub_scaled``).
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

    def sub_scaled(self, x: Sequence[int], c: int, y: Sequence[int]) -> list[int]:
        """The row x - c y."""
        p = self.order
        return [(v - c * w) % p for v, w in zip(x, y)]

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


# Defining polynomials of GF(2^m), m = 2..16, as ints (bit j is the
# coefficient of x^j): the lexicographically smallest irreducible polynomial
# of each degree, so field elements, transcripts and snapshots are the same
# in every run.
MODULI = {2: 0x7, 3: 0xb, 4: 0x13, 5: 0x25, 6: 0x43, 7: 0x83, 8: 0x11b,
          9: 0x203, 10: 0x409, 11: 0x805, 12: 0x1009, 13: 0x201b,
          14: 0x4021, 15: 0x8003, 16: 0x1002b}


def _times(a: int, g: int, f: int, top: int) -> int:
    """a * g in GF(2)[x]/f by shift and XOR; top = 2^deg(f)."""
    out = 0
    while g:
        if g & 1:
            out ^= a
        g >>= 1
        a <<= 1
        if a & top:
            a ^= f
    return out


def _generator_powers(f: int, m: int) -> list[int]:
    """g^0, ..., g^(q-2) for the first g (in int order) of multiplicative
    order q - 1 = 2^m - 1 in GF(2)[x]/f.

    Every non-zero element of a field has order dividing q - 1, and a
    generator's powers are q - 1 distinct units, so such a g exists iff f
    is irreducible; the search stops at the first element that shows f is
    not (a power that never returns to 1, or an order not dividing q - 1).
    """
    q = 1 << m
    for g in range(2, q):
        powers, a = [1], g
        while a != 1 and len(powers) < q:
            powers.append(a)
            a = _times(a, g, f, q)
        if a != 1 or (q - 1) % len(powers):
            break
        if len(powers) == q - 1:
            return powers
    raise ValueError("modulus is reducible")


def _log_exp_lists(powers: list[int], q: int) -> tuple[list, list]:
    """Log and antilog tables from a generator's powers.

    log[0] is 2q, so a sum of two logs involving 0 lands in the zero tail
    of exp, and exp repeats its q - 1 powers so non-zero sums need no mod.
    """
    log = [2 * q] * q
    for i, a in enumerate(powers):
        log[a] = i
    return log, powers * 2 + [0] * (2 * q + 3)


class ExtField:
    """GF(2^m) = GF(2)[x]/f, table-driven.

    An element's int has the coefficient of x^j as bit j, so addition,
    subtraction and negation are XOR (negation is the identity), and
    products, inverses and powers are log/antilog lookups (a product table
    for q <= 512).  ``modulus`` is f's coefficient tuple, constant term
    first; by default the pinned ``MODULI[m]``.
    """

    _TABLE_LIMIT = 1 << 9  # full product tables only for small fields

    def __init__(self, base, degree: int, modulus: Optional[Sequence[int]] = None):
        if base != PrimeField(2):
            raise ValueError("extension fields are built over GF(2) only")
        if modulus is None:
            if degree not in MODULI:
                raise ValueError(f"GF(2^{degree}): pinned moduli cover degrees "
                                 f"{min(MODULI)}..{max(MODULI)}")
            modulus = [(MODULI[degree] >> j) & 1 for j in range(degree + 1)]
        modulus = tuple(modulus)
        if degree < 2 or len(modulus) != degree + 1 or modulus[-1] != 1 \
                or any(c not in (0, 1) for c in modulus):
            raise ValueError("modulus must be a monic GF(2) polynomial of "
                             "degree == extension degree >= 2")
        self.base, self.degree, self.char = base, degree, 2
        self.order = q = 1 << degree
        self.modulus = modulus
        f = sum(c << j for j, c in enumerate(modulus))
        self._log, self._exp = _log_exp_lists(_generator_powers(f, degree), q)
        self._mul_tab = None
        if q <= self._TABLE_LIMIT:
            log = np.array(self._log)
            self._mul_tab = np.array(self._exp)[log[:, None] + log].tolist()

    def add(self, a: int, b: int) -> int:
        return a ^ b

    def sub(self, a: int, b: int) -> int:
        return a ^ b

    def neg(self, a: int) -> int:
        return a

    def mul(self, a: int, b: int) -> int:
        if self._mul_tab is not None:
            return self._mul_tab[a][b]
        return self._exp[self._log[a] + self._log[b]]

    def sub_scaled(self, x: Sequence[int], c: int, y: Sequence[int]) -> list[int]:
        """The row x - c y, for a non-zero scalar c."""
        if self._mul_tab is not None:
            t = self._mul_tab[c]
            return [v ^ t[w] for v, w in zip(x, y)]
        log, exp, lc = self._log, self._exp, self._log[c]
        return [v ^ exp[lc + log[w]] for v, w in zip(x, y)]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return self._exp[self.order - 1 - self._log[a]]

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e < 0:
                raise ZeroDivisionError("inverse of 0")
            return 0 if e else 1
        return self._exp[self._log[a] * e % (self.order - 1)]

    def elements(self) -> range:
        return range(self.order)

    def nonzero(self) -> range:
        return range(1, self.order)

    def __repr__(self) -> str:
        return f"GF(2^{self.degree})"

    def __eq__(self, other) -> bool:
        return isinstance(other, ExtField) and other.modulus == self.modulus

    def __hash__(self) -> int:
        return hash(("ExtField", self.modulus))


Field = PrimeField | ExtField


@lru_cache(maxsize=None)
def make_field(q: int) -> Field:
    """GF(q) for a prime q or for q = 2^m, m <= 16 (pinned modulus), so
    repeated calls return the identical field.  Extension fields of odd
    characteristic are refused: the protocol's symbols need q = 2^m."""
    p, m = factor_prime_power(q)
    if m == 1:
        return PrimeField(p)
    if p != 2:
        raise ValueError(f"GF({q}): extension fields need q = 2^m")
    return ExtField(PrimeField(2), m)


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
    """The field's log and antilog tables (see :func:`_log_exp_lists`) as
    arrays, for q = 2^m (GF(2) has the one power 1)."""
    F = make_field(q)
    log, exp = (F._log, F._exp) if q > 2 else _log_exp_lists([1], 2)
    return np.array(log, np.intp), np.array(exp, np.min_scalar_type(q - 1))


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
                R[i] = F.sub_scaled(R[i], R[i][c], R[r])
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
