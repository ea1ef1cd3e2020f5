"""Exact arithmetic over GF(2^m), symbols as GF(2^m) digit vectors, and
dense linear algebra.

Field elements are plain Python ints in ``range(field.order)``, and 0 and 1
are the identities of every field.  There is one field class,
:class:`ExtField`: GF(2^m) = GF(2)[x]/f for m = 1..16, table-driven, whose
int has the coefficient of x^j as bit j; GF(2) is the case m = 1 (f = x).
The defining polynomial f is pinned per m (:data:`MODULI`), sums are XOR
and products, inverses and powers are table lookups.  There is no odd
characteristic: the data path packs file bits into GF(q) digits, so
q = 2^m (:func:`field_degree`).

The retrieval scheme is GF(q)-linear: queries, parity checks and storage
generators all live in GF(q).  A symbol of a file cached at rate 1/k_i is
therefore a vector of delta_i GF(q) digits (:class:`SymbolSpace`), packed
into the int whose base-q digits, least significant first, are those
digits.  File i occupies the low delta_i digits of GF(q)^{delta_max}: the
inclusion zero-pads (:func:`embed`, which leaves the int unchanged) and
:func:`project` is its checked inverse.  :func:`matmul` multiplies a GF(q)
matrix into digit arrays with the field's log/antilog tables.  A symbol's
big-endian bits are its digits' m-bit groups, so whole arrays of symbols
convert to digits through bytes (:func:`digit_array`, :func:`digit_ints`).

Dense linear algebra (rank / solve / null space) is provided as module
functions operating on lists of rows of ints; the field supplies the row
operations its elimination needs (``scaled``, ``sub_scaled``).
"""

from __future__ import annotations

from functools import lru_cache
from math import prod
from typing import Iterable, Optional, Sequence

import numpy as np

Matrix = list  # list[list[int]]; rows of field-element ints


# Defining polynomials of GF(2^m), m = 1..16, as ints (bit j is the
# coefficient of x^j): the lexicographically smallest irreducible polynomial
# of each degree above 1, and x for GF(2), so field elements, transcripts
# and snapshots are the same in every run.
MODULI = {1: 0x2, 2: 0x7, 3: 0xb, 4: 0x13, 5: 0x25, 6: 0x43, 7: 0x83,
          8: 0x11b, 9: 0x203, 10: 0x409, 11: 0x805, 12: 0x1009, 13: 0x201b,
          14: 0x4021, 15: 0x8003, 16: 0x1002b}


def field_degree(q: int) -> int:
    """m for q = 2^m, 1 <= m <= 16; ValueError for any other q."""
    m = q.bit_length() - 1
    if q < 2 or q & (q - 1) or m not in MODULI:
        raise ValueError(f"q = {q} unsupported: q must be 2^m, 1 <= m <= 16")
    return m


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
    for g in range(1, q):
        powers, a = [1], g
        while a != 1 and len(powers) < q:
            powers.append(a)
            a = _times(a, g, f, q)
        if a != 1 or (q - 1) % len(powers):
            break
        if len(powers) == q - 1:
            return powers
    raise ValueError("modulus is reducible")


class ExtField:
    """GF(2^m) = GF(2)[x]/f, table-driven.

    An element's int has the coefficient of x^j as bit j, so addition is
    XOR (and subtraction is addition), and products, inverses and powers
    are log/antilog lookups (a product table for q <= 512).  ``modulus`` is
    f's coefficient tuple, constant term first; by default the pinned
    ``MODULI[m]``.
    """

    _TABLE_LIMIT = 1 << 9  # full product tables only for small fields

    def __init__(self, degree: int, modulus: Optional[Sequence[int]] = None):
        if modulus is None:
            if degree not in MODULI:
                raise ValueError(f"GF(2^{degree}): pinned moduli cover degrees "
                                 f"{min(MODULI)}..{max(MODULI)}")
            modulus = [(MODULI[degree] >> j) & 1 for j in range(degree + 1)]
        modulus = tuple(modulus)
        if degree < 1 or len(modulus) != degree + 1 or modulus[-1] != 1 \
                or any(c not in (0, 1) for c in modulus):
            raise ValueError("modulus must be a monic GF(2) polynomial of "
                             "degree == extension degree >= 1")
        self.degree = degree
        self.order = q = 1 << degree
        self.modulus = modulus
        powers = _generator_powers(sum(c << j for j, c in enumerate(modulus)), degree)
        # log[0] is 2q, so a sum of two logs involving 0 lands in the zero
        # tail of exp, and exp repeats its q - 1 powers so non-zero sums
        # need no mod
        self._log = [2 * q] * q
        for i, a in enumerate(powers):
            self._log[a] = i
        self._exp = powers * 2 + [0] * (2 * q + 3)
        self._mul_tab = None
        if q <= self._TABLE_LIMIT:
            log = np.array(self._log)
            self._mul_tab = np.array(self._exp)[log[:, None] + log].tolist()

    def add(self, a: int, b: int) -> int:
        return a ^ b

    def mul(self, a: int, b: int) -> int:
        if self._mul_tab is not None:
            return self._mul_tab[a][b]
        return self._exp[self._log[a] + self._log[b]]

    def scaled(self, c: int, y: Sequence[int]) -> list[int]:
        """The row c y, for a non-zero scalar c."""
        if self._mul_tab is not None:
            t = self._mul_tab[c]
            return [t[w] for w in y]
        log, exp, lc = self._log, self._exp, self._log[c]
        return [exp[lc + log[w]] for w in y]

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

    def __repr__(self) -> str:
        return f"GF(2^{self.degree})" if self.degree > 1 else "GF(2)"

    def __eq__(self, other) -> bool:
        return isinstance(other, ExtField) and other.modulus == self.modulus

    def __hash__(self) -> int:
        return hash(("ExtField", self.modulus))


Field = ExtField


@lru_cache(maxsize=None)
def make_field(q: int) -> Field:
    """GF(q) for q = 2^m, 1 <= m <= 16, with the pinned modulus, so
    repeated calls return the identical field."""
    return ExtField(field_degree(q))


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
    """GF(q)'s log and antilog tables (see :class:`ExtField`) as arrays."""
    F = make_field(q)
    return np.array(F._log, np.intp), np.array(F._exp, np.min_scalar_type(q - 1))


def matmul(q: int, A, D: np.ndarray) -> np.ndarray:
    """A D over GF(q): A is r x k GF(q) elements, D is k x c (symbol
    digits, or GF(q) elements); the result is r x c."""
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
    significant first, in O(total bits) (values must fit)."""
    m = field_degree(q)
    return bit_digits(ints_to_bits(values, delta * m), m)


def digit_ints(digits, q: int) -> list:
    """Inverse of :func:`digit_array` along the last axis of a digit array
    (or nested lists), nested as lists over the other axes."""
    digits, m = np.asarray(digits), field_degree(q)
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
        field_degree(q)  # refuses every q but 2^m
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

class NoSolution(ValueError):
    """Raised by solve() when the system is inconsistent."""


def mat_vec(F: Field, A: Matrix, x: Sequence[int]) -> list[int]:
    """A x over F."""
    return matmul(F.order, A, np.array(x)[:, None])[:, 0].tolist()


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
        R[r] = F.scaled(F.inv(R[r][c]), R[r])
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


def null_space(F: Field, A: Matrix) -> Matrix:
    """Basis (as rows) of {x : A x = 0}: one row per non-pivot column, so
    A has rank cols - len(basis)."""
    rows = len(A)
    cols = len(A[0]) if rows else 0
    R, pivots = rref(F, A)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        x = [0] * cols
        x[fc] = 1
        for i, pc in enumerate(pivots):
            x[pc] = R[i][fc]  # -a = a in characteristic 2
        basis.append(x)
    return basis
