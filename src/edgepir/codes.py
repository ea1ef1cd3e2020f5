"""Linear MDS codes used for storage and retrieval.

Provides generalized Reed-Solomon (GRS) construction, generic
generator-matrix codes (needed for the binary repetition / single
parity-check pair, which is MDS but not GRS since n > q-1), puncturing,
Hadamard product and sum codes, information sets, erasure-pattern
correctability, and erasure decoding.

Generator and parity-check matrices are 2-D integer arrays of GF(q)
elements, as in :mod:`edgepir.gf`.  Messages and codewords are lists of
field-element ints; the decoders also take symbols of several GF(q)
digits, one right-hand side per digit.  Coordinates are 0-based throughout.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from . import gf
from .gf import Field


def _field_array(field: Field, values, what: str) -> np.ndarray:
    """``values`` as an intp array; ValueError naming the problem if they
    are ragged or hold an entry that is not an element of the field."""
    try:
        A = np.asarray(values)
    except ValueError:  # numpy refuses ragged nesting
        raise ValueError(f"{what} is ragged") from None
    if A.size and (A.dtype.kind not in "iu" or A.min() < 0 or A.max() >= field.order):
        raise ValueError(f"{what} has an entry not in GF({field.order})")
    return A.astype(np.intp)


class LinearCode:
    """An (n, k) linear code over a field, held by its generator matrix.

    G is a k x n array and the parity-check matrix H, computed from the
    null space of G, is (n - k) x n with G Ht = 0.  ``mds`` is True when
    the code is known to be maximum distance separable (every code
    :func:`mds_code` builds, and their punctures), else None: nothing
    checks a generic generator.
    """

    def __init__(self, field: Field, G, mds: Optional[bool] = None):
        self.field = field
        self.G = _field_array(field, G, "generator matrix")
        if not self.G.size:
            raise ValueError("generator matrix is empty")
        if self.G.ndim != 2:
            raise ValueError("generator matrix must be 2-D: k rows of n entries")
        self.k, self.n = self.G.shape
        # one elimination: G has rank n minus its null space's dimension
        self.H = gf.null_space(field, self.G)
        if self.n - len(self.H) != self.k:
            raise ValueError("generator matrix is rank deficient")
        self.mds = mds

    def _vector(self, values: Sequence[int], what: str, length: int) -> np.ndarray:
        """``values`` as a length x 1 column; ValueError for a wrong length
        or an entry not in the field."""
        x = _field_array(self.field, values, what)
        if x.shape != (length,):
            raise ValueError(f"{what} must be {length} field elements")
        return x[:, None]

    def encode(self, message: Sequence[int]) -> list[int]:
        x = self._vector(message, "message", self.k)
        return gf.matmul(self.field.order, self.G.T, x)[:, 0].tolist()

    def contains(self, word: Sequence[int]) -> bool:
        return not gf.matmul(self.field.order, self.H, self._vector(word, "word", self.n)).any()

    def __repr__(self) -> str:
        return f"LinearCode(n={self.n}, k={self.k}, field={self.field})"


class GrsCode(LinearCode):
    """GRS code with evaluation points kappa and unit weights: codewords
    are (f(kappa_1), ..., f(kappa_n)) for polynomials f of degree < k.
    """

    def __init__(self, field: Field, n: int, k: int, kappa: Sequence[int]):
        if k > n:
            raise ValueError("k must be <= n")
        if len(kappa) != n:
            raise ValueError("kappa must have length n")
        if any(x == 0 for x in kappa):
            raise ValueError("evaluation points must be nonzero")
        if len(set(kappa)) != n:
            raise ValueError("evaluation points must be pairwise distinct")
        if n > field.order - 1:
            raise ValueError("need n <= q-1 distinct nonzero evaluation points")
        G = [[field.pow(x, row) for x in kappa] for row in range(k)]
        super().__init__(field, G, mds=True)
        self.kappa = list(kappa)

    def __repr__(self) -> str:
        return f"GrsCode(n={self.n}, k={self.k}, field={self.field})"


def default_kappa(field: Field, n: int) -> list[int]:
    """First n nonzero field elements in encoding order."""
    if n > field.order - 1:
        raise ValueError("field too small for n distinct nonzero points")
    return list(range(1, n + 1))


def grs(field: Field, n: int, k: int,
        kappa: Optional[Sequence[int]] = None) -> GrsCode:
    if kappa is None:
        kappa = default_kappa(field, n)
    return GrsCode(field, n, k, kappa)


def mds_code(field: Field, n: int, k: int,
             kappa: Optional[Sequence[int]] = None) -> LinearCode:
    """(n, k) MDS code: GRS if the field has n nonzero evaluation points,
    else the repetition (k = 1) or single parity-check (k = n - 1) code."""
    if n <= field.order - 1:
        return grs(field, n, k, kappa=kappa)
    if k == 1:
        return repetition_code(field, n)
    if k == n - 1:
        return spc_code(field, n)
    raise ValueError(f"no (n={n}, k={k}) MDS code available over "
                     f"GF({field.order}); use a larger field")


def repetition_code(field: Field, n: int) -> LinearCode:
    return LinearCode(field, [[1] * n], mds=True)


def spc_code(field: Field, n: int) -> LinearCode:
    """(n, n-1) single parity-check code, systematic generator with 1 in
    the parity column, so codewords satisfy the all-ones parity check."""
    G = [[1 if j in (i, n - 1) else 0 for j in range(n)] for i in range(n - 1)]
    return LinearCode(field, G, mds=True)


def puncture(code: LinearCode, keep_coords: Sequence[int]) -> LinearCode:
    """Restrict the code to the given ordered coordinate set."""
    keep = list(keep_coords)
    if len(set(keep)) != len(keep):
        raise ValueError("keep_coords must be distinct")
    if any(c < 0 or c >= code.n for c in keep):
        raise ValueError("coordinate out of range")
    if len(keep) < code.k:
        raise ValueError("puncturing below dimension k loses information")
    if isinstance(code, GrsCode):
        return GrsCode(code.field, len(keep), code.k, [code.kappa[c] for c in keep])
    return LinearCode(code.field, code.G[:, keep], mds=code.mds)  # puncturing keeps MDS codes MDS


def _row_basis(field: Field, rows: np.ndarray) -> np.ndarray:
    R, pivots = gf.rref(field, rows)
    return R[:len(pivots)]


def hadamard(codeA: LinearCode, codeB: LinearCode) -> LinearCode:
    """Span of all element-wise products of codewords of A and B."""
    if codeA.n != codeB.n or codeA.field != codeB.field:
        raise ValueError("codes must share length and field")
    log, exp = gf._log_exp(codeA.field.order)
    # row a of A times row b of B is row (a, b), in one log/antilog lookup
    rows = exp[log[codeA.G][:, None] + log[codeB.G]].reshape(-1, codeA.n)
    return LinearCode(codeA.field, _row_basis(codeA.field, rows))


def sum_code(codeA: LinearCode, codeB: LinearCode) -> LinearCode:
    if codeA.n != codeB.n or codeA.field != codeB.field:
        raise ValueError("codes must share length and field")
    basis = _row_basis(codeA.field, np.vstack([codeA.G, codeB.G]))
    return LinearCode(codeA.field, basis)


def is_information_set(code: LinearCode, I: Sequence[int]) -> bool:
    if len(I) != code.k:
        raise ValueError("information set must have size k")
    return gf.rank(code.field, code.G[:, list(I)]) == code.k


def correctable(code: LinearCode, pattern: Sequence[int]) -> bool:
    """True iff the erasure pattern (1 = erased) is correctable: the
    parity-check columns on the erased support are linearly independent."""
    if len(pattern) != code.n:
        raise ValueError("pattern length must equal n")
    chi = [j for j, e in enumerate(pattern) if e]
    return gf.rank(code.field, code.H[:, chi]) == len(chi)


def solve_message(code: LinearCode, word: Sequence[Optional[int]]) -> list[int]:
    """The message m whose codeword m G agrees with ``word`` on its
    non-None coordinates, by one elimination over the code's field.

    Entries may be symbols of several base-q digits (see :mod:`edgepir.gf`);
    each digit position is one right-hand-side column, so the message
    symbols have as many digits as the longest entry.
    """
    q = code.field.order
    known = [j for j, w in enumerate(word) if w is not None]
    values = [word[c] for c in known]
    digits = gf.digit_array(values, q, gf.digit_count(values, q))
    # (G|_known)^T m = word|_known, augmented with one column per digit
    R, pivots = gf.rref(code.field, np.hstack([code.G[:, known].T, digits]))
    if pivots and pivots[-1] >= code.k:
        raise ValueError("received symbols are not consistent with the code")
    if len(pivots) < code.k:
        raise ValueError("erasure pattern not decodable: no information set survives")
    return gf.digit_ints(R[:code.k, code.k:], q)


def erasure_decode(code: LinearCode, word: Sequence[Optional[int]]) -> list[int]:
    """The unique codeword agreeing with ``word`` on its non-None
    coordinates (see :func:`solve_message`)."""
    q = code.field.order
    msg = solve_message(code, word)
    digits = gf.digit_array(msg, q, gf.digit_count(msg, q))
    return gf.digit_ints(gf.matmul(q, code.G.T, digits), q)


def dual_min_distance(code: LinearCode) -> int:
    """Minimum Hamming distance of the dual of a code known to be MDS.

    The dual of an (n, k) MDS code is an (n, n - k) MDS code, so d = k + 1
    (GRS, repetition and single parity-check codes, the codes
    :func:`mds_code` builds); ValueError for any other code.
    """
    if code.n == code.k:
        raise ValueError("dual code is trivial (k = n)")
    if not code.mds:
        raise ValueError("dual distance is known only for codes known to be MDS")
    return code.k + 1
