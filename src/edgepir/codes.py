"""Linear MDS codes used for storage and retrieval.

Provides generalized Reed-Solomon (GRS) construction, generic
generator-matrix codes (needed for the binary repetition / single
parity-check pair, which is MDS but not GRS since n > q-1), puncturing,
Hadamard product and sum codes, information sets, erasure-pattern
correctability, and erasure decoding.

Codewords and matrices are lists of field-element ints as in
:mod:`edgepir.gf`; the decoders also take symbols of several GF(q) digits,
one right-hand side per digit.  Coordinates are 0-based throughout.
"""

from __future__ import annotations

from typing import Optional, Sequence

from . import gf
from .gf import Field


class LinearCode:
    """An (n, k) linear code over a field, held by its generator matrix.

    The parity-check matrix H is computed from the null space of G and
    satisfies G Ht = 0.  ``mds`` is True when the code is known to be
    maximum distance separable (every code :func:`mds_code` builds, and
    their punctures), else None: nothing checks a generic generator.
    """

    def __init__(self, field: Field, G: list, mds: Optional[bool] = None):
        self.field = field
        self.n = len(G[0])
        self.k = len(G)
        self.G = [list(r) for r in G]
        # one elimination: G has rank n minus its null space's dimension
        self.H = gf.null_space(field, self.G)
        if self.n - len(self.H) != self.k:
            raise ValueError("generator matrix is rank deficient")
        self.mds = mds

    def encode(self, message: Sequence[int]) -> list[int]:
        if len(message) != self.k:
            raise ValueError("message length must equal k")
        return gf.mat_vec(self.field, _transpose(self.G), message)

    def contains(self, word: Sequence[int]) -> bool:
        return all(v == 0 for v in gf.mat_vec(self.field, self.H, word)) if self.H else True

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
    G = [[row[c] for c in keep] for row in code.G]
    if isinstance(code, GrsCode):
        return GrsCode(code.field, len(keep), code.k, [code.kappa[c] for c in keep])
    return LinearCode(code.field, G, mds=code.mds)  # puncturing keeps MDS codes MDS


def _transpose(A: list) -> list:
    return [list(col) for col in zip(*A)]


def _row_basis(field: Field, rows: list) -> list:
    R, pivots = gf.rref(field, rows)
    return [R[i] for i in range(len(pivots))]


def hadamard(codeA: LinearCode, codeB: LinearCode) -> LinearCode:
    """Span of all element-wise products of codewords of A and B."""
    if codeA.n != codeB.n or codeA.field != codeB.field:
        raise ValueError("codes must share length and field")
    F = codeA.field
    rows = [[F.mul(a, b) for a, b in zip(ra, rb)]
            for ra in codeA.G for rb in codeB.G]
    basis = _row_basis(F, rows)
    return LinearCode(F, basis)


def sum_code(codeA: LinearCode, codeB: LinearCode) -> LinearCode:
    if codeA.n != codeB.n or codeA.field != codeB.field:
        raise ValueError("codes must share length and field")
    basis = _row_basis(codeA.field, codeA.G + codeB.G)
    return LinearCode(codeA.field, basis)


def is_information_set(code: LinearCode, I: Sequence[int]) -> bool:
    if len(I) != code.k:
        raise ValueError("information set must have size k")
    sub = [[row[c] for c in I] for row in code.G]
    return gf.rank(code.field, sub) == code.k


def correctable(code: LinearCode, pattern: Sequence[int]) -> bool:
    """True iff the erasure pattern (1 = erased) is correctable: the
    parity-check columns on the erased support are linearly independent."""
    if len(pattern) != code.n:
        raise ValueError("pattern length must equal n")
    chi = [j for j, e in enumerate(pattern) if e]
    if not chi:
        return True
    if not code.H:
        return False
    sub = [[row[c] for c in chi] for row in code.H]
    return gf.rank(code.field, sub) == len(chi)


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
    digits = gf.digit_array(values, q, gf.digit_count(values, q)).tolist()
    # (G|_known)^T m = word|_known, augmented with one column per digit
    aug = [[row[c] for row in code.G] + d for c, d in zip(known, digits)]
    R, pivots = gf.rref(code.field, aug)
    if pivots and pivots[-1] >= code.k:
        raise ValueError("received symbols are not consistent with the code")
    if len(pivots) < code.k:
        raise ValueError("erasure pattern not decodable: no information set survives")
    return gf.digit_ints([R[i][code.k:] for i in range(code.k)], q)


def erasure_decode(code: LinearCode, word: Sequence[Optional[int]]) -> list[int]:
    """The unique codeword agreeing with ``word`` on its non-None
    coordinates (see :func:`solve_message`)."""
    q = code.field.order
    msg = solve_message(code, word)
    digits = gf.digit_array(msg, q, gf.digit_count(msg, q))
    return gf.digit_ints(gf.matmul(q, _transpose(code.G), digits), q)


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
