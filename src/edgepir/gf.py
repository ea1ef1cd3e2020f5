"""Exact arithmetic over prime-power finite fields and their extensions.

Elements are encoded as plain Python ints in ``range(field.order)``.  For a
prime field GF(p) the int is the residue itself.  For an extension field
GF(B^d) over a base field B, the int is read as d base-|B| digits, least
significant digit first: digit j is the coefficient of x^j of the element's
polynomial representation.  This makes 0 and 1 the additive and
multiplicative identities of every field, and makes the canonical copy of
the base field inside an extension simply the ints ``range(base.order)``.

Towers are supported (e.g. GF(4) = ExtField(GF(2), 2) and then
GF(4^3) = ExtField(GF(4), 3)), which is how GF(q^delta) for prime-power q
is built.  Subfield embeddings GF(B^d) -> GF(B^d') for d | d' are computed
by locating a root of the small field's modulus in the big field.

Dense linear algebra (rank / solve / invert / null space) is provided as
module functions operating on lists of rows of ints.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Optional, Sequence

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
        self._embed_maps: dict = {}
        if self.order <= self._TABLE_LIMIT:
            self._mul_tab = [
                [self._mul_poly(a, b) for b in range(self.order)]
                for a in range(self.order)
            ]
        else:
            self._mul_tab = None

    # -- encoding ----------------------------------------------------------
    def to_coeffs(self, a: int) -> list[int]:
        q = self.base.order
        out = []
        for _ in range(self.degree):
            out.append(a % q)
            a //= q
        return out

    def from_coeffs(self, coeffs: Sequence[int]) -> int:
        if len(coeffs) > self.degree:
            raise ValueError("too many coefficients")
        q = self.base.order
        a = 0
        for c in reversed(list(coeffs)):
            a = a * q + c
        return a

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
def make_field(q: int, delta: int = 1, modulus: Optional[tuple] = None) -> Field:
    """Construct GF(q^delta) for a prime power q.

    With no explicit modulus, all defining polynomials are the
    lexicographically smallest irreducible ones, so repeated calls with the
    same arguments return the identical field.
    """
    p, m = factor_prime_power(q)
    base: Field = PrimeField(p)
    if m > 1:
        base = ExtField(base, m)
    if delta == 1:
        if modulus is not None:
            raise ValueError("modulus given for a degree-1 extension")
        return base
    return ExtField(base, delta, modulus)


# ---------------------------------------------------------------------------
# subfield embeddings
# ---------------------------------------------------------------------------

def _common_base(f: Field) -> Field:
    return f.base if isinstance(f, ExtField) else f


def embedding_degrees(src: Field, dst: Field) -> tuple[int, int]:
    """(degree of src, degree of dst) over their common base; src must embed."""
    if isinstance(dst, ExtField) and src == dst.base:
        # src is the coefficient field of dst: a degree-1 inclusion
        return 1, dst.degree
    if _common_base(src) != _common_base(dst):
        raise ValueError("fields are not extensions of a common base")
    ds = src.degree if isinstance(src, ExtField) else 1
    dd = dst.degree if isinstance(dst, ExtField) else 1
    if dd % ds != 0:
        raise ValueError(f"degree {ds} does not divide {dd}")
    return ds, dd


def embed(x: int, src: Field, dst: Field) -> int:
    """Map x from GF(B^d) into GF(B^d') with d | d'.

    The map is the unique-up-to-conjugacy B-algebra homomorphism sending the
    generator of src to the smallest (in element encoding) root of src's
    modulus in dst; it is injective and fixes B pointwise.
    """
    if src == dst:
        return x
    ds, _ = embedding_degrees(src, dst)
    if ds == 1:
        return x  # base-field constants are the same ints in dst
    fwd, _ = _embedding_maps(src, dst)
    return fwd[x]


def project(y: int, src: Field, dst: Field) -> int:
    """Inverse of :func:`embed`: pull y in dst back to src.

    Raises ValueError if y is not in the embedded image of src.
    """
    if src == dst:
        return y
    ds, _ = embedding_degrees(src, dst)
    if ds == 1:
        if y >= src.order:
            raise ValueError("element not in subfield image")
        return y
    _, back = _embedding_maps(src, dst)
    if y not in back:
        raise ValueError("element not in subfield image")
    return back[y]


def _multiplicative_generator(F) -> int:
    """Smallest generator of F's multiplicative group (cached per field)."""
    g = getattr(F, "_mult_gen", None)
    if g is not None:
        return g
    m = F.order - 1
    primes = _prime_factors(m) if m > 1 else []
    g = 2
    while g < F.order:
        if all(F.pow(g, m // p) != 1 for p in primes):
            F._mult_gen = g
            return g
        g += 1
    F._mult_gen = 1  # GF(2): the trivial group
    return 1


def _embedding_maps(src: ExtField, dst: Field) -> tuple[list[int], dict]:
    if not isinstance(dst, ExtField):
        raise ValueError("target field has no proper subfield to embed into")
    key = (hash(src), src.order)
    if key in dst._embed_maps:
        return dst._embed_maps[key]
    base = src.base
    # every root of src.modulus in dst lies in the unique subfield of
    # src.order elements, so enumerate that subfield through a generator of
    # dst's multiplicative group rather than scanning all of dst; taking the
    # minimum keeps the embedding identical to a full smallest-root scan
    if (dst.order - 1) % (src.order - 1):
        raise ValueError("target field has no subfield of the source's size")
    g = _multiplicative_generator(dst)
    h = dst.pow(g, (dst.order - 1) // (src.order - 1))
    candidates = [0, 1]
    y = h
    while y != 1:
        candidates.append(y)
        y = dst.mul(y, h)
    root = None
    for cand in sorted(candidates):
        acc = 0
        for c in reversed(src.modulus):  # Horner, constants embed as ints
            acc = dst.add(dst.mul(acc, cand), c)
        if acc == 0:
            root = cand
            break
    if root is None:
        raise ValueError("modulus has no root in target field")
    powers = [1]
    for _ in range(src.degree - 1):
        powers.append(dst.mul(powers[-1], root))
    fwd = []
    for x in src.elements():
        acc = 0
        for c, pw in zip(src.to_coeffs(x), powers):
            acc = dst.add(acc, dst.mul(c, pw))
        fwd.append(acc)
    back = {v: i for i, v in enumerate(fwd)}
    if len(back) != src.order:
        raise RuntimeError("embedding is not injective")  # unreachable
    dst._embed_maps[key] = (fwd, back)
    return fwd, back


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
