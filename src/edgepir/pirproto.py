"""Private information retrieval over the coded SBS caches.

A retrieval of file i from n storage-code coordinates, tolerating T
colluding SBSs, works in d = k_max subquery rounds.  Each coordinate l
receives a d x (beta*F_c) query matrix over GF(q) whose rows are a shared
random blinding vector c_ring_l plus, on rounds where coordinate l is
"useful", a unit vector selecting one stripe of the requested file.  The
blinding vectors are coordinates of random codewords of an (n, T) code Cbar
whose dual distance exceeds T, so any T query matrices are jointly
independent of the requested index.

Responses are inner products of GF(q) query rows with the SBS cache
column, whose symbols are vectors in GF(q)^{delta_max}, so every digit is
answered independently.  Stacking round j's subresponses gives a vector
that is a codeword of the retrieval code Ctilde = (sum_i C'_i) o Cbar plus
the useful symbols on the support J_j of row j of the erasure matrix Ehat.
Gamma = n - (k_max + T - 1) symbols are freed per round, and the stripe
bookkeeping {I_m}, {F_l} routes them to the storage codes' decoders.  All
this depends only on (T, n, coords), so decoding is a linear map fixed at
plan time: D_j = H_J^{-1} H frees round j's symbols, and one elimination
per storage code and stripe gives rows that solve for the message and rows
that check the k_max - k_i surplus symbols; :func:`recover` applies them.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations, product
from typing import Optional, Sequence

import numpy as np

from . import codes, gf
from .cache import EncodedCache
from .spec import ProtocolError


@dataclass(slots=True)
class ProtocolParams:
    cache: EncodedCache
    T: int
    n: int
    coords: list  # storage-code coordinates in use, len n
    d: int
    Gamma: int
    beta: int
    Cbar: codes.LinearCode
    Ctilde: codes.LinearCode  # retrieval code (sum_i C'_i) o Cbar
    Cprime: dict  # file index -> punctured storage code on coords
    cached: list  # cached file indices, ascending

    @property
    def base_field(self):
        return self.Cbar.field

    @property
    def big_field(self):
        return self.cache.symbol_field

    @property
    def width(self) -> int:
        """Query-vector length: beta stripes for each cached file."""
        return self.beta * len(self.cached)


def plan_protocol(cache: EncodedCache, T: int, n: int,
                  coords: Optional[Sequence[int]] = None) -> ProtocolParams:
    scheme = cache.scheme
    cached = scheme.cached_files()
    if not cached:
        raise ValueError("nothing is cached; PIR retrieval needs cached files")
    k_max = scheme.k_max
    if n < k_max + T:
        raise ValueError(f"need n >= k_max + T = {k_max + T}, got n = {n}")
    if coords is None:
        coords = list(range(n))
    coords = list(coords)
    if len(coords) != n or len(set(coords)) != n:
        raise ValueError("coords must be n distinct storage coordinates")
    if any(c < 0 or c >= scheme.N_sbs for c in coords):
        raise ValueError("coordinate outside the storage code")
    Gamma = n - (k_max + T - 1)
    beta = Gamma
    if beta != cache.library.beta:
        raise ValueError(
            f"library must have beta = {beta} stripes per file for these "
            f"protocol parameters, found {cache.library.beta}")
    field = gf.make_field(scheme.q)
    kappa = None
    if scheme.N_sbs <= field.order - 1:
        kappa_global = codes.default_kappa(field, scheme.N_sbs)
        kappa = [kappa_global[c] for c in coords]
    Cbar = codes.mds_code(field, n, T, kappa=kappa)  # blinding code
    if codes.dual_min_distance(Cbar) < T + 1:
        raise ValueError("blinding code cannot tolerate T colluders")
    # one punctured code per distinct storage code; sum_code and hadamard
    # return RREF bases of their spans, so repeated summands change nothing
    distinct = dict.fromkeys(cache.codes[i] for i in cached)
    punctured = {C: codes.puncture(C, coords) for C in distinct}
    Cprime = {i: punctured[cache.codes[i]] for i in cached}
    Csum = None
    for C in punctured.values():
        Csum = C if Csum is None else codes.sum_code(Csum, C)
    Ctilde = codes.hadamard(Csum, Cbar)
    if Ctilde.k != k_max + T - 1:
        raise ValueError(
            f"retrieval code has dimension {Ctilde.k}, expected {k_max + T - 1}")
    if Ctilde.k >= n:
        raise ValueError("retrieval code rate must be strictly below 1")
    return ProtocolParams(cache, T, n, coords, k_max, Gamma, beta,
                          Cbar, Ctilde, Cprime, cached)


@dataclass(slots=True, eq=False)
class ErasureMatrix:
    Ehat: list  # d rows of n bits
    J: list  # row supports, each a list of Gamma coordinates
    I_sets: list  # beta information sets of C'_max, each size k_max
    F_sets: list  # per coordinate l, sorted list of stripes m with l in I_m
    D: np.ndarray  # d x Gamma x n, D_j = H_J^{-1} H
    decoders: dict  # storage code -> its _stripe_decoder
    gather: Optional[np.ndarray] = None  # beta x k_max rows of the stacked D_j rho_j
    units: Optional[np.ndarray] = None  # 3 x (d Gamma): (l, j, s) of every useful round


def build_erasure_matrix(params: ProtocolParams) -> ErasureMatrix:
    """Ehat, {I_m}, {F_l} and the recovery matrices, checking C1-C3."""
    d, n, Gamma = params.d, params.n, params.Gamma
    J = [[(j + t) % n for t in range(Gamma)] for j in range(d)]
    Ehat = [[1 if l in set(row) else 0 for l in range(n)] for row in J]
    F, H, D = params.base_field, params.Ctilde.H, []
    for row, support in zip(Ehat, J):
        if sum(row) != Gamma:
            raise ValueError("erasure-matrix row does not have weight Gamma")
        # [H_J | H] reduces to [I | H_J^{-1} H] iff the support is correctable
        R, pivots = gf.rref(F, np.hstack([H[:, support], H]))
        if pivots != list(range(Gamma)):
            raise ValueError("erasure-matrix row not correctable by the retrieval code")
        D.append(R[:, Gamma:])
    I_sets, F_sets = build_information_sets(Ehat, params.beta, n, params.d)
    for l in range(n):
        if len(F_sets[l]) != sum(Ehat[j][l] for j in range(d)):
            raise ValueError(f"coordinate {l} serves the wrong number of stripes")
    decoders = {C: _stripe_decoder(C, I_sets, params.coords, params.cache.scheme.k_max)
                for C in dict.fromkeys(params.cache.codes[i] for i in params.cached)}
    em = ErasureMatrix(Ehat, J, I_sets, F_sets, np.array(D), decoders)
    s_assign = _s_assignment(em, d, n)
    slot = {(s_assign[l, j], l): j * Gamma + t for j, row in enumerate(J)
            for t, l in enumerate(row)}
    em.gather = np.array([[slot[m, l] for l in sorted(I)] for m, I in enumerate(I_sets)])
    em.units = np.array([(l, j, m) for (l, j), m in s_assign.items()]).T
    return em


def _stripe_decoder(code: codes.LinearCode, I_sets: list, coords: list,
                    k_max: int) -> np.ndarray:
    """Per stripe, the right half E of one elimination of [(G|_I)^T | 1]
    on storage coordinates coords[l], l in sorted(I_m): the first k entries
    of E w are the message x when w = (G|_I)^T x, and the other k_max - k
    vanish iff w is such a restriction.  Stacked, beta x k_max x k_max."""
    k, E = code.k, []
    for I in I_sets:
        G_I = code.G[:, [coords[l] for l in sorted(I)]]
        R, pivots = gf.rref(code.field, np.hstack([G_I.T, np.eye(len(I), k_max, dtype=np.intp)]))
        if len(I) != k_max or pivots[:k] != list(range(k)):
            raise ValueError("constructed set is not an information set")
        E.append(R[:, k:])
    return np.array(E)


def build_information_sets(Ehat: list, beta: int, n: int, d: int):
    """Greedy construction of stripe information sets {I_m} and the
    coordinate-to-stripe maps F_l = {m : l in I_m}.

    Column l of Ehat has weight w_l; coordinate l must serve w_l distinct
    stripes.  Scanning stripes in order and assigning each coordinate to the
    first stripe that still needs members and does not already contain it
    fills every I_m to size k_max = (sum of weights) / beta.
    """
    weights = [sum(Ehat[j][l] for j in range(d)) for l in range(n)]
    total = sum(weights)
    if total % beta:
        raise ValueError("column weights do not split evenly across stripes")
    k_max = total // beta
    I_sets: list[set] = [set() for _ in range(beta)]
    F_sets: list[list[int]] = [[] for _ in range(n)]
    for l in range(n):
        for _ in range(weights[l]):
            m = next((m for m in range(beta)
                      if len(I_sets[m]) < k_max and l not in I_sets[m]), None)
            if m is None:
                raise ValueError("information-set construction got stuck")
            I_sets[m].add(l)
            F_sets[l].append(m)
    return [set(I) for I in I_sets], [sorted(F) for F in F_sets]


@dataclass(eq=False)
class QuerySet:
    """Q[l] is coordinate l's d x width GF(q) query matrix: the l-th slice of
    the blinding codewords, plus 1 at the plan's unit slots (l, j, beta*iota + s)."""
    file_index: int          # library index of the requested file
    iota: int                # position of the file among cached files
    Q: np.ndarray            # n x d x width
    codewords: np.ndarray    # d x width x n blinding codewords of Cbar


def _s_assignment(em: ErasureMatrix, d: int, n: int) -> dict:
    """Assign stripe indices s^(l)_j: rows using coordinate l consume the
    sorted F_l in ascending row order."""
    out = {}
    for l in range(n):
        rows = [j for j in range(d) if em.Ehat[j][l]]
        for j, m in zip(rows, em.F_sets[l]):
            out[(l, j)] = m
    return out


def _queries_from_codewords(params: ProtocolParams, em: ErasureMatrix,
                            iota: int, codewords) -> QuerySet:
    """Assemble query matrices from given blinding codewords.

    ``codewords`` is d x width length-n codewords of Cbar: each subquery
    round blinds with its own codewords, so the joint distribution of any T
    query matrices is uniform and carries no information about the
    requested file; reusing codewords across rounds would make row
    differences deterministic and leak the file index.
    """
    codewords = np.asarray(codewords)
    Q = codewords.transpose(2, 0, 1).copy()
    l, j, s = em.units  # distinct triples, so each unit is added once
    Q[l, j, params.beta * iota + s] ^= 1
    return QuerySet(params.cached[iota], iota, Q, codewords)


def generate_queries(params: ProtocolParams, em: ErasureMatrix,
                     file_index: int, rng) -> QuerySet:
    """Fresh query matrices for retrieving ``file_index`` (must be cached).

    The blinding codewords are drawn independently and uniformly from Cbar
    by encoding uniform message vectors, fresh for every subquery round.
    """
    if file_index not in params.cached:
        raise ValueError("requested file is not cached")
    iota = params.cached.index(file_index)
    q = params.base_field.order
    # all d*width blinding messages in one draw (the same values and rng
    # state as one bounded draw per element), and their codewords as one
    # product with Cbar's generator
    msgs = rng.integers(q, size=(params.d * params.width, params.Cbar.k))
    words = gf.matmul(q, msgs, params.Cbar.G)
    return _queries_from_codewords(params, em, iota,
                                   words.reshape(params.d, params.width, params.n))


def respond(params: ProtocolParams, Q_l: np.ndarray, column: np.ndarray) -> list[int]:
    """One coordinate's response: its d x width query matrix Q^(l) times its
    cache column as width x delta_max digits (``big_field.digits``), one
    GF(q) product; the d subresponses are returned as symbols."""
    if Q_l.shape[1] != column.shape[0]:
        raise ValueError("query width does not match cache column length")
    big = params.big_field
    return big.ints(gf.matmul(big.q, Q_l, column))


def _dot(field, row: Sequence[int], col: Sequence[int]) -> int:
    """Inner product of GF(q) scalars with symbols, one term at a time: the
    scalar form of respond's digit product."""
    acc = 0
    for a, b in zip(row, col):
        if a and b:
            acc = field.add(acc, field.mul(a, b))
    return acc


def collect_responses(params: ProtocolParams, queries: QuerySet,
                      columns: Sequence[Sequence[int]]) -> list[list[int]]:
    """Responses from all n coordinates given their cache columns of symbols."""
    big = params.big_field
    return [respond(params, queries.Q[l], big.digits(columns[l])) for l in range(params.n)]


def recover(params: ProtocolParams, em: ErasureMatrix, queries: QuerySet,
            responses: list) -> list[list[int]]:
    """Free each round's useful symbols with D_j, regroup them into
    stripes, check and solve each with its storage code's decoders, and
    unpack to bits; raises ProtocolError for a missing, short or
    inconsistent response."""
    big, q, i = params.big_field, params.base_field.order, queries.file_index
    if len(responses) != params.n or any(r is None or len(r) != params.d for r in responses):
        raise ProtocolError(f"need {params.n} responses of {params.d} subresponses each")
    try:
        rho = big.digits([s for r in responses for s in r]).reshape(params.n, params.d, -1)
    except ValueError as e:
        raise ProtocolError(f"malformed response: {e}")
    freed = np.concatenate([gf.matmul(q, D_j, rho[:, j]) for j, D_j in enumerate(em.D)])
    k, messages = params.cache.scheme.k[i], []
    for rows, E in zip(em.gather, em.decoders[params.cache.codes[i]]):
        try:  # a non-zero digit above delta_i
            EW = gf.matmul(q, E, gf.project(freed[rows], params.cache.deltas[i]))
        except ValueError as e:
            raise ProtocolError(f"inconsistent responses: {e}")
        if EW[k:].any():
            raise ProtocolError("inconsistent responses: received symbols are not "
                                "consistent with the code")
        messages.append(EW[:k])
    bits = gf.digit_bits(np.array(messages), params.base_field.degree)
    return bits.reshape(params.beta, -1)[:, :params.cache.library.L].tolist()


# ---------------------------------------------------------------------------
# privacy verification
# ---------------------------------------------------------------------------

def _view(queries: QuerySet, coalition: Sequence[int]) -> bytes:
    return queries.Q[coalition].tobytes()


def verify_privacy(params: ProtocolParams, em: ErasureMatrix,
                   coalition: Sequence[int], mode: str = "exact",
                   sessions: int = 100000, rng=None, level: float = 0.01) -> dict:
    """Check that the coalition's joint query view is independent of the
    requested file.

    Exact mode enumerates the full blinding-randomness space and reports the
    maximum total-variation distance between view distributions across all
    pairs of requested files.  Statistical mode samples sessions and runs a
    chi-square independence test of (view, file index).
    """
    coalition = sorted(coalition)
    if len(coalition) > params.T:
        raise ValueError("coalition larger than the tolerated collusion size")
    if not coalition:
        return {"mode": mode, "max_tv": 0.0, "private": True}
    if mode == "exact":
        return _verify_exact(params, em, coalition)
    if mode == "statistical":
        return _verify_statistical(params, em, coalition, sessions, rng, level)
    raise ValueError(f"unknown mode {mode!r}")


def _verify_exact(params: ProtocolParams, em: ErasureMatrix,
                  coalition: list) -> dict:
    q = params.base_field.order
    draws = params.d * params.width
    space = q ** (params.Cbar.k * draws)
    if space > 1 << 20:
        raise ValueError("randomness space too large for exact enumeration")
    msgs = np.array(list(product(range(q), repeat=params.Cbar.k)))
    encoded = gf.matmul(q, msgs, params.Cbar.G)
    dists = []
    for iota in range(len(params.cached)):
        counts: Counter = Counter()
        for combo in product(range(len(encoded)), repeat=draws):
            codewords = encoded[list(combo)].reshape(params.d, params.width, params.n)
            qs = _queries_from_codewords(params, em, iota, codewords)
            counts[_view(qs, coalition)] += 1
        dists.append({k: v / space for k, v in counts.items()})
    max_tv = 0.0
    for A, B in combinations(dists, 2):
        tv = 0.5 * sum(abs(A.get(k, 0.0) - B.get(k, 0.0)) for k in set(A) | set(B))
        max_tv = max(max_tv, tv)
    return {"mode": "exact", "max_tv": max_tv, "private": max_tv == 0.0}


def _verify_statistical(params: ProtocolParams, em: ErasureMatrix,
                        coalition: list, sessions: int, rng,
                        level: float) -> dict:
    if rng is None:
        rng = np.random.default_rng(0)
    p_value = chi2_view_test(
        params, coalition, sessions, rng,
        lambda iota: generate_queries(params, em, params.cached[iota], rng))
    return {"mode": "statistical", "p_value": p_value,
            "reject": bool(p_value < level)}


def chi2_view_test(params: ProtocolParams, coalition: Sequence[int],
                   sessions: int, rng, queries_for) -> float:
    """p-value of a chi-square test of independence between a coalition's
    view and the requested file over ``sessions`` sessions, each querying a
    uniform cached position iota with ``queries_for(iota)``; 1.0 when a
    single view or file was observed, which carries no information.  Raises
    ValueError when sessions < 5 * files * distinct views: with each view
    seen about once, chi-square is N (files - 1) whatever the queries are."""
    from scipy.stats import chi2_contingency

    n_files = len(params.cached)
    view_ids: dict = {}
    counts: Counter = Counter()
    for _ in range(sessions):
        iota = int(rng.integers(n_files))
        v = _view(queries_for(iota), coalition)
        counts[iota, view_ids.setdefault(v, len(view_ids))] += 1
    need = 5 * n_files * len(view_ids)
    if sessions < need:
        raise ValueError(f"chi-square privacy test needs 5 x {n_files} files x "
                         f"{len(view_ids)} distinct views = {need} sessions, got {sessions}")
    table = np.zeros((n_files, len(view_ids)))
    for (i, c), v in counts.items():
        table[i, c] = v
    table = table[table.sum(axis=1) > 0][:, table.sum(axis=0) > 0]
    if table.shape[0] < 2 or table.shape[1] < 2:
        return 1.0
    _, p_value, _, _ = chi2_contingency(table)
    return float(p_value)
