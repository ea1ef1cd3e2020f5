"""End-to-end simulated edge network.

SBSs and the MBS are emulated in-process with explicit request/response
records so bit accounting is exact and runs are deterministic under a
seed.  A retrieval session samples the number b of in-range SBSs from the
coverage distribution, runs the PIR protocol with b real responders and
n - b coordinates answered by the MBS, verifies the recovered file, and
records the bits downloaded from each side, counted from the responses the
session built (monte_carlo checks them against the closed form).

Accounting conventions (normalized by the file size beta*L):

* cached file: min(b, n) SBS responses and n - min(b, n) MBS responses,
  each d subresponses of delta_max GF(q) digits;
* uncached file: the full file from the MBS, plus dummy queries to the
  min(b, n) in-range SBSs whose responses are downloaded and discarded so
  spies cannot tell cached and uncached requests apart.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import gf, pirproto, rates
from .cache import EncodedCache
from .spec import VerificationError
from .topology import CoverageDistribution


@dataclass
class Network:
    cache: EncodedCache
    gamma: list  # coverage distribution over the in-range SBS count b

    def __post_init__(self):
        self.gamma = CoverageDistribution(rates._gamma_list(self.gamma)).gamma

    def sample_b(self, rng) -> int:
        return int(rng.choice(len(self.gamma), p=self.gamma))


@dataclass
class RetrievalTranscript:
    file_index: int
    cached: bool
    b: int
    in_range: list
    coords: list
    n: int
    bits_from_mbs: int
    bits_from_sbs: int
    success: bool
    queries: Optional[object] = field(default=None, repr=False)
    responses: Optional[list] = field(default=None, repr=False)

    def summary(self) -> dict:
        return {"file_index": self.file_index, "cached": self.cached,
                "b": self.b, "n": self.n, "bits_from_mbs": self.bits_from_mbs,
                "bits_from_sbs": self.bits_from_sbs, "success": self.success}


def response_bits(cache: EncodedCache, d: int) -> int:
    """Exact size of one response: d subresponses of delta_max GF(q) digits."""
    return d * cache.delta_max * gf.field_degree(cache.scheme.q)


def transcript_bit_counts(cache: EncodedCache, cached: bool, b: int,
                          n: int, d: int) -> tuple[int, int]:
    """Closed-form (bits_from_mbs, bits_from_sbs) for one session."""
    lib = cache.library
    rb = response_bits(cache, d)
    used = min(b, n)
    if cached:
        return (n - used) * rb, used * rb
    return lib.beta * lib.L, used * rb


def run_retrieval(network: Network, T: int, n: int, file_index: int, rng,
                  b: Optional[int] = None,
                  keep_messages: bool = False) -> RetrievalTranscript:
    """One full retrieval session.

    The b in-range SBSs keep their physical storage-code coordinates; the
    remaining n - b protocol coordinates are the lowest-indexed unused ones
    and are answered by the MBS.  When b > n only the n lowest-indexed
    in-range SBSs are contacted.
    """
    cache = network.cache
    scheme = cache.scheme
    if b is None:
        b = network.sample_b(rng)
    pool = rng.permutation(scheme.N_sbs)[:min(b, scheme.N_sbs)]
    in_range = sorted(int(x) for x in pool)
    used_sbs = in_range[:n]
    unused = [c for c in range(scheme.N_sbs) if c not in set(used_sbs)]
    coords = list(used_sbs) + unused[:max(0, n - len(used_sbs))]
    if len(coords) < n:
        raise ValueError("not enough storage coordinates for n")
    is_cached = scheme.mu[file_index] != 0
    params = pirproto.plan_protocol(cache, T, n, coords)
    em = pirproto.build_erasure_matrix(params)
    if is_cached:
        target = file_index
    else:
        # dummy target drawn uniformly from the cached files so the query
        # distribution at the SBSs is unchanged
        cached_files = scheme.cached_files()
        target = int(cached_files[rng.integers(len(cached_files))])
    queries = pirproto.generate_queries(params, em, target, rng)
    sbs_count = len(used_sbs)
    responses = []
    for pos, c in enumerate(coords):
        if is_cached or pos < sbs_count:
            column = (cache.cache_column(c) if pos < sbs_count
                      else cache.mbs_column(c))
            responses.append(pirproto.respond(params, queries.Q[pos], column))
        else:
            responses.append(None)  # uncached: MBS coordinates not requested
    if is_cached and pirproto.recover(params, em, queries, responses) \
            != cache.library.files[file_index]:
        raise VerificationError("recovered file differs from the original")
    # measured from the responses built; an uncached file crosses the
    # backhaul whole and its SBS answers are downloaded and discarded
    bits = [response_bits(cache, len(r)) for r in responses if r is not None]
    bits_sbs = sum(bits[:sbs_count])
    bits_mbs = sum(bits[sbs_count:]) if is_cached else cache.library.beta * cache.library.L
    return RetrievalTranscript(
        file_index, is_cached, b, in_range, coords, n, bits_mbs, bits_sbs,
        True, queries if keep_messages else None,
        responses if keep_messages else None)


def monte_carlo(network: Network, T: int, n: int, trials: int, rng,
                full_sessions: int = 100) -> dict:
    """Estimate the backhaul and SBS rates over ``trials`` sessions.

    Requests are sampled from the popularity profile and coverage from
    gamma; per-session bits follow the exact per-transcript accounting.  A
    subset of sessions also runs the full protocol and raises VerificationError
    unless recovery succeeds and its bit counts equal the accounting.
    """
    cache = network.cache
    lib = cache.library
    scheme = cache.scheme
    d = scheme.k_max
    file_size = lib.beta * lib.L
    p = np.asarray(lib.popularity)
    g = np.asarray(network.gamma)
    files = rng.choice(lib.F, size=trials, p=p / p.sum())
    bs = rng.choice(len(g), size=trials, p=g / g.sum())
    mu = np.array([float(m) for m in scheme.mu])
    cached_mask = mu[files] > 0
    used = np.minimum(bs, n)
    rb = response_bits(cache, d)
    mbs_bits = np.where(cached_mask, (n - used) * rb, file_size)
    sbs_bits = used * rb
    R = mbs_bits / file_size
    D = sbs_bits / file_size
    for t in range(min(full_sessions, trials)):
        tr = run_retrieval(network, T, n, int(files[t]), rng, b=int(bs[t]))
        expect = transcript_bit_counts(cache, bool(cached_mask[t]),
                                       int(bs[t]), n, d)
        if (tr.bits_from_mbs, tr.bits_from_sbs) != expect:
            raise VerificationError("transcript bits disagree with closed form")
    return {
        "R_hat": float(R.mean()),
        "D_hat": float(D.mean()),
        "R_stderr": float(R.std(ddof=1) / np.sqrt(trials)) if trials > 1 else 0.0,
        "D_stderr": float(D.std(ddof=1) / np.sqrt(trials)) if trials > 1 else 0.0,
        "trials": trials,
        "full_sessions": min(full_sessions, trials),
    }


def spy_coalition(network: Network, T: int, n: int, coalition: Sequence[int],
                  sessions: int, rng, sabotage: bool = False,
                  level: float = 0.01) -> dict:
    """Collect the queries seen by a coalition of spy SBSs across sessions
    with uniformly chosen requested files, and run a chi-square test of
    independence between the observed query pattern and the file index.

    ``sabotage`` disables the blinding randomness (all-zero codewords),
    which should be detected as a privacy failure.
    """
    params = pirproto.plan_protocol(network.cache, T, n)
    em = pirproto.build_erasure_matrix(params)
    coalition = sorted(coalition)
    if not coalition:
        return {"p_value": 1.0, "reject": False, "sessions": sessions}
    zero = [[[0] * params.n for _ in range(params.width)]
            for _ in range(params.d)]

    def queries_for(iota):
        if sabotage:
            return pirproto._queries_from_codewords(params, em, iota, zero)
        return pirproto.generate_queries(params, em, params.cached[iota], rng)

    p_value = pirproto.chi2_view_test(params, coalition, sessions, rng,
                                      queries_for)
    return {"p_value": p_value, "reject": bool(p_value < level),
            "sessions": sessions}
