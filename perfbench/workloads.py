"""The benchmark's four workloads, driven through edgepir's public API.

Each workload turns the seed into inputs (library bits, request list, the
program's rng, per-op seeds), builds what the program needs in ``setup``,
runs one operation in ``op`` and checks that operation's output in
``check``.  ``op`` is the only timed part.  ``check`` raises
:class:`WrongOutput` on a wrong result and returns the counted quantities
(bits and payload) of a correct one.

Why these four: see README.md in this directory.
"""

from __future__ import annotations

import math
import os
import shutil
import tempfile
from fractions import Fraction
from math import floor

import numpy as np

from edgepir import cache, optimizer, pirproto, rates, simnet, topology

GRID_REFERENCE = [0.0, 0.0, 0.1736, 0.5113, 0.3151]
SCHEDULE = 16  # in-range counts b are drawn from 16 strata of gamma's cdf


class WrongOutput(Exception):
    """The program returned, but its output is not the correct one."""


class Workload:
    """Defaults: no field (``q``, ``symbol_order`` name the base and symbol
    fields for the tracer's counters), no per-run state to reset, nothing
    to clean up."""

    q = symbol_order = 0

    def reset(self) -> None:
        pass

    def close(self) -> None:
        pass


def _bit_reverse(j: int, bits: int) -> int:
    return int(format(j, f"0{bits}b")[::-1], 2)


def b_schedule(gamma) -> list[int]:
    """Stratified in-range counts: the midpoints of 16 equal-probability
    strata of gamma's cdf, in bit-reversed order so every prefix of 1, 2,
    4, 8 or 16 ops is itself stratified.  A run of a few slow sessions
    then sees the coverage mix of gamma instead of a seed's luck, and the
    least-covered (slowest) session comes first."""
    cdf = np.cumsum(gamma)
    bits = SCHEDULE.bit_length() - 1
    us = [(_bit_reverse(j, bits) + 0.5) / SCHEDULE for j in range(SCHEDULE)]
    return [int(np.searchsorted(cdf, u * cdf[-1])) for u in us]


def _library_bits(rng, F: int, beta: int, L: int) -> list:
    return rng.integers(0, 2, size=(F, beta, L), dtype=np.uint8).tolist()


class Retrieval(Workload):
    """Closed-loop PIR retrieval sessions (``medium`` and ``multirate``).

    One op is one ``simnet.run_retrieval`` session with kept messages.  The
    check recovers the file again from the kept queries and responses,
    compares it with the generated bits, and counts MBS, SBS and upload
    bits from the messages.
    """

    REQUESTS = 1024  # Zipf(0.7) request list, replayed in order

    def __init__(self, seed: int, *, F, beta, L, q, N_sbs, n, T, mu, gamma):
        self.F, self.beta, self.L, self.q = F, beta, L, q
        self.N_sbs, self.n, self.T = N_sbs, n, T
        self.mu, self.gamma = mu, gamma
        s_lib, s_req, self.s_prog, self.s_warm = np.random.SeedSequence(seed).spawn(4)
        self.files = _library_bits(np.random.default_rng(s_lib), F, beta, L)
        self.popularity = topology.zipf(F, 0.7)
        p = np.asarray(self.popularity)
        self.requests = np.random.default_rng(s_req).choice(
            F, size=self.REQUESTS, p=p / p.sum()).tolist()
        self._plans: dict = {}  # coords -> (params, erasure matrix) for checks

    def setup(self, workdir: str) -> None:
        lib = cache.FileLibrary(self.files, self.L, self.popularity)
        scheme = cache.CachingScheme(self.N_sbs, sum(self.mu), self.mu, q=self.q)
        self.cache = cache.EncodedCache(lib, scheme)
        gamma = self.gamma() if callable(self.gamma) else self.gamma
        self.network = simnet.Network(self.cache, gamma)
        self.bs = b_schedule(self.network.gamma)
        big = self.cache.symbol_field
        self.symbol_order = big.order
        self.symbol_bits = (big.order - 1).bit_length()
        self.query_bits = (self.q - 1).bit_length()
        # warm-up op, with its own rng: the most popular file at the best
        # coverage in the schedule, the cheapest session that still fills
        # every lazy cache (fields, embedding maps)
        simnet.run_retrieval(self.network, self.T, self.n, 0,
                             np.random.default_rng(self.s_warm), b=max(self.bs))

    def reset(self) -> None:
        """Start the program's rng over, so a replay repeats every op."""
        self.rng = np.random.default_rng(self.s_prog)

    def _op_input(self, i: int) -> tuple[int, int]:
        return self.requests[i % len(self.requests)], self.bs[i % len(self.bs)]

    def op(self, i: int):
        f, b = self._op_input(i)
        return simnet.run_retrieval(self.network, self.T, self.n, f, self.rng,
                                    b=b, keep_messages=True)

    def check(self, i: int, tr) -> dict:
        f, b = self._op_input(i)
        cached = self.mu[f] != 0
        if (tr.file_index, tr.b, tr.cached, tr.n) != (f, b, cached, self.n):
            raise WrongOutput("transcript does not describe the requested session")
        if not tr.success:
            raise WrongOutput("session reports a failed recovery")
        used = min(len(tr.in_range), self.n)
        d = len(tr.queries.Q[0])
        mbs_bits = sbs_bits = 0
        for pos, resp in enumerate(tr.responses):
            if resp is None:
                if cached or pos < used:
                    raise WrongOutput(f"coordinate {pos} sent no response")
                continue
            if len(resp) != d or any(not 0 <= s < self.symbol_order for s in resp):
                raise WrongOutput(f"malformed response from coordinate {pos}")
            if pos < used:
                sbs_bits += len(resp) * self.symbol_bits
            elif cached:
                mbs_bits += len(resp) * self.symbol_bits
            else:
                raise WrongOutput("MBS answered a query for an uncached file")
        if not cached:
            mbs_bits += self.beta * self.L  # the whole file, over the backhaul
        upload_bits = sum(len(row) for Q in tr.queries.Q for row in Q) * self.query_bits
        expect = simnet.transcript_bit_counts(self.cache, cached, b, self.n, d)
        if (mbs_bits, sbs_bits) != expect:
            raise WrongOutput(f"message bits {(mbs_bits, sbs_bits)} differ "
                              f"from the closed form {expect}")
        if (tr.bits_from_mbs, tr.bits_from_sbs) != expect:
            raise WrongOutput("transcript bit counts differ from the closed form")
        if cached:
            key = tuple(tr.coords)
            if key not in self._plans:
                params = pirproto.plan_protocol(self.cache, self.T, self.n, key)
                self._plans[key] = (params, pirproto.build_erasure_matrix(params))
            params, em = self._plans[key]
            if pirproto.recover(params, em, tr.queries, tr.responses) != self.files[f]:
                raise WrongOutput("recovered file differs from the original bits")
        return {"payload_bits": self.beta * self.L if cached else 0,
                "file_bits": self.beta * self.L, "mbs_bits": mbs_bits,
                "sbs_bits": sbs_bits, "upload_bits": upload_bits}


def _ppp_gamma_psi5():
    r_u = 60.0
    return topology.ppp_gamma(topology.PppModel(5.0 / (math.pi * r_u ** 2), r_u))


def medium(seed: int) -> Retrieval:
    F = 20
    return Retrieval(seed, F=F, beta=6, L=128, q=16, N_sbs=10, n=10, T=2,
                     mu=[Fraction(1, 3)] * F, gamma=_ppp_gamma_psi5)


def multirate(seed: int) -> Retrieval:
    half = Fraction(1, 2)
    mu = [Fraction(1), Fraction(1), half, half, half, half, Fraction(0), Fraction(0)]
    return Retrieval(seed, F=8, beta=4, L=24, q=8, N_sbs=6, n=6, T=1, mu=mu,
                     gamma=GRID_REFERENCE)


class Ingest(Workload):
    """Write side: build the library and its coded cache, save a snapshot
    and load it back (which re-encodes and verifies), on a fresh library
    per op with the medium parameters."""

    F, beta, L, q, N_sbs, k = 20, 6, 128, 16, 10, 3
    LIBRARIES = 32

    def __init__(self, seed: int):
        s_lib, s_warm = np.random.SeedSequence(seed).spawn(2)
        rng = np.random.default_rng(s_lib)
        self.libraries = [_library_bits(rng, self.F, self.beta, self.L)
                          for _ in range(self.LIBRARIES)]
        self.warm_bits = _library_bits(np.random.default_rng(s_warm),
                                       self.F, self.beta, self.L)
        self.popularity = topology.zipf(self.F, 0.7)
        self.tmp = None

    def setup(self, workdir: str) -> None:
        mu = [Fraction(1, self.k)] * self.F
        self.scheme = cache.CachingScheme(self.N_sbs, sum(mu), mu, q=self.q)
        self.tmp = tempfile.mkdtemp(prefix="ingest-", dir=workdir)
        self.path = os.path.join(self.tmp, "cache.epir")
        enc, _ = self._round_trip(self.warm_bits)
        self.symbol_order = enc.symbol_field.order

    def _round_trip(self, bits):
        lib = cache.FileLibrary(bits, self.L, self.popularity)
        enc = cache.EncodedCache(lib, self.scheme)
        cache.save_snapshot(self.path, enc)
        return enc, cache.load_snapshot(self.path)

    def op(self, i: int):
        return self._round_trip(self.libraries[i % self.LIBRARIES])

    def check(self, i: int, out) -> dict:
        enc, loaded = out
        bits = self.libraries[i % self.LIBRARIES]
        if enc.library.files != bits or loaded.library.files != bits:
            raise WrongOutput("library bits changed in the round trip")
        if (loaded.scheme.mu, loaded.scheme.q, loaded.scheme.N_sbs, loaded.scheme.M) != \
                (self.scheme.mu, self.scheme.q, self.scheme.N_sbs, self.scheme.M):
            raise WrongOutput("loaded scheme differs from the saved one")
        if (loaded.delta_max, loaded.pad_bits, loaded.library.popularity) != \
                (enc.delta_max, enc.pad_bits, enc.library.popularity):
            raise WrongOutput("loaded packing differs from the saved one")
        if loaded.messages != enc.messages or loaded.symbols != enc.symbols:
            raise WrongOutput("loaded cache symbols differ from the encoded ones")
        if len(enc.symbols) != self.F:
            raise WrongOutput("not every file was encoded")
        return {"payload_bits": self.F * self.beta * self.L}

    def close(self) -> None:
        if self.tmp:
            shutil.rmtree(self.tmp, ignore_errors=True)


class Analytics(Workload):
    """One figure pipeline: grid coverage at 10^6 samples, the fig3/fig4
    cache-size sweeps and the no-privacy optimum on it, the fig5 PPP
    density sweep, and the closed-form rates at every optimum.  No field, code
    or protocol code runs here."""

    F, alpha, T = 200, 0.7, 1
    M_VALUES = range(1, 201)
    LAMBDAS = [i * 1e-5 for i in range(1, 33)]
    # acceptance criterion 5: (lambda index, n*, k*) where the optimum changes
    FIG5_TRANSITIONS = [(1, None, None), (9, 4, 1), (10, 3, 1), (13, 2, 1)]

    def __init__(self, seed: int):
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        self.grid_seeds = rng.integers(0, 2 ** 31, size=17).tolist()

    def setup(self, workdir: str) -> None:
        self.p = topology.zipf(self.F, self.alpha)
        self.model = topology.GridModel(D=500.0, spacing=60.0, r=60.0)
        self._pipeline(self.grid_seeds[-1])  # warm-up op

    def _pipeline(self, grid_seed: int) -> dict:
        p, T = self.p, self.T
        gamma = topology.grid_gamma(self.model, mc_samples=10 ** 6, seed=grid_seed)
        sweeps = {theta: optimizer.sweep_cache_size(p, gamma, self.M_VALUES, T,
                                                    theta=theta)
                  for theta in (0.0, 0.5)}
        fig5 = optimizer.sweep_density(p, 50, T, self.LAMBDAS, 60.0)
        transitions = optimizer.transition_points(fig5, "lambda")
        nopir = optimizer.optimize_nopir(p, gamma, 100)
        closed = {theta: [self._closed_form(row, gamma, theta) for row in rows]
                  for theta, rows in sweeps.items()}
        nopir_rate = rates.backhaul_nopir(p, nopir.mu_star, gamma)
        return {"gamma": gamma.gamma, "sweeps": sweeps, "closed": closed,
                "transitions": transitions, "nopir": nopir,
                "nopir_rate": nopir_rate}

    def _closed_form(self, row: dict, gamma, theta: float):
        """R + theta*D from the closed forms at a sweep row's optimum."""
        k, n = row["k_star"], row["n_star"]
        if k is None:
            return None
        files = min(floor(row["M"] * k), self.F)
        mu = [Fraction(1, k)] * files + [Fraction(0)] * (self.F - files)
        R = rates.backhaul_pir(self.p, mu, gamma, n, self.T)
        D = rates.sbs_rate_pir(self.p, mu, gamma, n, self.T)
        return R + theta * D

    def op(self, i: int) -> dict:
        return self._pipeline(self.grid_seeds[i % (len(self.grid_seeds) - 1)])

    def check(self, i: int, out: dict) -> dict:
        gamma = out["gamma"] + [0.0] * len(GRID_REFERENCE)
        if any(abs(g - r) > 0.01 for g, r in zip(gamma, GRID_REFERENCE)) \
                or any(gamma[len(GRID_REFERENCE):]):
            raise WrongOutput(f"grid gamma {out['gamma']} is not within 0.01 "
                              f"of {GRID_REFERENCE}")
        got = [(round(r["lambda"] * 1e5), r["n_star"], r["k_star"])
               for r in out["transitions"]]
        if got != self.FIG5_TRANSITIONS:
            raise WrongOutput(f"fig5 transitions {got} differ from criterion 5")
        nopir = out["nopir"]
        if abs(nopir.value) > 1e-9 or abs(out["nopir_rate"]) > 1e-9 \
                or any(k != 2 for k in nopir.k_star):
            raise WrongOutput("no-privacy optimum at M=100 is not rate 0 via k=2")
        for theta, rows in out["sweeps"].items():
            if [r["M"] for r in rows] != list(self.M_VALUES):
                raise WrongOutput("cache-size sweep skipped a cache size")
            for row, closed in zip(rows, out["closed"][theta]):
                expect = 1.0 if closed is None else closed
                if abs(row["value"] - expect) > 1e-9:
                    raise WrongOutput(f"optimum at M={row['M']} (theta={theta}) "
                                      f"disagrees with the closed-form rates")
        return {}


WORKLOADS = {"medium": medium, "multirate": multirate, "ingest": Ingest,
             "analytics": Analytics}
