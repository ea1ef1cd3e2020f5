"""File library, stripe/packet partitioning, and MDS-coded SBS caches.

A library holds F files of beta stripes, each stripe L bits.  A caching
scheme assigns each file a cached fraction mu_i in {0} or {1/k : k integer};
a file with mu_i = 1/k is split per stripe into k packets, each packet is
one symbol of delta_i GF(q) digits, and the k symbols are encoded with an
(N_sbs, k) MDS storage code over GF(q), digit by digit, so that SBS j
stores coordinate j of every stripe codeword.  File i's symbols occupy the
low delta_i digits of GF(q)^{delta_max}, the space the protocol runs in.
The MBS keeps every file in plaintext; coordinate c of a stripe codeword is
the same symbol wherever it is served, so the MBS answers from the stored
codewords rather than encoding again.

Bit packing is big-endian per packet: the packet's bits, most significant
first, form the symbol's int, whose base-q digits are its GF(q) digits.
Stripes are padded with zero bits up to a common packed length so that all
delta_i divide delta_max; the pad length is recorded and stripped on unpack.
"""

from __future__ import annotations

import json
import struct
import zlib
from fractions import Fraction
from functools import cached_property, lru_cache
from math import lcm
from typing import Sequence

import numpy as np

from . import codes, gf, rates, spec
from .spec import SnapshotError

MAGIC = b"EPIR"


def check_popularity(popularity: Sequence[float], F: int) -> list[float]:
    """The popularity vector as a list, checked to hold F non-negative,
    non-increasing entries that sum to 1."""
    p = list(popularity)
    if len(p) != F:
        raise ValueError(f"popularity has {len(p)} entries for {F} files")
    if any(x < 0 for x in p):
        raise ValueError("popularity entries must be non-negative")
    if any(p[i] < p[i + 1] - 1e-12 for i in range(F - 1)):
        raise ValueError("popularity must be non-increasing")
    if abs(sum(p) - 1.0) > 1e-12:
        raise ValueError("popularity must sum to 1")
    return p


class FileLibrary:
    """F files, each beta stripes of L bits, with a popularity vector.

    ``bits`` holds the bits as a uint8 array of shape (F, beta, L), and
    ``files``, built on first read, the same bits as lists of Python ints."""

    def __init__(self, files: Sequence[Sequence[Sequence[int]]], L: int,
                 popularity: Sequence[float]):
        if len(files) == 0:
            raise ValueError("library must contain at least one file")
        try:
            bits = np.asarray(files)
        except ValueError:  # ragged
            bits = None
        if bits is None or bits.ndim != 3 or bits.shape[2] != L:
            raise ValueError("every file must be beta stripes of L bits")
        if not ((bits == 0) | (bits == 1)).all():
            raise ValueError("file contents must be bits")
        self.bits = bits.astype(np.uint8)
        self.F, self.beta, self.L = bits.shape
        self.popularity = check_popularity(popularity, self.F)

    @cached_property
    def files(self) -> list:
        return self.bits.tolist()

    @classmethod
    def random(cls, F: int, beta: int, L: int, popularity: Sequence[float], rng):
        return cls(rng.integers(2, size=(F, beta, L)), L, popularity)


class CachingScheme:
    """Placement vector mu over N_sbs SBSs with cache budget M files.

    ``allow_full_spread`` permits mu_i = 1/N_sbs, which is valid only when
    retrieval needs no privacy (no redundancy left for blinding).
    """

    def __init__(self, N_sbs: int, M, mu: Sequence, q: int = 2,
                 allow_full_spread: bool = False):
        self.N_sbs = N_sbs
        self.M = Fraction(M)
        self.mu, _ = rates._check_mu(mu)
        self.q = q
        if sum(self.mu) > self.M:
            raise ValueError("placement exceeds cache budget: sum(mu) > M")
        cached_k = []
        for m in self.mu:
            if m == 0:
                continue
            k = m.denominator
            if k > N_sbs:
                raise ValueError(f"mu=1/{k} needs more than {N_sbs} SBSs")
            if k == N_sbs and not allow_full_spread:
                raise ValueError("mu = 1/N_sbs leaves no redundancy for PIR")
            cached_k.append(k)
        self.k = [m.denominator if m else 0 for m in self.mu]
        if cached_k:
            self.k_min = min(cached_k)
            self.k_max = max(cached_k)
            if any(k % self.k_min for k in cached_k):
                raise ValueError("k_min must divide every cached k_i")
            self.mu_min = Fraction(1, self.k_max)
            self.mu_max = Fraction(1, self.k_min)
        else:
            self.k_min = self.k_max = 0
            self.mu_min = self.mu_max = Fraction(0)

    def cached_files(self) -> list[int]:
        return [i for i, m in enumerate(self.mu) if m != 0]

    def storage_code(self, file_index: int) -> codes.LinearCode:
        """(N_sbs, k_i) MDS storage code over GF(q), shared evaluation
        points across files so the codes are nested (smaller-k codes sit
        inside larger-k ones).  Files of one k share one code object, which
        callers must not modify."""
        k = self.k[file_index]
        if k == 0:
            raise ValueError("file is not cached")
        return _storage_code(self.q, self.N_sbs, k)


@lru_cache(maxsize=None)
def _storage_code(q: int, N_sbs: int, k: int) -> codes.LinearCode:
    return codes.mds_code(gf.make_field(q), N_sbs, k)


def packing_params(scheme: CachingScheme, L: int) -> tuple[int, dict, int]:
    """Return (delta_max, {file: delta_i}, pad_bits).

    delta_max is the packed stripe length in GF(q) digits for the
    smallest-k file, chosen so every delta_i = delta_max*k_min/k_i is an
    integer and divides delta_max; pad_bits is the zero padding appended to
    each stripe to reach the common packed length.
    """
    m = gf.field_degree(scheme.q)
    cached = scheme.cached_files()
    if not cached:
        return 0, {}, 0
    kmin = scheme.k_min
    ratio = lcm(*[scheme.k[i] // kmin for i in cached])
    raw = -(-L // (kmin * m))  # ceil
    delta_max = -(-raw // ratio) * ratio
    deltas = {i: delta_max * kmin // scheme.k[i] for i in cached}
    pad_bits = delta_max * kmin * m - L
    return delta_max, deltas, pad_bits


class EncodedCache:
    """Coded symbols c^(i)_{a,j} for every cached file i, stripe a, SBS j,
    plus the plaintext library retained at the MBS.

    Per rate k, ``packets[k]`` and ``words[k]`` hold the packet digits
    (files, beta, k, delta) and codeword digits (files, beta, N_sbs, delta)
    of the files ``rate_files[k]``, encoded in one GF(q) product with their
    shared storage code (``codes[i]``).  The int views ``messages[i][a]``
    (stripe a's k_i packet symbols), ``symbols[i][a]`` (its codeword, one
    symbol per SBS) and the digit ``columns`` are built on first read.
    """

    def __init__(self, library: FileLibrary, scheme: CachingScheme):
        if scheme.N_sbs < 1:
            raise ValueError("need at least one SBS")
        if len(scheme.mu) != library.F:
            raise ValueError("placement length must equal file count")
        self.library = library
        self.scheme = scheme
        self.delta_max, self.deltas, self.pad_bits = packing_params(scheme, library.L)
        # GF(q)^{delta_max}, where all protocol arithmetic runs
        self.symbol_field = (gf.SymbolSpace(scheme.q, self.delta_max)
                             if self.delta_max else None)
        cached = scheme.cached_files()
        self.codes = {i: scheme.storage_code(i) for i in cached}
        m, beta, N = gf.field_degree(scheme.q), library.beta, scheme.N_sbs
        bits = np.pad(library.bits, [(0, 0), (0, 0), (0, self.pad_bits)])
        self.rate_files, self.packets, self.words = {}, {}, {}
        for k in dict.fromkeys(scheme.k[i] for i in cached):
            files = self.rate_files[k] = [i for i in cached if scheme.k[i] == k]
            delta = self.deltas[files[0]]
            packets = gf.bit_digits(bits[files].reshape(len(files), beta, k, delta * m), m)
            # every stripe codeword of these files in one GF(q) product:
            # (N_sbs x k) times (k x files*beta*delta) digits
            words = gf.matmul(scheme.q, self.codes[files[0]].G.T,
                              packets.transpose(2, 0, 1, 3).reshape(k, -1))
            self.packets[k] = packets
            self.words[k] = words.reshape(N, len(files), beta, delta).transpose(1, 2, 0, 3)

    def _ints(self, digits: dict[int, np.ndarray]) -> dict[int, list[list[int]]]:
        out = dict.fromkeys(self.scheme.cached_files())
        for k, files in self.rate_files.items():
            out.update(zip(files, gf.digit_ints(digits[k], self.scheme.q)))
        return out

    @cached_property
    def messages(self) -> dict[int, list[list[int]]]:
        return self._ints(self.packets)

    @cached_property
    def symbols(self) -> dict[int, list[list[int]]]:
        return self._ints(self.words)

    @cached_property
    def columns(self) -> np.ndarray:
        """Row c is cache_column(c) as (width, delta_max) digits."""
        words = np.concatenate([gf.embed(w, self.delta_max) for w in self.words.values()])
        words = words[np.argsort(sum(self.rate_files.values(), []))].transpose(2, 0, 1, 3)
        return np.ascontiguousarray(words).reshape(self.scheme.N_sbs, -1, self.delta_max)

    def cache_column(self, sbs_j: int) -> list[int]:
        """Symbols stored at SBS j for all cached files, file-major then
        stripe-minor; file i's delta_i digits sit in the low digits of
        GF(q)^{delta_max}, so its symbol ints are unchanged."""
        if not 0 <= sbs_j < self.scheme.N_sbs:
            raise ValueError("unknown SBS index")
        return [row[sbs_j] for i in self.scheme.cached_files()
                for row in self.symbols[i]]

    def mbs_column(self, coord: int) -> list[int]:
        """Storage-code coordinate ``coord`` as served by the MBS for a
        protocol coordinate no in-range SBS covers: the stored codeword
        coordinate, identical to cache_column(coord)."""
        return self.cache_column(coord)


# ---------------------------------------------------------------------------
# snapshot container: MAGIC | u32 header length | JSON header | body | CRC
# body = library bits (file-major, stripe-major, bit-packed big-endian,
# byte-aligned per stripe: np.packbits of library.bits) then cached symbols
# (file-major, stripe-major, coordinate-minor, fixed width per file, each
# the big-endian bytes of its int); CRC = u32 zlib.crc32 of all before it
# ---------------------------------------------------------------------------

def _symbol_body(cache: EncodedCache) -> bytes:
    """The cached symbols in snapshot order, each at its file's fixed width:
    per rate, the digits' bits left-padded to whole bytes and packed."""
    m, parts = gf.field_degree(cache.scheme.q), {}
    for k, files in cache.rate_files.items():
        bits = gf.digit_bits(cache.words[k], m)
        bits = np.pad(bits, [(0, 0)] * 3 + [(-bits.shape[-1] % 8, 0)])
        parts.update(zip(files, np.packbits(bits, axis=-1).reshape(len(files), -1)))
    return b"".join(parts[i].tobytes() for i in cache.scheme.cached_files())


def save_snapshot(path: str, cache: EncodedCache) -> None:
    lib, scheme = cache.library, cache.scheme
    header = {
        "q": scheme.q,
        "delta_max": cache.delta_max,
        "F": lib.F,
        "beta": lib.beta,
        "L": lib.L,
        "N_sbs": scheme.N_sbs,
        "M": str(scheme.M),
        "mu": [str(m) for m in scheme.mu],
        "popularity": lib.popularity,
        "pad_bits": cache.pad_bits,
        "allow_full_spread": scheme.N_sbs in [m.denominator for m in scheme.mu if m],
    }
    hdr = json.dumps(header, sort_keys=True).encode()
    data = b"".join([MAGIC, struct.pack(">I", len(hdr)), hdr,
                     np.packbits(lib.bits, axis=-1).tobytes(), _symbol_body(cache)])
    with open(path, "wb") as fh:
        fh.write(data + struct.pack(">I", zlib.crc32(data)))


def load_snapshot(path: str) -> EncodedCache:
    """Read a snapshot back, re-encoding its library to check the stored
    symbols; raises SnapshotError unless the file is complete and consistent."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as e:
        raise SnapshotError(f"cannot read snapshot: {e}")
    if data[:4] != MAGIC:
        raise SnapshotError("not a cache snapshot file")
    end = 8 + int.from_bytes(data[4:8], "big")  # header end
    if len(data) < end:
        raise SnapshotError(f"snapshot header truncated: {len(data)} of {end} bytes")
    try:
        header = json.loads(data[8:end])
    except ValueError as e:
        raise SnapshotError(f"snapshot header is not valid JSON: {e}")
    header = spec.check(header, spec.HEADER, SnapshotError)
    missing = [k for k in spec.HEADER if k not in header]
    if missing:
        raise SnapshotError(f"snapshot header lacks {', '.join(missing)}")
    body = data[end:]  # library bits, symbols, CRC
    F, beta, L = header["F"], header["beta"], header["L"]
    off = F * beta * ((L + 7) // 8)  # library bytes
    if min(F, beta, L) < 1 or off > len(body):
        raise SnapshotError(f"snapshot body cannot hold F={F}, beta={beta}, L={L}")
    bits = np.unpackbits(np.frombuffer(body, np.uint8, off).reshape(F, beta, -1), axis=-1)
    try:
        scheme = CachingScheme(header["N_sbs"], Fraction(header["M"]),
                               [Fraction(m) for m in header["mu"]], q=header["q"],
                               allow_full_spread=header["allow_full_spread"])
        cache = EncodedCache(FileLibrary(bits[..., :L], L, header["popularity"]), scheme)
    except ValueError as e:
        raise SnapshotError(f"snapshot header does not describe a cache: {e}")
    if (cache.delta_max, cache.pad_bits) != (header["delta_max"], header["pad_bits"]):
        raise SnapshotError("snapshot header packing inconsistent with its library")
    symbols = _symbol_body(cache)
    expected = off + len(symbols) + 4
    if len(body) != expected:
        problem = "truncated" if len(body) < expected else "too long"
        raise SnapshotError(f"snapshot body {problem}: {len(body)} of {expected} bytes")
    # verify stored symbols match re-encoding (corruption check)
    if body[off:-4] != symbols:
        raise SnapshotError("snapshot symbols inconsistent with library")
    if zlib.crc32(data[:-4]) != int.from_bytes(data[-4:], "big"):
        raise SnapshotError("snapshot checksum mismatch")
    return cache
