"""Library packing, cache encoding, and snapshot round trips."""

from fractions import Fraction

import numpy as np
import pytest

from edgepir import cache, codes, gf


# -- reference: scalar base-q digits, one divmod per digit -----------------

def ref_to_digits(x, q, delta):
    """The delta base-q digits of x, least significant first."""
    out = []
    for _ in range(delta):
        x, d = divmod(x, q)
        out.append(d)
    return out


def ref_from_digits(digits, q):
    """Inverse of ref_to_digits."""
    x = 0
    for d in reversed(digits):
        x = x * q + d
    return x


def example_cache():
    lib = cache.FileLibrary([[[1, 0, 0, 1, 1]], [[0, 1, 1, 0, 1]]], 5,
                            [0.5, 0.5])
    scheme = cache.CachingScheme(6, Fraction(6, 5),
                                 [Fraction(1), Fraction(1, 5)], q=2)
    return cache.EncodedCache(lib, scheme)


def test_library_validation():
    with pytest.raises(ValueError):
        cache.FileLibrary([[[1, 0]]], 2, [0.5, 0.5])  # popularity length
    with pytest.raises(ValueError):
        cache.FileLibrary([[[1, 0]], [[1, 1]]], 2, [0.3, 0.7])  # increasing
    with pytest.raises(ValueError):
        cache.FileLibrary([[[1, 0]], [[1, 1]]], 2, [0.6, 0.6])  # sum != 1
    with pytest.raises(ValueError):
        cache.FileLibrary([[[1, 2]], [[1, 1]]], 2, [0.5, 0.5])  # non-bit


BAD_LIBRARIES = {
    "ragged stripes": ([[[1, 0], [1]], [[0, 1], [1, 1]]],
                       "every file must be beta stripes of L bits"),
    "wrong stripe count": ([[[1, 0]], [[1, 0], [0, 1]]],
                           "every file must be beta stripes of L bits"),
    "stripes longer than L": ([[[1, 0, 1]], [[1, 0, 1]]],
                              "every file must be beta stripes of L bits"),
    "value 2": ([[[1, 2]], [[1, 1]]], "file contents must be bits"),
    "value -1": ([[[1, -1]], [[1, 1]]], "file contents must be bits"),
    "value 0.5": ([[[1, 0.5]], [[1, 1]]], "file contents must be bits"),
    "string digit": ([[["1", "0"]], [["0", "1"]]], "file contents must be bits"),
    "no files": ([], "library must contain at least one file"),
}


@pytest.mark.parametrize("files,message", BAD_LIBRARIES.values(), ids=BAD_LIBRARIES)
def test_library_rejects(files, message):
    with pytest.raises(ValueError, match=message):
        cache.FileLibrary(files, 2, [0.5, 0.5])


@pytest.mark.parametrize("files", [
    [[[True, False]], [[False, True]]],
    [[[1, 0.0]], [[0, 1.0]]],
    np.array([[[1, 0]], [[0, 1]]], np.uint8),
    np.array([[[1, 0]], [[0, 1]]]),
], ids=["bools", "floats 0.0 and 1.0", "uint8 array", "int64 array"])
def test_library_accepts_bit_values(files):
    """Any 0/1 values are bits; ``files`` holds them as lists of Python ints
    and ``bits`` as a uint8 array."""
    lib = cache.FileLibrary(files, 2, [0.5, 0.5])
    assert lib.files == [[[1, 0]], [[0, 1]]]
    assert all(type(b) is int for f in lib.files for s in f for b in s)
    assert lib.bits.dtype == np.uint8 and lib.bits.tolist() == lib.files


def test_scheme_constraints():
    with pytest.raises(ValueError):
        cache.CachingScheme(4, 1, [Fraction(1), Fraction(1)])  # over budget
    with pytest.raises(ValueError):
        cache.CachingScheme(4, 2, [Fraction(1, 4), Fraction(1)])  # mu=1/N
    cache.CachingScheme(4, 2, [Fraction(1, 4), Fraction(1)],
                        allow_full_spread=True)
    with pytest.raises(ValueError):
        cache.CachingScheme(6, 2, [Fraction(1, 2), Fraction(1, 3)])  # 2 not| 3
    with pytest.raises(ValueError):
        cache.CachingScheme(4, 2, [Fraction(2, 3)])  # not 1/k


def test_pack_stripe_example_shapes():
    scheme = cache.CachingScheme(6, 6, [Fraction(1), Fraction(1, 5)], q=2)
    assert cache.packing_params(scheme, 5) == (5, {0: 5, 1: 1}, 0)
    assert cache.pack_stripe([1, 0, 0, 1, 1], 1) == [0b10011]
    assert cache.pack_stripe([1, 0, 0, 1, 1], 5) == [1, 0, 0, 1, 1]


def test_pack_zero_bits():
    assert cache.pack_stripe([0] * 6, 3) == [0, 0, 0]


def test_pack_unpack_roundtrip_with_padding():
    rng = np.random.default_rng(0)
    for k, q, L in [(3, 2, 7), (2, 4, 9), (1, 8, 10), (4, 2, 4)]:
        scheme = cache.CachingScheme(k + 1, 1, [Fraction(1, k)], q=q)
        _, deltas, pad = cache.packing_params(scheme, L)
        symbol_bits = deltas[0] * gf.field_degree(q)
        assert symbol_bits * k == L + pad
        bits = [int(rng.integers(2)) for _ in range(L)]
        packed = cache.pack_stripe(bits + [0] * pad, k)
        assert all(0 <= s < q ** deltas[0] for s in packed)
        assert cache.unpack_stripe(packed, symbol_bits, L) == bits


def test_packing_params_divisibility():
    scheme = cache.CachingScheme(8, 3, [Fraction(1, 2), Fraction(1, 4)], q=2)
    dmax, deltas, pad = cache.packing_params(scheme, 11)
    assert deltas[0] % deltas[1] == 0 or dmax % deltas[0] == 0
    for d in deltas.values():
        assert dmax % d == 0
    # equal per-file packed size: delta_i * k_i constant
    sizes = {d * k for d, k in zip(deltas.values(), (2, 4))}
    assert len(sizes) == 1
    assert dmax * 2 >= 11  # covers L


def test_encoded_rows_are_codewords():
    enc = example_cache()
    for i in enc.scheme.cached_files():
        code = enc.codes[i]
        q, delta = enc.scheme.q, enc.deltas[i]
        for row in enc.symbols[i]:
            # parity checks hold over GF(q), digit by digit
            for e in range(delta):
                digit = [ref_to_digits(s, q, delta)[e] for s in row]
                assert code.contains(digit)


def test_example_layout():
    """SBS j stores the repeated 5-digit GF(2) symbol and coordinate j of
    the parity-check codeword."""
    enc = example_cache()
    x1 = 0b10011
    assert enc.symbols[0][0] == [x1] * 6
    spc_word = enc.symbols[1][0]
    assert spc_word[:5] == [0, 1, 1, 0, 1]
    assert spc_word[5] == (0 + 1 + 1 + 0 + 1) % 2


def test_cache_column_example():
    enc = example_cache()
    col6 = enc.cache_column(5)
    assert col6 == [0b10011, 1]  # file 1's one digit, zero-padded to five
    with pytest.raises(ValueError):
        enc.cache_column(6)


def test_mbs_column_matches_sbs_cache():
    enc = example_cache()
    for j in range(6):
        assert enc.mbs_column(j) == enc.cache_column(j)


def test_empty_placement_empty_cache():
    lib = cache.FileLibrary([[[1, 0]], [[0, 1]]], 2, [0.5, 0.5])
    scheme = cache.CachingScheme(4, 0, [Fraction(0), Fraction(0)])
    enc = cache.EncodedCache(lib, scheme)
    assert enc.symbols == {}
    assert enc.cache_column(0) == []


def test_decode_any_k_columns():
    rng = np.random.default_rng(1)
    lib = cache.FileLibrary.random(3, 1, 6, [0.5, 0.3, 0.2], rng)
    scheme = cache.CachingScheme(7, 3, [Fraction(1), Fraction(1, 2),
                                        Fraction(1, 2)], q=8)
    enc = cache.EncodedCache(lib, scheme)
    for i in scheme.cached_files():
        k = scheme.k[i]
        coords = list(rng.choice(7, size=k, replace=False))
        syms = [[enc.symbols[i][a][c] for c in coords]
                for a in range(lib.beta)]
        assert enc.decode_file(i, coords, syms) == lib.files[i]


def test_storage_fraction_per_sbs():
    enc = example_cache()
    # file 0: k=1, each SBS stores the whole 5-bit symbol; file 1: k=5,
    # each SBS stores one bit = 1/5 of the stripe
    assert enc.deltas[0] == 5 and enc.deltas[1] == 1


def test_snapshot_roundtrip(tmp_path):
    enc = example_cache()
    path = tmp_path / "cache.epir"
    cache.save_snapshot(str(path), enc)
    loaded = cache.load_snapshot(str(path))
    assert loaded.library.files == enc.library.files
    assert loaded.symbols == enc.symbols
    assert loaded.scheme.mu == enc.scheme.mu
    assert loaded.delta_max == enc.delta_max
    # byte-identical on re-save
    path2 = tmp_path / "cache2.epir"
    cache.save_snapshot(str(path2), loaded)
    assert path.read_bytes() == path2.read_bytes()


def test_snapshot_rejects_garbage(tmp_path):
    path = tmp_path / "bad.epir"
    path.write_bytes(b"nope")
    with pytest.raises(ValueError):
        cache.load_snapshot(str(path))


def test_storage_code_fallbacks():
    scheme = cache.CachingScheme(6, 2, [Fraction(1), Fraction(1, 5)], q=2)
    assert scheme.storage_code(0).k == 1
    assert scheme.storage_code(1).k == 5
    bad = cache.CachingScheme(6, 2, [Fraction(1, 3)], q=2)
    with pytest.raises(ValueError):
        bad.storage_code(0)
    grs_scheme = cache.CachingScheme(6, 2, [Fraction(1, 3)], q=8)
    assert isinstance(grs_scheme.storage_code(0), codes.GrsCode)


def test_mbs_column_serves_stored_symbols(monkeypatch):
    """The MBS answers from the stored codewords: no encoding per call."""
    enc = example_cache()

    def no_encoding(*args):
        raise AssertionError("mbs_column encoded a stripe")

    monkeypatch.setattr(gf, "mat_vec", no_encoding)
    assert enc.mbs_column(5) == [0b10011, 1]


def test_files_of_one_rate_share_one_storage_code(tmp_path):
    """One code object per (q, N_sbs, k): every file of one k, every cache
    and a reloaded snapshot share it."""
    mu = [Fraction(1), Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)]
    lib = cache.FileLibrary.random(4, 2, 12, [0.25] * 4, np.random.default_rng(3))
    enc = cache.EncodedCache(lib, cache.CachingScheme(6, 3, mu, q=8))
    assert enc.codes[1] is enc.codes[2] is enc.codes[3]
    assert enc.codes[0] is not enc.codes[1] and enc.codes[0].k == 1
    path = tmp_path / "cache.epir"
    cache.save_snapshot(str(path), enc)
    loaded = cache.load_snapshot(str(path))
    assert all(loaded.codes[i] is enc.codes[i] for i in range(4))


def test_encoding_matches_stripe_by_stripe_reference():
    """The array encoder against packing and encoding one stripe at a time
    with pack_stripe, scalar digits and LinearCode.encode, multi-rate with
    padding."""
    mu = [Fraction(1), Fraction(1, 2), Fraction(1, 4), Fraction(0), Fraction(1, 4)]
    lib = cache.FileLibrary.random(5, 3, 21, [0.2] * 5, np.random.default_rng(8))
    enc = cache.EncodedCache(lib, cache.CachingScheme(7, 2, mu, q=8))
    q = 8
    for i in enc.scheme.cached_files():
        k, delta = enc.scheme.k[i], enc.deltas[i]
        for a, stripe in enumerate(lib.files[i]):
            msg = cache.pack_stripe(stripe + [0] * enc.pad_bits, k)
            assert enc.messages[i][a] == msg
            per_digit = [enc.codes[i].encode([ref_to_digits(x, q, delta)[e] for x in msg])
                         for e in range(delta)]
            word = [ref_from_digits([per_digit[e][j] for e in range(delta)], q)
                    for j in range(7)]
            assert enc.symbols[i][a] == word
