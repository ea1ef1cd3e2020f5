"""Golden outputs: SHA-256 digests of whole outputs.

Each digest pins every byte of one output, so a change of representation
(bit packing, digit conversion, code construction) that must keep the
outputs shows any byte it moves.  A change that alters a digest on purpose
names the output and the reason in CHANGES.md and updates the table.
"""

import contextlib
import hashlib
import io
import json

import pytest

from edgepir import cache, cli

MEDIUM = {"library": {"F": 20, "beta": 6, "L": 128, "alpha": 0.7},
          "topology": {"gamma": [0] * 10 + [1]},
          "scheme": {"N_sbs": 10, "M": "20/3", "k": 3, "q": 16},
          "protocol": {"n": 10, "T": 2}}
MULTIRATE = {"library": {"F": 8, "beta": 4, "L": 128, "alpha": 0.7},
             "topology": {"gamma": [0, 0, 0.1736, 0.5113, 0.3151]},
             "scheme": {"N_sbs": 6, "M": 4, "q": 8,
                        "mu": ["1", "1", "1/2", "1/2", "1/2", "1/2", "0", "0"]},
             "protocol": {"n": 6, "T": 1}}
CONFIGS = {"fig2": None, "medium": MEDIUM, "multirate": MULTIRATE}

SNAPSHOT = {
    "fig2": "facb03ade4cb504004aa31a669c1f212901d9161826dd7cc61352a50e342c62f",
    "medium": "72ee3c846f5f708e61fb540c3e4f7881d3e364da8d6024bf87bb6f18ef52a152",
    "multirate": "71398ac0308c52f8649d062b3fbf3721f714367b151b6bdb6d7987e1e4dc28a8",
}
CACHE = {  # repr of the loaded cache's (messages, symbols)
    "fig2": "ee6b0d52429f94898ff02509cf72652384abffd2dd9c453cd4ab953f9193c0e2",
    "medium": "63bd6092959cb83310802566f01e3780393a89dc8c49c795075fcbb3edd426d5",
    "multirate": "f78acf889bfb5cd885ed59cebe447496a544b1f555a857a91ce09d11d5c25f96",
}
# (config, retrieve flags) -> digest of the --dump-transcript file
TRANSCRIPT = {
    ("fig2", "--file 1 --b 4 --seed 3"):
        "5e6bdfa841f14bbaa8727cb30be9be8a5b0b474a3643e9d56a0e6c4cbb52fc23",
    ("multirate", "--file 0 --b 3 --seed 5"):
        "196862c62cb6807cd35ed52e1f1076825a7b1b52c8b23b9d402a350098fa0bf3",
    ("multirate", "--file 3 --b 2 --seed 7"):
        "dd5477100a4f127a8312ba232eb573bfe6fe11496fd8337c31ce57200f068ac3",
}


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(argv: list) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    assert code == 0, argv


@pytest.fixture(scope="module")
def snapshots(tmp_path_factory):
    """config name -> (snapshot path, config flags), encoded at seed 11."""
    root = tmp_path_factory.mktemp("golden")
    out = {}
    for name, cfg in CONFIGS.items():
        flags = ["--preset", "fig2"]
        if cfg is not None:
            path = root / f"{name}.json"
            path.write_text(json.dumps(cfg))
            flags = ["--config", str(path)]
        snap = root / f"{name}.epir"
        run(["encode", *flags, "--seed", "11", "--out", str(snap)])
        out[name] = snap, flags
    return out


@pytest.mark.parametrize("name", CONFIGS)
def test_snapshot_bytes(snapshots, name):
    assert sha(snapshots[name][0].read_bytes()) == SNAPSHOT[name]


@pytest.mark.parametrize("name", CONFIGS)
def test_loaded_cache(snapshots, name):
    loaded = cache.load_snapshot(str(snapshots[name][0]))
    assert sha(repr((loaded.messages, loaded.symbols)).encode()) == CACHE[name]


@pytest.mark.parametrize("name,flags", TRANSCRIPT)
def test_transcript(snapshots, tmp_path, name, flags):
    snap, cfg_flags = snapshots[name]
    dump = tmp_path / "transcript.json"
    run(["retrieve", str(snap), *cfg_flags, *flags.split(),
         "--dump-transcript", str(dump)])
    assert sha(dump.read_bytes()) == TRANSCRIPT[name, flags]
