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

from edgepir import cache, cli, topology

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
    "fig2": "48399a24cc722b7d54f2dc4c1081bb734d1581994b24377c0feb4f961cc1576d",
    "medium": "39a2621896392f9d32c520affc2f909fed137221200b4fc130ec156324b9fea3",
    "multirate": "f2530cf71611166a61ba591a22449610fb34e9eaa5725863cb146c1572cab6c4",
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

# argv -> digest of its stdout
STDOUT = {
    "sweep --preset fig3":
        "a577d3e8683a459ce7d68a9c62ffa5e6d82dc8d03662ac975102607867aa0d14",
    "sweep --preset fig4":
        "49a51992ecb99906297d0b69b5c01285b81227058d3ec6d724be6f91cd626170",
    "sweep --preset fig5":
        "5e23b984556eb02e411651f29fadef289959303af44373decba6dbe53e139e40",
    "sweep --preset fig6":
        "b355733ac56d7a64039384a3f785748173af76a979c542e60e69de671f0b0fd4",
    "optimize --preset fig2":
        "6f8cc04716c4b1f7808f431a324b9a67589fe612aaf9142d8c16863215a1c055",
    "rates --preset fig2":
        "2759dad43d115128826f2fb0ba3a88635607c10c5e3028d29b3163b6a661fe08",
    "simulate --preset fig2 --trials 50":
        "65ca90748c42c24501d0c3f244c0e578586acfeda2b1b408f450e6cd4a4f2377",
}
# repr of grid_gamma for the criterion-2 model (60 m lattice) at 10^5 samples
GRID_GAMMA = "f549f0350d91a4b545dd7250b7ad3bfb8fd1dc82ae868f1da3a4259d873ef7e9"


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(argv: list) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    assert code == 0, argv
    return out.getvalue()


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


@pytest.mark.parametrize("argv", STDOUT)
def test_stdout(argv):
    assert sha(run(argv.split()).encode()) == STDOUT[argv]


def test_grid_gamma():
    model = topology.GridModel(D=500.0, spacing=60.0, r=60.0)
    cd = topology.grid_gamma(model, mc_samples=100000, seed=0)
    assert sha(repr(cd).encode()) == GRID_GAMMA
