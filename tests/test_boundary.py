"""Boundary fuzz: every mutated fig2 config and every damaged fig2 snapshot
ends in a documented exit code with one stderr line and no output file; a
damaged snapshot either still loads or is a snapshot error.

The enumeration is deterministic: each key of the fig2 preset (sections
and leaves) is dropped or retyped, and the snapshot is cut at every length
and has one bit flipped per byte.
"""

import json
from importlib import resources

import pytest

from edgepir import cli, spec

RETYPES = {"str": "x", "2.5": 2.5, "true": True, "null": None}
PREFIXES = tuple(prefix + ": " for _, _, prefix in spec.EXIT_CODES)


def fig2() -> dict:
    return json.loads(resources.files("edgepir").joinpath("presets/fig2.json").read_text())


def key_paths(obj, path=()):
    for key, value in obj.items():
        yield path + (key,)
        if isinstance(value, dict):
            yield from key_paths(value, path + (key,))


def mutations():
    """(name, config) for each fig2 key dropped, retyped or wrapped in a list."""
    for path in key_paths(fig2()):
        for how in ["dropped", *RETYPES, "[v]"]:
            cfg = fig2()
            parent = cfg
            for key in path[:-1]:
                parent = parent[key]
            if how == "dropped":
                del parent[path[-1]]
            else:
                parent[path[-1]] = [parent[path[-1]]] if how == "[v]" else RETYPES[how]
            yield f"{'.'.join(path)}={how}", cfg


def outcome(capsys, out, argv, codes=(0, 2, 3, 4)) -> str:
    """'' when cli.main returns one of ``codes`` as documented, else what
    went wrong."""
    try:
        code = cli.main(argv)
    except (Exception, SystemExit) as e:  # main must return, never exit
        return f"raised {type(e).__name__}: {e}"
    finally:
        err = capsys.readouterr().err
    if code not in codes:
        return f"exit {code}"
    problem = ""
    if code:
        lines = err.splitlines()
        if len(lines) != 1 or not lines[0].startswith(PREFIXES):
            problem = f"exit {code} with stderr {err!r}"
        elif out.exists():
            problem = f"exit {code} left {out.name}"
    out.unlink(missing_ok=True)
    return problem


@pytest.mark.parametrize("command", [["rates"], ["encode"], ["simulate", "--trials", "3"]])
def test_mutated_config_exits_as_documented(tmp_path, capsys, command):
    cfg_path, out = tmp_path / "cfg.json", tmp_path / "out"
    failures = []
    for name, cfg in mutations():
        cfg_path.write_text(json.dumps(cfg))
        problem = outcome(capsys, out, command + ["--config", str(cfg_path), "--out", str(out)])
        if problem:
            failures.append(f"{name}: {problem}")
    assert not failures, "\n".join(failures)


@pytest.mark.parametrize("path,value", [
    (("privacy",), "x"), (("protocol", "n"), "x"),
    (("library", "popularity"), 2.5), (("scheme", "mu"), None)])
def test_mutated_config_verify_privacy(tmp_path, capsys, path, value):
    cfg = fig2()
    (cfg[path[0]] if len(path) == 2 else cfg)[path[-1]] = value
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert outcome(capsys, tmp_path / "out",
                   ["verify-privacy", "--config", str(cfg_path)]) == ""


def damaged_snapshots(data: bytes):
    for cut in range(len(data)):
        yield f"cut at {cut}", data[:cut]
    for i in range(len(data)):
        yield f"byte {i} bit {i % 8} flipped", \
            data[:i] + bytes([data[i] ^ (1 << (i % 8))]) + data[i + 1:]


def test_damaged_snapshot_exits_as_documented(tmp_path, capsys):
    snap, bad, out = tmp_path / "cache.epir", tmp_path / "bad.epir", tmp_path / "out"
    assert cli.main(["encode", "--preset", "fig2", "--out", str(snap)]) == 0
    failures = []
    for name, data in damaged_snapshots(snap.read_bytes()):
        bad.write_bytes(data)
        problem = outcome(capsys, out, ["retrieve", str(bad), "--file", "0", "--seed", "1",
                                        "--dump-transcript", str(out)], codes=(0, 2))
        if problem:
            failures.append(f"{name}: {problem}")
    assert not failures, "\n".join(failures)
