"""The config/header key table: one checked type per key, typed errors
that name the faulty key."""

import pytest

from edgepir import spec


def test_missing_key_raises_when_read():
    cfg = spec.check({"scheme": {"N_sbs": 6}, "protocol": {"T": 1}}, spec.CONFIG)
    with pytest.raises(spec.ConfigError, match="^scheme lacks M$"):
        cfg["scheme"]["M"]
    with pytest.raises(spec.ConfigError, match="^config lacks library$"):
        cfg["library"]
    assert cfg["protocol"].get("n") is None and cfg["protocol"]["T"] == 1


@pytest.mark.parametrize("value,message", [
    ({"scheme": {"M": True}}, "^scheme.M must be a fraction"),
    ({"scheme": {"mu": ["1", "1/0"]}}, r"^scheme.mu\[1\] must be a fraction"),
    ({"library": {"popularity": [0.5, "x"]}}, r"^library.popularity\[1\] must be a finite number$"),
    ({"topology": {"grid": {"D": float("nan")}}}, "^topology.grid.D must be a finite number$"),
    ({"protocol": {"n": 6.0}}, "^protocol.n must be an integer$"),
    ({"protocol": {"t": 1}}, "^unknown key protocol.t$"),
    ({"library": []}, "^library must be an object$"),
    ([], "^config must be an object$"),
])
def test_check_names_mistyped_or_unknown_key(value, message):
    with pytest.raises(spec.ConfigError, match=message):
        spec.check(value, spec.CONFIG)


def test_header_table_is_library_and_scheme_keys():
    assert set(spec.HEADER) - {"delta_max", "pad_bits"} <= set(spec.LIBRARY) | set(spec.SCHEME)
    with pytest.raises(spec.SnapshotError, match="^F must be an integer$"):
        spec.check({"F": 2.0}, spec.HEADER, spec.SnapshotError)
    with pytest.raises(spec.SnapshotError, match="^unknown key alpha$"):
        spec.check({"alpha": 0.7}, spec.HEADER, spec.SnapshotError)
