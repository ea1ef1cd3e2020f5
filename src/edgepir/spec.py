"""One home and one checked type per input value; one exit code per error.

CONFIG gives each config key its one home and type, and its library and
scheme parts make up the snapshot-header table HEADER.  ``check`` runs once
per config or header read; range checks stay with the classes they feed."""

from __future__ import annotations

import math
from fractions import Fraction


class ConfigError(ValueError):
    """A config that is unreadable, or has an unknown, mistyped or missing key."""
    source = "config"  # what an unnamed root object is called in messages


class SnapshotError(ConfigError):
    """An unreadable, truncated, incomplete or inconsistent snapshot."""
    source = "snapshot header"


class ProtocolError(ValueError):
    """Responses that are missing, short or inconsistent with each other."""


class VerificationError(RuntimeError):
    """A session whose recovered file or bit count disagrees with the truth."""


# (error class, exit code, stderr prefix), walked in order: first match wins
EXIT_CODES = ((SnapshotError, 2, "snapshot error"), (ConfigError, 2, "config error"),
              (ProtocolError, 4, "protocol error"),
              (VerificationError, 4, "verification failure"),
              (ValueError, 3, "constraint violation"))

# a kind is a type (float: any finite number), [kind] or a dict table
LIBRARY = {"F": int, "beta": int, "L": int, "alpha": float,
           "popularity": [float], "files": [[str]]}
SCHEME = {"N_sbs": int, "M": Fraction, "mu": [Fraction], "k": int,
          "files_cached": int, "q": int, "allow_full_spread": bool, "theta": float}
CONFIG = {"comment": str, "library": LIBRARY, "scheme": SCHEME,
          "protocol": {"n": int, "T": int}, "privacy": {"mode": str},
          "topology": {"gamma": [float], "ppp": {"lambda": float, "r_u": float},
                       "grid": {"D": float, "spacing": float, "count": int,
                                "r": float, "mc_samples": int}},
          "sweep": {"axis": str, "start": float, "stop": float, "step": float,
                    "values": [float], "transitions_only": bool}}
# every key is required in a header; delta_max and pad_bits are re-derived
HEADER = {key: table[key] for table, keys in (
    (LIBRARY, "F beta L popularity"), (SCHEME, "N_sbs M mu q allow_full_spread"))
    for key in keys.split()} | {"delta_max": int, "pad_bits": int}

KIND_NAMES = {int: "an integer", float: "a finite number", str: "a string",
              bool: "true or false", Fraction: 'a fraction such as 2 or "6/5"'}


class Section(dict):
    """A checked object; reading a key it lacks raises a typed error naming it."""
    where, error = "config", ConfigError

    def __missing__(self, key):
        raise self.error(f"{self.where} lacks {key}")


def fits(value, kind) -> bool:
    if isinstance(value, bool) or value is None:
        return kind is bool and value is not None
    if kind is Fraction:
        try:
            return Fraction(value) is not None
        except (TypeError, ValueError, ZeroDivisionError, OverflowError):
            return False
    if kind is float:
        return isinstance(value, int) or isinstance(value, float) and math.isfinite(value)
    return isinstance(value, kind)


def check(value, kind, error: type = ConfigError, path: str = ""):
    """``value`` checked against ``kind``, with every object as a Section;
    raises ``error`` naming the first unknown or mistyped key."""
    where = path or error.source
    if isinstance(kind, dict):
        if not isinstance(value, dict):
            raise error(f"{where} must be an object")
        section = Section()
        for key, item in value.items():
            child = f"{path}.{key}" if path else key
            if key not in kind:
                raise error(f"unknown key {child}")
            section[key] = check(item, kind[key], error, child)
        section.where, section.error = where, error
        return section
    if isinstance(kind, list):
        if not isinstance(value, list):
            raise error(f"{where} must be a list")
        return [check(item, kind[0], error, f"{where}[{i}]") for i, item in enumerate(value)]
    if not fits(value, kind):
        raise error(f"{where} must be {KIND_NAMES[kind]}")
    return value
