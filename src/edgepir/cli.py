"""Command-line front end.

Subcommands: encode, retrieve, rates, optimize, sweep, verify-privacy,
simulate.  Experiments are described by a JSON config (--config) or by a
named built-in preset (--preset fig2..fig6), checked against
spec.CONFIG.  Output tables are CSV.  An error exits with the code that
spec.EXIT_CODES gives its class, after one stderr line.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from fractions import Fraction
from importlib import resources
from itertools import combinations

import numpy as np

from . import cache as cache_mod
from . import optimizer, pirproto, rates, simnet, spec, topology
from .spec import ConfigError, VerificationError


def load_config(args) -> spec.Section:
    if args.preset:
        ref = resources.files("edgepir").joinpath(f"presets/{args.preset}.json")
        if not ref.is_file():
            raise ConfigError(f"unknown preset {args.preset!r}")
        cfg = json.loads(ref.read_text())
    elif not args.config:
        raise ConfigError("either --config or --preset is required")
    else:
        try:
            with open(args.config) as fh:
                cfg = json.load(fh)
        except (OSError, ValueError) as e:
            raise ConfigError(str(e))
    return spec.check(cfg, spec.CONFIG)


def protocol(cfg, n=None) -> tuple:
    """(T, n) from their one home, the protocol section; T defaults to 1
    and must be at least 1."""
    T = cfg.get("protocol", {}).get("T", 1)
    if T < 1:
        raise ConfigError(f"protocol.T must be at least 1, got {T}")
    return T, cfg.get("protocol", {}).get("n", n)


def check_flag(args, name: str, low: int, high=math.inf) -> None:
    """Reject a flag given outside [low, high]."""
    value = getattr(args, name)
    if value is not None and not low <= value <= high:
        raise ConfigError(f"--{name} must lie in [{low}, {high}]")


def build_popularity(lib_cfg: dict) -> list[float]:
    if "popularity" in lib_cfg:
        return list(lib_cfg["popularity"])
    if "alpha" in lib_cfg:
        return topology.zipf(lib_cfg["F"], lib_cfg["alpha"])
    raise ConfigError("library needs 'alpha' or 'popularity'")


def checked_popularity(lib_cfg: dict) -> list[float]:
    """build_popularity's vector, checked as a FileLibrary checks it,
    against F when the config gives it."""
    p = build_popularity(lib_cfg)
    return cache_mod.check_popularity(p, lib_cfg.get("F", len(p)))


def build_gamma(top_cfg: dict, seed: int):
    sources = [k for k in ("gamma", "grid", "ppp") if k in top_cfg]
    if len(sources) != 1:
        raise ConfigError("topology needs exactly one of gamma/grid/ppp")
    if "gamma" in top_cfg:
        return topology.CoverageDistribution(top_cfg["gamma"])
    if "grid" in top_cfg:
        g = top_cfg["grid"]
        spacing = g.get("spacing")
        if spacing is None:
            spacing = topology.spacing_for_count(g["D"], g["count"])
        model = topology.GridModel(g["D"], spacing, g["r"])
        return topology.grid_gamma(model, g.get("mc_samples", 200000), seed)
    g = top_cfg["ppp"]
    return topology.ppp_gamma(topology.PppModel(g["lambda"], g["r_u"]))


def build_library(cfg: dict, rng) -> cache_mod.FileLibrary:
    lib = cfg["library"]
    p = build_popularity(lib)
    if "files" in lib:
        files = [[[int(b) for b in stripe] for stripe in f] for f in lib["files"]]
        return cache_mod.FileLibrary(files, lib["L"], p)
    return cache_mod.FileLibrary.random(lib["F"], lib["beta"], lib["L"], p, rng)


def build_placement(sc: dict, F: int) -> list[Fraction]:
    """Placement mu from 'mu', or 'k' for the 'files_cached' (default F) first files."""
    if "mu" in sc:
        return [Fraction(m) for m in sc["mu"]]
    if "k" in sc:
        cached = sc.get("files_cached", F)
        return [Fraction(1, sc["k"])] * cached + [Fraction(0)] * (F - cached)
    raise ConfigError("scheme needs 'mu' or 'k'")


def build_scheme(cfg: dict, F: int) -> cache_mod.CachingScheme:
    sc = cfg["scheme"]
    return cache_mod.CachingScheme(sc["N_sbs"], Fraction(sc["M"]), build_placement(sc, F),
                                   q=sc.get("q", 2),
                                   allow_full_spread=sc.get("allow_full_spread", False))


def write_csv(path, fieldnames, rows):
    out = open(path, "w", newline="") if path else sys.stdout
    try:
        w = csv.DictWriter(out, fieldnames=fieldnames)
        w.writeheader()
        for r in rows:
            w.writerow({k: r.get(k, "") for k in fieldnames})
    finally:
        if path:
            out.close()


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_encode(args) -> int:
    cfg = load_config(args)
    rng = np.random.default_rng(args.seed)
    lib = build_library(cfg, rng)
    scheme = build_scheme(cfg, lib.F)
    enc = cache_mod.EncodedCache(lib, scheme)
    out = args.out or "cache.epir"
    cache_mod.save_snapshot(out, enc)
    print(f"wrote cache snapshot to {out} "
          f"(F={lib.F}, beta={lib.beta}, L={lib.L}, N_sbs={scheme.N_sbs})")
    return 0


def cmd_retrieve(args) -> int:
    enc = cache_mod.load_snapshot(args.snapshot)
    N = enc.scheme.N_sbs
    for flag in (("file", 0, enc.library.F - 1), ("b", 0, N), ("n", 1, N), ("T", 1)):
        check_flag(args, *flag)
    cfg = load_config(args) if (args.config or args.preset) else {}
    T, n = protocol(cfg, N)
    T, n = args.T or T, args.n or n  # flags first; both are >= 1 when given
    rng = np.random.default_rng(args.seed)
    gamma = ([0.0] * args.b + [1.0]) if args.b is not None else \
        cfg.get("topology", {}).get("gamma", [0.0] * N + [1.0])
    net = simnet.Network(enc, gamma)
    tr = simnet.run_retrieval(net, T, n, args.file, rng,
                              keep_messages=bool(args.dump_transcript))
    print(json.dumps(tr.summary(), indent=2))
    if tr.cached:
        print("recovered stripes:", ["".join(map(str, s)) for s in enc.library.files[args.file]])
    if args.dump_transcript:
        dump = tr.summary()
        dump["coords"] = tr.coords
        dump["queries"] = tr.queries.Q.tolist()
        dump["responses"] = tr.responses
        with open(args.dump_transcript, "w") as fh:
            json.dump(dump, fh, indent=2)
    return 0


def cmd_rates(args) -> int:
    cfg = load_config(args)
    gamma = build_gamma(cfg["topology"], args.seed)
    p = build_popularity(cfg["library"])
    mu = build_scheme(cfg, cfg["library"]["F"]).mu
    rates._check_placement(p, mu)  # first: its message names both lengths
    p = cache_mod.check_popularity(p, cfg["library"]["F"])
    T, n = protocol(cfg)
    theta = cfg["scheme"].get("theta", 0.0)
    row = {"R_noPIR": float(rates.backhaul_nopir(p, mu, gamma))}
    if n:
        R = float(rates.backhaul_pir(p, mu, gamma, n, T))
        D = float(rates.sbs_rate_pir(p, mu, gamma, n, T))
        row.update({"R_PIR": R, "D_PIR": D,
                    "C_PIR": float(rates.weighted_rate(R, D, theta))})
    write_csv(args.out, list(row), [row])
    return 0


def cmd_optimize(args) -> int:
    cfg = load_config(args)
    gamma = build_gamma(cfg["topology"], args.seed)
    p = checked_popularity(cfg["library"])
    M = Fraction(cfg["scheme"]["M"])
    whole = min(math.floor(M), len(p))  # popular placement caches whole files
    T, _ = protocol(cfg)
    theta = cfg["scheme"].get("theta", 0.0)
    opt = optimizer.optimize_pir(p, gamma, M, T, theta=theta)
    pop = optimizer.popular_pir(p, gamma, whole, T)
    nop = optimizer.optimize_nopir(p, gamma, M)
    rows = [{"objective": "PIR" if theta == 0 else f"weighted(theta={theta})",
             "mu_star": str(opt.mu_star), "k_star": opt.k_star,
             "n_star": opt.n_star, "files_cached": opt.files_cached, "value": opt.value},
            {"objective": "PIR popular", "mu_star": "1", "k_star": 1,
             "n_star": pop.n_star, "files_cached": whole, "value": pop.value},
            {"objective": "noPIR", "mu_star": "per-file", "k_star": "per-file",
             "n_star": "", "files_cached": nop.files_cached, "value": nop.value},
            {"objective": "noPIR popular", "mu_star": "1", "k_star": 1, "n_star": "",
             "files_cached": whole,
             "value": float(rates.backhaul_nopir_popular(p, whole, gamma))}]
    write_csv(args.out, ["objective", "mu_star", "k_star", "n_star",
                         "files_cached", "value"], rows)
    return 0


def cmd_sweep(args) -> int:
    cfg = load_config(args)
    p = checked_popularity(cfg["library"])
    sw = cfg["sweep"]
    T, _ = protocol(cfg)
    theta = cfg.get("scheme", {}).get("theta", 0.0)
    axis, values = sw["axis"], sw.get("values")
    if axis not in ("M", "lambda"):
        raise ConfigError("sweep axis must be 'M' or 'lambda'")
    if not values:
        step = sw.get("step", 1) if axis == "M" else sw["step"]
        if not (sw["start"] <= sw["stop"] and step > 0):
            raise ValueError("sweep needs start <= stop and step > 0")
    if axis == "M":
        gamma = build_gamma(cfg["topology"], args.seed)
        Ms = values or list(range(*spec.check(  # integer bounds on this axis
            [sw["start"], sw["stop"] + 1, step], [int], path="sweep bounds")))
        rows = optimizer.sweep_cache_size(p, gamma, Ms, T, theta=theta)
    else:
        lams = values or list(np.arange(sw["start"], sw["stop"] + step / 2, step))
        rows = optimizer.sweep_density(p, cfg["scheme"]["M"], T, lams,
                                       cfg["topology"]["ppp"]["r_u"], theta=theta)
    for r in rows:
        r["mu_star"] = str(r["mu_star"])
    if sw.get("transitions_only"):
        rows = optimizer.transition_points(rows, axis)
    write_csv(args.out, [axis, "mu_star", "k_star", "n_star", "value"], rows)
    return 0


def cmd_verify_privacy(args) -> int:
    cfg = load_config(args)
    rng = np.random.default_rng(args.seed)
    lib = build_library(cfg, rng)
    scheme = build_scheme(cfg, lib.F)
    enc = cache_mod.EncodedCache(lib, scheme)
    T, n = protocol(cfg, scheme.N_sbs)
    params = pirproto.plan_protocol(enc, T, n)
    em = pirproto.build_erasure_matrix(params)
    mode = cfg.get("privacy", {}).get("mode", "exact")
    ok = True
    for coalition in combinations(range(n), T):
        rep = pirproto.verify_privacy(params, em, list(coalition), mode=mode,
                                      sessions=args.trials or 100000, rng=rng)
        if mode == "exact":
            line = f"coalition {coalition}: max TV distance {rep['max_tv']:.6g}"
            ok = ok and rep["private"]
        else:
            line = f"coalition {coalition}: chi-square p = {rep['p_value']:.4g}"
            ok = ok and not rep["reject"]
        print(line)
    if not ok:
        raise VerificationError("a coalition's queries depend on the requested file")
    print("privacy verified")
    return 0


def cmd_simulate(args) -> int:
    cfg = load_config(args)
    rng = np.random.default_rng(args.seed)
    lib = build_library(cfg, rng)
    scheme = build_scheme(cfg, lib.F)
    enc = cache_mod.EncodedCache(lib, scheme)
    gamma = build_gamma(cfg["topology"], args.seed)
    T, n = protocol(cfg, scheme.N_sbs)
    net = simnet.Network(enc, gamma.gamma)
    res = simnet.monte_carlo(net, T, n, args.trials or 10000, rng)
    p = lib.popularity
    res["R_analytic"] = float(rates.backhaul_pir(p, scheme.mu, gamma.gamma, n, T))
    res["D_analytic"] = float(rates.sbs_rate_pir(p, scheme.mu, gamma.gamma, n, T))
    write_csv(args.out, list(res), [res])
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="edgepir",
        description="MDS-coded edge caching with private information retrieval")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", help="JSON experiment config")
        sp.add_argument("--preset", help="built-in preset name (fig2..fig6)")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--out", help="output path (default: stdout)")
        sp.add_argument("--trials", type=int)

    sp = sub.add_parser("encode", help="encode a library into a cache snapshot")
    common(sp)
    sp.set_defaults(func=cmd_encode)

    sp = sub.add_parser("retrieve", help="run one PIR retrieval from a snapshot")
    sp.add_argument("snapshot")
    sp.add_argument("--file", type=int, required=True)
    sp.add_argument("--b", type=int, help="in-range SBS count (default: sampled)")
    sp.add_argument("--n", type=int)
    sp.add_argument("--T", type=int)
    sp.add_argument("--dump-transcript")
    common(sp)
    sp.set_defaults(func=cmd_retrieve)

    for name, fn in [("rates", cmd_rates), ("optimize", cmd_optimize),
                     ("sweep", cmd_sweep), ("verify-privacy", cmd_verify_privacy),
                     ("simulate", cmd_simulate)]:
        sp = sub.add_parser(name)
        common(sp)
        sp.set_defaults(func=fn)

    args = parser.parse_args(argv)
    try:
        check_flag(args, "trials", 1)
        return args.func(args)
    except tuple(cls for cls, _, _ in spec.EXIT_CODES) as e:
        _, code, prefix = next(row for row in spec.EXIT_CODES if isinstance(e, row[0]))
        print(f"{prefix}: {e}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
