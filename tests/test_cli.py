"""Command-line interface: subcommands, presets, exit codes."""

import csv
import json
from importlib import resources

import pytest

from edgepir import cache, cli, simnet, spec


def run(argv):
    return cli.main(argv)


def read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def test_encode_then_retrieve_roundtrip(tmp_path, capsys):
    snap = tmp_path / "cache.epir"
    assert run(["encode", "--preset", "fig2", "--out", str(snap)]) == 0
    assert snap.exists()
    capsys.readouterr()
    dump = tmp_path / "transcript.json"
    assert run(["retrieve", str(snap), "--file", "0", "--b", "6",
                "--seed", "1", "--dump-transcript", str(dump)]) == 0
    out = capsys.readouterr().out
    assert "10011" in out
    tr = json.loads(dump.read_text())
    assert tr["success"] is True
    assert tr["bits_from_sbs"] == 150 and tr["bits_from_mbs"] == 0
    assert len(tr["queries"]) == 6 and len(tr["responses"]) == 6


def test_retrieve_partial_coverage(tmp_path, capsys):
    snap = tmp_path / "cache.epir"
    run(["encode", "--preset", "fig2", "--out", str(snap)])
    capsys.readouterr()
    assert run(["retrieve", str(snap), "--file", "1", "--b", "4",
                "--seed", "3"]) == 0
    summary = json.loads(capsys.readouterr().out.split("recovered")[0])
    assert summary["bits_from_mbs"] == 50 and summary["bits_from_sbs"] == 100


def test_retrieve_seed_determinism(tmp_path, capsys):
    snap = tmp_path / "cache.epir"
    run(["encode", "--preset", "fig2", "--out", str(snap)])
    outs = []
    for _ in range(2):
        capsys.readouterr()
        d = tmp_path / f"t{len(outs)}.json"
        run(["retrieve", str(snap), "--file", "0", "--seed", "7",
             "--dump-transcript", str(d)])
        outs.append(d.read_text())
    assert outs[0] == outs[1]


def test_rates_command(tmp_path):
    out = tmp_path / "rates.csv"
    assert run(["rates", "--preset", "fig2", "--out", str(out)]) == 0
    rows = read_csv(str(out))
    assert len(rows) == 1
    # all 6 SBSs always in range: no MBS traffic in either regime
    assert float(rows[0]["R_noPIR"]) == 0.0
    assert float(rows[0]["R_PIR"]) == 0.0
    assert float(rows[0]["D_PIR"]) == pytest.approx(30.0)


def test_optimize_command(tmp_path):
    cfg = {
        "library": {"F": 200, "alpha": 0.7},
        "topology": {"gamma": [0, 0, 0.1736, 0.5113, 0.3151]},
        "scheme": {"M": 50},
        "protocol": {"T": 1},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "opt.csv"
    assert run(["optimize", "--config", str(path), "--out", str(out)]) == 0
    rows = {r["objective"]: r for r in read_csv(str(out))}
    assert rows["PIR"]["n_star"] == "3" and rows["PIR"]["k_star"] == "2"
    assert float(rows["PIR"]["value"]) <= float(rows["PIR popular"]["value"]) + 1e-9
    assert float(rows["noPIR"]["value"]) <= float(rows["noPIR popular"]["value"]) + 1e-9


def test_sweep_m_axis(tmp_path):
    cfg = {
        "library": {"F": 50, "alpha": 0.7},
        "topology": {"gamma": [0, 0, 0.1736, 0.5113, 0.3151]},
        "protocol": {"T": 1},
        "sweep": {"axis": "M", "start": 10, "stop": 30, "step": 10},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "sweep.csv"
    assert run(["sweep", "--config", str(path), "--out", str(out)]) == 0
    rows = read_csv(str(out))
    assert [r["M"] for r in rows] == ["10", "20", "30"]
    values = [float(r["value"]) for r in rows]
    assert values == sorted(values, reverse=True)  # more cache never hurts


def test_sweep_lambda_preset_transitions(tmp_path):
    out = tmp_path / "fig5.csv"
    assert run(["sweep", "--preset", "fig5", "--out", str(out)]) == 0
    rows = read_csv(str(out))
    keys = [(r["n_star"], r["k_star"]) for r in rows]
    assert keys == [("", ""), ("4", "1"), ("3", "1"), ("2", "1")]


def test_verify_privacy_exact(capsys):
    assert run(["verify-privacy", "--preset", "fig2"]) == 0
    out = capsys.readouterr().out
    assert "privacy verified" in out
    assert out.count("max TV distance 0") == 6


def test_simulate_command(tmp_path):
    out = tmp_path / "sim.csv"
    assert run(["simulate", "--preset", "fig2", "--trials", "2000",
                "--out", str(out)]) == 0
    rows = read_csv(str(out))
    assert len(rows) == 1
    assert float(rows[0]["R_hat"]) == float(rows[0]["R_analytic"]) == 0.0
    assert float(rows[0]["D_hat"]) == pytest.approx(
        float(rows[0]["D_analytic"])) == pytest.approx(30.0)


def test_unknown_preset_exits_2(capsys):
    assert run(["rates", "--preset", "nope"]) == 2
    assert "config error" in capsys.readouterr().err


def test_missing_config_exits_2(capsys):
    assert run(["rates"]) == 2


def test_invalid_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["rates", "--config", str(bad)]) == 2


def test_constraint_violation_exits_3(tmp_path, capsys):
    cfg = {
        "library": {"F": 2, "beta": 1, "L": 5, "popularity": [0.5, 0.5],
                    "files": [["10011"], ["01101"]]},
        "topology": {"gamma": [0, 0, 0, 0, 0, 1]},
        "scheme": {"N_sbs": 6, "M": "6/5", "mu": ["1", "1/5"], "q": 2},
        "protocol": {"n": 5, "T": 1},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    # n = 5 < k_max + T = 6: infeasible protocol parameters
    assert run(["verify-privacy", "--config", str(path)]) == 3
    assert "constraint violation" in capsys.readouterr().err


@pytest.mark.parametrize("q", [6, 7, 9, 1 << 17])
def test_encode_field_size_not_2_to_the_m_exits_3(tmp_path, capsys, q):
    """Every q the fields refuse gets one message naming the constraint."""
    cfg = json.loads(resources.files("edgepir").joinpath("presets/fig2.json").read_text())
    cfg["scheme"]["q"] = q
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert run(["encode", "--config", str(path), "--out", str(tmp_path / "c.epir")]) == 3
    assert capsys.readouterr().err == \
        f"constraint violation: q = {q} unsupported: q must be 2^m, 1 <= m <= 16\n"


def test_all_presets_load():
    for name in ("fig2", "fig3", "fig4", "fig5", "fig6"):
        class A:
            preset = name
            config = None
        cfg = cli.load_config(A())
        assert isinstance(cfg, dict) and cfg


def test_rates_scheme_without_placement_exits_2(tmp_path, capsys):
    cfg = {"library": {"F": 2, "popularity": [0.5, 0.5]},
           "topology": {"gamma": [0, 1]},
           "scheme": {"N_sbs": 6, "M": 1}, "protocol": {"T": 1}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert run(["rates", "--config", str(path)]) == 2
    assert "config error: scheme needs 'mu' or 'k'" in capsys.readouterr().err


def _rewrite_snapshot(tmp_path, edit):
    """Encode fig2, apply ``edit`` to the snapshot bytes, and return the
    path of the edited copy."""
    snap = tmp_path / "cache.epir"
    run(["encode", "--preset", "fig2", "--out", str(snap)])
    data = snap.read_bytes()
    bad = tmp_path / "bad.epir"
    bad.write_bytes(edit(data, 8 + int.from_bytes(data[4:8], "big")))
    with pytest.raises(cache.SnapshotError):
        cache.load_snapshot(str(bad))
    return bad


def _drop_q(data, body_start):
    header = json.loads(data[8:body_start])
    del header["q"]
    hdr = json.dumps(header).encode()
    return data[:4] + len(hdr).to_bytes(4, "big") + hdr + data[body_start:]


def test_snapshot_missing_header_key_exits_2(tmp_path, capsys):
    bad = _rewrite_snapshot(tmp_path, _drop_q)
    capsys.readouterr()
    assert run(["retrieve", str(bad), "--file", "0"]) == 2
    assert "snapshot error: snapshot header lacks q" in capsys.readouterr().err


def test_snapshot_truncated_header_exits_2(tmp_path, capsys):
    bad = _rewrite_snapshot(tmp_path, lambda data, body: data[:body - 10])
    capsys.readouterr()
    assert run(["retrieve", str(bad), "--file", "0"]) == 2
    assert "snapshot error: snapshot header truncated" in capsys.readouterr().err


def test_snapshot_truncated_body_exits_2(tmp_path, capsys):
    bad = _rewrite_snapshot(tmp_path, lambda data, body: data[:-1])
    capsys.readouterr()
    assert run(["retrieve", str(bad), "--file", "0"]) == 2
    assert "snapshot error: snapshot body truncated" in capsys.readouterr().err


def _preset(name):
    return json.loads(resources.files("edgepir").joinpath(f"presets/{name}.json").read_text())


def _set_header(key, value):
    def edit(data, body_start):
        header = json.loads(data[8:body_start])
        header[key] = value
        hdr = json.dumps(header).encode()
        return data[:4] + len(hdr).to_bytes(4, "big") + hdr + data[body_start:]
    return edit


@pytest.mark.parametrize("key,value,message", [
    ("F", "2", "F must be an integer"),
    ("q", 3, "does not describe a cache"),
    ("mu", ["1"], "does not describe a cache"),
])
def test_snapshot_header_fault_exits_2(tmp_path, capsys, key, value, message):
    bad = _rewrite_snapshot(tmp_path, _set_header(key, value))
    capsys.readouterr()
    assert run(["retrieve", str(bad), "--file", "0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("snapshot error: ") and message in err


def test_rates_reads_T_from_protocol(tmp_path):
    cfg = {"library": {"F": 2, "popularity": [0.5, 0.5]},
           "topology": {"gamma": [0, 0, 0, 0, 1]},
           "scheme": {"N_sbs": 6, "mu": ["1", "1"], "M": "2"},
           "protocol": {"n": 4, "T": 2}}
    path, out = tmp_path / "cfg.json", tmp_path / "rates.csv"
    path.write_text(json.dumps(cfg))
    assert run(["rates", "--config", str(path), "--out", str(out)]) == 0
    # every user sees 4 SBSs: D = n / (n - T + 1 - k) = 4 / 2 with T = 2
    assert float(read_csv(str(out))[0]["D_PIR"]) == pytest.approx(2.0)


@pytest.mark.parametrize("argv,flag", [
    (["--file", "5"], "--file"), (["--file", "-1"], "--file"),
    (["--b", "-1"], "--b"), (["--b", "7"], "--b"),
    (["--n", "0"], "--n"), (["--n", "7"], "--n"),
    (["--T", "0"], "--T"),
])
def test_retrieve_flag_out_of_range_exits_2(tmp_path, capsys, argv, flag):
    snap = tmp_path / "cache.epir"
    run(["encode", "--preset", "fig2", "--out", str(snap)])
    capsys.readouterr()
    args = ["retrieve", str(snap), "--seed", "1"] + (["--file", "0"] if flag != "--file" else [])
    assert run(args + argv) == 2
    assert capsys.readouterr().err.startswith(f"config error: {flag} must lie in")


def test_trials_out_of_range_exits_2(capsys):
    assert run(["simulate", "--preset", "fig2", "--trials", "0"]) == 2
    assert capsys.readouterr().err.startswith("config error: --trials must lie in")


@pytest.mark.parametrize("section,key", [
    ("scheme", "T"), ("optimize", "M"), ("optimize", "T"), ("optimize", "theta"),
    ("sweep", "M"), ("sweep", "T"), ("sweep", "theta"), ("sweep", "r_u"),
])
def test_removed_key_exits_2_naming_it(tmp_path, capsys, section, key):
    cfg = _preset("fig2")
    cfg.setdefault(section, {})[key] = 1
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert run(["rates", "--config", str(path)]) == 2
    name = f"{section}.{key}" if section in spec.CONFIG else section
    assert f"config error: unknown key {name}\n" == capsys.readouterr().err


def test_every_preset_passes_spec_check():
    presets = resources.files("edgepir").joinpath("presets")
    names = sorted(p.name[:-len(".json")] for p in presets.iterdir() if p.name.endswith(".json"))
    assert names == ["fig2", "fig3", "fig4", "fig5", "fig6"]
    for name in names:
        spec.check(_preset(name), spec.CONFIG)
        assert isinstance(cli.load_config(type("A", (), {"preset": name})), spec.Section)


def test_optimize_fractional_M_caches_floor_M_popular_files(tmp_path):
    out = tmp_path / "opt.csv"
    assert run(["optimize", "--preset", "fig2", "--out", str(out)]) == 0  # M = 6/5
    rows = {r["objective"]: r for r in read_csv(str(out))}
    assert rows["PIR popular"]["files_cached"] == rows["noPIR popular"]["files_cached"] == "1"
    assert rows["PIR"]["files_cached"] == "2"  # floor(M * k) files at mu = 1/2


def test_protocol_and_verification_failures_exit_4(monkeypatch, capsys):
    respond = simnet.pirproto.respond
    with monkeypatch.context() as m:
        m.setattr(simnet.pirproto, "respond", lambda *args: respond(*args)[:-1])
        assert run(["simulate", "--preset", "fig2", "--trials", "3"]) == 4
    assert capsys.readouterr().err.startswith("protocol error: need 6 responses of 5")
    monkeypatch.setattr(simnet, "transcript_bit_counts", lambda *args: (-1, -1))
    assert run(["simulate", "--preset", "fig2", "--trials", "3"]) == 4
    assert capsys.readouterr().err == \
        "verification failure: transcript bits disagree with closed form\n"


@pytest.mark.parametrize("grid,message", [
    ({"spacing": 0}, "spacing must be positive"),
    ({"count": 0}, "at least one SBS"),
    ({"spacing": -60}, "spacing must be positive"),
    ({"spacing": 60, "r": -60}, "r must be non-negative"),
], ids=["spacing 0", "count 0", "spacing -60", "r -60"])
def test_rates_grid_geometry_fault_exits_3(tmp_path, capsys, grid, message):
    cfg = {"library": {"F": 200, "alpha": 0.7},
           "topology": {"grid": {"D": 500, "r": 60, "mc_samples": 1000} | grid},
           "scheme": {"N_sbs": 6, "M": 50, "k": 2}, "protocol": {"n": 4}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert run(["rates", "--config", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("constraint violation: ") and message in err


@pytest.mark.parametrize("library,scheme,message", [
    ({"F": 200, "alpha": 0.7}, {"N_sbs": 6, "M": 50, "k": 2}, "sum(mu) > M"),
    ({"F": 3, "popularity": [0.5, 0.5]}, {"N_sbs": 6, "M": 3, "mu": ["1/2"] * 3},
     "placement has 3 entries for 2 files"),
], ids=["over budget", "three mu for two popularities"])
def test_rates_placement_fault_exits_3(tmp_path, capsys, library, scheme, message):
    cfg = {"library": library, "topology": {"gamma": [0, 0, 0.2, 0.5, 0.3]},
           "scheme": scheme, "protocol": {"n": 4}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert run(["rates", "--config", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("constraint violation: ") and message in err


def test_rates_checks_popularity_exits_3(tmp_path, capsys):
    """A popularity that does not sum to 1 is a constraint violation, not a
    rate printed from it."""
    cfg = {"library": {"F": 2, "popularity": [0.9, 0.9]},
           "topology": {"gamma": [0, 0, 0.2, 0.5, 0.3]},
           "scheme": {"N_sbs": 6, "M": 1, "mu": ["1/2", "1/2"]}, "protocol": {"n": 4}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert run(["rates", "--config", str(path)]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err == "constraint violation: popularity must sum to 1\n"


GRID = {"gamma": [0, 0, 0.1736, 0.5113, 0.3151]}
SWEEP_M = {"axis": "M", "start": 10, "stop": 30, "step": 10}


@pytest.mark.parametrize("command,theta", [
    ("optimize", 3.0), ("optimize", -0.5), ("sweep", -1), ("sweep", 1.5)])
def test_theta_outside_unit_interval_exits_3(tmp_path, capsys, command, theta):
    cfg = {"library": {"F": 50, "alpha": 0.7}, "topology": GRID,
           "scheme": {"M": 20, "theta": theta}, "protocol": {"T": 1}, "sweep": SWEEP_M}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert run([command, "--config", str(path)]) == 3
    out = capsys.readouterr()
    assert out.out == "" and out.err == "constraint violation: theta must lie in [0, 1]\n"


@pytest.mark.parametrize("command", ["optimize", "sweep"])
@pytest.mark.parametrize("library,message", [
    ({"F": 5, "popularity": [0.5, 0.5]}, "popularity has 2 entries for 5 files"),
    ({"F": 3, "popularity": [0.9, 0.9, -0.8]}, "entries must be non-negative"),
    ({"F": 2, "popularity": [0.1, 0.9]}, "must be non-increasing"),
    ({"F": 2, "popularity": [0.6, 0.6]}, "must sum to 1"),
], ids=["length", "negative", "increasing", "sum"])
def test_optimize_and_sweep_popularity_fault_exits_3(tmp_path, capsys, command,
                                                      library, message):
    cfg = {"library": library, "topology": GRID, "scheme": {"M": 1},
           "protocol": {"T": 1}, "sweep": {"axis": "M", "values": [1, 2]}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert run([command, "--config", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("constraint violation: ") and message in err


def test_optimize_cache_above_library_caches_every_file_whole(tmp_path):
    cfg = {"library": {"F": 20, "alpha": 0.7}, "topology": GRID,
           "scheme": {"M": 50}, "protocol": {"T": 1}}
    path, out = tmp_path / "cfg.json", tmp_path / "opt.csv"
    path.write_text(json.dumps(cfg))
    assert run(["optimize", "--config", str(path), "--out", str(out)]) == 0
    rows = {r["objective"]: r for r in read_csv(str(out))}
    assert rows["PIR popular"]["files_cached"] == rows["noPIR popular"]["files_cached"] == "20"
    assert all(float(r["value"]) == 0.0 for r in rows.values())  # >= 2 SBSs always in range
