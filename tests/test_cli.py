"""Scenario files, engine dispatch, sweeps, count search, CSV output."""

import json
import math
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

import finitenet.cli as cli
import finitenet.mgf as mgf
import finitenet.montecarlo as montecarlo
import finitenet.scenario as scenario_module
from finitenet import (EulerInversionParams, NumericFailure,
                       ScenarioParseError, make_fig2_region, outage_mgf,
                       outage_rlpg)
from finitenet.cli import (MAXM_HEADER, RUN_HEADER, apply_sweep_value,
                           build_region, build_scenario, evaluate_scenario,
                           load_scenario_config, main,
                           max_supported_interferers, parse_grid,
                           parse_scenario_config, resolve_method,
                           resolve_receiver, scenario_fingerprint)


def _base_raw(**overrides):
    raw = {
        "region": {"type": "disk", "params": {"radius": 100.0}},
        "receiver": {"mode": "disk_offset_d", "d": 0.0},
        "r0": 5.0, "M": 10, "m0": 1, "m": 1, "alpha": 4.0,
        "beta_db": 0.0, "snr_db": 20.0,
    }
    raw.update(overrides)
    return raw


def _write(tmp_path, raw, name="scen.json"):
    path = tmp_path / name
    path.write_text(json.dumps(raw), encoding="utf-8")
    return str(path)


def _read_csv(path):
    import csv
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


# ----- parsing -----

def test_json_errors_report_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "region": }\n', encoding="utf-8")
    with pytest.raises(ScenarioParseError, match=r":2:\d+:"):
        load_scenario_config(str(path))
    assert main(["run", "--scenario", str(path), "--out",
                 str(tmp_path / "o.csv")]) == 2


def test_missing_file_is_exit_two(tmp_path, capsys):
    rc = main(["run", "--scenario", str(tmp_path / "nope.json"),
               "--out", str(tmp_path / "o.csv")])
    assert rc == 2
    assert "nope.json" in capsys.readouterr().err


def test_unknown_field_lists_allowed():
    raw = _base_raw()
    raw["snr"] = 20.0
    with pytest.raises(ScenarioParseError) as exc:
        parse_scenario_config(raw)
    assert "snr'" in str(exc.value) and "snr_db" in str(exc.value)


def test_missing_field_named():
    raw = _base_raw()
    del raw["alpha"]
    with pytest.raises(ScenarioParseError, match="alpha"):
        parse_scenario_config(raw)


def test_config_normalization_and_db_conversion():
    cfg = parse_scenario_config(_base_raw(beta_db=3.0, snr_db=20.0))
    assert cfg.beta == pytest.approx(10.0 ** 0.3, rel=1e-15)
    assert cfg.rho0 == pytest.approx(100.0, rel=1e-15)
    assert cfg.method == "auto"
    assert cfg.mc_trials == 10 ** 6 and cfg.mc_seed == 0
    assert cfg.inversion is None and cfg.density is None


def test_regular_polygon_needs_one_size_spec():
    for params in ({"num_sides": 6},
                   {"num_sides": 6, "area": 1.0, "circumradius": 2.0}):
        raw = _base_raw(region={"type": "regular_polygon", "params": params},
                        receiver={"mode": "center"})
        with pytest.raises(ScenarioParseError, match="circumradius"):
            parse_scenario_config(raw)


def test_regular_polygon_area_spec_builds_that_area():
    raw = _base_raw(region={"type": "regular_polygon",
                            "params": {"num_sides": 6, "area": math.pi * 1e4}},
                    receiver={"mode": "center"})
    region = build_region(parse_scenario_config(raw))
    assert region.area == pytest.approx(math.pi * 1e4, rel=1e-12)


def test_inversion_parsing():
    cfg = parse_scenario_config(_base_raw(inversion={"zeta": 8}))
    assert cfg.inversion == EulerInversionParams.from_accuracy_digits(8)
    assert (cfg.inversion.B, cfg.inversion.C) == (9, 12)
    cfg = parse_scenario_config(
        _base_raw(inversion={"A": 18.4, "B": 11, "C": 14}))
    assert (cfg.inversion.A, cfg.inversion.B, cfg.inversion.C) == (18.4, 11, 14)
    with pytest.raises(ScenarioParseError, match="not both"):
        parse_scenario_config(_base_raw(inversion={"zeta": 8, "A": 1.0}))


# ----- receiver resolution -----

def test_receiver_modes_resolve_to_expected_points():
    fig2 = {"type": "fig2", "params": {"width": 100.0}}
    cfg = parse_scenario_config(
        _base_raw(region=fig2, receiver={"mode": "vertex_index", "index": 1}))
    xy = resolve_receiver(cfg, build_region(cfg))
    assert xy == pytest.approx((100.0 * math.sqrt(3.0), 0.0), abs=1e-12)

    cfg = parse_scenario_config(
        _base_raw(region=fig2,
                  receiver={"mode": "edge_midpoint_index", "index": 1}))
    xy = resolve_receiver(cfg, build_region(cfg))
    v = make_fig2_region(100.0).vertices
    assert xy == pytest.approx(tuple(0.5 * (v[1] + v[2])), abs=1e-12)

    cfg = parse_scenario_config(
        _base_raw(region=fig2, receiver={"mode": "center"}))
    xy = resolve_receiver(cfg, build_region(cfg))
    x, y = v[:, 0], v[:, 1]
    xn, yn = np.roll(x, -1), np.roll(y, -1)
    cr = x * yn - xn * y
    ref = (((x + xn) * cr).sum() / (3 * cr.sum()),
           ((y + yn) * cr).sum() / (3 * cr.sum()))
    assert xy == pytest.approx(ref, rel=1e-14)


def test_receiver_mode_region_mismatches():
    fig2 = {"type": "fig2", "params": {"width": 100.0}}
    cfg = parse_scenario_config(
        _base_raw(region=fig2, receiver={"mode": "disk_offset_d", "d": 1.0}))
    with pytest.raises(ScenarioParseError, match="disk"):
        resolve_receiver(cfg, build_region(cfg))
    cfg = parse_scenario_config(
        _base_raw(receiver={"mode": "vertex_index", "index": 0}))
    with pytest.raises(ScenarioParseError, match="polygonal"):
        resolve_receiver(cfg, build_region(cfg))
    cfg = parse_scenario_config(
        _base_raw(region=fig2, receiver={"mode": "vertex_index", "index": 4}))
    with pytest.raises(ScenarioParseError, match="out of range"):
        resolve_receiver(cfg, build_region(cfg))


def test_outside_coords_receiver_is_exit_two(tmp_path, capsys):
    path = _write(tmp_path, _base_raw(
        receiver={"mode": "coords", "coords": [150.0, 5.0]}))
    assert main(["run", "--scenario", path,
                 "--out", str(tmp_path / "o.csv")]) == 2
    assert "receiver [150.0, 5.0] lies outside" in capsys.readouterr().err


def test_rim_receiver_on_shifted_disk(tmp_path):
    # with the centre at x = 28.61 the rim offset rounds to
    # 100.00000000000001, just past the radius
    rim = {"mode": "disk_offset_d", "d": 100.0}
    centred = _write(tmp_path, _base_raw(receiver=rim), "centred.json")
    shifted = _write(tmp_path, _base_raw(
        region={"type": "disk",
                "params": {"radius": 100.0, "center": [28.61, 0.0]}},
        receiver=rim), "shifted.json")
    out = str(tmp_path / "o.csv")

    def outage(path, method):
        assert main(["run", "--scenario", path, "--out", out,
                     "--method", method]) == 0
        rows = _read_csv(out)
        return dict(zip(rows[0], rows[1]))["outage"]

    series = outage(shifted, "rlpg")
    assert series == outage(centred, "rlpg")
    assert abs(float(outage(shifted, "mgf")) - float(series)) < 1e-6
    assert main(["maxm", "--scenario", shifted, "--out", out,
                 "--method", "rlpg", "--target", "0.05"]) == 0
    rows = _read_csv(out)
    assert dict(zip(rows[0], rows[1]))["max_interferers"] == "21"


# ----- dispatch -----

def test_auto_dispatch_follows_reference_shape():
    assert resolve_method(parse_scenario_config(_base_raw())) == "rlpg"
    assert resolve_method(parse_scenario_config(_base_raw(m0=3))) == "rlpg"
    assert resolve_method(parse_scenario_config(_base_raw(m0=1.5))) == "mgf"
    assert resolve_method(parse_scenario_config(_base_raw(m0=0.5, m=0.5))) == "mgf"
    # the one integer-shape rule: within 1e-9 of a positive integer
    for m0, method in ((1 - 5e-10, "rlpg"), (1 + 5e-10, "rlpg"),
                       (1 - 2e-9, "mgf"), (1 + 2e-9, "mgf")):
        assert resolve_method(parse_scenario_config(_base_raw(m0=m0))) \
            == method, m0
    cfg = parse_scenario_config(_base_raw(method="mc"))
    assert resolve_method(cfg) == "mc"
    assert resolve_method(cfg, "rlpg") == "rlpg"
    with pytest.raises(ScenarioParseError):
        resolve_method(cfg, "fft")


def test_forced_integer_engine_names_alternative(tmp_path, capsys):
    path = _write(tmp_path, _base_raw(m0=1.5, m=1.5))
    rc = main(["run", "--scenario", path, "--out", str(tmp_path / "o.csv"),
               "--method", "rlpg"])
    assert rc == 2
    assert "outage_mgf" in capsys.readouterr().err


def test_ppp_rejects_non_rayleigh(tmp_path, capsys):
    path = _write(tmp_path, _base_raw(m0=2, m=2, method="ppp"))
    rc = main(["run", "--scenario", path, "--out", str(tmp_path / "o.csv")])
    assert rc == 2
    assert "Rayleigh" in capsys.readouterr().err


def test_ppp_density_default_and_override():
    raw = _base_raw(region={"type": "fig2", "params": {"width": 100.0}},
                    receiver={"mode": "vertex_index", "index": 1},
                    alpha=2.5)
    cfg = parse_scenario_config(raw)
    from finitenet import outage_ppp_rayleigh
    area = build_region(cfg).area
    implied, _ = evaluate_scenario(cfg, build_scenario(cfg), "ppp")
    assert implied == pytest.approx(
        outage_ppp_rayleigh(10.0 / area, 5.0, 2.5, 1.0, 100.0).outage,
        rel=1e-14)
    raw["density"] = 2e-3
    forced_cfg = parse_scenario_config(raw)
    forced, _ = evaluate_scenario(forced_cfg, build_scenario(forced_cfg),
                                  "ppp")
    assert forced == pytest.approx(
        outage_ppp_rayleigh(2e-3, 5.0, 2.5, 1.0, 100.0).outage, rel=1e-14)


def test_fingerprint_ignores_evaluation_knobs():
    def fingerprint(cfg):
        return scenario_fingerprint(cfg, build_scenario(cfg))

    cfg = parse_scenario_config(_base_raw())
    fp = fingerprint(cfg)
    assert len(fp) == 12 and all(c in "0123456789abcdef" for c in fp)
    same = replace(cfg, method="mc", mc_trials=5, mc_seed=9,
                   quadrature_rel_tol=1e-8,
                   inversion=EulerInversionParams.from_accuracy_digits(6))
    assert fingerprint(same) == fp
    assert fingerprint(replace(cfg, alpha=3.0)) != fp
    assert fingerprint(replace(cfg, receiver_params={"d": 1.0})) != fp


# ----- run subcommand -----

def test_run_csv_layout_and_value(tmp_path):
    path = _write(tmp_path, _base_raw())
    out = tmp_path / "run.csv"
    assert main(["run", "--scenario", path, "--out", str(out)]) == 0
    rows = _read_csv(str(out))
    assert tuple(rows[0]) == RUN_HEADER
    assert len(rows) == 2
    row = dict(zip(rows[0], rows[1]))
    assert row["method"] == "rlpg" and row["region"] == "disk"
    assert row["M"] == "10" and row["std_error"] == ""
    sc = build_scenario(parse_scenario_config(_base_raw()))
    assert float(row["outage"]) == pytest.approx(outage_rlpg(sc).outage,
                                                 rel=1e-10)


def test_run_is_byte_stable(tmp_path):
    path = _write(tmp_path, _base_raw(mc={"trials": 1 << 17, "seed": 7},
                                      method="mc"))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["run", "--scenario", path, "--out", str(a)]) == 0
    assert main(["run", "--scenario", path, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    row = dict(zip(*_read_csv(str(a))))
    assert row["method"] == "mc" and float(row["std_error"]) > 0


def test_run_seed_flag_overrides_file(tmp_path):
    raw = _base_raw(mc={"trials": 1 << 15, "seed": 7}, method="mc")
    path = _write(tmp_path, raw)
    base, seeded = tmp_path / "s7.csv", tmp_path / "s8.csv"
    assert main(["run", "--scenario", path, "--out", str(base)]) == 0
    assert main(["run", "--scenario", path, "--out", str(seeded),
                 "--seed", "8"]) == 0
    a = dict(zip(*_read_csv(str(base))))
    b = dict(zip(*_read_csv(str(seeded))))
    assert a["outage"] != b["outage"]
    assert a["scenario"] == b["scenario"]


def test_unwritable_output_is_exit_two(tmp_path, capsys):
    path = _write(tmp_path, _base_raw())
    rc = main(["run", "--scenario", path,
               "--out", str(tmp_path / "missing_dir" / "o.csv")])
    assert rc == 2
    assert "o.csv" in capsys.readouterr().err


def test_numeric_failure_is_exit_three(tmp_path, capsys, monkeypatch):
    path = _write(tmp_path, _base_raw())

    def boom(cfg, sc, method):
        raise NumericFailure("synthetic convergence failure")

    monkeypatch.setattr(cli, "evaluate_scenario", boom)
    rc = main(["run", "--scenario", path, "--out", str(tmp_path / "o.csv")])
    assert rc == 3
    assert "synthetic" in capsys.readouterr().err


def test_geometry_built_once_per_row(tmp_path, monkeypatch):
    calls = []

    def counted(cfg):
        calls.append(cfg)
        return build_region(cfg)

    monkeypatch.setattr(cli, "build_region", counted)
    path = _write(tmp_path, _base_raw(mc={"trials": 1 << 10}))
    out = str(tmp_path / "o.csv")
    assert main(["run", "--scenario", path, "--out", out]) == 0
    assert len(calls) == 1
    calls.clear()
    assert main(["sweep", "--scenario", path, "--out", out, "--variable",
                 "d", "--values", "0,50,100", "--method", "rlpg,mc"]) == 0
    assert len(calls) == 3
    calls.clear()
    assert main(["maxm", "--scenario", path, "--out", out,
                 "--target", "0.05"]) == 0
    assert len(calls) == 1


# ----- sweeps -----

def test_parse_grid_syntaxes():
    assert parse_grid("0:100:5", "d") == [0.0, 25.0, 50.0, 75.0, 100.0]
    assert parse_grid("1,2,4", "M") == [1, 2, 4]
    assert parse_grid(" ", "d") == []
    assert parse_grid("3:3:1", "alpha") == [3.0]
    for bad in ("1:2", "1:2:3:4", "a,b", "0:1:0", "one:two:3"):
        with pytest.raises(ScenarioParseError):
            parse_grid(bad, "d")
    with pytest.raises(ScenarioParseError, match="integer"):
        parse_grid("1.5,2", "M")


def test_apply_sweep_value_variants():
    cfg = parse_scenario_config(_base_raw())
    moved = apply_sweep_value(cfg, "d", 30.0)
    assert moved.receiver_mode == "disk_offset_d"
    assert moved.receiver_params == {"d": 30.0}
    assert apply_sweep_value(cfg, "M", 4).num_interferers == 4
    assert apply_sweep_value(cfg, "snr_db", 7.0).snr_db == 7.0
    hexa = parse_scenario_config(
        _base_raw(region={"type": "regular_polygon",
                          "params": {"num_sides": 6, "circumradius": 50.0}},
                  receiver={"mode": "center"}))
    assert apply_sweep_value(hexa, "L", 8).region_params["num_sides"] == 8
    with pytest.raises(ScenarioParseError):
        apply_sweep_value(cfg, "L", 8)
    with pytest.raises(ScenarioParseError):
        apply_sweep_value(hexa, "d", 1.0)


def test_sweep_csv_multi_method(tmp_path):
    path = _write(tmp_path, _base_raw())
    out = tmp_path / "sweep.csv"
    rc = main(["sweep", "--scenario", path, "--out", str(out),
               "--variable", "d", "--values", "0,50,100",
               "--method", "rlpg,mgf"])
    assert rc == 0
    rows = _read_csv(str(out))
    assert rows[0] == ["scenario", "d", "outage_rlpg", "outage_mgf"]
    assert len(rows) == 4
    assert [float(r[1]) for r in rows[1:]] == [0.0, 50.0, 100.0]
    for r in rows[1:]:
        assert abs(float(r[2]) - float(r[3])) < 1e-6
    outages = [float(r[2]) for r in rows[1:]]
    assert outages[0] > outages[1] > outages[2]  # less-crowded edge


def test_sweep_empty_grid_writes_header_only(tmp_path):
    path = _write(tmp_path, _base_raw())
    out = tmp_path / "empty.csv"
    rc = main(["sweep", "--scenario", path, "--out", str(out),
               "--variable", "M", "--values", ""])
    assert rc == 0
    assert _read_csv(str(out)) == [["scenario", "M", "outage_rlpg"]]


def test_sweep_inapplicable_variable_is_exit_two(tmp_path, capsys):
    path = _write(tmp_path,
                  _base_raw(region={"type": "fig2", "params": {"width": 100.0}},
                            receiver={"mode": "vertex_index", "index": 1}))
    rc = main(["sweep", "--scenario", path, "--out", str(tmp_path / "o.csv"),
               "--variable", "d", "--values", "0,10"])
    assert rc == 2
    assert "disk" in capsys.readouterr().err


def test_sweep_empty_method_name_is_exit_two(tmp_path, capsys):
    # an empty name in the list is an error, not the scenario's own method
    path = _write(tmp_path, _base_raw())
    out = tmp_path / "o.csv"
    for methods in ("mc,", ",rlpg", ""):
        rc = main(["sweep", "--scenario", path, "--out", str(out),
                   "--variable", "M", "--values", "1", "--method", methods])
        assert rc == 2, methods
        assert "method must be one of" in capsys.readouterr().err
    assert not out.exists()
    with pytest.raises(ScenarioParseError):
        resolve_method(parse_scenario_config(_base_raw()), "")


def test_sweep_defaults_to_the_scenario_method(tmp_path, capsys):
    # without --method, sweep uses the file's method, as run and maxm do
    path = _write(tmp_path, _base_raw(method="ppp"))
    assert main(["run", "--scenario", path,
                 "--out", str(tmp_path / "r.csv")]) == 0
    assert "method=ppp" in capsys.readouterr().out
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["sweep", "--scenario", path, "--variable", "M", "--values", "1,2"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b), "--method", "ppp"]) == 0
    assert _read_csv(str(a))[0] == ["scenario", "M", "outage_ppp"]
    assert a.read_bytes() == b.read_bytes()


def test_sweep_is_byte_stable(tmp_path):
    path = _write(tmp_path, _base_raw())
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["sweep", "--scenario", path, "--variable", "M",
            "--values", "0,5,10,15", "--method", "rlpg"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


# ----- interferer-count search -----

def test_maxm_hexagon_run(tmp_path):
    raw = _base_raw(region={"type": "regular_polygon",
                            "params": {"num_sides": 6, "area": math.pi * 1e4}},
                    receiver={"mode": "center"}, m0=3, m=3, alpha=2.5)
    path = _write(tmp_path, raw)
    out = tmp_path / "maxm.csv"
    rc = main(["maxm", "--scenario", path, "--out", str(out),
               "--target", "0.05"])
    assert rc == 0
    rows = _read_csv(str(out))
    assert tuple(rows[0]) == MAXM_HEADER
    row = dict(zip(rows[0], rows[1]))
    assert row["max_interferers"] == "14"
    assert row["feasible"] == "true"
    assert 0.05 < float(row["outage_at_max"]) < 0.06


def test_maxm_infeasible_target(tmp_path):
    # noise alone already violates the target
    path = _write(tmp_path, _base_raw(beta_db=10.0, snr_db=0.0))
    out = tmp_path / "maxm.csv"
    assert main(["maxm", "--scenario", path, "--out", str(out),
                 "--target", "0.001"]) == 0
    row = dict(zip(*_read_csv(str(out))))
    assert row["max_interferers"] == "0"
    assert row["feasible"] == "false"
    assert float(row["outage_at_max"]) == pytest.approx(1 - math.exp(-10.0),
                                                        rel=1e-10)


def test_maxm_target_validation(tmp_path, capsys):
    cfg = parse_scenario_config(_base_raw())
    sc = build_scenario(cfg)
    for bad in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(ScenarioParseError):
            max_supported_interferers(cfg, sc, bad, "rlpg")
    with pytest.raises(ScenarioParseError, match="analytic"):
        max_supported_interferers(cfg, sc, 0.05, "mc")
    path = _write(tmp_path, _base_raw())
    assert main(["maxm", "--scenario", path, "--out",
                 str(tmp_path / "o.csv"), "--target", "1.5"]) == 2
    capsys.readouterr()


def test_maxm_nearest_crossing_prefers_closer_count():
    cfg = parse_scenario_config(_base_raw(alpha=6.0))
    sc = build_scenario(cfg)
    m_star, eps_star, feasible = max_supported_interferers(cfg, sc, 0.05,
                                                           "rlpg")
    assert feasible
    from finitenet import outage_rlpg_for_counts
    eps = outage_rlpg_for_counts(sc, range(m_star + 2))
    below = eps[m_star] if eps[m_star] <= 0.05 else eps[m_star - 1]
    above = eps[m_star + 1] if eps[m_star] <= 0.05 else eps[m_star]
    assert min(abs(below - 0.05), abs(above - 0.05)) == abs(eps_star - 0.05)


# ----- one radial kernel per mgf scan -----

def _mgf_rim_raw():
    # a reduced transform-engine scenario, about a second per outage_mgf
    # call; its outage is 0.0145 at M = 2 and 0.0210 at M = 3
    return _base_raw(receiver={"mode": "disk_offset_d", "d": 100.0},
                     r0=10.0, M=2, m0=1.5, m=2.5, quadrature_rel_tol=1e-8,
                     inversion={"zeta": 6})


def _radial_batches(monkeypatch):
    """Record the q batch of every radial kernel integral computed."""
    batches = []
    rows = mgf._radial_mixture_rows

    def counted(profile, m, alpha, q, rel_tol):
        batches.append(q.tobytes())
        return rows(profile, m, alpha, q, rel_tol)

    monkeypatch.setattr(mgf, "_radial_mixture_rows", counted)
    return batches


def test_mgf_maxm_shares_one_radial_kernel(tmp_path, monkeypatch):
    raw = _mgf_rim_raw()
    target = 0.016
    batches = _radial_batches(monkeypatch)
    seen = {}
    engine = cli.outage_mgf

    def recorded(sc, **kwargs):
        res = engine(sc, **kwargs)
        seen[sc.num_interferers] = res.outage
        return res

    monkeypatch.setattr(cli, "outage_mgf", recorded)
    out = tmp_path / "maxm.csv"
    assert main(["maxm", "--scenario", _write(tmp_path, raw), "--out",
                 str(out), "--target", str(target), "--method", "mgf"]) == 0
    shared = len(batches)

    # the same scan with a fresh kernel for every count
    cfg = parse_scenario_config(raw)
    sc = build_scenario(cfg)
    batches.clear()
    eps = [outage_mgf(replace(sc, num_interferers=0), params=cfg.inversion,
                      rel_tol=1e-8).outage]
    while eps[-1] <= target:
        eps.append(outage_mgf(replace(sc, num_interferers=len(eps)),
                              params=cfg.inversion, rel_tol=1e-8).outage)
    assert len(eps) == 4
    assert seen == dict(enumerate(eps))
    m_star, eps_star = cli._nearest_crossing(2, eps[2], eps[3], target)
    assert m_star == 2
    expected = tmp_path / "expected.csv"
    cli.emit_csv([[scenario_fingerprint(cfg, sc), "mgf", target, m_star,
                   eps_star, True]], str(expected), MAXM_HEADER)
    assert out.read_bytes() == expected.read_bytes()
    assert 2 * shared <= len(batches)


def test_mgf_snr_sweep_computes_each_radial_batch_once(monkeypatch):
    cfg = parse_scenario_config(_mgf_rim_raw())
    batches = _radial_batches(monkeypatch)
    snrs = [10.0, 20.0, 30.0]
    rows = cli.sweep_rows(cfg, "snr_db", snrs, ["mgf"])
    assert len(batches) == len(set(batches))
    for row, snr in zip(rows, snrs):
        point = apply_sweep_value(cfg, "snr_db", snr)
        sc = build_scenario(point)
        assert row == [scenario_fingerprint(point, sc), snr,
                       outage_mgf(sc, params=cfg.inversion,
                                  rel_tol=1e-8).outage]


def test_failure_in_shared_radial_batch_is_exit_three(tmp_path, capsys,
                                                      monkeypatch):
    # every point of the sweep asks first for the same batch (the first
    # Bromwich node on the initial panels); its one computation fails, and
    # the failure reaches every point waiting on it
    calls = []

    def boom(profile, m, alpha, q, rel_tol):
        calls.append(q)
        raise NumericFailure("synthetic radial failure")

    monkeypatch.setattr(mgf, "_radial_mixture_rows", boom)
    rc = main(["sweep", "--scenario", _write(tmp_path, _mgf_rim_raw()),
               "--out", str(tmp_path / "o.csv"), "--variable", "snr_db",
               "--values", "10,20,30", "--method", "mgf"])
    assert rc == 3
    assert "synthetic radial failure" in capsys.readouterr().err
    assert len(calls) == 1


def test_failure_in_a_later_transform_node_is_exit_three(tmp_path, capsys,
                                                         monkeypatch):
    # the 20th batch belongs to a node on the pool, past the first node
    monkeypatch.setattr(scenario_module, "_CPU_WORKERS", 2)
    rows = mgf._radial_mixture_rows
    calls = []

    def fail_late(profile, m, alpha, q, rel_tol):
        calls.append(q)
        if len(calls) == 20:
            raise NumericFailure("synthetic late radial failure")
        return rows(profile, m, alpha, q, rel_tol)

    monkeypatch.setattr(mgf, "_radial_mixture_rows", fail_late)
    rc = main(["run", "--scenario", _write(tmp_path, _mgf_rim_raw()),
               "--out", str(tmp_path / "o.csv"), "--method", "mgf"])
    assert rc == 3
    assert "synthetic late radial failure" in capsys.readouterr().err
    assert len(calls) >= 20


def _mc_raw(trials):
    return _base_raw(M=2, method="mc", mc={"trials": trials, "seed": 3})


def test_chunk_pool_width_changes_no_csv_byte(tmp_path, monkeypatch):
    path = _write(tmp_path, _mc_raw(2 * montecarlo.CHUNK_TRIALS + 500))
    outputs = {}
    for width in (1, 2, 4):
        monkeypatch.setattr(scenario_module, "_CPU_WORKERS", width)
        run, sweep = tmp_path / f"run{width}.csv", tmp_path / f"sweep{width}.csv"
        assert main(["run", "--scenario", path, "--out", str(run)]) == 0
        assert main(["sweep", "--scenario", path, "--out", str(sweep),
                     "--variable", "M", "--values", "1,2,3",
                     "--method", "mc"]) == 0
        outputs[width] = (run.read_bytes(), sweep.read_bytes())
    assert outputs[1] == outputs[2] == outputs[4]


def test_sweep_never_computes_more_chunks_at_once_than_the_width(
        tmp_path, monkeypatch):
    # a 4-point sweep runs its points on 4 threads and each point runs its
    # chunks on a pool; the process-wide bound still holds the chunks that
    # compute at once to the width
    width = 2
    monkeypatch.setattr(scenario_module, "_CPU_WORKERS", width)
    monkeypatch.setattr(montecarlo, "_LIVE_CHUNKS",
                        threading.BoundedSemaphore(width))
    sample = montecarlo.sample_uniform_in_region
    lock = threading.Lock()
    live = []
    peak = [0]

    def counted(*args, **kwargs):
        with lock:
            live.append(1)
            peak[0] = max(peak[0], len(live))
        try:
            time.sleep(0.02)   # long enough for the threads to overlap
            return sample(*args, **kwargs)
        finally:
            with lock:
                live.pop()

    monkeypatch.setattr(montecarlo, "sample_uniform_in_region", counted)
    path = _write(tmp_path, _mc_raw(montecarlo.CHUNK_TRIALS + 1))
    assert main(["sweep", "--scenario", path, "--out", str(tmp_path / "o.csv"),
                 "--variable", "M", "--values", "1,2,3,4",
                 "--method", "mc"]) == 0
    assert peak[0] == width
