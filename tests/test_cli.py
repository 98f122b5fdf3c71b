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
                       outage_rlpg, simulate_outage)
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


def test_inversion_parsing(tmp_path, capsys):
    cfg = parse_scenario_config(_base_raw(inversion={"zeta": 8}))
    assert cfg.inversion == EulerInversionParams.from_accuracy_digits(8)
    assert (cfg.inversion.B, cfg.inversion.C) == (9, 12)
    cfg = parse_scenario_config(
        _base_raw(inversion={"A": 18.4, "B": 11, "C": 14}))
    assert (cfg.inversion.A, cfg.inversion.B, cfg.inversion.C) == (18.4, 11, 14)
    with pytest.raises(ScenarioParseError, match="not both"):
        parse_scenario_config(_base_raw(inversion={"zeta": 8, "A": 1.0}))
    # an accuracy whose Euler scale e^{A/2} overflows is refused up front
    for inversion in ({"zeta": 700}, {"A": 1700, "B": 11, "C": 14}):
        path = _write(tmp_path, _base_raw(inversion=inversion))
        assert main(["run", "--scenario", path, "--method", "mgf",
                     "--out", str(tmp_path / "o.csv")]) == 2
        assert "e^(A/2)" in capsys.readouterr().err


def test_quadrature_tolerance_defaults_to_the_mgf_constant():
    # a missing and a null quadrature_rel_tol both mean the one default,
    # which is also the default of the engine and of the kernel it holds
    import inspect

    assert parse_scenario_config(_base_raw()).quadrature_rel_tol \
        == mgf.QUADRATURE_REL_TOL
    assert parse_scenario_config(_base_raw(quadrature_rel_tol=None)) \
        .quadrature_rel_tol == mgf.QUADRATURE_REL_TOL
    assert parse_scenario_config(_base_raw(quadrature_rel_tol=1e-8)) \
        .quadrature_rel_tol == 1e-8
    default = inspect.signature(outage_mgf).parameters["rel_tol"].default
    assert default == mgf.QUADRATURE_REL_TOL
    # a default call holds a kernel keyed on that tolerance (with M = 0
    # the call computes no radial integral)
    sc = build_scenario(parse_scenario_config(_base_raw(M=0)))
    outage_mgf(sc)
    assert mgf._held_kernel.key == mgf._kernel_key(
        sc, mgf._inner_rel_tol(mgf.QUADRATURE_REL_TOL))


_FIG2 = {"type": "fig2", "params": {"width": 100.0}}

# every integer field of a scenario file: a scenario file holding value v
# there, and where the parsed config keeps it
_INTEGER_FIELDS = {
    "M": (lambda v: _base_raw(M=v), lambda cfg: cfg.num_interferers),
    "region.params.num_sides": (
        lambda v: _base_raw(region={"type": "regular_polygon",
                                    "params": {"num_sides": v,
                                               "circumradius": 50.0}},
                            receiver={"mode": "center"}),
        lambda cfg: cfg.region_params["num_sides"]),
    "receiver.index": (
        lambda v: _base_raw(region=_FIG2,
                            receiver={"mode": "vertex_index", "index": v}),
        lambda cfg: cfg.receiver_params["index"]),
    "inversion.B": (
        lambda v: _base_raw(inversion={"A": 18.4, "B": v, "C": 14}),
        lambda cfg: cfg.inversion.B),
    "inversion.C": (
        lambda v: _base_raw(inversion={"A": 18.4, "B": 11, "C": v}),
        lambda cfg: cfg.inversion.C),
    "mc.trials": (lambda v: _base_raw(mc={"trials": v}),
                  lambda cfg: cfg.mc_trials),
    "mc.seed": (lambda v: _base_raw(mc={"seed": v}), lambda cfg: cfg.mc_seed),
}


def test_integer_fields_refuse_non_finite_and_huge_values(tmp_path, capsys):
    # 1e400 decodes to inf; a 400-digit integer is no float at all
    path = tmp_path / "scen.json"
    for field, (raw_with, _) in _INTEGER_FIELDS.items():
        for literal in ("NaN", "Infinity", "-Infinity", "1e400", "9" * 400,
                        "2.5"):
            path.write_text(json.dumps(raw_with("@")).replace('"@"', literal),
                            encoding="utf-8")
            rc = main(["run", "--scenario", str(path),
                       "--out", str(tmp_path / "o.csv"), "--method", "rlpg"])
            assert rc == 2, (field, literal)
            assert f"'{field}'" in capsys.readouterr().err, (field, literal)
    # an integer literal past Python's digit limit is a parse error too
    path.write_text(json.dumps(_base_raw(M="@")).replace('"@"', "9" * 5000),
                    encoding="utf-8")
    assert main(["run", "--scenario", str(path),
                 "--out", str(tmp_path / "o.csv")]) == 2
    assert "scen.json" in capsys.readouterr().err


def test_integer_fields_keep_json_integers_exact(tmp_path):
    for field, (raw_with, held) in _INTEGER_FIELDS.items():
        for value in (4, 4.0):
            kept = held(parse_scenario_config(raw_with(value)))
            assert kept == 4 and type(kept) is int, field
    # 2^53 + 1 is no float; as a seed it stays itself, so it draws
    # another estimate than 2^53
    big = 2 ** 53 + 1
    assert parse_scenario_config(_base_raw(mc={"seed": big})).mc_seed == big
    outputs = []
    for seed in (2 ** 53, big):
        out = tmp_path / f"seed{seed}.csv"
        path = _write(tmp_path, _base_raw(M=2, mc={"trials": 4000,
                                                   "seed": seed}))
        assert main(["run", "--scenario", path, "--out", str(out),
                     "--method", "mc"]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] != outputs[1]
    # seeds span Monte Carlo's [0, 2^64); the other fields stop at 2^53
    top = 2 ** 64 - 1
    assert parse_scenario_config(_base_raw(mc={"seed": top})).mc_seed == top
    with pytest.raises(ScenarioParseError, match="'mc.seed'"):
        parse_scenario_config(_base_raw(mc={"seed": top + 1}))
    assert parse_scenario_config(_base_raw(M=2 ** 53)).num_interferers \
        == 2 ** 53
    for field, (raw_with, _) in _INTEGER_FIELDS.items():
        if field != "mc.seed":
            with pytest.raises(ScenarioParseError, match=f"'{field}'"):
                parse_scenario_config(raw_with(big))


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


def test_non_finite_density_is_exit_two(tmp_path, capsys):
    path = tmp_path / "scen.json"
    for literal in ("NaN", "Infinity", "1e999"):
        path.write_text(json.dumps(_base_raw(method="ppp", density="@"))
                        .replace('"@"', literal), encoding="utf-8")
        assert main(["run", "--scenario", str(path),
                     "--out", str(tmp_path / "o.csv")]) == 2, literal
        assert "density" in capsys.readouterr().err


def test_non_finite_geometry_is_exit_two(tmp_path, capsys):
    # 1e999 decodes to inf; every engine refuses the region before it runs
    path = tmp_path / "scen.json"
    regions = (
        {"type": "disk", "params": {"radius": "@"}},
        {"type": "disk", "params": {"radius": 100.0, "center": ["@", 0.0]}},
        {"type": "polygon",
         "params": {"vertices": [[0.0, 0.0], [100.0, 0.0], ["@", 100.0]]}},
        {"type": "regular_polygon",
         "params": {"num_sides": 6, "circumradius": "@"}},
        {"type": "fig2", "params": {"width": "@"}},
    )
    for region in regions:
        raw = _base_raw(region=region,
                        receiver={"mode": "coords", "coords": [1.0, 1.0]},
                        mc={"trials": 1000})
        for literal in ("NaN", "1e999"):
            path.write_text(json.dumps(raw).replace('"@"', literal),
                            encoding="utf-8")
            for method in ("mc", "ppp", "rlpg", "mgf"):
                rc = main(["run", "--scenario", str(path), "--out",
                           str(tmp_path / "o.csv"), "--method", method])
                assert rc == 2, (region["type"], literal, method)
                assert "finite" in capsys.readouterr().err


def test_disk_whose_area_underflows_is_exit_two(tmp_path, capsys):
    # pi r^2 is 0.0 at r = 1e-170: every engine refuses the region rather
    # than divide by its area or warn
    raw = _base_raw(region={"type": "disk", "params": {"radius": 1e-170}},
                    mc={"trials": 1000})
    path = _write(tmp_path, raw)
    for method in ("rlpg", "mgf", "mc", "ppp"):
        rc = main(["run", "--scenario", path, "--out",
                   str(tmp_path / "o.csv"), "--method", method])
        err = capsys.readouterr().err
        assert rc == 2 and "positive finite area" in err, method
        assert "Traceback" not in err


def test_huge_finite_geometry_is_refused_not_misread(tmp_path, capsys):
    # a disk of radius 1e78 or 1e100 has a finite area, but r^alpha
    # overflows at alpha = 4 (at 1e77, m r^alpha does for m = 2.5): both
    # analytic engines exit 3 rather than read the far interferers as
    # silent (an outage of 1) or crash. At 1e200 the area itself overflows
    # and every engine exits 2. The engines that need no path loss at the
    # rim keep their numbers at 1e100, and at 1e40, where the closed form's
    # weight overflows, the series engine's quadrature gives the noise-only
    # outage.
    def run(radius, method, m=1):
        raw = _base_raw(region={"type": "disk", "params": {"radius": radius}},
                        m=m, mc={"trials": 4000})
        out = tmp_path / "o.csv"
        rc = main(["run", "--scenario", _write(tmp_path, raw), "--out",
                   str(out), "--method", method])
        err = capsys.readouterr().err
        assert "Traceback" not in err
        return rc, err, out

    for radius, m in ((1e77, 2.5), (1e78, 1), (1e100, 1)):
        for method in ("rlpg", "mgf"):
            rc, err, _ = run(radius, method, m)
            assert rc == 3 and "path loss" in err, (radius, method)
    for method in ("rlpg", "mgf", "mc", "ppp"):
        rc, err, _ = run(1e200, method)
        assert rc == 2 and "finite area" in err, method
    noise_only = -math.expm1(-1.0 / 100.0)
    rc, _, out = run(1e100, "ppp")
    assert rc == 0
    row = dict(zip(RUN_HEADER, _read_csv(str(out))[1]))
    assert float(row["outage"]) == float(format(noise_only, ".12g"))
    rc, _, out = run(1e100, "mc")
    assert rc == 0
    row = dict(zip(RUN_HEADER, _read_csv(str(out))[1]))
    assert abs(float(row["outage"]) - noise_only) \
        <= 3.0 * float(row["std_error"])
    rc, _, out = run(1e40, "rlpg", 2.5)
    assert rc == 0
    row = dict(zip(RUN_HEADER, _read_csv(str(out))[1]))
    assert abs(float(row["outage"]) - noise_only) < 1e-9


def test_overflowing_reference_path_loss_is_exit_three(tmp_path, capsys):
    # r0^alpha = 1e360 overflows: every engine that forms it exits 3 with
    # no traceback
    path = _write(tmp_path, _base_raw(r0=1e60, alpha=6.0,
                                      mc={"trials": 1000}))
    for method in ("mc", "rlpg", "mgf"):
        rc = main(["run", "--scenario", path, "--out",
                   str(tmp_path / "o.csv"), "--method", method])
        err = capsys.readouterr().err
        assert rc == 3 and "path loss" in err, method
        assert "Traceback" not in err


def test_underflowing_reference_path_loss_is_exit_three(tmp_path, capsys):
    # on a disk of radius 1e-100, r0^alpha = (5e-102)^4 underflows to 0:
    # every engine that forms it exits 3 with no traceback, while a disk of
    # radius 1e-30 with r0 = radius / 20 still runs
    def run(radius, method):
        raw = _base_raw(region={"type": "disk", "params": {"radius": radius}},
                        r0=radius / 20.0, M=1, mc={"trials": 1000})
        rc = main(["run", "--scenario", _write(tmp_path, raw), "--out",
                   str(tmp_path / "o.csv"), "--method", method])
        err = capsys.readouterr().err
        assert "Traceback" not in err
        return rc, err

    for method in ("mc", "rlpg", "mgf"):
        rc, err = run(1e-100, method)
        assert rc == 3 and "path loss r0^alpha" in err, method
    assert run(1e-30, "rlpg")[0] == 0


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
    # the mgf points of a sweep over M share the engine's held kernel,
    # which builds no region of its own
    calls.clear()
    path = _write(tmp_path, _mgf_rim_raw())
    assert main(["sweep", "--scenario", path, "--out", out, "--variable",
                 "M", "--values", "1,2,3", "--method", "mgf"]) == 0
    assert len(calls) == 3


# ----- sweeps -----

def test_parse_grid_syntaxes():
    assert parse_grid("0:100:5", "d") == [0.0, 25.0, 50.0, 75.0, 100.0]
    assert parse_grid("1,2,4", "M") == [1, 2, 4]
    assert parse_grid(" ", "d") == []
    assert parse_grid("3:3:1", "alpha") == [3.0]
    for bad in ("1:2", "1:2:3:4", "a,b", "0:1:0", "one:two:3",
                "0:1:1000000000000000"):
        with pytest.raises(ScenarioParseError):
            parse_grid(bad, "d")
    with pytest.raises(ScenarioParseError, match="integer"):
        parse_grid("1.5,2", "M")


def test_huge_db_values_are_infinite_not_an_overflow(tmp_path, capsys):
    # 10^(dB/10) overflows past about 3082.5 dB: an infinite beta is
    # refused, and an infinite rho0 is the noiseless link
    out = str(tmp_path / "o.csv")
    noiseless = outage_rlpg(replace(build_scenario(
        parse_scenario_config(_base_raw())), rho0=math.inf)).outage
    assert main(["run", "--scenario", _write(tmp_path, _base_raw(
        snr_db=4000.0)), "--out", out]) == 0
    assert dict(zip(*_read_csv(out)))["outage"] == f"{noiseless:.12g}"
    base = _write(tmp_path, _base_raw(), "base.json")
    assert main(["sweep", "--scenario", base, "--out", out,
                 "--variable", "snr_db", "--values", "4000"]) == 0
    assert _read_csv(out)[1][2] == f"{noiseless:.12g}"
    capsys.readouterr()
    assert main(["run", "--scenario", _write(tmp_path, _base_raw(
        beta_db=4000.0)), "--out", out]) == 2
    assert "beta must be positive and finite, got inf" in \
        capsys.readouterr().err
    assert main(["sweep", "--scenario", base, "--out", out,
                 "--variable", "beta_db", "--values", "4000"]) == 2
    assert "got inf" in capsys.readouterr().err


def test_integer_grids_refuse_non_finite_and_huge_values(tmp_path, capsys):
    for variable in ("M", "L"):
        for bad in ("nan", "inf", "-inf", "1,nan", "1e300", "0:1e300:2"):
            with pytest.raises(ScenarioParseError, match="integer"):
                parse_grid(bad, variable)
    for variable in ("M", "d"):
        with pytest.raises(ScenarioParseError, match="finite"):
            parse_grid("0:inf:2", variable)
        assert parse_grid(f"3,{2 ** 53}", variable) == [3, 2 ** 53]
    hexagon = _base_raw(region={"type": "regular_polygon",
                                "params": {"num_sides": 6,
                                           "circumradius": 50.0}},
                        receiver={"mode": "center"})
    for variable, raw in (("M", _base_raw()), ("L", hexagon)):
        for bad in ("nan", "inf"):
            rc = main(["sweep", "--scenario", _write(tmp_path, raw),
                       "--out", str(tmp_path / "o.csv"),
                       "--variable", variable, "--values", bad])
            assert rc == 2, (variable, bad)
            assert f"'{variable}'" in capsys.readouterr().err


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


def test_rlpg_maxm_on_a_large_disk(tmp_path):
    # about 16k interferers on a disk of radius 3000: the count scan runs
    # over tens of thousands of counts
    raw = _base_raw(region={"type": "disk", "params": {"radius": 3000.0}},
                    m0=2)
    out = tmp_path / "maxm.csv"
    assert main(["maxm", "--scenario", _write(tmp_path, raw), "--out",
                 str(out), "--target", "0.05", "--method", "rlpg"]) == 0
    cfg = parse_scenario_config(raw)
    sc = build_scenario(cfg)
    from finitenet import outage_rlpg_for_counts
    under, over = outage_rlpg_for_counts(sc, [15886, 15887])
    assert under <= 0.05 < over
    m_star, eps_star = cli._nearest_crossing(15886, under, over, 0.05)
    assert m_star == 15887
    expected = tmp_path / "expected.csv"
    cli.emit_csv([[scenario_fingerprint(cfg, sc), "rlpg", 0.05, m_star,
                   eps_star, True]], str(expected), MAXM_HEADER)
    assert out.read_bytes() == expected.read_bytes()


def test_rlpg_maxm_stops_at_the_count_cap(tmp_path, capsys, monkeypatch):
    # with the cap at 100 the crossing of this scenario, near 115, lies past
    # it: the doubling scan must stop at the cap rather than report it
    monkeypatch.setattr(cli, "_MAXM_CAP", 100)
    raw = _base_raw(region={"type": "disk", "params": {"radius": 330.0}})
    rc = main(["maxm", "--scenario", _write(tmp_path, raw), "--out",
               str(tmp_path / "o.csv"), "--target", "0.05",
               "--method", "rlpg"])
    assert rc == 3
    assert "exceeded 100 interferers" in capsys.readouterr().err


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
    eps = []
    while not eps or eps[-1] <= target:
        mgf._held_kernel = None
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


def test_mgf_beta_sweep_shares_the_held_kernel(tmp_path, monkeypatch):
    # beta_db keeps the kernel's key, so the points of a beta sweep share
    # one kernel with no code asking for it, and give the bytes of points
    # evaluated each with the slot emptied. beta scales every q (the
    # Bromwich nodes are s = beta (A + 2 pi i c) / 2), so no radial batch
    # repeats: what the points share is the kernel's tabulated pdf.
    raw = _mgf_rim_raw()
    batches = _radial_batches(monkeypatch)
    profiles, radii = [], []
    build = scenario_module.distance_profile

    def counting_profile(region, receiver):
        prof = build(region, receiver)
        profiles.append(prof)

        def pdf(r):
            radii.append(r.size)
            return prof.pdf(r)

        return replace(prof, pdf=pdf)

    monkeypatch.setattr(scenario_module, "distance_profile",
                        counting_profile)
    values = (0.0, 3.0)
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--scenario", _write(tmp_path, raw), "--out",
                 str(out), "--variable", "beta_db", "--values", "0,3",
                 "--method", "mgf"]) == 0
    shared = (len(profiles), sum(radii), len(batches))
    cfg = parse_scenario_config(raw)
    rows = []
    for log in (profiles, radii, batches):
        log.clear()
    for value in values:
        mgf._held_kernel = None
        point = apply_sweep_value(cfg, "beta_db", value)
        sc = build_scenario(point)
        rows.append([scenario_fingerprint(point, sc), value,
                     evaluate_scenario(point, sc, "mgf")[0]])
    expected = tmp_path / "expected.csv"
    cli.emit_csv(rows, str(expected), ["scenario", "beta_db", "outage_mgf"])
    assert out.read_bytes() == expected.read_bytes()
    assert shared[0] == 1 and len(profiles) == len(values)
    assert shared[1] < sum(radii)
    assert shared[2] == len(batches)


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
    # at width 1 the nodes run in order on this thread, so every point of
    # the sweep asks first for the same batch (the first Bromwich node on
    # the initial panels); its one computation fails on the first point,
    # and the sweep stops there
    monkeypatch.setattr(scenario_module, "_CPU_WORKERS", 1)
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
    # the 20th batch belongs to a node past the first
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


def _cpu_bound(monkeypatch, width):
    """Pools of `width` threads and a process-wide bound of `width` calls."""
    monkeypatch.setattr(scenario_module, "_CPU_WORKERS", width)
    monkeypatch.setattr(scenario_module, "_CPU_SLOTS",
                        threading.BoundedSemaphore(width))


def _count_live(monkeypatch, targets, pause):
    """Wrap each (module, name) of targets so that its calls count as live
    while they run, after a sleep of `pause` seconds so that threads
    overlap; returns a one-item list holding the most calls live at once."""
    lock = threading.Lock()
    live = [0]
    peak = [0]

    def counted(fn):
        def wrapper(*args, **kwargs):
            with lock:
                live[0] += 1
                peak[0] = max(peak[0], live[0])
            try:
                time.sleep(pause)
                return fn(*args, **kwargs)
            finally:
                with lock:
                    live[0] -= 1
        return wrapper

    for module, name in targets:
        monkeypatch.setattr(module, name, counted(getattr(module, name)))
    return peak


def _peak_live_chunks(tmp_path, monkeypatch, trials, width):
    """Most chunks computing at once in a 4-point M sweep of `trials`
    trials per point, on a pool and a CPU bound of `width`."""
    _cpu_bound(monkeypatch, width)
    offsets = montecarlo._squared_offsets
    peak = _count_live(monkeypatch, [(montecarlo, "_squared_offsets")], 0.02)
    try:
        path = _write(tmp_path, _mc_raw(trials))
        assert main(["sweep", "--scenario", path,
                     "--out", str(tmp_path / "o.csv"), "--variable", "M",
                     "--values", "1,2,3,4", "--method", "mc"]) == 0
    finally:
        monkeypatch.setattr(montecarlo, "_squared_offsets", offsets)
    return peak[0]


def test_sweep_never_computes_more_chunks_at_once_than_the_width(
        tmp_path, monkeypatch):
    # the process-wide bound, which also covers callers that run estimates
    # from threads of their own, holds the chunks that compute at once to
    # the width
    peak = _peak_live_chunks(tmp_path, monkeypatch,
                             montecarlo.CHUNK_TRIALS + 1, 2)
    assert peak == 2


def test_sweep_runs_the_chunks_of_all_its_points_on_one_pool(
        tmp_path, monkeypatch):
    # one chunk per point: a point at a time would keep one chunk live, but
    # the sweep maps the chunks of every point through one pool of the width
    assert _peak_live_chunks(tmp_path, monkeypatch, 1000, 2) == 2
    # each row keeps the bytes of its point's own run, in grid order
    rows = _read_csv(str(tmp_path / "o.csv"))[1:]
    for row, count in zip(rows, (1, 2, 3, 4)):
        cells = _run_cells(tmp_path, dict(_mc_raw(1000), M=count), "mc")
        assert row == [cells[0], str(count), cells[1], cells[2]]


def test_sweep_runs_no_more_radial_integrals_at_once_than_the_width(
        tmp_path, monkeypatch):
    # a sweep evaluates its points in order on the calling thread, so the
    # only parallel work is each point's own transform-node pool
    width = 2
    _cpu_bound(monkeypatch, width)
    peak = _count_live(monkeypatch, [(mgf, "_radial_mixture_rows")], 0.001)
    assert main(["sweep", "--scenario", _write(tmp_path, _mgf_rim_raw()),
                 "--out", str(tmp_path / "o.csv"), "--variable", "d",
                 "--values", "40,60,80,100", "--method", "mgf"]) == 0
    assert peak[0] == width


def test_engines_on_caller_threads_share_one_cpu_bound(monkeypatch):
    # outage_mgf beside simulate_outage, then two outage_mgf calls, each
    # from a caller thread of its own: their radial batches and chunks
    # together never compute on more threads than the bound, and every
    # result is the serial call's, bit for bit
    width = 2
    _cpu_bound(monkeypatch, width)
    monkeypatch.setattr(montecarlo, "CHUNK_TRIALS", 1000)
    rim = build_scenario(parse_scenario_config(_mgf_rim_raw()))
    fig2 = make_fig2_region(100.0)
    vertex = replace(rim, region=fig2, receiver=fig2.vertices[1])
    runs = {"rim": lambda: outage_mgf(rim, rel_tol=1e-6),
            "vertex": lambda: outage_mgf(vertex, rel_tol=1e-6),
            "mc": lambda: simulate_outage(vertex, 40_000, 7)}
    serial = {}
    for name, run in runs.items():
        mgf._held_kernel = None
        serial[name] = run()
    peak = _count_live(monkeypatch, [(mgf, "_radial_mixture_rows"),
                                     (montecarlo, "_squared_offsets")], 0.002)
    for pair in (("rim", "mc"), ("rim", "vertex")):
        mgf._held_kernel = None
        peak[0] = 0
        got = {}
        threads = [threading.Thread(
            target=lambda name=name: got.update({name: runs[name]()}))
            for name in pair]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300)
            assert not t.is_alive()
        assert got == {name: serial[name] for name in pair}
        assert peak[0] == width, pair


def _run_cells(tmp_path, raw, method):
    """scenario, outage and std_error cells of `run --method method`."""
    out = tmp_path / "point.csv"
    assert main(["run", "--scenario", _write(tmp_path, raw, "point.json"),
                 "--out", str(out), "--method", method]) == 0
    row = dict(zip(RUN_HEADER, _read_csv(str(out))[1]))
    return row["scenario"], row["outage"], row["std_error"]


def test_sweep_rows_equal_per_point_runs(tmp_path):
    cases = (
        (_mgf_rim_raw(), "snr_db", ("10", "30"), ("mgf",)),
        (_mc_raw(montecarlo.CHUNK_TRIALS + 500), "d", ("0", "50", "100"),
         ("rlpg", "mc")),
    )
    for raw, variable, values, methods in cases:
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--scenario", _write(tmp_path, raw),
                     "--out", str(out), "--variable", variable,
                     "--values", ",".join(values),
                     "--method", ",".join(methods)]) == 0
        rows = _read_csv(str(out))[1:]
        assert [row[1] for row in rows] == list(values)
        for row, value in zip(rows, values):
            if variable == "d":
                point = dict(raw, receiver={"mode": "disk_offset_d",
                                            "d": float(value)})
            else:
                point = dict(raw, **{variable: float(value)})
            cells = [_run_cells(tmp_path, point, m) for m in methods]
            expected = [cells[0][0], value] + [c[1] for c in cells]
            if "mc" in methods:
                expected.append(cells[methods.index("mc")][2])
            assert row == expected, (variable, value)
