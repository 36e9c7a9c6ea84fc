"""Scenario schema, deterministic serialization, run directories, and the
command-line surface.

Everything here leans on two properties the rest of the suite assumes:
strict schema validation (unknown keys are spelled out by dotted path) and
bitwise-reproducible output files (%.17g floats, sorted keys, no wall-clock
content outside the run manifest).
"""

import json

import numpy as np
import pytest

from tiny_configs import tiny_cfg_with, tiny_static_cfg
from rhflow import persistence
from rhflow.cli import main
from rhflow.persistence import HashMismatchError, dumps, load_run, save_run
from rhflow.scenarios import (
    bundled_names,
    load_scenario,
    parse_scenario,
    refine_scenario,
    run_scenario,
)

BUNDLED = {
    "heat_kernel_largetorus",
    "rh_perturbed_2d",
    "static_eigenmode",
    "warped_mu0",
    "warped_muneg",
}


# ---------------------------------------------------------------------------
# schema


def test_unknown_keys_rejected_with_dotted_path():
    with pytest.raises(ValueError, match="unknown field 'colour'"):
        parse_scenario(tiny_cfg_with(colour="red"))
    cfg = tiny_static_cfg()
    cfg["grid"]["spacing"] = 0.1
    with pytest.raises(ValueError, match="unknown field 'grid.spacing'"):
        parse_scenario(cfg)
    cfg = tiny_static_cfg()
    cfg["initial"]["u"]["phase"] = 1.0
    with pytest.raises(ValueError, match="unknown field 'initial.u.phase'"):
        parse_scenario(cfg)


def test_missing_keys_rejected_with_dotted_path():
    cfg = tiny_static_cfg()
    del cfg["initial"]["u"]
    with pytest.raises(ValueError, match="missing required field 'initial.u'"):
        parse_scenario(cfg)
    cfg = tiny_static_cfg()
    del cfg["time"]["dt_sub"]
    with pytest.raises(ValueError, match="missing required field 'time.dt_sub'"):
        parse_scenario(cfg)


def test_time_validation():
    with pytest.raises(ValueError, match="t_end must exceed"):
        parse_scenario(tiny_cfg_with(time={"t_start": 0.1, "t_end": 0.1,
                                           "dt_sub": 1e-4, "snapshot_stride": 10}))
    with pytest.raises(ValueError, match="dt_sub must be positive"):
        parse_scenario(tiny_cfg_with(time={"t_end": 0.1, "dt_sub": 0.0,
                                           "snapshot_stride": 10}))
    with pytest.raises(ValueError, match="integer multiple"):
        parse_scenario(tiny_cfg_with(time={"t_end": 0.0015, "dt_sub": 1e-4,
                                           "snapshot_stride": 10}))
    with pytest.raises(ValueError, match="positive integer"):
        parse_scenario(tiny_cfg_with(time={"t_end": 0.001, "dt_sub": 1e-4,
                                           "snapshot_stride": 0}))


def test_stability_rejected_at_load_time():
    # dt_sub far above c_stab h^2: refuse before any stepping happens
    with pytest.raises(ValueError, match="stability bound"):
        parse_scenario(tiny_cfg_with(time={"t_end": 0.1, "dt_sub": 0.01,
                                           "snapshot_stride": 10}))
    try:
        parse_scenario(tiny_cfg_with(time={"t_end": 0.1, "dt_sub": 0.01,
                                           "snapshot_stride": 10}))
    except ValueError as exc:
        limit = 0.2 * (1.0 / 32) ** 2
        assert f"{limit:g}" in str(exc)


def test_method_and_variant_validation():
    with pytest.raises(ValueError, match="method"):
        parse_scenario(tiny_cfg_with(method="leapfrog"))
    cfg = tiny_cfg_with(variant={"kind": "warped_product", "m": 1})
    cfg["initial"]["phi"] = {"components": [{"type": "constant", "value": 0.0},
                                            {"type": "constant", "value": 1.0}]}
    with pytest.raises(ValueError, match="single-component"):
        parse_scenario(cfg)
    cfg = tiny_static_cfg()
    cfg["initial"]["phi"] = {"components": []}
    with pytest.raises(ValueError, match="must not be empty"):
        parse_scenario(cfg)


# ---------------------------------------------------------------------------
# profiles


def test_constant_and_sine_profiles():
    sc = parse_scenario(tiny_static_cfg())
    snap = sc.initial_snapshot()
    x = sc.grid.coords()[0]
    np.testing.assert_allclose(snap.u, 2.0 + np.sin(2.0 * np.pi * x), atol=1e-15)
    assert np.all(snap.phi == 0.0)  # defaulted constant map


def test_heat_kernel_profile_mass_and_floor():
    cfg = tiny_cfg_with(initial={
        "metric": {"type": "flat"},
        "u": {"type": "heat_kernel", "t0": 0.004, "center": [0.5],
              "floor": 1e-4, "images": 4},
    }, time={"t_start": 0.004, "t_end": 0.004 + 1e-3, "dt_sub": 1e-4,
             "snapshot_stride": 10})
    sc = parse_scenario(cfg)
    snap = sc.initial_snapshot()
    assert np.min(snap.u) >= 1e-4
    # periodized Gaussian integrates to one; the floor adds floor * length
    mass = sc.grid.integrate(snap.u)
    assert np.isclose(mass, 1.0 + 1e-4 * 1.0, rtol=1e-6)
    # peak sits at the center node
    peak = np.argmax(snap.u)
    assert np.isclose(sc.grid.coords()[0][peak], 0.5)


def test_heat_kernel_validation():
    bad = tiny_cfg_with(initial={"metric": {"type": "flat"},
                                 "u": {"type": "heat_kernel", "t0": 0.0}})
    with pytest.raises(ValueError, match="t0 must be positive"):
        parse_scenario(bad).initial_snapshot()


def test_random_fourier_seed_determinism():
    base = tiny_cfg_with(seed=7, initial={
        "metric": {"type": "flat"},
        "u": {"type": "random_fourier", "offset": 3.0, "amplitude": 0.1,
              "n_modes": 4},
    })
    u1 = parse_scenario(base).initial_snapshot().u
    u2 = parse_scenario(json.loads(json.dumps(base))).initial_snapshot().u
    assert np.array_equal(u1, u2)
    other = parse_scenario(tiny_cfg_with(seed=8, initial=base["initial"]))
    assert not np.array_equal(u1, other.initial_snapshot().u)


def test_random_fourier_requires_seed():
    cfg = tiny_cfg_with(initial={
        "metric": {"type": "flat"},
        "u": {"type": "random_fourier", "offset": 3.0, "n_modes": 2},
    })
    with pytest.raises(ValueError, match="needs a scenario seed"):
        parse_scenario(cfg).initial_snapshot()


def test_unknown_profile_type():
    cfg = tiny_cfg_with(initial={"metric": {"type": "flat"},
                                 "u": {"type": "bump"}})
    with pytest.raises(ValueError, match="'constant', 'sine_sum'"):
        parse_scenario(cfg).initial_snapshot()


def test_conformal_metric_profile():
    cfg = tiny_cfg_with(initial={
        "metric": {"type": "conformal", "amplitude": 0.1,
                   "terms": [{"coeff": 1.0,
                              "factors": [{"axis": 0, "fn": "cos", "k": 1}]}]},
        "u": {"type": "constant", "value": 1.0},
    }, time={"t_end": 0.001, "dt_sub": 1e-5, "snapshot_stride": 10})
    snap = parse_scenario(cfg).initial_snapshot()
    grid = parse_scenario(cfg).grid
    x = grid.coords()[0]
    w = 0.1 * np.cos(2.0 * np.pi * x)
    np.testing.assert_allclose(snap.g[..., 0, 0], np.exp(2.0 * w), atol=1e-15)


# ---------------------------------------------------------------------------
# loading and refinement


def test_bundled_names_catalog():
    assert set(bundled_names()) == BUNDLED


def test_load_scenario_three_ways(tmp_path):
    by_dict = load_scenario(tiny_static_cfg())
    assert by_dict.name == "tiny"
    by_name = load_scenario("static_eigenmode")
    assert by_name.grid.n_points == (128,)
    p = tmp_path / "mine.json"
    p.write_text(json.dumps(tiny_static_cfg()))
    assert load_scenario(str(p)).name == "tiny"
    with pytest.raises(FileNotFoundError, match="static_eigenmode"):
        load_scenario("no_such_scenario")


def test_refine_scenario_arithmetic():
    cfg = tiny_static_cfg()
    fine = refine_scenario(cfg, factor=2)
    assert fine["name"] == "tiny_refined2"
    assert fine["grid"]["n_points"] == [64]
    assert fine["time"]["dt_sub"] == 1e-4 / 4
    assert fine["time"]["snapshot_stride"] == 20
    # snapshot spacing halves, so the original times land on even indices
    orig = run_scenario(load_scenario(cfg))
    ref = run_scenario(load_scenario(fine))
    assert len(ref.snapshots) == 2 * len(orig.snapshots) - 1
    np.testing.assert_allclose(orig.times, ref.times[::2], atol=1e-15)
    with pytest.raises(ValueError, match="factor"):
        refine_scenario(cfg, factor=1)


# ---------------------------------------------------------------------------
# serialization


def test_dumps_sorted_keys_and_float_format():
    assert dumps({"b": 1, "a": 2}) == '{"a":2,"b":1}'
    assert dumps(2.0) == "2.0"
    assert dumps(0.1) == "0.10000000000000001"
    assert dumps(True) == "true"
    assert dumps(None) == "null"
    assert dumps(np.array([1.0, 0.5])) == "[1.0,0.5]"
    assert dumps(np.float64(1.5)) == "1.5"
    assert dumps(np.int32(3)) == "3"
    with pytest.raises(ValueError, match="non-finite"):
        dumps(float("nan"))
    with pytest.raises(TypeError):
        dumps(object())


def test_dumps_round_trips_through_json():
    obj = {"x": 0.1, "y": [1.0, 2.5e-17], "z": {"ok": True, "note": None}}
    back = json.loads(dumps(obj))
    assert back["x"] == 0.1 and back["y"][1] == 2.5e-17
    assert back["z"]["ok"] is True and back["z"]["note"] is None


def test_save_load_round_trip(tmp_path):
    traj = run_scenario(load_scenario(tiny_static_cfg()))
    out = tmp_path / "run"
    save_run(traj, out)
    back = load_run(out)
    assert len(back.snapshots) == len(traj.snapshots)
    for a, b in zip(traj.snapshots, back.snapshots):
        assert np.array_equal(a.g, b.g)
        assert np.array_equal(a.phi, b.phi)
        assert np.array_equal(a.u, b.u)
        assert a.t == b.t
    assert back.variant.kind == "static"
    assert back.scenario == traj.scenario
    assert back.dt == traj.dt and back.dt_sub == traj.dt_sub
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["format_version"] == persistence.FORMAT_VERSION
    assert "wall_time_s" in manifest
    assert set(manifest["files"]) == {"meta.json"} | {
        f"snap_{i:05d}.json" for i in range(len(traj.snapshots))
    }


def test_save_run_overwrite_guard(tmp_path):
    traj = run_scenario(load_scenario(tiny_static_cfg()))
    out = tmp_path / "run"
    save_run(traj, out)
    with pytest.raises(FileExistsError, match="overwrite"):
        save_run(traj, out)
    save_run(traj, out, overwrite=True)  # fine


def test_tampered_run_detected(tmp_path):
    traj = run_scenario(load_scenario(tiny_static_cfg()))
    out = tmp_path / "run"
    save_run(traj, out)
    target = out / "snap_00002.json"
    target.write_text(target.read_text().replace("2", "3", 1))
    with pytest.raises(HashMismatchError, match="manifest says"):
        load_run(out)
    # verification can be waived explicitly
    load_run(out, verify=False)


def test_u_only_runs_do_not_reload(tmp_path):
    traj = run_scenario(load_scenario(tiny_static_cfg()))
    full = tmp_path / "full"
    lean = tmp_path / "lean"
    save_run(traj, full)
    save_run(traj, lean, full_fields=False)
    with pytest.raises(ValueError, match="u-only"):
        load_run(lean)
    size_full = (full / "snap_00001.json").stat().st_size
    size_lean = (lean / "snap_00001.json").stat().st_size
    assert size_lean < size_full


def test_missing_manifest(tmp_path):
    with pytest.raises(FileNotFoundError, match="manifest"):
        load_run(tmp_path)


def test_save_report_and_plotdata(tmp_path, eigenmode_run):
    from rhflow import estimates as est

    rep = est.check_global(eigenmode_run)
    paths = persistence.save_report(rep, tmp_path, "global")
    assert (tmp_path / "global.json").exists()
    assert (tmp_path / "global.csv").exists()
    summary = json.loads((tmp_path / "global.json").read_text())
    assert summary["theorem"] == "global" and summary["ok"] is True
    header = (tmp_path / "global.csv").read_text().splitlines()[0]
    assert header.split(",")[0] == "t"
    plot = persistence.save_plotdata(rep, tmp_path, "global")
    assert plot["margin_timeline"].exists()
    lines = plot["worst_node"].read_text().splitlines()
    assert lines[0] == "t,lhs,rhs"
    assert len(lines) == len(rep.times) + 1
    assert paths["json"].name == "global.json"


# ---------------------------------------------------------------------------
# command line


def write_cfg(tmp_path, cfg, name="scenario.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


def test_cli_run_and_check_roundtrip(tmp_path, capsys):
    src = write_cfg(tmp_path, tiny_static_cfg())
    rundir = tmp_path / "rundir"
    assert main(["run", src, "--out", str(rundir)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["completed"] is True and out["n_snapshots"] == 5
    assert (rundir / "manifest.json").exists()

    assert main(["check", str(rundir), "--which", "global",
                 "--out", str(tmp_path / "chk")]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["ok"] is True
    assert "global.json" in summary["report_files"]
    assert (tmp_path / "chk" / "reports" / "global.json").exists()


def test_cli_check_is_byte_deterministic(tmp_path, capsys):
    src = write_cfg(tmp_path, tiny_static_cfg())
    rundir = tmp_path / "rundir"
    assert main(["run", src, "--out", str(rundir)]) == 0
    capsys.readouterr()
    for d in ("a", "b"):
        assert main(["check", str(rundir), "--which", "global",
                     "--out", str(tmp_path / d)]) == 0
    capsys.readouterr()
    for fname in ("global.json", "global.csv"):
        a = (tmp_path / "a" / "reports" / fname).read_bytes()
        b = (tmp_path / "b" / "reports" / fname).read_bytes()
        assert a == b, fname


def test_cli_report_emits_plot_series(tmp_path, capsys):
    src = write_cfg(tmp_path, tiny_static_cfg())
    rundir = tmp_path / "rundir"
    assert main(["run", src, "--out", str(rundir)]) == 0
    capsys.readouterr()
    assert main(["report", str(rundir), "--which", "global",
                 "--out", str(tmp_path / "rep")]) == 0
    capsys.readouterr()
    reports = tmp_path / "rep" / "reports"
    assert (reports / "global_margin_timeline.csv").exists()
    assert (reports / "global_worst_node.csv").exists()


def test_cli_local_fits_in_sample_when_no_cprime(tmp_path, capsys):
    src = write_cfg(tmp_path, tiny_static_cfg())
    assert main(["check", src, "--which", "local", "--rho", "0.25",
                 "--out", str(tmp_path / "loc")]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["ok"] is True
    assert summary["notes"]["cprime_fitted_in_sample"] is True
    assert summary["notes"]["x0"] == [16]  # center node default


def test_cli_usage_errors_exit_2(tmp_path, capsys):
    assert main(["check", "no_such_scenario", "--which", "global"]) == 2
    err = json.loads(capsys.readouterr().out)
    assert err["ok"] is False and "static_eigenmode" in err["error"]

    src = write_cfg(tmp_path, tiny_static_cfg())
    assert main(["check", src, "--which", "local"]) == 2
    err = json.loads(capsys.readouterr().out)
    assert "--rho" in err["error"]

    bad = write_cfg(tmp_path, tiny_cfg_with(colour="red"), "bad.json")
    assert main(["check", bad, "--which", "global"]) == 2
    err = json.loads(capsys.readouterr().out)
    assert "unknown field 'colour'" in err["error"]

    assert main(["check", "--which", "global"]) == 2
    err = json.loads(capsys.readouterr().out)
    assert "needs a scenario or run directory" in err["error"]


def test_cli_failed_run_exits_1(tmp_path, capsys):
    blowup = {
        "name": "blowup",
        "grid": {"dim": 1, "n_points": [16], "lengths": [1.0]},
        "variant": {"kind": "warped_product", "m": 1, "mu": 20.0},
        "alpha": {"alpha0": 1.0},
        "initial": {
            "metric": {"type": "flat"},
            "phi": {"components": [{"type": "constant", "value": -1.0}]},
            "u": {"type": "constant", "value": 1.0},
        },
        "time": {"t_start": 0.0, "t_end": 0.05, "dt_sub": 5e-4,
                 "snapshot_stride": 10},
    }
    src = write_cfg(tmp_path, blowup, "blowup.json")
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(["run", src, "--out", str(tmp_path / "out")])
    assert code == 1
    out = json.loads(capsys.readouterr().out)
    assert out["completed"] is False and "non-finite" in out["halt_reason"]


def test_cli_empty_gate_exits_1(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("RHFLOW_OUTPUT_ROOT", str(tmp_path))
    code = main(["check", "rh_perturbed_2d", "--which", "harnack",
                 "--mode", "compact"])
    assert code == 1
    err = json.loads(capsys.readouterr().out)
    assert "empty hypothesis gate" in err["error"]
    assert "nonnegative Ricci" in err["error"]


def test_cli_cutoff_needs_no_source(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("RHFLOW_OUTPUT_ROOT", str(tmp_path))
    assert main(["check", "--which", "cutoff", "--lattice", "64"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["ok"] is True
    assert (tmp_path / "cutoff" / "reports" / "cutoff.json").exists()


def test_cli_output_root_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("RHFLOW_OUTPUT_ROOT", str(tmp_path / "root"))
    src = write_cfg(tmp_path, tiny_static_cfg())
    assert main(["run", src]) == 0
    capsys.readouterr()
    assert (tmp_path / "root" / "tiny" / "manifest.json").exists()


def test_cli_seed_override(tmp_path, capsys):
    cfg = tiny_cfg_with(seed=3, initial={
        "metric": {"type": "flat"},
        "u": {"type": "random_fourier", "offset": 3.0, "amplitude": 0.05,
              "n_modes": 3},
    })
    src = write_cfg(tmp_path, cfg)
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    assert main(["run", src, "--out", str(a)]) == 0
    assert main(["run", src, "--out", str(b), "--seed", "3"]) == 0
    assert main(["run", src, "--out", str(c), "--seed", "4"]) == 0
    capsys.readouterr()
    ua = json.loads((a / "snap_00000.json").read_text())["u"]
    ub = json.loads((b / "snap_00000.json").read_text())["u"]
    uc = json.loads((c / "snap_00000.json").read_text())["u"]
    assert ua == ub
    assert ua != uc


def _run_exit_2(tmp_path, capsys, cfg) -> str:
    """Run a bad scenario through the CLI; it must exit 2 with a JSON error."""
    src = write_cfg(tmp_path, cfg, "bad.json")
    assert main(["run", src, "--out", str(tmp_path / "out")]) == 2
    err = json.loads(capsys.readouterr().out)
    assert err["ok"] is False
    return err["error"]


def test_cli_non_finite_alpha_is_a_config_error(tmp_path, capsys):
    error = _run_exit_2(tmp_path, capsys, tiny_cfg_with(alpha={"alpha0": "nan"}))
    assert "alpha.alpha0" in error and "finite" in error
    error = _run_exit_2(tmp_path, capsys, tiny_cfg_with(alpha={"alpha0": 1.0, "rate": "inf"}))
    assert "alpha.rate" in error


def test_cli_scalar_n_points_is_a_config_error(tmp_path, capsys):
    cfg = tiny_cfg_with(grid={"dim": 1, "n_points": 64, "lengths": [1.0]})
    assert "grid.n_points" in _run_exit_2(tmp_path, capsys, cfg)


def test_cli_non_positive_initial_u_is_a_config_error(tmp_path, capsys):
    cfg = tiny_static_cfg()
    cfg["initial"]["u"]["offset"] = -2.0
    error = _run_exit_2(tmp_path, capsys, cfg)
    assert "initial.u" in error and "positive" in error


def test_cli_non_finite_initial_map_is_a_config_error(tmp_path, capsys):
    cfg = tiny_static_cfg()
    cfg["initial"]["phi"] = {"components": [{"type": "constant", "value": "nan"}]}
    assert "initial.phi" in _run_exit_2(tmp_path, capsys, cfg)


def test_schedule_and_variant_reject_non_finite_values():
    from rhflow.flow import AlphaSchedule, FlowVariant

    for kwargs in ({"alpha0": float("nan")}, {"alpha0": 1.0, "alpha_bar": float("nan")},
                   {"alpha0": 1.0, "rate": float("inf")}):
        with pytest.raises(ValueError, match="finite"):
            AlphaSchedule(**kwargs)
    with pytest.raises(ValueError, match="mu must be finite"):
        FlowVariant("warped_product", mu=float("nan"))
