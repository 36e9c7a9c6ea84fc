"""Scenario schema, deterministic serialization, run directories, and the
command-line surface.

Everything here leans on two properties the rest of the suite assumes:
strict schema validation (unknown keys are spelled out by dotted path) and
bitwise-reproducible output files (%.17g floats, sorted keys, no wall-clock
content outside the run manifest).
"""

import argparse
import contextlib
import hashlib
import inspect
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tiny_configs import short_coupled_scenario, tiny_cfg_with, tiny_static_cfg
from rhflow import cli, persistence
from rhflow.cli import main
from rhflow.flow import Snapshot
from rhflow.persistence import HashMismatchError, dumps, load_run, save_run
from rhflow.scenarios import (
    IMAGES_LIMIT,
    bundled_names,
    load_scenario,
    parse_scenario,
    refine_scenario,
    run_scenario,
)

# a format-1 run directory of tiny_static_cfg, written before the v1 writer
# was removed; it pins that such directories are refused
V1_RUN = Path(__file__).parent / "data" / "run_v1_tiny"

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
    # the rule is flow.snapshot_count's; the scenario names its section
    with pytest.raises(ValueError, match="^time: .*integer multiple"):
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
    assert "wall_time_s" not in manifest  # nothing that differs between saves
    assert set(manifest["files"]) == {"meta.json", "u.npy", "g.npy", "phi.npy"}


def test_two_saves_of_one_trajectory_are_byte_identical(tmp_path):
    traj = run_scenario(load_scenario(tiny_static_cfg()))
    a, b = save_run(traj, tmp_path / "a"), save_run(traj, tmp_path / "b")
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    assert "manifest.json" in names
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


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
    target = out / "u.npy"
    data = bytearray(target.read_bytes())
    data[-8] ^= 1  # lowest mantissa bit of the last stored double
    target.write_bytes(bytes(data))
    with pytest.raises(HashMismatchError, match="manifest says"):
        load_run(out)
    # the tampered file is still a readable run: only its digest gives it away
    rehash(out)
    load_run(out)


def test_u_only_runs_do_not_reload(tmp_path):
    # earlier versions could save u alone; such a directory is refused, not
    # half read.  It is built by hand: save_run always writes every field
    lean = tmp_path / "lean"
    save_run(run_scenario(load_scenario(tiny_static_cfg())), lean)
    meta = json.loads((lean / "meta.json").read_text())
    meta["fields_saved"] = ["u"]
    (lean / "meta.json").write_text(dumps(meta))
    for name in ("g.npy", "phi.npy"):
        (lean / name).unlink()
        edit_manifest_files(lean, lambda files: files.pop(name))
    rehash(lean)
    with pytest.raises(ValueError, match="u-only"):
        load_run(lean)


def test_missing_manifest(tmp_path):
    with pytest.raises(FileNotFoundError, match="manifest"):
        load_run(tmp_path)


def rehash(run_dir):
    """Regenerate a run's manifest digests to match its files as they are."""
    path = run_dir / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["files"] = {
        name: hashlib.sha256((run_dir / name).read_bytes()).hexdigest()
        for name in manifest["files"]
    }
    path.write_text(dumps(manifest))


def edit_manifest_files(run_dir, edit):
    path = run_dir / "manifest.json"
    manifest = json.loads(path.read_text())
    edit(manifest["files"])
    path.write_text(dumps(manifest))


def assert_same_snapshots(a, b):
    assert len(a.snapshots) == len(b.snapshots)
    for sa, sb in zip(a.snapshots, b.snapshots):
        assert sa.t == sb.t
        for name in ("g", "phi", "u"):
            assert np.array_equal(getattr(sa, name), getattr(sb, name)), name


def test_saves_of_one_trajectory_have_identical_digests(tmp_path):
    traj = run_scenario(load_scenario(tiny_static_cfg()))
    save_run(traj, tmp_path / "a")
    save_run(traj, tmp_path / "b")
    digests = [json.loads((tmp_path / d / "manifest.json").read_text())["files"]
               for d in ("a", "b")]
    assert digests[0] == digests[1]


def test_v1_run_directory_is_refused(tmp_path, capsys):
    assert json.loads((V1_RUN / "meta.json").read_text())["format_version"] == 1
    with pytest.raises(ValueError, match="meta.json: format_version 1 .*run the scenario"):
        load_run(V1_RUN)
    error = _check_exit_2(tmp_path, capsys, V1_RUN)
    assert "meta.json" in error and "format_version 1" in error and "scenario" in error


def test_manifest_with_a_wall_time_still_loads(tmp_path):
    # manifests written before two saves were byte-identical carry the
    # save's wall time, which loading checks and ignores
    traj = run_scenario(load_scenario(tiny_static_cfg()))
    out = save_run(traj, tmp_path / "run")
    path = out / "manifest.json"
    path.write_text(dumps({**json.loads(path.read_text()), "wall_time_s": 0.002}))
    assert_same_snapshots(load_run(out), traj)


def test_manifest_must_list_every_file_read(tmp_path):
    traj = run_scenario(load_scenario(tiny_static_cfg()))
    out = tmp_path / "run"
    save_run(traj, out)
    edit_manifest_files(out, lambda files: files.clear())
    with pytest.raises(HashMismatchError, match="meta.json: not listed"):
        load_run(out)

    save_run(traj, out, overwrite=True)
    edit_manifest_files(out, lambda files: files.pop("g.npy"))
    with pytest.raises(HashMismatchError, match="g.npy: not listed"):
        load_run(out)

    # names in the manifest are never opened: only the format's own files are
    save_run(traj, out, overwrite=True)
    edit_manifest_files(out, lambda files: files.update({"../elsewhere.json": "0" * 64}))
    load_run(out)


def test_save_rejects_non_finite_fields(tmp_path):
    traj = run_scenario(load_scenario(tiny_static_cfg()))
    out = tmp_path / "run"
    save_run(traj, out)
    s = traj.snapshots[3]
    bad = Snapshot(s.t, s.g, s.phi.copy(), s.u, s.metric)
    bad.phi[0, 0] = np.nan
    traj.snapshots[3] = bad
    with pytest.raises(ValueError, match="non-finite phi at snapshot 3"):
        save_run(traj, out, overwrite=True)
    load_run(out)  # the failed save left the old run in place


def test_interrupted_overwrite_reads_as_incomplete(tmp_path, monkeypatch):
    traj = run_scenario(load_scenario(tiny_static_cfg()))
    out = tmp_path / "run"
    save_run(traj, out)
    write = persistence._write

    def disk_full_at_g(path, parts):
        if path.name == "g.npy":
            raise OSError("no space left on device")
        return write(path, parts)

    monkeypatch.setattr(persistence, "_write", disk_full_at_g)
    with pytest.raises(OSError, match="no space"):
        save_run(traj, out, overwrite=True)
    with pytest.raises(FileNotFoundError, match="incomplete"):
        load_run(out)


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


def assert_argparse_refusal(capsys, argv, message):
    """argv is refused by argparse itself: exit 2 and a JSON error on stdout
    naming the problem, with nothing on stderr (no usage text)."""
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert err == ""
    assert json.loads(out) == {"ok": False, "error": message}


def test_cli_mistyped_number_is_a_json_refusal(capsys):
    assert_argparse_refusal(capsys, ["check", "--which", "cutoff", "--substeps", "2.5"],
                            "argument --substeps: invalid int value: '2.5'")


def test_cli_unknown_flag_is_a_json_refusal(capsys):
    assert_argparse_refusal(capsys, ["check", "--which", "cutoff", "--bogus"],
                            "unrecognized arguments: --bogus")


def test_cli_missing_which_is_a_json_refusal(capsys):
    assert_argparse_refusal(capsys, ["check", "static_eigenmode"],
                            "the following arguments are required: --which")


def test_cli_mode_outside_its_choices_is_a_json_refusal(capsys):
    assert_argparse_refusal(
        capsys, ["check", "static_eigenmode", "--which", "harnack", "--mode", "bogus"],
        "argument --mode: invalid choice: 'bogus' (choose from 'compact', 'complete')")


def test_cli_run_method_outside_its_choices_is_a_json_refusal(capsys):
    assert_argparse_refusal(
        capsys, ["run", "static_eigenmode", "--method", "x"],
        "argument --method: invalid choice: 'x' (choose from 'euler', 'rk2')")


def test_cli_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "--help"])
    assert exc.value.code == 0
    out, err = capsys.readouterr()
    assert out.startswith("usage: rhflow check") and err == ""


@pytest.mark.filterwarnings("error")  # pytest would keep a warning out of err
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
    code = main(["run", src, "--out", str(tmp_path / "out")])
    out, err = capsys.readouterr()
    assert code == 1 and err == ""  # the halt reason alone reports the overflow
    out = json.loads(out)
    assert out["completed"] is False and "non-finite" in out["halt_reason"]


@pytest.mark.filterwarnings("error")  # pytest would keep a warning out of err
def test_cli_run_halted_before_its_first_stored_time(tmp_path, capsys):
    # phi jumps to about 1e297 in the first substep, so the metric overflows
    # in the second (t = 0.005), before the first stored time t = 0.01
    cfg = json.loads(json.dumps(load_scenario("warped_muneg").raw))
    cfg["variant"]["mu"] = -1e300
    src = write_cfg(tmp_path, cfg, "halted.json")
    run_dir = tmp_path / "run"
    assert main(["run", src, "--out", str(run_dir)]) == 1
    out, err = capsys.readouterr()
    assert err == ""  # no numpy RuntimeWarning before the halt is reported
    out = json.loads(out)
    assert out["n_snapshots"] == 1
    reason = out["halt_reason"]
    assert "metric has non-finite entries at node (0, 1): [[inf, " in reason
    assert reason.endswith("(halted at t=0.005)")
    assert json.loads((run_dir / "meta.json").read_text())["halt_reason"] == reason
    # the default Harnack pairs need a positive stored time: exit 2 with a
    # message, as the other checks do on too short a run
    errors = {}
    for which in ("global", "harnack"):
        code = main(["check", str(run_dir), "--which", which, "--out", str(tmp_path / "c")])
        out, err = capsys.readouterr()
        assert code == 2 and err == ""
        errors[which] = json.loads(out)["error"]
    assert errors["global"].startswith("need at least 3 snapshots")
    assert errors["harnack"] == ("the default Harnack pairs need a stored snapshot at "
                                 "t > 0, and the run's last is at t=0")


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


@pytest.mark.parametrize("lattice", ["0", "1", "-3", str(10**9)])
def test_cli_lattice_outside_its_range_exits_2(tmp_path, capsys, lattice):
    tracemalloc.start()
    try:
        code = main(["check", "--which", "cutoff", "--lattice", lattice,
                     "--out", str(tmp_path)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    err = json.loads(capsys.readouterr().out)["error"]
    assert err.startswith("--lattice: ") and lattice in err
    assert peak < 2**20  # refused before any lattice field was allocated
    assert not (tmp_path / "reports").exists()


# every numeric flag out of its range: (flag, which and extra arguments)
BAD_NUMBERS = [
    ("--beta", ["global", "--beta", "0"]),
    ("--beta", ["global", "--beta", "-1"]),
    ("--beta", ["global", "--beta", "nan"]),
    ("--beta", ["evolution", "--beta", "0"]),
    ("--beta", ["local", "--rho", "0.5", "--beta", "1"]),
    ("--beta", ["harnack", "--mode", "complete", "--beta", "1"]),
    ("--beta", ["harnack", "--beta", "inf"]),
    ("--rho", ["local", "--rho", "0"]),
    ("--rho", ["local", "--rho", "-1"]),
    ("--rho", ["local", "--rho", "nan"]),
    ("--rho", ["cutoff", "--rho", "0"]),
    ("--rho", ["cutoff", "--rho", "inf"]),
    ("--tau", ["cutoff", "--tau", "0"]),
    ("--tau", ["cutoff", "--tau", "nan"]),
    ("--c-tol", ["global", "--c-tol", "nan"]),
    ("--c-tol", ["identities", "--c-tol", "inf"]),
    ("--c-tol", ["identities", "--c-tol=-1"]),
    ("--tol-eig", ["global", "--tol-eig", "nan"]),
    ("--cprime", ["local", "--rho", "0.5", "--cprime", "0"]),
    ("--cprime", ["harnack", "--mode", "complete", "--cprime", "nan"]),
    ("--cprime-sq", ["local", "--rho", "0.5", "--cprime-sq", "-2"]),
    ("--a", ["evolution", "--a", "nan"]),
    ("--b", ["evolution", "--b", "0"]),
    ("--x0", ["local", "--rho", "0.5", "--x0", "1,x"]),
    ("--rho", ["cutoff", "--rho", "1e200"]),  # rho^2 overflows
    ("--rho", ["local", "--rho", "1e-300"]),  # rho^2 underflows to 0
    ("--rho", ["local", "--rho", "1e308"]),  # rho^2 overflows
    ("--tau", ["cutoff", "--tau", "1e-200"]),  # tau^2 underflows
]


def refuse_load(source):
    raise AssertionError("the run was loaded")


@pytest.mark.parametrize("flag, argv", BAD_NUMBERS)
def test_cli_numbers_outside_their_range_exit_2_before_loading(monkeypatch, tmp_path,
                                                               capsys, flag, argv):
    monkeypatch.setattr(cli, "_open_source", refuse_load)
    source = [] if argv[0] == "cutoff" else ["static_eigenmode"]
    code = main(["check", *source, "--which", *argv, "--out", str(tmp_path)])
    out, err = capsys.readouterr()
    assert code == 2
    assert json.loads(out)["error"].startswith(f"{flag}: ")
    assert err == ""  # no traceback and no RuntimeWarning
    assert not (tmp_path / "reports").exists()


@pytest.mark.parametrize("rho, beta, error", [
    ("1e-300", [], "rho must have a positive finite square, got 1e-300"),
    ("1e308", [], "rho must have a positive finite square, got 1e+308"),
    # rho^2 = 1e-320 is subnormal, and rho^2 (beta - 1) = 1e-325 rounds to 0
    ("1e-160", ["--beta", "1.00001"], "rho must have a positive finite square times "
     f"beta - 1 = {1.00001 - 1.0!r}, got 1e-160"),
])
def test_cli_local_on_a_run_refuses_a_rho_whose_square_is_not_finite(tmp_path, capsys, rho,
                                                                      beta, error):
    # the C' fit of the rho^2 bound raised ZeroDivisionError or OverflowError
    # here, with a traceback
    save_run(run_scenario(short_coupled_scenario()[0]), tmp_path / "run")
    code = main(["check", str(tmp_path / "run"), "--which", "local", "--x0", "3,4",
                 "--rho", rho, *beta, "--out", str(tmp_path / "out")])
    out, err = capsys.readouterr()
    assert code == 2 and err == ""
    assert json.loads(out) == {"ok": False, "error": f"--rho: {error}"}
    assert not (tmp_path / "out").exists()


def test_cli_x0_with_the_wrong_coordinate_count_exits_2(tmp_path, capsys):
    # it used to check the ball around node 1 and echo x0 (1, 2)
    code = main(["check", "static_eigenmode", "--which", "local", "--rho", "0.5",
                 "--x0", "1,2", "--out", str(tmp_path)])
    out, err = capsys.readouterr()
    assert code == 2 and err == ""
    assert json.loads(out)["error"] == (
        "--x0: node (1, 2) does not match grid dimension 1: needs 1 integer coordinate, "
        "one per grid axis")
    assert not (tmp_path / "reports").exists()


def test_cli_x0_of_the_wrong_length_exits_2_before_the_run(monkeypatch, tmp_path, capsys):
    # it used to be refused only once the whole run had been computed
    def no_run(*args, **kwargs):
        raise AssertionError("the scenario was run")

    monkeypatch.setattr(cli, "run_scenario", no_run)
    code = main(["check", "rh_perturbed_2d", "--which", "local", "--rho", "1",
                 "--x0", "1", "--out", str(tmp_path)])
    out, err = capsys.readouterr()
    assert code == 2 and err == ""
    assert json.loads(out)["error"] == (
        "--x0: node (1,) does not match grid dimension 2: needs 2 integer coordinates, "
        "one per grid axis")
    assert not (tmp_path / "reports").exists()
    # a missing --rho, too, is refused before the run
    code = main(["check", "rh_perturbed_2d", "--which", "local", "--out", str(tmp_path)])
    out, err = capsys.readouterr()
    assert code == 2 and err == ""
    assert json.loads(out)["error"] == "--which local needs --rho"


@pytest.mark.parametrize("which, extra", [
    ("local", ["--rho", "1"]), ("evolution", []), ("harnack", ["--mode", "complete"])])
def test_tol_eig_is_refused_by_checks_without_a_curvature_gate(monkeypatch, tmp_path, capsys,
                                                               which, extra):
    # no verdict here reads the curvature gate; the flag used to be accepted
    # and left the reports unchanged
    monkeypatch.setattr(cli, "_open_source", refuse_load)
    code = main(["check", "rh_perturbed_2d", "--which", which, *extra, "--tol-eig", "1",
                 "--out", str(tmp_path)])
    out, err = capsys.readouterr()
    assert code == 2 and err == ""
    tag = which if which != "harnack" else "harnack_complete"
    assert json.loads(out)["error"] == f"--tol-eig: not read by {tag}"
    assert not (tmp_path / "reports").exists()


# a valid value of each check flag, so that only the table decides a refusal
FLAG_VALUES = {"--x0": ["0"], "--pairs": ["pairs.json"], "--mode": ["complete"],
               "--printed-identity": []}
UNREAD = [(tag, flag) for tag, check in cli.CHECKS.items()
          for flag in cli.FLAGS if flag not in check.flags]


def selection(tag: str) -> list:
    """The --which (and --mode) arguments that select a table entry."""
    which, _, mode = tag.partition("_")
    return ["--which", which] + (["--mode", mode] if mode else [])


@pytest.mark.parametrize("tag, flag", UNREAD)
def test_cli_flag_the_check_does_not_read_exits_2_before_loading(monkeypatch, tmp_path,
                                                                  capsys, tag, flag):
    monkeypatch.setattr(cli, "_open_source", refuse_load)
    source = ["static_eigenmode"] if cli.CHECKS[tag].source else []
    code = main(["check", *source, *selection(tag), flag, *FLAG_VALUES.get(flag, ["2"]),
                 "--out", str(tmp_path)])
    out, err = capsys.readouterr()
    assert code == 2 and err == ""
    assert json.loads(out)["error"] == f"{flag}: not read by {tag}"
    assert not (tmp_path / "reports").exists()


def test_cli_cutoff_with_a_source_exits_2(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(cli, "_open_source", refuse_load)
    code = main(["check", "static_eigenmode", "--which", "cutoff", "--out", str(tmp_path)])
    out, err = capsys.readouterr()
    assert code == 2 and err == ""
    assert json.loads(out)["error"] == "--which cutoff reads no SOURCE, got 'static_eigenmode'"
    assert not (tmp_path / "reports").exists()


def test_check_options_are_the_table_flags():
    # no flag without a reader, and no reader of an undeclared flag
    table = {flag for check in cli.CHECKS.values() for flag in check.flags}
    sub = next(a for a in cli._parser()._actions if isinstance(a, argparse._SubParsersAction))
    for cmd in ("check", "report"):
        actions = [a for a in sub.choices[cmd]._actions if a.dest != "help"]
        assert [a.dest for a in actions if not a.option_strings] == ["source"]
        options = {s for a in actions for s in a.option_strings}
        assert options == {"--which", "--out"} | table
        for a in actions:
            flag = a.option_strings[0] if a.option_strings else None
            if flag in table:  # its --help names the checks that read it
                readers = set(a.help.split("; read by ")[1].split(", "))
                assert readers == {t for t, c in cli.CHECKS.items() if flag in c.flags}
    for check in cli.CHECKS.values():
        inspect.signature(check.run).bind(None, None, **dict.fromkeys(map(cli._dest, check.flags)))


def test_importing_the_cli_leaves_scipy_unloaded():
    # scipy's import is most of a flag refusal's time, and nothing needs it
    code = ("import sys, rhflow.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(cli.__file__).parents[1]), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_distance_checks_leave_scipy_unloaded(tmp_path):
    # the local check's geodesic balls and Harnack's path energies on a
    # saved 2-D run are computed without scipy
    run_dir = tmp_path / "run"
    save_run(run_scenario(short_coupled_scenario(strides=4)[0]), run_dir)
    checks = [["local", "--rho", "1"], ["harnack", "--mode", "complete"]]
    code = ("import sys\n"
            "from rhflow.cli import main\n"
            f"for which in {checks!r}:\n"
            f"    assert main(['check', {str(run_dir)!r}, '--which', *which,\n"
            f"                 '--out', {str(tmp_path / 'out')!r}]) in (0, 1)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(cli.__file__).parents[1]), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    *reports, modules = proc.stdout.splitlines()
    assert [json.loads(r)["theorem"] for r in reports] == ["local", "harnack"]
    assert modules == "[]"


def test_cli_explicit_numbers_are_used_as_given(tmp_path, capsys):
    # numbers were read with `or`, so a 0 silently became the default; now a
    # 0 is refused and every accepted value reaches the report unchanged
    code = main(["check", "static_eigenmode", "--which", "global", "--beta", "1.25",
                 "--c-tol", "0", "--out", str(tmp_path)])
    out = json.loads(capsys.readouterr().out)
    assert code in (0, 1)
    assert out["beta"] == 1.25 and out["c_tol"] == 0.0 and out["tol_num"] == 0.0
    assert main(["check", "--which", "cutoff", "--rho", "0.5", "--tau", "0.25",
                 "--lattice", "16", "--out", str(tmp_path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["rho"], out["tau"]) == (0.5, 0.25)


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
    ua = np.load(a / "u.npy")[0]
    ub = np.load(b / "u.npy")[0]
    uc = np.load(c / "u.npy")[0]
    assert np.array_equal(ua, ub)
    assert not np.array_equal(ua, uc)


def _check_exit_2(tmp_path, capsys, run_dir) -> str:
    """Check a broken run directory; it must exit 2 with a JSON error."""
    assert main(["check", str(run_dir), "--which", "global",
                 "--out", str(tmp_path / "chk")]) == 2
    err = json.loads(capsys.readouterr().out)
    assert err["ok"] is False
    return err["error"]


def _saved_tiny_run(tmp_path):
    out = tmp_path / "run"
    save_run(run_scenario(load_scenario(tiny_static_cfg())), out)
    return out


def _rewrite_npy(run_dir, name, edit):
    arr = np.load(run_dir / name)
    np.save(run_dir / name, edit(arr), allow_pickle=False)
    rehash(run_dir)


def test_cli_check_stored_non_positive_u_exits_2(tmp_path, capsys):
    out = _saved_tiny_run(tmp_path)

    def negate(u):
        u[2, 5] = -1.0
        return u

    _rewrite_npy(out, "u.npy", negate)
    error = _check_exit_2(tmp_path, capsys, out)
    assert "u.npy" in error and "snapshot 2" in error and "positive" in error


def test_stored_infinite_u_is_refused_naming_its_file(tmp_path, capsys):
    out = _saved_tiny_run(tmp_path)

    def blow_up(u):
        u[2, 5] = np.inf
        return u

    _rewrite_npy(out, "u.npy", blow_up)
    with pytest.raises(ValueError, match="u.npy: snapshot 2: .*finite and positive"):
        load_run(out)
    error = _check_exit_2(tmp_path, capsys, out)
    assert "u.npy" in error and "snapshot 2" in error and "positive" in error


def test_cli_check_stored_degenerate_metric_exits_2(tmp_path, capsys):
    out = _saved_tiny_run(tmp_path)

    def flatten(g):
        g[1, 4] = 0.0
        return g

    _rewrite_npy(out, "g.npy", flatten)
    error = _check_exit_2(tmp_path, capsys, out)
    assert "g.npy" in error and "snapshot 1" in error and "degenerate" in error


def test_cli_check_npy_not_matching_meta_exits_2(tmp_path, capsys):
    out = _saved_tiny_run(tmp_path)
    _rewrite_npy(out, "u.npy", lambda u: u[:-1])
    error = _check_exit_2(tmp_path, capsys, out)
    assert "u.npy" in error and "(4, 32)" in error and "(5, 32)" in error

    out = _saved_tiny_run(tmp_path / "f32")
    _rewrite_npy(out, "phi.npy", lambda phi: phi.astype(np.float32))
    error = _check_exit_2(tmp_path, capsys, out)
    assert "phi.npy" in error and "float32" in error


def _run_exit_2(tmp_path, capsys, cfg) -> str:
    """Run a bad scenario through the CLI; it must exit 2 with a JSON error."""
    src = write_cfg(tmp_path, cfg, "bad.json")
    assert main(["run", src, "--out", str(tmp_path / "out")]) == 2
    err = json.loads(capsys.readouterr().out)
    assert err["ok"] is False
    return err["error"]


def test_cli_non_finite_alpha_is_a_config_error(tmp_path, capsys):
    error = _run_exit_2(tmp_path, capsys, tiny_cfg_with(alpha={"alpha0": float("nan")}))
    assert "alpha.alpha0" in error and "finite" in error
    error = _run_exit_2(tmp_path, capsys,
                        tiny_cfg_with(alpha={"alpha0": 1.0, "rate": float("inf")}))
    assert "alpha.rate" in error and "finite" in error


def test_cli_scalar_n_points_is_a_config_error(tmp_path, capsys):
    cfg = tiny_cfg_with(grid={"dim": 1, "n_points": 64, "lengths": [1.0]})
    assert "grid.n_points" in _run_exit_2(tmp_path, capsys, cfg)


def _edit_factor(key, value):
    def edit(cfg):
        cfg["initial"]["u"]["terms"][0]["factors"][0][key] = value
    return edit


def _heat_kernel_u(cfg):
    cfg["initial"]["u"] = {"type": "heat_kernel", "t0": 0.01, "floor": 0.1}


def _edit(path, value, prepare=None):
    """A tiny_static_cfg edit setting the field at a dotted path."""
    def edit(cfg):
        if prepare is not None:
            prepare(cfg)
        *parents, last = path.split(".")
        node = cfg
        for key in parents:
            node = node[key]
        node[last] = value
    return edit


def _random_fourier_u(cfg):
    cfg["seed"] = 3
    cfg["initial"]["u"] = {"type": "random_fourier", "offset": 3.0, "amplitude": 0.05,
                           "n_modes": 3}


# (dotted path, edit): booleans and fractions where integers or numbers are
# meant.  Before they were refused, each of these ran (as 64 nodes, stride 1,
# length 1.0, dim 1, axis 0, k 1, ...) or, for dt_sub, failed with a
# stability-bound message.
BAD_FIELDS = [
    ("grid.n_points", _edit("grid.n_points", [64.5])),
    ("grid.dim", _edit("grid.dim", True)),
    ("grid.lengths", _edit("grid.lengths", [True])),
    ("time.snapshot_stride", _edit("time.snapshot_stride", True)),
    ("time.dt_sub", _edit("time.dt_sub", True)),
    ("initial.u.terms[0].factors[0].axis", _edit_factor("axis", 0.5)),
    ("initial.u.terms[0].factors[0].k", _edit_factor("k", 1.5)),
    ("initial.u.images", _edit("initial.u.images", 2.5, _heat_kernel_u)),
    ("initial.u.n_modes", _edit("initial.u.n_modes", 2.5, _random_fourier_u)),
    ("initial.u.n_modes", _edit("initial.u.n_modes", True, _random_fourier_u)),
    ("initial.u.offset", _edit("initial.u.offset", True)),
    ("variant.m", _edit("variant", {"kind": "warped_product", "m": 1.5})),
    ("seed", _edit("seed", 2.5)),
]


@pytest.mark.parametrize("path, edit", BAD_FIELDS,
                         ids=[f"{p}-{i}" for i, (p, _) in enumerate(BAD_FIELDS)])
def test_cli_bools_and_fractions_are_config_errors(tmp_path, capsys, path, edit):
    cfg = tiny_static_cfg()
    edit(cfg)
    error = _run_exit_2(tmp_path, capsys, cfg)
    assert path in error and "stability" not in error


@pytest.mark.parametrize("n_points", [[2**20 + 1], [10**6, 10**6], [10**12]])
def test_cli_node_count_cap_is_a_config_error(tmp_path, capsys, n_points):
    cfg = tiny_static_cfg()
    cfg["grid"] = {"dim": len(n_points), "n_points": n_points, "lengths": [1.0] * len(n_points)}
    tracemalloc.start()
    try:
        error = _run_exit_2(tmp_path, capsys, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert "grid.n_points" in error and "limit" in error
    assert peak < 2**20  # not even one field of the refused grid was allocated


def test_integral_floats_are_read_as_integers():
    cfg = tiny_static_cfg()
    cfg["grid"]["n_points"] = [32.0]
    cfg["time"]["snapshot_stride"] = 10.0
    sc = parse_scenario(cfg)
    assert sc.grid.n_points == (32,) and sc.snapshot_stride == 10
    assert type(sc.grid.n_points[0]) is int and type(sc.snapshot_stride) is int


def test_cli_non_positive_initial_u_is_a_config_error(tmp_path, capsys):
    cfg = tiny_static_cfg()
    cfg["initial"]["u"]["offset"] = -2.0
    error = _run_exit_2(tmp_path, capsys, cfg)
    assert "initial.u" in error and "positive" in error


def test_cli_non_finite_initial_map_is_a_config_error(tmp_path, capsys):
    cfg = tiny_static_cfg()
    cfg["initial"]["phi"] = {"components": [{"type": "constant", "value": float("nan")}]}
    assert "initial.phi" in _run_exit_2(tmp_path, capsys, cfg)


# (terms value, dotted path of the offending part relative to the spec)
MALFORMED_TERMS = [
    (5, "terms"),
    ({"coeff": 1.0}, "terms"),
    ([3], "terms[0]"),
    ([{"coeff": 1.0, "factors": 2}], "terms[0].factors"),
    ([{"coeff": 1.0, "factors": ["cos"]}], "terms[0].factors[0]"),
    ([{"coeff": 1.0, "factors": [[0, "cos", 1]]}], "terms[0].factors[0]"),
]


def _malformed_terms_error(tmp_path, capsys, spec_path, terms):
    """The exit-2 error of tiny_static_cfg with the sine-sum spec at
    spec_path given these terms."""
    cfg = tiny_static_cfg()
    sine = {"type": "sine_sum", "offset": 0.0, "amplitude": 0.1, "terms": terms}
    if spec_path == "initial.u":
        cfg["initial"]["u"]["terms"] = terms
    elif spec_path == "initial.metric":
        cfg["initial"]["metric"] = {**sine, "type": "conformal"}
    else:
        cfg["initial"]["phi"] = {"components": [sine]}
    return _run_exit_2(tmp_path, capsys, cfg)


@pytest.mark.parametrize("terms, path", MALFORMED_TERMS)
def test_cli_malformed_u_terms_are_config_errors(tmp_path, capsys, terms, path):
    error = _malformed_terms_error(tmp_path, capsys, "initial.u", terms)
    assert error.startswith(f"initial.u.{path} must be ")


@pytest.mark.parametrize("terms, path", MALFORMED_TERMS)
def test_cli_malformed_metric_terms_are_config_errors(tmp_path, capsys, terms, path):
    error = _malformed_terms_error(tmp_path, capsys, "initial.metric", terms)
    assert error.startswith(f"initial.metric.{path} must be ")


@pytest.mark.parametrize("terms, path", MALFORMED_TERMS)
def test_cli_malformed_phi_terms_are_config_errors(tmp_path, capsys, terms, path):
    error = _malformed_terms_error(tmp_path, capsys, "initial.phi.components[0]", terms)
    assert error.startswith(f"initial.phi.components[0].{path} must be ")


@pytest.mark.parametrize("edit, path", [
    (_edit("initial.u", 5), "initial.u"),
    (_edit("initial.metric", "flat"), "initial.metric"),
    (_edit("initial.phi", {"components": {"type": "constant", "value": 0.0}}),
     "initial.phi.components"),
    (_edit("initial.phi", {"components": [1.0]}), "initial.phi.components[0]"),
    (_edit("variant", ["static"]), "variant"),
    (_edit("alpha", 0.5), "alpha"),
])
def test_cli_non_object_specs_are_config_errors(tmp_path, capsys, edit, path):
    cfg = tiny_static_cfg()
    edit(cfg)
    assert _run_exit_2(tmp_path, capsys, cfg).startswith(f"{path} must be ")


def test_schedule_and_variant_reject_non_finite_values():
    from rhflow.flow import AlphaSchedule, FlowVariant

    for kwargs in ({"alpha0": float("nan")}, {"alpha0": 1.0, "alpha_bar": float("nan")},
                   {"alpha0": 1.0, "rate": float("inf")}):
        with pytest.raises(ValueError, match="finite"):
            AlphaSchedule(**kwargs)
    with pytest.raises(ValueError, match="mu must be finite"):
        FlowVariant("warped_product", mu=float("nan"))


def _nudge_times(meta):
    meta["times"][2] += 0.25 * meta["dt_snapshot"]


def _shorten(key):
    def edit(obj):
        obj[key].pop()
    return edit


def _npy_edit(edit, **save):
    """A rewrite of a stored .npy file as edit(its array)."""
    def rewrite(path):
        np.save(path, edit(np.load(path)), **save)
    return rewrite


def _cut_short(path):
    """A save cut off before the last stored double."""
    path.write_bytes(path.read_bytes()[:-8])


# (file of the saved tiny run; edit of its JSON in place or returning a
# replacement, or for a .npy file a rewrite of the file; what the error names)
MALFORMED_RUN_FILES = {
    "manifest-a-list": ("manifest.json", lambda m: [m], ["manifest.json", "list"]),
    "manifest-files-5": ("manifest.json", _edit("files", 5), ["manifest.json", "files"]),
    "manifest-unknown-key": ("manifest.json", _edit("bogus", 1), ["manifest.json", "bogus"]),
    "manifest-format_version-string": ("manifest.json", _edit("format_version", "x"),
                                       ["manifest.json", "format_version"]),
    "manifest-format_version-3": ("manifest.json", _edit("format_version", 3),
                                  ["manifest.json", "format_version 3"]),
    "manifest-wall_time_s-string": ("manifest.json", _edit("wall_time_s", "0.002"),
                                    ["manifest.json", "wall_time_s"]),
    "meta-n_points-int": ("meta.json", _edit("grid.n_points", 32), ["meta.json", "grid.n_points"]),
    "meta-variant-list": ("meta.json", _edit("variant", ["static"]), ["meta.json", "variant"]),
    "meta-schedule-unknown-key": ("meta.json", _edit("schedule.colour", 1.0),
                                  ["meta.json", "schedule.colour"]),
    "meta-dt_snapshot-string": ("meta.json", _edit("dt_snapshot", "0.001"),
                                ["meta.json", "dt_snapshot"]),
    "meta-fields_saved-int": ("meta.json", _edit("fields_saved", 5), ["meta.json", "fields_saved"]),
    "meta-times-reversed": ("meta.json", lambda m: m["times"].reverse(),
                            ["meta.json", "times[1]", "increase"]),
    "meta-times-uneven": ("meta.json", _nudge_times, ["meta.json", "times[2]"]),
    "meta-alphas-short": ("meta.json", _shorten("alphas"), ["meta.json", "4 alphas"]),
    "meta-completed-false": ("meta.json", _edit("completed", False), ["meta.json", "completed"]),
    "meta-fields_saved-unknown": ("meta.json", _edit("fields_saved", ["u", "g", "phi", "psi"]),
                                  ["meta.json", "fields_saved[3]"]),
    "meta-unknown-key": ("meta.json", _edit("colour", 1.0), ["meta.json", "colour"]),
    "meta-times-short": ("meta.json", _shorten("times"), ["meta.json", "4 times for 5"]),
    "meta-n_snapshots-6": ("meta.json", _edit("n_snapshots", 6),
                           ["meta.json", "5 times for 6 snapshots"]),
    "u-npy-strings": ("u.npy", _npy_edit(lambda u: u.astype(str)),
                      ["u.npy", "<U", "float64 (5, 32)"]),
    "u-npy-short-grid": ("u.npy", _npy_edit(lambda u: u[:, :-1]),
                         ["u.npy", "(5, 31)", "(5, 32)"]),
    "u-npy-pickled": ("u.npy", _npy_edit(lambda u: u.astype(object), allow_pickle=True),
                      ["u.npy", "not a readable .npy file"]),
    "g-npy-cut-short": ("g.npy", _cut_short, ["g.npy", "not a readable .npy file"]),
}


def _malformed_run(name):
    def prepare(tmp_path, monkeypatch):
        file, edit, names = MALFORMED_RUN_FILES[name]
        run_dir = _saved_tiny_run(tmp_path)
        path = run_dir / file
        if file.endswith(".npy"):
            edit(path)
        else:
            obj = json.loads(path.read_text())
            path.write_text(dumps(edit(obj) or obj))
        if file != "manifest.json":
            rehash(run_dir)
        return ["check", str(run_dir), "--which", "global", "--out", str(tmp_path / "chk")], names
    return prepare


def _pairs_is_a_directory(tmp_path, monkeypatch):
    return (["check", str(_saved_tiny_run(tmp_path)), "--which", "harnack",
             "--pairs", str(tmp_path), "--out", str(tmp_path / "chk")], [str(tmp_path)])


def _under_a_file(command, via):
    def prepare(tmp_path, monkeypatch):
        blocker = tmp_path / "a_file"
        blocker.write_text("")
        root = blocker / "sub"
        source = str(_saved_tiny_run(tmp_path)) if command == "check" else write_cfg(
            tmp_path, tiny_static_cfg())
        argv = [command, source] + (["--which", "global"] if command == "check" else [])
        if via == "--out":
            argv += ["--out", str(root)]
        else:
            monkeypatch.setenv("RHFLOW_OUTPUT_ROOT", str(root))
        return argv, [str(blocker)]
    return prepare


EXIT_2_CASES = {
    **{name: _malformed_run(name) for name in MALFORMED_RUN_FILES},
    "pairs-is-a-directory": _pairs_is_a_directory,
    "check-out-under-a-file": _under_a_file("check", "--out"),
    "check-output-root-under-a-file": _under_a_file("check", "env"),
    "run-out-under-a-file": _under_a_file("run", "--out"),
    "run-output-root-under-a-file": _under_a_file("run", "env"),
}


@pytest.mark.parametrize("case", EXIT_2_CASES)
def test_cli_malformed_runs_and_os_errors_exit_2(tmp_path, capsys, monkeypatch, case):
    argv, names = EXIT_2_CASES[case](tmp_path, monkeypatch)
    capsys.readouterr()
    assert main(argv) == 2
    out, err = capsys.readouterr()
    error = json.loads(out)
    assert error["ok"] is False and err == ""
    assert all(name in error["error"] for name in names), error["error"]


# (dotted path, edit, what else the error says): values of the wrong JSON
# type (a list for a string, a string for a number, an integer too large for
# a double) and values past the loader's caps.  Each exits 2 naming the field.
MISTYPED_FIELDS = [
    ("initial.u.terms[0].factors[0].fn", _edit_factor("fn", ["cos"]), "one of"),
    ("initial.u.type", _edit("initial.u.type", ["sine_sum"]), "one of"),
    ("variant.kind", _edit("variant.kind", ["static"]), "one of"),
    ("alpha.form", _edit("alpha.form", ["constant"]), "one of"),
    ("method", _edit("method", ["euler"]), "one of"),
    ("name", _edit("name", ["a", 1]), "string"),
    ("time.t_end", _edit("time.t_end", 10**400), "finite"),
    ("grid.n_points[0]", _edit("grid.n_points", [10**400]), "finite"),
    ("seed", _edit("seed", -10**400), "finite"),
    ("seed", _edit("seed", -1), "non-negative"),
    ("time.t_end", _edit("time.t_end", "0.1"), "finite"),
    ("alpha.alpha0", _edit("alpha.alpha0", "nan"), "finite"),
    ("alpha.rate", _edit("alpha.rate", "inf"), "finite"),
    ("initial.phi.components[0].value",
     _edit("initial.phi", {"components": [{"type": "constant", "value": "nan"}]}), "finite"),
    ("grid.lengths[0]", _edit("grid.lengths", ["1.0"]), "finite"),
    ("grid.n_points[0]", _edit("grid.n_points", ["32"]), "finite"),
    ("grid.lengths", _edit("grid.lengths", [1e300]), "spacing"),
    ("initial.u.images", _edit("initial.u.images", IMAGES_LIMIT + 1, _heat_kernel_u), "from 0"),
    ("initial.u.images", _edit("initial.u.images", 10**4, _heat_kernel_u), "from 0"),
    ("initial.u.n_modes", _edit("initial.u.n_modes", 17, _random_fourier_u), "from 1 to 16"),
    ("initial.u.terms[0].factors[0].k", _edit_factor("k", 17), "from 1 to 16"),
    ("initial.u.terms[0].factors[0].k", _edit_factor("k", 10**308), "from 1 to 16"),
    ("initial.u.terms[0].factors[0].k", _edit_factor("k", 0), "from 1 to 16"),
]


@pytest.mark.parametrize("path, edit, what", MISTYPED_FIELDS,
                         ids=[f"{p}-{i}" for i, (p, _, _) in enumerate(MISTYPED_FIELDS)])
def test_cli_mistyped_and_capped_fields_exit_2(tmp_path, capsys, path, edit, what):
    cfg = tiny_static_cfg()
    edit(cfg)
    src = write_cfg(tmp_path, cfg, "bad.json")
    assert main(["check", src, "--which", "global", "--out", str(tmp_path / "chk")]) == 2
    out, err = capsys.readouterr()
    error = json.loads(out)["error"]
    assert err == "" and path in error and what in error, error


def test_sine_sum_k_is_capped_per_axis():
    # half the node count of the factor's own axis: 8 along axis 0, 16 along 1
    cfg = tiny_static_cfg()
    cfg["grid"] = {"dim": 2, "n_points": [16, 32], "lengths": [1.0, 1.0]}
    factor = cfg["initial"]["u"]["terms"][0]["factors"][0]
    factor.update(axis=1, k=16)
    parse_scenario(cfg)
    factor.update(axis=0, k=9)
    with pytest.raises(ValueError, match=re.escape("factors[0].k must be an integer from 1 to 8")):
        parse_scenario(cfg)


@pytest.mark.parametrize("stride", [10**11, 10**12])
def test_stride_past_the_window_is_a_time_error(tmp_path, capsys, stride):
    # the window holds 40 substeps, within 1e-9 of the interval of `stride`
    # substeps from 0 of them: it holds no whole interval, so nothing but
    # the initial snapshot would be stored
    cfg = tiny_static_cfg()
    cfg["time"]["snapshot_stride"] = stride
    with pytest.raises(ValueError, match="^time: .* holds no whole interval"):
        parse_scenario(cfg)
    error = _run_exit_2(tmp_path, capsys, cfg)
    assert error.startswith("time: ") and "no whole interval" in error


def test_images_and_n_modes_up_to_their_caps_load():
    for images in (4, 25, IMAGES_LIMIT):
        cfg = tiny_static_cfg()
        _edit("initial.u.images", images, _heat_kernel_u)(cfg)
        parse_scenario(cfg)
    cfg = tiny_static_cfg()
    _edit("initial.u.n_modes", 16, _random_fourier_u)(cfg)
    parse_scenario(cfg)


# ---------------------------------------------------------------------------
# fuzzing the one JSON reader: one field at a time set to an arbitrary JSON
# value (huge and non-finite numbers and numeric strings included)

FUZZ = settings(max_examples=50, deadline=None, derandomize=True, database=None)
JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-1000, 1000),
    st.sampled_from([2**63, 10**400, -10**400]),
    st.floats(),
    st.sampled_from(["", "cos", "static", "0.1", "32", "nan", "inf", "1e400"]),
    st.text(max_size=4),
    st.lists(st.integers(-3, 40) | st.floats(-1.0, 1.0) | st.text(max_size=2), max_size=3),
    st.dictionaries(st.sampled_from(["type", "kind", "x"]), st.integers(0, 3), max_size=2),
)


def _leaves(node, path=""):
    """(dotted path, value) of every scalar leaf of a JSON value."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaves(value, f"{path}.{key}" if path else key)
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _leaves(value, f"{path}[{i}]")
    else:
        yield path, node


TINY_LEAVES = dict(_leaves(tiny_static_cfg()))
# every dotted path of tiny_static_cfg, its objects and lists included
TINY_PATHS = {leaf[:m.start()] for leaf in TINY_LEAVES
              for m in re.finditer(r"[.\[]|$", leaf) if m.start()}


def _set_leaf(cfg, path, value):
    *parents, last = (int(k) if k.isdigit() else k for k in re.findall(r"[^.\[\]]+", path))
    node = cfg
    for key in parents:
        node = node[key]
    node[last] = value


def _same_json_type(old, new) -> bool:
    """new is of old's JSON type: a string, an integral number or a finite
    number."""
    if isinstance(old, str) or isinstance(new, (bool, str)) or not isinstance(new, (int, float)):
        return isinstance(old, str) and isinstance(new, str)
    try:
        value = float(new)
    except OverflowError:
        return False
    return math.isfinite(value) and (isinstance(old, float) or value.is_integer())


@FUZZ
@given(path=st.sampled_from(sorted(TINY_LEAVES)), value=JSON_VALUES)
def test_fuzzed_scenario_field_loads_or_names_the_field(path, value):
    """Loading succeeds or is a ValueError that names the field.  A value of
    the field's own JSON type may instead break a rule that spans fields
    (u positive, dt_sub stable, a whole number of snapshots), whose error
    names the field the rule is checked at."""
    cfg = tiny_static_cfg()
    _set_leaf(cfg, path, value)
    try:
        parse_scenario(cfg)
    except ValueError as exc:
        error = str(exc)
        named = path in error or _same_json_type(TINY_LEAVES[path], value) and any(
            p in error for p in TINY_PATHS)
        assert named, error


@pytest.fixture(scope="module")
def tiny_run_dir(tmp_path_factory):
    return _saved_tiny_run(tmp_path_factory.mktemp("fuzz"))


@FUZZ
@given(key=st.sampled_from(sorted(persistence.META)), value=JSON_VALUES)
def test_fuzzed_meta_value_exits_0_or_2_quietly(tiny_run_dir, key, value):
    with tempfile.TemporaryDirectory() as tmp:
        run_dir = Path(tmp) / "run"
        shutil.copytree(tiny_run_dir, run_dir)
        meta = json.loads((run_dir / "meta.json").read_text())
        meta[key] = value
        (run_dir / "meta.json").write_text(json.dumps(meta))
        rehash(run_dir)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["check", str(run_dir), "--which", "global",
                         "--out", str(Path(tmp) / "chk")])
    assert code in (0, 2) and err.getvalue() == ""
    assert json.loads(out.getvalue())["ok"] is (code == 0)
