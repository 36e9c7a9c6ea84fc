"""Byte identity of every output file on the five bundled scenarios.

`rhflow run` saves each bundled scenario, then `rhflow report` runs every
check on the saved run: identities, global, local, evolution and both
Harnack modes, plus the cutoff certificate.  The checks of one scenario
share one loaded trajectory, as they would in one process, so each derived
field is computed by whichever check needs it first and reused by the rest.
The sha256 of every file written (meta.json, the field arrays, each report
JSON and CSV) and of every stdout summary must equal the digests pinned in
tests/data/report_digests.json.

When a change alters an output on purpose, regenerate the digests with

    PYTHONPATH=src python tests/test_report_identity.py > tests/data/report_digests.json

and say in the change which files moved and why.
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from rhflow import cli, persistence
from rhflow.scenarios import bundled_names, load_scenario

DIGESTS = Path(__file__).parent / "data" / "report_digests.json"
RUN_FILES = ("meta.json", "u.npy", "g.npy", "phi.npy")
CUTOFF = ["--which", "cutoff", "--rho", "1.0", "--tau", "0.1"]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _checks(name: str) -> list:
    rho = repr(0.3 * load_scenario(name).grid.lengths[0])
    return [
        ["--which", "identities"],
        ["--which", "global"],
        ["--which", "local", "--rho", rho],
        ["--which", "evolution"],
        ["--which", "harnack", "--mode", "compact"],
        ["--which", "harnack", "--mode", "complete"],
    ]


def _cli(argv: list) -> tuple:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, _sha(buf.getvalue().encode())


def scenario_digests(name: str, tmp: Path) -> dict:
    """Digests of the run files, the check summaries and the report files
    of one bundled scenario, keyed by what produced them."""
    run_dir, out_dir = tmp / name, tmp / f"{name}_out"
    code, _ = _cli(["run", name, "--out", str(run_dir)])
    out = {f"{name}/run": code}
    for f in RUN_FILES:
        out[f"{name}/{f}"] = _sha((run_dir / f).read_bytes())
    traj = persistence.load_run(run_dir)
    real = cli._open_source
    # every check shares one trajectory
    cli._open_source = lambda source: (run_dir.name, traj.grid, lambda: traj)
    try:
        for argv in _checks(name):
            key = f"{name}/{' '.join(argv)}"
            out[key] = list(_cli(["report", str(run_dir), "--out", str(out_dir)] + argv))
    finally:
        cli._open_source = real
    for p in sorted((out_dir / "reports").iterdir()):
        out[f"{name}/reports/{p.name}"] = _sha(p.read_bytes())
    return out


def cutoff_digests(tmp: Path) -> dict:
    out_dir = tmp / "cutoff_out"
    out = {"cutoff": list(_cli(["check", "--out", str(out_dir)] + CUTOFF))}
    for p in sorted((out_dir / "reports").iterdir()):
        out[f"cutoff/reports/{p.name}"] = _sha(p.read_bytes())
    return out


@pytest.fixture(scope="module")
def pinned():
    return json.loads(DIGESTS.read_text())


@pytest.mark.parametrize("name", sorted(bundled_names()))
def test_every_output_file_is_byte_identical(name, pinned, tmp_path):
    got = scenario_digests(name, tmp_path)
    want = {k: v for k, v in pinned.items() if k.startswith(f"{name}/")}
    assert got == want


def test_cutoff_report_is_byte_identical(pinned, tmp_path):
    got = cutoff_digests(tmp_path)
    assert got == {k: v for k, v in pinned.items() if k.startswith("cutoff")}


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        digests = cutoff_digests(Path(tmp))
        for name in sorted(bundled_names()):
            digests.update(scenario_digests(name, Path(tmp)))
    sys.stdout.write(json.dumps(digests, indent=1, sort_keys=True) + "\n")
