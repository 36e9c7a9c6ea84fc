"""Run directories byte for byte: each stored .npy is what `np.save` writes
for its stacked field, each manifest digest is the file's sha256, `dumps`
gives the text and the refusals of the recursive reference writer, and a
reloaded run holds writable arrays whose metric fields equal those built
one snapshot at a time.
"""

import hashlib
import io
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dumps_oracle
from tiny_configs import short_coupled_scenario, tiny_static_cfg
from rhflow import persistence
from rhflow.geometry import MetricFields
from rhflow.persistence import dumps, load_run, save_run
from rhflow.scenarios import load_scenario, run_scenario


def _halted_cfg():
    """A 1-D warped-product run whose map overflows after two stored snapshots."""
    return {
        "name": "halted",
        "grid": {"dim": 1, "n_points": [16], "lengths": [1.0]},
        "variant": {"kind": "warped_product", "m": 1, "mu": 20.0},
        "alpha": {"alpha0": 1.0},
        "initial": {
            "metric": {"type": "flat"},
            "phi": {"components": [{"type": "constant", "value": -1.0}]},
            "u": {"type": "constant", "value": 1.0},
        },
        "time": {"t_start": 0.0, "t_end": 0.05, "dt_sub": 5e-4, "snapshot_stride": 10},
    }


def _two_component_scenario():
    """rh_perturbed_2d on a 16x16 grid with a second map component, 3 snapshots."""
    scenario, _ = short_coupled_scenario()
    cfg = json.loads(json.dumps(scenario.raw))
    cfg["grid"]["n_points"] = [16, 16]
    first = cfg["initial"]["phi"]["components"][0]
    cfg["initial"]["phi"]["components"] = [first, {"type": "constant", "value": 0.25}]
    return load_scenario(cfg)


RUNS = {
    "static_1d": lambda: load_scenario(tiny_static_cfg()),
    "coupled_2d": lambda: short_coupled_scenario()[0],
    "halted": lambda: load_scenario(_halted_cfg()),
    "two_component_map": _two_component_scenario,
}


@pytest.fixture(scope="module", params=list(RUNS))
def saved(request, tmp_path_factory):
    traj = run_scenario(RUNS[request.param]())
    return traj, save_run(traj, tmp_path_factory.mktemp(request.param) / "run")


def test_each_npy_is_np_save_of_its_stack_and_each_digest_its_sha256(saved):
    traj, out = saved
    if out.parent.name.startswith("halted"):
        assert traj.halt_reason is not None
    if out.parent.name.startswith("two_component_map"):
        assert traj.snapshots[0].phi.shape[-1] == 2
    for name in persistence.FIELDS:
        expected = io.BytesIO()
        np.save(expected, np.stack([getattr(s, name) for s in traj.snapshots]),
                allow_pickle=False)
        assert (out / f"{name}.npy").read_bytes() == expected.getvalue(), name
    files = json.loads((out / "manifest.json").read_text())["files"]
    assert sorted(files) == sorted(["meta.json", "u.npy", "g.npy", "phi.npy"])
    for name, digest in files.items():
        assert digest == hashlib.sha256((out / name).read_bytes()).hexdigest(), name


def test_a_loaded_run_is_writable_and_its_metric_fields_are_the_per_snapshot_ones(saved):
    traj, out = saved
    back = load_run(out)
    assert len(back.snapshots) == len(traj.snapshots)
    for s, orig in zip(back.snapshots, traj.snapshots):
        for name in ("u", "g", "phi"):
            arr = getattr(s, name)
            assert arr.flags.writeable, name
            assert np.array_equal(arr, getattr(orig, name)), name
        assert s.metric.g is s.g
        one = MetricFields(np.array(s.g))
        assert s.metric.min_eigenvalue == one.min_eigenvalue
        assert np.array_equal(s.metric.sqrt_det, one.sqrt_det)
        assert s.metric.inv[0][-1] is s.metric.inv[-1][0]
        for i in range(one.dim):
            for j in range(one.dim):
                assert np.array_equal(s.metric.inv[i][j], one.inv[i][j])
                assert s.metric.inv[i][j].flags.c_contiguous


def _rehash(out):
    path = out / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["files"] = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                         for name in manifest["files"]}
    path.write_text(dumps(manifest))


def _edit_g(out, edit):
    g = np.load(out / "g.npy")
    edit(g)
    np.save(out / "g.npy", g, allow_pickle=False)
    _rehash(out)


@pytest.mark.parametrize("case", ["degenerate_1d", "asymmetric_2d", "non_finite_2d"])
def test_a_refused_metric_in_snapshot_3_of_5_is_named_as_snapshot_3(tmp_path, case):
    if case == "degenerate_1d":
        scenario = load_scenario(tiny_static_cfg())
        node, message = (3, 7, 0, 0), "metric degenerate at node (7,)"
    else:
        scenario, _ = short_coupled_scenario(strides=4)
        node = (3, 5, 9, 0, 1)
        message = ("metric is not stored symmetric" if case == "asymmetric_2d"
                   else "metric has non-finite entries at node (5, 9)")
    traj = run_scenario(scenario)
    assert len(traj.snapshots) == 5
    out = save_run(traj, tmp_path / "run")

    def edit(g):
        g[node] = 0.0 if case != "non_finite_2d" else np.inf

    _edit_g(out, edit)
    with pytest.raises(ValueError, match="^" + re.escape(f"g.npy: snapshot 3: {message}")):
        load_run(out)


# ---------------------------------------------------------------------------
# the JSON writer against the recursive reference


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_SPECIAL = st.sampled_from([-0.0, 0.0, 5e-324, 2.2250738585072009e-308, 2.0, -7.0, 1e16,
                            2.0**53, 0.1])
_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), _FINITE, _SPECIAL, st.text(max_size=6),
    st.booleans().map(np.bool_), st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.one_of(_FINITE, _SPECIAL).map(np.float64), st.floats(width=32, allow_nan=False, allow_infinity=False).map(np.float32),
    st.lists(st.one_of(_FINITE, _SPECIAL), max_size=4).map(np.array),
    st.lists(st.integers(-9, 9), max_size=4).map(lambda v: np.array(v, dtype=np.int64)),
    # refused: a non-finite float, a type the writer does not know
    st.sampled_from([float("nan"), float("inf"), -float("inf"), np.float64("nan"),
                     object(), {1, 2}, 1j, b"x"]),
)
_VALUES = st.recursive(
    _LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(st.one_of(st.text(max_size=4), st.integers(-20, 20)), inner,
                        max_size=4)),
    max_leaves=12,
)


def _outcome(write, obj):
    try:
        return "text", write(obj)
    except (ValueError, TypeError) as exc:
        return type(exc).__name__, str(exc)


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(_VALUES)
def test_dumps_gives_the_recursive_writers_text_and_refusals(obj):
    assert _outcome(dumps, obj) == _outcome(dumps_oracle.dumps, obj)


def test_dumps_refuses_what_the_recursive_writer_refuses():
    for obj, error in [({"a": [1.0, float("nan")]}, ValueError),
                       ([np.float64("inf")], ValueError), ({"a": {1, 2}}, TypeError),
                       ((1, object()), TypeError)]:
        with pytest.raises(error) as new:
            dumps(obj)
        with pytest.raises(error) as old:
            dumps_oracle.dumps(obj)
        assert str(new.value) == str(old.value)
