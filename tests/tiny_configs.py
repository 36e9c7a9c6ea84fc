"""Tiny scenarios and a call counter shared by the test modules.

They live outside conftest.py so test modules can import them by a name no
other test directory's conftest shadows, and no test module imports another.
"""

import copy
import json

from rhflow.scenarios import load_scenario


def tiny_static_cfg():
    """Small 1d static scenario dict for cheap persistence/CLI tests.

    32 nodes, 40 substeps, 5 snapshots; completes in a few milliseconds.
    """
    return {
        "name": "tiny",
        "grid": {"dim": 1, "n_points": [32], "lengths": [1.0]},
        "variant": {"kind": "static"},
        "alpha": {"alpha0": 0.0},
        "initial": {
            "metric": {"type": "flat"},
            "u": {
                "type": "sine_sum",
                "offset": 2.0,
                "amplitude": 1.0,
                "terms": [{"coeff": 1.0, "factors": [{"axis": 0, "fn": "sin", "k": 1}]}],
            },
        },
        "time": {"t_start": 0.0, "t_end": 0.004, "dt_sub": 0.0001, "snapshot_stride": 10},
        "method": "euler",
    }


def tiny_cfg_with(**edits):
    """tiny_static_cfg with top-level keys replaced (deep-copied first)."""
    cfg = copy.deepcopy(tiny_static_cfg())
    cfg.update(edits)
    return cfg


def short_coupled_cfg(method="euler", strides=2):
    """rh_perturbed_2d cut to a few strides, as a dict; returns it with its
    substep count."""
    cfg = json.loads(json.dumps(load_scenario("rh_perturbed_2d").raw))
    cfg["method"] = method
    t = cfg["time"]
    n_substeps = strides * t.get("snapshot_stride", 1)
    t["t_end"] = t.get("t_start", 0.0) + n_substeps * t["dt_sub"]
    return cfg, n_substeps


def short_coupled_scenario(method="euler", strides=2):
    """`short_coupled_cfg` loaded; returns it with its substep count."""
    cfg, n_substeps = short_coupled_cfg(method, strides)
    return load_scenario(cfg), n_substeps


def count_calls(monkeypatch, owner, name) -> list:
    """Replace owner.name by a wrapper that records each call's arguments."""
    calls = []
    real = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls
