"""Tiny scenario dicts shared by the persistence and CLI tests.

They live outside conftest.py so test modules can import them by a name no
other test directory's conftest shadows.
"""

import copy


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
