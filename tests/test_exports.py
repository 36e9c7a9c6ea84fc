"""The package's public names: every exported name resolves, and the names
removed from the API stay removed."""

import rhflow
from rhflow import cutoff, distance, estimates, geometry, grid, harnack, persistence

REMOVED = {
    rhflow: ("liyau_quantity", "cprime_fallback", "flat_torus_distance", "path_energy",
             "energy_density", "s_tensor"),
    estimates: ("liyau_quantity", "cprime_fallback"),
    distance: ("node_index", "_Layout", "flat_torus_distance"),
    grid: ("Halo",),
    geometry: ("energy_density", "s_tensor", "s_scalar", "rough_laplacian_covector"),
    geometry._Calls: ("ghosts",),
    harnack: ("_node_tuple", "check_r_max", "check_substeps", "path_energy", "_segment_energy"),
    cutoff: ("check_lattice",),
    persistence: ("_npy_view", "_NPY_1_0"),
}


def test_every_exported_name_resolves():
    assert len(set(rhflow.__all__)) == len(rhflow.__all__)
    missing = [name for name in rhflow.__all__ if not hasattr(rhflow, name)]
    assert missing == []


def test_removed_names_are_gone():
    for module, names in REMOVED.items():
        for name in names:
            assert name not in rhflow.__all__
            assert not hasattr(module, name), f"{module.__name__}.{name}"
