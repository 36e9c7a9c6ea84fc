"""Shared fixtures: one run per bundled scenario, computed once per session.

The refined coupled run costs ~15 s; everything else is a second or two.
Fixtures hand out Trajectory objects that tests must treat as read-only.
"""

import pytest

from rhflow import scenarios


@pytest.fixture(scope="session")
def eigenmode_run():
    return scenarios.run_scenario(scenarios.load_scenario("static_eigenmode"))


@pytest.fixture(scope="session")
def heat_kernel_run():
    return scenarios.run_scenario(scenarios.load_scenario("heat_kernel_largetorus"))


@pytest.fixture(scope="session")
def coupled_run():
    return scenarios.run_scenario(scenarios.load_scenario("rh_perturbed_2d"))


@pytest.fixture(scope="session")
def coupled_refined_run():
    cfg = scenarios.refine_scenario(scenarios.load_scenario("rh_perturbed_2d").raw)
    return scenarios.run_scenario(scenarios.load_scenario(cfg))


@pytest.fixture(scope="session")
def warped_run():
    return scenarios.run_scenario(scenarios.load_scenario("warped_mu0"))
