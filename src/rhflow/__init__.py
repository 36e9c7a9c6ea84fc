"""Numerical laboratory for coupled metric/map flows on periodic tori.

A positive heat solution rides on an evolving metric (coupled flow, warped
product, or frozen background); the package measures both sides of the
gradient estimates and Harnack inequalities that govern it, with explicit
hypothesis gates, empirical constants, and honest numeric tolerances.
"""

from .cutoff import CutoffFunction, cutoff_verify
from .distance import geodesic_distance
from .estimates import (
    EstimateReport,
    GateEmptyError,
    HypothesisConstants,
    check_evolution_inequality,
    check_global,
    check_identities,
    check_local,
    extract_constants,
    fit_cprime,
    global_bound,
    identity_residuals,
    local_bound,
)
from .flow import (
    AlphaSchedule,
    BlowUpError,
    FlowVariant,
    Snapshot,
    StabilityError,
    Trajectory,
    run,
    snapshot_constants,
    stability_limit,
    step_flow,
    step_heat,
)
from .geometry import (
    MetricDegenerateError,
    christoffel,
    eig_general,
    grad_phi_outer,
    gradient_norm_sq,
    hessian,
    laplace_beltrami,
    metric_inverse,
    ricci,
    scalar_curvature,
    tension_field,
)
from .grid import Grid
from .harnack import (
    HarnackReport,
    check_harnack,
    gamma_field,
    gamma_inf,
    harnack_floor,
)
from .persistence import HashMismatchError, load_run, save_report, save_run
from .scenarios import (
    Scenario,
    bundled_names,
    load_scenario,
    parse_scenario,
    refine_scenario,
    run_scenario,
)

__version__ = "0.1.0"

__all__ = [
    "AlphaSchedule",
    "BlowUpError",
    "CutoffFunction",
    "EstimateReport",
    "FlowVariant",
    "GateEmptyError",
    "Grid",
    "HarnackReport",
    "HashMismatchError",
    "HypothesisConstants",
    "MetricDegenerateError",
    "Scenario",
    "Snapshot",
    "StabilityError",
    "Trajectory",
    "bundled_names",
    "check_evolution_inequality",
    "check_global",
    "check_harnack",
    "check_identities",
    "check_local",
    "christoffel",
    "cutoff_verify",
    "eig_general",
    "extract_constants",
    "fit_cprime",
    "gamma_field",
    "gamma_inf",
    "geodesic_distance",
    "global_bound",
    "grad_phi_outer",
    "gradient_norm_sq",
    "harnack_floor",
    "hessian",
    "identity_residuals",
    "laplace_beltrami",
    "load_run",
    "load_scenario",
    "local_bound",
    "metric_inverse",
    "parse_scenario",
    "refine_scenario",
    "ricci",
    "run",
    "run_scenario",
    "save_report",
    "save_run",
    "scalar_curvature",
    "snapshot_constants",
    "stability_limit",
    "step_flow",
    "step_heat",
    "tension_field",
    "__version__",
]
