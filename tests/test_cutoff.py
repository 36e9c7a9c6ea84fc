"""Space-time cutoff profile: plateau, support, the exact time-ramp constant,
and finite-difference cross-checks of the hand-written radial derivatives.

The time ramp (t/tau)^2 gives zeta_dt / sqrt(zeta) = 2/tau everywhere on
the ramp, so the certified constant is exactly 2 and any excess is a bug,
not discretization.

Every test here runs with RuntimeWarning as an error, so an overflow or an
invalid value inside the certificate fails instead of printing a warning.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rhflow import cutoff
from rhflow.cutoff import (EXPONENTS, LATTICE_LIMIT, R_MAX_FACTOR, SCALE_NUMERATORS,
                           T_MAX_FACTOR, CutoffFunction, cutoff_verify)
from rhflow.persistence import dumps

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

BIG = float(np.finfo(float).max)


def test_validation():
    with pytest.raises(ValueError):
        CutoffFunction(0.0, 0.1)
    with pytest.raises(ValueError):
        CutoffFunction(1.0, -0.1)


@pytest.mark.parametrize("rho, tau, name", [(True, 0.1, "rho"), ("1.0", 0.1, "rho"),
                                            (1.0, False, "tau"), (1.0, "0.1", "tau")])
def test_bool_or_string_scales_are_refused_naming_the_field(rho, tau, name):
    # True used to certify and echo "rho": true; "1.0" raised a TypeError
    with pytest.raises(ValueError, match=f"^{name} is not a finite real number"):
        cutoff_verify(rho, tau, n_r=8, n_t=8)
    with pytest.raises(ValueError, match=f"^{name} is not a finite real number"):
        CutoffFunction(rho, tau)


def test_the_report_echoes_the_scales_as_floats():
    rep = cutoff_verify(1, np.float64(0.1), n_r=8, n_t=8)
    assert type(rep["rho"]) is float and type(rep["tau"]) is float
    assert dumps(rep) == dumps(cutoff_verify(1.0, 0.1, n_r=8, n_t=8))


# the CLI refuses them too, naming the flag (BAD_NUMBERS in test_scenarios_cli)
@pytest.mark.parametrize("rho, tau, name", [(1e200, 1.0, "rho"), (1.0, 1e-200, "tau"),
                                            (1e-160, 1.0, "rho"), (1.0, 1e160, "tau")])
def test_scales_whose_squares_overflow_or_underflow_are_refused(rho, tau, name):
    with pytest.raises(ValueError, match=f"^{name} = .* is out of range: {name}\\^2"):
        CutoffFunction(rho, tau)
    with pytest.raises(ValueError, match=f"^{name} = "):
        cutoff_verify(rho, tau, n_r=8, n_t=8)


def test_scales_at_the_ends_of_the_range_certify_without_warnings():
    smallest = {name: float(np.sqrt(k / BIG)) * (1 + 1e-12)
                for name, k in SCALE_NUMERATORS.items()}
    largest = float(np.nextafter(np.sqrt(BIG), 0.0))
    for rho in (smallest["rho"], largest):
        for tau in (smallest["tau"], largest):
            rep = cutoff_verify(rho, tau, n_r=LATTICE_LIMIT, n_t=16)
            assert rep["ok"] and 80.0 < rep["c_r2"] < 90.0, (rho, tau)
    for name in SCALE_NUMERATORS:
        for value in (smallest[name] * (1 - 1e-9), largest * (1 + 1e-9)):
            with pytest.raises(ValueError, match=f"^{name} = "):
                CutoffFunction(**{"rho": 1.0, "tau": 1.0, name: value})


def test_time_ramp_values_and_left_derivative():
    c = CutoffFunction(1.0, 0.2)
    assert c.zeta(0.0) == 0.0
    assert np.isclose(c.zeta(0.1), 0.25)
    assert c.zeta(0.2) == 1.0
    assert c.zeta(5.0) == 1.0
    # quadratic ramp: zeta_dt = 2 t / tau^2 on [0, tau], 0 after; the kink
    # at tau keeps the left value
    assert np.isclose(c.zeta_dt(0.1), 2.0 * 0.1 / 0.04)
    assert np.isclose(c.zeta_dt(0.2), 2.0 / 0.2)
    assert c.zeta_dt(0.21) == 0.0
    ts = np.linspace(0.0, 0.4, 21)
    assert np.all(np.diff(c.zeta(ts)) >= 0.0)


def test_radial_plateau_support_and_range():
    c = CutoffFunction(2.0, 0.1)
    rs_inner = np.linspace(0.0, 1.0, 12)     # r <= rho/2
    np.testing.assert_array_equal(c.eta(rs_inner), np.ones(12))
    rs_outer = np.linspace(2.0, 3.0, 7)      # r >= rho
    np.testing.assert_array_equal(c.eta(rs_outer), np.zeros(7))
    rs = np.linspace(0.0, 3.0, 301)
    vals = c.eta(rs)
    assert np.all((0.0 <= vals) & (vals <= 1.0))
    assert np.all(np.diff(vals) <= 1e-15)  # nonincreasing in r


def test_radial_derivatives_match_finite_differences():
    c = CutoffFunction(1.5, 0.1)
    # probe strictly inside the transition band, away from its endpoints
    rs = np.linspace(0.80, 1.40, 41)
    eps = 1e-6
    fd1 = (c.eta(rs + eps) - c.eta(rs - eps)) / (2 * eps)
    np.testing.assert_allclose(c.eta_dr(rs), fd1, rtol=1e-4, atol=1e-10)
    fd2 = (c.eta(rs + eps) - 2 * c.eta(rs) + c.eta(rs - eps)) / eps**2
    np.testing.assert_allclose(c.eta_drr(rs), fd2, rtol=1e-3, atol=1e-6)
    # flat regions have exactly zero slope
    assert np.all(c.eta_dr(np.linspace(0.0, 0.74, 10)) == 0.0)
    assert np.all(c.eta_dr(np.linspace(1.51, 2.0, 10)) == 0.0)


def test_product_structure():
    c = CutoffFunction(1.0, 0.2)
    r, t = 0.6, 0.1
    assert np.isclose(c.value(r, t), c.eta(r) * c.zeta(t))
    assert np.isclose(c.dt(r, t), c.eta(r) * c.zeta_dt(t))
    assert np.isclose(c.dr(r, t), c.eta_dr(r) * c.zeta(t))
    assert np.isclose(c.drr(r, t), c.eta_drr(r) * c.zeta(t))


def test_verify_certificate_passes_with_frozen_constants():
    out = cutoff_verify(1.0, 0.1, n_r=512, n_t=512)
    assert out["ok"]
    for key in ("range_ok", "plateau_ok", "support_ok", "dr_zero_inner_ok",
                "monotone_r_ok", "c_a_finite_ok"):
        assert out[key], key
    # the ramp constant is exactly 2 up to roundoff
    assert 2.0 - 1e-9 <= out["cbar_time"] <= 2.0 + 1e-9
    # scale-invariant radial constants (frozen bands; they do not depend on
    # rho because the sup is taken of rho*|eta_dr| and rho^2*|eta_drr|)
    assert 4.2 < out["c_r1"] < 4.5
    assert 80.0 < out["c_r2"] < 90.0
    assert 6.3 < out["c_a"][0.25] < 6.8
    assert 12.0 < out["c_a"][0.5] < 12.9
    assert 40.0 < out["c_a"][0.75] < 43.5


def test_verify_constants_scale_free():
    a = cutoff_verify(1.0, 0.1, n_r=256, n_t=64)
    b = cutoff_verify(7.0, 0.55, n_r=256, n_t=64)
    assert np.isclose(a["c_r1"], b["c_r1"], rtol=1e-12)
    assert np.isclose(a["c_r2"], b["c_r2"], rtol=1e-12)
    assert np.isclose(a["cbar_time"], b["cbar_time"], rtol=1e-12)


def verify_on_2d_lattice(rho, tau, n_r, n_t, exponents=(0.25, 0.5, 0.75)):
    """The certificate with every factor evaluated on the full (r, t)
    lattice, as the product form reads; the oracle for the separable
    evaluation in cutoff_verify."""
    cf = CutoffFunction(rho, tau)
    r = np.linspace(0.0, 1.25 * rho, n_r)
    t = np.linspace(0.0, 2.0 * tau, n_t)
    R, T = np.meshgrid(r, t, indexing="ij")
    psi, dpsi_dt, dpsi_dr, dpsi_drr = cf.value(R, T), cf.dt(R, T), cf.dr(R, T), cf.drr(R, T)
    inner, late, outside, pos = R <= 0.5 * rho, T >= tau, R >= rho, psi > 0.0
    report = {
        "rho": rho, "tau": tau, "n_r": n_r, "n_t": n_t,
        "range_ok": bool(np.all((psi >= 0.0) & (psi <= 1.0))),
        "plateau_ok": bool(np.all(psi[inner & late] == 1.0)),
        "support_ok": bool(np.all(psi[outside] == 0.0)) and bool(np.all(cf.value(r, 0.0) == 0.0)),
        "dr_zero_inner_ok": bool(np.all(dpsi_dr[inner] == 0.0)),
        "monotone_r_ok": bool(np.all(dpsi_dr <= 0.0)),
    }
    cbar = np.max(np.abs(dpsi_dt[pos]) * tau / np.sqrt(psi[pos]))
    report["cbar_time"] = float(cbar)
    report["cbar_time_ok"] = bool(cbar <= 2.0 + 1e-9)
    report["c_r1"] = float(np.max(np.abs(dpsi_dr)) * rho)
    report["c_r2"] = float(np.max(np.abs(dpsi_drr)) * rho**2)
    report["c_a"] = {float(a): float(np.max(np.abs(dpsi_dr[pos]) * rho / psi[pos] ** a))
                     for a in exponents}
    return report


@pytest.mark.parametrize("rho, tau, n_r, n_t", [
    (1.0, 0.1, 512, 512),
    (0.3, 0.05, 97, 64),
    (2.5, 0.7, 2, 2),
    (0.7, 0.2, 200, 9),
    (7.0, 0.55, 33, 300),
])
def test_separable_verify_equals_the_2d_lattice_bit_for_bit(rho, tau, n_r, n_t):
    got = cutoff_verify(rho, tau, n_r=n_r, n_t=n_t)
    want = verify_on_2d_lattice(rho, tau, n_r, n_t)
    assert {k: got[k] for k in want} == want
    assert got["c_a"] == want["c_a"]  # dict equality on floats is bitwise here


def verify_on_full_lattice(rho, tau, n_r, n_t):
    """The certificate as it was computed before rows and columns were
    deduplicated: every lattice field is the outer product of the factors
    over all n_r radii and all n_t times."""
    cf = CutoffFunction(rho=rho, tau=tau)
    r = np.linspace(0.0, R_MAX_FACTOR * rho, n_r)
    t = np.linspace(0.0, T_MAX_FACTOR * tau, n_t)
    eta, zeta = cf.eta(r), cf.zeta(t)
    psi = np.multiply.outer(eta, zeta)
    dpsi_dt = np.multiply.outer(eta, cf.zeta_dt(t))
    dpsi_dr = np.multiply.outer(cf.eta_dr(r), zeta)
    dpsi_drr = np.multiply.outer(cf.eta_drr(r), zeta)

    shape = (n_r, n_t)
    inner = np.broadcast_to((r <= 0.5 * rho)[:, None], shape)
    late = np.broadcast_to((t >= tau)[None, :], shape)
    outside = np.broadcast_to((r >= rho)[:, None], shape)
    pos = psi > 0.0

    report = {
        "rho": rho,
        "tau": tau,
        "n_r": n_r,
        "n_t": n_t,
        "range_ok": bool(np.all((psi >= 0.0) & (psi <= 1.0))),
        "plateau_ok": bool(np.all(psi[inner & late] == 1.0)),
        "support_ok": bool(np.all(psi[outside] == 0.0))
        and bool(np.all(cf.value(r, 0.0) == 0.0)),
        "dr_zero_inner_ok": bool(np.all(dpsi_dr[inner] == 0.0)),
        "monotone_r_ok": bool(np.all(dpsi_dr <= 0.0)),
    }

    # time bound: |dPsi/dt| * tau <= 2 sqrt(Psi), sharp on the inner ramp
    cbar = np.max(np.abs(dpsi_dt[pos]) * tau / np.sqrt(psi[pos]))
    report["cbar_time"] = float(cbar)
    report["cbar_time_ok"] = bool(cbar <= 2.0 + 1e-9)

    report["c_r1"] = float(np.max(np.abs(dpsi_dr)) * rho)
    report["c_r2"] = float(np.max(np.abs(dpsi_drr)) * rho**2)

    c_a = {}
    for a in EXPONENTS:
        vals = np.abs(dpsi_dr[pos]) * rho / psi[pos] ** a
        c_a[float(a)] = float(np.max(vals))
    report["c_a"] = c_a
    report["c_a_finite_ok"] = bool(all(np.isfinite(v) for v in c_a.values()))

    report["ok"] = bool(
        report["range_ok"]
        and report["plateau_ok"]
        and report["support_ok"]
        and report["dr_zero_inner_ok"]
        and report["cbar_time_ok"]
        and report["c_a_finite_ok"]
        and np.isfinite(report["c_r1"])
        and np.isfinite(report["c_r2"])
    )
    return report


# admissible scales: 10^-150 to 10^150, whose squares and inverse squares
# stay well inside the double range
scales = st.floats(-150.0, 150.0).map(lambda e: float(10.0**e))
sides = st.integers(2, 700)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(rho=scales, tau=scales, n_r=sides, n_t=sides)
def test_distinct_rows_and_columns_give_the_full_lattice_report(rho, tau, n_r, n_t):
    got = cutoff_verify(rho, tau, n_r=n_r, n_t=n_t)
    assert dumps(got) == dumps(verify_on_full_lattice(rho, tau, n_r, n_t))


@pytest.mark.parametrize("rho, tau, n_r, n_t", [
    (1.0, 0.1, 2, 2), (1.0, 0.1, 3, 7), (1.0, 0.1, 512, 512), (0.3, 0.05, 512, 512),
    (1.0, 0.1, LATTICE_LIMIT, LATTICE_LIMIT),
])
def test_distinct_rows_and_columns_on_the_lattices_in_use(rho, tau, n_r, n_t):
    got = cutoff_verify(rho, tau, n_r=n_r, n_t=n_t)
    assert dumps(got) == dumps(verify_on_full_lattice(rho, tau, n_r, n_t))
    assert (got["n_r"], got["n_t"]) == (n_r, n_t)


def row_blocks(rho, tau, n_r, n_t):
    """(distinct rows, rows per block, Psi > 0 entries of the last block) of
    the fits in cutoff_verify."""
    cf = CutoffFunction(rho, tau)
    r = np.linspace(0.0, R_MAX_FACTOR * rho, n_r)
    t = np.linspace(0.0, T_MAX_FACTOR * tau, n_t)
    radial = cf.eta(r), cf.eta_dr(r), cf.eta_drr(r), r <= 0.5 * rho, r >= rho
    temporal = cf.zeta(t), cf.zeta_dt(t), t >= tau
    eta = radial[0][cutoff._distinct(*radial)]
    zeta = temporal[0][cutoff._distinct(*temporal)]
    step = max(1, cutoff._BLOCK_ENTRIES // len(zeta))
    last = np.multiply.outer(eta[(len(eta) - 1) // step * step:], zeta)
    return len(eta), step, int(np.count_nonzero(last > 0.0))


@pytest.mark.parametrize("rho, tau, n_r, n_t, edge", [
    (1.0, 0.1, 300, 200, "ragged"),   # 122 distinct rows in blocks of 81
    (1.0, 0.1, 150, 512, "whole"),    # 62 distinct rows in blocks of 31
    (1.0, 0.1, 75, 512, "no_psi"),    # the last block is the outside row alone
    (0.3, 0.05, 5, LATTICE_LIMIT, "ragged"),
    (2.5, 0.7, 2, 300, "one_block"),
    (1.0, 0.1, 2, LATTICE_LIMIT, "one_block"),
])
def test_row_blocks_give_the_full_lattice_report(rho, tau, n_r, n_t, edge):
    n_rows, step, last_positive = row_blocks(rho, tau, n_r, n_t)
    assert {"ragged": n_rows % step != 0 and last_positive > 0,
            "whole": n_rows % step == 0 and n_rows > step,
            "no_psi": n_rows > step and last_positive == 0,
            "one_block": n_rows <= step}[edge]
    got = cutoff_verify(rho, tau, n_r=n_r, n_t=n_t)
    assert dumps(got) == dumps(verify_on_full_lattice(rho, tau, n_r, n_t))


def test_the_certificate_memory_is_bounded_by_the_block_not_the_lattice():
    # numpy reports its buffers to tracemalloc; a (distinct rows x columns)
    # field at this side is 6.7 MB, and the certificate used to peak near 40 MB
    cutoff_verify(1.0, 0.1, LATTICE_LIMIT, LATTICE_LIMIT)
    tracemalloc.start()
    try:
        cutoff_verify(1.0, 0.1, LATTICE_LIMIT, LATTICE_LIMIT)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


@pytest.mark.parametrize("n", [0, 1, LATTICE_LIMIT + 1, 10**9, 2.0, True])
def test_lattice_outside_its_range_is_refused(n):
    with pytest.raises(ValueError, match=f"lattice must be an integer from 2 to {LATTICE_LIMIT}"):
        cutoff_verify(1.0, 0.1, n_r=n, n_t=64)
    with pytest.raises(ValueError, match="lattice"):
        cutoff_verify(1.0, 0.1, n_r=64, n_t=n)
