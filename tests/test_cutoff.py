"""Space-time cutoff profile: plateau, support, the exact time-ramp constant,
and finite-difference cross-checks of the hand-written radial derivatives.

The time ramp (t/tau)^2 gives zeta_dt * ? <= 2/tau... more precisely
zeta_dt / sqrt(zeta) = 2/tau everywhere on the ramp, so the certified
constant is exactly 2 and any excess is a bug, not discretization.
"""

import numpy as np
import pytest

from rhflow.cutoff import LATTICE_LIMIT, CutoffFunction, cutoff_verify


def test_validation():
    with pytest.raises(ValueError):
        CutoffFunction(0.0, 0.1)
    with pytest.raises(ValueError):
        CutoffFunction(1.0, -0.1)


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


@pytest.mark.parametrize("n", [0, 1, LATTICE_LIMIT + 1, 10**9, 2.0, True])
def test_lattice_outside_its_range_is_refused(n):
    with pytest.raises(ValueError, match=f"lattice must be an integer from 2 to {LATTICE_LIMIT}"):
        cutoff_verify(1.0, 0.1, n_r=n, n_t=64)
    with pytest.raises(ValueError, match="lattice"):
        cutoff_verify(1.0, 0.1, n_r=64, n_t=n)
