"""Space-time cutoff profile with analytic derivatives.

The profile is a product Psi(r, t) = eta(r) * zeta(t):

    zeta(t) = (t / tau)^2 on [0, tau], then 1
    eta(r)  = 1 on [0, rho/2],
              exp(1 - 1/(1 - s^2)) with s = (2r - rho)/rho on (rho/2, rho),
              0 from rho on.

It vanishes at t = 0 and outside the ball of radius rho, equals 1 on the
half ball for t >= tau, and its derivatives obey the bounds the local
estimate's integration-by-parts argument needs:

    |d/dt Psi| <= 2 Psi^(1/2) / tau             (the constant 2 is sharp)
    |d/dr Psi| <= C_a Psi^a / rho               (finite for every a in (0,1))
    |d2/dr2 Psi| <= C / rho^2

All derivatives are exact formulas, not differences; `cutoff_verify`
confirms the bounds on a dense lattice and fits the constants.  Since the
profile is a product, the lattice values are outer products of the factors
evaluated once per r and once per t, over distinct rows x columns only
(the plateau, the outside and the times past the ramp repeat, each in one
run).  No field of that whole lattice is formed: the flags read only the
rows and columns they test, and the fits run over blocks of rows, so the
memory a certificate takes is bounded by the block, not by the lattice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import check_int_range
from .scenarios import number

# Largest lattice side `cutoff_verify` accepts.  Its memory does not grow
# with the lattice past the 1-D factors: the fits hold a few temporaries of
# one block of rows, about _BLOCK_ENTRIES doubles (64 KB) each, a size the
# heap keeps between calls rather than returning it to the system.
LATTICE_LIMIT = 2048
_BLOCK_ENTRIES = 8192
# The lattice spans r in [0, 1.25 rho] and t in [0, 2 tau], and C_a is fitted
# for these exponents a.
R_MAX_FACTOR = 1.25
T_MAX_FACTOR = 2.0
EXPONENTS = (0.25, 0.5, 0.75)
# `check_scale` needs these numerators over rho^2 and tau^2 finite and
# nonzero: zeta_dt is 2 t / tau^2, and rho^2 |eta_drr| peaks near 84 (the
# certificate's c_r2), so 128 keeps eta_drr finite.
SCALE_NUMERATORS = {"rho": 128.0, "tau": 2.0}


def check_scale(name: str, value) -> float:
    """A cutoff radius ("rho") or ramp time ("tau") as a float, else a
    ValueError naming it.  It is read by `scenarios.number`, so a bool or a
    string is refused, and it must be positive, with its square and the
    numerator over its square finite and nonzero, so the derivatives neither
    overflow nor lose their scale."""
    value = number(value, name)
    if not value > 0:
        raise ValueError(f"{name} must be a positive finite number, got {value!r}")
    with np.errstate(all="ignore"):
        square = np.float64(value) ** 2
        scaled = SCALE_NUMERATORS[name] / square
    if not (0 < square < np.inf and 0 < scaled < np.inf):
        raise ValueError(
            f"{name} = {value!r} is out of range: {name}^2 and "
            f"{SCALE_NUMERATORS[name]:g}/{name}^2 must be finite and nonzero")
    return value


@dataclass(frozen=True)
class CutoffFunction:
    """Radial space-time cutoff, radius rho, temporal ramp length tau, both
    held as the floats `check_scale` reads."""

    rho: float
    tau: float

    def __post_init__(self):
        for name in ("rho", "tau"):
            object.__setattr__(self, name, check_scale(name, getattr(self, name)))

    # -- temporal factor -------------------------------------------------

    def zeta(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        out = np.clip(t / self.tau, 0.0, None) ** 2
        return np.where(t >= self.tau, 1.0, out)

    def zeta_dt(self, t) -> np.ndarray:
        """One-sided (left) value is used at the kink t = tau, where the
        time bound is attained."""
        t = np.asarray(t, dtype=float)
        ramp = 2.0 * np.clip(t, 0.0, None) / self.tau**2
        return np.where((t > self.tau) | (t < 0.0), 0.0, ramp)

    # -- radial factor ---------------------------------------------------

    def _s(self, r) -> np.ndarray:
        return (2.0 * np.asarray(r, dtype=float) - self.rho) / self.rho

    def eta(self, r) -> np.ndarray:
        s = self._s(r)
        inner = s <= 0.0
        outer = s >= 1.0
        mid = ~inner & ~outer
        s_safe = np.where(mid, s, 0.5)
        w = 1.0 - 1.0 / (1.0 - s_safe**2)
        out = np.where(mid, np.exp(w), 0.0)
        return np.where(inner, 1.0, out)

    def eta_dr(self, r) -> np.ndarray:
        s = self._s(r)
        mid = (s > 0.0) & (s < 1.0)
        s_safe = np.where(mid, s, 0.5)
        one = 1.0 - s_safe**2
        w = 1.0 - 1.0 / one
        wp = -2.0 * s_safe / one**2
        val = np.exp(w) * wp * (2.0 / self.rho)
        return np.where(mid, val, 0.0)

    def eta_drr(self, r) -> np.ndarray:
        s = self._s(r)
        mid = (s > 0.0) & (s < 1.0)
        s_safe = np.where(mid, s, 0.5)
        one = 1.0 - s_safe**2
        w = 1.0 - 1.0 / one
        wp = -2.0 * s_safe / one**2
        wpp = -2.0 * (1.0 + 3.0 * s_safe**2) / one**3
        val = np.exp(w) * (wp * wp + wpp) * (4.0 / self.rho**2)
        return np.where(mid, val, 0.0)

    # -- product ----------------------------------------------------------

    def value(self, r, t) -> np.ndarray:
        return self.eta(r) * self.zeta(t)

    def dt(self, r, t) -> np.ndarray:
        return self.eta(r) * self.zeta_dt(t)

    def dr(self, r, t) -> np.ndarray:
        return self.eta_dr(r) * self.zeta(t)

    def drr(self, r, t) -> np.ndarray:
        return self.eta_drr(r) * self.zeta(t)


def _distinct(*fields) -> np.ndarray:
    """Ascending indices of the first position of each run of equal
    consecutive tuples of bit patterns the 1-D ``fields`` (floats or bools,
    one length) take: every tuple they take is at one of them."""
    bits = np.stack([np.asarray(f, dtype=np.float64).view(np.int64) for f in fields], axis=1)
    return np.flatnonzero(np.concatenate(([True], np.any(bits[1:] != bits[:-1], axis=1))))


def _product_range(x: np.ndarray, y: np.ndarray) -> tuple:
    """The smallest and the largest fl(x_i y_j) over all i, j, from the
    extremes of x and y: the exact product is extreme at a corner of the
    box they span and rounding is monotone, so no lattice is formed.  A NaN
    in x or y makes both NaN, as it would make the lattice's extremes."""
    corners = np.multiply.outer([np.min(x), np.max(x)], [np.min(y), np.max(y)])
    return np.min(corners), np.max(corners)


def _fit_maxima(eta, eta_dr, zeta, zeta_dt, rho, tau) -> list:
    """Per block of about _BLOCK_ENTRIES lattice entries, whole rows of the
    distinct lattice, the maxima over its Psi > 0 entries of
    tau |dPsi/dt| / sqrt(Psi) and of rho |dPsi/dr| / Psi^a for each a in
    EXPONENTS; a block with no Psi > 0 entry gives none.  Psi > 0 is
    gathered once per block, as are rho |dPsi/dr| and sqrt(Psi) (Psi ** 0.5
    is the same square root), and each quotient is formed in place in one
    buffer."""
    step = max(1, _BLOCK_ENTRIES // len(zeta))
    maxima = []
    for lo in range(0, len(eta), step):
        rows = slice(lo, lo + step)
        psi = np.multiply.outer(eta[rows], zeta)
        pos = psi > 0.0
        if not pos.any():
            continue
        psi_pos = psi[pos]
        root = np.sqrt(psi_pos)
        slope = np.multiply.outer(eta_dr[rows], zeta)[pos]
        slope *= rho
        np.abs(slope, out=slope)
        ratio = np.multiply.outer(eta[rows], zeta_dt)[pos]
        np.abs(ratio, out=ratio)
        ratio *= tau
        ratio /= root
        block = [np.max(ratio)]
        for a in EXPONENTS:
            power = root if a == 0.5 else np.power(psi_pos, a, out=ratio)
            block.append(np.max(np.divide(slope, power, out=ratio)))
        maxima.append(block)
    return maxima


def cutoff_verify(rho: float, tau: float, n_r: int = 512, n_t: int = 512) -> dict:
    """Verify the cutoff's structural properties on a dense (r, t) lattice.

    Returns fitted constants (time bound, first/second radial bounds, and
    C_a for each exponent a in EXPONENTS) plus booleans for the support,
    range, and plateau requirements.  Fits use only points where Psi > 0;
    the profile decays faster than any power, so every C_a is finite.
    n_r and n_t must be integers from 2 to LATTICE_LIMIT.

    The radial factors are evaluated on the n_r radii and the temporal ones
    on the n_t times.  A lattice row depends only on (eta, eta_r, eta_rr,
    r <= rho/2, r >= rho) and a column only on (zeta, zeta_t, t >= tau), so
    the lattice fields are outer products over the distinct rows x distinct
    columns, a row or column standing for the run of equal ones that it
    starts (bit patterns, not values, decide what is equal).  Each entry
    equals bit for bit the product evaluated at its (r, t), and every value
    the report holds is an `all` or a `max` over the lattice, so it is the
    full lattice's; ``n_r`` and ``n_t`` echo the requested sides, and
    ``rho`` and ``tau`` the floats `check_scale` reads.

    Not even the distinct lattice is formed whole.  The flags are outer
    products of the rows and columns they read only (the inner-row prefix
    with the late columns, the outside-row suffix), and the fits run over
    blocks of rows (`_fit_maxima`), each entry with the same operations in
    the same order; the report takes the max of the blocks' maxima.  So the
    memory is bounded by the block, not by the lattice.
    """
    check_int_range("lattice", n_r, 2, LATTICE_LIMIT)
    check_int_range("lattice", n_t, 2, LATTICE_LIMIT)
    cf = CutoffFunction(rho=rho, tau=tau)
    rho, tau = cf.rho, cf.tau
    r = np.linspace(0.0, R_MAX_FACTOR * rho, n_r)
    t = np.linspace(0.0, T_MAX_FACTOR * tau, n_t)
    radial = cf.eta(r), cf.eta_dr(r), cf.eta_drr(r), r <= 0.5 * rho, r >= rho
    temporal = cf.zeta(t), cf.zeta_dt(t), t >= tau
    rows, cols = _distinct(*radial), _distinct(*temporal)
    eta, eta_dr, eta_drr, inner, outside = (a[rows] for a in radial)
    zeta, zeta_dt, late = (a[cols] for a in temporal)
    # r and t ascend, so the inner and outside rows are a prefix and a
    # suffix of the distinct ones, and the late columns a suffix
    n_inner, n_outside = int(np.count_nonzero(inner)), int(np.count_nonzero(outside))
    n_early = int(np.count_nonzero(~late))
    psi_lo, psi_hi = _product_range(eta, zeta)
    dr_hi = _product_range(eta_dr, zeta)[1]

    report = {
        "rho": rho,
        "tau": tau,
        "n_r": n_r,
        "n_t": n_t,
        "range_ok": bool(psi_lo >= 0.0) and bool(psi_hi <= 1.0),
        "plateau_ok": bool(np.all(np.multiply.outer(eta[:n_inner], zeta[n_early:]) == 1.0)),
        "support_ok": bool(np.all(np.multiply.outer(eta[len(eta) - n_outside:], zeta) == 0.0))
        and bool(np.all(radial[0] * cf.zeta(0.0) == 0.0)),
        "dr_zero_inner_ok": bool(np.all(np.multiply.outer(eta_dr[:n_inner], zeta) == 0.0)),
        "monotone_r_ok": bool(dr_hi <= 0.0),
    }

    # time bound: |dPsi/dt| * tau <= 2 sqrt(Psi), sharp on the inner ramp;
    # the max of the row blocks' maxima is the lattice's, NaN included, and
    # some block has Psi > 0, since Psi(0, 2 tau) = 1
    cbar, *fits = np.max(_fit_maxima(eta, eta_dr, zeta, zeta_dt, rho, tau), axis=0)
    report["cbar_time"] = float(cbar)
    report["cbar_time_ok"] = bool(cbar <= 2.0 + 1e-9)

    # |fl(x y)| = fl(|x| |y|) and rounding is monotone, so the largest
    # |dPsi/dr| and |d2Psi/dr2| are the products of their factors' largest
    top = np.max(np.abs(zeta))
    report["c_r1"] = float(np.max(np.abs(eta_dr)) * top * rho)
    report["c_r2"] = float(np.max(np.abs(eta_drr)) * top * rho**2)

    c_a = {float(a): float(fit) for a, fit in zip(EXPONENTS, fits)}
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
