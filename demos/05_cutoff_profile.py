"""The space-time cutoff behind the local estimate.

The localization argument needs a bump psi(r, t) = eta(r) zeta(t) that is 1
on the inner half-ball for late times, vanishes outside the full ball, and
whose derivatives are controlled by explicit inverse powers of rho and tau.
Those controls are what make the local constant rho-independent, so we
verify them on a dense lattice and print the certified constants.  They are
scale-free: the same numbers come out for any (rho, tau).

Run:  python3 demos/05_cutoff_profile.py
"""

from rhflow.cutoff import CutoffFunction, cutoff_verify

rho, tau = 1.5, 0.1
cert = cutoff_verify(rho, tau, n_r=512, n_t=512)
print(f"== certificate for rho={rho}, tau={tau} on a 512x512 lattice ==")
print(f"overall ok: {cert['ok']}")
print(f"range/plateau/support/monotone flags: "
      f"{cert['range_ok']}/{cert['plateau_ok']}/{cert['support_ok']}/"
      f"{cert['monotone_r_ok']}")
print(f"time constant     max tau |Psi_t| / sqrt(Psi)  = {cert['cbar_time']:.6f}"
      f"  (must be <= 2)")
print(f"radial constants  max rho |Psi_r|              = {cert['c_r1']:.6f}")
print(f"                  max rho^2 |Psi_rr|           = {cert['c_r2']:.6f}")
print("fractional controls  max rho |Psi_r| / Psi^a over Psi > 0:")
for a, v in cert["c_a"].items():
    print(f"    a = {a:4.2f}: {v:.6f}")

print()
print("== the same constants at a different scale ==")
cert2 = cutoff_verify(7.0, 0.55, n_r=512, n_t=512)
print(f"rho=7.0, tau=0.55:  cbar={cert2['cbar_time']:.6f}, "
      f"c_r1={cert2['c_r1']:.6f}, c_r2={cert2['c_r2']:.6f}")

print()
print("== profile samples ==")
psi = CutoffFunction(rho, tau)
print("   r/rho    eta(r)        t/tau    zeta(t)")
for k in range(7):
    r = rho * (0.3 + 0.12 * k)
    t = tau * (0.15 * (k + 1))
    print(f"   {r / rho:5.2f}   {psi.eta(r):8.5f}      {t / tau:5.2f}   "
          f"{psi.zeta(t):8.5f}")
print("(plateau through r = rho/2, gone by r = rho; zeta ramps as (t/tau)^2)")
