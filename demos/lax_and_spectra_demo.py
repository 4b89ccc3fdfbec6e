"""Operator identities and the finite-rank spectral picture.

With X(u) = 2 Pi(|u|^2) + u^2, the shifted-Hankel and Hankel operators obey
    K_X = A_u K_u + K_u A_u,
    H_X = A_u H_u + H_u A_u - (u|.) u,
which is what forces rank and spectrum conservation along the flow.  On the
leading block the truncated matrices satisfy these identities to round-off;
the full-matrix residual tracks the symbol tail and collapses as the
truncation grows.
"""

import numpy as np

from quadszego import HardyCoefficients, spectral_report, verify_lax

u = HardyCoefficients(0.9 ** np.arange(256))
print("pole at 0.9, M=256:")
print("  leading 64x64 block residuals (K, H):", verify_lax(u, block=64))
for m in (128, 256, 512):
    res = verify_lax(HardyCoefficients(0.9 ** np.arange(m)))
    print(f"  full-matrix residuals at M={m}: K={res[0]:.2e}  H={res[1]:.2e}")

print("\nrank structure by class:")
cases = {
    "ground state 1/(1-z/2)": 0.5 ** np.arange(64),
    "mean + pole (3-parameter class)": np.concatenate([[1.0], 0.5 ** np.arange(63)]),
}
for name, coeffs in cases.items():
    rep = spectral_report(HardyCoefficients(coeffs))
    print(f"  {name}: rank_H={rep.rank_H} rank_K={rep.rank_K}")

print("\nthree-pole profile 3/(1 - 0.4 z^3): one K-level of multiplicity 3")
arr = np.zeros(512, dtype=complex)
arr[::3] = 3.0 * 0.4 ** np.arange(len(arr[::3]))
rep = spectral_report(HardyCoefficients(arr))
for d in rep.dominance:
    print(f"  level {d.sigma2:.6f}: label {d.label}, dim_E={d.dim_E}, dim_F={d.dim_F}")
print("  reconstruction from K-dominant projections:",
      np.linalg.norm(sum(p.padded(512) for p in rep.projections.values()) - arr))
