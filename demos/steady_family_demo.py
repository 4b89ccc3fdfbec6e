"""The explicit two-codimension family of equilibrium points.

Equilibria are exactly the zero-J states.  Inside the three-parameter class
they form the family swept by a scale, two angles, and theta in [0, pi/3);
each member must satisfy |J| ~ 0 and a vanishing flow derivative.  As theta
approaches pi/3 the pole modulus P(theta) tends to 1 and the needed
truncation grows like 1/(1-P); the verifier takes the family constants and
the coefficients from 80-bit arithmetic there, because rounding P to double
already moves the state off the equilibrium set by more than the target
tolerance.  The products that give |J| and the flow stay double precision:
rounding each finished coefficient is an unstructured error that moves J by
round-off only.
"""

import numpy as np

from quadszego import conserved, is_steady, rhs
from quadszego.steady import SteadyV3Params, family_constants, explicit_example, steadiness_measure

print("the explicit example  -sqrt(3)/3 + (4/(3 sqrt(11))) z / (1 - (5/sqrt(33)) z):")
u = explicit_example(512)
print(f"  |J| = {abs(conserved(u).J):.2e}   flow norm = {rhs(u).norm():.2e}   steady: {is_steady(u, 1e-13)}")

print("\ntheta sweep (last point is the 50-point grid's closest approach to pi/3):")
for theta in [0.0, 0.3, np.pi / 6, 0.8, 1.0, np.pi / 3 * 49 / 50]:
    mean, c, p = family_constants(theta)
    meas = steadiness_measure(SteadyV3Params(scale=1.0, a=0.0, b_angle=0.0, theta=theta))
    tag = " [extended precision]" if meas.extended else ""
    print(f"  theta={theta:.4f}  P={p:.8f}  trunc={meas.trunc:>8}  "
          f"|J|={meas.abs_j:.2e}  |flow|={meas.rhs_norm:.2e}{tag}")

print("\ntheta = 0 degenerates to the steady monomial u = z:")
mean, c, p = family_constants(0.0)
print(f"  mean={mean}, C={c}, P={p}")
