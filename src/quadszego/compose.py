"""Composition with monomial inner functions and the flow-commutation check.

Substituting ``z -> z^N`` dilates Fourier indices by ``N``.  On coefficients
this is an exact isometry, multiplicative on products, and leaves the cubic
functional J untouched, so it commutes with the flow: evolving then composing
equals composing then evolving.  Only monomials are implemented; general
inner-function composition would need grid evaluation plus re-projection and
adds nothing to the checks performed here.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .dynamics import SimulationConfig, integrate
from .hardy import HardyCoefficients

__all__ = ["compose_zN", "verify_flow_commutation"]


def compose_zN(u: HardyCoefficients, n: int) -> HardyCoefficients:
    """Coefficient dilation ``u_hat(k) -> index k N``; trunc becomes ``(M-1)N + 1``."""
    if n < 1:
        raise ValueError("N must be a positive integer")
    if n == 1:
        return u
    out = np.zeros((u.trunc - 1) * n + 1, dtype=np.complex128)
    out[::n] = u.coeffs
    return HardyCoefficients(out)


def verify_flow_commutation(u0: HardyCoefficients, n: int, cfg: SimulationConfig) -> float:
    """Sup over snapshots of ``|| (u(t))(z^N) - w(t) ||`` where ``w`` starts
    from the composed datum.

    ``cfg.trunc`` applies to the base trajectory; the composed one runs at the
    dilated truncation ``(trunc - 1) N + 1`` so both resolve the same modes.
    """
    base = integrate(u0, cfg)
    comp = integrate(compose_zN(u0.truncated(cfg.trunc), n), replace(cfg, trunc=(cfg.trunc - 1) * n + 1))
    gap = 0.0
    for su, sw in zip(base.states, comp.states):
        m = sw.trunc
        gap = max(gap, float(np.linalg.norm(compose_zN(su, n).padded(m) - sw.coeffs)))
    return gap
