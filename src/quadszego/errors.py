"""Exception types shared across the package.

Every failure mode that a caller may want to branch on carries a stable
machine-readable ``code`` string, which the CLI forwards into its failure
lists.
"""

from __future__ import annotations


class QuadSzegoError(Exception):
    """Base class for all package-specific errors."""

    code = "ERROR"


class TruncationTooSmall(QuadSzegoError):
    """Requested truncation cannot resolve the geometric tail of a profile."""

    code = "TRUNC_TOO_SMALL"


class PoleCollision(QuadSzegoError):
    """Two poles of a rational profile coincide within tolerance."""

    code = "POLE_COLLISION"


class PoleOutsideDisc(QuadSzegoError):
    """A constructed pole left the open unit disc (internal consistency failure)."""

    code = "POLE_OUTSIDE"


class ExtendedPrecisionUnavailable(QuadSzegoError):
    """The computation needs 80-bit floats and numpy has no ``float128`` here."""

    code = "NO_FLOAT128"


class MeasureMismatch(QuadSzegoError):
    """Arc measures disagree with the requested total measure."""

    code = "MEASURE_MISMATCH"


class NotEigenvector(QuadSzegoError):
    """Input is not an eigenvector of the checked operator, so it cannot be a
    traveling-wave profile for the supplied ratio pulsation/velocity."""

    code = "NOT_EIGENVECTOR"


class DriftExceeded(QuadSzegoError):
    """A monitored conserved quantity drifted beyond the configured tolerance."""

    code = "DRIFT_EXCEEDED"


class NonFiniteState(QuadSzegoError):
    """A state coefficient became NaN or infinite during integration."""

    code = "NONFINITE"


class DegenerateState(QuadSzegoError):
    """A reduced state approached the boundary of its admissible set."""

    code = "DEGENERATE"


class TrajectoryTooShort(QuadSzegoError):
    """A trajectory has fewer samples than a finite-difference stencil needs."""

    code = "TRAJ_TOO_SHORT"
