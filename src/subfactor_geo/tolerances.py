"""Numerical tolerances used across the package.

All defect checks measure the spectral norm of a defect matrix and compare
against an absolute tolerance.  A run config may override the spectral
tolerance for the duration of a run.
"""

# Absolute spectral-norm tolerance for algebraic identity checks.
DEFAULT_SPECTRAL_TOL = 1e-10
# Radians of clearance required between unitary spectrum and -1 before the
# principal logarithm refuses to pick a branch.
ANGLE_GUARD = 1e-8
# Post-hoc reconstruction tolerance for horizontal lifts.
LIFT_TOL = 1e-6
# Membership defect allowed when projecting onto a spanned subalgebra.
MEMBERSHIP_TOL = 1e-8
# Gram-Schmidt drop tolerance: candidate directions with smaller residual
# norm are treated as linearly dependent.
GRAM_DROP_TOL = 1e-9

_spectral_tol = DEFAULT_SPECTRAL_TOL


def spectral_tol() -> float:
    """Current global spectral tolerance."""
    return _spectral_tol


def set_spectral_tol(value: float) -> None:
    global _spectral_tol
    if not value > 0:
        raise ValueError(f"tolerance must be positive, got {value}")
    _spectral_tol = value


def reset_spectral_tol() -> None:
    global _spectral_tol
    _spectral_tol = DEFAULT_SPECTRAL_TOL
