"""Exception types shared across the package.

Every precondition failure raises a subclass of ``DomainError`` so callers
can distinguish bad inputs (exit code 2 territory) from numerical failures
(``ConvergenceError``/``RefinementError``, exit code 3 territory).

A gate over a stack of n slices is a pair ``(ok, refuse)``: ``ok`` holds
one bool per slice, and ``refuse(k)`` builds the exception of a failing
slice k, computing its exact defect only then.  ``bound_gate`` makes the
pair for defects that are already computed, ``linalg.norm_gate`` for an
operator-norm bound.  ``refusals`` gives, per slice, the refusal of the
first gate that slice fails, or None; ``require_one`` and ``require_each``
raise the first refusal, the latter naming its trial (``trial k: ...``).
Every refusal reports the size of its defect.
"""

from collections.abc import Callable, Sequence

import numpy as np

Gate = tuple[np.ndarray, Callable[[int], Exception]]


class DomainError(ValueError):
    """An input violates a mathematical precondition."""


class BranchCutError(DomainError):
    """A unitary has spectrum too close to -1 for the principal logarithm."""

    def __init__(self, message: str, eigenvalue: complex | None = None):
        super().__init__(message)
        self.eigenvalue = eigenvalue


class RadiusError(DomainError):
    """An input lies outside the locality radius of a chart or section."""


class MembershipError(DomainError):
    """A matrix is not in the algebra span it was claimed to belong to."""

    def __init__(self, message: str, defect: float = float("nan")):
        super().__init__(message)
        self.defect = defect


class ConstructionError(RuntimeError):
    """The basic construction failed one of its defining properties."""


class ConvergenceError(RuntimeError):
    """An iterative solver stopped without reaching its tolerance."""

    def __init__(
        self,
        message: str,
        residual: float = float("nan"),
        iterations: int = 0,
        backtracks: int = 0,
    ):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations
        self.backtracks = backtracks


class RefinementError(RuntimeError):
    """A discretized result failed its post-hoc check; refine the grid."""


class ConfigError(ValueError):
    """A run configuration is malformed or incomplete."""


def require_one(refusals: Sequence[Exception | None]) -> None:
    """Raise the refusal of a stack of one, if any."""
    (refusal,) = refusals
    if refusal is not None:
        raise refusal


def require_each(refusals: Sequence[Exception | None], first: int = 0) -> None:
    """Raise the first refusal of a stacked call, its message naming the
    trial (first + its index in the stack)."""
    for k, refusal in enumerate(refusals):
        if refusal is not None:
            refusal.args = (f"trial {first + k}: {refusal.args[0]}",) + refusal.args[1:]
            raise refusal


def refusals(n: int, *gates: Gate) -> list[Exception | None]:
    """Per slice of a stack of n: the refusal of the first gate (ok, refuse)
    whose ok is False there, or None; refuse runs for failing slices only."""
    return [next((refuse(k) for ok, refuse in gates if not ok[k]), None) for k in range(n)]


def bound_gate(
    defects: np.ndarray, tol: float, message: str, error: type[Exception] = DomainError
) -> Gate:
    """The gate defect <= tol over an array of computed defects, one per
    slice; a refusal is error(message.format(defect))."""
    defects = np.asarray(defects)
    return defects <= tol, lambda k: error(message.format(defects[k]))
