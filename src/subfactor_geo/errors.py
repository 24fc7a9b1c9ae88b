"""Exception types shared across the package.

Every precondition failure raises a subclass of ``DomainError`` so callers
can distinguish bad inputs (exit code 2 territory) from numerical failures
(``ConvergenceError``/``RefinementError``, exit code 3 territory).

A gate that decides for each slice of a stack collects one refusal (an
exception, or None) per slice; ``require_one`` and ``require_each`` raise
the first, the latter naming its trial.
"""

from collections.abc import Sequence


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
