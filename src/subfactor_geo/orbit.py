"""Geometry of the unitary orbit of the trace projection.

The orbit O(p) = {u p u* : u unitary in M} sits inside the extension
algebra as a set of projections q with E1(q) = lam * 1.  Its tangent space
at q is the image of the commutator map z -> zq - qz over horizontal
(expectation-free anti-Hermitian) directions z; the trace inner product
makes the orbit a weak Riemannian homogeneous space whose geodesics are
one-parameter conjugation curves.  This module provides the tangent
calculus, the metric projection, geodesics and their defining equation,
horizontal lifts of discrete curves, length and energy functionals, the
first variation of energy, a local logarithm, curve shortening, and the
minimality / convexity experiment drivers.  The tangent projection, kappa_q
and all that read them take E1 of a commutator with q from one kernel.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .algebra import (
    Inclusion,
    expectation_E,
    random_antihermitian,
    random_horizontal,
    random_unitary,
)
from .basic import BasicConstruction, recover_unitary
from .errors import (
    ConstructionError,
    ConvergenceError,
    DomainError,
    MembershipError,
    RadiusError,
    RefinementError,
    require_each,
    require_one,
)
from .linalg import (
    antiherm_defect,
    dagger,
    exp_family,
    herm_defect,
    log_unitary_principal,
    op_norm,
    op_norm_within,
    spectral_function,
    unitary_defect,
)
from .tolerances import (
    CONVEXITY_TOL,
    LENGTH_TOL,
    LIFT_TOL,
    MEMBERSHIP_TOL,
    PATH_UNITARY_TOL,
    SECTION_TOL,
    SPECTRAL_TOL,
    WITNESS_TOL,
)

__all__ = [
    "OrbitPoint",
    "DiscreteCurve",
    "base_point",
    "orbit_point_from_witness",
    "random_orbit_point",
    "translated_expectation",
    "random_horizontal_at",
    "horizontal_defect_at",
    "delta_q",
    "kappa_q",
    "tangent_projection",
    "tangent_projections",
    "kappas",
    "orbit_points",
    "tangent_vectors",
    "geodesic_at",
    "geodesic_endpoints",
    "sample_geodesic",
    "geodesic_equation_residual",
    "geodesic_with_residual",
    "curve_from_unitaries",
    "covariant_derivative",
    "horizontal_lift",
    "lift_with_defects",
    "lift_defects",
    "curve_lengths",
    "first_variation",
    "FirstVariationResult",
    "grassmann_section",
    "orbit_section_theta",
    "LOG_RADIUS",
    "orbit_log",
    "orbit_log_batch",
    "OrbitLogResult",
    "shorten_to_polygonal",
    "PolygonalResult",
    "minimality_experiment",
    "MinimalityReport",
    "trial_chunks",
    "CONVEXITY_RADIUS",
    "convexity_probe",
    "sample_convexity_triple",
    "ConvexityReport",
]

# Operator-norm radius of the local logarithm: orbit_log attempts endpoints
# at most this far apart, and shorten_to_polygonal keeps its arcs shorter.
LOG_RADIUS = 0.5
# Operator-norm window of the convexity statement: the squared log-distance
# to a geodesic has no concave node while the three unitaries are pairwise
# closer than this.
CONVEXITY_RADIUS = float(np.sqrt(2.0 - np.sqrt(2.0)))

# ---------------------------------------------------------------------------
# points and tangent vectors


@dataclass(frozen=True, eq=False)
class OrbitPoint:
    """A projection on the orbit, carried with one unitary witness."""

    bc: BasicConstruction
    q: np.ndarray        # (D, D) projection in the extension algebra
    witness: np.ndarray  # ambient unitary u in M with u p u* = q

    def __post_init__(self) -> None:
        (refusal,) = _point_refusals(self.bc, self.q[None], self.witness[None])
        if refusal is not None:
            raise refusal

    @property
    def lam(self) -> float:
        return self.bc.lam


def _point_refusals(
    bc: BasicConstruction, qs: np.ndarray, witnesses: np.ndarray
) -> list[DomainError | None]:
    """The gates of an orbit point, for each slice of an (n, D, D) stack of
    projections with its (n, m, m) stack of witnesses: per slice, the
    DomainError of the first gate it fails, or None.

    The gates, in order: q is a projection and tau1(q) = lam within
    SPECTRAL_TOL, E1(q) = lam * 1 within SPECTRAL_TOL, the witness u is
    unitary and u p u* = q within WITNESS_TOL.  The operator-norm gates
    decide through op_norm_within, so each decision equals the exact test.
    """
    lam = bc.lam
    traces = np.trace(qs, axis1=-2, axis2=-1) / bc.dim_l2
    gates = (
        (
            op_norm_within(qs @ qs - qs, SPECTRAL_TOL)
            & op_norm_within(qs - dagger(qs), SPECTRAL_TOL),
            lambda k: "orbit point is not a projection",
        ),
        (
            np.abs(traces - lam) <= SPECTRAL_TOL,
            lambda k: f"orbit point has trace {bc.tau1(qs[k]):.6f}, expected {lam:.6f}",
        ),
        (
            op_norm_within(bc._e1_unchecked(qs) - lam * np.eye(bc.dim_l2), SPECTRAL_TOL),
            lambda k: "orbit point fails E1(q) = lam * 1",
        ),
        (
            op_norm_within(dagger(witnesses) @ witnesses - bc.inc.identity(), WITNESS_TOL),
            lambda k: "witness is not unitary",
        ),
        (
            op_norm_within(_carried_projection(bc, witnesses) - qs, WITNESS_TOL),
            lambda k: "witness does not carry p to the stored projection",
        ),
    )
    refusals: list[DomainError | None] = []
    for k in range(len(qs)):
        failed = next((message for passed, message in gates if not passed[k]), None)
        refusals.append(None if failed is None else DomainError(failed(k)))
    return refusals


def base_point(bc: BasicConstruction) -> OrbitPoint:
    return OrbitPoint(bc=bc, q=bc.jones_p.copy(), witness=bc.inc.identity())


def _carried_projection(bc: BasicConstruction, u: np.ndarray) -> np.ndarray:
    """u p u*, the projection a witness u carries p to."""
    lu = bc.left(u)
    return lu @ bc.jones_p @ dagger(lu)


def orbit_point_from_witness(bc: BasicConstruction, u: np.ndarray) -> OrbitPoint:
    return OrbitPoint(bc=bc, q=_carried_projection(bc, u), witness=u)


def random_orbit_point(
    bc: BasicConstruction, rng: np.random.Generator, scale: float = 0.7
) -> OrbitPoint:
    return orbit_point_from_witness(bc, random_unitary(rng, bc.inc.amb_basis, scale))


def _translated(inc: Inclusion, u: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Ad_u o E o Ad_{u*} applied to x."""
    return u @ expectation_E(inc, dagger(u) @ x @ u) @ dagger(u)


def translated_expectation(point: OrbitPoint, x: np.ndarray) -> np.ndarray:
    """E_q = Ad_u o E o Ad_{u*}, the expectation aligned with the point."""
    return _translated(point.bc.inc, point.witness, x)


def horizontal_defect_at(point: OrbitPoint, z: np.ndarray) -> float:
    return _horizontal_defect(point.bc.inc, point.witness, z)


def _horizontal_defect(inc: Inclusion, witness: np.ndarray, z: np.ndarray) -> float:
    return max(antiherm_defect(z), inc.two_norm(_translated(inc, witness, z)))


def _horizontal_within(inc: Inclusion, witnesses: np.ndarray, zs: np.ndarray) -> np.ndarray:
    """horizontal_defect_at <= WITNESS_TOL for each slice z of an (n, m, m)
    stack, at the point of one witness or of the matching slice of an
    (n, m, m) stack of witnesses; the anti-Hermitian part is decided through
    op_norm_within."""
    return op_norm_within(zs + dagger(zs), WITNESS_TOL) & (
        inc.two_norm(_translated(inc, witnesses, zs)) <= WITNESS_TOL
    )


def _horizontal_refusals(
    inc: Inclusion, witnesses: np.ndarray, zs: np.ndarray
) -> list[DomainError | None]:
    """Per slice z of an (n, m, m) stack, at the points as in
    _horizontal_within: None if z is horizontal there, else the DomainError
    naming its exact horizontal_defect_at."""
    message = "direction is not horizontal at the point (defect {:.3e})"
    within = _horizontal_within(inc, witnesses, zs)
    return [
        None if ok else DomainError(message.format(_horizontal_defect(inc, w, z)))
        for ok, w, z in zip(within, np.broadcast_to(witnesses, zs.shape), zs)
    ]


def _direction_refusals(point: OrbitPoint, zs: np.ndarray) -> list[DomainError | None]:
    """Per slice z of an (n, m, m) stack: None if a geodesic can leave the
    point along z, else the DomainError of the first gate z fails.  z must
    be horizontal at the point (refused as _horizontal_refusals refuses),
    then anti-Hermitian within SPECTRAL_TOL, the gate of the exponential."""
    refusals = _horizontal_refusals(point.bc.inc, point.witness, zs)
    for k in np.flatnonzero(~op_norm_within(zs + dagger(zs), SPECTRAL_TOL)):
        refusals[k] = refusals[k] or DomainError(
            f"direction is not anti-Hermitian (defect {antiherm_defect(zs[k]):.3e})"
        )
    return refusals


def trial_chunks(bc: BasicConstruction, n_trials: int, n_samples: int) -> list[range]:
    """Runs of consecutive trials for the stacked calls of a loop whose
    trials are curves of n_samples matrices each.

    A run holds at most max(n_trials, n_samples) matrices of the D x D of
    the uncompressed construction (D = dim M), counted in entries, where
    each sample counts as one matrix of the larger of bc's two sides (L2
    and the arena of M): no more than one curve on L2(M), or one matrix per
    trial, would hold.  Where a single curve already fills the bound, as on
    inclusions with r = D, the trials run one by one.
    """
    d = bc.inc.dim
    side = max(bc.dim_l2, bc.inc.amb.ambient_dim)
    per_run = max(1, (max(n_trials, n_samples) * d * d) // (n_samples * side * side))
    return [range(i, min(i + per_run, n_trials)) for i in range(0, n_trials, per_run)]


def orbit_points(bc: BasicConstruction, witnesses: np.ndarray) -> np.ndarray:
    """The orbit points u p u* of an (n, m, m) stack of witnesses, each
    passing the gates of an OrbitPoint; a refusal names its trial (its
    index in the stack)."""
    qs = _carried_projection(bc, witnesses)
    require_each(_point_refusals(bc, qs, witnesses))
    return qs


def tangent_vectors(
    bc: BasicConstruction,
    qs: np.ndarray,
    witnesses: np.ndarray,
    zs: np.ndarray,
    require=require_each,
) -> np.ndarray:
    """delta_q for each slice: zq - qz for the horizontal directions zs at
    the orbit points qs with their witnesses, all (n, ., .) stacks; a
    direction that is not horizontal is refused as delta_q refuses it,
    naming its trial."""
    require(_horizontal_refusals(bc.inc, witnesses, zs))
    lz = bc.left(zs)
    return lz @ qs - qs @ lz


def random_horizontal_at(
    point: OrbitPoint, rng: np.random.Generator, op_scale: float | None = None
) -> np.ndarray:
    z = random_horizontal(point.bc.inc, rng, op_scale=op_scale)
    u = point.witness
    return u @ z @ dagger(u)


def delta_q(point: OrbitPoint, z: np.ndarray) -> np.ndarray:
    """Differential of the orbit map at the point: the tangent vector
    zq - qz of a horizontal direction z, as a (D, D) array."""
    return tangent_vectors(point.bc, point.q[None], point.witness[None], z[None], require_one)[0]


def _e1_commutator(
    bc: BasicConstruction, qs: np.ndarray, xs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The commutators xq - qx of an (n, D, D) stack xs, at one q or at the
    matching slices of a stack qs, and the coordinates of their E1 over the
    left images of the M basis; nothing is gated."""
    comm = xs @ qs - qs @ xs
    return comm, bc._e1_coords(comm)


def _projected(bc: BasicConstruction, qs: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """(1/2 lam) [E1(xq - qx), q] from the coordinates of E1(xq - qx)."""
    left = bc.left_cache
    e1 = (coords @ left.reshape(len(left), -1)).reshape(coords.shape[:-1] + left.shape[1:])
    return (e1 @ qs - qs @ e1) / (2.0 * bc.lam)


def _pulled_back(bc: BasicConstruction, coords: np.ndarray) -> np.ndarray:
    """The anti-Hermitian part of (1/2 lam) E1(vq - qv), pulled back to M,
    from the coordinates of E1(vq - qv)."""
    z = bc.inc.from_coords(coords / (2.0 * bc.lam))
    return 0.5 * (z - dagger(z))


def _gated_e1_commutator(
    bc: BasicConstruction, qs: np.ndarray, xs: np.ndarray, require
) -> np.ndarray:
    """The coordinates of _e1_commutator, once xs passed tangent_projections' gates."""
    comm, coords = _e1_commutator(bc, qs, xs)
    message = "tangent projection expects a Hermitian input (defect {:.3e})"
    hermitian = op_norm_within(xs - dagger(xs), WITNESS_TOL)
    require(
        [
            outside if ok else DomainError(message.format(herm_defect(x)))
            for ok, x, outside in zip(hermitian, xs, bc.membership_refusals(comm))
        ]
    )
    return coords


def tangent_projection(point: OrbitPoint, x: np.ndarray) -> np.ndarray:
    """Trace-orthogonal projection of a Hermitian x onto the tangent space
    at the point: (1/2 lam) [E1(xq - qx), q]."""
    return tangent_projections(point.bc, point.q, x[None], require_one)[0]


def tangent_projections(
    bc: BasicConstruction, qs: np.ndarray, xs: np.ndarray, require=require_each
) -> np.ndarray:
    """tangent_projection of each slice of an (n, D, D) stack of inputs, at
    one orbit point qs or at the matching slice of an (n, D, D) stack.

    The gates decide per slice: x Hermitian within WITNESS_TOL (through
    op_norm_within; the refusal names the exact defect), and xq - qx in M1
    within MEMBERSHIP_TOL, the gate of E1.  A refusal names its trial.
    """
    return _projected(bc, qs, _gated_e1_commutator(bc, qs, xs, require))


def kappa_q(point: OrbitPoint, v: np.ndarray) -> np.ndarray:
    """Inverse of delta_q on the tangent space: the unique horizontal z with
    zq - qz = v, as (1/2 lam) E1(vq - qv) pulled back to M.  It reads no
    witness and holds at every orbit point: vq - qv = zq + qz - 2 qzq, and
    E1 is a left(M)-bimodule map with E1(q) = lam * 1, so E1(zq) = E1(qz) =
    lam z while E1(qzq) = lam E_q(z) = 0 for horizontal z."""
    return kappas(point.bc, point.q, v[None], require_one)[0]


def kappas(
    bc: BasicConstruction, qs: np.ndarray, vs: np.ndarray, require=require_each
) -> np.ndarray:
    """kappa_q of each slice of an (n, D, D) stack of tangent vectors, at
    the points as in tangent_projections, with kappa_q's gates per slice; a
    refusal names its trial.  The tangency gate and kappa read one E1."""
    coords = _gated_e1_commutator(bc, qs, vs, require)
    resid = bc.two_norm1(vs - _projected(bc, qs, coords))
    require(
        [
            None
            if r <= WITNESS_TOL
            else DomainError(f"input is not tangent at the point (residual {r:.3e})")
            for r in resid
        ]
    )
    return _pulled_back(bc, coords)


# ---------------------------------------------------------------------------
# geodesics


def geodesic_at(point: OrbitPoint, z: np.ndarray, t: float) -> OrbitPoint:
    """The conjugation geodesic e^{tz} q e^{-tz} through the point; z must
    pass the gates of ``geodesic_endpoints``, with its refusal texts."""
    require_one(_direction_refusals(point, z[None]))
    u_t = spectral_function(t * z, "exp")
    return orbit_point_from_witness(point.bc, u_t @ point.witness)


def geodesic_endpoints(
    point: OrbitPoint, zs: np.ndarray
) -> tuple[np.ndarray, list[DomainError | None]]:
    """The endpoints e^z q e^{-z} of the geodesics through the point along
    each slice z of an (n, m, m) stack, and per slice the DomainError that
    ``geodesic_at(point, z, 1.0)`` would raise, or None.

    Each slice passes geodesic_at's gates on its own: z horizontal at the
    point, anti-Hermitian within SPECTRAL_TOL (the gate of the exponential),
    and the endpoint with its witness e^z u an orbit point.  The accepted
    slices share one stacked exponential; the endpoint of a slice refused
    for its direction is left zero.
    """
    bc = point.bc
    refusals = _direction_refusals(point, zs)
    qs = np.zeros((len(zs),) + point.q.shape, dtype=complex)
    keep = np.flatnonzero([refusal is None for refusal in refusals])
    if keep.size:
        witnesses = spectral_function(zs[keep], "exp") @ point.witness
        qs[keep] = _carried_projection(bc, witnesses)
        for k, refusal in zip(keep, _point_refusals(bc, qs[keep], witnesses)):
            refusals[k] = refusal
    return qs, refusals


@dataclass(frozen=True, eq=False)
class DiscreteCurve:
    """Orbit-valued path sampled on a uniform grid over [0, 1].

    Every sample must lie in M1 within MEMBERSHIP_TOL, as the samples of an
    orbit curve do, and consecutive samples must be closer than 0.5 in
    operator norm.
    """

    bc: BasicConstruction
    samples: np.ndarray                # (T, D, D)
    witness: np.ndarray | None = None  # ambient unitary carrying p to samples[0], optional

    def __post_init__(self) -> None:
        if self.samples.ndim != 3 or self.samples.shape[0] < 2:
            raise DomainError("a curve needs at least two samples")
        require_one(_curve_refusals(self.bc, self.samples[None]))

    @property
    def grid_n(self) -> int:
        return self.samples.shape[0] - 1

    @property
    def dt(self) -> float:
        return 1.0 / self.grid_n


def _curve_refusals(bc: BasicConstruction, samples: np.ndarray) -> list[DomainError | None]:
    """The gates of a DiscreteCurve for each path of an (n, T, D, D) stack:
    per path, the refusal of the first gate it fails, or None."""
    defects = bc.membership_defects(samples)
    # every gap < 0.5: the largest float below 0.5 makes the gate strict
    gaps = np.diff(samples, axis=1)
    close = np.all(op_norm_within(gaps, np.nextafter(0.5, 0.0)), axis=1)
    refusals: list[DomainError | None] = []
    for k, row in enumerate(defects):
        worst = int(np.argmax(row))
        if row[worst] > MEMBERSHIP_TOL:
            refusals.append(
                MembershipError(
                    f"curve sample {worst} is outside the extension algebra "
                    f"(defect {row[worst]:.3e})",
                    defect=float(row[worst]),
                )
            )
        elif not close[k]:
            gap = op_norm(gaps[k]).max()
            refusals.append(
                DomainError(f"curve is under-resolved: consecutive op-norm gap {gap:.3f} >= 0.5")
            )
        else:
            refusals.append(None)
    return refusals


def sample_geodesic(
    point: OrbitPoint, z: np.ndarray, grid_n: int, t0: float = 0.0, t1: float = 1.0
) -> DiscreteCurve:
    return curve_from_unitaries(point.bc, _geodesic_unitaries(point, z, grid_n, t0, t1), base=point)


def _geodesic_unitaries(
    point: OrbitPoint, z: np.ndarray, grid_n: int, t0: float, t1: float
) -> np.ndarray:
    """e^{tz} on grid_n intervals of [t0, t1] for a z passing geodesic_at's gates."""
    require_one(_direction_refusals(point, z[None]))
    if grid_n < 1:
        raise DomainError("grid must have at least one interval")
    return exp_family(z, np.linspace(t0, t1, grid_n + 1))


def _pushed_down(bc: BasicConstruction, us: np.ndarray, base: OrbitPoint) -> np.ndarray:
    """u q0 u* for every unitary u of a stack, q0 the base point."""
    lus = bc.left(us)
    return (lus @ base.q) @ dagger(lus)


def curve_from_unitaries(
    bc: BasicConstruction, us: np.ndarray, base: OrbitPoint | None = None
) -> DiscreteCurve:
    """Push a sampled unitary path u(t) down to the orbit: u(t) q0 u(t)*."""
    if base is None:
        base = base_point(bc)
    return DiscreteCurve(bc=bc, samples=_pushed_down(bc, us, base), witness=us[0] @ base.witness)


# ---------------------------------------------------------------------------
# finite differences and quadrature on uniform grids


# The stencils act along the time axis -3 of a (T, m, m) path, or of an
# (n, T, m, m) stack of paths on one grid, elementwise, so each path of a
# stack gets the bits it gets alone.
def _diff2(f: np.ndarray, dt: float) -> np.ndarray:
    """Second-order first derivative: central interior, one-sided ends."""
    f = np.swapaxes(f, 0, -3)
    d = np.empty_like(f)
    d[1:-1] = (f[2:] - f[:-2]) / (2.0 * dt)
    d[0] = (-3.0 * f[0] + 4.0 * f[1] - f[2]) / (2.0 * dt)
    d[-1] = (3.0 * f[-1] - 4.0 * f[-2] + f[-3]) / (2.0 * dt)
    return np.swapaxes(d, 0, -3)


def _diff4(f: np.ndarray, dt: float) -> np.ndarray:
    """Fourth-order first derivative on a uniform grid (>= 5 samples)."""
    if f.shape[-3] < 5:
        return _diff2(f, dt)
    f = np.swapaxes(f, 0, -3)
    d = np.empty_like(f)
    d[2:-2] = (f[:-4] - 8.0 * f[1:-3] + 8.0 * f[3:-1] - f[4:]) / (12.0 * dt)
    d[0] = (-25 * f[0] + 48 * f[1] - 36 * f[2] + 16 * f[3] - 3 * f[4]) / (12.0 * dt)
    d[1] = (-3 * f[0] - 10 * f[1] + 18 * f[2] - 6 * f[3] + f[4]) / (12.0 * dt)
    d[-2] = (3 * f[-1] + 10 * f[-2] - 18 * f[-3] + 6 * f[-4] - f[-5]) / (12.0 * dt)
    d[-1] = (25 * f[-1] - 48 * f[-2] + 36 * f[-3] - 16 * f[-4] + 3 * f[-5]) / (12.0 * dt)
    return np.swapaxes(d, 0, -3)


def _diff4_second(f: np.ndarray, dt: float) -> np.ndarray:
    """Fourth-order second derivative at interior nodes i in [2, T-3]."""
    return (
        -f[:-4] + 16.0 * f[1:-3] - 30.0 * f[2:-2] + 16.0 * f[3:-1] - f[4:]
    ) / (12.0 * dt * dt)


def _simpson(values: np.ndarray, dt: float) -> float | np.ndarray:
    """Composite Simpson on a uniform grid along the last axis; 3/8 tail
    for an odd interval count, trapezoid when only one interval is
    available.  A (T,) vector gives a float, an (n, T) array one value per
    row, each bitwise the value of its row alone."""
    n = values.shape[-1] - 1
    if n < 1:
        raise DomainError("quadrature needs at least two samples")
    if n == 1:
        total = 0.5 * dt * (values[..., 0] + values[..., 1])
        return float(total) if values.ndim == 1 else total
    total = 0.0
    if n % 2 == 1:
        tail = values[..., -4:]
        total += 3.0 * dt / 8.0 * (
            tail[..., 0] + 3 * tail[..., 1] + 3 * tail[..., 2] + tail[..., 3]
        )
        values = values[..., : n - 3 + 1]
        n -= 3
    if n >= 2:
        total += dt / 3.0 * (
            values[..., 0]
            + values[..., -1]
            + 4.0 * values[..., 1:-1:2].sum(axis=-1)
            + 2.0 * values[..., 2:-2:2].sum(axis=-1)
        )
    return float(total) if values.ndim == 1 else total


def geodesic_equation_residual(
    point: OrbitPoint, z: np.ndarray, grid_n: int = 128
) -> float:
    """Worst tau1-norm of the tangent projection of the second derivative of
    the geodesic, computed with fourth-order stencils on a grid extended by
    two nodes on each side so every node of [0, 1] has a symmetric stencil."""
    return _extended_geodesic(point, z, grid_n)[2]


def geodesic_with_residual(
    point: OrbitPoint, z: np.ndarray, grid_n: int = 128
) -> tuple[DiscreteCurve, float]:
    """The geodesic along z on the grid_n intervals of [0, 1], with its
    ``geodesic_equation_residual``, from one sampling of the extended grid;
    the curve is that grid's nodes in [0, 1]."""
    ext, start, residual = _extended_geodesic(point, z, grid_n)
    return DiscreteCurve(point.bc, ext.samples[2:-2], start), residual


def _extended_geodesic(
    point: OrbitPoint, z: np.ndarray, grid_n: int
) -> tuple[DiscreteCurve, np.ndarray, float]:
    """The geodesic on the grid extended by two nodes on each side, the
    witness of its node at t = 0, and the geodesic equation residual."""
    h = 1.0 / grid_n
    us = _geodesic_unitaries(point, z, grid_n + 4, -2.0 * h, 1.0 + 2.0 * h)
    ext = curve_from_unitaries(point.bc, us, base=point)
    qs = ext.samples[2:-2]
    _, coords = _e1_commutator(point.bc, qs, _diff4_second(ext.samples, h))
    resid = point.bc.two_norm1(_projected(point.bc, qs, coords))
    return ext, us[2] @ point.witness, float(resid.max())


def covariant_derivative(curve: DiscreteCurve, field: np.ndarray) -> np.ndarray:
    """DX/dt along the curve: differentiate the field on the grid, then
    project onto the tangent space at each node, with the gates of
    tangent_projection; a refusal names its node as its trial."""
    if field.shape != curve.samples.shape:
        raise DomainError("field is not sampled on the curve's grid")
    return tangent_projections(curve.bc, curve.samples, _diff2(field, curve.dt))


# ---------------------------------------------------------------------------
# horizontal lift


def _witness_at_start(curve: DiscreteCurve) -> np.ndarray:
    if curve.witness is not None:
        return curve.witness
    return orbit_section_theta(curve.bc, curve.samples[0])


def horizontal_lift(curve: DiscreteCurve) -> np.ndarray:
    """The horizontal lift of the curve; see ``lift_with_defects``."""
    return lift_with_defects(curve)[0]


def lift_with_defects(
    curves: DiscreteCurve | Sequence[DiscreteCurve],
) -> tuple[np.ndarray, float, float] | list[tuple[np.ndarray, float, float]]:
    """Integrate G' = kappa(q') G, G(0) = 1 along the curve; returns the lift
    with the (reconstruction, horizontality) defects its gates measured.

    Classical one-step fourth-order integration with cubic interpolation of
    the generator at interval midpoints.  The steps are not re-unitarized:
    RK4 is not a unitary integrator, so the result is verified post hoc
    instead: reconstruction within LIFT_TOL, unitarity within SPECTRAL_TOL,
    and horizontality of G' G* within LIFT_TOL; failure raises a refinement
    error suggesting a finer grid.

    Takes one curve and returns one triple, or a sequence of curves on one
    grid and returns a list of triples, each bitwise equal to the triple of
    its curve alone: the generators are computed curve by curve, and one
    RK4 loop steps the (n, m, m) stack of all lifts at once.  Each curve is
    then gated on its own, and a refusal names the first failing curve.
    """
    single = isinstance(curves, DiscreteCurve)
    if single:
        curves = [curves]
    if not curves:
        return []
    if len({curve.samples.shape[0] for curve in curves}) > 1:
        raise DomainError("stacked lifts need curves on one grid")
    T = curves[0].samples.shape[0]
    dt = curves[0].dt
    gen = np.stack(
        [
            _pulled_back(c.bc, _e1_commutator(c.bc, c.samples, _diff4(c.samples, dt))[1])
            for c in curves
        ]
    )
    # cubic midpoint interpolation of the generator
    mids = np.empty((len(gen), T - 1) + gen.shape[2:], dtype=complex)
    if T >= 4:
        mids[:, 1:-1] = (
            -gen[:, :-3] + 9.0 * gen[:, 1:-2] + 9.0 * gen[:, 2:-1] - gen[:, 3:]
        ) / 16.0
        mids[:, 0] = (5 * gen[:, 0] + 15 * gen[:, 1] - 5 * gen[:, 2] + gen[:, 3]) / 16.0
        mids[:, -1] = (gen[:, -4] - 5 * gen[:, -3] + 15 * gen[:, -2] + 5 * gen[:, -1]) / 16.0
    else:
        mids[:] = 0.5 * (gen[:, :-1] + gen[:, 1:])
    ident = curves[0].bc.inc.identity()
    lifts = np.empty_like(gen)
    lifts[:, 0] = ident
    g = lifts[:, 0].copy()
    for i in range(T - 1):
        a0, am, a1 = gen[:, i], mids[:, i], gen[:, i + 1]
        k1 = a0 @ g
        k2 = am @ (g + 0.5 * dt * k1)
        k3 = am @ (g + 0.5 * dt * k2)
        k4 = a1 @ (g + dt * k3)
        g = g + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        lifts[:, i + 1] = g

    results = []
    for k, (curve, lift) in enumerate(zip(curves, lifts)):
        which = "" if single else f" of curve {k}"
        recon, horiz = lift_defects(curve, lift)
        if recon > LIFT_TOL:
            raise RefinementError(
                f"lift{which} reconstruction defect {recon:.3e} exceeds {LIFT_TOL:.1e}; "
                f"re-sample the curve on a finer grid"
            )
        if not np.all(op_norm_within(dagger(lift) @ lift - ident, SPECTRAL_TOL)):
            raise RefinementError(
                f"lift{which} unitarity defect {unitary_defect(lift).max():.3e}"
            )
        if horiz > LIFT_TOL:
            raise RefinementError(
                f"lift{which} horizontality defect {horiz:.3e} exceeds {LIFT_TOL:.1e}; "
                f"re-sample the curve on a finer grid"
            )
        results.append((lift, recon, horiz))
    return results[0] if single else results


def lift_defects(curve: DiscreteCurve, lift: np.ndarray) -> tuple[float, float]:
    """(reconstruction, horizontality) defects of a candidate lift; the
    reconstruction defect is an operator norm in M1."""
    bc = curve.bc
    qs = curve.samples
    llift = bc.left(lift)
    recon = op_norm((llift @ qs[0]) @ dagger(llift) - qs, hermitian=True).max()
    v = _diff4(lift, curve.dt) @ dagger(lift)
    e = _translated(bc.inc, lift @ _witness_at_start(curve), v)
    return float(recon), float(bc.inc.two_norm(e).max())


# ---------------------------------------------------------------------------
# lengths and energy


def curve_lengths(
    bc: BasicConstruction,
    path: np.ndarray,
    metric: str | tuple[str, ...],
    space: str = "orbit",
    order: int = 2,
    hermitian: bool = False,
) -> float | np.ndarray | tuple:
    """Length or energy of a sampled path under the chosen metric.

    metric: 'two_norm' (trace-norm length), 'op_norm' (operator-norm
    length), or 'energy' (integrated squared trace-norm speed); a tuple of
    these names returns a tuple of the values, all from one velocity.
    space selects the trace of the 2-norms: 'orbit' for extension-algebra-
    valued paths, 'lift' for ambient-algebra-valued paths; operator norms
    are the same in both.  order is 2 for central differences or 4 for
    wider stencils when comparisons need the extra digits.  hermitian
    declares every sample Hermitian, as an orbit curve's projections are,
    so the velocity is, and its operator norms take op_norm's eigvalsh path.

    path is a (T, m, m) path, giving floats, or an (n, T, m, m) stack of
    paths on one grid, giving arrays of n values, each bitwise the value of
    its path alone.
    """
    if path.ndim not in (3, 4) or path.shape[-3] < 2:
        raise DomainError("length functionals need at least two samples")
    if space not in ("orbit", "lift"):
        raise DomainError(f"unknown space {space!r}; use 'orbit' or 'lift'")
    names = (metric,) if isinstance(metric, str) else tuple(metric)
    for name in names:
        if name not in ("two_norm", "op_norm", "energy"):
            raise DomainError(f"unknown metric {name!r}")
    if order not in (2, 4):
        raise DomainError(f"unknown order {order!r}; use 2 or 4")
    dt = 1.0 / (path.shape[-3] - 1)
    vel = _diff2(path, dt) if order == 2 else _diff4(path, dt)
    two = None
    values = []
    for name in names:
        if name == "op_norm":
            speeds = op_norm(vel, hermitian=hermitian)
        else:
            if two is None:
                two = bc.two_norm1(vel) if space == "orbit" else bc.inc.two_norm(vel)
            speeds = two if name == "two_norm" else two**2
        values.append(_simpson(speeds, dt))
    return values[0] if isinstance(metric, str) else tuple(values)


@dataclass(frozen=True)
class FirstVariationResult:
    value: float           # boundary term minus integral term
    fd_value: float        # centered difference of the energy over s
    boundary_term: float
    integral_term: float
    defect: float
    tol: float

    @property
    def consistent(self) -> bool:
        return self.defect <= self.tol


def first_variation(
    bc: BasicConstruction,
    minus: np.ndarray,
    zero: np.ndarray,
    plus: np.ndarray,
    h: float,
) -> FirstVariationResult | list[FirstVariationResult]:
    """Half the s-derivative of the energy of a family of unitary paths.

    The family is sampled at s in {-h, 0, +h}; each row is a path of
    ambient unitaries on a uniform t-grid.  Evaluates the boundary-minus-
    integral expression with x = u* du/dt and y = u* du/ds, and reports the
    centered finite difference (E(+h) - E(-h)) / (4h) alongside.

    Takes three (T, m, m) paths and returns one result, or (n, T, m, m)
    stacks of n families on one grid and returns a list of n results; the
    unperturbed paths may then be one (T, m, m) path that every family
    shares.  A stack's refusal names its first failing family.
    """
    single = minus.ndim == 3
    if minus.shape != plus.shape or zero.shape not in (minus.shape, minus.shape[-3:]):
        raise DomainError("family slices must share one sampling grid")
    if single:
        minus, plus = minus[None], plus[None]
    inc = bc.inc
    T = zero.shape[-3]
    for path in (minus, zero, plus):
        probes = np.reshape(path, (-1,) + path.shape[-3:])[:, :: max(1, T // 8)]
        unitary = np.all(
            op_norm_within(dagger(probes) @ probes - inc.identity(), PATH_UNITARY_TOL), axis=1
        )
        if not np.all(unitary):
            k = int(np.flatnonzero(~unitary)[0])
            which = "" if single or path.ndim == 3 else f" of family {k}"
            worst = unitary_defect(probes[k]).max()
            raise DomainError(f"family samples{which} are not unitary (defect {worst:.3e})")
    dt = 1.0 / (T - 1)
    x0 = dagger(zero) @ _diff4(zero, dt)
    y0 = dagger(zero) @ ((plus - minus) / (2.0 * h))
    xdot = _diff4(x0, dt)
    # real trace inner product <a, b> = Re tau(a* b); the adjoint matters
    # for the sign since the logarithmic derivatives are anti-Hermitian
    ends = (Ellipsis, [0, -1], slice(None), slice(None))
    prod_boundary = inc.amb.inner(y0[ends], x0[ends]).real
    boundary = prod_boundary[:, 1] - prod_boundary[:, 0]
    integral = _simpson(inc.amb.inner(y0, xdot).real, dt)
    value = boundary - integral
    fd = (
        curve_lengths(bc, plus, "energy", space="lift", order=4)
        - curve_lengths(bc, minus, "energy", space="lift", order=4)
    ) / (4.0 * h)
    tol_used = max(1e-5, 10.0 * h * h)
    results = [
        FirstVariationResult(
            value=v,
            fd_value=f,
            boundary_term=b,
            integral_term=i,
            defect=abs(v - f),
            tol=tol_used,
        )
        for v, f, b, i in zip(value.tolist(), fd.tolist(), boundary.tolist(), integral.tolist())
    ]
    return results[0] if single else results


# ---------------------------------------------------------------------------
# sections and the local logarithm


def grassmann_section(p1: np.ndarray, p2: np.ndarray) -> np.ndarray:
    """Anti-Hermitian, p1-codiagonal x with e^x p1 e^{-x} = p2, from half the
    principal logarithm of the product of the two associated symmetries.

    p2 may be an (n, D, D) stack, giving the stack of sections; each
    slice's gates decide for it, and a refusal names its trial.  The gap
    gate ‖p1 - p2‖ < 1 decides through op_norm_within and reports the exact
    gap."""
    single = p2.ndim == 2
    p2s = p2[None] if single else p2
    require = require_one if single else require_each
    disp = p1 - p2s
    near = op_norm_within(disp, np.nextafter(1.0, 0.0))
    require(
        [
            None if ok else RadiusError(f"projections are op-norm {op_norm(d):.3f} apart; need < 1")
            for ok, d in zip(near, disp)
        ]
    )
    eye = np.eye(p1.shape[0])
    x = 0.5 * log_unitary_principal((2.0 * p2s - eye) @ (2.0 * p1 - eye))
    ex = spectral_function(x, "exp")
    recon = op_norm(ex @ p1 @ dagger(ex) - p2s)
    codiag = np.maximum(op_norm(p1 @ x @ p1), op_norm((eye - p1) @ x @ (eye - p1)))
    nx = op_norm(x)
    require(
        [
            ConstructionError(
                f"section postconditions fail: reconstruction {r:.3e}, codiagonality {c:.3e}"
            )
            if r > SECTION_TOL or c > SECTION_TOL
            else ConstructionError(f"section norm {n:.3f} reached pi/2")
            if n >= np.pi / 2
            else None
            for r, c, n in zip(recon, codiag, nx)
        ]
    )
    return x[0] if single else x


def orbit_section_theta(bc: BasicConstruction, q: np.ndarray | OrbitPoint) -> np.ndarray:
    """Local cross section: a unitary u in M with u p u* = q, defined for
    ‖q − p‖ < 1.  u is recover_unitary of e^x, x = grassmann_section(p, q),
    the unitary of M1 that carries p to q; those two make the gap and
    unitarity checks.  q may be an (n, D, D) stack, giving the stack of
    sections; a refusal names its trial."""
    qm = q.q if isinstance(q, OrbitPoint) else q
    single = qm.ndim == 2
    qs = qm[None] if single else qm
    us = recover_unitary(
        bc, spectral_function(grassmann_section(bc.jones_p, qs), "exp")
    )
    recon = op_norm(_carried_projection(bc, us) - qs)
    (require_one if single else require_each)(
        [
            None if r <= WITNESS_TOL else DomainError(f"section fails u p u* = q (defect {r:.3e})")
            for r in recon
        ]
    )
    return us[0] if single else us


@dataclass(frozen=True)
class OrbitLogResult:
    z: np.ndarray
    residual: float
    iterations: int
    backtracks: int  # step halvings, those of a stalled attempt included


def orbit_log(
    q0: OrbitPoint,
    q1: OrbitPoint | np.ndarray,
    tol: float = 1e-8,
    max_iter: int = 100,
) -> OrbitLogResult:
    """Local inverse of the geodesic exponential at q0: ``orbit_log_batch``
    on a stack of one target, whose exception, if any, is raised.

    There is one solver loop, and its entry and exit checks are made per
    target (see ``orbit_log_batch``); callers with many targets, such as
    the radius probe with one stack of all its shots, call the batch directly.
    """
    targets = [q1] if isinstance(q1, OrbitPoint) else np.asarray(q1)[None]
    (outcome,) = orbit_log_batch(q0, targets, tol, max_iter)
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def orbit_log_batch(
    q0: OrbitPoint,
    targets: np.ndarray | list[OrbitPoint],
    tol: float = 1e-8,
    max_iter: int = 100,
) -> list[OrbitLogResult | Exception]:
    """Local inverse of the geodesic exponential at q0, for each target of an
    (n, D, D) stack of arrays or a list of OrbitPoints.

    Damped fixed-point iteration: pull the tangent projection v of the
    remaining displacement back through kappa at the current geodesic
    endpoint q, (1/2 lam) E1(vq - qv) as kappa_q computes it from q alone,
    transport it to q0, and accumulate.  A step
    is accepted only if it lowers the residual ‖e^z q0 e^{-z} - q1‖ (trace
    norm); otherwise it is halved, and a step that reaches 2^-20 stalls.
    All targets iterate together, each with its own step, and leave the
    stack when they converge or fail.

    Each target is checked once, on entry: it must be at most op-norm
    ``LOG_RADIUS`` from q0, and an array target must be Hermitian within
    WITNESS_TOL and lie in M1 within MEMBERSHIP_TOL (an OrbitPoint was
    checked when it was made).  The loop then carries the current
    projections and witnesses as plain arrays and calls the unchecked
    kernels behind tangent_projection, kappa_q and geodesic_at, because
    every value in it meets their checks by construction: each step is made
    horizontal at q0, so z is a horizontal element of M, its witness
    e^z u0 (u0 the witness of q0) is a unitary of M, and e^z q0 e^{-z} is an
    orbit point; the displacement q1 - q is then Hermitian and in M1, and
    its tangent projection is tangent.  Each result is checked once, on
    exit: the final projection and witness must pass the gates of an
    OrbitPoint, and z must be horizontal at q0.

    Returns one entry per target: its OrbitLogResult, or the exception
    ``orbit_log`` raises for it alone (RadiusError, DomainError,
    MembershipError or ConvergenceError).  Results and convergence errors
    count the target's step halvings as ``backtracks``; the 20 halvings of
    a stalled attempt are included.  A stack of one repeats the
    arithmetic of a single matrix bit for bit; in a larger stack the
    products of a slice may differ from it in the last bits, so a target
    that stalls at the roundoff floor may stall after another iteration
    count.
    """
    bc = q0.bc
    n = len(targets)
    if n == 0:
        return []
    arrays = isinstance(targets, np.ndarray)
    tq = targets if arrays else np.stack([t.q for t in targets])
    outcomes: list[OrbitLogResult | Exception | None] = [None] * n
    # the entry checks, in the order orbit_log makes them
    disp = q0.q - tq
    near = op_norm_within(disp, LOG_RADIUS)
    if arrays:
        hermitian = op_norm_within(tq - dagger(tq), WITNESS_TOL)
        member = bc.membership_defects(tq)
    else:
        hermitian, member = np.ones(n, dtype=bool), np.zeros(n)
    for k in range(n):
        if not near[k]:
            outcomes[k] = RadiusError(
                f"endpoints are op-norm {op_norm(disp[k]):.3f} apart; the local "
                f"inverse is only attempted below {LOG_RADIUS}"
            )
        elif not hermitian[k]:
            outcomes[k] = DomainError("logarithm target is not Hermitian")
        elif member[k] > MEMBERSHIP_TOL:
            outcomes[k] = MembershipError(
                f"logarithm target is outside the extension algebra "
                f"(defect {member[k]:.3e})",
                defect=float(member[k]),
            )

    z = np.zeros((n,) + q0.witness.shape, dtype=complex)
    ez = np.broadcast_to(bc.inc.identity(), z.shape).copy()
    q = np.broadcast_to(q0.q, tq.shape).copy()
    witness = np.broadcast_to(q0.witness, z.shape).copy()
    res = bc.two_norm1(q - tq)
    iterations = np.zeros(n, dtype=int)
    backtracks = np.zeros(n, dtype=int)
    active = np.array([k for k in range(n) if outcomes[k] is None], dtype=int)
    while True:
        active = active[res[active] > tol]
        for k in active[iterations[active] >= max_iter]:
            outcomes[k] = ConvergenceError(
                f"no convergence after {max_iter} iterations (residual {res[k]:.3e}); "
                f"retry with closer endpoints",
                residual=res[k],
                iterations=int(iterations[k]),
                backtracks=int(backtracks[k]),
            )
        active = active[iterations[active] < max_iter]
        if not active.size:
            break
        a = active
        v = _projected(bc, q[a], _e1_commutator(bc, q[a], tq[a] - q[a])[1])
        w_at_cur = _pulled_back(bc, _e1_commutator(bc, q[a], v)[1])
        w0 = dagger(ez[a]) @ w_at_cur @ ez[a]
        w0 = 0.5 * (w0 - dagger(w0))
        w0 = w0 - translated_expectation(q0, w0)
        # per slice: halve the step until the residual drops or the step
        # stalls; trying indexes into a, the slices still searching
        step = np.ones(len(a))
        trying = np.arange(len(a))
        while trying.size:
            k = a[trying]
            z_try = z[k] + step[trying, None, None] * w0[trying]
            ez_try = spectral_function(z_try, "exp")
            witness_try = ez_try @ q0.witness
            q_try = _carried_projection(bc, witness_try)
            res_try = bc.two_norm1(q_try - tq[k])
            better = res_try < res[k]
            took = k[better]
            z[took], ez[took], q[took] = z_try[better], ez_try[better], q_try[better]
            witness[took], res[took] = witness_try[better], res_try[better]
            iterations[took] += 1
            backtracks[k[~better]] += 1
            trying = trying[~better]
            step[trying] *= 0.5
            stalled = step[trying] <= 2.0**-20
            for s in a[trying[stalled]]:
                outcomes[s] = ConvergenceError(
                    f"stalled at residual {res[s]:.3e} after {iterations[s]} iterations; "
                    f"retry with closer endpoints",
                    residual=res[s],
                    iterations=int(iterations[s]),
                    backtracks=int(backtracks[s]),
                )
            trying = trying[~stalled]
        active = np.array([k for k in active if outcomes[k] is None], dtype=int)

    # the exit checks
    done = np.array([k for k in range(n) if outcomes[k] is None], dtype=int)
    if done.size:
        refusals = _point_refusals(bc, q[done], witness[done])
        horizontal = _horizontal_within(bc.inc, q0.witness, z[done])
        for k, refusal, horiz in zip(done, refusals, horizontal):
            if refusal is not None:
                outcomes[k] = refusal
            elif not horiz:
                outcomes[k] = DomainError("logarithm is not horizontal at the start point")
            else:
                outcomes[k] = OrbitLogResult(
                    z=z[k],
                    residual=res[k],
                    iterations=int(iterations[k]),
                    backtracks=int(backtracks[k]),
                )
    return outcomes


# ---------------------------------------------------------------------------
# shortening and experiments


@dataclass(frozen=True)
class PolygonalResult:
    break_indices: tuple[int, ...]
    vectors: tuple[np.ndarray, ...]   # one horizontal direction per arc
    arc_lengths: tuple[float, ...]
    total_length: float
    curve_length: float

    @property
    def shorter(self) -> bool:
        return self.total_length <= self.curve_length + LENGTH_TOL


def shorten_to_polygonal(curve: DiscreteCurve, segment_bound: float) -> PolygonalResult:
    """Replace the curve by geodesic arcs through a partition whose
    consecutive op-norm gaps stay below the bound; the result is never
    longer than the curve (up to quadrature tolerance)."""
    bc = curve.bc
    qs = curve.samples
    T = qs.shape[0]
    breaks = [0]
    i = 0
    bound = min(segment_bound, LOG_RADIUS)
    while i < T - 1:
        # the next break is the last sample before the first at or past the bound
        far = np.flatnonzero(~(op_norm(qs[i + 1 :] - qs[i]) < bound))
        best = i + (far[0] if far.size else T - 1 - i)
        if best == i:
            raise DomainError(
                f"no partition with consecutive gaps below {segment_bound}; "
                f"adjacent samples already exceed the bound"
            )
        breaks.append(int(best))
        i = int(best)
    w = _witness_at_start(curve)
    vectors: list[np.ndarray] = []
    lengths: list[float] = []
    for a, b in zip(breaks[:-1], breaks[1:]):
        start = OrbitPoint(bc=bc, q=qs[a], witness=w)
        try:
            # tight tolerance keeps the chained witnesses within the
            # orbit-point reconstruction gate
            res = orbit_log(start, qs[b], tol=1e-10, max_iter=200)
        except ConvergenceError as exc:
            raise RefinementError(
                f"logarithm failed on segment [{a}, {b}] (residual {exc.residual:.3e}); "
                f"lower the segment bound"
            ) from exc
        vectors.append(res.z)
        lengths.append(
            np.sqrt(2.0 * bc.lam) * bc.inc.two_norm(res.z)
        )
        w = spectral_function(res.z, "exp") @ w
    # arc lengths are exact, so give the curve the more accurate stencil
    curve_len = curve_lengths(bc, qs, "two_norm", space="orbit", order=4)
    return PolygonalResult(
        break_indices=tuple(breaks),
        vectors=tuple(vectors),
        arc_lengths=tuple(lengths),
        total_length=float(sum(lengths)),
        curve_length=curve_len,
    )


@dataclass(frozen=True)
class MinimalityTrial:
    trial: int
    l2: float
    linf: float
    max_displacement: float
    within_radius: bool
    l2_margin: float          # perturbed minus geodesic
    violation: bool
    first_variation: float
    fv_consistent: bool


@dataclass(frozen=True)
class MinimalityReport:
    l2_geodesic: float
    linf_geodesic: float
    n_trials: int
    n_within_radius: int
    n_violations: int
    trials: tuple[MinimalityTrial, ...]


def minimality_experiment(
    point: OrbitPoint,
    z: np.ndarray,
    n_trials: int,
    perturbation_scale: float,
    seed: int,
    grid_n: int = 96,
    probe_radius: float = 0.5,
) -> MinimalityReport:
    """Compare the geodesic against endpoint-fixing smooth perturbations.

    Each trial perturbs the lift by exp(s * b(t) * w) with a polynomial
    bump b vanishing to first order at both endpoints, pushes the result
    down to the orbit, and records both lengths.  A violation is a
    perturbed curve that is shorter in the trace-norm length by more than
    LENGTH_TOL, which the length functional is trusted to, while staying
    inside the probe radius.

    Each trial draws its direction w from its own generator, seeded
    seed + trial; the trials then run in the runs of ``trial_chunks``, each
    run's paths, curve gates, lengths, displacements and first variations
    as stacked calls.  A curve refused by its gates raises, naming its trial.
    """
    bc = point.bc
    ts = np.linspace(0.0, 1.0, grid_n + 1)
    bump = 16.0 * ts**2 * (1.0 - ts) ** 2
    geo_us = exp_family(z, ts)
    base_curve = curve_from_unitaries(bc, geo_us, base=point)
    l2_geo, linf_geo = curve_lengths(
        bc, base_curve.samples, ("two_norm", "op_norm"), order=4, hermitian=True
    )
    h_fv = 1e-3
    trials: list[MinimalityTrial] = []
    for run in trial_chunks(bc, n_trials, grid_n + 1):
        ws = np.stack(
            [random_antihermitian(np.random.default_rng(seed + t), bc.inc.amb_basis) for t in run]
        )
        ws = ws / np.maximum(op_norm(ws), 1e-12)[:, None, None]
        us, minus, plus = (
            geo_us @ exp_family(ws, s * bump) for s in (perturbation_scale, -h_fv, h_fv)
        )
        samples = _pushed_down(bc, us, point)
        require_each(_curve_refusals(bc, samples), run.start)
        l2s, linfs = curve_lengths(
            bc, samples, ("two_norm", "op_norm"), order=4, hermitian=True
        )
        disps = op_norm(samples - point.q, hermitian=True).max(axis=1)
        fvs = first_variation(bc, minus, geo_us, plus, h_fv)
        for trial, l2, linf, disp, fv in zip(run, l2s.tolist(), linfs.tolist(), disps, fvs):
            within = linf <= probe_radius
            margin = l2 - l2_geo
            trials.append(
                MinimalityTrial(
                    trial=trial,
                    l2=l2,
                    linf=linf,
                    max_displacement=float(disp),
                    within_radius=within,
                    l2_margin=margin,
                    violation=within and margin < -LENGTH_TOL,
                    first_variation=fv.value,
                    fv_consistent=fv.consistent,
                )
            )
    return MinimalityReport(
        l2_geodesic=l2_geo,
        linf_geodesic=linf_geo,
        n_trials=n_trials,
        n_within_radius=sum(t.within_radius for t in trials),
        n_violations=sum(t.violation for t in trials),
        trials=tuple(trials),
    )


@dataclass(frozen=True)
class ConvexityReport:
    f_values: tuple[float, ...]
    min_second_difference: float
    passed: bool


def convexity_probe(
    bc: BasicConstruction,
    u0: np.ndarray,
    u1: np.ndarray,
    u2: np.ndarray,
    grid_n: int = 32,
) -> ConvexityReport | list[ConvexityReport]:
    """Squared trace-norm log-distance from u0 to the unitary geodesic from
    u1 to u2, sampled on a grid; reports the smallest second difference.

    Takes three matrices and returns one report, or three ``(n, D, D)``
    stacks of triples and returns a list of n reports, each equal to the
    report of its triple alone.  The three unitaries of each triple must be
    pairwise closer than ``CONVEXITY_RADIUS`` in operator norm; a stack's
    ``RadiusError`` names its first failing slice.  The first logarithm is
    one stacked call.  Each triple's geodesic comes from its own
    ``exp_family`` call, and the logarithms of all n·(grid_n + 1) path
    products run as min(n, grid_n + 1) stacked calls of about
    max(n, grid_n + 1) slices each, which bounds the working set.
    """
    single = np.ndim(u0) == 2
    if single:
        u0, u1, u2 = u0[None], u1[None], u2[None]
    gaps = op_norm(np.stack([u0 - u1, u0 - u2, u1 - u2], axis=1))
    wide = gaps >= CONVEXITY_RADIUS
    if np.any(wide):
        k, j = np.argwhere(wide)[0]
        which = "" if single else f" of slice {k}"
        raise RadiusError(
            f"unitaries{which} are op-norm {gaps[k, j]:.4f} apart; the convexity "
            f"window requires < {CONVEXITY_RADIUS:.4f}"
        )
    ts = np.linspace(0.0, 1.0, grid_n + 1)
    ws = log_unitary_principal(dagger(u1) @ u2)
    prods = np.concatenate(
        [dagger(a) @ (b @ exp_family(w, ts)) for a, b, w in zip(u0, u1, ws)]
    )
    n_stacks = min(len(u0), len(ts))
    norms = np.concatenate(
        [bc.inc.two_norm(log_unitary_principal(c)) for c in np.array_split(prods, n_stacks)]
    )
    # Python's float power, not numpy's square: the two can differ by an ulp.
    f = np.array([v**2 for v in norms.tolist()]).reshape(len(u0), len(ts))
    second = f[:, :-2] - 2.0 * f[:, 1:-1] + f[:, 2:]
    min_second = second.min(axis=1) if grid_n > 1 else np.zeros(len(u0))
    reports = [
        ConvexityReport(
            f_values=tuple(row),
            min_second_difference=m,
            passed=m >= -CONVEXITY_TOL,
        )
        for row, m in zip(f.tolist(), min_second.tolist())
    ]
    return reports[0] if single else reports


def sample_convexity_triple(
    inc: Inclusion, rng: np.random.Generator, n: int | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Three unitaries of M, each exp of a Gaussian anti-Hermitian element
    rescaled to an operator norm drawn from [0.05, 0.25]; pairwise inside
    the convexity window.

    With ``n``, three ``(n, D, D)`` stacks holding n triples, equal to n
    draws of one triple in turn: the generators are drawn in that order,
    then rescaled by one stacked ``op_norm`` and exponentiated by one
    ``spectral_function``."""
    count = 1 if n is None else n
    gens, scales = [], []
    for _ in range(3 * count):
        gens.append(random_antihermitian(rng, inc.amb_basis))
        scales.append(rng.uniform(0.05, 0.25))
    a = np.stack(gens)
    a = np.array(scales)[:, None, None] * a / np.maximum(op_norm(a), 1e-12)[:, None, None]
    us = spectral_function(a, "exp").reshape((count, 3) + a.shape[-2:])
    triples = us[0] if n is None else np.swapaxes(us, 0, 1)
    return tuple(triples)
