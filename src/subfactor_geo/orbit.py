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
minimality / convexity experiment drivers.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import (
    Inclusion,
    expectation_E,
    random_antihermitian,
    random_horizontal,
    random_unitary,
)
from .basic import BasicConstruction, expectation_E1, reduce_R
from .errors import (
    ConstructionError,
    ConvergenceError,
    DomainError,
    MembershipError,
    RadiusError,
    RefinementError,
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
    LIFT_TOL,
    MEMBERSHIP_TOL,
    SPECTRAL_TOL,
    WITNESS_TOL,
)

__all__ = [
    "OrbitPoint",
    "TangentVector",
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
    "geodesic_at",
    "sample_geodesic",
    "geodesic_equation_residual",
    "curve_from_unitaries",
    "covariant_derivative",
    "horizontal_lift",
    "lift_defects",
    "curve_lengths",
    "first_variation",
    "FirstVariationResult",
    "grassmann_section",
    "orbit_section_theta",
    "orbit_log",
    "OrbitLogResult",
    "shorten_to_polygonal",
    "PolygonalResult",
    "minimality_experiment",
    "MinimalityReport",
    "CONVEXITY_RADIUS",
    "convexity_probe",
    "sample_convexity_triple",
    "ConvexityReport",
]

# ---------------------------------------------------------------------------
# points and tangent vectors


@dataclass(frozen=True, eq=False)
class OrbitPoint:
    """A projection on the orbit, carried with one unitary witness."""

    bc: BasicConstruction
    q: np.ndarray        # (D, D) projection in the extension algebra
    witness: np.ndarray  # ambient unitary u in M with u p u* = q

    def __post_init__(self) -> None:
        bc = self.bc
        q = self.q
        if op_norm(q @ q - q) > SPECTRAL_TOL or herm_defect(q) > SPECTRAL_TOL:
            raise DomainError("orbit point is not a projection")
        if abs(bc.tau1(q) - bc.lam) > SPECTRAL_TOL:
            raise DomainError(
                f"orbit point has trace {bc.tau1(q):.6f}, expected {bc.lam:.6f}"
            )
        e1q = bc._e1_unchecked(q)
        if op_norm(e1q - bc.lam * np.eye(bc.dim_l2)) > SPECTRAL_TOL:
            raise DomainError("orbit point fails E1(q) = lam * 1")
        w = self.witness
        ident = bc.inc.identity()
        if op_norm(dagger(w) @ w - ident) > WITNESS_TOL:
            raise DomainError("witness is not unitary")
        lw = bc.left(w)
        if op_norm(lw @ bc.jones_p @ dagger(lw) - q) > WITNESS_TOL:
            raise DomainError("witness does not carry p to the stored projection")

    @property
    def lam(self) -> float:
        return self.bc.lam


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
    inc = point.bc.inc
    return max(
        antiherm_defect(z),
        inc.two_norm(translated_expectation(point, z)),
    )


def random_horizontal_at(
    point: OrbitPoint, rng: np.random.Generator, op_scale: float | None = None
) -> np.ndarray:
    z = random_horizontal(point.bc.inc, rng, op_scale=op_scale)
    u = point.witness
    return u @ z @ dagger(u)


@dataclass(frozen=True, eq=False)
class TangentVector:
    """Horizontal direction z at a point with its ambient commutator."""

    point: OrbitPoint
    z: np.ndarray        # ambient element of M, anti-Hermitian, E_q(z) = 0
    ambient: np.ndarray  # (D, D): left(z) q - q left(z)

    @property
    def speed(self) -> float:
        """tau1 2-norm of the ambient vector."""
        return self.point.bc.two_norm1(self.ambient)


def delta_q(point: OrbitPoint, z: np.ndarray) -> TangentVector:
    """Differential of the orbit map at the point: z -> zq - qz."""
    if horizontal_defect_at(point, z) > WITNESS_TOL:
        raise DomainError("direction is not horizontal at the point")
    lz = point.bc.left(z)
    return TangentVector(point=point, z=z, ambient=lz @ point.q - point.q @ lz)


def _tangent_projection_matrix(
    bc: BasicConstruction, q: np.ndarray, x: np.ndarray, gate: bool = True
) -> np.ndarray:
    """(1/2 lam) [E1(xq - qx), q]; q and x may be matching (T, D, D) stacks."""
    comm = x @ q - q @ x
    if gate:
        e1 = expectation_E1(bc, comm)
    else:
        e1 = bc._e1_unchecked(comm)
    bracket = (e1 @ q - q @ e1) / (2.0 * bc.lam)
    return bracket


def tangent_projection(point: OrbitPoint, x: np.ndarray) -> np.ndarray:
    """Trace-orthogonal projection of a Hermitian x onto the tangent space
    at the point: (1/2 lam) [E1(xq - qx), q]."""
    if herm_defect(x) > WITNESS_TOL:
        raise DomainError("tangent projection expects a Hermitian input")
    return _tangent_projection_matrix(point.bc, point.q, x)


def _kappa(bc: BasicConstruction, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """kappa at the point with witness u, for v tangent there."""
    lu = bc.left(u)
    v0 = dagger(lu) @ v @ lu
    z = u @ bc._reduce_unchecked(v0) @ dagger(u)
    # horizontality is automatic; enforce it against roundoff
    z = 0.5 * (z - dagger(z))
    return z - _translated(bc.inc, u, z)


def kappa_q(point: OrbitPoint, v: np.ndarray) -> np.ndarray:
    """Inverse of delta_q on the tangent space: the unique horizontal z with
    zq - qz = v.  Computed at the base point by the compression reduction,
    then conjugated by the witness."""
    bc = point.bc
    resid = bc.two_norm1(v - tangent_projection(point, v))
    if resid > WITNESS_TOL:
        raise DomainError(f"input is not tangent at the point (residual {resid:.3e})")
    return _kappa(bc, point.witness, v)


# ---------------------------------------------------------------------------
# geodesics


def geodesic_at(point: OrbitPoint, z: np.ndarray, t: float) -> OrbitPoint:
    """The conjugation geodesic e^{tz} q e^{-tz} through the point."""
    if horizontal_defect_at(point, z) > WITNESS_TOL:
        raise DomainError("direction is not horizontal at the point")
    u_t = spectral_function(t * z, "exp")
    return orbit_point_from_witness(point.bc, u_t @ point.witness)


@dataclass(frozen=True, eq=False)
class DiscreteCurve:
    """Orbit-valued path sampled on a uniform grid over [0, 1]."""

    bc: BasicConstruction
    samples: np.ndarray                 # (T, D, D)
    witnesses: np.ndarray | None = None  # (T, n, n) ambient unitaries, optional

    def __post_init__(self) -> None:
        if self.samples.ndim != 3 or self.samples.shape[0] < 2:
            raise DomainError("a curve needs at least two samples")
        gaps = np.diff(self.samples, axis=0)
        # every gap < 0.5: the largest float below 0.5 makes the gate strict
        if not np.all(op_norm_within(gaps, np.nextafter(0.5, 0.0))):
            gap = op_norm(gaps).max()
            raise DomainError(
                f"curve is under-resolved: consecutive op-norm gap {gap:.3f} >= 0.5"
            )

    @property
    def grid_n(self) -> int:
        return self.samples.shape[0] - 1

    @property
    def dt(self) -> float:
        return 1.0 / self.grid_n


def sample_geodesic(
    point: OrbitPoint, z: np.ndarray, grid_n: int, t0: float = 0.0, t1: float = 1.0
) -> DiscreteCurve:
    if horizontal_defect_at(point, z) > WITNESS_TOL:
        raise DomainError("direction is not horizontal at the point")
    if grid_n < 1:
        raise DomainError("grid must have at least one interval")
    ts = np.linspace(t0, t1, grid_n + 1)
    exps = exp_family(z, ts)
    return curve_from_unitaries(point.bc, exps, base=point)


def curve_from_unitaries(
    bc: BasicConstruction, us: np.ndarray, base: OrbitPoint | None = None
) -> DiscreteCurve:
    """Push a sampled unitary path u(t) down to the orbit: u(t) q0 u(t)*."""
    if base is None:
        base = base_point(bc)
    lus = bc.left(us)
    samples = (lus @ base.q) @ dagger(lus)
    witnesses = us @ base.witness
    return DiscreteCurve(bc=bc, samples=samples, witnesses=witnesses)


# ---------------------------------------------------------------------------
# finite differences and quadrature on uniform grids


def _diff2(f: np.ndarray, dt: float) -> np.ndarray:
    """Second-order first derivative: central interior, one-sided ends."""
    d = np.empty_like(f)
    d[1:-1] = (f[2:] - f[:-2]) / (2.0 * dt)
    d[0] = (-3.0 * f[0] + 4.0 * f[1] - f[2]) / (2.0 * dt)
    d[-1] = (3.0 * f[-1] - 4.0 * f[-2] + f[-3]) / (2.0 * dt)
    return d


def _diff4(f: np.ndarray, dt: float) -> np.ndarray:
    """Fourth-order first derivative on a uniform grid (>= 5 samples)."""
    if f.shape[0] < 5:
        return _diff2(f, dt)
    d = np.empty_like(f)
    d[2:-2] = (f[:-4] - 8.0 * f[1:-3] + 8.0 * f[3:-1] - f[4:]) / (12.0 * dt)
    d[0] = (-25 * f[0] + 48 * f[1] - 36 * f[2] + 16 * f[3] - 3 * f[4]) / (12.0 * dt)
    d[1] = (-3 * f[0] - 10 * f[1] + 18 * f[2] - 6 * f[3] + f[4]) / (12.0 * dt)
    d[-2] = (3 * f[-1] + 10 * f[-2] - 18 * f[-3] + 6 * f[-4] - f[-5]) / (12.0 * dt)
    d[-1] = (25 * f[-1] - 48 * f[-2] + 36 * f[-3] - 16 * f[-4] + 3 * f[-5]) / (12.0 * dt)
    return d


def _diff4_second(f: np.ndarray, dt: float) -> np.ndarray:
    """Fourth-order second derivative at interior nodes i in [2, T-3]."""
    return (
        -f[:-4] + 16.0 * f[1:-3] - 30.0 * f[2:-2] + 16.0 * f[3:-1] - f[4:]
    ) / (12.0 * dt * dt)


def _simpson(values: np.ndarray, dt: float) -> float:
    """Composite Simpson on a uniform grid; 3/8 tail for an odd interval
    count, trapezoid when only one interval is available."""
    n = values.shape[0] - 1
    if n < 1:
        raise DomainError("quadrature needs at least two samples")
    if n == 1:
        return float(0.5 * dt * (values[0] + values[1]))
    total = 0.0
    if n % 2 == 1:
        if n >= 3:
            tail = values[-4:]
            total += 3.0 * dt / 8.0 * (tail[0] + 3 * tail[1] + 3 * tail[2] + tail[3])
            values = values[: n - 3 + 1]
            n -= 3
        else:
            return float(0.5 * dt * (values[0] + values[1]))
    if n >= 2:
        total += dt / 3.0 * (
            values[0]
            + values[-1]
            + 4.0 * values[1:-1:2].sum()
            + 2.0 * values[2:-2:2].sum()
        )
    return float(total)


def geodesic_equation_residual(
    point: OrbitPoint, z: np.ndarray, grid_n: int = 128
) -> float:
    """Worst tau1-norm of the tangent projection of the second derivative of
    the geodesic, computed with fourth-order stencils on a grid extended by
    two nodes on each side so every node of [0, 1] has a symmetric stencil."""
    h = 1.0 / grid_n
    curve = sample_geodesic(point, z, grid_n + 4, t0=-2.0 * h, t1=1.0 + 2.0 * h)
    acc = _diff4_second(curve.samples, h)
    resid = _tangent_projection_matrix(point.bc, curve.samples[2:-2], acc, gate=False)
    return float(point.bc.two_norm1(resid).max())


def covariant_derivative(curve: DiscreteCurve, field: np.ndarray) -> np.ndarray:
    """DX/dt along the curve: differentiate the field on the grid, then
    project onto the tangent space at each node."""
    if field.shape != curve.samples.shape:
        raise DomainError("field is not sampled on the curve's grid")
    return _tangent_projection_matrix(curve.bc, curve.samples, _diff2(field, curve.dt))


# ---------------------------------------------------------------------------
# horizontal lift


def _witness_at_start(curve: DiscreteCurve) -> np.ndarray:
    if curve.witnesses is not None:
        return curve.witnesses[0]
    return orbit_section_theta(curve.bc, curve.samples[0])


def horizontal_lift(curve: DiscreteCurve) -> np.ndarray:
    """Integrate G' = kappa(q') G, G(0) = 1 along the curve.

    Classical one-step fourth-order integration with cubic interpolation of
    the generator at interval midpoints.  The steps are not re-unitarized:
    RK4 is not a unitary integrator, so the result is verified post hoc
    instead: reconstruction within LIFT_TOL, unitarity within SPECTRAL_TOL,
    and horizontality of G' G* within LIFT_TOL; failure raises a refinement
    error suggesting a finer grid.
    """
    bc = curve.bc
    qs = curve.samples
    T = qs.shape[0]
    dt = curve.dt
    qdot = _diff4(qs, dt)
    # generator at nodes from the closed inversion (1/2 lam) E1(vq - qv)
    comm = qdot @ qs - qs @ qdot
    zs = bc.inc.from_coords(bc._e1_coords(comm) / (2.0 * bc.lam))
    gen = 0.5 * (zs - dagger(zs))
    # cubic midpoint interpolation of the generator
    mids = np.empty((T - 1,) + gen.shape[1:], dtype=complex)
    if T >= 4:
        mids[1:-1] = (-gen[:-3] + 9.0 * gen[1:-2] + 9.0 * gen[2:-1] - gen[3:]) / 16.0
        mids[0] = (5 * gen[0] + 15 * gen[1] - 5 * gen[2] + gen[3]) / 16.0
        mids[-1] = (gen[-4] - 5 * gen[-3] + 15 * gen[-2] + 5 * gen[-1]) / 16.0
    else:
        mids[:] = 0.5 * (gen[:-1] + gen[1:])
    ident = bc.inc.identity()
    lift = np.empty_like(gen)
    lift[0] = ident
    g = ident
    for i in range(T - 1):
        a0, am, a1 = gen[i], mids[i], gen[i + 1]
        k1 = a0 @ g
        k2 = am @ (g + 0.5 * dt * k1)
        k3 = am @ (g + 0.5 * dt * k2)
        k4 = a1 @ (g + dt * k3)
        g = g + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        lift[i + 1] = g

    recon, horiz = lift_defects(curve, lift)
    if recon > LIFT_TOL:
        raise RefinementError(
            f"lift reconstruction defect {recon:.3e} exceeds {LIFT_TOL:.1e}; "
            f"re-sample the curve on a finer grid"
        )
    unit = unitary_defect(lift).max()
    if unit > SPECTRAL_TOL:
        raise RefinementError(f"lift unitarity defect {unit:.3e}")
    if horiz > LIFT_TOL:
        raise RefinementError(
            f"lift horizontality defect {horiz:.3e} exceeds {LIFT_TOL:.1e}; "
            f"re-sample the curve on a finer grid"
        )
    return lift


def lift_defects(curve: DiscreteCurve, lift: np.ndarray) -> tuple[float, float]:
    """(reconstruction, horizontality) defects of a candidate lift."""
    bc = curve.bc
    qs = curve.samples
    llift = bc.left(lift)
    recon = op_norm((llift @ qs[0]) @ dagger(llift) - qs).max()
    v = _diff4(lift, curve.dt) @ dagger(lift)
    ws = lift @ _witness_at_start(curve)
    e = ws @ expectation_E(bc.inc, dagger(ws) @ v @ ws) @ dagger(ws)
    return float(recon), float(bc.inc.two_norm(e).max())


# ---------------------------------------------------------------------------
# lengths and energy


def curve_lengths(
    bc: BasicConstruction,
    path: np.ndarray,
    metric: str,
    space: str = "orbit",
    order: int = 2,
) -> float:
    """Length or energy of a sampled path under the chosen metric.

    metric: 'two_norm' (trace-norm length), 'op_norm' (operator-norm
    length), or 'energy' (integrated squared trace-norm speed).  space
    selects the trace: 'orbit' for extension-algebra-valued paths, 'lift'
    for ambient-algebra-valued paths.  order 4 swaps the central
    differences for wider stencils when comparisons need the extra digits.
    """
    if path.ndim != 3 or path.shape[0] < 2:
        raise DomainError("length functionals need at least two samples")
    if space not in ("orbit", "lift"):
        raise DomainError(f"unknown space {space!r}; use 'orbit' or 'lift'")
    if metric not in ("two_norm", "op_norm", "energy"):
        raise DomainError(f"unknown metric {metric!r}")
    dt = 1.0 / (path.shape[0] - 1)
    vel = _diff2(path, dt) if order == 2 else _diff4(path, dt)
    if metric == "op_norm":
        return _simpson(op_norm(vel), dt)
    two = bc.two_norm1(vel) if space == "orbit" else bc.inc.two_norm(vel)
    return _simpson(two if metric == "two_norm" else two**2, dt)


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
) -> FirstVariationResult:
    """Half the s-derivative of the energy of a family of unitary paths.

    The family is sampled at s in {-h, 0, +h}; each row is a path of
    ambient unitaries on a uniform t-grid.  Evaluates the boundary-minus-
    integral expression with x = u* du/dt and y = u* du/ds, and reports the
    centered finite difference (E(+h) - E(-h)) / (4h) alongside.
    """
    if minus.shape != zero.shape or plus.shape != zero.shape:
        raise DomainError("family slices must share one sampling grid")
    inc = bc.inc
    for path in (minus, zero, plus):
        worst = unitary_defect(path[:: max(1, path.shape[0] // 8)]).max()
        if worst > 1e-8:
            raise DomainError(f"family samples are not unitary (defect {worst:.3e})")
    T = zero.shape[0]
    dt = 1.0 / (T - 1)
    udot = _diff4(zero, dt)
    x0 = dagger(zero) @ udot
    y0 = dagger(zero) @ ((plus - minus) / (2.0 * h))
    xdot = _diff4(x0, dt)
    # real trace inner product <a, b> = Re tau(a* b); the adjoint matters
    # for the sign since the logarithmic derivatives are anti-Hermitian
    prod_boundary = inc.amb.inner(y0[[0, -1]], x0[[0, -1]]).real
    boundary = float(prod_boundary[1] - prod_boundary[0])
    integral = _simpson(inc.amb.inner(y0, xdot).real, dt)
    value = boundary - integral
    fd = (
        curve_lengths(bc, plus, "energy", space="lift", order=4)
        - curve_lengths(bc, minus, "energy", space="lift", order=4)
    ) / (4.0 * h)
    defect = abs(value - fd)
    tol_used = max(1e-5, 10.0 * h * h)
    return FirstVariationResult(
        value=value,
        fd_value=fd,
        boundary_term=boundary,
        integral_term=integral,
        defect=defect,
        tol=tol_used,
    )


# ---------------------------------------------------------------------------
# sections and the local logarithm


def grassmann_section(p1: np.ndarray, p2: np.ndarray) -> np.ndarray:
    """Anti-Hermitian, p1-codiagonal x with e^x p1 e^{-x} = p2, from half the
    principal logarithm of the product of the two associated symmetries."""
    gap = op_norm(p1 - p2)
    if gap >= 1.0:
        raise RadiusError(f"projections are op-norm {gap:.3f} apart; need < 1")
    d = p1.shape[0]
    s = (2.0 * p2 - np.eye(d)) @ (2.0 * p1 - np.eye(d))
    x = 0.5 * log_unitary_principal(s)
    ex = spectral_function(x, "exp")
    recon = op_norm(ex @ p1 @ dagger(ex) - p2)
    codiag = max(op_norm(p1 @ x @ p1), op_norm((np.eye(d) - p1) @ x @ (np.eye(d) - p1)))
    if recon > 1e-9 or codiag > 1e-9:
        raise ConstructionError(
            f"section postconditions fail: reconstruction {recon:.3e}, "
            f"codiagonality {codiag:.3e}"
        )
    if op_norm(x) >= np.pi / 2:
        raise ConstructionError(f"section norm {op_norm(x):.3f} reached pi/2")
    return x


def orbit_section_theta(bc: BasicConstruction, q: np.ndarray | OrbitPoint) -> np.ndarray:
    """Local cross section: a unitary u in M with u p u* = q, defined for
    ‖q − p‖ < 1 via the compression reduction of the section exponential."""
    qm = q.q if isinstance(q, OrbitPoint) else q
    gap = op_norm(qm - bc.jones_p)
    if gap >= 1.0:
        raise RadiusError(f"projection is op-norm {gap:.3f} from the base; need < 1")
    x = grassmann_section(bc.jones_p, qm)
    s = spectral_function(x, "exp")
    u = reduce_R(bc, s)
    u_defect = op_norm(dagger(u) @ u - bc.inc.identity())
    if u_defect > WITNESS_TOL:
        raise DomainError(f"section element is not unitary (defect {u_defect:.3e})")
    lu = bc.left(u)
    recon = op_norm(lu @ bc.jones_p @ dagger(lu) - qm)
    if recon > WITNESS_TOL:
        raise DomainError(f"section fails u p u* = q (defect {recon:.3e})")
    return u


@dataclass(frozen=True)
class OrbitLogResult:
    z: np.ndarray
    residual: float
    iterations: int


def orbit_log(
    q0: OrbitPoint,
    q1: OrbitPoint | np.ndarray,
    tol: float = 1e-8,
    max_iter: int = 100,
) -> OrbitLogResult:
    """Local inverse of the geodesic exponential at q0.

    Damped fixed-point iteration: pull the tangent projection of the
    remaining displacement back through the inverse commutator map at the
    current geodesic endpoint, transport it to q0, and accumulate.  The
    residual ‖e^z q0 e^{-z} - q1‖ (trace norm) is verified to decrease at
    every accepted step; failure to converge raises with the final residual.

    Inputs are checked once, on entry: the endpoints must be at most
    op-norm 0.5 apart, and an array q1 must be Hermitian within WITNESS_TOL
    and lie in M1 within MEMBERSHIP_TOL (an OrbitPoint q1 was checked when
    it was made).  The loop then carries the current projection and witness
    as plain arrays and calls the unchecked kernels behind
    tangent_projection, kappa_q and geodesic_at, because every value in it
    meets their checks by construction: each step is made horizontal at q0,
    so z is a horizontal element of M, its witness e^z u0 (u0 the witness
    of q0) is a unitary of M, and e^z q0 e^{-z} is an orbit point; the
    displacement q1 - q is then Hermitian and in M1, and its tangent
    projection is tangent.  The result is checked once, on exit: the final
    projection and witness must form a valid OrbitPoint, and z must be
    horizontal at q0.
    """
    bc = q0.bc
    target = q1.q if isinstance(q1, OrbitPoint) else q1
    gap = op_norm(q0.q - target)
    if gap > 0.5:
        raise RadiusError(
            f"endpoints are op-norm {gap:.3f} apart; the local inverse is "
            f"only attempted below 0.5"
        )
    if not isinstance(q1, OrbitPoint):
        if herm_defect(target) > WITNESS_TOL:
            raise DomainError("logarithm target is not Hermitian")
        defect = bc.membership_defect(target)
        if defect > MEMBERSHIP_TOL:
            raise MembershipError(
                f"logarithm target is outside the extension algebra (defect {defect:.3e})",
                defect=defect,
            )
    z = np.zeros(q0.witness.shape, dtype=complex)
    ez = bc.inc.identity()
    q, witness = q0.q, q0.witness
    res = bc.two_norm1(q - target)
    iterations = 0
    while res > tol:
        if iterations >= max_iter:
            raise ConvergenceError(
                f"no convergence after {max_iter} iterations (residual {res:.3e}); "
                f"retry with closer endpoints",
                residual=res,
                iterations=iterations,
            )
        v = _tangent_projection_matrix(bc, q, target - q, gate=False)
        w_at_cur = _kappa(bc, witness, v)
        w0 = dagger(ez) @ w_at_cur @ ez
        w0 = 0.5 * (w0 - dagger(w0))
        w0 = w0 - translated_expectation(q0, w0)
        step = 1.0
        improved = False
        while step > 2.0**-20:
            z_try = z + step * w0
            ez_try = spectral_function(z_try, "exp")
            witness_try = ez_try @ q0.witness
            q_try = _carried_projection(bc, witness_try)
            res_try = bc.two_norm1(q_try - target)
            if res_try < res:
                z, ez, q, witness, res = z_try, ez_try, q_try, witness_try, res_try
                improved = True
                break
            step *= 0.5
        if not improved:
            raise ConvergenceError(
                f"stalled at residual {res:.3e} after {iterations} iterations; "
                f"retry with closer endpoints",
                residual=res,
                iterations=iterations,
            )
        iterations += 1
    # the exit checks
    OrbitPoint(bc=bc, q=q, witness=witness)
    if horizontal_defect_at(q0, z) > WITNESS_TOL:
        raise DomainError("logarithm is not horizontal at the start point")
    return OrbitLogResult(z=z, residual=res, iterations=iterations)


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
        return self.total_length <= self.curve_length + 1e-6


def shorten_to_polygonal(curve: DiscreteCurve, segment_bound: float) -> PolygonalResult:
    """Replace the curve by geodesic arcs through a partition whose
    consecutive op-norm gaps stay below the bound; the result is never
    longer than the curve (up to quadrature tolerance)."""
    bc = curve.bc
    qs = curve.samples
    T = qs.shape[0]
    breaks = [0]
    i = 0
    while i < T - 1:
        j = i + 1
        best = -1
        while j < T and op_norm(qs[j] - qs[i]) < min(segment_bound, 0.5):
            best = j
            j += 1
        if best < 0:
            raise DomainError(
                f"no partition with consecutive gaps below {segment_bound}; "
                f"adjacent samples already exceed the bound"
            )
        breaks.append(best)
        i = best
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
    the 1e-6 the length functional is trusted to, while staying inside the
    probe radius.
    """
    bc = point.bc
    ts = np.linspace(0.0, 1.0, grid_n + 1)
    bump = 16.0 * ts**2 * (1.0 - ts) ** 2
    geo_us = exp_family(z, ts)
    base_curve = curve_from_unitaries(bc, geo_us, base=point)
    l2_geo = curve_lengths(bc, base_curve.samples, "two_norm", order=4)
    linf_geo = curve_lengths(bc, base_curve.samples, "op_norm", order=4)
    h_fv = 1e-3
    trials: list[MinimalityTrial] = []
    n_bad = 0
    n_in = 0
    for trial in range(n_trials):
        rng = np.random.default_rng(seed + trial)
        w = random_antihermitian(rng, bc.inc.amb_basis)
        w = w / max(op_norm(w), 1e-12)

        def family(s: float) -> np.ndarray:
            return geo_us @ exp_family(w, s * bump)

        us = family(perturbation_scale)
        pert_curve = curve_from_unitaries(bc, us, base=point)
        l2 = curve_lengths(bc, pert_curve.samples, "two_norm", order=4)
        linf = curve_lengths(bc, pert_curve.samples, "op_norm", order=4)
        disp = op_norm(pert_curve.samples - point.q).max()
        within = linf <= probe_radius
        margin = l2 - l2_geo
        violation = within and margin < -1e-6
        fv = first_variation(bc, family(-h_fv), geo_us, family(h_fv), h_fv)
        if violation:
            n_bad += 1
        if within:
            n_in += 1
        trials.append(
            MinimalityTrial(
                trial=trial,
                l2=l2,
                linf=linf,
                max_displacement=disp,
                within_radius=within,
                l2_margin=margin,
                violation=violation,
                first_variation=fv.value,
                fv_consistent=fv.consistent,
            )
        )
    return MinimalityReport(
        l2_geodesic=l2_geo,
        linf_geodesic=linf_geo,
        n_trials=n_trials,
        n_within_radius=n_in,
        n_violations=n_bad,
        trials=tuple(trials),
    )


# Operator-norm window of the convexity statement: the squared log-distance
# to a geodesic has no concave node while the three unitaries are pairwise
# closer than this.
CONVEXITY_RADIUS = float(np.sqrt(2.0 - np.sqrt(2.0)))


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
) -> ConvexityReport:
    """Squared trace-norm log-distance from u0 to the unitary geodesic from
    u1 to u2, sampled on a grid; reports the smallest second difference.

    The three unitaries must be pairwise closer than ``CONVEXITY_RADIUS`` in
    operator norm.  The grid takes one stacked logarithm.
    """
    gaps = op_norm(np.stack([u0 - u1, u0 - u2, u1 - u2]))
    for gap in gaps.tolist():
        if gap >= CONVEXITY_RADIUS:
            raise RadiusError(
                f"unitaries are op-norm {gap:.4f} apart; the convexity window "
                f"requires < {CONVEXITY_RADIUS:.4f}"
            )
    w = log_unitary_principal(dagger(u1) @ u2)
    exps = exp_family(w, np.linspace(0.0, 1.0, grid_n + 1))
    lg = log_unitary_principal(dagger(u0) @ (u1 @ exps))
    # Python's float power, not numpy's square: the two can differ by an ulp.
    f = np.array([v**2 for v in bc.inc.two_norm(lg).tolist()])
    second = f[:-2] - 2.0 * f[1:-1] + f[2:]
    min_second = float(second.min()) if second.size else 0.0
    return ConvexityReport(
        f_values=tuple(f.tolist()),
        min_second_difference=min_second,
        passed=min_second >= -CONVEXITY_TOL,
    )


def sample_convexity_triple(
    inc: Inclusion, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Three unitaries of M, each exp of a Gaussian anti-Hermitian element
    rescaled to an operator norm drawn from [0.05, 0.25]; pairwise inside
    the convexity window."""
    gens = []
    for _ in range(3):
        a = random_antihermitian(rng, inc.amb_basis)
        gens.append(rng.uniform(0.05, 0.25) * a / max(op_norm(a), 1e-12))
    return tuple(spectral_function(np.stack(gens), "exp"))
