"""Numerical tolerances used across the package.

Each is an absolute bound on the norm of a defect.  They are constants: no
run, config or environment changes them.
"""

# Absolute spectral-norm tolerance for algebraic identity checks.
SPECTRAL_TOL = 1e-10
# Defects ``Inclusion.validate`` allows: of each basis's Gram matrix from 1,
# first element from 1 and of N's traces (BASIS_TOL), and of its structure constants.
BASIS_TOL = 1e-11
EMBEDDING_TOL = 1e-9
# Radians of clearance required between unitary spectrum and -1 before the
# principal logarithm refuses to pick a branch.
ANGLE_GUARD = 1e-8
# Post-hoc reconstruction tolerance for horizontal lifts.
LIFT_TOL = 1e-6
# Unitarity and transport defect allowed for the unitary witness of an
# orbit point, and for horizontality and Hermiticity at the orbit boundary.
WITNESS_TOL = 1e-8
# Most negative second difference a sampled squared-distance profile may
# have and still count as convex.
CONVEXITY_TOL = 1e-8
# Membership defect allowed when projecting onto a spanned subalgebra.
MEMBERSHIP_TOL = 1e-8
# Unitarity defect allowed for the sampled paths of a variation family.
PATH_UNITARY_TOL = 1e-8
# Reconstruction and codiagonality defect allowed for a Grassmann section.
SECTION_TOL = 1e-9
# Trace-norm length difference the quadrature of a curve length is trusted to.
LENGTH_TOL = 1e-6
# Most negative eigenvalue of E(x*x) - lam * x*x that a Pimsner-Popa
# feasibility probe may read and still count as satisfying the inequality.
PP_MARGIN_TOL = 1e-10
# Gram-Schmidt drop tolerance: candidate directions with smaller residual
# norm are treated as linearly dependent.
GRAM_DROP_TOL = 1e-9
# Unitarity defect allowed for the frame W that carries the block form of
# the extension algebra onto L2(M).
FRAME_TOL = 1e-10
# Trace 2-norm distance allowed between a generator of the extension
# algebra (p, or a left multiplication) and the algebra of the frame; also
# the product and adjoint closure bound of a basis of it.
CLOSURE_TOL = 1e-9
# Relative nullspace cut of property 3's commutant of p in M: a singular
# value below this fraction of the largest (or of 1) is 0.
COMMUTANT_CUT = 1e-10
# Relative nullspace cut of the commutant of M1 and of its center.  Their
# nonzero singular values equal the largest (>= 1.41) on the test families;
# the commutant's null ones read up to 1.6e-9 of the largest once p is moved
# off the frame's algebra within CLOSURE_TOL, where COMMUTANT_CUT would refuse
# it.  This cut sits four decades above that reading and five below 1.
M1_COMMUTANT_CUT = 1e-5
# Weighted 2-norm distance allowed between N and the commutant of p in M, or of M1.
COMMUTANT_SPAN_TOL = 1e-9
# Consistency defect allowed for the reduction left_rep(m) p = y p.
REDUCTION_TOL = 1e-8
# Codiagonality, expectation and reconstruction defect allowed for the
# tangent decomposition v = xp + px*.
DECOMPOSE_TOL = 1e-9
