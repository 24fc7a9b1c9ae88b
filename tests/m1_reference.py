"""The extension algebra M1 as D x D matrices: references for the tests.

``gram_schmidt_basis`` is the tau1-orthonormal basis of span(M u MpM) that
Gram-Schmidt finds over the D + D^2 generators, and ``generated_defect``
tells how far a span is from holding 1 and from being mapped into itself by
each generator, which makes it hold the algebra they generate.  Neither
reads the frame W, so both check it independently.  ``frame_basis`` is the
(K, D, D) basis of M1 that the block coordinates stand for, and
``corner_defect_reference`` and ``module_defect_reference`` are property
gates 4 and 5 computed over it, in D x D.  ``generator_rank`` and
``block_center_dim`` are the rank clause and the center count that the
frame gate and property 1 read before they read the commutant of M1: the
rank of the generators' block coordinates from their K x K Gram matrix,
and the commutant of the generators' blocks narrowed block by block.
``homomorphism_defects`` are the unit, star and multiplicativity checks of
left(.) that the build ran before ``Inclusion.validate`` certified them.
"""

from collections.abc import Iterator

import numpy as np

from subfactor_geo.algebra import orthonormalize, span_coords, span_residual
from subfactor_geo.basic import BasicConstruction, _blocks, _nullspace
from subfactor_geo.linalg import dagger, op_norm

# the relative cuts of the rank count and of the center count
RANK_TOL = 1e-9
CENTER_CUT = 1e-9


def m1_generators(left_cache: np.ndarray, p: np.ndarray) -> Iterator[np.ndarray]:
    """Spanning family of M1, made one row of D products at a time: left(b_i)
    for every basis element of M, then left(b_i) p left(b_j) in i-major order."""
    yield from left_cache
    for lp in left_cache @ p:
        yield from lp @ left_cache


def gram_schmidt_basis(bc) -> np.ndarray:
    """The (K, D, D) basis of M1 by Gram-Schmidt over its generators."""
    return orthonormalize(m1_generators(bc.left_cache, bc.jones_p), 1.0 / bc.dim_l2)


def frame_basis(bc) -> np.ndarray:
    """(K, D, D) tau1-orthonormal basis of M1 over which the block
    coordinates are taken: sqrt(D/n_j) W (E (x) 1_{n_j}) W*, E running over
    the matrix units of each block, row-major, block by block."""
    d = bc.dim_l2
    parts = []
    for s, n, copies in bc._copies():
        # element (a, b) of block j: the sum over its copies of the outer
        # products of their columns a and b
        wj = bc.frame[:, copies[0]:copies[-1] + s].reshape(d, n, s).transpose(2, 0, 1)
        parts.append((np.sqrt(d / n) * (wj[:, None] @ dagger(wj)[None])).reshape(s * s, d, d))
    return np.concatenate(parts)


def corner_defect_reference(bc) -> float:
    """Property 4 in D x D: n -> n p is multiplicative, and p m p lies in the
    span of N p for m over ``frame_basis``."""
    p = bc.jones_p
    e = bc.inc.embed_basis
    n = len(e)
    lnp = bc.left(e) @ p
    prods = (e[:, None] @ e[None]).reshape((n * n,) + e.shape[1:])
    mult = (lnp[:, None] @ lnp[None]).reshape((n * n,) + p.shape) - bc.left(prods) @ p
    corner = span_residual(lnp / np.sqrt(bc.lam), p @ frame_basis(bc) @ p, 1.0 / bc.dim_l2)
    return max(float(op_norm(mult).max()), corner)


def module_defect_reference(bc) -> float:
    """Property 5 in D x D: m p lies in the span of M p for m over
    ``frame_basis``."""
    p = bc.jones_p
    return span_residual(bc.left_cache @ p / np.sqrt(bc.lam), frame_basis(bc) @ p, 1.0 / bc.dim_l2)


def generated_defect(bc, basis: np.ndarray) -> float:
    """How far span(basis) is from holding 1 and from being mapped into
    itself by p and by every left(b_i): the largest tau1 2-norm distance
    from the span of the identity and of g m, g over the D + 1 generators
    and m over the orthonormal basis.  A subspace X with 1 in X and g X in X
    for every generator g holds every word in the generators, so it holds
    the algebra they generate: (D + 1) K products, where checking that the
    span is closed under products takes K^2."""
    w = 1.0 / bc.dim_l2
    worst = span_residual(basis, np.eye(bc.dim_l2)[None], w)
    for g in np.concatenate([bc.jones_p[None], bc.left_cache]):
        worst = max(worst, span_residual(basis, g @ basis, w))
    return worst


def _coords(bc: BasicConstruction, blocks: list[np.ndarray]) -> np.ndarray:
    """The K coordinates of the element of M1 with blocks X_j: each
    sqrt(n_j/D) X_j row-major, block by block."""
    parts = [np.sqrt(n / bc.dim_l2) * x for (_, n), x in zip(bc.blocks, blocks)]
    return np.concatenate([x.reshape(x.shape[:-2] + (-1,)) for x in parts], axis=-1)


def generator_rank(bc: BasicConstruction) -> int:
    """Rank of the coordinates of the D + D^2 generators of span(M u MpM),
    left(b_i) and then left(b_i) p left(b_j) (its blocks the products of
    the blocks of its factors, in S by the membership clause), from their
    K x K Gram matrix, one row i of D products at a time.  An eigenvalue
    counts when it exceeds RANK_TOL times the largest."""
    left, p = _blocks(bc, bc.left_cache), _blocks(bc, bc.jones_p)
    c = _coords(bc, left)
    gram = dagger(c) @ c
    for i in range(bc.dim_l2):
        c = _coords(bc, [x[i] @ q @ x for x, q in zip(left, p)])
        gram += dagger(c) @ c
    ev = np.linalg.eigvalsh(gram)
    return int((ev > RANK_TOL * ev[-1]).sum())


def block_center_dim(bc: BasicConstruction) -> int:
    """Dimension of the center of M1, read block by block from the blocks
    of its generators.

    M1 is generated by p and left(b_i) over the basis of M (Jones 1983), so
    its center is the commutant of these generators within M1.  Once the
    frame clauses of property 1 hold, M1 is the frame's algebra S, and for
    g and z in S the commutator [g, z] has blocks [G_j, Z_j]: the commutant
    splits over the blocks, and the count is the sum over the blocks j of
    the dimension of the commutant of the generators' blocks in M_{s_j}.
    Each is cut down one generator at a time on s_j^2 unknowns: V starts
    as the identity, and each G_j replaces V by V times the nullspace of
    the s_j^2 x v matrix of the commutators [G_j, Z], Z over the columns
    of V; the identity stays.  left(b_0), the identity (gated by the
    build), is skipped.
    """
    count = 0
    generators = np.concatenate([bc.jones_p[None], bc.left_cache[1:]])
    for (s, _), gs in zip(bc.blocks, _blocks(bc, generators)):
        v = np.eye(s * s)
        for g in gs:
            z = v.T.reshape(-1, s, s)
            comm = (g @ z - z @ g).reshape(len(z), s * s).T
            v = v @ _nullspace(comm, CENTER_CUT)
        count += v.shape[1]
    return count


def homomorphism_defects(inc) -> tuple[float, float, float]:
    """(unit, star, product): the exact defects of left(.) on the basis of M
    as a unital *-homomorphism, ||left(b_0) - 1||, the largest
    ||left(b_i*) - left(b_i)*|| and the largest ||left(b_i b_j) -
    left(b_i) left(b_j)||, one row i (D matrices) at a time: D^5."""
    basis = inc.amb_basis
    d = inc.dim
    w = inc.amb.weight_vector
    # left_cache[i, r, s] = <b_i b_s, b_r> = coords_prod[i, s, r]
    left_cache = inc.left_regular
    coords_prod = np.swapaxes(left_cache, 1, 2)
    unit = op_norm(left_cache[0] - np.eye(d))
    left_adj = np.tensordot(span_coords(basis, dagger(basis), w), left_cache, axes=1)
    star = left_adj - dagger(left_cache)

    # left(b_i b_j) = left(b_i) left(b_j), one row i (D matrices) at a time
    def homo_row(i: int) -> np.ndarray:
        return left_cache[i] @ left_cache - np.tensordot(coords_prod[i], left_cache, 1)

    product = max(float(op_norm(homo_row(i)).max()) for i in range(d))
    return float(unit), float(op_norm(star).max()), product
