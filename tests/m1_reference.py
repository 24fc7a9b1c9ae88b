"""The extension algebra M1 as D x D matrices: references for the tests.

``gram_schmidt_basis`` is the tau1-orthonormal basis of span(M u MpM) that
Gram-Schmidt finds over the D + D^2 generators, and ``algebra_defects`` is
property 1's closure and trace clause over all K^2 pairs of basis
elements.  Neither reads the frame W, so both check it independently.
``frame_basis`` is the (K, D, D) basis of M1 that the block coordinates
stand for, and ``corner_defect_reference`` and ``module_defect_reference``
are property gates 4 and 5 computed over it, in D x D.
"""

from collections.abc import Iterator

import numpy as np

from subfactor_geo.algebra import closure_defects, orthonormalize, span_residual
from subfactor_geo.linalg import dagger, op_norm


def m1_generators(left_cache: np.ndarray, p: np.ndarray) -> Iterator[np.ndarray]:
    """Spanning family of M1, made one row of D products at a time: left(b_i)
    for every basis element of M, then left(b_i) p left(b_j) in i-major order."""
    yield from left_cache
    for lp in left_cache @ p:
        yield from lp @ left_cache


def gram_schmidt_basis(bc) -> np.ndarray:
    """The (K, D, D) basis of M1 by Gram-Schmidt over its generators."""
    return orthonormalize(m1_generators(bc.left_cache, bc.jones_p), 1.0 / bc.dim_l2)


def algebra_defects(bc, basis: np.ndarray) -> tuple[float, float, float]:
    """Property 1's K^2 clause over a basis of M1: the largest tau1 2-norm
    distance of m_a m_b and of m_a* from its span, and the largest
    |tau1(m_a m_b) - tau1(m_b m_a)|."""
    k = len(basis)
    product, adjoint = closure_defects(basis, 1.0 / bc.dim_l2)
    # t[a, b] = trace(m_a m_b), one K x K product of the flattened stacks
    t = basis.reshape(k, -1) @ np.swapaxes(basis, 1, 2).reshape(k, -1).T
    trace = float(np.abs(t - t.T).max()) / bc.dim_l2
    return product, adjoint, trace


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
