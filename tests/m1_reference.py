"""The extension algebra M1 as it was built before its frame: references for
the tests.

``gram_schmidt_basis`` is the tau1-orthonormal basis of span(M u MpM) that
Gram-Schmidt finds over the D + D^2 generators, and ``algebra_defects`` is
property 1's closure and trace clause over all K^2 pairs of basis
elements.  Neither reads the frame W, so both check it independently.
"""

from collections.abc import Iterator

import numpy as np

from subfactor_geo.algebra import closure_defects, orthonormalize


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
