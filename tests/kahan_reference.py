"""Per-node reference path for the frame_core engine (test oracle).

The engine contracts U(1)-covariant slices with matrix products. This module
keeps the earlier evaluation: one operator per node, paired or resummed in
node order with compensated (Kahan) summation. Families are callables
node -> ndarray, so an oracle can be built from the closed-form operators
without going through the slices.
"""

import numpy as np


def kahan_sum(terms, zero):
    """Compensated sum of scalars or arrays in iteration order."""
    total = zero
    comp = zero * 0
    for term in terms:
        y = term - comp
        s = total + y
        comp = (s - total) - y
        total = s
    return total


def analyze(grid, analysis, o):
    """values[i] = Tr(o analysis(x_i)^dag)."""
    return np.array([np.vdot(analysis(node), o) for node in grid.nodes], dtype=complex)


def synthesize(grid, synthesis, values, dim):
    """sum_i w_i values[i] synthesis(x_i)."""
    terms = (
        w * v * synthesis(node) for node, w, v in zip(grid.nodes, grid.weights, values)
    )
    return kahan_sum(terms, np.zeros((dim, dim), dtype=complex))


def admissibility_constant(grid, analysis, synthesis, b0p, l0p):
    """sum_i w_i <analysis(x_i), b0p> <l0p, synthesis(x_i)>."""
    terms = (
        w * np.vdot(analysis(node), b0p) * np.vdot(l0p, synthesis(node))
        for node, w in zip(grid.nodes, grid.weights)
    )
    return kahan_sum(terms, 0j)


def singular_admissibility(grid, family, probe, l0):
    """sum_i w_i <family(x_i), probe> <l0, family(x_i)>."""
    terms = (
        w * np.vdot(family(node), probe) * np.vdot(l0, family(node))
        for node, w in zip(grid.nodes, grid.weights)
    )
    return kahan_sum(terms, 0j)


def gram_extremes(grid, analysis, synthesis, dim):
    """Extreme eigenvalues of the full symmetrized mixed Gram matrix.

    Also returns sum_i w_i ||synthesis(x_i)|| ||analysis(x_i)||, the norm
    bound of the summed terms that sets the scale of their rounding error.
    """
    terms = (
        w * np.outer(synthesis(node).ravel(), analysis(node).ravel().conj())
        for node, w in zip(grid.nodes, grid.weights)
    )
    gram = kahan_sum(terms, np.zeros((dim * dim, dim * dim), dtype=complex))
    evals = np.linalg.eigvalsh((gram + gram.conj().T) / 2)
    scale = sum(
        w * np.linalg.norm(synthesis(node)) * np.linalg.norm(analysis(node))
        for node, w in zip(grid.nodes, grid.weights)
    )
    return evals[0], evals[-1], scale
