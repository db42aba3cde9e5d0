"""Kronecker (R-MAT) graph generation per the Graph500 specification.

``scale`` is log2 of the vertex count; ``edgefactor`` edges are generated
per vertex with the standard (A, B, C) = (0.57, 0.19, 0.19) initiator.
Generation is fully vectorized and seedable; the edge list is symmetrized
(undirected) and self-loops are removed, then converted to CSR.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["GraphCSR", "kronecker_edges", "build_csr", "generate_graph"]

A, B, C = 0.57, 0.19, 0.19


@dataclass(frozen=True)
class GraphCSR:
    """Undirected graph in CSR form."""

    scale: int
    n_vertices: int
    indptr: np.ndarray    # int64, len n_vertices + 1
    indices: np.ndarray   # int32/int64 neighbor ids

    def degree(self, v: int) -> int:
        return int(self.indptr[v + 1] - self.indptr[v])

    def neighbors(self, v: int) -> np.ndarray:
        return self.indices[self.indptr[v]:self.indptr[v + 1]]


def kronecker_edges(scale: int, edgefactor: int, rng: np.random.Generator) -> np.ndarray:
    """Generate an R-MAT edge list of shape (2, n_edges)."""
    n_edges = edgefactor << scale
    ij = np.zeros((2, n_edges), dtype=np.int64)
    ab = A + B
    c_norm = C / (1.0 - ab)
    a_norm = A / ab
    for bit in range(scale):
        ii_bit = rng.random(n_edges) > ab
        jj_bit = rng.random(n_edges) > np.where(ii_bit, c_norm, a_norm)
        ij[0] += (ii_bit << bit)
        ij[1] += (jj_bit << bit)
    # Permute vertex labels so high-degree vertices are scattered.
    perm = rng.permutation(1 << scale)
    return perm[ij]


def build_csr(scale: int, edges: np.ndarray) -> GraphCSR:
    """Symmetrize, drop self-loops, and build CSR."""
    n = 1 << scale
    src = np.concatenate([edges[0], edges[1]])
    dst = np.concatenate([edges[1], edges[0]])
    keep = src != dst
    src, dst = src[keep], dst[keep]
    order = np.argsort(src, kind="stable")
    src, dst = src[order], dst[order]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.add.at(indptr, src + 1, 1)
    np.cumsum(indptr, out=indptr)
    return GraphCSR(scale=scale, n_vertices=n, indptr=indptr, indices=dst)


def generate_graph(scale: int, edgefactor: int = 16, seed: int = 1) -> GraphCSR:
    """Graph500-style Kronecker graph as CSR."""
    if scale < 1:
        raise ValueError("scale must be >= 1")
    rng = np.random.default_rng(seed)
    return build_csr(scale, kronecker_edges(scale, edgefactor, rng))
