"""Composite Gauss-Legendre nodes and the chunked kernel sum.

The oscillatory cosine transforms in this package are integrated with a
fixed-order rule on panels whose count scales with the oscillation
frequency of the integrand.  Mixture CDFs and the quadrature itself are
both sums f(x_i, node_j) @ weights, evaluated by `kernel_sum` a bounded
block of rows at a time; `block_rows` sizes the blocks of every such
loop in the package.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

GL_ORDER = 16
BLOCK_ENTRIES = 4e6  # entries of one rows x width temporary


@lru_cache(maxsize=1)
def _gl_nodes():
    x, w = np.polynomial.legendre.leggauss(GL_ORDER)
    return x, w


def block_rows(width: int) -> int:
    """Rows per block that keep a rows x `width` temporary at BLOCK_ENTRIES."""
    return max(1, int(BLOCK_ENTRIES // max(width, 1)))


def panel_nodes(a: float, b: float, panels: int):
    """Nodes and weights of a composite GL_ORDER-point Gauss-Legendre rule on [a, b]."""
    x, w = _gl_nodes()
    edges = np.linspace(a, b, panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


def kernel_sum(f, x: np.ndarray, nodes: np.ndarray, weights: np.ndarray,
               chunk: int) -> np.ndarray:
    """f(x[:, None], nodes[None, :]) @ weights, `chunk` rows of x at a time.

    f is applied elementwise to broadcast (rows, 1) and (1, nodes) arrays;
    chunking bounds the temporary matrix at chunk * nodes.size entries.
    """
    out = np.empty(x.shape[0])
    for lo in range(0, x.shape[0], chunk):
        out[lo:lo + chunk] = f(x[lo:lo + chunk, None], nodes[None, :]) @ weights
    return out
