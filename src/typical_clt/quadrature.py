"""Composite Gauss-Legendre nodes, the one block rule and the kernel sum.

Oscillatory cosine transforms are integrated with a fixed-order rule on
panels whose count follows the oscillation frequency.  The direct CDF of
a small mixture and the quadrature are both sums f(x_i, node_j) @ weights
(`kernel_sum`); a mixture's lookup table is one FFT convolution instead.

Every blocked temporary of the package (these sums, streamed sample
rows, the fill of a whole sample matrix, cf grids, pair products, the
M_p search's scores, the tail check's sums) is a rows x width array cut
by `blocks` to BLOCK_ENTRIES entries or fewer, small enough to stay in
a core's L2 cache.  Blocks of a multiple of 8 rows put a BLAS
matvec's remainder rows where the one-shot matvec does, and row-blocked
gemm columns come out as the one-shot gemm's (bar an odd last column,
which `functionals._empirical_lp` scores by matvec), so with one BLAS
thread the block size never changes a number.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

GL_ORDER = 16
# Entries of one rows x width block, 512 KB of float64.  The M_p search's
# 504-row x 128-column score block and its scratch then stay in a 2 MB L2
# cache, while 4 MB blocks streamed from memory at every ascent step (on a
# 2-vCPU Linux VM at one BLAS thread, verify's six p = 3 searches took
# 0.49-0.52 s in 4 MB blocks, 0.39-0.41 s in these).  The smaller blocks
# cost page faults, not time: sweep-uniform-F takes ~199k minor faults per
# run against ~131k with 4 MB blocks, in the same wall time.  Blocks of 32 MB sit just under
# glibc's 32 MiB mmap ceiling: freeing one raises the mmap threshold to its
# size, and the heap then keeps later blocks (verify --suite all peaked at
# 557 MB with them, 477 MB with 4 MB ones).
BLOCK_ENTRIES = 1 << 16


@lru_cache(maxsize=1)
def _gl_nodes():
    x, w = np.polynomial.legendre.leggauss(GL_ORDER)
    return x, w


def blocks(rows: int, width: int):
    """Consecutive slices of range(rows), each at most BLOCK_ENTRIES / width rows.

    A multiple of 8 rows whenever 8 fit; then a lone last row joins the
    slice before it, since numpy takes a one-row matvec for a dot product.
    """
    step = max(1, BLOCK_ENTRIES // max(width, 1))
    if step >= 8:
        step -= step % 8
    lo = 0
    while lo < rows:
        hi = rows if step >= 8 and rows - lo == step + 1 else min(lo + step, rows)
        yield slice(lo, hi)
        lo = hi


def panel_nodes(a: float, b: float, panels: int):
    """Nodes and weights of a composite GL_ORDER-point Gauss-Legendre rule on [a, b]."""
    x, w = _gl_nodes()
    edges = np.linspace(a, b, panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


def kernel_sum(f, x: np.ndarray, nodes: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """f(x[:, None], nodes[None, :]) @ weights, a block of rows of x at a time.

    f is applied elementwise to broadcast (rows, 1) and (1, nodes) arrays.
    """
    out = np.empty(x.shape[0])
    for block in blocks(x.shape[0], nodes.size):
        out[block] = f(x[block, None], nodes[None, :]) @ weights
    return out
