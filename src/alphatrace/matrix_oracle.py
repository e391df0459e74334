"""Independent k = 2 oracle: exact matrix-power traces.

For graphs (k = 2), the tensor is the matrix alpha*D + (1-alpha)*A and
the d-th moment is the trace of its d-th power.  This module computes
that trace by plain polynomial matrix multiplication, sharing nothing
with the assignment or infragraph machinery.
"""

from __future__ import annotations

from .errors import HypergraphError
from .hypergraph import Hypergraph
from .polynomial import AlphaPoly


def matrix_power_trace(h: Hypergraph, d: int) -> AlphaPoly:
    if d < 0:
        raise ValueError(f"moment order must be nonnegative, got {d}")
    if h.k != 2:
        raise HypergraphError("matrix oracle is defined for k = 2 only")
    n = h.n
    deg = h.degrees()
    alpha = AlphaPoly.monomial(1)
    one_minus = AlphaPoly((1, -1))
    zero = AlphaPoly.zero()
    mat = [[zero for _ in range(n)] for _ in range(n)]
    for v in range(n):
        mat[v][v] = alpha * deg[v]
    for u, v in h.edges:
        mat[u][v] = mat[v][u] = one_minus
    if d == 0:
        return AlphaPoly.constant(n)
    power = mat
    for _ in range(d - 1):
        power = _matmul(power, mat)
    out = AlphaPoly.zero()
    for i in range(n):
        out = out + power[i][i]
    return out


def _matmul(a, b):
    n = len(a)
    out = [[AlphaPoly.zero() for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            acc = AlphaPoly.zero()
            for l in range(n):
                if a[i][l] and b[l][j]:
                    acc = acc + a[i][l] * b[l][j]
            out[i][j] = acc
    return out
