"""All-pairs shortest paths over the min-plus semiring.

Two independent routes to the same answer: a sequential Floyd-Warshall
dynamic program (the reference oracle) and closure by repeated squaring of
(I ⊕ A) built on the tiled matmul.  Both accept negative finite weights and
flag negative cycles, in which case the returned distances carry no
shortest-path meaning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .matrix import (
    DimensionMismatch,
    SemiringMismatch,
    TileSpec,
    TropicalMatrix,
    _saturate,
    identity_matrix,
    matmul,
)
from .semiring import INT_EXACT_LIMIT, SemiringKind, _note_saturation


class Algorithm(Enum):
    FLOYD_WARSHALL = "fw"
    REPEATED_SQUARING = "square"


@dataclass(frozen=True, slots=True)
class DistanceMatrix:
    """A square min-plus matrix read as pairwise path distances.

    When the producing solve saw no negative cycle this satisfies zero
    diagonal, the triangle inequality, and dist(i,j) = Infinity exactly for
    unreachable pairs; verify_apsp checks those properties.
    """

    n: int
    dist: TropicalMatrix

    def __post_init__(self) -> None:
        if self.dist.kind is not SemiringKind.MIN_PLUS:
            raise ValueError("distance matrices are min-plus")
        if self.dist.shape != (self.n, self.n):
            raise DimensionMismatch(f"expected {self.n}x{self.n} distances, got {self.dist.shape}")

    @classmethod
    def from_matrix(cls, m: TropicalMatrix) -> "DistanceMatrix":
        return cls(m.n_rows, m)


@dataclass(frozen=True, slots=True)
class ApspReport:
    """One solve: distances, which algorithm produced them, whether a
    negative cycle was found, and how many matrix multiplications the
    closure needed (0 for Floyd-Warshall; the negative-cycle probe is a
    check, not part of the closure, and is not counted)."""

    distances: DistanceMatrix
    algorithm: Algorithm
    negative_cycle: bool
    multiplications_performed: int


def _require_square_minplus(adj: TropicalMatrix) -> int:
    if not isinstance(adj, TropicalMatrix):
        raise TypeError(f"expected a TropicalMatrix, got {type(adj).__name__}")
    if adj.kind is not SemiringKind.MIN_PLUS:
        raise SemiringMismatch("shortest paths need a min-plus matrix")
    if adj.n_rows != adj.n_cols:
        raise DimensionMismatch(f"adjacency matrix must be square, got {adj.shape}")
    return adj.n_rows


def _closure_base(adj: TropicalMatrix) -> TropicalMatrix:
    """I ⊕ A: the adjacency matrix with its diagonal ⊕-combined with 0.

    Powering this instead of raw A makes the k-th power mean "shortest
    distance using at most k edges", so the power sequence is monotone
    non-increasing and stabilizes at the closure.
    """
    base = np.array(adj.data)
    np.fill_diagonal(base, np.minimum(np.diagonal(base), 0.0))
    base.flags.writeable = False
    return TropicalMatrix._wrap(adj.kind, base, adj.integer)


def floyd_warshall(adj: TropicalMatrix) -> ApspReport:
    """Classic k-outermost dynamic program; the sequential reference.

    Each k-round is one vectorized relaxation d = d ⊕ (d(:,k) ⊗ d(k,:));
    no tiling, no threads, so it stays an independent check on the
    squaring route.
    """
    n = _require_square_minplus(adj)
    d = np.array(_closure_base(adj).data)

    limit = INT_EXACT_LIMIT if adj.integer else math.inf
    finite = d[np.isfinite(d)]
    max_abs = float(np.max(np.abs(finite))) if finite.size else 0.0
    # relaxation candidates are sums of two at-most-(n+1)-edge path weights
    screen_tripped = 2.0 * (n + 1) * max_abs >= limit
    cand = np.empty_like(d)
    with np.errstate(over="ignore"):
        for k in range(n):
            np.add.outer(d[:, k], d[k, :], out=cand)
            if screen_tripped and _saturate(cand, d[:, k, None], d[None, k, :], limit, math.inf):
                _note_saturation()
            np.minimum(d, cand, out=d)

    negative_cycle = bool((np.diagonal(d) < 0.0).any())
    d.flags.writeable = False
    dist = TropicalMatrix._wrap(adj.kind, d, adj.integer)
    return ApspReport(
        distances=DistanceMatrix(n, dist),
        algorithm=Algorithm.FLOYD_WARSHALL,
        negative_cycle=negative_cycle,
        multiplications_performed=0,
    )


def apsp_by_squaring(adj: TropicalMatrix, tiles: "TileSpec | None" = None) -> ApspReport:
    """Closure (I ⊕ A)^(n-1) by repeated squaring of the tiled matmul.

    Powers of the zero-diagonal base form a descending chain, so plain
    squaring walks 1, 2, 4, ... past n-1 with no combine step: at most
    ceil(log2(n-1)) multiplications, counted in the report.  Squaring stops
    early at a fixpoint (the chain cannot move again).

    Negative cycles: a fixpoint with non-negative diagonal rules one out,
    otherwise one extra uncounted multiplication probes whether the matrix
    is still moving or the diagonal went negative.
    """
    n = _require_square_minplus(adj)
    base = _closure_base(adj)

    multiplications = 0
    fixpoint = False
    if n == 1:
        d = identity_matrix(adj.kind, 1)
    else:
        d = base
        power = 1
        while power < n - 1:
            squared = matmul(d, d, tiles=tiles)
            multiplications += 1
            if squared == d:
                fixpoint = True
                break
            d = squared
            power *= 2

    if fixpoint:
        negative_cycle = bool((np.diagonal(d.data) < 0.0).any())
    else:
        probe = matmul(d, base, tiles=tiles)
        negative_cycle = probe != d or bool((np.diagonal(probe.data) < 0.0).any())

    return ApspReport(
        distances=DistanceMatrix(n, d),
        algorithm=Algorithm.REPEATED_SQUARING,
        negative_cycle=negative_cycle,
        multiplications_performed=multiplications,
    )


def find_apsp_violation(adj: TropicalMatrix, result: DistanceMatrix) -> "str | None":
    """Name the first distance-matrix property the result breaks, or None.

    Checked in order: zero diagonal, dist ≤ adj (with ⊕-zeroed diagonal),
    triangle inequality, and the closure fixpoint dist = dist ⊗ (I ⊕ adj).
    """
    n = _require_square_minplus(adj)
    if result.dist.shape != adj.shape:
        raise DimensionMismatch(f"result shape {result.dist.shape} does not match adjacency {adj.shape}")

    d = result.dist.data
    base = _closure_base(adj)
    diag = np.diagonal(d)
    if not (diag == 0.0).all():
        i = int(np.argmax(diag != 0.0))
        return f"diagonal entry ({i},{i}) is {d[i, i]!r}, expected 0"
    if not (d <= base.data).all():
        i, j = np.unravel_index(int(np.argmax(~(d <= base.data))), d.shape)
        return f"distance ({i},{j}) exceeds the direct edge weight"
    through = matmul(result.dist, result.dist)
    if not (d <= through.data).all():
        i, j = np.unravel_index(int(np.argmax(~(d <= through.data))), d.shape)
        return f"triangle inequality fails at ({i},{j})"
    relaxed = matmul(result.dist, base)
    if relaxed != result.dist:
        i, j = np.unravel_index(int(np.argmax(relaxed.data != d)), d.shape)
        return f"not a fixpoint: entry ({i},{j}) still relaxes to {relaxed.data[i, j]!r}"
    return None


def verify_apsp(adj: TropicalMatrix, result: DistanceMatrix) -> bool:
    """True iff the result passes every check in find_apsp_violation."""
    return find_apsp_violation(adj, result) is None
