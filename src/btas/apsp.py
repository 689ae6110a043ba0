"""All-pairs shortest paths over the min-plus semiring.

Two independent routes to the same answer: a sequential Floyd-Warshall
dynamic program (the reference oracle, and the CLI's default) and closure
by repeated squaring of (I ⊕ A) built on the tiled matmul.  Both accept
negative finite weights and flag negative cycles, in which case the
returned distances carry no shortest-path meaning.

Floyd-Warshall runs its rounds in blocks and its rows in cache-sized
strips, and still returns the bits of the plain k-outermost loop.  In
round k, row i reads only its own entry d(i,k) and row k as it stood when
round k began.  So any schedule gives the same bits, saturation and
negative-cycle flag included, if it applies the rounds to each row in
order 0..n-1 and hands each row a snapshot of row k taken at the start of
round k.

A strip runs through its rounds in the C loop of fw_relax.c, part of the
package's compiled library (btas._compiled).  Where that library is not
built, the same rounds run in numpy, silently and on the same bits.

Floyd-Warshall climbs a ladder of passes.  An unmasked pass in a dtype
runs only while the overflow screen 2(n+1)·max|w| stays under that
dtype's exact limit L, and is dropped within 16 rounds once an entry is
at or below -L.  L is 2^53, or inf in float mode, in float64, and
2^(24-s) in float32 by matmul's rule (every finite weight a multiple of
2^-s).  The last rung is the float64 pass that masks every sum reaching
the limit.  A pass that ends above -L has its bits: the screen bounds
every sum from above, so a sum reaches L only on the negative side, and
as entries only decrease it leaves one at or below -L.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import _compiled
from .matrix import (
    DimensionMismatch,
    SemiringMismatch,
    TileSpec,
    TropicalMatrix,
    _TASK_BYTES,
    _aligned_empty,
    _reaches,
    _saturate,
    _saturation_limit,
    matmul,
)
from .semiring import SINGLE_EXACT_LIMIT, SemiringKind, _note_saturation, magnitude_and_scale, single_scale


class Algorithm(Enum):
    FLOYD_WARSHALL = "fw"
    REPEATED_SQUARING = "square"


@dataclass(frozen=True, slots=True)
class DistanceMatrix:
    """A square min-plus matrix read as pairwise path distances.

    When the producing solve saw no negative cycle this satisfies zero
    diagonal, the triangle inequality, and dist(i,j) = Infinity exactly for
    unreachable pairs.  verify_apsp checks a claimed one by recomputing it
    with floyd_warshall and comparing entry by entry.
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


def _closure_base(adj: TropicalMatrix, out: np.ndarray) -> np.ndarray:
    """I ⊕ A written into out, and out returned: the adjacency matrix with its diagonal ⊕-combined with 0.

    Powering this instead of raw A makes the k-th power mean "shortest
    distance using at most k edges", so the power sequence is monotone
    non-increasing and stabilizes at the closure.
    """
    out[...] = adj.data
    np.fill_diagonal(out, np.minimum(np.diagonal(out), 0.0))
    return out


#: An unmasked pass reads its rows for the floor after every round k with
#: k+1 a multiple of this: one read of the rows against about four per
#: round, so a pass that will be dropped stops within this many rounds.
#: fw_relax.c's FLOOR_ROUNDS is the same number.
_FLOOR_ROUNDS = 16


class _BelowFloor(Exception):
    """An unmasked pass left an entry at or below its floor, where a sum may have reached its limit."""


def _compiled_relax() -> "dict[str, ctypes._CFuncPtr] | None":
    """fw_relax.c's loops by dtype char, or None where the compiled library is not built."""
    library = _compiled.library()
    return None if library is None else {"f": library.btas_relax_f32, "d": library.btas_relax_f64}


def _relax(rows: np.ndarray, pivots: np.ndarray, k0: int, cand: "np.ndarray | None",
           limit: "float | None", snapshot: "np.ndarray | None" = None,
           floor: "float | None" = None) -> bool:
    """Run rows through rounds k0 .. k0+len(pivots)-1, in order; report saturation.

    pivots[j] must read as row k0+j at the start of round k0+j: either a
    row of rows (the panel) or a snapshot of it.  snapshot, when given,
    receives that row as its round starts, for the strips that follow.
    With a floor, raise _BelowFloor once a check every _FLOOR_ROUNDS rounds
    finds an entry at or below it.  cand is the numpy loop's candidate
    buffer; without one, fw_relax.c's loop runs, on the same bits.
    """
    if cand is None:
        n = rows.shape[1]
        arrays = (rows, pivots) if snapshot is None else (rows, pivots, snapshot)
        if not (all(a.flags.c_contiguous and a.dtype == rows.dtype and a.shape[1:] == (n,) for a in arrays)
                and (snapshot is None or snapshot.shape == pivots.shape)):
            raise ValueError("the compiled loop takes C-contiguous rows of one length and dtype")
        status = _compiled_relax()[rows.dtype.char](
            rows.ctypes.data, pivots.ctypes.data, None if snapshot is None else snapshot.ctypes.data,
            len(rows), len(pivots), n, k0,
            math.nan if limit is None else limit, math.nan if floor is None else floor)
        if status < 0:
            raise _BelowFloor
        return bool(status)
    c = cand[: rows.size].reshape(rows.shape)
    saturated = False
    for j, pivot in enumerate(pivots):
        k = k0 + j
        if snapshot is not None:
            snapshot[j] = pivot
        np.add.outer(rows[:, k], pivot, out=c)
        if limit is not None:
            # a candidate meets the entry it would replace, not a ⊕ over k,
            # so both sides are masked here; a float overflow to +inf on
            # the high side is Infinity already
            (low,), (high,) = _reaches(rows[:, k, None], pivot[None, :], limit)
            if low:
                _saturate(c, -limit, math.inf)
            if high and math.isfinite(limit):
                _saturate(c, limit, math.inf)
            saturated |= bool(low or high)
        np.minimum(rows, c, out=rows)
        if floor is not None and (k + 1) % _FLOOR_ROUNDS == 0 and not rows.min() > floor:
            raise _BelowFloor
    return saturated


def _relax_all(d: np.ndarray, b: int, limit: "float | None", floor: "float | None" = None) -> bool:
    """Floyd-Warshall's n rounds on d in place, in blocks of b; report saturation.

    The rounds are taken in blocks K = [k0, k0+b).  First the panel rows K
    run through the rounds in K, and row k is copied as round k starts.
    Then every other row, in strips of b, runs through the rounds in K
    against those snapshots.  A floor is handed to each _relax, and read
    once more after the last round.  The numpy loop's candidate buffer is
    taken only where fw_relax.c is not compiled.
    """
    n = len(d)
    # a misaligned cand made each k-round 20-30% slower
    cand = None if _compiled_relax() else _aligned_empty(b * n, d.dtype)
    snap = _aligned_empty(b * n, d.dtype).reshape(b, n) if b < n else None
    saturated = False
    with np.errstate(over="ignore", invalid="ignore"):
        for k0 in range(0, n, b):
            panel = d[k0 : k0 + b]
            snapshots = None if snap is None else snap[: len(panel)]
            saturated |= _relax(panel, panel, k0, cand, limit, snapshot=snapshots, floor=floor)
            for r0 in range(0, n, b):
                if r0 != k0:
                    saturated |= _relax(d[r0 : r0 + b], snapshots, k0, cand, limit, floor=floor)
    if floor is not None and not d.min() > floor:  # the rounds since the last check
        raise _BelowFloor
    return saturated


def _widen(narrow: np.ndarray, d: np.ndarray) -> None:
    """Write narrow, a float32 view of the first half of d's buffer, over d as float64.

    Float64 row i covers float32 rows 2i and 2i+1, and for i ≥ 1 it lies
    past float32 row i.  So rows go from n-1 down to 1 in blocks [i0, i1)
    with i1 ≤ 2·i0, each landing on float32 rows already widened.  Row 0
    overlaps its own source, which numpy does not buffer across dtypes,
    so it goes through a copy.
    """
    i1 = len(d)
    while i1 > 1:
        i0 = (i1 + 1) // 2
        d[i0:i1] = narrow[i0:i1]
        i1 = i0
    d[0] = narrow[0].copy()


def _relax_pass(adj: TropicalMatrix, d: np.ndarray, b: int, dtype: type,
                limit: "float | None", floor: "float | None" = None) -> bool:
    """One Floyd-Warshall pass on I ⊕ A into d, the float64 result; report saturation.

    A float32 pass runs in the first half of d's buffer, which is then
    widened in place, so no pass needs a second n x n array.  _relax_all
    takes limit and floor, and may raise _BelowFloor.
    """
    n = len(d)
    rows = d if dtype is np.float64 else d.reshape(-1).view(dtype)[: n * n].reshape(n, n)
    saturated = _relax_all(_closure_base(adj, rows), b, limit, floor)
    if rows is not d:
        _widen(rows, d)
    return saturated


def floyd_warshall(adj: TropicalMatrix) -> ApspReport:
    """Floyd-Warshall in row blocks; the sequential reference.

    Round k relaxes every row i as d(i,:) = d(i,:) ⊕ (d(i,k) ⊗ d(k,:)).
    The rounds run in blocks of b and the rows in strips of b (_relax_all).
    Each row sees its rounds in order and row k as round k found it, which
    by the module docstring's argument keeps every bit of the k-outermost
    loop.  A strip gets half of matmul's per-task byte budget, as does the
    numpy loop's candidate buffer, so both stay in cache as n grows; when
    b = n there is one block, no snapshot, and the loop is the plain
    k-outermost one.  Each strip runs in fw_relax.c's compiled loop, or in
    numpy where that cannot be built (module docstring).  No threads and
    no matmul, so it stays an independent check on the squaring route.

    Saturation: a finite+finite sum whose magnitude reaches the limit (2^53
    in integer mode, overflow in float mode) becomes Infinity, as in
    matmul.  The screen 2(n+1)·max|w| bounds every sum from above even with
    negative cycles, as an entry never exceeds its initial value, but a
    negative cycle can drive entries down exponentially in n (Hougardy,
    IPL 110, 2010).

    Passes (module docstring): float32 with L = 2^(24-s) when one read of
    adj gives s and screen·2^s < 2^24 (single_scale, as in matmul); float64
    with L the limit; then the masking float64 pass.  Each runs from the
    input in the one n x n result; a float32 pass uses the first half of its
    buffer and is widened in place (_widen).  The screen reads adj, whose
    diagonal is never below the closure base's in magnitude; where only the
    diagonal trips it, the masking pass runs and masks nothing.
    """
    _require_square_minplus(adj)
    return _floyd_warshall(adj, *magnitude_and_scale(adj.data, adj.integer))


def _floyd_warshall(adj: TropicalMatrix, top: float, s: "int | None") -> ApspReport:
    """floyd_warshall on a checked adj, given (top, s), its one read of adj.data."""
    n = adj.n_rows
    b = max(1, min(n, _TASK_BYTES // (16 * n)))
    screen = 2.0 * (n + 1) * top
    s = single_scale(screen, s)
    limit = _saturation_limit(math.inf, adj.integer)  # every bound reaches the limit itself
    rungs = []  # the unmasked passes, (dtype, L), narrowest first
    if s is not None:
        rungs.append((np.float32, SINGLE_EXACT_LIMIT * 2.0**-s))
    if screen < limit:
        rungs.append((np.float64, limit))
    d = np.empty((n, n))
    for dtype, exact in rungs:
        try:
            saturated = _relax_pass(adj, d, b, dtype, None, -exact)
            break
        except _BelowFloor:
            pass
    else:
        saturated = _relax_pass(adj, d, b, np.float64, limit)
    if saturated:
        _note_saturation()

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
    base = TropicalMatrix._wrap(adj.kind, _closure_base(adj, np.empty(adj.shape)), adj.integer)

    multiplications = 0
    fixpoint = False
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
    """Name the first entry (row-major) where the result differs from floyd_warshall(adj).

    Integer mode compares exactly; infinite entries always must match.
    Float mode accepts |d - δ| ≤ n²·2⁻⁵⁰·W, W = max |finite adj entry|:
    each route's entry is a rounded sum over a walk of at most 2n edges of
    weight at most W, so it is within (2n)²·2⁻⁵³·W of the exact distance,
    and two routes differ by at most 2·(2n)²·2⁻⁵³·W = n²·2⁻⁵⁰·W.
    """
    n = _require_square_minplus(adj)
    if result.dist.shape != adj.shape:
        raise DimensionMismatch(f"result shape {result.dist.shape} does not match adjacency {adj.shape}")
    top, s = magnitude_and_scale(adj.data, adj.integer)  # one read serves FW and the tolerance
    reference = _floyd_warshall(adj, top, s)
    if reference.negative_cycle:
        return "the input has a negative cycle, so no distance matrix is valid"
    d, want = result.dist.data, reference.distances.dist.data
    tolerance = 0.0 if adj.integer else n * n * 2.0**-50 * top
    wrong = ~np.isclose(d, want, rtol=0.0, atol=tolerance)  # infinities match only themselves
    if not wrong.any():
        return None
    i, j = np.unravel_index(int(np.argmax(wrong)), d.shape)
    return f"entry ({i},{j}) is {float(d[i, j])!r}, the shortest distance is {float(want[i, j])!r}"


def verify_apsp(adj: TropicalMatrix, result: DistanceMatrix) -> bool:
    """True iff find_apsp_violation finds no differing entry."""
    return find_apsp_violation(adj, result) is None
