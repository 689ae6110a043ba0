"""Dense tropical matrices and vectors.

Storage is a float64 array holding the *oriented* form of each weight: the
symbolic Infinity becomes +inf under min-plus and -inf under max-plus, so
``np.minimum``/``np.maximum`` and ``+`` implement ⊕ and ⊗ directly.  The
public boundary (constructors, accessors, text formats) speaks only the
symbolic form where Infinity is ``math.inf`` for both kinds.

Determinism contract: entries carry no NaN and no -0.0, so min and max of
them are exactly associative and commutative.  Any grouping of the k terms
of a product therefore gives the same bits, and matmul is bit-identical for
every tile shape, k-block size and worker count.  By default a product runs
as row strips from tile_plan, with about four strips per available CPU.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .semiring import (
    INT_EXACT_LIMIT,
    SemiringKind,
    TropicalWeight,
    _note_saturation,
)


class DimensionMismatch(ValueError):
    """Operand shapes do not line up."""


class SemiringMismatch(ValueError):
    """Operands carry different SemiringKinds."""


def available_parallelism() -> int:
    """Worker count matching the CPUs this process may actually use."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):
        return os.cpu_count() or 1


@dataclass(frozen=True, slots=True)
class TileSpec:
    """Output-tile partitioning for parallel matmul; tile_plan makes the default.

    Each task owns one tile_rows x tile_cols block of the *output* and folds
    the k terms into it block by block; min/max associativity makes the
    result independent of the tiles, the k blocks and the worker count.
    """

    tile_rows: int
    tile_cols: int
    worker_count: int

    def __post_init__(self) -> None:
        for field in ("tile_rows", "tile_cols", "worker_count"):
            v = getattr(self, field)
            if not isinstance(v, int) or v < 1:
                raise ValueError(f"{field} must be a positive integer, got {v!r}")


def tile_plan(n_rows: int, n_cols: int, worker_count: int) -> TileSpec:
    """Full-width row strips sized for about four tasks per worker."""
    strip = max(1, math.ceil(n_rows / (4 * worker_count)))
    return TileSpec(tile_rows=strip, tile_cols=n_cols, worker_count=worker_count)


def _oriented_infinity(kind: SemiringKind) -> float:
    return math.inf if kind is SemiringKind.MIN_PLUS else -math.inf


def _combine_ufunc(kind: SemiringKind) -> np.ufunc:
    return np.minimum if kind is SemiringKind.MIN_PLUS else np.maximum


def _orient(kind: SemiringKind, values: object) -> np.ndarray:
    """Validate symbolic-form input and return a fresh oriented array."""
    try:
        arr = np.asarray(values, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise DimensionMismatch(f"entries do not form a rectangular array: {exc}") from None
    if np.isnan(arr).any():
        raise ValueError("matrix entries cannot be NaN")
    if (arr == -math.inf).any():
        raise ValueError("use math.inf for the symbolic no-path weight; -inf is not a valid input")
    arr = arr + 0.0  # copy, and normalize any -0.0 to +0.0
    if kind is SemiringKind.MAX_PLUS:
        arr[arr == math.inf] = -math.inf
    return arr


def _detect_integer(oriented: np.ndarray, requested: "bool | None") -> bool:
    """Resolve the exact-integer flag for freshly oriented data.

    Integer mode promises bit-exact arithmetic, which double storage only
    delivers while magnitudes stay below 2^53; auto-detection requires that,
    and an explicit integer=True is checked rather than trusted.
    """
    if requested is False:
        return False
    finite = oriented[np.isfinite(oriented)]
    ok = finite.size == 0 or bool(
        np.all(finite == np.floor(finite)) and np.all(np.abs(finite) < INT_EXACT_LIMIT)
    )
    if requested is None:
        return ok
    if not ok:
        raise ValueError(f"integer mode needs integral entries with magnitude below {int(INT_EXACT_LIMIT)}")
    return True


def _to_symbolic(value: float) -> float:
    return math.inf if math.isinf(value) else value


def _freeze(obj, kind: SemiringKind, oriented: np.ndarray, integer: bool):
    """Set the fields of a new TropicalMatrix or TropicalVector; return it."""
    oriented.flags.writeable = False
    object.__setattr__(obj, "kind", kind)
    object.__setattr__(obj, "data", oriented)
    object.__setattr__(obj, "integer", integer)
    return obj


class TropicalMatrix:
    """Immutable dense matrix over one tropical semiring.

    ``rows`` may be nested lists, an ndarray, or contain TropicalWeight
    objects; ``math.inf`` means Infinity for both kinds.  integer=None
    auto-detects exact-integer mode, True demands it, False disables it.
    """

    __slots__ = ("kind", "data", "integer")

    def __init__(self, kind: SemiringKind, rows: object, integer: "bool | None" = None):
        if not isinstance(kind, SemiringKind):
            raise SemiringMismatch(f"not a SemiringKind: {kind!r}")
        arr = _orient(kind, rows)
        if arr.ndim != 2:
            raise DimensionMismatch(f"matrix needs 2 dimensions, got {arr.ndim}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise DimensionMismatch(f"matrix dimensions must be positive, got {arr.shape}")
        _freeze(self, kind, arr, _detect_integer(arr, integer))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("TropicalMatrix is immutable")

    @classmethod
    def _wrap(cls, kind: SemiringKind, oriented: np.ndarray, integer: bool) -> "TropicalMatrix":
        """Adopt an already-oriented, already-validated array (internal)."""
        return _freeze(object.__new__(cls), kind, oriented, integer)

    @classmethod
    def filled(
        cls,
        kind: SemiringKind,
        n_rows: int,
        n_cols: int,
        weight: "TropicalWeight | float | int" = math.inf,
    ) -> "TropicalMatrix":
        """Constant matrix; the default fill is Infinity."""
        value = TropicalWeight(float(weight)).value
        return cls(kind, np.full((int(n_rows), int(n_cols)), value))

    @property
    def n_rows(self) -> int:
        return self.data.shape[0]

    @property
    def n_cols(self) -> int:
        return self.data.shape[1]

    @property
    def shape(self) -> "tuple[int, int]":
        return self.data.shape

    def weight_at(self, i: int, j: int) -> TropicalWeight:
        return TropicalWeight(_to_symbolic(float(self.data[i, j])))

    def to_lists(self) -> "list[list[float]]":
        """Symbolic-form rows: plain floats with math.inf for Infinity."""
        sym = np.where(np.isinf(self.data), math.inf, self.data)
        return [[float(v) for v in row] for row in sym]

    def tobytes(self) -> bytes:
        return self.data.tobytes()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TropicalMatrix):
            return NotImplemented
        return (
            self.kind is other.kind
            and self.shape == other.shape
            and self.data.tobytes() == other.data.tobytes()
        )

    def __matmul__(self, other: "TropicalMatrix") -> "TropicalMatrix":
        if not isinstance(other, TropicalMatrix):
            return NotImplemented
        return matmul(self, other)

    def __repr__(self) -> str:
        return (
            f"TropicalMatrix({self.kind.value}, {self.n_rows}x{self.n_cols}"
            f"{', integer' if self.integer else ''})"
        )


class TropicalVector:
    """Immutable dense vector; same conventions as TropicalMatrix."""

    __slots__ = ("kind", "data", "integer")

    def __init__(self, kind: SemiringKind, values: object, integer: "bool | None" = None):
        if not isinstance(kind, SemiringKind):
            raise SemiringMismatch(f"not a SemiringKind: {kind!r}")
        arr = _orient(kind, values)
        if arr.ndim != 1:
            raise DimensionMismatch(f"vector needs 1 dimension, got {arr.ndim}")
        if arr.shape[0] < 1:
            raise DimensionMismatch("vector length must be positive")
        _freeze(self, kind, arr, _detect_integer(arr, integer))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("TropicalVector is immutable")

    def __len__(self) -> int:
        return self.data.shape[0]

    def weight_at(self, i: int) -> TropicalWeight:
        return TropicalWeight(_to_symbolic(float(self.data[i])))

    def to_list(self) -> "list[float]":
        return [float(_to_symbolic(v)) for v in self.data]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TropicalVector):
            return NotImplemented
        return (
            self.kind is other.kind
            and len(self) == len(other)
            and self.data.tobytes() == other.data.tobytes()
        )

    def __repr__(self) -> str:
        return f"TropicalVector({self.kind.value}, len={len(self)})"


def identity_matrix(kind: SemiringKind, n: int) -> TropicalMatrix:
    """0 on the diagonal, Infinity elsewhere: the matmul neutral element."""
    if not isinstance(n, int) or n < 1:
        raise DimensionMismatch(f"identity size must be a positive integer, got {n!r}")
    arr = np.full((n, n), _oriented_infinity(kind))
    np.fill_diagonal(arr, 0.0)
    return TropicalMatrix._wrap(kind, arr, True)


def _check_same_kind(a, b) -> None:
    if a.kind is not b.kind:
        raise SemiringMismatch(f"mixed semiring kinds: {a.kind.value} vs {b.kind.value}")


def ew_add(a: TropicalMatrix, b: TropicalMatrix) -> TropicalMatrix:
    """Elementwise ⊕ (min or max per kind)."""
    _check_same_kind(a, b)
    if a.shape != b.shape:
        raise DimensionMismatch(f"elementwise ⊕ needs equal shapes, got {a.shape} and {b.shape}")
    out = _combine_ufunc(a.kind)(a.data, b.data)
    return TropicalMatrix._wrap(a.kind, out, a.integer and b.integer)


# Below this many fused multiply-add slots, tile fan-out costs more than it
# saves; run tiles inline on the calling thread instead.
_PARALLEL_MIN_OPS = 1 << 16

# Bytes of the k-block temporary one task reuses; bounds a task's memory
# unless a single k slice of its tile is larger.
_TASK_BYTES = 1 << 20

_pool: "ThreadPoolExecutor | None" = None
_pool_lock = threading.Lock()


def _shared_pool() -> ThreadPoolExecutor:
    """One process-wide pool, one thread per available CPU, made on first use."""
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(max_workers=available_parallelism(), thread_name_prefix="btas-tile")
        return _pool


def _aligned_empty(size: int) -> np.ndarray:
    """Float64 buffer on a 64-byte cache line.  malloc promises only 16 bytes,
    and misaligned blocks made the kernel's sums 20-40% slower on AVX-512."""
    raw = np.empty(size + 7)
    start = (-raw.ctypes.data % 64) // 8
    return raw[start : start + size]


def _saturation_limit(x: TropicalMatrix, y: TropicalMatrix, integer: bool) -> "float | None":
    """Pick the overflow threshold for x ⊗ y, or None when none can trip.

    Integer mode saturates once a sum reaches 2^53 (exactness ends there);
    float mode saturates only on true double overflow.  The screen below is
    exact: |a + b| ≤ max|x| + max|y| entrywise, so when that bound stays
    under the threshold no per-tile masking is needed.
    """
    limit = INT_EXACT_LIMIT if integer else math.inf
    bound = 0.0
    for operand in (x, y):
        finite = operand.data[np.isfinite(operand.data)]
        bound += float(np.max(np.abs(finite))) if finite.size else 0.0
    return limit if bound >= limit else None


def _saturate(block: np.ndarray, xs: np.ndarray, ys: np.ndarray, limit: float, eps: float) -> bool:
    """Replace each sum xs + ys in block whose magnitude reached limit by eps.

    Only finite+finite sums saturate; a sum with an infinite operand is a
    legitimate ε and stays.  Returns whether anything was replaced.
    """
    bad = np.isinf(block) if math.isinf(limit) else np.abs(block) >= limit
    bad &= np.isfinite(xs)
    bad &= np.isfinite(ys)
    if not bad.any():
        return False
    block[bad] = eps
    return True


def matmul(
    x: TropicalMatrix,
    y: TropicalMatrix,
    accumulate_into: "TropicalMatrix | None" = None,
    tiles: "TileSpec | None" = None,
) -> TropicalMatrix:
    """Tropical matrix product, optionally fused with an elementwise ⊕.

    out(i,j) = ⊕ over k of x(i,k) ⊗ y(k,j), then ⊕ accumulate_into(i,j)
    when given.  accumulate_into is read, never written.  tiles defaults
    to tile_plan over the available CPUs.
    """
    _check_same_kind(x, y)
    if x.n_cols != y.n_rows:
        raise DimensionMismatch(f"matmul inner dimensions differ: {x.shape} x {y.shape}")
    integer = x.integer and y.integer
    accd = None
    if accumulate_into is not None:
        _check_same_kind(x, accumulate_into)
        if accumulate_into.shape != (x.n_rows, y.n_cols):
            raise DimensionMismatch(
                f"accumulate_into shape {accumulate_into.shape} does not match output {(x.n_rows, y.n_cols)}"
            )
        integer = integer and accumulate_into.integer
        accd = accumulate_into.data

    nr, nc, nk = x.n_rows, y.n_cols, x.n_cols
    spec = tiles if tiles is not None else tile_plan(nr, nc, available_parallelism())
    out = np.empty((nr, nc), dtype=np.float64)
    combine = _combine_ufunc(x.kind)
    eps = _oriented_infinity(x.kind)
    sat_limit = _saturation_limit(x, y, integer)
    rows, cols = min(spec.tile_rows, nr), min(spec.tile_cols, nc)
    kb = min(nk, max(1, _TASK_BYTES // (8 * rows * cols)))

    spans = [
        (r0, min(r0 + spec.tile_rows, nr), c0, min(c0 + spec.tile_cols, nc))
        for r0 in range(0, nr, spec.tile_rows)
        for c0 in range(0, nc, spec.tile_cols)
    ]

    def run(share: "list[tuple[int, int, int, int]]") -> bool:
        """Fill each tile in share, folding k in blocks of kb; report saturation.

        One block buffer and one reduce buffer serve every tile of the share.
        """
        block_buf = _aligned_empty(rows * kb * cols)
        reduce_buf = _aligned_empty(rows * cols) if kb < nk else None
        saturated = False
        for r0, r1, c0, c1 in share:
            tile = out[r0:r1, c0:c1]
            for k0 in range(0, nk, kb):
                k1 = min(k0 + kb, nk)
                xs = x.data[r0:r1, k0:k1, None]
                ys = y.data[None, k0:k1, c0:c1]
                block = block_buf[: (r1 - r0) * (k1 - k0) * (c1 - c0)].reshape(r1 - r0, k1 - k0, c1 - c0)
                with np.errstate(over="ignore"):
                    np.add(xs, ys, out=block)
                if sat_limit is not None and _saturate(block, xs, ys, sat_limit, eps):
                    saturated = True
                part = tile if k0 == 0 else reduce_buf[: (r1 - r0) * (c1 - c0)].reshape(r1 - r0, c1 - c0)
                combine.reduce(block, axis=1, out=part)
                if k0:
                    combine(tile, part, out=tile)
            if accd is not None:
                combine(tile, accd[r0:r1, c0:c1], out=tile)
        return saturated

    # ufuncs on slices this large release the GIL, so threads genuinely
    # overlap; tiny problems skip the pool entirely.
    fan_out = min(spec.worker_count, len(spans), available_parallelism())
    if fan_out == 1 or nr * nc * nk < _PARALLEL_MIN_OPS:
        saturated = run(spans)
    else:
        # list() waits for every share, so out is complete and errors surface
        saturated = any(list(_shared_pool().map(run, [spans[i::fan_out] for i in range(fan_out)])))
    if saturated:
        _note_saturation()
    return TropicalMatrix._wrap(x.kind, out, integer)


def matvec(a: TropicalMatrix, v: TropicalVector) -> TropicalVector:
    """out(i) = ⊕ over k of a(i,k) ⊗ v(k): matmul with v as one column."""
    column = matmul(a, TropicalMatrix._wrap(v.kind, v.data[:, None], v.integer))
    return _freeze(object.__new__(TropicalVector), a.kind, column.data[:, 0], column.integer)


def matrix_power(a: TropicalMatrix, p: int, tiles: "TileSpec | None" = None) -> TropicalMatrix:
    """Semiring p-th power by binary exponentiation.

    Walks the exponent bits LSB-first: at most floor(log2 p) squarings and
    one combine per set bit beyond the first, so ≤ 2 ceil(log2 p) multiplies
    total.  Equal to p-1 naive successive multiplications.
    """
    if a.n_rows != a.n_cols:
        raise DimensionMismatch(f"matrix_power needs a square matrix, got {a.shape}")
    if not isinstance(p, int) or p < 1:
        raise ValueError(f"power must be a positive integer, got {p!r}")
    result = None
    base = a
    e = p
    while True:
        if e & 1:
            result = base if result is None else matmul(result, base, tiles=tiles)
        e >>= 1
        if not e:
            return result
        base = matmul(base, base, tiles=tiles)
