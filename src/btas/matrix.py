"""Dense tropical matrices and vectors.

Storage is a float64 array holding the *oriented* form of each weight: the
symbolic Infinity becomes +inf under min-plus and -inf under max-plus, so
``np.minimum``/``np.maximum`` and ``+`` implement ⊕ and ⊗ directly.  The
public boundary (constructors, accessors, text formats) speaks only the
symbolic form where Infinity is ``math.inf`` for both kinds.

TropicalMatrix and TropicalVector share one immutable core and differ only
in rank and shape accessors.  The public constructor checks and orients
its input and detects integer mode; internal code that already holds an
oriented, validated array adopts it with ``_wrap`` without copying or
checking.  Either way the array is made read-only and the fields can be
neither reassigned nor deleted.  Two values are equal when their type,
kind, shape and bytes are.

Determinism contract: entries carry no NaN and no -0.0, so min and max of
them are exactly associative and commutative.  Any grouping of the k terms
of a product therefore gives the same bits, and matmul is bit-identical for
every tile shape, k-block size and worker count.  By default a product runs
as row strips from tile_plan, with about four strips per available CPU, on
a pool whose threads are pinned one per CPU; below _PARALLEL_MIN_OPS
semiring operations it runs as one tile on the calling thread.  Each task
sums a block of k laid out k-outermost, (k, rows, cols), and folds it over
k with one reduce whose inner loops span the whole tile.  They run in
float32 when every entry is a multiple of 2^-s and (max|x| + max|y|)·2^s <
2^24, the rule floyd_warshall shares: every sum is then exact in float32.

Saturation follows one rule, stated in matmul: a finite+finite sum whose
magnitude reaches the limit is ε.  A product that can reach the limit at
all screens each k exactly from the finite extremes of column k of x and
row k of y.  It masks the side that can win the ⊕ inside the k blocks that
reach it, and the side that can only lose once per output tile.
"""

from __future__ import annotations

import itertools
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Self

import numpy as np

from .semiring import (
    INT_EXACT_LIMIT,
    SemiringKind,
    TropicalWeight,
    _note_saturation,
    exact_integers,
    magnitude_and_scale,
    read_weight,
    single_scale,
    weights_ok,
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
    if worker_count < 1:
        raise ValueError(f"worker_count must be a positive integer, got {worker_count!r}")
    strip = max(1, math.ceil(n_rows / (4 * worker_count)))
    return TileSpec(tile_rows=strip, tile_cols=n_cols, worker_count=worker_count)


def _oriented_infinity(kind: SemiringKind) -> float:
    return math.inf if kind is SemiringKind.MIN_PLUS else -math.inf


def _combine_ufunc(kind: SemiringKind) -> np.ufunc:
    return np.minimum if kind is SemiringKind.MIN_PLUS else np.maximum


def _orient(kind: SemiringKind, values: object) -> np.ndarray:
    """Validate symbolic-form input and return a fresh oriented array."""
    if not isinstance(kind, SemiringKind):
        raise SemiringMismatch(f"not a SemiringKind: {kind!r}")
    try:
        arr = np.asarray(values, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise DimensionMismatch(f"entries do not form a rectangular array: {exc}") from None
    if not weights_ok(arr):
        for v in arr.flat:  # name the first refused entry
            read_weight(float(v))
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
    ok = exact_integers(oriented)
    if requested is None:
        return ok
    if not ok:
        raise ValueError(f"integer mode needs integral entries with magnitude below {int(INT_EXACT_LIMIT)}")
    return True


def _to_symbolic(oriented):
    """Oriented entries (a scalar or an array) with either infinity as +inf."""
    return np.where(np.isinf(oriented), math.inf, oriented)


class _TropicalArray:
    """The immutable core of TropicalMatrix and TropicalVector: an oriented
    float64 array of the class's rank, its SemiringKind and its integer flag.

    ``values`` may be nested lists, an ndarray, or contain TropicalWeight
    objects; ``math.inf`` means Infinity for both kinds.  integer=None
    auto-detects exact-integer mode, True demands it, False disables it.
    """

    __slots__ = ("kind", "data", "integer")
    _rank: int

    def __new__(cls, kind: SemiringKind, values: object, integer: "bool | None" = None) -> Self:
        arr = _orient(kind, values)
        if arr.ndim != cls._rank:
            raise DimensionMismatch(f"{cls.__name__} needs {cls._rank} dimension(s), got {arr.ndim}")
        if 0 in arr.shape:
            raise DimensionMismatch(f"{cls.__name__} dimensions must be positive, got {arr.shape}")
        return cls._wrap(kind, arr, _detect_integer(arr, integer))

    @classmethod
    def _wrap(cls, kind: SemiringKind, oriented: np.ndarray, integer: bool) -> Self:
        """Adopt an already-oriented, already-validated array (internal)."""
        oriented.flags.writeable = False
        obj = object.__new__(cls)
        object.__setattr__(obj, "kind", kind)
        object.__setattr__(obj, "data", oriented)
        object.__setattr__(obj, "integer", integer)
        return obj

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        """copy, deepcopy and pickle rebuild through _wrap, past the guard."""
        return (type(self)._wrap, (self.kind, self.data, self.integer))

    def weight_at(self, *index: int) -> TropicalWeight:
        return TropicalWeight(float(_to_symbolic(self.data[index])))

    def tobytes(self) -> bytes:
        return self.data.tobytes()

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        # uint64 items are equal exactly when their bits are, and memoryview compares them in place
        return (
            self.kind is other.kind
            and self.data.shape == other.data.shape
            and memoryview(self.data.view(np.uint64)) == memoryview(other.data.view(np.uint64))
        )


class TropicalMatrix(_TropicalArray):
    """Immutable dense matrix over one tropical semiring: TropicalMatrix(kind,
    values, integer=None), values being rows of equal length."""

    __slots__ = ()
    _rank = 2

    @classmethod
    def filled(
        cls,
        kind: SemiringKind,
        n_rows: int,
        n_cols: int,
        weight: "TropicalWeight | float | int" = math.inf,
    ) -> "TropicalMatrix":
        """Constant matrix; the default fill is Infinity."""
        return cls(kind, np.full((int(n_rows), int(n_cols)), float(weight)))

    @property
    def n_rows(self) -> int:
        return self.data.shape[0]

    @property
    def n_cols(self) -> int:
        return self.data.shape[1]

    @property
    def shape(self) -> "tuple[int, int]":
        return self.data.shape

    def to_lists(self) -> "list[list[float]]":
        """Symbolic-form rows: plain floats with math.inf for Infinity."""
        return _to_symbolic(self.data).tolist()

    def __matmul__(self, other: "TropicalMatrix") -> "TropicalMatrix":
        if not isinstance(other, TropicalMatrix):
            return NotImplemented
        return matmul(self, other)

    def __repr__(self) -> str:
        return (
            f"TropicalMatrix({self.kind.value}, {self.n_rows}x{self.n_cols}"
            f"{', integer' if self.integer else ''})"
        )


class TropicalVector(_TropicalArray):
    """Immutable dense vector over one tropical semiring: TropicalVector(kind,
    values, integer=None)."""

    __slots__ = ()
    _rank = 1

    def __len__(self) -> int:
        return self.data.shape[0]

    def to_list(self) -> "list[float]":
        return _to_symbolic(self.data).tolist()

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


# Below this many semiring operations, tile fan-out costs more than it saves;
# run tiles inline on the calling thread instead.  2^20 is the measured
# break-even of the 2-worker plan on a 2-vCPU VM with pinned pool threads:
# pool/inline time read 1.3-1.7 at n=64, 0.9-1.2 at n=80-112 and 0.6-0.8
# from n=128 on.
_PARALLEL_MIN_OPS = 1 << 20

# Bytes of the k-block temporary one task reuses; bounds a task's memory
# unless a single k slice of one row is larger.
_TASK_BYTES = 1 << 20

_pool: "ThreadPoolExecutor | None" = None
_pool_lock = threading.Lock()


def _pin_to_a_cpu(started: "itertools.count") -> None:
    """Keep each pool thread on its own CPU of the set it started with.

    Left to the scheduler, two threads woken for a few milliseconds mostly
    share one vCPU, so products that short gained nothing from the pool.
    """
    try:
        cpus = sorted(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpus[next(started) % len(cpus)]})
    except (AttributeError, OSError):  # no affinity calls here, or refused: run unpinned
        pass


def _shared_pool() -> ThreadPoolExecutor:
    """One process-wide pool, one thread per available CPU, each pinned to
    its own CPU where the platform allows; made on first use."""
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(
                max_workers=available_parallelism(),
                thread_name_prefix="btas-tile",
                initializer=_pin_to_a_cpu,
                initargs=(itertools.count(),),
            )
        return _pool


def _aligned_empty(size: int, dtype: "np.dtype | type" = np.float64) -> np.ndarray:
    """Buffer on a 64-byte cache line.  malloc promises only 16 bytes, and
    misaligned blocks made the kernel's sums 20-40% slower on AVX-512."""
    itemsize = np.dtype(dtype).itemsize
    raw = np.empty(size + 64 // itemsize - 1, dtype)
    start = (-raw.ctypes.data % 64) // itemsize
    return raw[start : start + size]


def _saturation_limit(bound: float, integer: bool) -> "float | None":
    """The overflow threshold for sums whose magnitude is at most bound, or
    None when none can reach it.

    Integer mode saturates once a sum reaches 2^53 (exactness ends there);
    float mode saturates only on true double overflow.  The screen is exact
    for a bound that holds entrywise, so under the threshold no masking is
    needed.
    """
    limit = INT_EXACT_LIMIT if integer else math.inf
    return limit if bound >= limit else None


def _reaches(x: np.ndarray, y: np.ndarray, limit: float) -> "tuple[np.ndarray, np.ndarray]":
    """For each k, whether some finite+finite sum x(i,k) + y(k,j) is ≤ -limit,
    and whether some is ≥ limit.

    Exact from the finite extremes of column k of x and row k of y: rounding
    is monotone and ±limit is representable, so some sum reaches limit
    exactly when fl(max + max) does, and -limit exactly when fl(min + min)
    does.  A column or row with no finite entry reaches neither.
    """
    fx, fy = np.isfinite(x), np.isfinite(y)
    with np.errstate(over="ignore"):
        low = np.min(x, axis=0, where=fx, initial=math.inf) + np.min(y, axis=1, where=fy, initial=math.inf)
        high = np.max(x, axis=0, where=fx, initial=-math.inf) + np.max(y, axis=1, where=fy, initial=-math.inf)
    return low <= -limit, high >= limit


def _saturate(values: np.ndarray, limit: float, eps: float) -> None:
    """Replace by eps each entry at or past the signed threshold limit:
    v ≥ limit when limit is positive, v ≤ limit when it is negative."""
    bad = values >= limit if limit > 0 else values <= limit
    values[bad] = eps


def matmul(
    x: TropicalMatrix,
    y: TropicalMatrix,
    accumulate_into: "TropicalMatrix | None" = None,
    tiles: "TileSpec | None" = None,
) -> TropicalMatrix:
    """Tropical matrix product, optionally fused with an elementwise ⊕.

    out(i,j) = ⊕ over k of x(i,k) ⊗ y(k,j), then ⊕ accumulate_into(i,j)
    when given.  accumulate_into is read, never written.  tiles defaults
    to tile_plan over the available CPUs, or to one tile when the product
    has fewer than _PARALLEL_MIN_OPS semiring operations; such a product
    runs on the calling thread whatever its tiles.

    Each task fills its tiles block by block: np.add writes x(i,k) + y(k,j)
    for kb values of k into a (kb, rows, cols) buffer of at most _TASK_BYTES,
    and combine.reduce over axis 0 folds it into the tile.  A block of one k
    is combined with the tile directly, and a tile whose one-k slice alone
    passes _TASK_BYTES is filled in groups of rows whose slice fits.  When
    every entry of x and y is a multiple of 2^-s and (max|x| + max|y|)·2^s
    < 2^24 (single_scale), the blocks and the running tile are float32, kb
    is counted in float32 items, and the tile is widened before
    accumulate_into is combined in float64.  Every sum is then exact, so the
    bits are those of the float64 route, and nothing can saturate.

    Saturation: a finite+finite sum whose magnitude reaches the limit (2^53
    in integer mode, overflow in float mode) is Infinity.  When max|x| +
    max|y| cannot reach it nothing is masked.  Otherwise _reaches screens
    each k exactly, which also gives the saturation flag.  A sum on the side
    that can win the ⊕ (≤ -limit for min-plus, ≥ limit for max-plus) is
    masked in each k block whose screen reaches that side; oriented data
    has only ε for an infinity, so such a sum has two finite operands.  A
    sum on the other side can only lose the ⊕, so it is masked once on the
    reduced tile: min over k of the sums, then "≥ limit → ε", equals the
    other order.  In float mode that side overflows to ε already.
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
    inline = nr * nc * nk < _PARALLEL_MIN_OPS
    if tiles is not None:
        spec = tiles
    else:
        spec = TileSpec(nr, nc, 1) if inline else tile_plan(nr, nc, available_parallelism())
    out = np.empty((nr, nc), dtype=np.float64)
    combine = _combine_ufunc(x.kind)
    eps = _oriented_infinity(x.kind)

    # |a + b| ≤ max|x| + max|y| entrywise; a square x ⊗ x is read and converted once
    mx, sx = magnitude_and_scale(x.data, x.integer)
    my, sy = (mx, sx) if y is x else magnitude_and_scale(y.data, y.integer)
    bound = mx + my
    single = single_scale(bound, sx, sy) is not None
    dtype = np.float32 if single else np.float64
    xd = x.data.astype(dtype, copy=False)
    yd = xd if y is x else y.data.astype(dtype, copy=False)
    itemsize = np.dtype(dtype).itemsize
    cols = min(spec.tile_cols, nc)
    # a tile whose one-k slice passes the budget is walked in row groups that fit it
    rows = min(spec.tile_rows, nr, max(1, _TASK_BYTES // (itemsize * cols)))
    kb = min(nk, max(1, _TASK_BYTES // (itemsize * rows * cols)))

    saturated = False
    win_blocks = None  # per k block, whether it holds a sum on the winning side
    win_limit = lose_limit = None
    limit = _saturation_limit(bound, integer)
    if limit is not None:
        low, high = _reaches(x.data, y.data, limit)
        saturated = bool(low.any() or high.any())
        if x.kind is SemiringKind.MIN_PLUS:
            win, win_limit, lose, lose_limit = low, -limit, high, limit
        else:
            win, win_limit, lose, lose_limit = high, limit, low, -limit
        win_blocks = [bool(win[k0 : k0 + kb].any()) for k0 in range(0, nk, kb)]
        if not (lose.any() and math.isfinite(limit)):
            lose_limit = None

    spans = [
        (r0, min(r0 + rows, nr), c0, min(c0 + spec.tile_cols, nc))
        for r0 in range(0, nr, rows)
        for c0 in range(0, nc, spec.tile_cols)
    ]

    def run(share: "list[tuple[int, int, int, int]]") -> None:
        """Fill each tile in share, folding k in blocks of kb laid out k-outermost.

        One block buffer, one reduce buffer and, in float32, one accumulator
        tile serve every tile of the share.
        """
        block_buf = _aligned_empty(kb * rows * cols, dtype)
        reduce_buf = _aligned_empty(rows * cols, dtype) if 1 < kb < nk else None
        acc_buf = _aligned_empty(rows * cols, dtype) if single else None
        for r0, r1, c0, c1 in share:
            h, w = r1 - r0, c1 - c0
            tile = out[r0:r1, c0:c1]
            acc = acc_buf[: h * w].reshape(h, w) if single else tile
            for k0 in range(0, nk, kb):
                k1 = min(k0 + kb, nk)
                # a first block of one k is summed straight into the tile
                block = acc[None] if k1 == 1 else block_buf[: (k1 - k0) * h * w].reshape(k1 - k0, h, w)
                with np.errstate(over="ignore"):
                    np.add(xd[r0:r1, k0:k1].T[:, :, None], yd[k0:k1, None, c0:c1], out=block)
                if win_blocks is not None and win_blocks[k0 // kb]:
                    _saturate(block, win_limit, eps)
                if k1 - k0 == 1:
                    part = block[0]
                else:
                    part = acc if k0 == 0 else reduce_buf[: h * w].reshape(h, w)
                    combine.reduce(block, axis=0, out=part)
                if k0:
                    combine(acc, part, out=acc)
            if single:
                tile[...] = acc  # widening is exact
            if lose_limit is not None:
                _saturate(tile, lose_limit, eps)
            if accd is not None:
                combine(tile, accd[r0:r1, c0:c1], out=tile)

    # ufuncs on slices this large release the GIL, so threads genuinely
    # overlap; tiny problems skip the pool entirely.
    fan_out = 1 if inline else min(spec.worker_count, len(spans), available_parallelism())
    if fan_out == 1:
        run(spans)
    else:
        # list() waits for every share, so out is complete and errors surface
        list(_shared_pool().map(run, [spans[i::fan_out] for i in range(fan_out)]))
    if saturated:
        _note_saturation()
    return TropicalMatrix._wrap(x.kind, out, integer)


def matvec(a: TropicalMatrix, v: TropicalVector) -> TropicalVector:
    """out(i) = ⊕ over k of a(i,k) ⊗ v(k): matmul with v as one column."""
    column = matmul(a, TropicalMatrix._wrap(v.kind, v.data[:, None], v.integer))
    return TropicalVector._wrap(a.kind, column.data[:, 0], column.integer)


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
