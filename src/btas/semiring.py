"""Scalar tropical algebra.

Weights are extended reals: either a finite double or the single symbolic
Infinity that stands for "no path".  Under min-plus, ⊕ is min and Infinity
sits above every finite weight; under max-plus, ⊕ is max and Infinity sits
below.  ⊗ is ordinary addition in both, with Infinity absorbing.  The
additive identity is Infinity, the multiplicative identity is 0.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from enum import Enum

import numpy as np


class SemiringKind(Enum):
    """Selects the min-plus or max-plus reading of ⊕, and with it the
    ordering and the orientation of Infinity."""

    MIN_PLUS = "minplus"
    MAX_PLUS = "maxplus"

    @classmethod
    def from_token(cls, token: str) -> "SemiringKind":
        try:
            return cls(token.strip().lower())
        except ValueError:
            raise ValueError(f"unknown semiring kind {token!r} (expected 'minplus' or 'maxplus')") from None


@dataclass(frozen=True, slots=True)
class TropicalWeight:
    """An edge weight or distance: a finite real, or the symbolic Infinity.

    Infinity is written `math.inf` regardless of kind; whether it means +∞
    (min-plus) or -∞ (max-plus) is decided by the SemiringKind of whatever
    operation consumes it.  The value is checked by read_weight.
    """

    value: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", read_weight(float(self.value)))

    @property
    def is_infinite(self) -> bool:
        return self.value == math.inf

    def __float__(self) -> float:
        return self.value

    def __str__(self) -> str:
        return format_weight(self)


#: Integer-mode magnitudes must stay strictly below 2^53 for double storage
#: to be exact; sums that reach this limit saturate to Infinity.
INT_EXACT_LIMIT = float(2**53)


def read_weight(x: "str | float") -> float:
    """The weight rule for one token or number: float(x), so `inf`, `INF`,
    `Infinity` and `1e309` are Infinity, with -0.0 read as 0.0 so equal
    weights are bit-identical.  NaN is refused because it would make min/max
    order-dependent, and -inf because it would be a wrongly oriented Infinity."""
    try:
        value = float(x)
    except ValueError:
        raise ValueError(f"not a number: {x!r}") from None
    if not value > -math.inf:
        raise ValueError(f"weights cannot be NaN or -inf, got {x!r}")
    return value + 0.0


def weights_ok(values: np.ndarray, finite: bool = False) -> bool:
    """The weight rule for an array: no NaN or -inf, nor +inf when finite."""
    return bool((np.isfinite(values) if finite else values > -math.inf).all())


#: exact_integers and magnitude_and_scale read their input in leading-axis
#: blocks of about this many entries.
_MAGNITUDE_BLOCK = 1 << 14


def _finite_magnitudes(values: np.ndarray):
    """(|v|, the largest finite |v| or 0.0) for each leading-axis block of
    values; infinities stay inf, which _multiples accepts.  Every block is
    written into one pair of buffers of about _MAGNITUDE_BLOCK entries, so
    each must be used before the next is asked for; a fresh array per block
    would hold two blocks at once while the next one is taken."""
    step = max(1, _MAGNITUDE_BLOCK // max(1, values[:1].size))  # rows per block
    buf = np.empty((2, min(step, len(values))) + values.shape[1:])
    for r0 in range(0, len(values), step):
        block = values[r0 : r0 + step]
        magnitudes = np.abs(block, out=buf[0, : len(block)])
        # |v| + (|v| - |v|) is |v|, or NaN for an infinity, which fmax skips: far
        # quicker on half-infinite data than a masked store of zeros
        finite = buf[1, : len(block)]
        with np.errstate(invalid="ignore"):
            np.subtract(magnitudes, magnitudes, out=finite)
        finite += magnitudes
        yield magnitudes, float(np.fmax.reduce(finite, axis=None, initial=0.0))


def _multiples(m: np.ndarray, s: int) -> bool:
    """Whether every entry of m is a multiple of 2^-s (scaling by 2^s is exact); an infinity is one."""
    scaled = np.ldexp(m, s) if s else m
    return bool((np.trunc(scaled) == scaled).all())


def exact_integers(values: np.ndarray) -> bool:
    """True iff every finite entry is integral and below INT_EXACT_LIMIT in magnitude;
    |v| is integral exactly when v is, so one block of magnitudes serves both tests."""
    return all(top < INT_EXACT_LIMIT and _multiples(m, 0) for m, top in _finite_magnitudes(values))


#: float32's 24-bit significand holds every multiple of 2^-s below 2^(24-s) in
#: magnitude exactly, and as a normal number while s ≤ SINGLE_MAX_SCALE.
SINGLE_EXACT_LIMIT = float(2**24)

#: float32's least normal magnitude is 2^-126: below it multiples of 2^-s are
#: subnormal (slow on x86), and past s = 149 not float32 at all (2^-200 is 0.0).
SINGLE_MAX_SCALE = 126


def magnitude_and_scale(values: np.ndarray, integer: bool = False) -> "tuple[float, int | None]":
    """One read of values: the largest finite |v| (0.0 when none), and the
    least s ≤ SINGLE_MAX_SCALE with every finite entry a multiple of 2^-s and
    |v|·2^s < 2^24, or None (for 0.1, 1/3 or 2^-200, say); s = 0 in integer
    mode.  A block not integral at the running s is tested once at the
    largest s the running magnitude allows, and if it fails there s is None."""
    top, s = 0.0, 0
    for m, block_top in _finite_magnitudes(values):
        top = max(top, block_top)
        ceiling = min(SINGLE_MAX_SCALE, 24 - math.frexp(top)[1])  # the largest s with top·2^s < 2^24
        if s is not None and (s > ceiling or not (integer or _multiples(m, s))):
            found = s < ceiling and _multiples(m, ceiling)  # one test settles whether any s will do
            s = next(t for t in range(s + 1, ceiling + 1) if _multiples(m, t)) if found else None
    return top, s


def single_scale(bound: float, *scales: "int | None") -> "int | None":
    """The float32 rule of matmul and floyd_warshall: s = max(scales) when no
    scale is None and bound·2^s < 2^24, else None.  Sums of multiples of 2^-s
    are multiples of 2^-s, so each one under bound is exact in float32."""
    s = None if None in scales else max(scales)
    return s if s is not None and bound * 2.0**s < SINGLE_EXACT_LIMIT else None


def format_weights(values: "list[float]", integer: bool) -> "list[str]":
    """The text of a row or column: `inf` for either infinity, else str(int(v))
    in integer mode and repr(v) otherwise."""
    if integer:  # v - v is 0.0 for a finite v and NaN for either infinity, and quicker than math.isinf
        return [str(int(v)) if v - v == 0.0 else "inf" for v in values]
    if -math.inf in values:
        return [repr(v) if v - v == 0.0 else "inf" for v in values]
    return list(map(repr, values))  # repr(math.inf) is "inf" already, and map is quicker than the comprehension


INFINITY = TropicalWeight(math.inf)
ZERO = TropicalWeight(0.0)

_saturation = threading.local()  # each thread sees only its own products


def saturation_seen() -> bool:
    """True if any ⊗ on this thread since its last reset saturated to Infinity."""
    return getattr(_saturation, "seen", False)


def reset_saturation() -> None:
    _saturation.seen = False


def _note_saturation() -> None:
    _saturation.seen = True


def as_weight(x: "TropicalWeight | float | int") -> TropicalWeight:
    """Coerce a bare number to a TropicalWeight (math.inf means Infinity)."""
    if isinstance(x, TropicalWeight):
        return x
    return TropicalWeight(float(x))


def tadd(kind: SemiringKind, x: "TropicalWeight | float | int", y: "TropicalWeight | float | int") -> TropicalWeight:
    """Tropical sum: min under min-plus, max under max-plus.

    Infinity is the identity for both kinds, so it never wins the selection
    against a finite weight.
    """
    xw, yw = as_weight(x), as_weight(y)
    if xw.is_infinite:
        return yw
    if yw.is_infinite:
        return xw
    if kind is SemiringKind.MIN_PLUS:
        return xw if xw.value <= yw.value else yw
    return xw if xw.value >= yw.value else yw


def tmul(kind: SemiringKind, x: "TropicalWeight | float | int", y: "TropicalWeight | float | int") -> TropicalWeight:
    """Tropical product: ordinary addition, with Infinity absorbing.

    A finite sum that overflows the double range saturates to Infinity and
    raises this thread's saturation flag instead of producing ±inf silently.
    """
    xw, yw = as_weight(x), as_weight(y)
    if xw.is_infinite or yw.is_infinite:
        return INFINITY
    s = xw.value + yw.value
    if math.isinf(s):
        _note_saturation()
        return INFINITY
    return TropicalWeight(s)


def additive_identity(kind: SemiringKind) -> TropicalWeight:
    """The ⊕ identity: Infinity (read as +∞ for min-plus, -∞ for max-plus)."""
    return INFINITY


def multiplicative_identity(kind: SemiringKind) -> TropicalWeight:
    """The ⊗ identity: the finite weight 0."""
    return ZERO


def format_weight(w: "TropicalWeight | float | int", integer: bool = False) -> str:
    """Render a weight as text with format_weights."""
    return format_weights([as_weight(w).value], integer)[0]


def parse_weight(token: str) -> TropicalWeight:
    """Parse a weight token with read_weight."""
    return TropicalWeight(read_weight(token))
