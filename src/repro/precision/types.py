"""Floating-point format registry and truncation utilities.

The paper distinguishes three *roles* for precision (Section 4):

- iterative precision (``K``): storage/compute precision of the outer Krylov
  solver, usually FP64;
- compute precision of the preconditioner (``P``), usually FP32;
- storage precision of the preconditioner (``D``), usually FP16.

This module provides the format descriptions those roles map onto, including
an emulated BFloat16 (Section 8 of the paper compares FP16 against BF16 on
iteration counts).  BF16 values are *stored* in ``float32`` arrays whose
mantissas have been rounded to 8 bits; memory accounting still charges them
2 bytes per value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FloatFormat",
    "FP64",
    "FP32",
    "FP16",
    "BF16",
    "FORMATS",
    "get_format",
    "truncate",
    "round_to_bf16",
    "RangeCounts",
    "range_counts",
    "finite_abs_range",
    "fp16_distance",
]


@dataclass(frozen=True)
class FloatFormat:
    """Description of one IEEE-754-style floating-point format.

    Attributes
    ----------
    name:
        Canonical short name (``"fp64"``, ``"fp32"``, ``"fp16"``, ``"bf16"``).
    np_dtype:
        NumPy dtype values of this format are *held in*.  For BF16 this is
        ``float32`` because NumPy has no native bfloat16; the values are
        quantized so that they are exactly representable in BF16.
    itemsize:
        Bytes per value for *memory accounting* (2 for both FP16 and BF16).
    max:
        Largest finite value.
    min_normal:
        Smallest positive normal value.
    tiny:
        Smallest positive subnormal value.
    eps:
        Machine epsilon (spacing of 1.0).
    """

    name: str
    np_dtype: np.dtype
    itemsize: int
    max: float
    min_normal: float
    tiny: float
    eps: float

    @property
    def bits(self) -> int:
        return 8 * self.itemsize

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


def _from_numpy(name: str, dtype: type) -> FloatFormat:
    info = np.finfo(dtype)
    return FloatFormat(
        name=name,
        np_dtype=np.dtype(dtype),
        itemsize=np.dtype(dtype).itemsize,
        max=float(info.max),
        min_normal=float(info.tiny),
        tiny=float(info.smallest_subnormal),
        eps=float(info.eps),
    )


FP64 = _from_numpy("fp64", np.float64)
FP32 = _from_numpy("fp32", np.float32)
FP16 = _from_numpy("fp16", np.float16)

# BF16: 1 sign, 8 exponent, 7 mantissa bits.  Same range as FP32, eps=2^-7
# when counting the implicit bit spacing of 1.0 (spacing of numbers just
# above 1.0 is 2^-7).
BF16 = FloatFormat(
    name="bf16",
    np_dtype=np.dtype(np.float32),
    itemsize=2,
    max=3.3895313892515355e38,
    min_normal=float(np.finfo(np.float32).tiny),
    tiny=9.183549615799121e-41,  # 2^-133, smallest bf16 subnormal
    eps=2.0**-7,
)

FORMATS: dict[str, FloatFormat] = {
    "fp64": FP64,
    "fp32": FP32,
    "fp16": FP16,
    "bf16": BF16,
    # Aliases used in the paper's K/P/D naming ("K64P32D16").
    "64": FP64,
    "32": FP32,
    "16": FP16,
    "double": FP64,
    "single": FP32,
    "half": FP16,
}


def get_format(fmt: "str | FloatFormat") -> FloatFormat:
    """Resolve a format name (or pass through a :class:`FloatFormat`)."""
    if isinstance(fmt, FloatFormat):
        return fmt
    try:
        return FORMATS[str(fmt).lower()]
    except KeyError:
        raise ValueError(
            f"unknown float format {fmt!r}; expected one of "
            f"{sorted(set(FORMATS))}"
        ) from None


def round_to_bf16(x: np.ndarray) -> np.ndarray:
    """Quantize to BFloat16 with round-to-nearest-even, returned as float32.

    Matches the hardware behaviour of truncating an FP32 value to BF16: the
    low 16 mantissa bits are rounded away.  Overflow saturates to ``inf``
    exactly as an FP32->BF16 conversion would (the exponent field is shared,
    so only values that were already FP32-infinite become infinite).
    """
    f32 = np.ascontiguousarray(np.asarray(x, dtype=np.float32))
    bits = f32.view(np.uint32)
    # round to nearest even on the low 16 bits
    rounded = bits + np.uint32(0x7FFF) + ((bits >> np.uint32(16)) & np.uint32(1))
    out = (rounded & np.uint32(0xFFFF0000)).view(np.float32)
    # NaN payloads must stay NaN (the rounding above could overflow the
    # mantissa of a NaN into inf); re-instate them.
    nan_mask = np.isnan(f32)
    if np.any(nan_mask):
        out = out.copy()
        out[nan_mask] = np.nan
    return out.reshape(np.shape(x))


def truncate(x: np.ndarray, fmt: "str | FloatFormat") -> np.ndarray:
    """Truncate (round) an array to the given storage format.

    For fp16/fp32/fp64 this is a dtype cast; values beyond the target range
    become ``inf`` exactly as the paper's Algorithm 1 line 8/11 truncation
    would.  For bf16 the result is a quantized float32 array.
    """
    fmt = get_format(fmt)
    with np.errstate(over="ignore"):
        if fmt.name == "bf16":
            return round_to_bf16(x)
        return np.asarray(x).astype(fmt.np_dtype)


@dataclass(frozen=True)
class RangeCounts:
    """What an array holds against one format's range.

    The counts are thresholds on the values themselves: ``n_overflow``
    counts finite ``|v| > fmt.max`` and ``n_underflow`` counts
    ``0 < |v| < fmt.tiny``.  They do not count what rounding produces: a
    value in ``(max, max + ulp/2)`` rounds to ``max``, not ``inf``, and one
    in ``(tiny/2, tiny)`` rounds to ``±tiny``, not zero.  ``n_subnormal``
    counts ``tiny <= |v| < min_normal``, which survive with degraded
    relative precision (the early-warning zone ahead of the Section-4.3
    underflow hazard).  ``max_abs`` is the largest finite magnitude, 0.0
    when there is none.  The compiled setup kernel
    (:mod:`repro.kernels.truncate`) takes the same thresholds.
    """

    n_values: int
    n_nonzero: int
    n_nonfinite: int
    n_overflow: int
    n_underflow: int
    n_subnormal: int
    max_abs: float


#: Elements per chunk of :func:`range_counts`: its scratch ``|x|`` is 512 KiB
#: of FP64, not a copy of the whole level.
_RANGE_CHUNK = 1 << 16


def range_counts(x: np.ndarray, fmt: "str | FloatFormat") -> RangeCounts:
    """Audit ``x`` against ``fmt`` in one read.

    ``|x|`` is formed once per chunk, in FP64 whatever the dtype of ``x``,
    and every count is taken from it while it is hot.  Chunks run along
    the first axis's rows, so a padded SOA array is read in place.
    """
    fmt = get_format(fmt)
    x = np.asarray(x)
    if x.ndim > 1:
        rows = x.reshape(x.shape[0], math.prod(x.shape[1:]))
    else:
        rows = x.reshape(1, -1)
    size = rows.size
    buf = np.empty(min(size, _RANGE_CHUNK))
    mask = np.empty(buf.size, dtype=bool)
    n_nonzero = n_nonfinite = n_over = n_below_tiny = n_below_normal = 0
    max_abs = 0.0
    chunks = (row[q:q + _RANGE_CHUNK] for row in rows
              for q in range(0, row.size, _RANGE_CHUNK))
    for chunk in chunks:
        a = np.abs(chunk, out=buf[:chunk.size])
        finite = np.isfinite(a, out=mask[:chunk.size])
        n_nonfinite += a.size - int(np.count_nonzero(finite))
        max_abs = max(max_abs, float(a.max(where=finite, initial=0.0)))
        n_over += int(np.count_nonzero(finite & (a > fmt.max)))
        n_nonzero += int(np.count_nonzero(a))
        # zeros are below both thresholds, NaN below neither
        n_below_tiny += int(np.count_nonzero(a < fmt.tiny))
        n_below_normal += int(np.count_nonzero(a < fmt.min_normal))
    return RangeCounts(
        n_values=int(size),
        n_nonzero=n_nonzero,
        n_nonfinite=n_nonfinite,
        n_overflow=n_over,
        n_underflow=n_below_tiny - (size - n_nonzero),
        n_subnormal=n_below_normal - n_below_tiny,
        max_abs=max_abs,
    )


def finite_abs_range(x: np.ndarray) -> tuple[float, float]:
    """(smallest nonzero magnitude, largest magnitude) of finite entries.

    Returns ``(0.0, 0.0)`` for an array with no nonzero finite entries.
    These are the quantities plotted in the paper's Figure 1.
    """
    a = np.abs(np.asarray(x, dtype=np.float64)).ravel()
    a = a[np.isfinite(a) & (a > 0)]
    if a.size == 0:
        return 0.0, 0.0
    return float(a.min()), float(a.max())


def fp16_distance(x: np.ndarray) -> tuple[str, float]:
    """Classify how far a value distribution lies outside the FP16 range.

    Reproduces the ``Dist.`` column of the paper's Table 3: ``"none"`` if the
    values fit in FP16, ``"near"`` if they exceed it by fewer than 2 orders
    of magnitude (decades), ``"far"`` otherwise.  Only the overflow side is
    considered (the paper treats underflow separately via shift_levid); the
    returned float is the number of decades beyond the FP16 boundary,
    measured on whichever side exceeds it the most.
    """
    lo, hi = finite_abs_range(x)
    if hi == 0.0:
        return "none", 0.0
    over = np.log10(hi / FP16.max) if hi > FP16.max else 0.0
    under = np.log10(FP16.tiny / lo) if 0 < lo < FP16.tiny else 0.0
    decades = max(over, under)
    if decades <= 0.0:
        return "none", 0.0
    return ("near", decades) if decades < 2.0 else ("far", decades)
