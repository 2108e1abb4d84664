"""The memory layout of SOA coefficient arrays: one padded plane per offset.

An SOA array ``data[d, i, j, k[, a, b]]`` keeps each stencil offset's
coefficients in one C-contiguous plane.  On a power-of-two grid those
planes are a power of two bytes long (512 KiB per FP16 plane at 64^3), so
back to back they all start in the same cache set, and a kernel streaming
the 7 to 27 planes of one grid row evicts its own lines.  This module is
the one place that decides where the planes go: :func:`plane_stride` puts
them an odd number of cache lines apart, and every producer of an SOA
array allocates it through :func:`soa_empty` (or wraps a buffer with
:func:`soa_view`).

``data`` stays a ``(ndiag, nx, ny, nz[, r, r])`` view whose planes are
C-contiguous; only its first stride is padded.  ``size``, ``nbytes`` and
``tobytes()`` are those of the logical array, so files, digests and
memory accounting do not see the padding.  AOS arrays are not padded.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["as_soa", "is_soa", "plane_stride", "soa_empty", "soa_view"]

#: A plane is rounded up to whole pairs of cache lines, then three lines
#: are added: consecutive planes start an odd number of lines apart, so the
#: 27 planes of a radius-1 stencil start in 27 distinct sets of any cache
#: with 32 or more sets indexed from address bit 6 (L1 and L2 alike; the
#: set bits within a page differ already).  A small plane costs at most
#: 320 bytes of padding.
_ROUND = 128
_SKEW = 192
#: Alignment of the first plane (a cache line).
_ALIGN = 64


def plane_stride(plane: int, itemsize: int) -> int:
    """Values from the start of one SOA plane to the next, for planes of
    ``plane`` values of ``itemsize`` bytes: the plane's bytes rounded up to
    a multiple of 128, plus 192 bytes."""
    return (-(-plane * itemsize // _ROUND) * _ROUND + _SKEW) // itemsize


def _strides(shape: tuple, itemsize: int) -> tuple:
    plane = math.prod(shape[1:])
    inner = [itemsize]
    for n in reversed(shape[2:]):
        inner.insert(0, inner[0] * n)
    return (plane_stride(plane, itemsize) * itemsize, *inner)


def _extent(shape: tuple, itemsize: int) -> int:
    """Bytes from the first plane's start to the last plane's end."""
    if shape[0] == 0:
        return 0
    last = math.prod(shape[1:]) * itemsize
    return (shape[0] - 1) * _strides(shape, itemsize)[0] + last


def soa_view(buffer, offset: int, shape, dtype) -> np.ndarray:
    """The SOA array of ``shape`` on padded planes of ``buffer`` (anything
    exporting a writable buffer), its first plane at byte ``offset``; no
    padding follows the last plane."""
    dtype = np.dtype(dtype)
    shape = tuple(int(n) for n in shape)
    return np.ndarray(shape, dtype, buffer=buffer, offset=offset,
                      strides=_strides(shape, dtype.itemsize))


def soa_empty(shape, dtype, zero: bool = False) -> np.ndarray:
    """A new SOA array of ``shape`` on padded planes, its first plane
    aligned to a cache line: uninitialized, or zero-filled with ``zero``."""
    dtype = np.dtype(dtype)
    shape = tuple(int(n) for n in shape)
    nbytes = _extent(shape, dtype.itemsize) + _ALIGN
    raw = (np.zeros if zero else np.empty)(nbytes, np.uint8)
    return soa_view(raw, -raw.ctypes.data % _ALIGN, shape, dtype)


def is_soa(data: np.ndarray) -> bool:
    """True if ``data`` has this module's layout: C-contiguous planes
    :func:`plane_stride` apart."""
    return data.ndim >= 2 and data.strides == _strides(data.shape, data.itemsize)


def as_soa(data: np.ndarray) -> np.ndarray:
    """``data`` itself if it has the padded layout, else a padded copy."""
    if is_soa(data):
        return data
    out = soa_empty(data.shape, data.dtype)
    out[...] = data
    return out
