"""Compiled C kernel backend (``"c"``): gcc + ctypes, bit-identical to numpy.

At registration this module compiles ``backend_c.c`` with the system gcc,
loads it through :mod:`ctypes` and returns a :class:`KernelBackend` named
``"c"``.  It covers SOA payloads whose planes are C-contiguous and aligned,
a whole number of values apart (the padded layout every producer
allocates, :mod:`repro.sgdia.layout`; each kernel takes that plane stride
and reads the coefficients in place), of

- scalar operators (``ncomp == 1``): ``spmv``, ``gs_sweep`` and ``sptrsv``
  (lexicographic schedule), on a single vector.  The SpMV and the sweep of
  a 3d7, 3d15, 3d19 or 3d27 operator run that stencil's own kernels
  (``extras["spmv_stencils"]``, ``extras["sweep_stencils"]``): its offsets
  are compile-time constants, and every cell of an interior grid row, its
  two end cells included, sums its terms in registers, 8 cells per vector;
  a row's first and last vectors drop the out-of-grid terms of their end
  lane with a bitwise blend.  A sweep is one call: per grid row it runs the
  row's two colors of ``COLORS8``, the rows in the lagged order that reads
  every neighbour as color-by-color order does, and a one-color call
  (``color=``) runs that color alone (the masked-end contract and the
  ordering argument are at the head of ``backend_c.c``);
- block operators (``ncomp`` 2 to 4, the vector PDEs): ``spmv`` and
  ``gs_sweep`` (one call, color by color in ``COLORS8`` order, or the one
  ``color=``) on a vector or an RHS block with a trailing batch axis of any
  ``k``.  Each cell's ``r x r`` block is converted once and applied to 8
  columns per vector operation; every block product sums in ascending
  order from zero, the order of the reference's ``block_contract``;

for these (storage, compute) pairs:

- fp16 -> fp32/fp64, upcast with F16C ``vcvtph2ps`` (only when the library
  was built with F16C; otherwise fp16 payloads stay on numpy, whose
  conversion is faster than a scalar software one);
- fp32 -> fp32 (also BF16 payloads, which are held in float32);
- fp64 -> fp64 (the outer Krylov SpMV), and the mixed fp64 -> fp32 and
  fp32 -> fp64 pairs.

It also covers the coarsening kernels of :mod:`repro.kernels.coarsening`:
``transfer`` (restrict and prolong) in fp32 and fp64 on scalar and block
grids, on a vector or on a block of any ``k`` columns, and
``galerkin_group`` (one rest group of a setup Galerkin pass) in FP64, each
in its reference's summation order; and the setup kernels of
:mod:`repro.kernels.truncate` on FP64 scalar and 2x2 to 4x4 block
operators: ``truncate_audit`` (one level's optional two-sided scaling,
range audit and truncation to an fp16, fp32 or fp64 payload, in one read,
the payload and the scaled operator written onto padded planes; fp16
rounds directly from fp64, see ``backend_c.c``) and ``scaled_ratio``
(Theorem 4.1's ratio).

Everything else delegates to the numpy kernels unchanged: transfers in
other dtypes, scalar RHS blocks (no benchmark workload measures them),
block SpTRSV (the reference has none), AOS layouts, blocks larger than
4x4, payloads whose planes are not C-contiguous or aligned, and in the
setup BF16 payloads, non-FP64 operators and fp16 payloads without F16C.  The scaled SpMV keeps its ``q*x`` and ``y*=q`` steps in
numpy around the compiled product; the Jacobi sweep (no backend entry)
runs its numpy update around the compiled SpMV.

The compiled kernels charge ``kernel.*.calls`` and ``precision.fcvt.values``
with the per-plan totals the numpy reference accumulates term by term, so
counters are identical whichever backend runs.

The shared library is cached under ``$XDG_CACHE_HOME/repro`` (default
``~/.cache/repro``), keyed by the sha256 of the source, the flags, ``gcc
--version`` and the machine, and written with an atomic rename, so later
processes load it instead of recompiling.  A missing compiler, a failed
compile, an unwritable cache or a library lacking any kernel of a pair
leaves the backend unregistered; the reason is reported by
:func:`repro.kernels.backend_status`.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shutil
import subprocess
import tempfile
import weakref
from pathlib import Path

import numpy as np

from ..observability import metrics as _metrics

__all__ = ["cache_dir", "make_backend"]

_SOURCE = Path(__file__).with_name("backend_c.c")
#: Never -ffast-math: reassociation or FMA contraction would change roundoff.
_FLAGS = ("-O3", "-march=native", "-ffp-contract=off", "-std=c11", "-fPIC", "-shared")

_STORAGE = {np.dtype(np.float16): "h", np.dtype(np.float32): "f", np.dtype(np.float64): "d"}
_COMPUTE = {np.dtype(np.float32): "f", np.dtype(np.float64): "d"}

_P, _I, _L = ctypes.c_void_p, ctypes.c_int, ctypes.c_long
#: every SG-DIA kernel takes the payload and its plane stride (in values)
_ARGTYPES = {
    "spmv": (_P, _L, _P, _I, _P, _P, _L, _L, _L),
    "gs_sweep": (_P, _L, _P, _I, _I, _P, _P, _P, _L, _L, _L, _I),
    "sptrsv": (_P, _L, _P, _P, _I, _P, _P, _P, _L, _L, _L, _I),
    # block variants: the same calls plus (m, K) after the offset table
    "bspmv": (_P, _L, _P, _I, _I, _L, _P, _P, _L, _L, _L),
    "bgs_sweep": (_P, _L, _P, _I, _I, _I, _L, _P, _P, _P, _L, _L, _L, _I),
}
#: stencils with a scalar SpMV and sweep of their own
#: (repro_{spmv,gs_sweep}_<stencil>_<pair>, the generic kernels' arguments),
#: their offsets compile-time constants
_STENCILS = ("3d7", "3d15", "3d19", "3d27")
_STENCIL_KINDS = ("spmv", "gs_sweep")
#: repro_transfer_{f,d}: src, dst, e, geo, seg, w, nseg
_TRANSFER_ARGS = (_P, _P, _L, _P, _P, _P, _P)
#: repro_galerkin_group: a, out, bt, outer, n, nc, inner, f, ra, nra, outs,
#: nout, rap, nslot
_GALERKIN_ARGS = (_P, _P, _P, _L, _L, _L, _L, _L, _P, _I, _P, _I, _P, _I)
#: repro_truncate_audit: a, stride, w, offs, ndiag, m, nx, ny, nz, scaled,
#: stride, out, stride, kind, thr, counts, max_abs
_TRUNCATE_ARGS = (
    _P, _L, _P, _P, _I, _I, _L, _L, _L, _P, _L, _P, _L, _I, _P, _P, _P
)
#: repro_scaled_ratio: a, stride, sqrt_d, offs, ndiag, m, nx, ny, nz
_RATIO_ARGS = (_P, _L, _P, _P, _I, _I, _L, _L, _L)
#: payload format -> the kernel's payload kind (its bytes per value)
_PAYLOAD_KINDS = {None: 0, "fp16": 2, "fp32": 4, "fp64": 8}


class BuildError(RuntimeError):
    """The compiled library could not be built or loaded."""


def cache_dir() -> Path:
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return Path(base) / "repro"


def _compiler() -> "str | None":
    return shutil.which("gcc")


def _machine_tag() -> str:
    """Architecture plus CPU feature flags: ``-march=native`` output differs
    between CPUs of one architecture."""
    tag = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            tag += next((ln for ln in f if ln.startswith("flags")), "")
    except OSError:
        pass
    return tag


def build_library() -> Path:
    """Path of the compiled library, compiling it on a cache miss."""
    gcc = _compiler()
    if gcc is None:
        raise BuildError("no C compiler: gcc not found on PATH")
    try:
        version = subprocess.run(
            [gcc, "--version"], capture_output=True, text=True, timeout=60,
            check=True,
        ).stdout
    except (OSError, subprocess.SubprocessError) as exc:
        raise BuildError(f"{gcc} --version failed: {exc}") from None
    h = hashlib.sha256(_SOURCE.read_bytes())
    for part in (" ".join(_FLAGS), version, _machine_tag()):
        h.update(b"\0" + part.encode())
    folder = cache_dir()
    target = folder / f"repro_kernels-{h.hexdigest()[:20]}.so"
    if target.is_file():
        return target
    try:
        folder.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=folder, suffix=".so.tmp")
        os.close(fd)
    except OSError as exc:
        raise BuildError(f"cache directory {folder} not writable: {exc}") from None
    try:
        proc = subprocess.run(
            [gcc, *_FLAGS, "-o", tmp, str(_SOURCE)],
            capture_output=True, text=True, timeout=600,
        )
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-3:]
            raise BuildError(f"gcc failed ({proc.returncode}): {' | '.join(tail)}")
        os.replace(tmp, target)  # atomic: concurrent builders never see half a file
    except (OSError, subprocess.SubprocessError) as exc:
        raise BuildError(f"compile failed: {exc}") from None
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return target


def _load(path: Path) -> "tuple[dict, dict, tuple, bool, tuple[int, int]]":
    """ctypes handles for every compiled kernel — the SG-DIA kernels keyed
    ``(kind, storage, compute)`` (kind ``spmv_<stencil>`` for the
    per-stencil SpMVs), the transfers keyed by dtype, and the
    Galerkin group, truncate-and-audit and scaled-ratio kernels — the F16C
    flag, and the block kernels' largest block size and stencil size.

    Raises :class:`BuildError` when a kernel is missing: a misnamed kernel
    would otherwise run on numpy unnoticed."""
    lib = ctypes.CDLL(str(path))

    def fetch(name, argtypes, restype=None):
        try:
            fn = getattr(lib, name)
        except AttributeError:
            raise BuildError(f"{path.name} lacks {name}") from None
        fn.argtypes = argtypes
        fn.restype = restype
        return fn

    f16c = bool(fetch("repro_has_f16c", (), ctypes.c_int)())
    mb, nd = ctypes.c_int(), ctypes.c_int()
    fetch("repro_block_limits", (ctypes.POINTER(ctypes.c_int),) * 2)(
        ctypes.byref(mb), ctypes.byref(nd)
    )
    kernels = {}
    for sdt, s in _STORAGE.items():
        if s == "h" and not f16c:
            continue  # no fp16 variants without F16C: numpy converts faster
        for cdt, c in _COMPUTE.items():
            for kind, argtypes in _ARGTYPES.items():
                kernels[(kind, sdt, cdt)] = fetch(f"repro_{kind}_{s}{c}", argtypes)
            for kind in _STENCIL_KINDS:
                for name in _STENCILS:
                    kernels[(f"{kind}_{name}", sdt, cdt)] = fetch(
                        f"repro_{kind}_{name}_{s}{c}", _ARGTYPES[kind]
                    )
    transfers = {
        cdt: fetch(f"repro_transfer_{c}", _TRANSFER_ARGS) for cdt, c in _COMPUTE.items()
    }
    setup = (
        fetch("repro_galerkin_group", _GALERKIN_ARGS, ctypes.c_int),
        fetch("repro_truncate_audit", _TRUNCATE_ARGS, ctypes.c_int),
        fetch("repro_scaled_ratio", _RATIO_ARGS, ctypes.c_double),
    )
    return kernels, transfers, setup, f16c, (mb.value, nd.value)


def _addr(arr: np.ndarray) -> int:
    """Data address of a C-contiguous array.  ``c_char.from_buffer`` takes
    ~0.7 us against ~1.9 us for ``arr.ctypes.data``, which counts on the
    small levels' transfers, but it needs a writable, non-empty buffer."""
    if arr.flags.writeable and arr.size:
        return ctypes.addressof(ctypes.c_char.from_buffer(arr))
    return arr.ctypes.data


def _ready(arr, dtype) -> np.ndarray:
    """``arr`` as an aligned C-contiguous array of ``dtype`` (no copy if it is)."""
    return np.require(arr, dtype=dtype, requirements=("C", "A"))


def _stride(data: np.ndarray) -> "int | None":
    """Values from one plane of an SOA payload to the next, if its planes
    are C-contiguous and aligned and that stride is a whole number of
    values (the padded layout of :mod:`repro.sgdia.layout`); else None."""
    step = data.strides[0]
    if (
        data.flags.aligned
        and step % data.itemsize == 0
        and step >= data[0].nbytes
        and data[0].flags.c_contiguous
    ):
        return step // data.itemsize
    return None


def make_backend(reference) -> "tuple[object | None, str]":
    """Build the ``"c"`` :class:`KernelBackend`; ``(None, reason)`` if unusable."""
    from ..grid import stencil as make_stencil
    from ..precision import RangeCounts, get_format
    from ..sgdia.layout import soa_empty
    from .backend import KernelBackend
    from .spmv import field_view
    from .sptrsv import _participating_offsets
    from .sweeps import COLORS8

    try:
        path = build_library()
        kernels, transfers, setup, f16c, (max_ncomp, max_terms) = _load(path)
        galerkin, truncate_kernel, ratio_kernel = setup
    except (BuildError, OSError, AttributeError) as exc:  # numpy keeps running
        return None, f"{type(exc).__name__}: {exc}"

    # offsets -> the stencil whose own kernels run them
    stencil_names = {make_stencil(name).offsets: name for name in _STENCILS}

    def kernel(kind, plan, a, cdtype):
        """The compiled kernel for this call, or None (use the reference)."""
        data = a.data
        if a.layout != "soa":
            return None
        if plan.ncomp != 1:
            if plan.ncomp > max_ncomp or len(plan.offsets) > max_terms:
                return None
            kind = "b" + kind
        elif kind in _STENCIL_KINDS and plan.offsets in stencil_names:
            kind = f"{kind}_{stencil_names[plan.offsets]}"
        if data.shape != (len(plan.offsets), *plan.shape, *block_shape(plan)):
            return None  # not this plan's structure: never hand C a bad bound
        if _stride(data) is None:
            return None
        return kernels.get((kind, data.dtype, cdtype))

    def block_shape(plan):
        return (plan.ncomp, plan.ncomp) if plan.ncomp != 1 else ()

    def charge_fcvt(plan, a, cdtype, cells):
        """The reference's per-term fcvt charges, summed (it charges only
        non-empty terms of a converted payload, every block entry)."""
        if a.data.dtype != cdtype and cells:
            _metrics.incr("precision.fcvt.values", cells * plan.ncomp**2)

    def block_args(plan, v):
        """The ``(m, K)`` arguments of a block kernel for ``v``, a ``K``-column
        block or a vector (``K = 1``); ``()`` for a scalar vector; None for
        anything else (scalar RHS blocks stay on numpy)."""
        if v.shape == plan.field_shape:
            return (plan.ncomp, 1) if plan.ncomp != 1 else ()
        if plan.ncomp != 1 and v.shape[:-1] == plan.field_shape:
            return (plan.ncomp, v.shape[-1])
        return None

    def spmv(plan, a, x, out=None, compute_dtype=None):
        xf, _ = field_view(a.grid, x)
        if compute_dtype is None:
            cdtype = np.result_type(a.data.dtype, xf.dtype)
            if cdtype == np.float16:
                cdtype = np.float32
        else:
            cdtype = compute_dtype
        cdtype = np.dtype(cdtype)
        dims = block_args(plan, xf)
        fn = None if dims is None else kernel("spmv", plan, a, cdtype)
        if fn is None:
            return reference.spmv(plan, a, x, out=out, compute_dtype=compute_dtype)
        xf = _ready(xf, cdtype)
        y = np.empty(xf.shape, dtype=cdtype)
        if _metrics.active():
            _metrics.incr("kernel.spmv.calls")
            charge_fcvt(plan, a, cdtype, sum(plan.term_cells))
        fn(a.data.ctypes.data, _stride(a.data), plan.offsets_table.ctypes.data,
           len(plan.offsets), *dims, xf.ctypes.data, y.ctypes.data, *plan.shape)
        if out is not None:
            field_view(a.grid, out)[0][...] = y
            return out
        return y.reshape(np.shape(x)) if np.shape(x) != y.shape else y

    def gs_sweep(plan, a, b, x, diag_inv, forward=True, compute_dtype=np.float32,
                 color=None):
        cdtype = np.dtype(compute_dtype)
        fn = kernel("gs_sweep", plan, a, cdtype)
        dims = block_args(plan, x)
        if (
            fn is None
            or dims is None
            or plan.sweep_colors is None
            or np.shape(b) != x.shape
            or x.dtype != cdtype
            or not x.flags.writeable
            or np.asarray(diag_inv).dtype != cdtype
            or np.shape(diag_inv) != plan.shape + block_shape(plan)
        ):
            return reference.gs_sweep(
                plan, a, b, x, diag_inv, forward=forward,
                compute_dtype=compute_dtype, color=color,
            )
        color = None if color is None else tuple(color)
        if _metrics.active():
            _metrics.incr("kernel.sweep.calls")
            charge_fcvt(plan, a, cdtype, plan.sweep_cells.get(color, 0))
        # the kernel's mode: 1 forward, 0 backward, 2 + c color c of COLORS8
        mode = int(bool(forward)) if color is None else 2 + COLORS8.index(color)
        xw = _ready(x, cdtype)  # a copy only for non-contiguous x
        bc = _ready(b, cdtype)
        if np.may_share_memory(bc, xw):
            bc = bc.copy()
        dinv = _ready(diag_inv, cdtype)
        fn(a.data.ctypes.data, _stride(a.data), plan.offsets_table.ctypes.data,
           len(plan.offsets), plan.diag_index, *dims, bc.ctypes.data,
           dinv.ctypes.data, xw.ctypes.data, *plan.shape, mode)
        if xw is not x:
            x[...] = xw
        return x

    def sptrsv(plan, a, b, lower=True, part="all", diag_inv=None, out=None,
               compute_dtype=np.float32):
        cdtype = np.dtype(compute_dtype)
        bf, batched = field_view(a.grid, np.asarray(b))
        fn = None if batched or plan.radius > 1 else kernel("sptrsv", plan, a, cdtype)
        if fn is None or (diag_inv is not None and np.asarray(diag_inv).dtype != cdtype):
            return reference.sptrsv(
                plan, a, b, lower=lower, part=part, diag_inv=diag_inv, out=out,
                compute_dtype=compute_dtype,
            )
        counting = _metrics.active()
        if counting:
            _metrics.incr("kernel.sptrsv.calls")
        if diag_inv is None:
            diag = a.diag_view(a.stencil.diag_index).astype(np.float64)
            if np.any(diag == 0):
                raise ZeroDivisionError("zero diagonal in triangular solve")
            diag_inv = (1.0 / diag).astype(cdtype)
        used = np.asarray(_participating_offsets(a, lower, part), dtype=np.intc)
        if counting:
            charge_fcvt(plan, a, cdtype, sum(plan.term_cells[d] for d in used))
        bc = _ready(bf, cdtype)
        dinv = _ready(np.reshape(diag_inv, plan.shape), cdtype)
        xf = np.empty(plan.shape, dtype=cdtype)
        fn(a.data.ctypes.data, _stride(a.data), plan.offsets_table.ctypes.data,
           used.ctypes.data, len(used), bc.ctypes.data, dinv.ctypes.data,
           xf.ctypes.data, *plan.shape, int(bool(lower)))
        if out is not None:
            out.reshape(bf.shape)[...] = xf
            return out
        return xf.reshape(np.shape(b)) if np.shape(b) != xf.shape else xf

    # stencil -> addresses of its tables (a pointer lookup costs ~1.5 us)
    table_ptrs: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()

    def transfer(st, x, dtype=None):
        xs = field_view(st.src, x)[0]
        dtype = xs.dtype if dtype is None else np.dtype(dtype)
        fn = transfers.get(dtype)
        if fn is None:
            return reference.transfer(st, x, dtype)
        if xs.dtype != dtype or not (xs.flags.c_contiguous and xs.flags.aligned):
            xs = _ready(xs, dtype)
        ptrs = table_ptrs.get(st)
        if ptrs is None:
            ptrs = table_ptrs[st] = tuple(t.ctypes.data for t in st.tables)
        y = np.empty(st.dst.shape + xs.shape[3:], dtype=dtype)
        fn(_addr(xs), _addr(y), xs.size // st.src.ncells, *ptrs)
        return y

    def galerkin_group(row, band, axis, factor, ra, rap, out=None):
        if not rap:
            return {}
        offs = sorted(row)
        arrays = [_ready(row[o], np.float64) for o in offs]
        nc = band.shape[0]
        bt = np.ascontiguousarray(band.T, dtype=np.float64)
        slots: dict = {}
        ra_rows = [
            (slots.setdefault(e, len(slots)), offs.index(e - s), s, lo, hi,
             s + factor - 1)
            for e, s, lo, hi in ra
        ]
        ocs, out_rows = [], []
        for r, (oc, _e, _k) in enumerate(rap):
            if not ocs or ocs[-1] != oc:
                ocs.append(oc)
                out_rows.append([oc, max(0, -oc), min(nc, nc - oc), r, r])
            out_rows[-1][4] = r + 1
        rap_rows = [(slots[e], k) for _oc, e, k in rap]
        first = arrays[0]
        shape = first.shape[:axis] + (nc,) + first.shape[axis + 1:]
        out = out or {}
        outs = [out[oc] if oc in out else np.empty(shape) for oc in ocs]
        for o in outs:  # a target the kernel cannot write would corrupt memory
            if o.shape != shape or o.dtype != np.float64 or not o.flags.c_contiguous:
                raise ValueError(f"Galerkin target {o.dtype} {o.shape} is not "
                                 f"a C-contiguous float64 {shape}")
        tables = [np.asarray(t, dtype=np.int64) for t in (ra_rows, out_rows, rap_rows)]
        a_ptr = (ctypes.c_void_p * len(arrays))(*(a.ctypes.data for a in arrays))
        o_ptr = (ctypes.c_void_p * len(outs))(*(o.ctypes.data for o in outs))
        status = galerkin(
            a_ptr, o_ptr, bt.ctypes.data,
            int(np.prod(first.shape[:axis])), first.shape[axis], nc,
            int(np.prod(first.shape[axis + 1:])), factor,
            tables[0].ctypes.data, len(ra_rows), tables[1].ctypes.data,
            len(out_rows), tables[2].ctypes.data, len(slots),
        )
        if status:
            raise MemoryError("Galerkin group buffer")
        return dict(zip(ocs, outs))

    payload_kinds = {
        k: v for k, v in _PAYLOAD_KINDS.items() if f16c or k != "fp16"
    }

    def setup_operator(a, field=None):
        """True if the setup kernels take ``a`` (and the per-dof ``field``):
        an SOA FP64 payload on C-contiguous planes with blocks of at most
        4x4."""
        data = a.data
        return (
            a.layout == "soa"
            and a.grid.ncomp <= max_ncomp
            and data.dtype == np.float64
            and data.shape == a._expected_shape("soa")
            and _stride(data) is not None
            and (field is None or np.shape(field) == a.grid.field_shape)
        )

    def offsets(a):
        return np.ascontiguousarray(a.stencil.offsets, dtype=np.intc)

    def truncate_audit(a, weight=None, storage=None, audit="fp16"):
        storage = None if storage is None else get_format(storage)
        kind = payload_kinds.get(None if storage is None else storage.name)
        if kind is None or not setup_operator(a, weight):
            return reference.truncate_audit(a, weight, storage, audit)
        audit = get_format(audit)
        data = a.data
        w = None if weight is None else _ready(weight, np.float64)
        scaled = None if w is None else soa_empty(data.shape, np.float64)
        payload = None if storage is None else soa_empty(data.shape, storage.np_dtype)
        thr = np.array([audit.max, audit.tiny, audit.min_normal])
        counts = np.zeros(5, dtype=np.int64)
        max_abs = np.zeros(1)
        offs = offsets(a)
        status = truncate_kernel(
            data.ctypes.data, _stride(data), None if w is None else w.ctypes.data,
            offs.ctypes.data, len(offs), a.grid.ncomp, *a.grid.shape,
            None if scaled is None else scaled.ctypes.data,
            0 if scaled is None else _stride(scaled),
            None if payload is None else payload.ctypes.data,
            0 if payload is None else _stride(payload), kind,
            thr.ctypes.data, counts.ctypes.data, max_abs.ctypes.data,
        )
        if status:
            raise RuntimeError(f"repro_truncate_audit refused payload kind {kind}")
        nonzero, nonfinite, over, below_tiny, below_normal = counts.tolist()
        return payload, scaled, RangeCounts(
            n_values=data.size,
            n_nonzero=nonzero,
            n_nonfinite=nonfinite,
            n_overflow=over,
            n_underflow=below_tiny - (data.size - nonzero),
            n_subnormal=below_normal - below_tiny,
            max_abs=float(max_abs[0]),
        )

    def scaled_ratio(a, sqrt_d):
        if not setup_operator(a, sqrt_d):
            return reference.scaled_ratio(a, sqrt_d)
        sd = _ready(sqrt_d, np.float64)
        offs = offsets(a)
        return float(ratio_kernel(
            a.data.ctypes.data, _stride(a.data), sd.ctypes.data, offs.ctypes.data,
            len(offs), a.grid.ncomp, *a.grid.shape,
        ))

    pairs = sorted({
        f"{'block:' if k.startswith('b') else ''}{s.name}->{c.name}"
        for k, s, c in kernels if k in _ARGTYPES
    })

    def stencil_pairs(kind):
        return sorted(
            f"{k[len(kind) + 1:]}:{s.name}->{c.name}"
            for k, s, c in kernels if k.startswith(f"{kind}_")
        )
    coarsening = sorted(f"transfer:{d.name}" for d in transfers) + [
        "galerkin_group:float64"
    ]
    setup_kernels = ["scaled_ratio:float64"] + sorted(
        f"truncate_audit:float64->{get_format(k).np_dtype.name}"
        for k in payload_kinds if k is not None
    )
    backend = KernelBackend(
        name="c",
        spmv=spmv,
        gs_sweep=gs_sweep,
        sptrsv=sptrsv,
        transfer=transfer,
        galerkin_group=galerkin_group,
        truncate_audit=truncate_audit,
        scaled_ratio=scaled_ratio,
        notes=(
            "gcc/ctypes SOA kernels on padded planes: scalar SpMV (per-stencil "
            "for 3d7/3d15/3d19/3d27)/SymGS/SpTRSV, block (2x2 to "
            f"4x4) SpMV/SymGS on any RHS block ({'with' if f16c else 'without'}"
            " F16C), fp32/fp64 transfers, FP64 Galerkin groups, FP64 setup "
            "scale/audit/truncation; numpy fallback otherwise"
        ),
        extras={"library": str(path), "f16c": f16c, "pairs": pairs,
                "spmv_stencils": stencil_pairs("spmv"),
                "sweep_stencils": stencil_pairs("gs_sweep"),
                "coarsening": coarsening, "setup": setup_kernels},
    )
    return backend, "ok"
