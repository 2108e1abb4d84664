"""Multigrid setup phase — Algorithm 1 (``MG_setup_for_FP16``).

Three strategies are implemented, matching the paper's Figure-6 ablation:

``setup-then-scale`` (the contribution)
    Galerkin-coarsen the *exact* operator chain in FP64, then, per level,
    scale by ``Q_i = diag(A_i)/G_i`` and truncate to the storage precision.
    Truncation error never enters the triple-matrix-product chain.

``scale-then-setup`` (the ablation baseline, Section 4.3)
    Scale the finest operator once, truncate it to storage precision, and
    build every coarser operator from the already-quantized data, truncating
    again at each level.  FP16 quantization error (and underflow of weak
    interface couplings) compounds down the RAP chain — the mechanism behind
    the non-convergence the paper reports for rhd / rhd-3T.

``none``
    Direct truncation without scaling; unsafe (``inf`` -> ``NaN``) whenever
    values exceed the FP16 range.

``shift_levid`` (Section 4.3) switches the storage format back to the
compute precision from a given level downward, whatever the strategy.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..coarsen import build_transfer, choose_coarsen_factors, galerkin_coarse_sgdia
from ..observability import metrics as _metrics
from ..observability import trace as _trace
from ..precision import DiagonalScaling, PrecisionConfig
from ..sgdia import SGDIAMatrix, offset_slices
from ..sgdia.mixed import scale_and_truncate, scale_level
from ..smoothers import CoarseDirectSolver, Smoother, make_smoother
from .hierarchy import MGHierarchy
from .level import Level
from .options import MGOptions

__all__ = [
    "mg_setup",
    "mg_setup_from_chain",
    "build_level_payload",
    "directional_strengths",
    "LevelSetupStats",
    "SetupDiagnostics",
]

#: With ``shift_levid="auto"``: fraction of nonzeros allowed to flush to
#: zero in the storage format before a level (and all coarser levels)
#: switches to the compute precision.
_AUTO_SHIFT_UNDERFLOW_FRACTION = 0.01


@dataclass(frozen=True)
class LevelSetupStats:
    """What truncation faced at one level (Algorithm 1 lines 5-12).

    The counts are those of :class:`~repro.precision.RangeCounts`, taken on
    the high-precision values (after any per-level scaling) against the
    level's *nominal* storage format: ``n_overflow`` counts finite
    ``|v| > max`` and ``n_underflow`` counts ``0 < |v| < tiny``.  They are
    thresholds, not what rounding produced: a value in ``(max, max +
    ulp/2)`` rounds to ``max``, one in ``(tiny/2, tiny)`` to ``±tiny``.
    ``storage`` is the format actually used, which differs from the nominal
    one when the auto shift tripped.  These are exactly the numbers the
    setup phase used to swallow silently.
    """

    index: int
    storage: str
    scaled: bool
    g: "float | None"
    n_values: int
    n_nonzero: int
    n_overflow: int
    n_underflow: int
    n_nonfinite: int
    auto_shift_tripped: bool = False

    @property
    def overflow_fraction(self) -> float:
        return self.n_overflow / self.n_nonzero if self.n_nonzero else 0.0

    @property
    def underflow_fraction(self) -> float:
        return self.n_underflow / self.n_nonzero if self.n_nonzero else 0.0


@dataclass(frozen=True)
class SetupDiagnostics:
    """Per-hierarchy setup audit, consumed by ``repro.resilience.health``.

    ``chain_truncated`` flags a scale-then-setup chain that stopped
    coarsening because quantization overflow produced non-finite values;
    ``coarse_direct_fallback`` flags a requested direct coarse solve that
    was replaced by a smoother because the coarsest operator was not
    finite.  ``auto_shift_level`` is the first level the underflow trigger
    shifted to compute precision (``None`` when it never tripped).
    """

    levels: tuple[LevelSetupStats, ...] = ()
    chain_truncated: bool = False
    coarse_direct_fallback: bool = False
    auto_shift_level: "int | None" = None


def _scale_mode(config: PrecisionConfig) -> str:
    """The per-level scale test: setup-then-scale applies the config's
    ``scale_mode``; 'none' and 'scale-then-setup' (already scaled/quantized)
    truncate directly."""
    return config.scale_mode if config.scaling == "setup-then-scale" else "never"


def build_level_payload(
    a_high: SGDIAMatrix,
    storage_fmt,
    config: PrecisionConfig,
    options: "MGOptions | None" = None,
    is_coarsest: bool = False,
):
    """Materialize one level's ``(stored, smoother)`` in a storage format.

    The single-level slice of Algorithm 1 (lines 5-12 plus smoother
    setup), exposed for the runtime precision policy: escalating or
    demoting a level re-runs exactly this — scale-if-needed, truncate to
    the target format, rebuild the level smoother against the payload —
    from that level's high-precision operator, leaving the rest of the
    hierarchy untouched.  The result is identical to what a full
    ``mg_setup`` under a config nominating ``storage_fmt`` for this level
    would have produced from the same chain.
    """
    options = options or MGOptions()
    level = scale_and_truncate(
        a_high, storage_fmt, config.compute, _scale_mode(config), config.g_safety
    )
    smoother = _make_level_smoother(options, a_high, is_coarsest)
    smoother.setup(level.scaled, level.stored)
    return level.stored, smoother


def directional_strengths(a: SGDIAMatrix) -> tuple[float, float, float]:
    """Mean face-coupling magnitude per axis, used for auto semicoarsening.

    Strong coupling along an axis means errors are smoothed well along it
    and it can be coarsened; an axis whose coupling is much weaker than the
    strongest one should be kept fine (classic semicoarsening criterion).
    """
    out = []
    for ax in range(3):
        vals = []
        for d, off in enumerate(a.stencil.offsets):
            if abs(off[ax]) == 1 and all(
                off[other] == 0 for other in range(3) if other != ax
            ):
                dst, _ = offset_slices(a.grid.shape, off)
                v = np.abs(a.diag_view(d)[dst].astype(np.float64))
                if v.size:
                    vals.append(float(v.mean()))
        out.append(float(np.mean(vals)) if vals else 0.0)
    return tuple(out)


def _pick_factors(
    a: SGDIAMatrix, options: MGOptions
) -> tuple[int, int, int]:
    grid = a.grid
    if options.coarsen == "full":
        return choose_coarsen_factors(grid, anisotropy_weights=None)
    if options.coarsen == "semi-z":
        base = choose_coarsen_factors(grid, anisotropy_weights=None)
        return (base[0], base[1], 1)
    weights = directional_strengths(a)
    if max(weights) == 0.0:
        weights = None
    return choose_coarsen_factors(
        grid, anisotropy_weights=weights, semi_threshold=options.semi_threshold
    )


def _apply_factor(
    factors: tuple[int, int, int], factor: int
) -> tuple[int, int, int]:
    return tuple(f if f == 1 else factor for f in factors)


def _make_level_smoother(
    options: MGOptions, a: SGDIAMatrix, is_coarsest: bool
) -> Smoother:
    if is_coarsest and options.coarse_solver == "direct":
        if not np.isfinite(a.data).all():
            # A quantization-overflowed chain (scale-then-setup / 'none'
            # on out-of-range data) cannot be LU-factorized; fall back to a
            # smoother so the failure surfaces as NaN in the solve, exactly
            # like the paper's diverging curves.
            return make_smoother("symgs")
        return CoarseDirectSolver()
    name = options.smoother
    # ILU0 is 3d7/scalar-specific; coarse (3d27) or block levels fall back
    # to SymGS, which supports every pattern in the library.
    if name.lower() == "ilu0" and (a.stencil.name != "3d7" or a.grid.ncomp > 1):
        name = "symgs"
        return make_smoother(name)
    return make_smoother(name, **options.smoother_kwargs)


def _build_chain(
    a0: SGDIAMatrix,
    options: MGOptions,
    quantize_to: "PrecisionConfig | None" = None,
) -> tuple[list[SGDIAMatrix], list, bool]:
    """Galerkin chain: matrices, transfers, and whether it stopped early.

    Without ``quantize_to`` (setup-then-scale, 'none') the chain is exact
    FP64 and coarsens whatever its values.  With it (scale-then-setup),
    every level is truncated to ``quantize_to``'s storage format for that
    level *first* and the quantized values (cast back to FP64 — the product
    arithmetic itself stays high precision, as the paper concedes in
    Section 4.3) feed the next Galerkin product; the chain stops on
    non-finite quantized data, and the returned flag says so, so
    diagnostics can surface it.  A ``"same"`` coarse pattern keeps the
    fine stencil on every level.
    """
    def quantize(m: SGDIAMatrix, lev: int) -> SGDIAMatrix:
        if quantize_to is None:
            return m
        fmt = quantize_to.storage_format_for_level(lev)
        return m.astype(fmt).astype("fp64")

    pattern = a0.stencil.name if options.coarse_pattern == "same" else "3d27"
    a = quantize(a0, 0)
    mats = [a]
    transfers = []
    while (
        len(mats) < options.max_levels
        and a.grid.ndof > options.min_coarse_dofs
    ):
        if quantize_to is not None and not np.isfinite(a.data).all():
            # Quantization overflowed; continuing the product chain would
            # only spread inf/NaN.  Keep the level so the solve exhibits the
            # failure (as the paper's 'none'/scale-setup curves do).
            return mats, transfers, True
        factors = _apply_factor(_pick_factors(a, options), options.coarsen_factor)
        if all(f == 1 for f in factors):
            break
        transfer = build_transfer(a.grid, factors, kind=options.interp)
        with _trace.span("galerkin", level=len(mats)):
            _metrics.incr("setup.galerkin.calls")
            a = galerkin_coarse_sgdia(
                a, transfer, coarse_pattern=pattern,
                collapse=options.coarse_pattern == "same",
            )
        a = quantize(a, len(mats))
        mats.append(a)
        transfers.append(transfer)
    return mats, transfers, False


def mg_setup(
    a: SGDIAMatrix,
    config: "PrecisionConfig | None" = None,
    options: "MGOptions | None" = None,
) -> MGHierarchy:
    """Set up the FP16-ready multigrid preconditioner (Algorithm 1).

    Every call runs the full setup; a caller that solves against the same
    operator repeatedly keeps its hierarchy in a
    :class:`repro.serve.HierarchyCache` (through a
    :class:`repro.serve.SolverSession`), which calls this on a miss.

    ``config.policy`` never mutates the setup output: the policy field
    participates only in cache keying and runtime attachment.  A runtime
    precision policy is attached to a set-up hierarchy by
    :func:`repro.policy.attach_policy`, which returns the
    :class:`~repro.policy.PolicyController` a solver wires.
    """
    config = config or PrecisionConfig()
    options = options or MGOptions()
    t0 = time.perf_counter()

    with _trace.span("setup", config=config.name):
        a64 = a if a.dtype == np.float64 else a.astype("fp64")

        entry_scaling: "DiagonalScaling | None" = None
        if config.scaling == "scale-then-setup":
            # Scale the finest operator once (if needed), then let
            # quantization propagate down the chain.
            need = (
                config.scale_mode == "always"
                or (
                    config.scale_mode == "auto"
                    and a64.max_abs() > config.storage.max
                )
            )
            chain_root = a64
            if need:
                entry_scaling, _, chain_root, _ = scale_level(
                    a64,
                    config.storage,
                    config.compute,
                    config.g_safety * config.chain_headroom,
                )
            # Quantize the finest level *before* coarsening, and re-quantize
            # each coarse operator before the next product.
            mats, transfers, chain_truncated = _build_chain(
                chain_root, options, quantize_to=config
            )
        else:
            mats, transfers, chain_truncated = _build_chain(a64, options)

        hierarchy = _setup_from_chain(
            mats,
            transfers,
            config,
            options,
            entry_scaling=entry_scaling,
            t0=t0,
            chain_truncated=chain_truncated,
        )
    return hierarchy


def mg_setup_from_chain(
    mats: list[SGDIAMatrix],
    transfers: list,
    config: "PrecisionConfig | None" = None,
    options: "MGOptions | None" = None,
    entry_scaling: "DiagonalScaling | None" = None,
    t0: "float | None" = None,
    chain_truncated: bool = False,
) -> MGHierarchy:
    """Finalize a hierarchy from a prebuilt operator chain.

    This is the per-level half of Algorithm 1 (lines 4-14): scaling,
    truncation to storage precision, smoother setup.  The chain may come
    from Galerkin coarsening (:func:`mg_setup`), from geometric
    rediscretization (:mod:`repro.mg.gmg`), or from user code.
    ``len(transfers)`` must be ``len(mats) - 1``.

    Every overflow/underflow/non-finite statistic observed along the way is
    recorded in the returned hierarchy's ``diagnostics`` (it used to be
    silently swallowed); :func:`repro.resilience.health.hierarchy_health`
    folds it into the pre-solve audit, and the same per-level counts feed
    the :mod:`repro.observability` metrics registry when one is installed.
    """
    config = config or PrecisionConfig()
    options = options or MGOptions()
    with _trace.span("setup", config=config.name):
        return _setup_from_chain(
            mats,
            transfers,
            config,
            options,
            entry_scaling=entry_scaling,
            t0=t0,
            chain_truncated=chain_truncated,
        )


def _setup_from_chain(
    mats: list[SGDIAMatrix],
    transfers: list,
    config: PrecisionConfig,
    options: MGOptions,
    entry_scaling: "DiagonalScaling | None" = None,
    t0: "float | None" = None,
    chain_truncated: bool = False,
) -> MGHierarchy:
    """Span-free body shared by :func:`mg_setup` and
    :func:`mg_setup_from_chain` (each opens exactly one ``setup`` span)."""
    if t0 is None:
        t0 = time.perf_counter()
    if len(transfers) != len(mats) - 1:
        raise ValueError(
            f"need {len(mats) - 1} transfers for {len(mats)} levels, got "
            f"{len(transfers)}"
        )

    levels: list[Level] = []
    level_stats: list[LevelSetupStats] = []
    n_levels = len(mats)
    auto_shift = config.shift_levid == "auto"
    shifted = False
    auto_shift_level: "int | None" = None
    scale = _scale_mode(config)
    for i, a_high in enumerate(mats):
        with _trace.span("level", level=i) as level_span:
            if auto_shift:
                storage_fmt = (
                    config.compute
                    if (shifted or i < config.fp16_start_level)
                    else config.storage
                )
            else:
                storage_fmt = config.storage_format_for_level(i)
            level = scale_and_truncate(
                a_high, storage_fmt, config.compute, scale, config.g_safety
            )
            counts = level.counts
            n_over, n_under = counts.n_overflow, counts.n_underflow
            tripped = False
            if (
                auto_shift and not shifted and storage_fmt is config.storage
                # trip the shift when the (scaled) values would flush to
                # zero in the storage format beyond tolerance — the
                # underflow hazard Section 4.3 introduces shift_levid for
                and counts.n_nonzero
                and n_under / counts.n_nonzero > _AUTO_SHIFT_UNDERFLOW_FRACTION
            ):
                shifted = True
                tripped = True
                auto_shift_level = i
                # audited against the nominal format, as before the shift
                level = scale_and_truncate(
                    a_high, config.compute, config.compute, scale,
                    config.g_safety, audit=storage_fmt, high=level.high,
                )
                counts = level.counts
            stored = level.stored

            if _metrics.active():
                # Exactly the LevelSetupStats numbers, as live counters —
                # traces and SetupDiagnostics must always agree.
                _metrics.incr("precision.overflow_clamp", n_over, level=i)
                _metrics.incr("precision.underflow_flush", n_under, level=i)
                _metrics.incr(
                    "precision.nonfinite", counts.n_nonfinite, level=i
                )
                _metrics.incr(
                    "precision.subnormal", counts.n_subnormal, level=i
                )
            level_span.set(
                storage=stored.storage.name,
                n_overflow=n_over,
                n_underflow=n_under,
                auto_shift_tripped=tripped,
            )

            with _trace.span("smoother_setup"):
                smoother = _make_level_smoother(
                    options, a_high, i == n_levels - 1
                )
                smoother.setup(level.scaled, stored)

            level_stats.append(
                LevelSetupStats(
                    index=i,
                    storage=stored.storage.name,
                    scaled=stored.is_scaled,
                    g=stored.scaling.g if stored.is_scaled else None,
                    n_values=counts.n_values,
                    n_nonzero=counts.n_nonzero,
                    n_overflow=n_over,
                    n_underflow=n_under,
                    n_nonfinite=counts.n_nonfinite,
                    auto_shift_tripped=tripped,
                )
            )
            level = Level(
                index=i,
                grid=a_high.grid,
                stored=stored,
                smoother=smoother,
                transfer=transfers[i] if i < len(transfers) else None,
                high=a_high if options.keep_high else None,
                nnz_actual=level.high.n_nonzero,
                nnz_stored=a_high.nnz_stored,
            )
            # kernel-plan construction is setup work: build (or fetch from
            # the structure cache) now so the first cycle's hot loop does
            # zero symbolic analysis
            with _trace.span("kernel_plan", level=i):
                level.plan
            levels.append(level)

    coarse_direct_fallback = options.coarse_solver == "direct" and not isinstance(
        levels[-1].smoother, CoarseDirectSolver
    )
    diagnostics = SetupDiagnostics(
        levels=tuple(level_stats),
        chain_truncated=chain_truncated,
        coarse_direct_fallback=coarse_direct_fallback,
        auto_shift_level=auto_shift_level,
    )
    setup_seconds = time.perf_counter() - t0
    return MGHierarchy(
        levels=levels,
        config=config,
        options=options,
        entry_scaling=entry_scaling,
        setup_seconds=setup_seconds,
        diagnostics=diagnostics,
    )
