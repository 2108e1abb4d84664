"""Precision formats, configurations, and overflow-safe scaling.

This package is the numerical foundation of the reproduction: it defines the
FP64/FP32/FP16 (and emulated BF16) formats, the K/P/D precision-role
configuration of Section 4, and the Theorem-4.1 diagonal scaling that makes
FP16 truncation overflow-safe.
"""

from .config import (
    FIG6_CONFIGS,
    FULL64,
    K64P32D16_NONE,
    K64P32D16_SCALE_SETUP,
    K64P32D16_SETUP_SCALE,
    K64P32D32,
    PrecisionConfig,
    parse_config,
)
from .scaling import DiagonalScaling, choose_g, gmax_from_ratio, max_scaled_ratio
from .squeeze import equilibration_scaling_vectors, symmetric_equilibrate
from .types import (
    BF16,
    FP16,
    FP32,
    FP64,
    FORMATS,
    FloatFormat,
    RangeCounts,
    finite_abs_range,
    fp16_distance,
    get_format,
    range_counts,
    round_to_bf16,
    truncate,
)

__all__ = [
    "BF16",
    "FP16",
    "FP32",
    "FP64",
    "FORMATS",
    "FIG6_CONFIGS",
    "FULL64",
    "K64P32D16_NONE",
    "K64P32D16_SCALE_SETUP",
    "K64P32D16_SETUP_SCALE",
    "K64P32D32",
    "DiagonalScaling",
    "FloatFormat",
    "PrecisionConfig",
    "RangeCounts",
    "choose_g",
    "equilibration_scaling_vectors",
    "finite_abs_range",
    "fp16_distance",
    "get_format",
    "range_counts",
    "gmax_from_ratio",
    "max_scaled_ratio",
    "parse_config",
    "round_to_bf16",
    "symmetric_equilibrate",
    "truncate",
]
