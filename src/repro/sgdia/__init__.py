"""SG-DIA structured matrix storage (SOA/AOS layouts, mixed precision)."""

from .io import (
    load_sgdia,
    load_stored,
    save_sgdia,
    save_stored,
    stored_from_npz,
    stored_to_arrays,
    write_matrix_market,
)
from .matrix import SGDIAMatrix, offset_slices
from .mixed import StoredMatrix

__all__ = [
    "SGDIAMatrix",
    "StoredMatrix",
    "load_sgdia",
    "load_stored",
    "offset_slices",
    "save_sgdia",
    "save_stored",
    "stored_from_npz",
    "stored_to_arrays",
    "write_matrix_market",
]
