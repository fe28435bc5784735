"""Short content digests for reports, baselines and witnesses.

A leaf module (``hashlib`` and NumPy only) so every layer can stamp its
output with the same 16-hex-digit digest without importing the layer
that produced it.
"""

from __future__ import annotations

import hashlib
from typing import Union

import numpy as np

__all__ = ["sha16"]


def sha16(data: Union[np.ndarray, str, bytes]) -> str:
    """First 16 hex chars of the SHA-256 of ``data``.

    An array is hashed by its C-order bytes (so a strided view digests
    like its contiguous copy), a string by its UTF-8 encoding.
    """
    if isinstance(data, str):
        data = data.encode()
    elif not isinstance(data, bytes):
        data = np.ascontiguousarray(data).tobytes()
    return hashlib.sha256(data).hexdigest()[:16]
