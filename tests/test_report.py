"""The shared 16-hex-digit digest."""

import hashlib

import numpy as np

from repro import ops
from repro.report import sha16


def test_str_bytes_and_array_digest_their_bytes():
    assert sha16("abc") == sha16(b"abc") == hashlib.sha256(
        b"abc").hexdigest()[:16]
    a = np.arange(12, dtype=np.uint16).reshape(3, 4)
    assert sha16(a) == sha16(a.tobytes())
    assert sha16(a[:, ::2]) == sha16(np.ascontiguousarray(a[:, ::2]))


def test_ops_reexports_the_same_function():
    assert ops.sha16 is sha16
