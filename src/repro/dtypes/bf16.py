"""Software bfloat16: bit-exact conversions and rounded arithmetic.

BF16 is the top 16 bits of an IEEE-754 binary32.  Conversion from float32
uses round-to-nearest-even on the truncated 16 bits, which is what the
Grayskull's packer implements.  NaNs are quietened (the payload could
otherwise round to infinity).  That rule lives in one routine,
``_rne_words``; :func:`f32_to_bits` returns its upper halves as ``uint16``
bit patterns and :func:`bf16_round_f32` returns them as float32 values
with the low halves cleared.

Arithmetic helpers model the Tensix FPU contract used by the paper's
kernels: operands are **unpacked** from BF16 to the internal format,
computed at float32 precision, and the result is **packed** back to BF16
(one rounding per ``pack_tile``).  This matches tt-metal's
``add_tiles``/``mul_tiles`` + ``pack_tile`` sequence in Listing 2.

Host oracles that chain many such ops (the Jacobi, 5-point and 9-point
stencil references) stay in the float32 domain instead of round-tripping
through bit patterns: unpack once with :func:`bits_to_f32`, follow every
float32 op with :func:`bf16_round_f32`, and read the answer back with
:func:`bf16_high_bits`.  A value on the BF16 grid unpacks to exactly the
word that ``bf16_round_f32`` produces, so the chain is bit-identical to
packing after every op, and cells no op touched keep their input bits,
NaN payloads included.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "BF16_BYTES",
    "f32_to_bits",
    "bits_to_f32",
    "bf16_round",
    "bf16_round_f32",
    "bf16_high_bits",
    "bf16_add",
    "bf16_sub",
    "bf16_mul",
    "is_bf16_exact",
]

#: Storage size of one BF16 element in DRAM/SRAM.
BF16_BYTES = 2

# 0-d arrays rather than NumPy scalars: a ufunc takes an array operand
# with less per-call overhead, which matters on tile-sized inputs.
_SHIFT16 = np.array(16, dtype=np.uint32)
_ONE = np.array(1, dtype=np.uint32)
_RNE_BIAS = np.array(0x7FFF, dtype=np.uint32)
_SIGN32 = np.array(0x8000_0000, dtype=np.uint32)
_QUIET_NAN32 = np.array(0x7FC0_0000, dtype=np.uint32)
_HIGH16 = np.array(0xFFFF_0000, dtype=np.uint32)


def _rne_words(f32: np.ndarray) -> np.ndarray:
    """The BF16 rounding rule: fresh ``uint32`` words whose upper halves
    are the BF16 bits of the float32 array ``f32`` (``ndim >= 1``).

    Rounds to nearest, ties to even, by adding ``0x7FFF`` plus the LSB of
    the retained half (``uint32`` arithmetic wraps, so the in-place order
    is immaterial).  The low halves of the result are junk.
    """
    u32 = f32.view(np.uint32)
    words = u32 >> _SHIFT16
    words &= _ONE
    words += _RNE_BIAS
    words += u32
    # NaN inputs: the bias may carry into the exponent; force a quiet NaN
    # with the sign preserved instead.
    is_nan = np.isnan(f32)
    if np.count_nonzero(is_nan):
        words = np.where(is_nan, (u32 & _SIGN32) | _QUIET_NAN32, words)
    return words


def f32_to_bits(x: np.ndarray | float,
                out: np.ndarray | None = None) -> np.ndarray:
    """Convert float32 values to BF16 bit patterns (``uint16``).

    Rounds to nearest, ties to even, exactly as hardware truncation with a
    rounding bias does.  Input is converted to ``float32`` first (so Python
    floats and float64 arrays are accepted); output has the same shape and
    is C-contiguous.

    ``out``, a ``uint16`` array of the same size, receives the bits in
    its own shape and is returned — how ``pack_tile`` writes straight
    into a CB page without an intermediate array.
    """
    arr = np.asarray(x, dtype=np.float32)
    # ascontiguousarray lifts a 0-d input to shape (1,), so the ufuncs
    # in _rne_words return arrays rather than NumPy scalars
    words = _rne_words(np.ascontiguousarray(arr))
    if out is not None:
        if out.size != words.size or out.dtype != np.uint16:
            raise ValueError(
                f"out must be uint16 with {words.size} elements, got "
                f"{out.dtype} with {out.size}")
        words >>= _SHIFT16
        out[...] = words if words.shape == out.shape \
            else words.reshape(out.shape)
        return out
    words >>= _SHIFT16
    bits = words.astype(np.uint16)
    return bits if arr.ndim else bits.reshape(())


def bf16_round_f32(f32: np.ndarray) -> np.ndarray:
    """Round a float32 array (``ndim >= 1``) to BF16, staying in float32.

    The result is a fresh array whose words are the BF16 bits followed by
    sixteen zero bits: the value :func:`bits_to_f32` would unpack from
    ``f32_to_bits(f32)``.

    Operand layout matters to a chain that must match :func:`bf16_add`
    and friends bit for bit.  IEEE 754 leaves open which NaN an op on two
    NaNs returns, and NumPy's SIMD loops pick by lane position (the tail
    of a contiguous run takes the other operand), so chains feed every
    op C-contiguous operands of the result's shape, as the bit-pattern
    helpers do.
    """
    words = _rne_words(f32)
    words &= _HIGH16
    return words.view(np.float32)


def bf16_high_bits(f32: np.ndarray) -> np.ndarray:
    """BF16 bit patterns of float32 values already on the BF16 grid.

    Takes the upper half of every word without rounding, so the output of
    :func:`bf16_round_f32`, or an unpacked input cell, converts back
    exactly, NaN payload included.
    """
    return (np.asarray(f32, dtype=np.float32).view(np.uint32)
            >> _SHIFT16).astype(np.uint16)


def bits_to_f32(bits: np.ndarray) -> np.ndarray:
    """Expand BF16 bit patterns (``uint16``) to exact float32 values."""
    b = np.asarray(bits)
    if b.dtype != np.uint16:
        raise TypeError(f"BF16 bit patterns must be uint16, got {b.dtype}")
    return (b.astype(np.uint32) << _SHIFT16).view(np.float32)


def bf16_round(x: np.ndarray | float) -> np.ndarray:
    """Round float values to the nearest representable BF16, as float32."""
    return bits_to_f32(f32_to_bits(x))


def is_bf16_exact(x: np.ndarray | float) -> bool:
    """Whether every value is exactly representable in BF16."""
    f32 = np.asarray(x, dtype=np.float32)
    r = bf16_round(f32)
    return bool(np.array_equal(r, f32, equal_nan=True))


def _binary_op(a: np.ndarray, b: np.ndarray, op) -> np.ndarray:
    """unpack → float32 compute → pack; operands are BF16 bit patterns.

    Overflow to ±inf and inf−inf → NaN are the hardware's IEEE semantics,
    not errors, so NumPy's warnings are suppressed here.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return f32_to_bits(op(bits_to_f32(a), bits_to_f32(b)))


def bf16_add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise BF16 add on bit patterns (one output rounding)."""
    return _binary_op(a, b, np.add)


def bf16_sub(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise BF16 subtract on bit patterns."""
    return _binary_op(a, b, np.subtract)


def bf16_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise BF16 multiply on bit patterns."""
    return _binary_op(a, b, np.multiply)
