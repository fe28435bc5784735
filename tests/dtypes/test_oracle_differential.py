"""Differential suite: the float32-domain BF16 oracles against the
bits-domain chains they replaced, byte for byte.

The references below are the earlier implementations kept verbatim:
every op unpacks its BF16 operands, computes in float32 and packs the
result with ``f32_to_bits`` (itself held to the original conversion by
``test_bf16.py::TestDifferential``), and the FFT mirror runs one Python
iteration per butterfly.  The oracles under test unpack once, round
with ``bf16_round_f32`` after every op, read the answer back from the
high halves of the words and run a whole FFT stage at once.

Inputs are raw ``uint16`` grids over all 65,536 bit patterns (every NaN
payload, ±inf, subnormals, sums and products that overflow), so a
conversion back through ``f32_to_bits``, which would canonicalise the
NaN payloads of untouched cells, cannot pass.
"""

from typing import Optional

import numpy as np
import pytest

from repro.core.stencil import (
    CB_C,
    CB_E,
    CB_N,
    CB_S,
    CB_W,
    StencilSpec,
    stencil_solve_bf16,
    stencil_step_bf16,
)
from repro.cpu.jacobi import jacobi_solve_bf16, jacobi_step_bf16
from repro.dtypes.bf16 import (
    bf16_add,
    bf16_high_bits,
    bf16_mul,
    bf16_round_f32,
    bits_to_f32,
    f32_to_bits,
)
from repro.ops.fft import FftProblem, fft_reference_bits, twiddle_tables
from repro.ops.stencil9 import AXIAL_W, DIAG_W, stencil9_reference_bits

# -- verbatim bits-domain references ---------------------------------------


def _check_halo(grid: np.ndarray) -> None:
    if grid.ndim != 2 or grid.shape[0] < 3 or grid.shape[1] < 3:
        raise ValueError(
            f"expected a halo grid of at least (3,3), got {grid.shape}")


def reference_jacobi_step_bf16(bits: np.ndarray) -> np.ndarray:
    _check_halo(bits)
    b = np.asarray(bits, dtype=np.uint16)
    west, east = b[1:-1, :-2], b[1:-1, 2:]
    north, south = b[:-2, 1:-1], b[2:, 1:-1]
    quarter = f32_to_bits(np.float32(0.25))
    t = bf16_add(west, east)
    t = bf16_add(north, t)          # Listing 2: add_tiles(cb_in2, intermediate)
    t = bf16_add(south, t)
    t = bf16_mul(np.broadcast_to(quarter, t.shape), t)
    out = b.copy()
    out[1:-1, 1:-1] = t
    return out


def reference_jacobi_solve_bf16(bits0: np.ndarray,
                                iterations: int) -> np.ndarray:
    if iterations < 0:
        raise ValueError("iterations must be non-negative")
    b = np.asarray(bits0, dtype=np.uint16).copy()
    for _ in range(iterations):
        b = reference_jacobi_step_bf16(b)
    return b


def reference_stencil9_bits(halo_bits: np.ndarray, iters: int) -> np.ndarray:
    g = np.asarray(halo_bits, dtype=np.uint16).copy()
    c1 = np.uint16(f32_to_bits(np.float32(AXIAL_W)))
    c2 = np.uint16(f32_to_bits(np.float32(DIAG_W)))
    for _ in range(iters):
        w, e = g[1:-1, :-2], g[1:-1, 2:]
        n, s = g[:-2, 1:-1], g[2:, 1:-1]
        nw, ne = g[:-2, :-2], g[:-2, 2:]
        sw, se = g[2:, :-2], g[2:, 2:]
        ax = bf16_add(bf16_add(bf16_add(w, e), n), s)
        dg = bf16_add(bf16_add(bf16_add(nw, ne), sw), se)
        g[1:-1, 1:-1] = bf16_add(bf16_mul(ax, c1), bf16_mul(dg, c2))
    return g


def reference_stencil_step_bf16(bits: np.ndarray, spec: StencilSpec,
                                rhs_bits: Optional[np.ndarray] = None
                                ) -> np.ndarray:
    b = np.asarray(bits, dtype=np.uint16)
    windows = {
        CB_C: b[1:-1, 1:-1], CB_W: b[1:-1, :-2], CB_E: b[1:-1, 2:],
        CB_N: b[:-2, 1:-1], CB_S: b[2:, 1:-1],
    }
    acc = None
    for cb, name, _off, _row in spec.active_terms():
        coef = np.broadcast_to(f32_to_bits(np.float32(getattr(spec, name))),
                               windows[cb].shape)
        term = bf16_mul(coef, windows[cb])
        acc = term if acc is None else bf16_add(term, acc)
    if rhs_bits is not None:
        r = np.asarray(rhs_bits, dtype=np.uint16)
        if r.shape != windows[CB_C].shape:
            raise ValueError(
                f"rhs must be the interior shape {windows[CB_C].shape}, "
                f"got {r.shape}")
        acc = r.copy() if acc is None else bf16_add(r, acc)
    out = b.copy()
    out[1:-1, 1:-1] = acc if acc is not None else 0
    return out


def reference_stencil_solve_bf16(bits: np.ndarray, spec: StencilSpec,
                                 iterations: int,
                                 rhs_bits: Optional[np.ndarray] = None
                                 ) -> np.ndarray:
    if iterations < 0:
        raise ValueError("iterations must be non-negative")
    b = np.asarray(bits, dtype=np.uint16).copy()
    for _ in range(iterations):
        b = reference_stencil_step_bf16(b, spec, rhs_bits)
    return b


def reference_bit_reverse_indices(n: int) -> np.ndarray:
    bits = int(np.log2(n))
    idx = np.arange(n)
    rev = np.zeros(n, dtype=np.int64)
    for _ in range(bits):
        rev = (rev << 1) | (idx & 1)
        idx >>= 1
    return rev


def reference_fft_bits(x: np.ndarray) -> np.ndarray:
    n = x.shape[0]
    rev = reference_bit_reverse_indices(n)
    xr = np.ascontiguousarray(x.real, dtype=np.float32)[rev].copy()
    xi = np.ascontiguousarray(x.imag, dtype=np.float32)[rev].copy()
    twr, twi = twiddle_tables(n)
    m = 2
    while m <= n:
        half, step = m // 2, n // m
        for base in range(0, n, m):
            for j in range(half):
                wr, wi = twr[j * step], twi[j * step]
                i1, i2 = base + j, base + j + half
                p1 = (wr * xr[i2]).astype(np.float32)
                p2 = (wi * xi[i2]).astype(np.float32)
                tr = (p1 - p2).astype(np.float32)
                q1 = (wr * xi[i2]).astype(np.float32)
                q2 = (wi * xr[i2]).astype(np.float32)
                ti = (q1 + q2).astype(np.float32)
                yr2 = (xr[i1] - tr).astype(np.float32)
                yr1 = (xr[i1] + tr).astype(np.float32)
                yi2 = (xi[i1] - ti).astype(np.float32)
                yi1 = (xi[i1] + ti).astype(np.float32)
                xr[i2], xr[i1] = yr2, yr1
                xi[i2], xi[i1] = yi2, yi1
        m *= 2
    return (xr + 1j * xi).astype(np.complex64)


# -- inputs ----------------------------------------------------------------

#: interior widths below, at and above one 16-lane SIMD vector, and
#: interiors whose element count is not a multiple of 16
SHAPES = [(3, 3), (3, 9), (7, 3), (5, 6), (4, 21), (9, 40), (18, 34),
          (33, 17), (31, 35), (66, 130), (130, 66)]
ITERATIONS = range(6)

#: every BF16 pattern at least once: eight 130 x 66 grids hold 68,640
#: cells, filled with a seeded permutation of all 65,536 patterns
ALL_PATTERN_GRIDS = 8


def _all_pattern_grids() -> list:
    rng = np.random.default_rng(2024)
    cells = 130 * 66 * ALL_PATTERN_GRIDS
    patterns = rng.permutation(1 << 16).astype(np.uint16)
    flat = np.concatenate([patterns,
                           rng.integers(0, 1 << 16, cells - patterns.size,
                                        dtype=np.uint16)])
    return list(flat.reshape(ALL_PATTERN_GRIDS, 130, 66))


def _grids(shape, seed):
    """A raw-pattern grid, a finite grid sprinkled with specials and a
    grid that is half NaN.

    Uniform patterns hit NaN or inf in a few sweeps, so the second grid
    keeps most cells in [-4, 4) and plants NaN payloads, ±inf, values
    near the BF16 maximum (sums overflow) and subnormals.  In the third,
    ops on two NaNs of opposite sign are common, which pins which
    operand's NaN each op returns.
    """
    rng = np.random.default_rng(seed)
    raw = rng.integers(0, 1 << 16, shape, dtype=np.uint16)
    mild = f32_to_bits(rng.uniform(-4, 4, shape).astype(np.float32))
    specials = np.array([0x7F81, 0xFFC1, 0x7FFF, 0x7FC0, 0x7F80, 0xFF80,
                         0x7F7F, 0xFF7F, 0x0001, 0x8001, 0x007F, 0x8000],
                        dtype=np.uint16)
    where = rng.random(shape) < 0.05
    mild[where] = rng.choice(specials, int(where.sum()))
    nans = f32_to_bits(rng.uniform(-4, 4, shape).astype(np.float32))
    where = rng.random(shape) < 0.5
    nans[where] = (rng.integers(0, 2, int(where.sum()), dtype=np.uint16) << 15
                   | 0x7F80 | rng.integers(1, 0x80, int(where.sum()),
                                           dtype=np.uint16))
    return raw, mild, nans


def _cases():
    for k, shape in enumerate(SHAPES):
        for name, grid in zip(("raw", "mild", "nans"), _grids(shape, k)):
            yield pytest.param(grid, id=f"{shape[0]}x{shape[1]}-{name}")
    for k, grid in enumerate(_all_pattern_grids()):
        yield pytest.param(grid, id=f"all-patterns-{k}")


CASES = list(_cases())

#: Spec coefficients: the library stencils plus one whose products
#: overflow (3e38 x anything > 1) and underflow to subnormals.
SPECS = {
    "jacobi": StencilSpec.jacobi(),
    "diffusion": StencilSpec.diffusion(0.2),
    "upwind": StencilSpec.advection_upwind(0.3, 0.5),
    "extreme": StencilSpec(center=3e38, west=-1e-38, east=7.5,
                           north=-2.0 ** -120, south=-3e38),
}


def _assert_bytes_equal(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype and got.shape == want.shape
    diff = np.flatnonzero(got.view(np.uint8).ravel()
                          != want.view(np.uint8).ravel())
    assert diff.size == 0, f"{diff.size} bytes differ, first at {diff[:4]}"


# -- the suites --------------------------------------------------------------


class TestRoundingCore:
    def test_round_f32_matches_unpacked_f32_to_bits(self):
        """All 2^16 upper halves times the rounding-boundary low halves."""
        upper = np.arange(1 << 16, dtype=np.uint32) << np.uint32(16)
        low = np.array([0x0000, 0x0001, 0x7FFF, 0x8000, 0x8001, 0xFFFF],
                       dtype=np.uint32)
        x = (upper[:, None] | low[None, :]).view(np.float32)
        got = bf16_round_f32(x)
        _assert_bytes_equal(got, bits_to_f32(f32_to_bits(x)))
        _assert_bytes_equal(bf16_high_bits(got), f32_to_bits(x))

    def test_high_bits_invert_unpack_exactly(self):
        patterns = np.arange(1 << 16, dtype=np.uint32).astype(np.uint16)
        _assert_bytes_equal(bf16_high_bits(bits_to_f32(patterns)), patterns)

    def test_round_f32_returns_a_fresh_array(self):
        x = np.linspace(-2, 2, 9, dtype=np.float32)
        before = x.copy()
        out = bf16_round_f32(x)
        assert not np.shares_memory(out, x)
        _assert_bytes_equal(x, before)


@pytest.mark.parametrize("grid", CASES)
class TestGridOracles:
    def test_jacobi(self, grid):
        before = grid.copy()
        for iterations in ITERATIONS:
            _assert_bytes_equal(jacobi_solve_bf16(grid, iterations),
                                reference_jacobi_solve_bf16(grid, iterations))
        _assert_bytes_equal(jacobi_step_bf16(grid),
                            reference_jacobi_step_bf16(grid))
        _assert_bytes_equal(grid, before)

    def test_stencil9(self, grid):
        before = grid.copy()
        for iterations in ITERATIONS:
            _assert_bytes_equal(stencil9_reference_bits(grid, iterations),
                                reference_stencil9_bits(grid, iterations))
        _assert_bytes_equal(grid, before)

    @pytest.mark.parametrize("spec", SPECS.values(), ids=list(SPECS))
    def test_stencil(self, grid, spec):
        for iterations in (0, 1, 3):
            _assert_bytes_equal(
                stencil_solve_bf16(grid, spec, iterations),
                reference_stencil_solve_bf16(grid, spec, iterations))

    @pytest.mark.parametrize("spec", [SPECS["diffusion"], SPECS["extreme"],
                                      None], ids=["diffusion", "extreme",
                                                  "rhs-only"])
    def test_stencil_with_rhs(self, grid, spec):
        rng = np.random.default_rng(grid.size)
        rhs = rng.integers(0, 1 << 16, (grid.shape[0] - 2, grid.shape[1] - 2),
                           dtype=np.uint16)
        if spec is None:
            spec = StencilSpec(center=0, west=0, east=0, north=0, south=0)
        _assert_bytes_equal(stencil_step_bf16(grid, spec, rhs),
                            reference_stencil_step_bf16(grid, spec, rhs))
        _assert_bytes_equal(
            stencil_solve_bf16(grid, spec, 2, rhs),
            reference_stencil_solve_bf16(grid, spec, 2, rhs))


def _fft_input(n: int, batch: int, seed: int, kind: str) -> np.ndarray:
    """Uniform [-1, 1) pencils with special values planted in both planes.

    ``inf``: ±inf, values near the float32 maximum (sums overflow),
    subnormals and -0; the only NaNs are the ones inf - inf and 0 * inf
    make, which all carry the same default payload.  ``nan``: one NaN
    per pencil, of any payload and sign, and no inf, so every NaN of a
    pencil descends from that one.  ``mixed``: all of them, anywhere.
    """
    rng = np.random.default_rng(seed)
    planes = rng.uniform(-1, 1, (2, n, batch)).astype(np.float32)
    nonnan = np.array([0x7F800000, 0xFF800000, 0x7F7FFFFF, 0xFF7FFFFF,
                       0x00000001, 0x80400000, 0x80000000], dtype=np.uint32)
    nans = np.array([0x7FC00000, 0xFFC00000, 0x7F800001, 0xFFA00005,
                     0x7FFFFFFF], dtype=np.uint32)
    if kind == "nan":
        cols = np.arange(batch)
        planes[rng.integers(0, 2, batch), rng.integers(0, n, batch),
               cols] = rng.choice(nans, batch).view(np.float32)
    else:
        specials = nonnan if kind == "inf" else np.concatenate([nonnan, nans])
        where = rng.random(planes.shape) < 0.02
        planes[where] = rng.choice(specials, int(where.sum())).view(np.float32)
        planes.flat[rng.integers(planes.size)] = np.inf
    x = np.empty((n, batch), dtype=np.complex64)
    x.real, x.imag = planes[0], planes[1]
    return x


def _assert_same_or_both_nan(got: np.ndarray, want: np.ndarray) -> None:
    """Bytes equal except where both sides are NaN.

    IEEE 754 leaves open which NaN an op on two NaNs returns, and
    NumPy's SIMD loops pick by lane position, so the payload that
    survives a collision of two different NaNs depends on how the
    arrays are laid out; a stage-wide op cannot lay them out like one
    butterfly's row.
    """
    g, w = got.view(np.float32), want.view(np.float32)
    both_nan = np.isnan(g) & np.isnan(w)
    _assert_bytes_equal(np.where(both_nan, 0, g), np.where(both_nan, 0, w))
    assert np.array_equal(np.isnan(g), np.isnan(w))


FFT_LENGTHS = [2 ** k for k in range(1, 11)]
FFT_BATCHES = [1, 3, 16, 17]


def _both_mirrors(x: np.ndarray):
    """(stage-vectorised, per-butterfly) mirrors; special inputs make
    NumPy warn about the overflows and invalid ops the FPU performs."""
    with np.errstate(all="ignore"):
        return fft_reference_bits(x), reference_fft_bits(x)


class TestFftMirror:
    @pytest.mark.parametrize("kind", ["inf", "nan"])
    @pytest.mark.parametrize("batch", FFT_BATCHES)
    @pytest.mark.parametrize("n", FFT_LENGTHS)
    def test_stage_vectorised_matches_per_butterfly(self, n, batch, kind):
        x = _fft_input(n, batch, seed=n * 31 + batch, kind=kind)
        assert not np.isfinite(x).all()
        _assert_bytes_equal(*_both_mirrors(x))

    @pytest.mark.parametrize("batch", FFT_BATCHES)
    @pytest.mark.parametrize("n", FFT_LENGTHS)
    def test_colliding_nans(self, n, batch):
        x = _fft_input(n, batch, seed=n * 37 + batch, kind="mixed")
        _assert_same_or_both_nan(*_both_mirrors(x))

    @pytest.mark.parametrize("n", [2, 64, 512])
    def test_raw_float32_patterns(self, n):
        rng = np.random.default_rng(n)
        words = rng.integers(0, 1 << 32, (2, n, 3), dtype=np.uint64)
        planes = words.astype(np.uint32).view(np.float32)
        x = np.empty((n, 3), dtype=np.complex64)
        x.real, x.imag = planes[0], planes[1]
        _assert_same_or_both_nan(*_both_mirrors(x))

    def test_finite_inputs(self):
        x = FftProblem(n=256, batch=16, seed=3).inputs()
        _assert_bytes_equal(fft_reference_bits(x), reference_fft_bits(x))

    def test_single_pencil_1d(self):
        x = _fft_input(32, 1, seed=5, kind="nan")[:, 0]
        _assert_bytes_equal(*_both_mirrors(x))
