"""Circular buffer tests: FIFO protocol, blocking, rd-ptr aliasing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.cb import CBError, CircularBuffer
from repro.arch.sram import Sram
from repro.sim import Simulator


@pytest.fixture
def cb(sim):
    sram = Sram(1 << 18)
    return CircularBuffer(sim, sram, 0, page_size=64, n_pages=4)


def run_proc(sim, gen):
    return sim.run(until=sim.process(gen))


class TestProtocol:
    def test_initial_state(self, cb):
        assert cb.pages_free == 4
        assert cb.pages_committed == 0

    def test_reserve_push_wait_pop(self, sim, cb):
        def proc():
            yield cb.reserve_back(1)
            cb.push_back(1)
            yield cb.wait_front(1)
            cb.pop_front(1)
            return (cb.pages_free, cb.pages_committed)
        assert run_proc(sim, proc()) == (4, 0)

    def test_push_without_reserve_rejected(self, cb):
        with pytest.raises(CBError, match="without matching reserve"):
            cb.push_back(1)

    def test_pop_without_commit_rejected(self, cb):
        with pytest.raises(CBError, match="exceeds committed"):
            cb.pop_front(1)

    def test_reserve_more_than_capacity_rejected(self, sim, cb):
        with pytest.raises(CBError):
            cb.reserve_back(5)

    def test_reserve_blocks_when_full(self, sim, cb):
        t_reserved = []

        def producer():
            for _ in range(5):  # 5 pages through a 4-page CB
                yield cb.reserve_back(1)
                cb.push_back(1)
            t_reserved.append(sim.now)

        def consumer():
            yield sim.timeout(10)
            yield cb.wait_front(1)
            cb.pop_front(1)
        sim.process(producer())
        sim.process(consumer())
        sim.run()
        assert t_reserved == [pytest.approx(10.0)]

    def test_wait_blocks_until_push(self, sim, cb):
        def consumer():
            yield cb.wait_front(2)
            return sim.now

        def producer():
            yield cb.reserve_back(2)
            yield sim.timeout(7)
            cb.push_back(2)
        c = sim.process(consumer())
        sim.process(producer())
        assert sim.run(until=c) == pytest.approx(7.0)

    def test_data_flows_through_pages(self, sim, cb):
        def producer():
            for i in range(8):  # wraps the 4-page ring twice
                yield cb.reserve_back(1)
                cb.back_page()[:] = i
                cb.push_back(1)

        def consumer():
            seen = []
            for _ in range(8):
                yield cb.wait_front(1)
                seen.append(int(cb.front_page()[0]))
                cb.pop_front(1)
            return seen
        sim.process(producer())
        c = sim.process(consumer())
        assert sim.run(until=c) == list(range(8))

    def test_write_ptr_requires_reservation(self, cb):
        with pytest.raises(CBError):
            cb.get_write_ptr()

    def test_read_ptr_requires_commit(self, cb):
        with pytest.raises(CBError):
            cb.get_read_ptr()

    def test_pointers_wrap(self, sim, cb):
        ptrs = []

        def proc():
            for _ in range(5):
                yield cb.reserve_back(1)
                ptrs.append(cb.get_write_ptr())
                cb.push_back(1)
                yield cb.wait_front(1)
                cb.pop_front(1)
        run_proc(sim, proc())
        assert ptrs[4] == ptrs[0]  # wrapped after n_pages
        assert len(set(ptrs[:4])) == 4


class TestRdPtrAlias:
    def test_alias_redirects_read(self, sim, cb):
        sram = cb.sram
        scratch = sram.allocate(64, align=32)
        sram.view_u16(scratch, 32)[:] = 0xBEEF

        def proc():
            yield cb.reserve_back(1)
            cb.back_page()[:] = 0x1111
            cb.push_back(1)
            yield cb.wait_front(1)
            cb.set_rd_ptr(scratch)
            vals = cb.front_page().copy()
            cb.pop_front(1)
            return vals
        vals = run_proc(sim, proc())
        assert np.all(vals == 0xBEEF)

    def test_alias_cleared_by_pop(self, sim, cb):
        sram = cb.sram
        scratch = sram.allocate(64, align=32)

        def proc():
            yield cb.reserve_back(2)
            cb.back_page(0)[:] = 1
            cb.back_page(1)[:] = 2
            cb.push_back(2)
            yield cb.wait_front(1)
            cb.set_rd_ptr(scratch)
            cb.pop_front(1)
            # next page must read from the CB's own storage again
            yield cb.wait_front(1)
            val = int(cb.front_page()[0])
            cb.pop_front(1)
            return val
        assert run_proc(sim, proc()) == 2

    def test_alias_bounds_checked(self, cb):
        with pytest.raises(CBError):
            cb.set_rd_ptr(cb.sram.capacity)

    def test_alias_requires_even_address(self, cb):
        with pytest.raises(CBError, match="2-byte"):
            cb.set_rd_ptr(33)

    @pytest.mark.parametrize("setter", ["set_rd_ptr", "set_wr_ptr"])
    def test_fp32_alias_requires_word_alignment(self, sim, setter):
        """A 2-byte-aligned alias is refused on an FP32 CB when it is set,
        naming the CB and its element width — not at the first unpack."""
        cb = CircularBuffer(sim, Sram(1 << 18), 3, page_size=64, n_pages=1,
                            dtype="fp32", name="fp32_in")
        scratch = cb.sram.allocate(256, align=32)
        with pytest.raises(CBError, match=r"fp32_in: .*4-byte aligned .*fp32"):
            getattr(cb, setter)(scratch + 2)
        getattr(cb, setter)(scratch + 4)   # word-aligned is fine

    @pytest.mark.parametrize("dtype", ["bf16", "fp32"])
    def test_alias_page_past_l1_raises_index_error(self, sim, dtype):
        """The alias itself fits, but a later page of it runs off L1."""
        sram = Sram(1 << 18)
        cb = CircularBuffer(sim, sram, 0, page_size=64, n_pages=2,
                            dtype=dtype)
        last = sram.capacity - 64
        cb.set_rd_ptr(last)
        cb.set_wr_ptr(last)
        assert cb.front_page(0).nbytes == cb.back_page(0).nbytes == 64
        with pytest.raises(IndexError, match="outside"):
            cb.front_page(1)
        with pytest.raises(IndexError, match="outside"):
            cb.back_page(1)

    @pytest.mark.parametrize("dtype", ["bf16", "fp32"])
    def test_pages_are_word_slices_of_l1(self, sim, dtype):
        """Own and aliased pages of both widths view the same L1 bytes."""
        sram = Sram(1 << 18)
        cb = CircularBuffer(sim, sram, 0, page_size=64, n_pages=2,
                            dtype=dtype)
        want = np.uint16 if dtype == "bf16" else np.float32
        assert cb.try_reserve(1)
        page = cb.back_page(0)
        assert page.dtype == want and page.size == 64 // page.itemsize
        page[:] = np.arange(page.size)
        assert sram.view(cb.base, 64).tobytes() == page.tobytes()
        cb.push_back(1)
        assert np.shares_memory(cb.front_page(0), page)
        scratch = sram.allocate(128, align=32)
        cb.set_rd_ptr(scratch + 64)
        alias = cb.front_page(0)
        assert alias.dtype == want
        assert np.shares_memory(alias, sram.view(scratch + 64, 64))

    def test_page_views_are_kept_per_address_and_bounded(self, sim,
                                                         monkeypatch):
        """A page is sliced once per L1 address; a sweep of more distinct
        aliases than the memo keeps the first ones and slices the rest
        afresh, views still right."""
        import repro.arch.cb as cb_mod
        monkeypatch.setattr(cb_mod, "MAX_PAGE_VIEWS", 8)
        sram = Sram(1 << 18)
        cb = CircularBuffer(sim, sram, 0, page_size=8, n_pages=1,
                            dtype="fp32")
        slab = sram.allocate(8 * 20, align=32)
        sram.view_u32(slab, 40)[:] = np.arange(40, dtype=np.uint32)
        for k in range(20):
            cb.set_rd_ptr(slab + 8 * k)
            page = cb.front_page()
            assert (page is cb.front_page()) == (k < 8)
            assert page.view(np.uint32).tolist() == [2 * k, 2 * k + 1]
            assert len(cb._pages) == min(k + 1, 8)
            cb.set_wr_ptr(slab + 8 * k)
            cb.back_page()[:] = np.float32(k)
            assert sram.view_u32(slab + 8 * k, 2).view(
                np.float32).tolist() == [k, k]

    def test_read_ptr_honours_alias(self, sim, cb):
        scratch = cb.sram.allocate(64, align=32)

        def proc():
            yield cb.reserve_back(1)
            cb.push_back(1)
            yield cb.wait_front(1)
            cb.set_rd_ptr(scratch)
            return cb.get_read_ptr()
        assert run_proc(sim, proc()) == scratch


class TestInvariants:
    def test_committed_plus_free_bounded(self, sim, cb):
        def proc():
            yield cb.reserve_back(3)
            cb.push_back(2)
            assert cb.pages_committed == 2
            assert cb.pages_free == 1
            assert cb.pages_committed + cb.pages_free <= cb.n_pages
        run_proc(sim, proc())

    def test_bad_construction(self, sim):
        sram = Sram(1 << 17)
        with pytest.raises(ValueError):
            CircularBuffer(sim, sram, 0, page_size=0, n_pages=4)
        with pytest.raises(ValueError):
            CircularBuffer(sim, sram, 0, page_size=64, n_pages=0)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 3), min_size=1, max_size=25),
       st.integers(2, 6))
def test_cb_fifo_property(batches, n_pages):
    """Data emerges in exactly the order it was pushed, whatever the
    batch structure, and page accounting never goes out of bounds."""
    sim = Simulator()
    sram = Sram(1 << 18)
    cb = CircularBuffer(sim, sram, 0, page_size=8, n_pages=n_pages)
    batches = [min(b, n_pages) for b in batches]
    total = sum(batches)
    seen = []

    def producer():
        k = 0
        for b in batches:
            yield cb.reserve_back(b)
            for i in range(b):
                cb.back_page(i)[:] = k
                k += 1
            cb.push_back(b)
            assert 0 <= cb.pages_free <= n_pages
            assert 0 <= cb.pages_committed <= n_pages

    def consumer():
        for _ in range(total):
            yield cb.wait_front(1)
            seen.append(int(cb.front_page()[0]))
            cb.pop_front(1)
    sim.process(producer())
    c = sim.process(consumer())
    sim.run(until=c)
    assert seen == list(range(total))
