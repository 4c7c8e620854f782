"""Tests for the SQ/CQ I/O scheduler: coalescing, queue depth, faults."""

import pytest

from repro import obs
from repro.io import IoScheduler
from repro.sim.cost import SYSCALL_NS, CostModel, CostParams
from repro.storage.device import SimulatedNVMe
from repro.storage.faults import FaultPlan, FaultyNVMe, RetryPolicy

PAGE = 4096


def make_sched(queue_depth=32, max_merge_pages=64, capacity_pages=512):
    model = CostModel()
    device = SimulatedNVMe(model, capacity_pages=capacity_pages)
    return IoScheduler(device, model, queue_depth=queue_depth,
                       max_merge_pages=max_merge_pages), device, model


def fill(device, pid, npages, byte):
    device.write(pid, bytes([byte]) * npages * PAGE, background=True)


class TestCoalescing:
    def test_adjacent_reads_merge_into_one_command(self):
        sched, device, _ = make_sched()
        fill(device, 8, 4, 0xAA)
        before = device.stats.read_requests
        t1 = sched.submit_read(8, 2)
        t2 = sched.submit_read(10, 2)
        sched.drain()
        assert device.stats.read_requests - before == 1
        assert sched.stats.requests_in == 2
        assert sched.stats.requests_out == 1
        assert sched.stats.coalesced == 1
        assert t1.result == b"\xaa" * 2 * PAGE
        assert t2.result == b"\xaa" * 2 * PAGE

    def test_merged_read_payloads_slice_back_per_ticket(self):
        sched, device, _ = make_sched()
        fill(device, 20, 1, 0x01)
        fill(device, 21, 2, 0x02)
        t1 = sched.submit_read(21, 2)  # submission order != pid order
        t2 = sched.submit_read(20, 1)
        sched.drain()
        assert t1.result == b"\x02" * 2 * PAGE
        assert t2.result == b"\x01" * PAGE

    def test_non_adjacent_requests_stay_separate(self):
        sched, device, _ = make_sched()
        fill(device, 0, 1, 0)
        fill(device, 5, 1, 0)
        sched.submit_read(0, 1)
        sched.submit_read(5, 1)
        sched.drain()
        assert sched.stats.requests_out == 2
        assert sched.stats.coalesce_ratio == 0.0

    def test_max_merge_pages_caps_the_run(self):
        sched, device, _ = make_sched(max_merge_pages=4)
        fill(device, 0, 8, 0)
        for pid in range(0, 8, 2):
            sched.submit_read(pid, 2)
        sched.drain()
        # Eight adjacent pages, cap 4: two merged commands, not one.
        assert sched.stats.requests_out == 2

    def test_reads_and_writes_never_merge(self):
        sched, device, _ = make_sched()
        fill(device, 0, 2, 0)
        sched.submit_read(0, 1)
        sched.submit_write(1, b"w" * PAGE)
        sched.drain()
        assert sched.stats.requests_out == 2
        assert device.read(1, 1) == b"w" * PAGE

    def test_write_categories_never_merge(self):
        sched, device, _ = make_sched()
        sched.submit_write(0, b"a" * PAGE, category="data")
        sched.submit_write(1, b"b" * PAGE, category="wal")
        sched.drain()
        assert sched.stats.requests_out == 2
        assert device.stats.bytes_written_by_category["data"] == PAGE
        assert device.stats.bytes_written_by_category["wal"] == PAGE

    def test_adjacent_writes_merge_and_land_correctly(self):
        sched, device, _ = make_sched()
        before = device.stats.write_requests
        sched.submit_write(4, b"x" * PAGE)
        sched.submit_write(5, b"y" * 2 * PAGE)
        sched.drain()
        assert device.stats.write_requests - before == 1
        assert device.read(4, 1) == b"x" * PAGE
        assert device.read(5, 2) == b"y" * 2 * PAGE


class TestDrain:
    def test_drain_clears_pending_and_marks_done(self):
        sched, device, _ = make_sched()
        fill(device, 0, 1, 0)
        ticket = sched.submit_read(0, 1)
        assert sched.pending == 1
        drained = sched.drain()
        assert sched.pending == 0
        assert drained == [ticket]
        assert ticket.done
        assert sched.drain() == []

    def test_foreground_drain_charges_syscall_pair(self):
        sched, device, model = make_sched()
        fill(device, 0, 1, 0)
        sched.submit_read(0, 1)
        start = model.clock.now_ns
        sched.drain()
        batched = model.clock.now_ns - start
        # Same single read, straight through the device.
        model2 = CostModel()
        device2 = SimulatedNVMe(model2, capacity_pages=512)
        fill(device2, 0, 1, 0)
        start2 = model2.clock.now_ns
        device2.read(0, 1)
        direct = model2.clock.now_ns - start2
        pair = SYSCALL_NS["io_submit"] + SYSCALL_NS["io_getevents"]
        assert batched == pytest.approx(direct + pair)

    def test_background_drain_charges_no_time(self):
        sched, device, model = make_sched()
        start = model.clock.now_ns
        sched.submit_write(0, b"z" * PAGE)
        sched.drain(background=True)
        assert model.clock.now_ns == start
        assert device.stats.bytes_written == PAGE

    def test_obs_counters_and_depth_histogram(self):
        sched, device, model = make_sched()
        tracer = obs.attach(model)
        fill(device, 0, 4, 0)
        sched.submit_read(0, 2)
        sched.submit_read(2, 2)
        sched.drain()
        metrics = tracer.metrics
        assert metrics.counter("io.requests_in").total() == 2
        assert metrics.counter("io.requests_out").total() == 1
        assert metrics.counter("io.coalesced").total() == 1
        assert metrics.counter("io.drains").total() == 1
        assert metrics.histogram("io.queue_depth").count == 1

    def test_validation(self):
        model = CostModel()
        device = SimulatedNVMe(model, capacity_pages=8)
        with pytest.raises(ValueError):
            IoScheduler(device, model, queue_depth=0)
        with pytest.raises(ValueError):
            IoScheduler(device, model, max_merge_pages=0)


class TestQueueDepthCost:
    def _batch_time(self, queue_depth, n_requests=32):
        sched, device, model = make_sched(queue_depth=queue_depth,
                                          capacity_pages=4 * n_requests)
        fill(device, 0, 4 * n_requests, 0)
        start = model.clock.now_ns
        for i in range(n_requests):
            # Gaps of 2 pages: nothing coalesces, depth is isolated.
            sched.submit_read(4 * i, 2)
        sched.drain()
        return model.clock.now_ns - start

    def test_deeper_queues_are_monotonically_cheaper(self):
        t1 = self._batch_time(1)
        t4 = self._batch_time(4)
        t16 = self._batch_time(16)
        t64 = self._batch_time(64)
        assert t1 > t4 > t16 >= t64
        # Diminishing returns: past the device's internal parallelism,
        # QD 16 -> 64 buys less throughput than QD 4 -> 16 did.
        assert 1 / t64 - 1 / t16 < 1 / t16 - 1 / t4

    def test_depth_capped_by_device_queue_depth(self):
        cap = CostParams().ssd_queue_depth
        assert self._batch_time(cap) == self._batch_time(4 * cap)

    def test_single_request_price_matches_direct_read(self):
        sched, device, model = make_sched()
        fill(device, 0, 2, 0)
        start = model.clock.now_ns
        sched.submit_read(0, 2)
        sched.drain()
        batched = model.clock.now_ns - start
        model2 = CostModel()
        device2 = SimulatedNVMe(model2, capacity_pages=8)
        fill(device2, 0, 2, 0)
        start2 = model2.clock.now_ns
        device2.read(0, 2)
        direct = model2.clock.now_ns - start2
        # Identical device charge; the scheduler adds only its syscalls.
        pair = SYSCALL_NS["io_submit"] + SYSCALL_NS["io_getevents"]
        assert batched == pytest.approx(direct + pair)

    def test_determinism_same_seed_same_cost(self):
        assert self._batch_time(8) == self._batch_time(8)


class TestFaultAtomicity:
    def test_failed_drain_preserves_pending_queue(self):
        model = CostModel()
        plan = FaultPlan(seed=3, transient_error=1.0,
                         max_consecutive_transients=1)
        device = FaultyNVMe(SimulatedNVMe(model, capacity_pages=64), plan)
        sched = IoScheduler(device, model)
        sched.submit_write(0, b"a" * PAGE)
        sched.submit_write(7, b"b" * PAGE)
        with pytest.raises(Exception):
            sched.drain()
        assert sched.pending == 2

    def test_retry_policy_redrains_whole_batch(self):
        model = CostModel()
        plan = FaultPlan(seed=5, transient_error=0.9,
                         max_consecutive_transients=2)
        device = FaultyNVMe(SimulatedNVMe(model, capacity_pages=64), plan)
        sched = IoScheduler(device, model)
        retry = RetryPolicy(model, attempts=4)
        for i in range(4):
            sched.submit_write(8 * i, bytes([i + 1]) * PAGE)
        retry.run(sched.drain)
        assert sched.pending == 0
        for i in range(4):
            # Verify through the inner device: no further fault draws.
            assert device.inner.read(8 * i, 1, verify=False) == \
                bytes([i + 1]) * PAGE
