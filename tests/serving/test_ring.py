"""RingBuffer: bounded per-session store with bit-exact snapshots."""

import numpy as np
import pytest

from repro.serving import RingBuffer

RNG = np.random.default_rng(11)


class TestRingBuffer:
    def test_snapshot_is_bit_identical_to_the_stream(self):
        ring = RingBuffer(3, 10_000)
        chunks = [RNG.standard_normal((3, n)) for n in (700, 1, 2048, 333)]
        for chunk in chunks:
            assert ring.append(chunk) == 0
        assert np.array_equal(ring.snapshot(), np.concatenate(chunks, axis=1))
        assert ring.length == sum(c.shape[1] for c in chunks)
        assert ring.dropped == 0

    def test_overflow_drops_newest_and_counts(self):
        ring = RingBuffer(2, 1000)
        head = RNG.standard_normal((2, 800))
        tail = RNG.standard_normal((2, 500))
        assert ring.append(head) == 0
        assert ring.append(tail) == 300
        assert ring.dropped == 300
        assert ring.length == 1000
        # The stored head is intact; only the newest samples were lost.
        assert np.array_equal(ring.snapshot()[:, :800], head)
        assert np.array_equal(ring.snapshot()[:, 800:], tail[:, :200])

    def test_storage_grows_lazily(self):
        ring = RingBuffer(4, 1_000_000)
        assert ring._store.shape[1] < 1_000_000
        ring.append(np.zeros((4, 50_000)))
        assert ring.length == 50_000
        assert ring._store.shape[1] < 1_000_000

    def test_prefix_is_a_view_of_the_head(self):
        ring = RingBuffer(2, 5000)
        chunk = RNG.standard_normal((2, 3000))
        ring.append(chunk)
        assert np.array_equal(ring.prefix(1000), chunk[:, :1000])
        assert ring.prefix(9999).shape == (2, 3000)

    def test_clear_reuses_allocation(self):
        ring = RingBuffer(2, 5000)
        ring.append(RNG.standard_normal((2, 4000)))
        store = ring._store
        ring.clear()
        assert ring.length == 0
        assert ring.dropped == 0
        assert ring._store is store

    def test_interleaved_appends_and_reads_keep_dropped_exact(self):
        """Satellite: dropped accounting under writer/reader interleaving.

        Snapshots and prefixes between appends must neither perturb the
        stored head nor the dropped counter: the counter equals the
        exact sample deficit at every step, and the head stays
        bit-identical to the first ``capacity`` streamed samples.
        """
        capacity = 1500
        ring = RingBuffer(2, capacity)
        streamed = []
        expected_dropped = 0
        for k, n in enumerate((400, 700, 1, 600, 250, 2048)):
            chunk = RNG.standard_normal((2, n))
            streamed.append(chunk)
            fed = sum(c.shape[1] for c in streamed)
            lost = ring.append(chunk)
            expected_dropped = max(0, fed - capacity)
            assert ring.dropped == expected_dropped
            assert lost == min(n, max(0, fed - capacity) - max(0, fed - n - capacity))
            # Reader interleaves: reads are pure.
            head = ring.prefix(min(64, ring.length)).copy()
            snap = ring.snapshot()
            assert np.array_equal(snap[:, : head.shape[1]], head)
            whole = np.concatenate(streamed, axis=1)
            assert np.array_equal(snap, whole[:, : ring.length])
        assert ring.dropped > 0

    def test_dropped_resets_per_utterance_via_clear(self):
        ring = RingBuffer(2, 100)
        ring.append(RNG.standard_normal((2, 150)))
        assert ring.dropped == 50
        ring.clear()
        assert ring.dropped == 0
        ring.append(RNG.standard_normal((2, 30)))
        assert ring.dropped == 0
        ring.append(RNG.standard_normal((2, 90)))
        assert ring.dropped == 20

    def test_concurrent_reader_never_sees_torn_state(self):
        """A reader thread polling occupancy/dropped (the live probe's view)
        sees only values consistent with some prefix of the write stream."""
        import threading

        capacity = 10_000
        ring = RingBuffer(1, capacity)
        stop = threading.Event()
        observed = []

        def reader():
            while not stop.is_set():
                length, dropped = ring.length, ring.dropped
                observed.append((length, dropped))

        thread = threading.Thread(target=reader)
        thread.start()
        total = 0
        try:
            for _ in range(200):
                n = int(RNG.integers(1, 400))
                ring.append(np.zeros((1, n)))
                total += n
        finally:
            stop.set()
            thread.join()
        assert ring.length == min(total, capacity)
        assert ring.dropped == max(0, total - capacity)
        for length, dropped in observed:
            assert 0 <= length <= capacity
            assert dropped >= 0

    def test_shape_validation(self):
        ring = RingBuffer(2, 100)
        with pytest.raises(ValueError):
            ring.append(np.zeros((3, 10)))
        with pytest.raises(ValueError):
            RingBuffer(0, 100)
        with pytest.raises(ValueError):
            RingBuffer(2, 0)
