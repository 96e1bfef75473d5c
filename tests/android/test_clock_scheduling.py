"""Clock scheduling edge cases: re-entrant callbacks and cancellation.

The fleet kernel leans on two Clock behaviours that a short blocking run
never exercises hard: callbacks scheduled re-entrantly at exactly the
firing deadline (the ambient duty cycle re-arming itself), and cancelled
entries piling up in the heap (watchdogs armed and abandoned by the
thousand over a long fleet run).  Both are pinned here.
"""

from repro.android.clock import _COMPACT_MIN_QUEUE, Clock


class TestReentrantScheduling:
    def test_same_deadline_reentrant_callback_fires_in_seq_order(self):
        clock = Clock()
        order = []

        def first():
            order.append("first")
            # Scheduled at exactly the firing deadline: lands *behind* the
            # in-flight callback (same deadline, higher seq) and still
            # fires within this same advance.
            clock.call_at(clock.now_ms(), lambda: order.append("nested"))

        clock.call_at(100.0, first)
        clock.call_at(100.0, lambda: order.append("second"))
        clock.advance_to(100.0)
        assert order == ["first", "second", "nested"]
        assert clock.now_ms() == 100.0

    def test_reentrant_chain_terminates_at_later_deadlines(self):
        clock = Clock()
        fired = []

        def rearm():
            fired.append(clock.now_ms())
            if len(fired) < 3:
                clock.call_after(10.0, rearm)

        clock.call_after(10.0, rearm)
        clock.advance_to(100.0)
        assert fired == [10.0, 20.0, 30.0]

    def test_callback_observes_its_own_deadline_as_now(self):
        clock = Clock()
        seen = []
        clock.call_at(40.0, lambda: seen.append(clock.now_ms()))
        clock.call_at(70.0, lambda: seen.append(clock.now_ms()))
        clock.advance_to(1_000.0)
        assert seen == [40.0, 70.0]
        assert clock.now_ms() == 1_000.0


class TestCancellation:
    def test_cancel_below_compaction_threshold_leaves_entries_marked(self):
        clock = Clock()
        handles = [clock.call_at(10.0 * i, lambda: None) for i in range(6)]
        assert len(handles) < _COMPACT_MIN_QUEUE
        for handle in handles[:4]:
            handle.cancel()
        # 4 of 6 cancelled would trigger compaction on a big queue, but a
        # tiny one is cheaper to let advance_to/drain reap lazily.
        assert clock.cancelled_count() == 4
        assert clock.pending_count() == 2

    def test_compaction_once_cancelled_entries_dominate(self):
        clock = Clock()
        handles = [clock.call_at(float(i), lambda: None) for i in range(10)]
        for handle in handles[:5]:
            handle.cancel()
        # 5 of 10: not a strict majority, still lazily marked.
        assert clock.cancelled_count() == 5
        handles[5].cancel()
        # 6 of 10: majority -- the heap is rebuilt with live entries only.
        assert clock.cancelled_count() == 0
        assert clock.pending_count() == 4
        clock.advance_to(20.0)
        assert clock.pending_count() == 0

    def test_double_cancel_is_idempotent(self):
        clock = Clock()
        handle = clock.call_at(5.0, lambda: None)
        clock.call_at(6.0, lambda: None)
        handle.cancel()
        handle.cancel()
        assert handle.cancelled
        assert clock.cancelled_count() == 1
        assert clock.pending_count() == 1

    def test_cancelled_callback_never_fires_and_is_reaped(self):
        clock = Clock()
        fired = []
        doomed = clock.call_at(50.0, lambda: fired.append("dead"))
        clock.call_at(60.0, lambda: fired.append("live"))
        doomed.cancel()
        clock.advance_to(100.0)
        assert fired == ["live"]
        assert clock.cancelled_count() == 0
        assert clock.pending_count() == 0

    def test_drain_reaps_cancelled_heads(self):
        clock = Clock()
        fired = []
        doomed = clock.call_at(10.0, lambda: fired.append("dead"))
        clock.call_at(20.0, lambda: fired.append("live"))
        doomed.cancel()
        clock.drain()
        assert fired == ["live"]
        assert clock.pending_count() == 0
        assert clock.cancelled_count() == 0

    def test_cancel_from_inside_a_callback(self):
        # The low-battery park cancels the pending ambient toggle from a
        # clock callback; the cancelled toggle must not fire afterwards.
        clock = Clock()
        fired = []
        toggle = clock.call_at(30.0, lambda: fired.append("toggle"))
        clock.call_at(20.0, lambda: toggle.cancel())
        clock.advance_to(100.0)
        assert fired == []
        assert clock.pending_count() == 0

