"""Interleaved-cancel properties of stores and capacity resources.

These hypothesis tests drive arbitrary interleavings of
request/grant/cancel through a :class:`Store` and a
:class:`CapacityResource`, and check what a cancelled waiter must never
break, wherever the cancel lands — still queued, or granted but not yet
resumed:

* **store conservation** — no item is lost or delivered twice;
* **store order** — items queue in put order, and an item handed back by
  a cancelled getter goes in front of them, never behind an item put
  after it;
* **capacity conservation** — no slot leaks.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment, Interrupt
from repro.sim.resources import CapacityResource, Store, _CapacityRequest


def _assert_put_order(store, handed_back):
    """Fresh tokens queue in put order, behind every handed-back token."""
    items = list(store._items)
    fresh = [t for t in items if t not in handed_back]
    assert fresh == sorted(fresh), f"queue {items} breaks put order"
    assert items[len(items) - len(fresh):] == fresh, (
        f"queue {items}: a handed-back token sits behind a later put"
    )


_OPS = st.lists(
    st.sampled_from(["spawn", "feed", "cancel", "advance"]),
    min_size=4,
    max_size=50,
)


class TestStoreGetCancel:
    @given(ops=_OPS, picks=st.data())
    @settings(max_examples=60, deadline=None)
    def test_interleaved_get_cancel_never_aliases_or_loses_items(
        self, ops, picks
    ):
        env = Environment()
        store = Store(env, name="cancel")
        received = []
        cancelled = []
        handed_back = set()
        procs = []
        next_token = 0

        def getter(idx):
            try:
                item = yield store.get()
            except Interrupt:
                cancelled.append(idx)
                return
            received.append(item)

        for op in ops:
            if op == "spawn":
                procs.append(env.process(getter(len(procs)), name="getter"))
            elif op == "feed":
                store.put(next_token)
                next_token += 1
            elif op == "cancel":
                waiting = [p for p in procs if p.is_alive and p._target is not None]
                if waiting:
                    idx = picks.draw(
                        st.integers(0, len(waiting) - 1), label="victim"
                    )
                    target = waiting[idx]._target
                    if target.triggered:  # granted, not yet resumed
                        handed_back.add(target.value)
                    waiting[idx].interrupt("cancel")
            else:  # advance: park spawned processes, deliver grants
                env.run(until=env.now + 1)
            _assert_put_order(store, handed_back)

        # Drain: one item per still-live process, then run to quiescence.
        env.run(until=env.now + 1)
        for p in procs:
            if p.is_alive:
                store.put(next_token)
                next_token += 1
        env.run()
        _assert_put_order(store, handed_back)

        assert all(not p.is_alive for p in procs)
        # Conservation: every token was delivered at most once, and every
        # token is either delivered or still in the store (cancel hands a
        # granted-but-unconsumed item back, so nothing is lost).
        assert len(received) == len(set(received))
        assert sorted(received + list(store._items)) == list(range(next_token))


class TestCapacityRequestCancel:
    @given(
        capacity=st.integers(1, 3),
        ops=_OPS,
        picks=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_interleaved_request_cancel_never_aliases_or_leaks_slots(
        self, capacity, ops, picks
    ):
        env = Environment()
        res = CapacityResource(env, capacity=capacity, name="cancel")
        served = []
        procs = []

        def holder(idx, hold_ns):
            try:
                yield res.request()
            except Interrupt:
                return
            served.append(idx)
            yield env.timeout(hold_ns)
            res.release()

        for op in ops:
            if op == "spawn":
                hold = picks.draw(st.integers(1, 20), label="hold_ns")
                procs.append(
                    env.process(holder(len(procs), hold), name="holder")
                )
            elif op == "feed":
                env.run(until=env.now + 5)  # let holders release
            elif op == "cancel":
                # Only cancel processes parked on the request itself —
                # covers both the still-queued and the granted-but-not-
                # resumed abandon paths.
                waiting = [
                    p
                    for p in procs
                    if p.is_alive and isinstance(p._target, _CapacityRequest)
                ]
                if waiting:
                    idx = picks.draw(
                        st.integers(0, len(waiting) - 1), label="victim"
                    )
                    waiting[idx].interrupt("cancel")
            else:  # advance
                env.run(until=env.now + 1)
            assert 0 <= res._in_use <= capacity

        env.run()
        assert all(not p.is_alive for p in procs)
        # No slot leaked: every grant was eventually released, including
        # slots granted to waiters that were cancelled before resuming.
        assert res._in_use == 0
        assert len(served) == len(set(served))
