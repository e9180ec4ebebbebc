"""Shared resources for the simulation kernel.

Three primitives cover every piece of hardware this repository models:

* :class:`Store` — an unbounded FIFO queue of items (mailboxes, command
  queues).
* :class:`CapacityResource` — a counted semaphore (queue-depth limits).
* :class:`BandwidthChannel` — a fluid FIFO bandwidth server.  A transfer of
  ``n`` bytes occupies the channel for ``overhead + n/rate`` seconds; queued
  transfers are served in order.  This is the model used for NIC directions,
  SSD data channels and CPU cores (where "bytes" are replaced by
  nanoseconds of work).

Uncontended ``Store.get`` / ``CapacityResource.request`` return
*pre-processed* grant events (:meth:`Environment.grant_event`): a process
yielding one resumes inline, without a calendar entry.  Contended ones
queue a waiter (:class:`_StoreGet`, :class:`_CapacityRequest`) that is
woken FIFO through the calendar and survives ``Process.interrupt``.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Deque, List, Tuple

from repro.sim.core import Environment, Event

#: Nanoseconds per second; all rates are converted to bytes/ns internally.
NS_PER_S = 1_000_000_000


class _StoreGet(Event):
    """A queued ``Store.get`` wait that survives ``Process.interrupt``.

    When the waiting process is interrupted the kernel calls
    :meth:`_abandoned`: a still-queued getter withdraws from the store's
    wait queue; a getter that was already handed an item (triggered but not
    yet resumed) returns that item to the front of the line, so it is
    neither lost nor overtaken by items put after it.
    """

    __slots__ = ("store",)

    def __init__(self, store: "Store") -> None:
        super().__init__(store.env)
        self.store = store

    def _abandoned(self) -> None:
        store, self.store = self.store, None
        if store is None:  # pragma: no cover - double interrupt, defensive
            return
        if self._ok is None:
            try:
                store._getters.remove(self)
            except ValueError:  # pragma: no cover - already granted/removed
                pass
        elif self._ok:
            # Granted but never consumed: the item goes to the oldest live
            # getter, or else back to the head of the queue.
            if not store._wake(self._value):
                store._items.appendleft(self._value)


class _CapacityRequest(Event):
    """A queued ``CapacityResource.request`` that survives interrupts.

    Cancel path (the PR-1 fast-path bug): an interrupted waiter used to
    linger untriggered in the waiter queue, so a later ``release`` would
    grant the slot to a consumer that never resumes — leaking one unit of
    capacity forever.  The :meth:`_abandoned` hook removes a still-queued
    waiter outright and re-releases a slot that was granted between the
    grant and the resume.
    """

    __slots__ = ("resource", "proc")

    def __init__(self, resource: "CapacityResource") -> None:
        super().__init__(resource.env)
        self.resource = resource
        #: requesting process (for the sanitizer's leaked-hold report)
        self.proc = resource.env._active_process

    def _abandoned(self) -> None:
        resource, self.resource = self.resource, None
        if resource is None:  # pragma: no cover - double interrupt, defensive
            return
        if self._ok is None:
            try:
                resource._waiters.remove(self)
            except ValueError:  # pragma: no cover - already granted/removed
                pass
        elif self._ok:
            # Granted but never consumed: hand the slot to the next live
            # waiter (or return it to the free pool).
            if resource.sanitizer is not None:
                resource.sanitizer.on_resource_abandon(resource, self)
            resource._pass_on()


class Store:
    """Unbounded FIFO store of items with event-based ``get``."""

    def __init__(self, env: Environment, name: str = "store") -> None:
        self.env = env
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        """Add ``item``; wakes the oldest waiting getter if any."""
        if not self._wake(item):
            self._items.append(item)

    def _wake(self, item: Any) -> bool:
        """Hand ``item`` to the oldest live getter; False if none waits."""
        getters = self._getters
        while getters:
            getter = getters.popleft()
            if getter._ok is None:  # skip cancelled getters
                getter.succeed(item)
                return True
        return False

    def clear(self) -> int:
        """Drop every queued item (fault injection: a crashed server loses
        its inbox).  Waiting getters are left pending.  Returns the number
        of items dropped."""
        dropped = len(self._items)
        self._items.clear()
        return dropped

    def get(self) -> Event:
        """Event that succeeds with the next item (FIFO order).

        When an item is already available the returned event is *processed*
        (not merely triggered): a process yielding it resumes inline without
        a trip through the event calendar.  Getters that must wait are woken
        through the calendar as before, preserving FIFO fairness.
        """
        if self._items:
            return self.env.grant_event(self._items.popleft())
        event = _StoreGet(self)
        self._getters.append(event)
        return event


class CapacityResource:
    """A counted resource (semaphore) with FIFO request ordering."""

    #: Armed by :class:`repro.verify.kernel.KernelSanitizer.watch_resource`;
    #: None keeps request/release on their zero-cost paths.
    sanitizer = None

    def __init__(self, env: Environment, capacity: int, name: str = "resource") -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.name = name
        self.capacity = capacity
        self._in_use = 0
        self._waiters: Deque[Event] = deque()

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def queued(self) -> int:
        return len(self._waiters)

    def request(self) -> Event:
        """Event that succeeds once a slot is available (slot is then held).

        Uncontended requests return a *processed* event so a yielding
        process continues inline without touching the event calendar;
        contended requests queue and are woken FIFO through the calendar.
        """
        if self._in_use < self.capacity:
            self._in_use += 1
            if self.sanitizer is not None:
                self.sanitizer.on_resource_grant(self)
            return self.env.grant_event(self)
        event = _CapacityRequest(self)
        self._waiters.append(event)
        return event

    def _pass_on(self) -> None:
        """Hand a freed slot to the oldest live waiter, else free it."""
        waiters = self._waiters
        while waiters:
            waiter = waiters.popleft()
            if waiter._ok is not None:  # cancelled waiter
                continue
            waiter.succeed(self)
            if self.sanitizer is not None:
                self.sanitizer.on_resource_grant(self, waiter)
            return
        self._in_use -= 1

    def release(self) -> None:
        """Release a held slot, handing it to the oldest waiter if any."""
        if self._in_use <= 0:
            raise RuntimeError(f"{self.name}: release without matching request")
        if self.sanitizer is not None:
            self.sanitizer.on_resource_release(self)
        if not self._waiters:  # uncontended fast path
            self._in_use -= 1
            return
        self._pass_on()


class BandwidthChannel:
    """A fluid FIFO bandwidth server.

    The channel serves transfers strictly in submission order.  A transfer
    of ``nbytes`` takes ``per_op_overhead_ns + nbytes / rate``; its
    completion event fires when the transfer (and everything queued before
    it) has drained.  Scheduling is O(1) per transfer: the channel only
    tracks the time at which it becomes free — the completion timestamp of
    the whole reservation queue is computed in closed form, so no per-grant
    events exist at all.

    ``parallelism`` models devices with internal channels (e.g. NAND dies):
    ``k`` independent FIFO servers each running at ``rate / k``, with new
    transfers dispatched to the earliest-free server.  ``parallelism=1``
    (the default) is a plain FIFO pipe at full rate.
    """

    def __init__(
        self,
        env: Environment,
        rate_bytes_per_s: float,
        per_op_overhead_ns: int = 0,
        parallelism: int = 1,
        name: str = "channel",
    ) -> None:
        if rate_bytes_per_s <= 0:
            raise ValueError(f"rate must be positive, got {rate_bytes_per_s}")
        if parallelism < 1:
            raise ValueError(f"parallelism must be >= 1, got {parallelism}")
        self.env = env
        self.name = name
        self.per_op_overhead_ns = int(per_op_overhead_ns)
        self.parallelism = parallelism
        self._rate = float(rate_bytes_per_s)
        self._per_server_rate = self._rate / parallelism
        self._free_at = [0] * parallelism
        # (free_at, idx) min-heap mirror of _free_at: earliest-free server
        # selection in O(log k) instead of an O(k) min() scan per reserve.
        # Only consulted when parallelism > 1; ties break on lowest index,
        # exactly like min() over the list.
        self._free_heap: List[Tuple[int, int]] = [(0, i) for i in range(parallelism)]
        # Cached between reservations: the earliest-free head and the raw
        # sum of all server free times, so queue_delay_ns/backlog_ns are
        # O(1) in the saturated (all servers beyond ``now``) regime.
        self._earliest_free = 0
        self._free_sum = 0
        # accounting
        self.bytes_transferred = 0
        self.ops = 0
        self.busy_ns = 0

    @property
    def rate_bytes_per_s(self) -> float:
        return self._rate

    @rate_bytes_per_s.setter
    def rate_bytes_per_s(self, value: float) -> None:
        if value <= 0:
            raise ValueError(f"rate must be positive, got {value}")
        self._rate = float(value)
        self._per_server_rate = self._rate / self.parallelism

    def service_ns(self, nbytes: int) -> int:
        """Pure service time of ``nbytes`` (no queueing)."""
        return self.per_op_overhead_ns + int(
            round(nbytes * NS_PER_S / self._per_server_rate)
        )

    def queue_delay_ns(self) -> int:
        """Wait a transfer submitted now would incur before service starts."""
        free_at = self._earliest_free
        return free_at - self.env.now if free_at > self.env.now else 0

    def backlog_ns(self) -> int:
        """Total remaining work across all internal servers (congestion signal)."""
        now = self.env.now
        if self._earliest_free >= now:
            # saturated regime: every server is booked past ``now``, so the
            # cached raw sum gives the backlog without an O(k) scan
            return self._free_sum - now * self.parallelism
        return sum(f - now for f in self._free_at if f > now)

    def reserve(self, nbytes: int, extra_ns: int = 0) -> int:
        """Queue a transfer and return its *absolute* completion time.

        This is the O(1) primitive behind :meth:`transfer`; layers that
        need to combine several channel occupancies into one completion
        event (e.g. a network transfer through sender-TX and receiver-RX)
        call ``reserve`` on each channel and take the max.
        """
        if nbytes < 0:
            raise ValueError(f"negative transfer size {nbytes}")
        # inlined service_ns(nbytes) — reserve is the resource hot path
        service = (
            self.per_op_overhead_ns
            + int(round(nbytes * NS_PER_S / self._per_server_rate))
            + int(extra_ns)
        )
        now = self.env.now
        if self.parallelism == 1:
            free = self._free_at[0]
            start = free if free > now else now
            done = start + service
            self._free_at[0] = done
            self._earliest_free = done
            self._free_sum = done
        else:
            # earliest-free internal server via the heap mirror
            free, idx = heapq.heappop(self._free_heap)
            start = free if free > now else now
            done = start + service
            self._free_sum += done - self._free_at[idx]
            self._free_at[idx] = done
            heapq.heappush(self._free_heap, (done, idx))
            self._earliest_free = self._free_heap[0][0]
        self.bytes_transferred += nbytes
        self.ops += 1
        self.busy_ns += service
        return done

    def transfer(self, nbytes: int, extra_ns: int = 0) -> Event:
        """Submit a transfer; returns its completion event.

        ``extra_ns`` is appended to the service time (e.g. a fixed access
        latency that occupies the channel).
        """
        done = self.reserve(nbytes, extra_ns)
        return self.env.timeout(done - self.env.now, value=nbytes)

    def utilization(self, elapsed_ns: int) -> float:
        """Fraction of capacity used over ``elapsed_ns`` (can exceed 1 briefly
        when overheads dominate)."""
        if elapsed_ns <= 0:
            return 0.0
        return self.busy_ns / (elapsed_ns * self.parallelism)

    def reset_accounting(self) -> None:
        self.bytes_transferred = 0
        self.ops = 0
        self.busy_ns = 0
