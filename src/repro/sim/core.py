"""Core of the discrete-event simulation kernel.

The design mirrors ``simpy``: an :class:`Environment` owns a binary-heap
event calendar; a :class:`Process` wraps a Python generator that yields
events and is resumed when those events trigger.  Unlike ``simpy``, time is
an integer (nanoseconds) so simulations are exactly reproducible across
platforms, and the implementation is trimmed to what this repository needs.

Every scheduled event — timer, wake-up, process start — is one
``(time, eid, event)`` heap entry and consumes exactly one event id, so
events dispatch in ``(time, eid)`` order: by timestamp, then in creation
order.  :meth:`Environment.run` is the one dispatch loop.  The only events
that bypass the calendar are the *pre-processed* grants of
:meth:`Environment.grant_event` (uncontended store gets and semaphore
requests): a process yielding one resumes inline.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, List, Optional

#: Sentinel for "event has not been assigned a value yet".
_PENDING = object()

ProcessGenerator = Generator["Event", Any, Any]


class SimulationError(RuntimeError):
    """Raised when the simulation reaches an invalid state."""


class Interrupt(Exception):
    """Raised inside a process when :meth:`Process.interrupt` is called.

    The ``cause`` attribute carries the value passed to ``interrupt``.
    """

    @property
    def cause(self) -> Any:
        return self.args[0] if self.args else None


class Event:
    """An event that may succeed (with a value) or fail (with an exception).

    Callbacks are plain callables invoked with the event as their only
    argument when the event is *processed* (popped from the calendar).
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._ok: Optional[bool] = None
        self._defused = False

    def __repr__(self) -> str:
        state = "pending"
        if self._ok is True:
            state = f"ok({self._value!r})"
        elif self._ok is False:
            state = f"failed({self._value!r})"
        return f"<{type(self).__name__} {state}>"

    @property
    def triggered(self) -> bool:
        """True once the event has an outcome (succeeded or failed)."""
        return self._ok is not None

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        if self._ok is None:
            raise SimulationError("event has not been triggered yet")
        return self._ok

    @property
    def value(self) -> Any:
        if self._value is _PENDING:
            raise SimulationError("event has no value yet")
        return self._value

    def _abandoned(self) -> None:
        """Hook: the process waiting on this event was interrupted away.

        :meth:`Process.interrupt` detaches the consumer and then calls this
        so resource-wait events (queued :class:`~repro.sim.resources.Store`
        gets, :class:`~repro.sim.resources.CapacityResource` requests,
        stripe-lock acquires) can withdraw from their wait queue — or, if
        the grant already happened, hand the slot back — instead of leaking
        it to a consumer that will never resume.  The base event has no
        resource attached, so this is a no-op.
        """

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._ok is not None:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self.env._schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        The exception propagates into every process waiting on the event;
        if nothing waits, :meth:`Environment.run` re-raises it (errors never
        pass silently).
        """
        if self._ok is not None:
            raise SimulationError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        self._ok = False
        self._value = exception
        self.env._schedule(self)
        return self


class Timeout(Event):
    """An event that triggers after a fixed delay.

    ``_time`` is the timer's absolute calendar time, which lets
    :meth:`Environment.run` treat an undispatched timer passed as ``until``
    as the integer horizon it denotes.
    """

    __slots__ = ("delay", "_time")

    def __init__(self, env: "Environment", delay: int, value: Any = None) -> None:
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        # Timeouts are the kernel's most common event; initialize and
        # schedule inline rather than through Event.__init__/_schedule.
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._defused = False
        self.delay = delay
        self._time = time = env.now + delay
        env._eid += 1
        heappush(env._queue, (time, env._eid, self))


class Initialize(Event):
    """Internal event that starts a freshly created process."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process") -> None:
        super().__init__(env)
        self._ok = True
        self._value = None
        self.callbacks.append(process._resume)
        env._schedule(self)


def _defuse_on_failure(event: "Event") -> None:
    """Sink callback for events abandoned by an interrupted process."""
    if event._ok is False:
        event._defused = True


class Process(Event):
    """A running process: an event that triggers when its generator returns.

    The wrapped generator yields :class:`Event` instances.  When a yielded
    event succeeds the generator is resumed with the event's value; when it
    fails the exception is thrown into the generator.
    """

    __slots__ = ("_generator", "_target", "name")

    def __init__(
        self,
        env: "Environment",
        generator: ProcessGenerator,
        name: Optional[str] = None,
    ) -> None:
        super().__init__(env)
        self._generator = generator
        self._target: Optional[Event] = None
        self.name = name or getattr(generator, "__name__", "process")
        Initialize(env, self)

    def __repr__(self) -> str:
        return f"<Process {self.name} at t={self.env.now}>"

    @property
    def is_alive(self) -> bool:
        return self._ok is None

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its current wait."""
        if not self.is_alive:
            raise SimulationError(f"{self!r} has already terminated")
        if self._target is None:
            raise SimulationError(f"{self!r} is not waiting on anything")
        interrupt_event = Event(self.env)
        interrupt_event._ok = False
        interrupt_event._value = Interrupt(cause)
        interrupt_event._defused = True
        # Detach from the current wait target so the original event no
        # longer resumes this process when it eventually triggers.
        target = self._target
        if target.callbacks is not None and self._resume in target.callbacks:
            target.callbacks.remove(self._resume)
            # The interrupted process was this event's consumer; if the
            # abandoned event later fails there is nobody left to handle
            # it, so defuse instead of crashing the simulation.
            target.callbacks.append(_defuse_on_failure)
        self._target = None
        # Let resource-wait events return queued positions or granted
        # slots; a plain Event's hook is a no-op.
        target._abandoned()
        interrupt_event.callbacks = [self._resume]
        self.env._schedule(interrupt_event)

    def _resume(self, event: Event) -> None:
        env = self.env
        env._active_process = self
        generator = self._generator
        while True:
            try:
                if event._ok:
                    target = generator.send(event._value)
                else:
                    event._defused = True
                    target = generator.throw(event._value)
                while not isinstance(target, Event):
                    # Throw into the generator so the process terminates (or
                    # recovers) through the normal paths below — the Process
                    # event must still succeed or fail, or waiters leak.
                    target = generator.throw(
                        SimulationError(f"process yielded a non-event: {target!r}")
                    )
            except StopIteration as stop:
                self._target = None
                env._active_process = None
                self.succeed(stop.value)
                return
            except BaseException as exc:
                self._target = None
                env._active_process = None
                self.fail(exc)
                return
            if target.callbacks is None:
                # Already processed: resume immediately with its outcome.
                event = target
                continue
            self._target = target
            target.callbacks.append(self._resume)
            env._active_process = None
            return


class Condition(Event):
    """Base for :class:`AllOf` / :class:`AnyOf`."""

    __slots__ = ("events", "_remaining")

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env)
        self.events = list(events)
        self._remaining = len(self.events)
        if not self.events:
            self.succeed(self._outcome())
            return
        for event in self.events:
            if event.processed:
                self._check(event)
            else:
                event.callbacks.append(self._check)
            if self.triggered:
                break

    def _outcome(self) -> Any:
        return {e: e._value for e in self.events if e.triggered and e._ok}

    def _check(self, event: Event) -> None:
        raise NotImplementedError


class AllOf(Condition):
    """Triggers when every child event has succeeded (fails fast on error)."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self.triggered:
            if not event._ok:
                event._defused = True
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed(self._outcome())


class AnyOf(Condition):
    """Triggers as soon as any child event succeeds (fails fast on error)."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self.triggered:
            if not event._ok:
                event._defused = True
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            return
        self.succeed(self._outcome())


class Environment:
    """The simulation event loop.

    ``now`` is the current simulated time in integer nanoseconds.
    """

    def __init__(self, initial_time: int = 0) -> None:
        self.now: int = int(initial_time)
        #: the calendar: a heap of ``(time, eid, event)``
        self._queue: List = []
        #: event ids handed out so far (one per scheduled event)
        self._eid = 0
        self._active_process: Optional[Process] = None

    # -- event construction helpers ------------------------------------

    def event(self) -> Event:
        """A fresh untriggered event."""
        return Event(self)

    def timeout(self, delay: int, value: Any = None) -> Timeout:
        """An event that succeeds ``delay`` nanoseconds from now."""
        return Timeout(self, delay, value)

    def process(self, generator: ProcessGenerator, name: Optional[str] = None) -> Process:
        """Start a new process from ``generator``."""
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def grant_event(self, value: Any) -> Event:
        """A pre-processed successful event (the uncontended-grant path of
        ``Store.get`` / ``CapacityResource.request``).

        It never enters the calendar and takes no event id: a process
        yielding it resumes inline with ``value``.
        """
        event = Event(self)
        event._ok = True
        event._value = value
        event.callbacks = None
        return event

    # -- scheduling -----------------------------------------------------

    def _schedule(self, event: Event, delay: int = 0) -> None:
        self._eid += 1
        heappush(self._queue, (self.now + delay, self._eid, event))

    def run(self, until: Any = None) -> Any:
        """Run the simulation.

        ``until`` may be ``None`` (run until no events remain), an integer
        time, or an :class:`Event` (run until it triggers and return its
        value).

        Integer-horizon semantics (locked by ``tests/test_sim_core.py``):
        every event with timestamp ``<= until`` is processed before ``run``
        returns — including zero-delay cascades spawned *at* the horizon —
        and the clock is left exactly at ``until``.  Events scheduled after
        the horizon stay queued for the next ``run`` call.  This boundary
        is deterministic: two runs split at any horizon process the same
        events in the same order as one uninterrupted run.
        """
        if isinstance(until, Timeout) and until.callbacks is not None:
            # Timeouts are pre-succeeded at creation (``_ok`` is True long
            # before they dispatch), so waiting for the event would return
            # immediately having simulated nothing.  An undispatched timer
            # passed as ``until`` therefore runs as the integer horizon it
            # denotes.
            until = until._time
        if isinstance(until, Event):
            stop, limit = until, float("inf")
        else:
            stop = Event(self)  # nobody can trigger it: no event to wait for
            limit = float("inf") if until is None else int(until)
            if limit < self.now:
                raise ValueError(f"until={limit} is in the past (now={self.now})")
        queue = self._queue
        while queue and stop._ok is None and queue[0][0] <= limit:
            self.now, _, event = heappop(queue)
            callbacks, event.callbacks = event.callbacks, None
            for callback in callbacks:
                callback(event)
            if event._ok is False and not event._defused:
                raise event._value
        if stop is not until:
            if until is not None:
                self.now = limit
            return None
        if stop._ok is None:
            raise SimulationError(
                f"simulation ran out of events before {stop!r} triggered"
            )
        if not stop._ok:
            stop._defused = True
            raise stop._value
        return stop._value

    def peek(self) -> Optional[int]:
        """Time of the next scheduled event, or None if the calendar is empty."""
        return self._queue[0][0] if self._queue else None
