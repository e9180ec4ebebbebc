"""Canonical kernel microbenchmark workloads.

These are the fixed workloads behind ``scripts/bench_wallclock.py`` and
``benchmarks/test_perf_kernel.py``: a process ping-pong over stores, a
timeout churn that stresses the event calendar, and a bandwidth-channel
sweep that stresses :meth:`BandwidthChannel.reserve` under internal
parallelism.  Each returns the number of simulated operations executed so
callers can report operations per wall-clock second; the workload shapes
must stay fixed across versions for the numbers to be comparable.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Tuple

from repro.sim.core import Environment
from repro.sim.resources import NS_PER_S, BandwidthChannel, CapacityResource, Store

#: Calendar events created by the most recent workload run (``env._eid``
#: after the run: every scheduled event — timer, wake-up, process start —
#: is one heap entry and consumes exactly one id).  Lets harnesses report
#: an auditable event count next to the fixed operation count.
LAST_EVENT_COUNT = 0


def pingpong(rounds: int = 30_000) -> int:
    """Two processes exchange a token via two stores.

    Each round is four kernel operations: two store hand-offs and two
    timeouts.  Returns the operation count.
    """
    env = Environment()
    ping: Store = Store(env, name="ping")
    pong: Store = Store(env, name="pong")

    def player(inbox: Store, outbox: Store, serve_first: bool) -> object:
        if serve_first:
            outbox.put(0)
        for _ in range(rounds):
            token = yield inbox.get()
            yield env.timeout(5)
            outbox.put(token + 1)

    env.process(player(ping, pong, serve_first=False), name="ponger")
    env.process(player(pong, ping, serve_first=True), name="pinger")
    env.run()
    global LAST_EVENT_COUNT
    LAST_EVENT_COUNT = env._eid
    return rounds * 4


def timeout_churn(processes: int = 64, rounds: int = 600) -> int:
    """Many interleaved timers with co-prime periods (heap stress).

    Returns the operation count (one per timeout fired).
    """
    env = Environment()

    def ticker(period: int) -> object:
        for _ in range(rounds):
            yield env.timeout(period)

    for i in range(processes):
        env.process(ticker(3 + (i * 7) % 97), name=f"ticker{i}")
    env.run()
    global LAST_EVENT_COUNT
    LAST_EVENT_COUNT = env._eid
    return processes * rounds


def bandwidth_sweep(
    transfers: int = 24_000, workers: int = 48, parallelism: int = 8
) -> int:
    """Closed-loop transfers through one parallel bandwidth channel.

    Queue-depth-limited like a drive: stresses ``reserve``'s earliest-free
    server selection and the semaphore's grant/wake-up paths.  Returns the
    operation count (one per transfer).
    """
    env = Environment()
    channel = BandwidthChannel(
        env, rate_bytes_per_s=NS_PER_S * 64, parallelism=parallelism, name="bench"
    )
    slots = CapacityResource(env, capacity=workers, name="qd")
    per_worker = transfers // workers

    def worker() -> object:
        for _ in range(per_worker):
            yield slots.request()
            yield channel.transfer(4096)
            slots.release()

    for _ in range(workers):
        env.process(worker(), name="xfer")
    env.run()
    global LAST_EVENT_COUNT
    LAST_EVENT_COUNT = env._eid
    return per_worker * workers


#: name -> workload callable (fixed canonical parameters).
KERNEL_WORKLOADS: Dict[str, Callable[[], int]] = {
    "pingpong": pingpong,
    "timeout_churn": timeout_churn,
    "bandwidth_sweep": bandwidth_sweep,
}


def run_workload(name: str, repeats: int = 3) -> Tuple[float, int]:
    """Best-of-``repeats`` timing: returns (events_per_second, operations)."""
    fn = KERNEL_WORKLOADS[name]
    best = float("inf")
    ops = 0
    for _ in range(repeats):
        start = time.perf_counter()
        ops = fn()
        elapsed = time.perf_counter() - start
        best = min(best, elapsed)
    return ops / best, ops
