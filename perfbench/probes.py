"""Per-layer measurements for the traced run, all taken from outside ``src``.

Three sources, each named after the ``repro`` package it measures:

* :class:`Probes` wraps public entry points of the layers at class level
  and counts calls (and, for ``ec``, bytes and host seconds).  The
  wrappers call the original unchanged, so the simulation is identical
  with or without them; the benchmark checks that it is.
* :func:`layer_stats` reads counters the layers already keep: CPU-core,
  NIC and drive busy time, NIC and drive bytes, target and bdev command
  counts, stripe-lock contention, and the kernel's event-id counter.
* :func:`self_shares` groups a cProfile of one rep by ``repro`` package.
"""

from __future__ import annotations

import inspect
import os
import pstats
from collections import Counter
from time import perf_counter
from typing import Callable, Dict, List, Optional

from repro.cluster.machines import CpuCore
from repro.ec.gf import GF256
from repro.ec.rs import ReedSolomon
from repro.net.fabric import ConnectionEnd
from repro.raid.locks import StripeLockManager
from repro.sim.core import Environment
from repro.sim.resources import BandwidthChannel

#: Layers reported in the traced run, as ``repro`` package names.
LAYERS = (
    "sim.core", "sim.resources", "cluster", "net", "nvmeof", "draid",
    "baselines", "raid", "ec", "storage", "workloads", "qos", "rack",
)

#: counter name -> (class, method) whose calls it counts
CALL_COUNTERS = {
    "sim.core.processes": [(Environment, "process")],
    "sim.core.timers": [(Environment, "timeout")],
    "sim.resources.reserves": [(BandwidthChannel, "reserve")],
    "cluster.cpu_charges": [(CpuCore, "execute")],
    "net.transfers": [
        (ConnectionEnd, "send"),
        (ConnectionEnd, "rdma_read"),
        (ConnectionEnd, "rdma_write"),
    ],
    "raid.lock_acquires": [(StripeLockManager, "acquire")],
}


#: (class, method, is_decode, bytes coded by one call given its arguments)
EC_ENTRY_POINTS = [
    (ReedSolomon, "encode", False, lambda a: sum(len(s) for s in a["data_shards"])),
    (ReedSolomon, "partial_parity", False, lambda a: len(a["block"])),
    (ReedSolomon, "decode", True, lambda a: len(a["shards"]) * a["length"]),
    (GF256, "mul_bytes", False, lambda a: len(a["data"])),
    (GF256, "mul_bytes_inplace_xor", False, lambda a: len(a["data"])),
]


class Probes:
    """Counting wrappers on the layers' entry points, active inside ``with``.

    Install them before building a testbed, so objects that bind a method
    at construction bind the wrapper.  ``ec`` calls nested inside another
    ``ec`` call are neither counted nor timed twice.
    """

    def __init__(self) -> None:
        self.counts: Counter = Counter()
        self.ec_seconds = 0.0
        self._ec_depth = 0
        self._saved: List = []

    def __enter__(self) -> "Probes":
        for key, targets in CALL_COUNTERS.items():
            for cls, method in targets:
                self._patch(cls, method, self._counting(key, getattr(cls, method)))
        for cls, method, is_decode, nbytes in EC_ENTRY_POINTS:
            self._patch(cls, method, self._ec(getattr(cls, method), is_decode, nbytes))
        return self

    def __exit__(self, *exc) -> None:
        for cls, method, original in reversed(self._saved):
            setattr(cls, method, original)
        self._saved.clear()

    def _patch(self, cls, method: str, wrapper: Callable) -> None:
        self._saved.append((cls, method, cls.__dict__[method]))
        setattr(cls, method, wrapper)

    def _counting(self, key: str, original: Callable) -> Callable:
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)

        return wrapper

    def _ec(self, original: Callable, is_decode: bool, nbytes: Callable) -> Callable:
        counts = self.counts
        signature = inspect.signature(original)

        def wrapper(*args, **kwargs):
            if self._ec_depth:
                return original(*args, **kwargs)
            self._ec_depth += 1
            start = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                self.ec_seconds += perf_counter() - start
                self._ec_depth -= 1
                counts["ec.calls"] += 1
                counts["ec.decode_calls"] += is_decode
                counts["ec.bytes_coded"] += nbytes(
                    signature.bind(*args, **kwargs).arguments
                )

        return wrapper

    def snapshot(self) -> Dict[str, float]:
        return {**self.counts, "ec.seconds": self.ec_seconds}


def _machines(cluster) -> list:
    return [cluster.host, *cluster.servers]


def layer_stats(bed) -> Dict[str, float]:
    """Counters the layers keep themselves, summed over one testbed.

    ``*.busiest_ns`` keeps, per cluster, the busy time of its busiest
    instance (divided by its internal parallelism) and sums those, so
    dividing by ``sim.elapsed_ns`` gives the mean busy fraction of each
    cluster's bottleneck.
    """
    out: Counter = Counter()
    for env in bed.envs:
        out["sim.core.events"] += env._eid  # the kernel's event-id counter
    for cluster in bed.clusters:
        out["sim.elapsed_ns"] += cluster.env.now
        cores = [c for m in _machines(cluster) for c in m.cores]
        out["cluster.busiest_ns"] += max(c.busy_ns for c in cores)
        channels = [
            ch for m in _machines(cluster) for nic in m.nics for ch in (nic.tx, nic.rx)
        ]
        out["net.busiest_ns"] += max(ch.busy_ns / ch.parallelism for ch in channels)
        out["net.host_nic_bytes"] += sum(
            nic.tx_bytes + nic.rx_bytes for nic in cluster.host.nics
        )
        drives = [d for s in cluster.servers for d in s.drives]
        out["storage.busiest_ns"] += max(
            d.stats.busy_ns / d.profile.parallelism for d in drives
        )
        for d in drives:
            out["storage.cmds"] += d.stats.read_ops + d.stats.write_ops
            out["storage.bytes"] += d.stats.bytes_read + d.stats.bytes_written
    for array in bed.arrays:
        out["nvmeof.commands"] += sum(
            t.commands_served for t in getattr(array, "targets", ())
        )
        out["draid.bdev_commands"] += sum(
            b.commands_served for b in getattr(array, "bdev_servers", ())
        )
        out["raid.lock_contended"] += array.locks.contended_acquires
    return dict(out)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(delta: Dict[str, float], outcome) -> Dict[str, float]:
    """The traced run's work counts, from counter deltas over one run phase."""
    d = Counter(delta)
    ios = outcome.completed
    user_bytes = outcome.completed_bytes
    elapsed = d["sim.elapsed_ns"]
    return {
        "sim.core.events_per_io": _ratio(d["sim.core.events"], ios),
        "sim.core.processes_per_io": _ratio(d["sim.core.processes"], ios),
        "sim.core.timers_per_io": _ratio(d["sim.core.timers"], ios),
        "sim.resources.reserves_per_io": _ratio(d["sim.resources.reserves"], ios),
        "cluster.cpu_charges_per_io": _ratio(d["cluster.cpu_charges"], ios),
        "cluster.cpu_busy_frac": _ratio(d["cluster.busiest_ns"], elapsed),
        "net.transfers_per_io": _ratio(d["net.transfers"], ios),
        "net.host_nic_bytes_per_user_byte": _ratio(d["net.host_nic_bytes"], user_bytes),
        "net.nic_busy_frac": _ratio(d["net.busiest_ns"], elapsed),
        "nvmeof.commands_per_io": _ratio(d["nvmeof.commands"], ios),
        "draid.bdev_commands_per_io": _ratio(d["draid.bdev_commands"], ios),
        "raid.lock_contended_share": _ratio(
            d["raid.lock_contended"], d["raid.lock_acquires"]
        ),
        "raid.rebuild_sim_ms": outcome.extra.get("rebuild_sim_ms", 0.0),
        "ec.bytes_coded_per_user_byte": _ratio(d["ec.bytes_coded"], user_bytes),
        "ec.decode_calls_per_io": _ratio(d["ec.decode_calls"], ios),
        "storage.drive_bytes_per_user_byte": _ratio(d["storage.bytes"], user_bytes),
        "storage.drive_cmds_per_io": _ratio(d["storage.cmds"], ios),
        "storage.drive_busy_frac": _ratio(d["storage.busiest_ns"], elapsed),
        "qos.busy_share": _ratio(outcome.errors.get("Busy", 0), outcome.issued),
        "qos.deadline_fail_share": _ratio(
            outcome.errors.get("DeadlineExceeded", 0), outcome.issued
        ),
        "rack.migrations": float(outcome.extra.get("migrations", 0)),
        "rack.migrated_mb": float(outcome.extra.get("migrated_mb", 0.0)),
    }


# -- cProfile self time by package ---------------------------------------------

_SRC_MARK = os.sep + os.path.join("src", "repro") + os.sep


def _layer_of_file(filename: str) -> Optional[str]:
    """``repro`` package of a source file (``sim`` split by module)."""
    at = filename.find(_SRC_MARK)
    if at < 0:
        return None
    parts = filename[at + len(_SRC_MARK):].split(os.sep)
    if parts[0] == "sim":
        return "sim.resources" if parts[-1] == "resources.py" else "sim.core"
    return parts[0].removesuffix(".py")


def self_shares(profile) -> Dict[str, float]:
    """Share of profiled self time per layer of :data:`LAYERS`.

    Self time of code outside ``repro`` (builtins such as
    ``generator.send`` and ``heapq``, NumPy, the standard library) is
    charged to the layer of each caller in proportion to the time spent
    on behalf of that caller; a caller outside ``repro`` is resolved
    through its own dominant caller.
    """
    stats = pstats.Stats(profile).stats
    owners: Dict = {}

    def owner(func) -> str:
        if func not in owners:
            owners[func] = "other"  # provisional, so caller cycles end
            layer = _layer_of_file(func[0])
            callers = stats.get(func, (0, 0, 0, 0, {}))[4]
            if layer is None and callers:
                layer = owner(max(callers, key=lambda c: (callers[c][3], c)))
            owners[func] = layer or "other"
        return owners[func]

    time_by_layer: Counter = Counter()
    for func, (_cc, _nc, tt, _ct, callers) in stats.items():
        if _layer_of_file(func[0]) is not None or not callers:
            time_by_layer[owner(func)] += tt
            continue
        for caller, edge in callers.items():
            time_by_layer[owner(caller)] += edge[2]
    total = sum(time_by_layer.values())
    return {f"{layer}.self_share": _ratio(time_by_layer[layer], total) for layer in LAYERS}
