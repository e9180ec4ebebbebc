"""The benchmark's three workloads.

Each workload builds fresh simulated testbeds from the public API
(:meth:`Workload.setup`), runs a fixed amount of simulated work on them
(:meth:`Workload.run`) and checks the result afterwards
(:meth:`Workload.verify`).  The seed fixes every input: FIO offsets,
tenant arrival clocks and the prefilled payload.  Window lengths are
multiplied by ``scale`` so tests can run the same code on short windows.

Every I/O a workload issues goes through an :class:`IoTally`, a
pass-through proxy that counts I/Os issued, completed and failed without
touching the simulation, so the benchmark can show that every I/O is
accounted for.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from repro.cluster import ClusterConfig, build_cluster
from repro.draid import EcDraidArray, EcGeometry
from repro.experiments.common import build_array
from repro.metrics.latency import LatencyRecorder
from repro.rack import (
    ArraySpec,
    HotSpotBalancer,
    RackConfig,
    RackQosConfig,
    build_rack,
)
from repro.raid.rebuild import RebuildJob
from repro.sim import Environment
from repro.workloads import FioWorkload, MultiTenantWorkload, TenantSpec

KB = 1024
MB = 1_000_000
MS = 1_000_000

#: settled I/Os are dropped from an :class:`IoTally` every this many issues,
#: which bounds the completed read payloads it keeps alive
SWEEP_EVERY = 256


class IoTally:
    """Pass-through proxy for an array or volume that accounts every I/O.

    ``read``/``write`` forward to the wrapped object and keep the returned
    completion event until it has settled; every other attribute is the
    wrapped object's own.  Call :meth:`sweep` after the simulation has
    drained to settle the last I/Os.
    """

    def __init__(self, target) -> None:
        self.target = target
        self.issued = 0
        self.completed = 0
        self.completed_bytes = 0
        #: failure exception class name -> count
        self.errors: Counter = Counter()
        self._pending: list = []

    def __getattr__(self, name):
        return getattr(self.target, name)

    def read(self, offset, nbytes, *args, **kwargs):
        return self._track(self.target.read(offset, nbytes, *args, **kwargs), nbytes)

    def write(self, offset, nbytes, *args, **kwargs):
        return self._track(self.target.write(offset, nbytes, *args, **kwargs), nbytes)

    def _track(self, event, nbytes):
        self.issued += 1
        self._pending.append((event, nbytes))
        if len(self._pending) >= SWEEP_EVERY:
            self.sweep()
        return event

    def sweep(self) -> None:
        """Count every settled I/O and forget it."""
        pending = []
        for event, nbytes in self._pending:
            if not event.triggered:
                pending.append((event, nbytes))
            elif event.ok:
                self.completed += 1
                self.completed_bytes += nbytes
            else:
                self.errors[type(event.value).__name__] += 1
        self._pending = pending

    @property
    def unsettled(self) -> int:
        return len(self._pending)


@dataclass
class Testbed:
    """The simulated objects one workload rep built, for the probes."""

    envs: List[Environment]
    clusters: list
    arrays: list
    tallies: List[IoTally]
    #: workload-specific objects (FIO generators, payload, rack, ...)
    parts: Dict[str, object] = field(default_factory=dict)


@dataclass
class Outcome:
    """The simulated results of one rep's run phase, or of several merged."""

    #: latency samples of the measurement windows
    latency: LatencyRecorder
    #: bytes behind the throughput figure, and the simulated window they span
    sim_bytes: float
    sim_ns: int
    #: workload-specific simulated figures (rebuild time, migrations, ...)
    extra: Dict[str, float]
    issued: int
    completed: int
    completed_bytes: int
    errors: Dict[str, int]
    unsettled: int

    @property
    def failed(self) -> int:
        return sum(self.errors.values())

    def figures(self) -> Dict[str, float]:
        """Simulated throughput (MB/s), latency percentiles (us), sample count."""
        summary = self.latency.summarize()
        return {
            "sim_mb_s": self.sim_bytes * 1e9 / self.sim_ns / MB,
            "sim_p50_us": summary.p50_ns / 1e3,
            "sim_p99_us": summary.p99_ns / 1e3,
            "latency_samples": summary.count,
        }

    @staticmethod
    def merged(outcomes: List["Outcome"]) -> "Outcome":
        """One outcome over several reps: samples and counts pooled,
        ``extra`` figures averaged."""
        errors: Counter = Counter()
        for o in outcomes:
            errors.update(o.errors)
        return Outcome(
            latency=LatencyRecorder.merged(*(o.latency for o in outcomes)),
            sim_bytes=sum(o.sim_bytes for o in outcomes),
            sim_ns=sum(o.sim_ns for o in outcomes),
            extra={
                k: sum(o.extra[k] for o in outcomes) / len(outcomes)
                for k in outcomes[0].extra
            },
            issued=sum(o.issued for o in outcomes),
            completed=sum(o.completed for o in outcomes),
            completed_bytes=sum(o.completed_bytes for o in outcomes),
            errors=dict(sorted(errors.items())),
            unsettled=sum(o.unsettled for o in outcomes),
        )


def _tally_outcome(
    tallies: List[IoTally], recorders, sim_bytes: float, sim_ns: int, extra
) -> Outcome:
    errors: Counter = Counter()
    for tally in tallies:
        tally.sweep()
        errors.update(tally.errors)
    return Outcome(
        latency=LatencyRecorder.merged(*recorders),
        sim_bytes=sim_bytes,
        sim_ns=sim_ns,
        extra=extra,
        issued=sum(t.issued for t in tallies),
        completed=sum(t.completed for t in tallies),
        completed_bytes=sum(t.completed_bytes for t in tallies),
        errors=dict(sorted(errors.items())),
        unsettled=sum(t.unsettled for t in tallies),
    )


def _window_bytes(result) -> float:
    """Bytes a FIO window moved, from its bandwidth and length."""
    return result.bandwidth_mb_s * MB * result.measured_ns / 1e9


class Workload:
    """One benchmark workload; subclasses fill in the three phases."""

    name = ""
    why = ""
    #: seeds a benchmark run derives from its ``--seed`` and cycles through
    SUB_SEEDS = 4

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        if scale <= 0:
            raise ValueError(f"scale must be positive, got {scale}")
        self.seed = seed
        self.scale = scale

    def _ns(self, ms: float) -> int:
        return max(1, int(ms * self.scale * MS))

    def setup(self) -> Testbed:
        raise NotImplementedError

    def run(self, bed: Testbed) -> Outcome:
        raise NotImplementedError

    def verify(self, bed: Testbed, outcome: Outcome) -> List[str]:
        """Checks made after the timed run; returns the problems found."""
        return []


class FioRmw4k(Workload):
    """Closed-loop 4 KiB random writes at QD 64 on Linux, SPDK and dRAID.

    RAID-5 over 8 targets with 512 KiB chunks, timing mode: every write is
    a read-modify-write, the most kernel events per I/O of any workload.
    The three controllers run back to back, each on its own testbed.
    """

    name = "fio-rmw-4k"
    why = "4 KiB random-write RMW on Linux, SPDK and dRAID: most kernel events per I/O, no EC work"
    SYSTEMS = ("Linux", "SPDK", "dRAID")
    IO = 4 * KB
    QD = 64
    WARMUP_MS = 1.0
    MEASURE_MS = 2.0
    SUB_SEEDS = 8

    def setup(self) -> Testbed:
        arrays, tallies, fios = [], [], []
        for system in self.SYSTEMS:
            array = build_array(system)
            tally = IoTally(array)
            fios.append(
                FioWorkload(
                    tally, self.IO, read_fraction=0.0, queue_depth=self.QD,
                    seed=self.seed,
                )
            )
            arrays.append(array)
            tallies.append(tally)
        return Testbed(
            envs=[a.env for a in arrays],
            clusters=[a.cluster for a in arrays],
            arrays=arrays,
            tallies=tallies,
            parts={"fios": fios},
        )

    def run(self, bed: Testbed) -> Outcome:
        fios = bed.parts["fios"]
        results = []
        for fio, env in zip(fios, bed.envs):
            results.append(
                fio.run(
                    warmup_ns=self._ns(self.WARMUP_MS),
                    measure_ns=self._ns(self.MEASURE_MS),
                )
            )
            env.run()  # drain the I/Os still in flight when the window closed
        return _tally_outcome(
            bed.tallies,
            [rec for f in fios for rec in (f.reads, f.writes)],
            sim_bytes=sum(_window_bytes(r) for r in results),
            sim_ns=sum(r.measured_ns for r in results),
            extra={},
        )

    def verify(self, bed: Testbed, outcome: Outcome) -> List[str]:
        reported = sum(f.io_errors for f in bed.parts["fios"])
        if reported != outcome.failed:
            return [f"FIO reports {reported} I/O errors, the tally saw {outcome.failed}"]
        return []


class EcDegradedRebuild(Workload):
    """Functional RS(k=5, m=3) dRAID: degraded reads, then a rebuild.

    The ``geometries`` figure's rotating/rs/draid cell: 8 servers, 32 KiB
    chunks, real bytes.  Set-up prefills every stripe with seeded bytes;
    the run fails one drive, drives closed-loop 16 KiB degraded reads at
    QD 32, then rebuilds the failed member with foreground I/O stopped.
    :meth:`verify` reads every prefilled byte back.  (The figure uses QD
    16, where reads never queue and the median latency is the same service
    time on every seed.)
    """

    name = "ec-degraded-rebuild"
    why = "functional RS(5,3) dRAID degraded reads plus rebuild: EC math and byte copies lead, kernel share lowest"
    SERVERS = 8
    PARITY = 3
    CHUNK = 32 * KB
    STRIPES = 48
    IO = 16 * KB
    QD = 32
    VICTIM = 0
    WARMUP_MS = 0.5
    MEASURE_MS = 4.0
    REBUILD_STEP_MS = 0.25

    def setup(self) -> Testbed:
        env = Environment()
        cluster = build_cluster(
            env,
            ClusterConfig(
                num_servers=self.SERVERS,
                functional_capacity=self.STRIPES * self.CHUNK,
            ),
        )
        geometry = EcGeometry(self.SERVERS, self.CHUNK, self.PARITY)
        array = EcDraidArray(cluster, geometry)
        stripe_bytes = geometry.stripe_data_bytes
        payload = np.random.default_rng(self.seed).integers(
            0, 256, size=self.STRIPES * stripe_bytes, dtype=np.uint8
        )

        def prefill():
            for offset in range(0, len(payload), stripe_bytes):
                yield array.write(
                    offset, stripe_bytes, payload[offset : offset + stripe_bytes]
                )

        env.process(prefill(), name="bench.prefill")
        env.run()
        return Testbed(
            envs=[env],
            clusters=[cluster],
            arrays=[array],
            tallies=[IoTally(array)],
            parts={"payload": payload},
        )

    def run(self, bed: Testbed) -> Outcome:
        (env,), (array,), (tally,) = bed.envs, bed.arrays, bed.tallies
        array.fail_drive(self.VICTIM)
        fio = FioWorkload(
            tally, self.IO, read_fraction=1.0, queue_depth=self.QD,
            capacity=len(bed.parts["payload"]), seed=self.seed,
        )
        result = fio.run(
            warmup_ns=self._ns(self.WARMUP_MS), measure_ns=self._ns(self.MEASURE_MS)
        )
        env.run()
        job = RebuildJob(array, self.VICTIM, self.STRIPES)
        done = job.start()
        # advance in steps, so the run can be timed in slices (see run.py)
        while not done.triggered:
            env.run(until=env.now + self._ns(self.REBUILD_STEP_MS))
        env.run()
        bed.parts["fio"] = fio
        return _tally_outcome(
            bed.tallies,
            [fio.reads],
            sim_bytes=_window_bytes(result),
            sim_ns=result.measured_ns,
            extra={
                "rebuild_sim_ms": job.stats.elapsed_ns / 1e6,
                "still_failed": len(array.failed),
            },
        )

    def verify(self, bed: Testbed, outcome: Outcome) -> List[str]:
        from perfbench.gate import readback_problems

        problems = []
        if bed.parts["fio"].io_errors != outcome.failed:
            problems.append("FIO and the tally disagree on failed reads")
        if outcome.extra["still_failed"]:
            problems.append("the rebuild left a member failed")
        return problems + readback_problems(bed.parts["payload"], self.read_back(bed))

    def read_back(self, bed: Testbed) -> np.ndarray:
        """Every prefilled byte, read through the array after the rebuild."""
        (env,), (array,) = bed.envs, bed.arrays
        payload = bed.parts["payload"]
        stripe_bytes = array.geometry.stripe_data_bytes
        chunks = []

        def reader():
            for offset in range(0, len(payload), stripe_bytes):
                data = yield array.read(offset, stripe_bytes)
                chunks.append(np.asarray(data, dtype=np.uint8))

        env.process(reader(), name="bench.readback")
        env.run()
        return np.concatenate(chunks) if chunks else np.zeros(0, dtype=np.uint8)


class RackTenancy(Workload):
    """A QoS-armed two-array dRAID rack shared by open-loop tenants.

    64 KiB I/O, 90% reads, 5 ms latency budget.  On ``a0``: a Poisson
    victim with fair-share weight 4, a bursty aggressor above its
    token-bucket cap (its volume is too large to move) and two hot tenants
    that push the front door past the :class:`HotSpotBalancer` threshold,
    which live-migrates one of them to ``a1``.  ``a1`` carries a steady
    tenant.  Latency counts from each arrival's due time and pools every
    tenant; refused I/Os (``Busy``) are the admission policy at work.
    """

    name = "rack-tenancy"
    why = "QoS-armed two-array rack: open-loop tenants, WFQ, token buckets, Busy rejects and one live migration"
    #: closed-loop saturation of one 8-server dRAID array at 64 KiB, 90% reads
    SATURATION_IOPS = 195_000.0
    IO = 64 * KB
    READ_FRACTION = 0.9
    DEADLINE_MS = 5.0
    SMALL_VOLUME = 2 << 20
    #: the aggressor's volume does not fit the cool array, so the
    #: balancer always moves a hot tenant
    LARGE_VOLUME = 64 << 20
    COOL_EXPORT = 32 << 20
    BALANCER_INTERVAL_MS = 0.5
    #: tenant -> offered load as a multiple of :attr:`SATURATION_IOPS`
    LOADS = {"victim": 0.3, "noisy": 0.6, "hot0": 0.35, "hot1": 0.35, "steady": 0.2}
    NOISY_CAP_MB_S = 2000.0
    #: the warm-up covers the migration, so the window is its aftermath
    WARMUP_MS = 5.0
    MEASURE_MS = 12.0
    #: after the window, arrivals settle within their budget plus this
    DRAIN_SLACK_MS = 1.0
    SUB_SEEDS = 2

    def _tenants(self) -> List[TenantSpec]:
        common = dict(
            read_fraction=self.READ_FRACTION,
            deadline_ns=int(self.DEADLINE_MS * MS),
        )
        knobs = {
            "victim": dict(weight=4.0, pin="a0"),
            "noisy": dict(arrival="bursty", rate_limit_mb_s=self.NOISY_CAP_MB_S,
                          volume_bytes=self.LARGE_VOLUME, pin="a0"),
            "hot0": dict(pin="a0"),
            "hot1": dict(pin="a0"),
            "steady": dict(pin="a1"),
        }
        tenants = []
        for i, (name, load) in enumerate(self.LOADS.items()):
            knob = {"volume_bytes": self.SMALL_VOLUME, **knobs[name]}
            tenants.append(
                TenantSpec(name, self.IO, load * self.SATURATION_IOPS,
                           seed=self.seed * 16 + i, **common, **knob)
            )
        return tenants

    def setup(self) -> Testbed:
        arrays = [
            ArraySpec(system="dRAID", servers=8, chunk_bytes=64 * KB, name="a0"),
            ArraySpec(system="dRAID", servers=8, chunk_bytes=64 * KB, name="a1",
                      export_bytes=self.COOL_EXPORT),
        ]
        rack = build_rack(None, RackConfig(arrays=arrays, qos=RackQosConfig()))
        workload = MultiTenantWorkload(rack, self._tenants())
        tallies = []
        for stream in workload.streams.values():
            stream.array = IoTally(stream.array)
            tallies.append(stream.array)
        balancer = HotSpotBalancer(
            rack, interval_ns=int(self.BALANCER_INTERVAL_MS * MS), high_backlog=24, low_backlog=8,
            max_migrations=1, extent_bytes=512 * KB,
        )
        return Testbed(
            envs=[rack.env],
            clusters=[a.cluster for a in rack.arrays],
            arrays=[a.array for a in rack.arrays],
            tallies=tallies,
            parts={"rack": rack, "workload": workload, "balancer": balancer},
        )

    def run(self, bed: Testbed) -> Outcome:
        rack, workload = bed.parts["rack"], bed.parts["workload"]
        window_ns = self._ns(self.MEASURE_MS)
        results = workload.run(
            warmup_ns=self._ns(self.WARMUP_MS),
            measure_ns=window_ns,
            drain_ns=int((self.DEADLINE_MS + self.DRAIN_SLACK_MS) * MS),
        )
        bed.parts["balancer"].stop()
        rack.env.run()
        bed.parts["results"] = results
        migrations = rack.volumes.migrations
        return _tally_outcome(
            bed.tallies,
            [rec for s in workload.streams.values() for rec in (s.reads, s.writes)],
            # goodput: bytes that completed within their latency budget
            sim_bytes=sum(r.goodput_mb_s for r in results.values()) * MB * window_ns / 1e9,
            sim_ns=window_ns,
            extra={
                "migrations": len(migrations),
                "migrated_mb": sum(m.moved_bytes for m in migrations) / MB,
            },
        )

    def verify(self, bed: Testbed, outcome: Outcome) -> List[str]:
        problems = []
        for name, r in bed.parts["results"].items():
            settled = r.ops_completed + r.busy_rejections + r.deadline_failures + r.io_errors
            if settled != r.ops_offered:
                problems.append(
                    f"tenant {name}: {r.ops_offered} offered but {settled} settled"
                )
        if outcome.extra["migrations"] != 1:
            problems.append(
                f"expected exactly one live migration, saw {outcome.extra['migrations']}"
            )
        return problems


#: workload name -> class, in the order ``BENCHMARK.json`` lists them
WORKLOADS = {w.name: w for w in (FioRmw4k, EcDegradedRebuild, RackTenancy)}
