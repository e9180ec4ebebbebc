"""Run one benchmark workload and print its metrics.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload fio-rmw-4k --seed 1 --seconds 20 --trace 0

A run derives the workload's ``SUB_SEEDS`` seeds from ``--seed`` and cycles
through them; one cycle is the workload's fixed simulated work.  Each rep
builds fresh testbeds for one sub-seed (timed as set-up), runs that
sub-seed's simulated work (timed as the run, in process CPU seconds) and
checks the result.  Reps go round-robin over the sub-seeds until
``--seconds`` of wall time have passed and every sub-seed ran at least
twice; one extra rep first warms the interpreter up.  The simulated
results pool one cycle.

The host is shared, and how busy it is changes from minute to minute.  So
a fixed pure-Python loop (:func:`calibrate`, about 20 ms on a quiet host)
runs between every two reps, and each rep's host times are divided by its
**slowdown**: the mean of the calibrations just before and just after it,
over :data:`REFERENCE_CALIBRATION_S`.  Host metrics are medians of these
corrected times: ``run_s`` sums, over the sub-seeds, the median corrected
run time of each, ``sim_ios_per_wall_s`` is one cycle's I/Os over
``run_s``, and ``setup_s`` is built like ``run_s`` from set-up times.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` is a separate
run that alternates plain reps with reps under the counting probes, adds
a few reps under cProfile, and prints the per-layer metrics.  The last
line of standard output is one JSON object.  The exit code is 0 when every
correctness check passed, 1 when one failed and 2 when the benchmark could
not start.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent

#: every sub-seed runs at least this many times, whatever ``--seconds`` says
MIN_REPEATS = 2
#: the traced run profiles one rep of each of the first this many sub-seeds
PROFILED_SUBS = 2
#: :func:`calibrate` on a quiet 2-core x86 cloud VM, Python 3.11; host
#: metrics are scaled to a host that runs the calibration this fast
REFERENCE_CALIBRATION_S = 0.02
#: failure kinds that are the QoS admission policy at work, not errors
REFUSALS = ("Busy", "DeadlineExceeded")


@dataclass
class Rep:
    """One rep: host times, simulated outcome and the checks' verdict."""

    setup_s: float
    run_s: float
    outcome: object
    digest: str
    problems: List[str]
    #: reps under the probes only: raw counter deltas over the run phase
    delta: Dict[str, float] = field(default_factory=dict)
    #: how much slower than the reference host the host ran around this rep
    slowdown: float = 1.0


def one_rep(workload, probes=None, profile=None) -> Rep:
    """Set up, run and verify ``workload`` once."""
    from perfbench import gate
    from perfbench.probes import layer_stats

    gc.collect()
    t0 = time.process_time()
    bed = workload.setup()
    t1 = time.process_time()
    events_before = sum(env._eid for env in bed.envs)
    before = {}
    if probes is not None:
        before = {**probes.snapshot(), **layer_stats(bed)}
    if profile is not None:
        profile.enable()
    t2 = time.process_time()
    outcome = workload.run(bed)
    t3 = time.process_time()
    if profile is not None:
        profile.disable()
    delta = {}
    if probes is not None:
        after = {**probes.snapshot(), **layer_stats(bed)}
        delta = {k: v - before.get(k, 0) for k, v in after.items()}
    record = {
        "figures": outcome.figures(),
        "extra": outcome.extra,
        "issued": outcome.issued,
        "completed": outcome.completed,
        "completed_bytes": outcome.completed_bytes,
        "errors": outcome.errors,
        "events": sum(env._eid for env in bed.envs) - events_before,
    }
    problems = gate.accounting_problems(outcome)
    unexpected = {k: n for k, n in outcome.errors.items() if k not in REFUSALS}
    if unexpected:
        problems.append(f"I/Os failed with errors: {unexpected}")
    problems += workload.verify(bed, outcome)
    return Rep(t1 - t0, t3 - t2, outcome, gate.digest(record), problems, delta)


def calibrate(rounds: int = 32_000) -> float:
    """CPU seconds of a fixed pure-Python event loop: the host's speed now.

    The loop resembles the simulator's own hot path (generators resumed
    from a heap, small dicts allocated and dropped) but uses no code from
    ``src``, so no change to the simulator can move it.  It runs with the
    cyclic garbage collector emptied and then off: a collection of the
    last testbed's garbage would otherwise land inside the loop and make
    it two to three times slower.
    """
    import heapq

    def ticker(i):
        n = 0
        while True:
            n += 1
            yield (n * 7 + i) % 13 + 1

    gc.collect()
    gc.disable()
    try:
        start = time.process_time()
        tickers = [ticker(i) for i in range(64)]
        heap = [(next(t), i) for i, t in enumerate(tickers)]
        heapq.heapify(heap)
        records = []
        for _ in range(rounds):
            now, i = heapq.heappop(heap)
            records.append({"at": now, "who": i})
            if len(records) > 4096:
                records = []
            heapq.heappush(heap, (now + tickers[i].send(None), i))
        return time.process_time() - start
    finally:
        gc.enable()


def sub_workloads(cls, seed: int, scale: float = 1.0) -> list:
    """The ``cls.SUB_SEEDS`` workloads a run with ``seed`` cycles through."""
    return [cls(seed * cls.SUB_SEEDS + j, scale=scale) for j in range(cls.SUB_SEEDS)]


def _reps(subs, seconds: float, trace: bool):
    """Reps, round-robin over the sub-seeds, until ``seconds`` have passed.

    Every sub-seed runs at least :data:`MIN_REPEATS` times, plain and (when
    traced) under the probes; every such rep carries its slowdown.  Returns
    the warm-up rep, the plain and the probed reps of each sub-seed, and
    the reps of the first :data:`PROFILED_SUBS` sub-seeds under cProfile
    with their profile.
    """
    import cProfile

    from perfbench.probes import Probes

    start = time.perf_counter()
    warmup = one_rep(subs[0])
    calibrations = [calibrate()]

    def calibrated(rep: Rep) -> Rep:
        calibrations.append(calibrate())
        rep.slowdown = sum(calibrations[-2:]) / 2 / REFERENCE_CALIBRATION_S
        return rep

    plain: List[List[Rep]] = [[] for _ in subs]
    counted: List[List[Rep]] = [[] for _ in subs]
    turn = 0
    while (
        len(plain[-1]) < MIN_REPEATS
        or (trace and len(counted[-1]) < MIN_REPEATS)
        or time.perf_counter() - start < seconds
    ):
        j = turn % len(subs)
        plain[j].append(calibrated(one_rep(subs[j])))
        if trace:
            with Probes() as probes:
                counted[j].append(calibrated(one_rep(subs[j], probes=probes)))
        turn += 1
    profiled, profile = [], None
    if trace:
        profile = cProfile.Profile()
        profiled = [one_rep(w, profile=profile) for w in subs[:PROFILED_SUBS]]
    return warmup, plain, counted, profiled, profile


def _cycle_seconds(reps: List[List[Rep]], phase: str, corrected: bool = True) -> float:
    """Host seconds of one cycle's ``phase`` (``"setup_s"`` or ``"run_s"``).

    Sums, over the sub-seeds, the median over each sub-seed's reps of the
    phase's time, divided by the rep's slowdown unless ``corrected`` is
    false.
    """
    return sum(
        statistics.median(
            getattr(r, phase) / (r.slowdown if corrected else 1.0) for r in per_sub
        )
        for per_sub in reps
    )


def _counts(rep: Rep) -> Dict[str, float]:
    """A probed rep's counter deltas without the host-time ones."""
    return {k: v for k, v in rep.delta.items() if k != "ec.seconds"}


def measure(cls, seed: int, seconds: float, trace: bool, scale: float = 1.0) -> Dict:
    """Run workload class ``cls`` for ``seconds``; the benchmark's result.

    ``scale`` multiplies every simulated window; the tests shorten them.
    """
    from perfbench import gate
    from perfbench.probes import per_layer_metrics, self_shares
    from perfbench.workloads import Outcome

    subs = sub_workloads(cls, seed, scale)
    warmup, plain, counted, profiled, profile = _reps(subs, seconds, trace)
    all_reps = [warmup, *profiled] + [r for per_sub in plain + counted for r in per_sub]
    problems = []
    for j, sub in enumerate(subs):
        reps = plain[j] + counted[j] + profiled[j:j + 1] + ([warmup] if j == 0 else [])
        problems += gate.repeat_problems(
            f"simulated results and counts of sub-seed {sub.seed}",
            [r.digest for r in reps],
        )
        if trace:
            problems += gate.repeat_problems(
                f"per-layer work counts of sub-seed {sub.seed}",
                [gate.digest(_counts(r)) for r in counted[j]],
            )
    for rep in all_reps:
        problems += [p for p in rep.problems if p not in problems]
    outcome = Outcome.merged([per_sub[0].outcome for per_sub in plain])
    figures = outcome.figures()
    if trace:
        delta = Counter()
        for per_sub in counted:
            delta.update(per_sub[0].delta)
        ec_rates = [
            r.delta["ec.bytes_coded"] / 1e6 / r.delta["ec.seconds"] * r.slowdown
            for per_sub in counted for r in per_sub if r.delta.get("ec.seconds")
        ]
        metrics = {
            **per_layer_metrics(delta, Outcome.merged([c[0].outcome for c in counted])),
            "ec.host_mb_per_s": statistics.median(ec_rates) if ec_rates else 0.0,
            **self_shares(profile),
            "trace.overhead": _cycle_seconds(counted, "run_s") / _cycle_seconds(plain, "run_s"),
        }
    else:
        run_s = _cycle_seconds(plain, "run_s")
        metrics = {
            "sim_ios_per_wall_s": outcome.completed / run_s,
            "run_s": run_s,
            "setup_s": _cycle_seconds(plain, "setup_s"),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "sim_mb_s": figures["sim_mb_s"],
            "sim_p50_us": figures["sim_p50_us"],
            "sim_p99_us": figures["sim_p99_us"],
            "served_share": outcome.completed / outcome.issued,
        }
    failed = sum(
        n for r in all_reps for k, n in r.outcome.errors.items() if k not in REFUSALS
    ) + sum(r.outcome.unsettled for r in all_reps)
    return {
        "problems": problems,
        "slowdown": statistics.median(r.slowdown for c in plain for r in c),
        "raw_run_s": _cycle_seconds(plain, "run_s", corrected=False),
        "reps": len(all_reps),
        "samples": figures["latency_samples"],
        "attempted": sum(r.outcome.issued for r in all_reps),
        "failed": failed,
        "metrics": metrics,
    }


def _units() -> Dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for path in (str(ROOT), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; pick from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    result = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))

    units = _units()
    print(f"{args.workload}  seed {args.seed}: {result['reps']} reps over "
          f"{WORKLOADS[args.workload].SUB_SEEDS} sub-seeds, {result['attempted']} "
          f"I/Os attempted, {result['samples']} latency samples per cycle")
    print(f"host slowdown {result['slowdown']:.4f} (median over reps); "
          f"uncorrected run_s {result['raw_run_s']:.4f} s")
    for name, value in result["metrics"].items():
        print(f"  {name:36s} {value:16.6f} {units.get(name, '')}")
    for problem in result["problems"]:
        print(f"  CHECK FAILED: {problem}")
    correct = not result["problems"]
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": units.get(name, "")}
            for name, value in result["metrics"].items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
