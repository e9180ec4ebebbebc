"""Check that each workload still loads the layer it was chosen for.

Runs the traced mode of every workload on one seed (by default a seed
held out while the workloads were tuned) and checks:

* ``ec.self_share`` on ``ec-degraded-rebuild`` is at least 10x its value
  on ``fio-rmw-4k``;
* ``sim.core.self_share`` is highest on ``fio-rmw-4k`` or
  ``rack-tenancy``;
* ``qos`` and ``rack`` do work on ``rack-tenancy`` and on no other
  workload;
* NVMe-oF target commands appear only on ``fio-rmw-4k``, the only
  workload that runs the Linux and SPDK controllers.

Usage, from the root of the repository::

    python3 perfbench/check_layers.py --seed 7919 --seconds 5
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent

#: a seed no workload was tuned on
HELD_OUT_SEED = 7919


def layer_problems(shares: Dict[str, Dict[str, float]]) -> List[str]:
    """The layer-loading checks over ``{workload: per-layer metrics}``."""
    fio, ec, rack = shares["fio-rmw-4k"], shares["ec-degraded-rebuild"], shares["rack-tenancy"]
    problems = []
    if not ec["ec.self_share"] >= 10 * fio["ec.self_share"] or not ec["ec.self_share"]:
        problems.append(
            f"ec.self_share {ec['ec.self_share']:.4f} on ec-degraded-rebuild is not "
            f"10x its {fio['ec.self_share']:.4f} on fio-rmw-4k"
        )
    top = max(shares, key=lambda name: shares[name]["sim.core.self_share"])
    if top not in ("fio-rmw-4k", "rack-tenancy"):
        problems.append(f"sim.core.self_share is highest on {top}")
    for name, metrics in shares.items():
        for layer in ("qos", "rack"):
            busy = metrics[f"{layer}.self_share"] > 0
            if busy != (name == "rack-tenancy"):
                problems.append(
                    f"{layer}.self_share is {metrics[f'{layer}.self_share']:.4f} on {name}"
                )
        targets = metrics["nvmeof.commands_per_io"] > 0
        if targets != (name == "fio-rmw-4k"):
            problems.append(f"nvmeof.commands_per_io is "
                            f"{metrics['nvmeof.commands_per_io']:.3f} on {name}")
    if rack["rack.migrations"] != 1:
        problems.append(f"rack-tenancy made {rack['rack.migrations']} migrations")
    return problems


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=HELD_OUT_SEED)
    parser.add_argument("--seconds", type=float, default=5.0)
    args = parser.parse_args(argv)
    for path in (str(ROOT), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    from perfbench.run import measure
    from perfbench.workloads import WORKLOADS

    shares = {}
    failed = False
    for name, cls in WORKLOADS.items():
        result = measure(cls, args.seed, args.seconds, trace=True)
        shares[name] = result["metrics"]
        for problem in result["problems"]:
            print(f"{name}: CHECK FAILED: {problem}")
            failed = True
    columns = list(shares)
    print(f"seed {args.seed}")
    print(f"{'metric':36s}" + "".join(f"{c:>22s}" for c in columns))
    for metric in shares[columns[0]]:
        print(f"{metric:36s}" + "".join(f"{shares[c][metric]:22.4f}" for c in columns))
    problems = layer_problems(shares)
    for problem in problems:
        print(f"LAYER CHECK FAILED: {problem}")
    if problems or failed:
        return 1
    print("every workload loads the layer it was chosen for")
    return 0


if __name__ == "__main__":
    sys.exit(main())
