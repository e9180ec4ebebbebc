"""Correctness checks the benchmark applies before it reports a number.

Every check returns a list of human-readable problems; an empty list
means the check passed.  The benchmark exits non-zero when any check of a
run reports a problem.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List, Sequence

import numpy as np


def digest(record: Dict) -> str:
    """A stable hash of one rep's simulated results and counts."""
    text = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def repeat_problems(label: str, digests: Sequence[str]) -> List[str]:
    """Every rep of a run used the same seed, so every digest must match."""
    distinct = sorted(set(digests))
    if len(distinct) <= 1:
        return []
    return [
        f"{label} differ across {len(digests)} repeats of the same seed "
        f"({len(distinct)} distinct digests): a rerun is not deterministic"
    ]


def accounting_problems(outcome) -> List[str]:
    """Every issued I/O settled, and completed + failed == issued."""
    problems = []
    if outcome.unsettled:
        problems.append(f"{outcome.unsettled} I/Os never settled")
    settled = outcome.completed + outcome.failed + outcome.unsettled
    if settled != outcome.issued:
        problems.append(
            f"{outcome.issued} I/Os issued but {outcome.completed} completed "
            f"+ {outcome.failed} failed"
        )
    if outcome.completed == 0:
        problems.append("no I/O completed")
    return problems


def readback_problems(expected: np.ndarray, got: np.ndarray) -> List[str]:
    """The bytes read back must equal the bytes written, every one of them."""
    if len(got) != len(expected):
        return [f"read back {len(got)} bytes, expected {len(expected)}"]
    bad = np.flatnonzero(np.asarray(got) != np.asarray(expected))
    if bad.size:
        return [
            f"read back {bad.size} wrong bytes of {len(expected)}; "
            f"first at offset {int(bad[0])}"
        ]
    return []
