"""Correctness checks every benchmark run makes.

Each check returns a list of failure messages (empty when it passes),
so one run can report every failure at once. This module imports
nothing from the program: the checks read plain counts and call the
frame ledger's own ``check_frame_invariant``.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, List

#: Containment policies under which no VM may ever originate a packet
#: to the outside Internet.
SAFE_CONTAINMENTS = ("drop-all", "reflect")


def digest_of(doc: Any) -> str:
    """SHA-256 of the canonical JSON of ``doc``."""
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def check_conservation(leaked_by_unit: Dict[str, int]) -> List[str]:
    """Packet conservation: no farm (or shard) may leak a packet."""
    return [
        f"{unit}: packet ledger leaked {leaked} packets"
        for unit, leaked in sorted(leaked_by_unit.items())
        if leaked != 0
    ]


def check_frames(memories: Dict[str, Any]) -> List[str]:
    """The frame ledger balances on every host memory."""
    failures = []
    for name, memory in sorted(memories.items()):
        try:
            memory.check_frame_invariant()
        except AssertionError as exc:
            failures.append(f"{name}: {exc}")
    return failures


def check_containment(containment: str, escaped_by_unit: Dict[str, int]) -> List[str]:
    """Containment safety: under drop-all and reflect, no VM-initiated
    packet reaches the outside Internet."""
    if containment not in SAFE_CONTAINMENTS:
        return []
    return [
        f"{unit}: {escaped} VM-initiated packets escaped under {containment}"
        for unit, escaped in sorted(escaped_by_unit.items())
        if escaped != 0
    ]


def check_same_digest(digests: List[str], what: str = "behaviour digest") -> List[str]:
    """Determinism: every run of one invocation produced the same digest."""
    distinct = sorted(set(digests))
    if len(distinct) <= 1:
        return []
    return [f"{what} differs across {len(digests)} runs: {distinct}"]
