"""Host-speed calibration.

The hosts this benchmark runs on change speed over minutes (a noisy
neighbour, a shared core) and, on top of that, slow one vCPU down in
bursts of a second or less: the same null build takes 1.9 s and 3.0 s
ten seconds apart, and process CPU time moves with wall time.  A fixed
pure-Python probe, run between timed operations, slows down with the
host.  Every reported time is the measured wall time scaled by
``REFERENCE_S`` over the lower quartile of the run's probes: seconds at
the reference speed.  The lower quartile follows minute-scale drift but
not the bursts, which slow the probe more than they slow a long build;
one factor per run, because a probe next to one long build misses the
state changes inside it.  The probe shares no code with the system
under test, so a change to the system cannot move it.
"""

from __future__ import annotations

import time

from bench.stats import quartiles

#: The probe's time (best of three) on the reference host state: a
#: 2-vCPU x86-64 VM with Python 3.11 when no neighbour is busy.
REFERENCE_S = 0.004

#: Probe at most this often (seconds) between short requests.
PROBE_EVERY_S = 0.5


class _Node:
    __slots__ = ("kind", "kids", "value")

    def __init__(self, kind, kids, value):
        self.kind = kind
        self.kids = kids
        self.value = value


def _tree(depth: int, seed: int) -> _Node:
    if depth == 0:
        return _Node("leaf", (), seed)
    return _Node(f"op{depth % 3}",
                 [_tree(depth - 1, seed * 3 + k) for k in range(3)], None)


def _walk(node: _Node, env: dict) -> int:
    if node.kind == "leaf":
        return env.get(node.value % 17, node.value)
    total = 0
    for kid in node.kids:
        total += _walk(kid, env)
    env[total % 17] = total
    return total


def probe() -> float:
    """Seconds for one fixed unit of interpreter work: allocating and
    walking a small tree, then dictionary and string traffic -- the
    interpreter paths a compiler written in Python exercises."""
    started = time.perf_counter()
    _walk(_tree(7, 1), {})
    counts: dict[str, int] = {}
    for i in range(8000):
        key = f"k{i % 977}"
        counts[key] = counts.get(key, 0) + i
    sorted(counts.items(), key=lambda item: item[1])
    return time.perf_counter() - started


class Calibration:
    """The probe points of one run and the run's scale factor."""

    def __init__(self):
        self.probes: list[float] = []
        self._last = float("-inf")

    def probe(self) -> None:
        self.probes.append(min(probe() for _ in range(3)))
        self._last = time.perf_counter()

    def maybe_probe(self) -> None:
        if time.perf_counter() - self._last >= PROBE_EVERY_S:
            self.probe()

    def scale(self) -> float:
        """``REFERENCE_S`` over the lower quartile of the run's probes."""
        return REFERENCE_S / quartiles(self.probes)[0]
