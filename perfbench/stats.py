"""Order statistics and CPU-speed normalisation for latency samples."""

from __future__ import annotations

import functools
import math
import random
import time

MIN_BEYOND = 10
# Time the probe takes on an uncontended CPU of the 2-vCPU virtual machine
# the benchmark was written on.  A constant, so normalised latencies
# compare across runs.
PROBE_REF_S = 120e-6


def percentile(samples, q: int, min_beyond: int = MIN_BEYOND) -> float:
    """Nearest-rank q-th percentile (q an integer in 1..99).

    Refuses to answer unless at least ``min_beyond`` samples rank above
    the returned one, so a reported tail is backed by that many
    observations: p50 needs 20 samples, p90 needs 100.
    """
    if not (isinstance(q, int) and 0 < q < 100):
        raise ValueError(f"q must be an integer in 1..99, got {q!r}")
    xs = sorted(samples)
    n = len(xs)
    rank = -(-q * n // 100)  # ceil(q n / 100) in integer arithmetic
    if n - rank < min_beyond:
        raise ValueError(f"p{q} of {n} samples has {max(n - rank, 0)} beyond it, "
                         f"need {min_beyond}")
    return xs[rank - 1]


def samples_needed(q: int, min_beyond: int = MIN_BEYOND) -> int:
    """Smallest sample count for which ``percentile(..., q)`` answers."""
    n = 1
    while n - (-(-q * n // 100)) < min_beyond:
        n += 1
    return n


@functools.cache
def _chase_ring(n: int = 1 << 16) -> list[int]:
    """ring[i] is the index after i on one random cycle through all n."""
    order = random.Random(0).sample(range(n), n)
    ring = [0] * n
    for a, b in zip(order, order[1:] + order[:1]):
        ring[a] = b
    return ring


def _spin_and_chase() -> int:
    x = 0
    for i in range(1500):  # arithmetic in registers and L1
        x += i * i
    ring, j = _chase_ring(), 0
    for _ in range(1000):  # dependent loads scattered over ~2 MB
        j = ring[j]
    return x + j


def cpu_probe() -> float:
    """Seconds a fixed Python loop takes now: the best of three tries.

    The loop mixes arithmetic with a pointer chase, since the host's
    neighbours slow cache-missing code (cgtp_sim, rules_exact) more than
    arithmetic, and a probe of one kind misjudges the other.
    """
    _chase_ring()
    best = math.inf
    for _ in range(3):
        t = time.perf_counter()
        _spin_and_chase()
        best = min(best, time.perf_counter() - t)
    return best


def speed_normalised(latencies, probes) -> list[float]:
    """Latencies rescaled to a CPU that runs the probe in PROBE_REF_S seconds.

    ``probes[i]`` and ``probes[i + 1]`` bracket op i; the slower of the two
    stands for the CPU speed during the op.  On a host whose neighbours
    slow this CPU by up to half for seconds at a time, this removes the
    neighbours from the op latency while keeping the program's own cost.
    """
    if len(probes) != len(latencies) + 1:
        raise ValueError("need one probe before each op and one after the last")
    return [t * PROBE_REF_S / max(a, b) for t, a, b in zip(latencies, probes, probes[1:])]
