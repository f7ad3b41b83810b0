"""A fixed calibration load that measures how fast the host runs Python now.

The host the benchmark was built on changes speed by up to 1.8x, in phases
that last from seconds to minutes: a repeated brute-force solve took 294 ms
in one 30-second window and 412 ms in another, with equal CPU and wall time
and no steal. Neither the median nor the fastest repeat within a run
escapes a phase that covers the whole run. So the timed phase runs
``probe`` before every op and after the last one, and scales each op's
latency by ``REFERENCE_S`` over the mean of the two probes around it.
Latencies are then reported in reference-host time: what the op would take
on a host that runs the probe in ``REFERENCE_S``.

The probe imports nothing from movkit, so a change to movkit cannot change
it. It mixes the kinds of work movkit does: seeded draws counted in a dict,
``Fraction`` tallies, text written and parsed back, and a sort.
"""

import gc
import itertools
import random
import time
from fractions import Fraction

# probe()'s mean over five minutes of the exact workload on the host the
# benchmark was built on (2 vCPUs, Python 3.11)
REFERENCE_S = 0.0025

_RANKINGS = list(itertools.permutations(range(5)))


def _load():
    rng = random.Random(20150503)
    counts = {}
    for _ in range(1500):
        ballot = _RANKINGS[rng.randrange(len(_RANKINGS))]
        counts[ballot] = counts.get(ballot, 0) + 1
    scores = [Fraction(0)] * 5
    for ballot, mult in counts.items():
        for pos, cand in enumerate(ballot):
            scores[cand] += Fraction(mult * (4 - pos), 3)
    text = "\n".join(f"{mult}: " + ",".join(map(str, b)) for b, mult in counts.items())
    parsed = []
    for line in text.splitlines():
        mult, _, ranking = line.partition(": ")
        parsed.append((int(mult), tuple(int(c) for c in ranking.split(","))))
    parsed.sort(reverse=True)
    return parsed[0], max(scores)


def probe() -> float:
    """Seconds one fixed calibration load takes right now."""
    enabled = gc.isenabled()
    gc.disable()  # a collection here would time the program's heap, not the host
    try:
        start = time.perf_counter()
        _load()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def to_reference(seconds: float, before: float, after: float) -> float:
    """`seconds` of work scaled to reference-host time, by the probe times
    taken right before and right after it."""
    return seconds * 2 * REFERENCE_S / (before + after)
