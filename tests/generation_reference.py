"""Reference forms of the random generators.

The per-vote forms draw one random value and build one ballot object per
vote, and the profile constructor merges them. `movkit.generation` draws
counts instead, and matches these streams exactly only where every count
stays below its number of outcomes (IC with n < m!, uniform depths on
multiplicities below m + 1). Tests use them there as the reference, and
elsewhere to rebuild the exact profiles a seed-pinned expectation was
derived from. `ref_impartial_orders` is the counted IC walk with one
recursive call per group down to a single candidate, the reference for
the walk's tree branch at n >= m!.
"""

import math
import random
from collections import Counter

from movkit.core import (ApprovalBallot, ApprovalProfile, RankedProfile, Ranking, _multinomial,
                         _row_type)


def ref_impartial_culture(n, m, seed):
    rng = random.Random(seed)
    votes = tuple((Ranking(tuple(rng.sample(range(m), m))), 1) for _ in range(n))
    return RankedProfile(m=m, votes=votes)


def ref_ranked_to_approval(profile, k, seed):
    m = profile.m
    if k == "uniform":
        rng = random.Random(seed)
        depths = [rng.randint(0, m) for _ in range(profile.n)]
    else:
        depths = [k] * profile.n
    votes = tuple(
        (ApprovalBallot(frozenset(ballot.order[:depth])), 1)
        for ballot, depth in zip(profile.expand(), depths)
    )
    return ApprovalProfile(m=m, votes=votes, names=profile.names)


def ref_impartial_orders(rng, prefix, rest, count, keys, counts):
    k, key = len(rest), type(rest)
    if k < 2:
        keys.append(prefix + rest)
        counts.append(count)
    elif count < math.factorial(k):
        orders = Counter(prefix + key(rng.sample(rest, k)) for _ in range(count))
        drawn = sorted(orders)
        keys.extend(drawn)
        counts.extend(map(orders.__getitem__, drawn))
    else:
        for i, c in enumerate(_multinomial(rng, count, [1] * k)):
            if c:
                ref_impartial_orders(rng, prefix + rest[i:i + 1], rest[:i] + rest[i + 1:], c, keys,
                                     counts)


def ref_impartial_keys(n, m, seed):
    """The keys and counts of the counted IC walk, one call per group."""
    keys, counts, key = [], [], _row_type(m)
    ref_impartial_orders(random.Random(seed), key(), key(range(m)), n, keys, counts)
    return keys, counts
