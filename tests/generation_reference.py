"""Per-vote reference forms of the random generators.

Each draws one random value and builds one ballot object per vote, and the
profile constructor merges them. `movkit.generation` draws counts instead,
and matches these streams exactly only where every count stays below its
number of outcomes (IC with n < m!, uniform depths on multiplicities below
m + 1). Tests use them there as the reference, and elsewhere to rebuild the
exact profiles a seed-pinned expectation was derived from.
"""

import random

from movkit.core import ApprovalBallot, ApprovalProfile, RankedProfile, Ranking


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
