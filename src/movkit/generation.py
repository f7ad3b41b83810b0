"""Synthetic election generators for tests and experiments.

Three models:

* ImpartialCulture: every vote uniform over all m! rankings, i.i.d.;
* PlantedGap: a deterministic profile whose plurality score gap between the
  planted winner and the runner-up is exact, so the margin of victory is
  known in closed form;
* TwoCandidate: m = 2 with a prescribed fraction of a-first votes, the
  population family behind the sampling lower bound and the distinguisher.

Only ImpartialCulture is random, and it is deterministic given its seed.
It and the uniform depths of `ranked_to_approval` draw counts, not votes:
c votes with k equally likely outcomes (the orders of the candidates still
to rank, or the m + 1 depths of one distinct ballot) are drawn one by one
when c < k; otherwise c is split by one multinomial
(`movkit.core._multinomial`) and each part is drawn the same way.
Every model counts its orders by ranking key, the key being the order's
``bytes`` up to m = 256 (`movkit.core._row_type`), and hands the counts to
the profile's packed store once, so no ballot object is built and no ballot
is checked again. ImpartialCulture appends its keys and counts in key
order as it walks, so the store merges nothing; `ranked_to_approval` reads
the rankings back with the profile's ``entries()``. PlantedGap and
TwoCandidate fill ballot positions below the top in a fixed canonical order
(ascending candidate index, skipping the top candidate), which keeps their
profiles easy to analyze by hand. `ranked_to_approval` counts the uniform
depths of a heavy ballot per prefix bitmask of its ranking, and only the
distinct masks become the member keys of the approval profile's store. Each
model refuses a size, gap or winner that is not an int, or is a bool, before
it checks its range.
"""

import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Union

from movkit.core import (
    ApprovalProfile,
    InputError,
    RankedProfile,
    _check_int,
    _members,
    _multinomial,
    _read,
    _shown,
    _row_type,
)


def _check_ints(spec, *fields: str) -> None:
    """The type check of a spec's integer fields, before its range checks:
    each must be an int and not a bool, as a profile's multiplicities must,
    so that no float count reaches the profile's store."""
    for field in fields:
        _check_int(getattr(spec, field), field)


@dataclass(frozen=True)
class ImpartialCulture:
    """n i.i.d. uniformly random rankings of m candidates."""

    n: int
    m: int
    seed: int = 0

    def __post_init__(self):
        _check_ints(self, "n", "m", "seed")
        if self.n < 1 or self.m < 1:
            raise InputError(f"need n >= 1 and m >= 1, got n={_shown(self.n)}, m={_shown(self.m)}")


@dataclass(frozen=True)
class PlantedGap:
    """A profile with an exact plurality score gap.

    The planted winner gets ``gap`` more first places than the runner-up
    (the lowest-indexed other candidate); everyone else gets at most the
    runner-up's count. The construction is deterministic.
    """

    winner: int
    gap: int
    n: int
    m: int

    def __post_init__(self):
        _check_ints(self, "winner", "gap", "n", "m")
        if self.m < 2:
            raise InputError("a planted gap needs at least two candidates")
        if not 0 <= self.winner < self.m:
            raise InputError(f"winner {_shown(self.winner)} out of range for m={_shown(self.m)}")
        if not 1 <= self.gap <= self.n:
            raise InputError(f"gap must lie in [1, n], got gap={_shown(self.gap)}, n={_shown(self.n)}")


@dataclass(frozen=True)
class TwoCandidate:
    """m = 2 profile with floor(p*n) a-first votes and the rest b-first.

    Non-integral p*n rounds down; ``realized_top_fraction`` reports the
    fraction actually planted.
    """

    p: Fraction
    n: int

    def __post_init__(self):
        _check_ints(self, "n")
        p = _read(lambda: Fraction(self.p), "p must be rational, got {!r}", self.p)
        object.__setattr__(self, "p", p)
        if not 0 <= p <= 1:
            raise InputError(f"p must lie in [0, 1], got {_shown(p)}")
        if self.n < 1:
            raise InputError(f"need n >= 1, got {_shown(self.n)}")

    @property
    def top_count(self) -> int:
        return int(self.p * self.n)

    @property
    def realized_top_fraction(self) -> Fraction:
        return Fraction(self.top_count, self.n)


GenSpec = Union[ImpartialCulture, PlantedGap, TwoCandidate]


def _planted_counts(spec: PlantedGap) -> list[int]:
    """First-place counts per candidate realizing the exact plurality gap."""
    n, m, g = spec.n, spec.m, spec.gap
    base = -((g - n) // m)  # ceil((n - g) / m)
    rest = n - 2 * base - g
    # at m = 2, rest is -1 exactly when n - g is odd, and 0 otherwise
    if rest < 0 or rest > (m - 2) * base:
        parity = " (parity)" if m == 2 else ""
        raise InputError(f"gap {_shown(g)} is unachievable with n={_shown(n)} and m={_shown(m)}{parity}")
    others = [c for c in range(m) if c != spec.winner]
    counts = [0] * m
    counts[spec.winner] = base + g
    counts[others[0]] = base
    for c in others[1:]:
        take = min(base, rest)
        counts[c] = take
        rest -= take
    return counts


def _impartial_orders(rng: random.Random, prefix, rest, count: int, keys: list,
                      counts: list) -> None:
    """Append to ``keys`` and ``counts`` the distinct orders among ``count``
    uniform orders that start with ``prefix`` and rank the candidates
    ``rest`` (in ascending order) after it, and how often each occurs, in
    ascending key order. ``prefix``, ``rest`` and the orders are ranking
    keys of one type (`movkit.core._row_type`).

    With c = ``count`` and k = len(``rest``): below k! suffixes, each order
    draws its suffix with ``rng.sample`` (the per-vote stream), and the
    orders are counted and sorted; otherwise c is split over the k next
    candidates by one equal-weight multinomial and each group recurses, in
    ascending candidate order, so the walk appends in key order; at k = 2
    the two groups are the two orders of ``rest``, appended with no call.
    Both are exactly uniform, and the cost is O(min(n, m!) * m) draws for n
    orders of m candidates.
    """
    k, key = len(rest), type(rest)
    if k < 2:
        keys.append(prefix + rest)
        counts.append(count)
    elif count < math.factorial(k):
        orders = Counter(prefix + key(rng.sample(rest, k)) for _ in range(count))
        drawn = sorted(orders)
        keys.extend(drawn)
        counts.extend(map(orders.__getitem__, drawn))
    elif k == 2:
        first, second = _multinomial(rng, count, [1, 1])
        if first:
            keys.append(prefix + rest)
            counts.append(first)
        if second:
            keys.append(prefix + rest[::-1])
            counts.append(second)
    else:
        for i, c in enumerate(_multinomial(rng, count, [1] * k)):
            if c:
                _impartial_orders(rng, prefix + rest[i:i + 1], rest[:i] + rest[i + 1:], c, keys,
                                  counts)


def generate(spec: GenSpec) -> RankedProfile:
    """Build the ranked profile a generation model describes."""
    # every order is a permutation of range(m) and every count is positive,
    # so the counts are checked keys
    if isinstance(spec, ImpartialCulture):
        keys, counts, key = [], [], _row_type(spec.m)
        # appended in key order, the distinct orders need no merge in the store
        _impartial_orders(random.Random(spec.seed), key(), key(range(spec.m)), spec.n, keys, counts)
        return RankedProfile._from_canonical(spec.m, keys, counts, None)
    if isinstance(spec, PlantedGap):
        m, tops = spec.m, _planted_counts(spec)
    elif isinstance(spec, TwoCandidate):
        m, tops = 2, [spec.top_count, spec.n - spec.top_count]
    else:
        raise InputError(f"unknown generation model: {spec!r}")
    # each candidate's first places, the rest ranked in ascending order: in
    # order of the first candidate, so the keys strictly increase
    key = _row_type(m)
    orders = {key((top, *(c for c in range(m) if c != top))): k for top, k in enumerate(tops) if k}
    return RankedProfile._from_canonical(m, orders.keys(), orders.values(), None)


def ranked_to_approval(
    profile: RankedProfile,
    k: Union[int, str] = "uniform",
    seed: int = 0,
) -> ApprovalProfile:
    """Approval profile from a ranked one by approving top-k prefixes.

    ``k`` is either a fixed depth in [0, m] or "uniform", which gives every
    vote an independent depth uniform over 0..m (deterministic per seed).
    Uniform depths are drawn per distinct ballot, in canonical profile
    order: a ballot of multiplicity w < m + 1 draws its w depths one by one,
    a heavier one draws how many of its votes take each depth as one
    Multinomial(w; m + 1 equal cells), so the cost is O(d * m) draws for d
    distinct ballots, not one per vote. A heavier ballot's votes are counted
    per prefix bitmask, its m + 1 masks built as one running sum beside its
    draw, and only the distinct masks become member keys for the store; a
    vote drawn on its own is counted by its sorted members, as a fixed
    depth's votes are. A ``k`` that is a bool, a uniform depth's seed that
    is not an int (or is a bool), and any other profile than a ranked one,
    is an InputError.
    """
    if not isinstance(profile, RankedProfile):
        raise InputError("this operation needs a ranked profile")
    m = profile.m
    orders = profile.entries()
    prefixes = Counter()
    if k == "uniform":
        _check_int(seed, "seed")
        rng = random.Random(seed)
        masks = {}
        for order, mult in zip(orders, profile.counts):
            if mult < m + 1:
                for _ in range(mult):
                    prefixes[tuple(sorted(order[:rng.randint(0, m)]))] += 1
            else:
                # the m + 1 prefix masks, depth 0 first, beside their draws
                for mask, c in zip(accumulate(map((1).__lshift__, order), initial=0),
                                   _multinomial(rng, mult, [1] * (m + 1))):
                    if c:
                        masks[mask] = masks.get(mask, 0) + c
        prefixes.update(dict(zip(map(_members, masks), masks.values())))
    else:
        _check_int(k, "k", kind='an integer or "uniform"')
        if not 0 <= k <= m:
            raise InputError(f"k must lie in [0, m], got k={_shown(k)}, m={m}")
        for order, mult in zip(orders, profile.counts):
            prefixes[tuple(sorted(order[:k]))] += mult
    # every key is a sorted set of candidates of a checked ranking; sorted,
    # the distinct keys need no merge in the store
    keys = sorted(prefixes)
    return ApprovalProfile._from_canonical(m, keys, map(prefixes.__getitem__, keys), profile.names)
