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
Every model counts its orders as {ranking key: count}, the key being the
order's ``bytes`` up to m = 256 (`movkit.core._row_type`), and hands the
counts to the profile's packed store once, so no ballot object is built and
no ballot is checked again; `ranked_to_approval` reads the rankings from
that store. PlantedGap and TwoCandidate fill ballot positions below the top
in a fixed canonical order (ascending candidate index, skipping the top
candidate), which keeps their profiles easy to analyze by hand.
"""

import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from movkit.core import (
    ApprovalProfile,
    InputError,
    RankedProfile,
    _entries,
    _multinomial,
    _row_type,
)


@dataclass(frozen=True)
class ImpartialCulture:
    """n i.i.d. uniformly random rankings of m candidates."""

    n: int
    m: int
    seed: int = 0

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise InputError(f"need n >= 1 and m >= 1, got n={self.n}, m={self.m}")


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
        if self.m < 2:
            raise InputError("a planted gap needs at least two candidates")
        if not 0 <= self.winner < self.m:
            raise InputError(f"winner {self.winner} out of range for m={self.m}")
        if not 1 <= self.gap <= self.n:
            raise InputError(f"gap must lie in [1, n], got gap={self.gap}, n={self.n}")


@dataclass(frozen=True)
class TwoCandidate:
    """m = 2 profile with floor(p*n) a-first votes and the rest b-first.

    Non-integral p*n rounds down; ``realized_top_fraction`` reports the
    fraction actually planted.
    """

    p: Fraction
    n: int

    def __post_init__(self):
        p = Fraction(self.p)
        object.__setattr__(self, "p", p)
        if not 0 <= p <= 1:
            raise InputError(f"p must lie in [0, 1], got {p}")
        if self.n < 1:
            raise InputError(f"need n >= 1, got {self.n}")

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
        raise InputError(f"gap {g} is unachievable with n={n} and m={m}{parity}")
    others = [c for c in range(m) if c != spec.winner]
    counts = [0] * m
    counts[spec.winner] = base + g
    counts[others[0]] = base
    for c in others[1:]:
        take = min(base, rest)
        counts[c] = take
        rest -= take
    return counts


def _impartial_orders(rng: random.Random, prefix, rest, count: int, orders: Counter) -> None:
    """Add to ``orders`` ``count`` uniform orders that start with ``prefix``
    and rank the candidates ``rest`` after it. ``prefix``, ``rest`` and the
    orders added are ranking keys of one type (`movkit.core._row_type`).

    With c = ``count`` and k = len(``rest``): below k! suffixes, each order
    draws its suffix with ``rng.sample`` (the per-vote stream); otherwise c
    is split over the k next candidates by one equal-weight multinomial and
    each group recurses. Both are exactly uniform, and the cost is
    O(min(n, m!) * m) draws for n orders of m candidates.
    """
    k, key = len(rest), type(rest)
    if k < 2:
        orders[prefix + rest] += count
    elif count < math.factorial(k):
        orders.update(prefix + key(rng.sample(rest, k)) for _ in range(count))
    else:
        for i, c in enumerate(_multinomial(rng, count, [1] * k)):
            if c:
                _impartial_orders(rng, prefix + rest[i:i + 1], rest[:i] + rest[i + 1:], c, orders)


def generate(spec: GenSpec) -> RankedProfile:
    """Build the ranked profile a generation model describes."""
    # every order is a permutation of range(m) and every count is positive,
    # so the counts are checked keys
    if isinstance(spec, ImpartialCulture):
        orders, key = Counter(), _row_type(spec.m)
        _impartial_orders(random.Random(spec.seed), key(), key(range(spec.m)), spec.n, orders)
        return RankedProfile._from_canonical(spec.m, orders, None)
    if isinstance(spec, PlantedGap):
        m, tops = spec.m, _planted_counts(spec)
    elif isinstance(spec, TwoCandidate):
        m, tops = 2, [spec.top_count, spec.n - spec.top_count]
    else:
        raise InputError(f"unknown generation model: {spec!r}")
    # each candidate's first places, the rest ranked in ascending order
    key = _row_type(m)
    orders = {key((top, *(c for c in range(m) if c != top))): k for top, k in enumerate(tops) if k}
    return RankedProfile._from_canonical(m, orders, None)


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
    distinct ballots, not one per vote.
    """
    m = profile.m
    orders = _entries(profile.rows, m, True)
    prefixes = Counter()
    if isinstance(k, str):
        if k != "uniform":
            raise InputError(f'k must be an integer or "uniform", got {k!r}')
        rng = random.Random(seed)

        def per_vote_prefixes():
            # yields one prefix per vote of a light ballot and adds a heavy
            # ballot's counts to prefixes itself, so the draws stay in profile
            # order and one Counter.update counts every light vote
            for order, mult in zip(orders, profile.counts):
                if mult < m + 1:
                    for _ in range(mult):
                        yield tuple(sorted(order[:rng.randint(0, m)]))
                else:
                    for depth, c in enumerate(_multinomial(rng, mult, [1] * (m + 1))):
                        if c:
                            prefixes[tuple(sorted(order[:depth]))] += c

        prefixes.update(per_vote_prefixes())
    else:
        if not 0 <= k <= m:
            raise InputError(f"k must lie in [0, m], got k={k}, m={m}")
        for order, mult in zip(orders, profile.counts):
            prefixes[tuple(sorted(order[:k]))] += mult
    # every key is a sorted set of candidates of a checked ranking
    return ApprovalProfile._from_canonical(m, prefixes, profile.names)
