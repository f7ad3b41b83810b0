"""Sampling-based margin-of-victory estimation.

Each estimator draws ballots uniformly at random with replacement from the
n votes of a profile (a `VoteSource` holds the checked profile and nothing
else), scales the sampled tallies back to population size, and converts the
resulting score gap into a margin estimate. The sample is drawn as counts
per distinct ballot, one multinomial draw, not vote by vote. The estimate
comes with a two-parameter additive guarantee: with probability at least
1 - delta,

    |estimate - MoV| <= c * MoV + epsilon * n,

where c is a rule-specific constant (0 for k-approval and approval, 1/3 for
scoring, Bucklin and maximin, and (2K+1)/(2K+3) with K = ceil(log2 m) for
Copeland). Sample sizes are closed forms in (epsilon, delta) and the number
of candidates or the approval depth k.

`estimate_mov` is the one estimator, for every rule; `estimate_kapproval`
only calls it with ``KApproval(k)``. It tallies the sample in the rule's
integer tally (checked as `movkit.core.rule_tally` checks it, the one check
that the rule fits the ballots): the sample is the profile's own packed
rows weighed by the drawn counts, added through `movkit.core._add_votes` as
a profile's store is (column-wise when the sample holds many distinct
rankings), so no ballot object is built or hashed for it. It reads from
that tally, with every count rescaled by n/ell, the margin statistic that
`movkit.oracle.mov_bounds` reads on the full profile; the statistic stays
in the tally's integers and builds exact rationals only for the values it
returns. Winner selection is exact, with ties broken by lowest candidate
index; only sample-size and guarantee arithmetic uses floats.
"""

import math
import random
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from itertools import repeat
from operator import itemgetter
from typing import Mapping, Optional

from movkit.core import (
    Approval,
    Bucklin,
    Copeland,
    InputError,
    KApproval,
    Maximin,
    Profile,
    RankedProfile,
    Rule,
    Scoring,
    _add_votes,
    _check_k,
    _multinomial,
)
from movkit.oracle import _margin_statistic, _mov_tally, copeland_log_factor

_MASK64 = (1 << 64) - 1


def split_seed(base_seed: int, index: int) -> int:
    """Derive the index-th child seed from a base seed.

    64-bit splitmix-style mixing: statistically independent streams for
    concurrent trials, deterministic, and cheap. Both arguments may be any
    integers; the result is a 64-bit unsigned value.
    """
    z = (base_seed + index * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


# ---------------------------------------------------------------------------
# vote population


@dataclass(frozen=True)
class VoteSource:
    """A profile's n votes, sampled uniformly with replacement.

    The profile constructor is the one check of the ballots and their
    multiplicities; the estimators read m, n and the ballot kind from it.
    Anything but a `RankedProfile` or `ApprovalProfile` is an InputError.
    """

    profile: Profile

    def __post_init__(self):
        if not isinstance(self.profile, Profile):
            raise InputError(f"vote source needs a profile, got {type(self.profile).__name__}")

    def draw_counts(self, count: int, seed: int) -> dict[int, int]:
        """How often each ballot occurs among ``count`` i.i.d. uniform draws
        (with replacement) of the n votes; deterministic per seed.

        The counts are one `movkit.core._multinomial` draw over the
        multiplicities in profile order: conditional binomials, the last
        ballot taking what is left. The result maps the position of each
        ballot drawn at least once, its index in ``profile.votes``, to its
        count, in ascending order; no ballot object is built. Cost: O(d)
        binomials for d distinct ballots, never more than O(d + count).
        """
        if count < 1:
            raise InputError(f"draw count must be at least 1, got {count}")
        drawn = _multinomial(random.Random(seed), count, self.profile.counts)
        return dict(filter(itemgetter(1), enumerate(drawn)))


# ---------------------------------------------------------------------------
# sample sizes and the lower bound

# rule kind -> the constant C in the sample-size closed form (C/eps^2) * ln(...)
_SAMPLE_FACTORS = {"scoring": 12.0, "kapproval": 12.0, "approval": 12.0,
                   "bucklin": 12.0, "maximin": 24.0, "copeland": 96.0}

# the least epsilon and delta whose closed forms stay finite floats for any m
# or k up to 2**53: 96/eps^2 <= 2**1007 and 2m/delta <= 2**1014, so ln(2m/delta)
# < 2**10 and every sample size or floor stays below 2**1024
_FLOORS = {"epsilon": Fraction(1, 2**500), "delta": Fraction(1, 2**960)}


def _check_unit_interval(name, value):
    """``value`` as a float in (0, 1), at or above its floor in ``_FLOORS``.

    The exact value is checked before it is rounded to a float, so a rational
    just inside (0, 1) is never refused as 0.0 or 1.0.
    """
    if not 0 < value < 1:
        raise InputError(f"{name} must lie strictly between 0 and 1, got {value}")
    if value < _FLOORS[name]:
        # a positive rational below the float range is shown exactly, not as 0
        shown = float(value) or Decimal(value.numerator) / value.denominator
        raise InputError(f"{name} must be at least {float(_FLOORS[name]):.6g}, got {shown:.6g}")
    return float(value)


def sample_size(rule_kind: str, epsilon, delta, m: int, k: Optional[int] = None) -> int:
    """Number of sampled votes the rule's estimator needs.

    Closed forms, rounded up:

    * scoring, approval, Bucklin: (12/eps^2) * ln(2m/delta)
    * k-approval:                 (12/eps^2) * ln(2k/delta)
    * maximin:                    (24/eps^2) * ln(2m/delta)
    * Copeland:                   (96/eps^2) * ln(2m/delta)

    ``k`` must be given exactly for k-approval, nothing else.
    """
    if rule_kind not in _SAMPLE_FACTORS:
        raise InputError(f"unknown rule kind {rule_kind!r}")
    eps = _check_unit_interval("epsilon", epsilon)
    dlt = _check_unit_interval("delta", delta)
    if rule_kind == "kapproval" and k is not None:
        KApproval(k)  # the one check that k is a positive integer, before m is read
    if not isinstance(m, int) or m < 2:
        raise InputError(f"m must be an integer >= 2, got {m!r}")
    if rule_kind == "kapproval":
        if k is None:
            raise InputError("k-approval sample size needs k")
        _check_k(k, m)
    elif k is not None:
        raise InputError(f"k is only meaningful for k-approval, not {rule_kind}")
    log_num = 2.0 * (k if rule_kind == "kapproval" else m)
    return math.ceil((_SAMPLE_FACTORS[rule_kind] / eps**2) * math.log(log_num / dlt))


def lower_bound_samples(c, epsilon, delta) -> float:
    """Information-theoretic floor on the samples any estimator needs.

    ((1-c)^2 / (36 eps^2)) * ln(1/(8 e sqrt(pi) delta)), clamped at zero once
    delta >= 1/(8 e sqrt(pi)) makes the logarithm negative. No estimator with
    the (c, epsilon, delta) guarantee can examine fewer votes.
    """
    c = Fraction(c)
    if not 0 <= c < 1:
        raise InputError(f"c must lie in [0, 1), got {c}")
    eps = _check_unit_interval("epsilon", epsilon)
    dlt = _check_unit_interval("delta", delta)
    log_arg = 1.0 / (8.0 * math.e * math.sqrt(math.pi) * dlt)
    value = (float(1 - c) ** 2 / (36.0 * eps**2)) * math.log(log_arg)
    return max(0.0, value)


def guarantee_constant(rule: Rule, m: int) -> Fraction:
    """The multiplicative constant c in |estimate - MoV| <= c*MoV + eps*n."""
    if isinstance(rule, (KApproval, Approval)):
        return Fraction(0)
    if isinstance(rule, (Scoring, Bucklin, Maximin)):
        return Fraction(1, 3)
    if isinstance(rule, Copeland):
        k_log = copeland_log_factor(m)
        return Fraction(2 * k_log + 1, 2 * k_log + 3)
    raise InputError(f"unknown rule: {rule!r}")


# ---------------------------------------------------------------------------
# estimates


@dataclass(frozen=True)
class MovEstimate:
    """A sampled margin-of-victory estimate plus its guarantee annotation.

    ``m_bar`` is the point estimate (exact rational, in [1, n]).
    ``estimated_scores`` is the rule's rescaled tally payload: per-candidate
    scores, or per-level top-rank counts for Bucklin. Pairwise rules also
    carry the full antisymmetric ``pair_margins`` matrix.
    """

    m_bar: Fraction
    ell: int
    seed: int
    c: Fraction
    epsilon: Fraction
    delta: Fraction
    estimated_scores: Mapping[int, object]
    pair_margins: Optional[tuple[tuple[Fraction, ...], ...]] = None

    def __post_init__(self):
        if self.m_bar < 0:
            raise InputError(f"margin estimate cannot be negative: {self.m_bar}")
        if self.ell < 1:
            raise InputError(f"sample count must be positive, got {self.ell}")


def _resolve_ell(rule_kind, epsilon, delta, m, k, ell):
    """Default ell from the closed form; invert it for explicit overrides."""
    if ell is None:
        return sample_size(rule_kind, epsilon, delta, m, k), Fraction(epsilon)
    if isinstance(ell, bool) or not isinstance(ell, int) or ell < 1:
        raise InputError(f"sample count must be positive, got {ell!r}")
    _check_unit_interval("epsilon", epsilon)
    _check_unit_interval("delta", delta)
    log_num = 2.0 * (k if rule_kind == "kapproval" else m)
    eps = math.sqrt((_SAMPLE_FACTORS[rule_kind] / ell) * math.log(log_num / float(delta)))
    return ell, Fraction(eps)


def estimate_mov(
    source: VoteSource,
    rule: Rule,
    epsilon,
    delta,
    seed: int,
    ell: Optional[int] = None,
) -> MovEstimate:
    """Margin estimate for any rule, from one draw of ``ell`` votes.

    Reads from the tally of the sample, rescaled by n/ell, the upper end U
    of the rule's sandwich bound (`movkit.oracle._margin_statistic` lists it
    per rule). The statistic works on the tally's integers and builds a
    Fraction only for U, the estimated scores and the pair margins; a
    scoring vector is normalized there, in its integer weights, so scores
    are in normalized units. The paper's estimator is (1 - c) * U, c from
    `guarantee_constant`; the estimate is its projection onto [1, n], where
    the margin always lies, so the projection never increases its error.

    The rule is checked against the ballots as `movkit.core.rule_tally` does, with
    the same InputError as `movkit.oracle.mov_bounds`, before epsilon and
    delta are read or any vote is drawn. The drawn counts enter the tally
    through `movkit.core._add_votes` as the profile's rows weighed by the
    drawn count vector, the path a profile's store takes: column-wise for
    many distinct rankings, one ballot at a time otherwise.
    """
    profile = source.profile
    m, n, ranked = profile.m, profile.n, isinstance(profile, RankedProfile)
    tally = _mov_tally(rule, m, (), (), ranked)
    k = rule.k if isinstance(rule, KApproval) else None
    ell, eps_eff = _resolve_ell(rule.kind, epsilon, delta, m, k, ell)
    drawn = source.draw_counts(ell, seed)
    counts = list(map(drawn.get, range(len(profile.counts)), repeat(0)))
    _add_votes(tally, m, profile.rows, counts, ranked)
    upper, scores, margins = _margin_statistic(rule, tally, n, Fraction(n, ell))
    c = guarantee_constant(rule, m)
    return MovEstimate(
        m_bar=Fraction(min(max((1 - c) * upper, 1), n)), ell=ell, seed=seed, c=c,
        epsilon=eps_eff, delta=Fraction(delta), estimated_scores=scores, pair_margins=margins,
    )


def estimate_kapproval(
    source: VoteSource,
    k: int,
    epsilon,
    delta,
    seed: int,
    ell: Optional[int] = None,
) -> MovEstimate:
    """Margin estimate for k-approval (c = 0): half the rescaled top-two gap."""
    return estimate_mov(source, KApproval(k), epsilon, delta, seed, ell)
