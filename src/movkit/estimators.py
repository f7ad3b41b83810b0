"""Sampling-based margin-of-victory estimation.

Each estimator draws ballots uniformly at random with replacement from a
finite vote population, scales the sampled tallies back to population size,
and converts the resulting score gap into a margin estimate. The sample is
drawn as counts per distinct ballot, one multinomial draw, not vote by
vote. The estimate comes with a two-parameter additive guarantee: with
probability at least 1 - delta,

    |estimate - MoV| <= c * MoV + epsilon * n,

where c is a rule-specific constant (0 for k-approval and approval, 1/3 for
scoring, Bucklin and maximin, and (2K+1)/(2K+3) with K = ceil(log2 m) for
Copeland). Sample sizes are closed forms in (epsilon, delta) and the number
of candidates or the approval depth k.

`estimate_mov` is the one estimator, for every rule; `estimate_kapproval`
only calls it with ``KApproval(k)``. It tallies the sample in the rule's
integer tally (`movkit.core.rule_tally`, the one check that the rule fits
the ballots) and reads from it, with every count rescaled by n/ell to an
exact rational, the margin statistic that `movkit.oracle.mov_bounds` reads
on the full profile. Winner selection is exact, with ties broken by lowest
candidate index; only sample-size and guarantee arithmetic uses floats.
"""

import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
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
    _check_k,
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


def _binomial(rng: random.Random, n: int, p: float) -> int:
    """One Binomial(n, p) variate, for n >= 1 and 0 < p < 1.

    A line-for-line port of CPython 3.12's ``random.binomialvariate``, which
    calls ``rng.random()`` in the same order, so one seed gives the same
    variate on either: Devroye's geometric method below n*p = 10, above it
    Hoermann's BTRS ("The generation of binomial random variates", 1993).
    """
    random_ = rng.random

    # Fast path for a common case
    if n == 1:
        return int(random_() < p)

    # Exploit symmetry to establish:  p <= 0.5
    if p > 0.5:
        return n - _binomial(rng, n, 1.0 - p)

    if n * p < 10.0:
        # BG: Geometric method by Devroye with running time of O(np).
        x = y = 0
        c = math.log2(1.0 - p)
        if not c:
            return x
        while True:
            y += math.floor(math.log2(random_()) / c) + 1
            if y > n:
                return x
            x += 1

    # BTRS: Transformed rejection with squeeze method by Wolfgang Hoermann
    setup_complete = False

    spq = math.sqrt(n * p * (1.0 - p))  # Standard deviation of the distribution
    b = 1.15 + 2.53 * spq
    a = -0.0873 + 0.0248 * b + 0.01 * p
    c = n * p + 0.5
    vr = 0.92 - 4.2 / b

    while True:

        u = random_()
        u -= 0.5
        us = 0.5 - math.fabs(u)
        k = math.floor((2.0 * a / us + b) * u + c)
        if k < 0 or k > n:
            continue

        # The early-out "squeeze" test substantially reduces
        # the number of acceptance condition evaluations.
        v = random_()
        if us >= 0.07 and v <= vr:
            return k

        # Acceptance-rejection test.
        if not setup_complete:
            alpha = (2.83 + 5.1 / b) * spq
            lpq = math.log(p / (1.0 - p))
            m = math.floor((n + 1) * p)         # Mode of the distribution
            h = math.lgamma(m + 1) + math.lgamma(n - m + 1)
            setup_complete = True               # Only needs to be done once
        v *= alpha / (a / (us * us) + b)
        if math.log(v) <= h - math.lgamma(k + 1) - math.lgamma(n - k + 1) + (k - m) * lpq:
            return k


@dataclass(frozen=True)
class VoteSource:
    """A finite ballot population supporting seeded uniform sampling.

    ``ballots`` are the distinct ballots, ``weights`` their multiplicities;
    draws are i.i.d. uniform over the n underlying votes, with replacement.
    The population size n must be known to the estimators (they rescale
    sampled tallies by n/ell and compare against n/2 thresholds).
    """

    kind: str  # "ranked" | "approval"
    m: int
    ballots: tuple
    weights: tuple[int, ...]

    def __post_init__(self):
        if self.kind not in ("ranked", "approval"):
            raise InputError(f"unknown ballot kind {self.kind!r}")
        if len(self.ballots) != len(self.weights) or not self.ballots:
            raise InputError("ballots and weights must be parallel and non-empty")
        for w in self.weights:
            if not isinstance(w, int) or w < 1:
                raise InputError(f"weights must be positive integers, got {w!r}")

    @classmethod
    def from_profile(cls, profile: Profile) -> "VoteSource":
        kind = "ranked" if isinstance(profile, RankedProfile) else "approval"
        return cls(
            kind=kind,
            m=profile.m,
            ballots=tuple(b for b, _ in profile.votes),
            weights=tuple(w for _, w in profile.votes),
        )

    @property
    def n(self) -> int:
        return sum(self.weights)

    def draw(self, count: int, seed: int) -> list:
        """The ``count`` votes of ``draw_counts(count, seed)`` as a list:
        each drawn ballot repeated by its count, grouped in profile order."""
        return list(self.draw_counts(count, seed).elements())

    def draw_counts(self, count: int, seed: int) -> Counter:
        """How often each ballot occurs among ``count`` i.i.d. uniform draws
        (with replacement) of the n votes; deterministic per seed.

        The counts are one multinomial draw, taken as conditional binomials
        along the ballots in profile order: a ballot of weight w, with
        ``left`` draws and weight W still to share out, gets
        Binomial(left, w/W) of them, and the last ballot gets what is left.
        Only ballots drawn at least once are keys, in profile order. Cost:
        O(d) binomials for d distinct ballots, never more than O(d + count).
        """
        if count < 1:
            raise InputError(f"draw count must be at least 1, got {count}")
        rng = random.Random(seed)
        counts = Counter()
        left, weight_left = count, self.n
        for ballot, w in zip(self.ballots, self.weights):
            k = left if w == weight_left else _binomial(rng, left, w / weight_left)
            if k:
                counts[ballot] = k
                left -= k
                if not left:
                    break
            weight_left -= w
        return counts


# ---------------------------------------------------------------------------
# sample sizes and the lower bound

# rule kind -> the constant C in the sample-size closed form (C/eps^2) * ln(...)
_SAMPLE_FACTORS = {"scoring": 12.0, "kapproval": 12.0, "approval": 12.0,
                   "bucklin": 12.0, "maximin": 24.0, "copeland": 96.0}

# the least epsilon and delta whose closed forms stay finite floats for any m
# or k up to 2**53: 96/eps^2 <= 2**1007 and 2m/delta <= 2**1014, so ln(2m/delta)
# < 2**10 and every sample size or floor stays below 2**1024
_FLOORS = {"epsilon": 2.0 ** -500, "delta": 2.0 ** -960}


def _check_unit_interval(name, value):
    """``value`` as a float in (0, 1), at or above its floor in ``_FLOORS``."""
    value = float(value)
    if not 0.0 < value < 1.0:
        raise InputError(f"{name} must lie strictly between 0 and 1, got {value}")
    if value < _FLOORS[name]:
        raise InputError(f"{name} must be at least {_FLOORS[name]:.6g}, got {value:.6g}")
    return value


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
    rule_kind: str
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
    if ell < 1:
        raise InputError(f"sample count must be positive, got {ell}")
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
    per rule; a scoring vector is normalized first, so scores are in
    normalized units). The paper's estimator is (1 - c) * U, c from
    `guarantee_constant`; the estimate is its projection onto [1, n], where
    the margin always lies, so the projection never increases its error.

    The rule is checked against the ballots by `movkit.core.rule_tally`, with
    the same InputError as `movkit.oracle.mov_bounds`, before epsilon and
    delta are read or any vote is drawn.
    """
    m, n = source.m, source.n
    if isinstance(rule, Scoring):
        rule = Scoring(rule.vector.normalized())
    tally = _mov_tally(rule, m, (), source.kind == "ranked")
    k = rule.k if isinstance(rule, KApproval) else None
    ell, eps_eff = _resolve_ell(rule.kind, epsilon, delta, m, k, ell)
    for ballot, count in source.draw_counts(ell, seed).items():
        tally.add(ballot.order if source.kind == "ranked" else ballot.approved, count)
    upper, scores, margins = _margin_statistic(rule, tally, n, Fraction(n, ell))
    c = guarantee_constant(rule, m)
    return MovEstimate(
        m_bar=Fraction(min(max((1 - c) * upper, 1), n)), ell=ell, seed=seed, c=c,
        epsilon=eps_eff, delta=Fraction(delta), rule_kind=rule.kind,
        estimated_scores=scores, pair_margins=margins,
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
