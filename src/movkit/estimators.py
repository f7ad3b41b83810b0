"""Sampling-based margin-of-victory estimation.

Each estimator draws ballots uniformly at random with replacement from a
finite vote population, scales the sampled tallies back to population size,
and converts the resulting score gap into a margin estimate. The estimate
comes with a two-parameter additive guarantee: with probability at least
1 - delta,

    |estimate - MoV| <= c * MoV + epsilon * n,

where c is a rule-specific constant (0 for k-approval and approval, 1/3 for
scoring, Bucklin and maximin, and (2K+1)/(2K+3) with K = ceil(log2 m) for
Copeland). Sample sizes are closed forms in (epsilon, delta) and the number
of candidates or the approval depth k.

`estimate_mov` is the one estimator, for every rule; `estimate_kapproval`
takes k as an integer, checks it and calls it. It tallies the sample in the
rule's integer tally (`movkit.core.rule_tally`) and reads from it, with every
count rescaled by n/ell to an exact rational, the margin statistic that
`movkit.oracle.mov_bounds` reads on the full profile. Winner selection is
exact, with ties broken by lowest candidate index; only sample-size and
guarantee arithmetic uses floats.
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
    rule_tally,
)
from movkit.oracle import _margin_statistic, copeland_log_factor

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
        if any(w < 1 for w in self.weights):
            raise InputError("weights must be positive")

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
        """``count`` i.i.d. uniform draws (with replacement); deterministic per seed."""
        return self._choices(self.ballots, count, seed)

    def draw_counts(self, count: int, seed: int) -> Counter:
        """Multiplicity view of ``draw``; same draws, same seed. Drawn
        indices are counted, so each distinct ballot is hashed once."""
        # a list, not a range: the draws then share its int objects instead
        # of each allocating a new one
        drawn = Counter(self._choices(list(range(len(self.ballots))), count, seed))
        return Counter({self.ballots[i]: c for i, c in drawn.items()})

    def _choices(self, population, count: int, seed: int) -> list:
        # choices only indexes the population, so ballots and their indices
        # are drawn by the same random stream
        if count < 1:
            raise InputError(f"draw count must be at least 1, got {count}")
        return random.Random(seed).choices(population, weights=self.weights, k=count)


# ---------------------------------------------------------------------------
# sample sizes and the lower bound

# rule kind -> the constant C in the sample-size closed form (C/eps^2) * ln(...)
_SAMPLE_FACTORS = {"scoring": 12.0, "kapproval": 12.0, "approval": 12.0,
                   "bucklin": 12.0, "maximin": 24.0, "copeland": 96.0}


def _check_unit_interval(name, value):
    value = float(value)
    if not 0.0 < value < 1.0:
        raise InputError(f"{name} must lie strictly between 0 and 1, got {value}")
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


def _check_k(k, m: int) -> None:
    if not isinstance(k, int) or not 1 <= k <= m - 1:
        raise InputError(f"k must be in [1, m-1], got k={k!r}, m={m}")


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

    ``m_bar`` is the point estimate (exact rational). ``estimated_scores``
    is the rule's rescaled tally payload: per-candidate scores, or per-level
    top-rank counts for Bucklin. Pairwise rules also carry the full
    antisymmetric ``pair_margins`` matrix. ``feasible`` is False only for
    the Bucklin sentinel case, where no level gap exists in the sample and
    m_bar saturates at n.
    """

    m_bar: Fraction
    ell: int
    seed: int
    c: Fraction
    epsilon: Fraction
    delta: Fraction
    rule_kind: str
    estimated_scores: Mapping[int, object]
    feasible: bool = True
    pair_margins: Optional[tuple[tuple[Fraction, ...], ...]] = None

    def __post_init__(self):
        if self.m_bar < 0:
            raise InputError(f"margin estimate cannot be negative: {self.m_bar}")
        if self.ell < 1:
            raise InputError(f"sample count must be positive, got {self.ell}")


def _require_kind(source: VoteSource, kind: str, two_candidates: bool = False) -> None:
    if source.kind != kind:
        raise InputError(f"this estimator needs {kind} ballots, got {source.kind}")
    if two_candidates and source.m < 2:
        raise InputError("margin estimation needs at least two candidates")


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

    Reads the rule's margin statistic from the tally of the sample, rescaled
    by n/ell, and returns (1 - c) times the upper end of the rule's sandwich
    bound on it (`movkit.oracle.mov_bounds` for a unique winner, without the
    scoring +1 or the k-approval rounding), c from `guarantee_constant`:

    * scoring: the top-two gap over 1.5*a1, the vector normalized first, so
      scores are in normalized units;
    * k-approval and approval: half the top-two gap;
    * Bucklin: (level gap + 1)/1.5, the winner being the first to hold a
      strict n/2 majority of the rescaled top-l counts. When no level below
      m separates it from a rival, the estimate saturates at n and
      ``feasible`` is False;
    * maximin: a third of the gap between the two best worst-case pairwise
      margins;
    * Copeland: 4(K+1)/(2K+3) times the sampled winner's smallest relative
      margin over a rival, K = ceil(log2 m).
    """
    if not isinstance(rule, (Scoring, KApproval, Approval, Bucklin, Maximin, Copeland)):
        raise InputError(f"unknown rule: {rule!r}")
    m, n = source.m, source.n
    # scoring and k-approval reject m < 2 through their own checks
    _require_kind(source, "approval" if isinstance(rule, Approval) else "ranked",
                  two_candidates=not isinstance(rule, (Scoring, KApproval)))
    if isinstance(rule, Scoring):
        rule = Scoring(rule.vector.normalized())
        if rule.vector.m != m:
            raise InputError(f"score vector has {rule.vector.m} entries for m={m}")
    elif isinstance(rule, KApproval):
        _check_k(rule.k, m)
    k = rule.k if isinstance(rule, KApproval) else None
    ell, eps_eff = _resolve_ell(rule.kind, epsilon, delta, m, k, ell)
    counts = source.draw_counts(ell, seed)
    tally = rule_tally(rule, m, counts.items(), source.kind == "ranked")
    stat, scores, margins = _margin_statistic(rule, tally, n, Fraction(n, ell))
    c = guarantee_constant(rule, m)
    if stat == math.inf:
        m_bar = Fraction(n)
    elif isinstance(rule, (KApproval, Approval, Maximin)):
        m_bar = (1 - c) * stat / 2
    elif isinstance(rule, Copeland):
        m_bar = (1 - c) * 2 * (copeland_log_factor(m) + 1) * stat
    else:
        m_bar = (1 - c) * stat
    return MovEstimate(
        m_bar=m_bar, ell=ell, seed=seed, c=c,
        epsilon=eps_eff, delta=Fraction(delta), rule_kind=rule.kind,
        estimated_scores=scores, feasible=stat != math.inf, pair_margins=margins,
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
    _require_kind(source, "ranked")
    _check_k(k, source.m)
    return estimate_mov(source, KApproval(k), epsilon, delta, seed, ell)
