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

Sampled tallies are integers (a scoring vector is scaled once to integer
weights) and rescale by n/ell to exact rationals once per candidate, so
winner selection and tie-breaks inside an estimate are exact; only the
sample-size and guarantee-annotation arithmetic uses floats.
"""

import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence, Union

from movkit.core import (
    Approval,
    ApprovalBallot,
    ApprovalProfile,
    Bucklin,
    Copeland,
    InputError,
    KApproval,
    Maximin,
    Profile,
    RankedProfile,
    Ranking,
    Rule,
    ScoreVector,
    Scoring,
    integer_weights,
    positional_tally,
    top_two,
)
from movkit.oracle import copeland_log_factor, relative_margin_generic

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
        if count < 1:
            raise InputError(f"draw count must be at least 1, got {count}")
        rng = random.Random(seed)
        return rng.choices(self.ballots, weights=self.weights, k=count)

    def draw_counts(self, count: int, seed: int) -> Counter:
        """Multiplicity view of ``draw``; same draws, same seed."""
        return Counter(self.draw(count, seed))


def sample_votes(source: VoteSource, ell: int, seed: int) -> list:
    """ell uniform-with-replacement ballot draws from the population."""
    return source.draw(ell, seed)


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
        if not isinstance(k, int) or not 1 <= k <= m - 1:
            raise InputError(f"k must be in [1, m-1], got k={k!r}, m={m}")
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


@dataclass(frozen=True)
class SamplePlan:
    """How many votes to sample for a rule, and the guarantee it buys."""

    rule_kind: str
    c: Fraction
    epsilon: Fraction
    delta: Fraction
    ell: int

    def __post_init__(self):
        if self.ell < 1:
            raise InputError(f"sample count must be positive, got {self.ell}")


def make_sample_plan(rule: Rule, epsilon, delta, m: int) -> SamplePlan:
    """Bundle the rule's sample size and guarantee constant for (epsilon, delta)."""
    k = rule.k if isinstance(rule, KApproval) else None
    ell = sample_size(rule.kind, epsilon, delta, m, k)
    return SamplePlan(
        rule_kind=rule.kind,
        c=guarantee_constant(rule, m),
        epsilon=Fraction(epsilon),
        delta=Fraction(delta),
        ell=ell,
    )


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


def _require_kind(source: VoteSource, kind: str) -> None:
    if source.kind != kind:
        raise InputError(f"this estimator needs {kind} ballots, got {source.kind}")


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


def estimate_scoring(
    source: VoteSource,
    vector: ScoreVector,
    epsilon,
    delta,
    seed: int,
    ell: Optional[int] = None,
) -> MovEstimate:
    """Margin estimate for a positional scoring rule (c = 1/3).

    The vector is normalized internally, so scores and the estimate are in
    normalized score units. Each sampled ballot contributes its positional
    score as integer weights over a common unit; tallies rescale by
    n/(ell*unit). The estimate is the rescaled top-two gap divided by 1.5
    times the top score-vector entry.
    """
    _require_kind(source, "ranked")
    vector = vector.normalized()
    if vector.m != source.m:
        raise InputError(f"score vector has {vector.m} entries for m={source.m}")
    ell, eps_eff = _resolve_ell("scoring", epsilon, delta, source.m, None, ell)
    counts = source.draw_counts(ell, seed)
    weights, unit = integer_weights(vector)
    raw = positional_tally(counts.items(), weights, source.m)
    n = source.n
    sbar = {x: Fraction(n * raw[x], ell * unit) for x in range(source.m)}
    w, z = top_two(sbar)
    m_bar = (sbar[w] - sbar[z]) / (Fraction(3, 2) * vector.alpha1)
    return MovEstimate(
        m_bar=m_bar, ell=ell, seed=seed, c=Fraction(1, 3),
        epsilon=eps_eff, delta=Fraction(delta), rule_kind="scoring",
        estimated_scores=sbar,
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
    if not isinstance(k, int) or not 1 <= k <= source.m - 1:
        raise InputError(f"k must be in [1, m-1], got k={k!r}, m={source.m}")
    ell, eps_eff = _resolve_ell("kapproval", epsilon, delta, source.m, k, ell)
    counts = source.draw_counts(ell, seed)
    raw = positional_tally(counts.items(), [1] * k, source.m)
    scale = Fraction(source.n, ell)
    sbar = {x: scale * raw[x] for x in range(source.m)}
    w, z = top_two(sbar)
    m_bar = (sbar[w] - sbar[z]) / 2
    return MovEstimate(
        m_bar=m_bar, ell=ell, seed=seed, c=Fraction(0),
        epsilon=eps_eff, delta=Fraction(delta), rule_kind="kapproval",
        estimated_scores=sbar,
    )


def estimate_approval(
    source: VoteSource,
    epsilon,
    delta,
    seed: int,
    ell: Optional[int] = None,
) -> MovEstimate:
    """Margin estimate for the approval rule (c = 0)."""
    _require_kind(source, "approval")
    if source.m < 2:
        raise InputError("margin estimation needs at least two candidates")
    ell, eps_eff = _resolve_ell("approval", epsilon, delta, source.m, None, ell)
    counts = source.draw_counts(ell, seed)
    raw = {x: 0 for x in range(source.m)}
    for ballot, cnt in counts.items():
        for cand in ballot.approved:
            raw[cand] += cnt
    scale = Fraction(source.n, ell)
    sbar = {x: scale * raw[x] for x in range(source.m)}
    w, z = top_two(sbar)
    m_bar = (sbar[w] - sbar[z]) / 2
    return MovEstimate(
        m_bar=m_bar, ell=ell, seed=seed, c=Fraction(0),
        epsilon=eps_eff, delta=Fraction(delta), rule_kind="approval",
        estimated_scores=sbar,
    )


def estimate_bucklin(
    source: VoteSource,
    epsilon,
    delta,
    seed: int,
    ell: Optional[int] = None,
) -> MovEstimate:
    """Margin estimate for the Bucklin rule (c = 1/3).

    Estimates every top-l count, picks the winner those counts imply (strict
    n/2 majorities, lowest index on ties), and forms the level gap between
    the winner and the best excluded rival. The estimate is that gap divided
    by 1.5. When no level at or below m-1 separates the winner from a rival,
    the estimate saturates at n and ``feasible`` is False.
    """
    _require_kind(source, "ranked")
    if source.m < 2:
        raise InputError("margin estimation needs at least two candidates")
    m, n = source.m, source.n
    ell, eps_eff = _resolve_ell("bucklin", epsilon, delta, m, None, ell)
    counts = source.draw_counts(ell, seed)
    at_pos = [[0] * m for _ in range(m)]
    for ballot, cnt in counts.items():
        for pos, cand in enumerate(ballot.order):
            at_pos[cand][pos] += cnt
    scale = Fraction(n, ell)
    nbar: dict[int, tuple[Fraction, ...]] = {}
    for x in range(m):
        running = 0
        levels = []
        for pos in range(m):
            running += at_pos[x][pos]
            levels.append(scale * running)
        nbar[x] = tuple(levels)
    half = Fraction(n, 2)
    level_of = {
        x: next(lv + 1 for lv in range(m) if nbar[x][lv] > half) for x in range(m)
    }
    best_level = min(level_of.values())
    w = min(x for x in range(m) if level_of[x] == best_level)
    gap: Union[Fraction, None] = None
    for lv in range(1, m):
        if nbar[w][lv - 1] > half:
            for x in range(m):
                if x != w and nbar[x][lv - 1] <= half:
                    candidate = nbar[w][lv - 1] - nbar[x][lv - 1] + 1
                    if gap is None or candidate < gap:
                        gap = candidate
    if gap is None:
        m_bar, feasible = Fraction(n), False
    else:
        m_bar, feasible = gap / Fraction(3, 2), True
    return MovEstimate(
        m_bar=m_bar, ell=ell, seed=seed, c=Fraction(1, 3),
        epsilon=eps_eff, delta=Fraction(delta), rule_kind="bucklin",
        estimated_scores=nbar, feasible=feasible,
    )


def _pair_margin_matrix(source: VoteSource, counts: Counter, ell: int):
    """Rescaled pairwise margins from sampled rankings; exactly antisymmetric."""
    m = source.m
    net = [[0] * m for _ in range(m)]
    for ballot, cnt in counts.items():
        order = ballot.order
        for i in range(m):
            for j in range(i + 1, m):
                net[order[i]][order[j]] += cnt
                net[order[j]][order[i]] -= cnt
    scale = Fraction(source.n, ell)
    return tuple(tuple(scale * net[x][y] for y in range(m)) for x in range(m))


def estimate_maximin(
    source: VoteSource,
    epsilon,
    delta,
    seed: int,
    ell: Optional[int] = None,
) -> MovEstimate:
    """Margin estimate for the maximin rule (c = 1/3).

    Every sampled ballot contributes +1 or -1 to each pairwise margin;
    rescaled margins give each candidate's worst-case score, and the
    estimate is a third of the top-two score gap.
    """
    _require_kind(source, "ranked")
    if source.m < 2:
        raise InputError("margin estimation needs at least two candidates")
    m = source.m
    ell, eps_eff = _resolve_ell("maximin", epsilon, delta, m, None, ell)
    counts = source.draw_counts(ell, seed)
    dbar = _pair_margin_matrix(source, counts, ell)
    sbar = {
        x: min(dbar[x][y] for y in range(m) if y != x) for x in range(m)
    }
    w, z = top_two(sbar)
    m_bar = (sbar[w] - sbar[z]) / 3
    return MovEstimate(
        m_bar=m_bar, ell=ell, seed=seed, c=Fraction(1, 3),
        epsilon=eps_eff, delta=Fraction(delta), rule_kind="maximin",
        estimated_scores=sbar, pair_margins=dbar,
    )


def estimate_copeland(
    source: VoteSource,
    alpha,
    epsilon,
    delta,
    seed: int,
    ell: Optional[int] = None,
) -> MovEstimate:
    """Margin estimate for Copeland with tie parameter alpha.

    From sampled pairwise margins, computes the sampled Copeland winner,
    its smallest relative margin over any rival (sampled margins on both
    sides of the comparison), and scales that by 4(K+1)/(2K+3) with
    K = ceil(log2 m). The guarantee constant is c = (2K+1)/(2K+3).
    """
    _require_kind(source, "ranked")
    if source.m < 2:
        raise InputError("margin estimation needs at least two candidates")
    alpha = Fraction(alpha)
    if not 0 <= alpha <= 1:
        raise InputError(f"copeland alpha must lie in [0, 1], got {alpha}")
    m, n = source.m, source.n
    ell, eps_eff = _resolve_ell("copeland", epsilon, delta, m, None, ell)
    counts = source.draw_counts(ell, seed)
    dbar = _pair_margin_matrix(source, counts, ell)
    scores: dict[int, Fraction] = {}
    for x in range(m):
        total = Fraction(0)
        for y in range(m):
            if y == x:
                continue
            if dbar[x][y] > 0:
                total += 1
            elif dbar[x][y] == 0:
                total += alpha
        scores[x] = total
    best = max(scores.values())
    w = min(x for x in range(m) if scores[x] == best)
    # clamped at zero: on a sampled tie at the top, w's raw relative margin
    # over a co-winner can be negative (same as oracle.copeland_margin)
    gamma = max(0, min(
        relative_margin_generic(
            lambda u, v: dbar[u][v], m, n, w, x, alpha
        )
        for x in range(m)
        if x != w
    ))
    k_log = copeland_log_factor(m)
    m_bar = Fraction(4 * (k_log + 1), 2 * k_log + 3) * gamma
    return MovEstimate(
        m_bar=m_bar, ell=ell, seed=seed,
        c=Fraction(2 * k_log + 1, 2 * k_log + 3),
        epsilon=eps_eff, delta=Fraction(delta), rule_kind="copeland",
        estimated_scores=scores, pair_margins=dbar,
    )


def estimate_mov(
    source: VoteSource,
    rule: Rule,
    epsilon,
    delta,
    seed: int,
    ell: Optional[int] = None,
) -> MovEstimate:
    """Dispatch to the rule's estimator."""
    if isinstance(rule, Scoring):
        return estimate_scoring(source, rule.vector, epsilon, delta, seed, ell)
    if isinstance(rule, KApproval):
        return estimate_kapproval(source, rule.k, epsilon, delta, seed, ell)
    if isinstance(rule, Approval):
        return estimate_approval(source, epsilon, delta, seed, ell)
    if isinstance(rule, Bucklin):
        return estimate_bucklin(source, epsilon, delta, seed, ell)
    if isinstance(rule, Maximin):
        return estimate_maximin(source, epsilon, delta, seed, ell)
    if isinstance(rule, Copeland):
        return estimate_copeland(source, rule.alpha, epsilon, delta, seed, ell)
    raise InputError(f"unknown rule: {rule!r}")
