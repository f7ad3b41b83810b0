"""Sampling-based margin-of-victory estimation.

Each estimator draws ballots uniformly at random with replacement from the
n votes of a profile (a `VoteSource` holds the checked profile and nothing
else), scales the sampled tallies back to population size, and converts the
resulting score gap into a margin estimate. The sample is drawn as counts
per distinct ballot, one multinomial draw, not vote by vote. The estimate
comes with a two-parameter additive guarantee: with probability at least
1 - delta,

    |estimate - MoV| <= c * MoV + epsilon * n,

where c is a rule-specific constant read from the ratio r of the rule's
sandwich bounds as (r-1)/(r+1) (`guarantee_constant`). Sample sizes are
closed forms in (epsilon, delta) and the number of candidates or the
approval depth k; one private form gives both a default sample size and
the epsilon of a given one. Each rule family's r and sample-size constant
are its row of `movkit.oracle._FAMILIES`.

`estimate_mov` is the one estimator, for every rule; `estimate_kapproval`
only calls it with ``KApproval(k)``. It tallies the sample in the rule's
integer tally (checked by `movkit.core._store_tally`, the one check that
the rule fits the ballots): the sample is the profile weighed by the
drawn counts, added through `movkit.core._add_votes` as a profile is with
its own counts (column-wise when the sample holds many distinct rankings),
so no ballot object is built or hashed for it. It reads from that tally,
with every count rescaled by n/ell, the margin statistic that
`movkit.oracle.mov_bounds` reads on the full profile; the statistic stays
in the tally's integers and builds an exact rational only for the value it
returns. The estimate keeps the sample's tally, and its scaled scores and
pair margins are read from it on first access; they are not part of the
estimate's repr or equality. Winner selection is exact, with ties broken by
lowest candidate index; only sample-size and guarantee arithmetic uses
floats.
"""

import math
import random
from collections.abc import Mapping
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction
from functools import cached_property
from itertools import compress
from typing import Optional

from movkit.core import (InputError, KApproval, Profile, Rule, _add_votes, _check_int, _check_k, _multinomial,
                         _read, _shown)
from movkit.oracle import _FAMILIES, _margin_statistic, _mov_tally, _sample_payload, _sandwich

_MASK64 = (1 << 64) - 1


def split_seed(base_seed: int, index: int) -> int:
    """Derive the index-th child seed from a base seed.

    64-bit splitmix-style mixing: statistically independent streams for
    concurrent trials, deterministic, and cheap. Both arguments may be any
    integers, and a base seed of any other type is an InputError; the
    result is a 64-bit unsigned value.
    """
    _check_int(base_seed, "seed")
    z = (base_seed + index * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


# ---------------------------------------------------------------------------
# vote population


class _Drawn(Mapping):
    """A read-only mapping over a drawn count vector: the position of each
    ballot drawn at least once, in ascending order, to its count. It equals
    the dict of those items, in either order of comparison, and its repr is
    that dict's; ``dict(view)`` makes one. ``counts`` is the vector itself."""

    __slots__ = ("counts",)

    def __init__(self, counts: list[int]):
        self.counts = counts

    def __getitem__(self, position):
        try:
            if position >= 0 and self.counts[position]:
                return self.counts[position]
        except (TypeError, IndexError):
            pass
        raise KeyError(position)

    def __iter__(self):
        return compress(range(len(self.counts)), self.counts)

    def __len__(self):
        return len(self.counts) - self.counts.count(0)

    def __repr__(self):
        return repr(dict(self.items()))


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

    def draw_counts(self, count: int, seed: int) -> Mapping[int, int]:
        """How often each ballot occurs among ``count`` i.i.d. uniform draws
        (with replacement) of the n votes; deterministic per seed, which
        must be an int and not a bool.

        The counts are one `movkit.core._multinomial` draw over the
        multiplicities in profile order: conditional binomials, the last
        ballot taking what is left. The result is a read-only mapping over
        that drawn count vector: it maps the position of each ballot drawn
        at least once, its index in ``profile.counts``, to its count, in
        ascending order, and compares equal to the dict of those items. It
        is not a ``dict`` instance; ``dict(result)`` makes one. No ballot
        object is built. Cost: O(d) binomials for d distinct ballots, never
        more than O(d + count).
        """
        _check_int(count, "draw count", 1, "at least 1")
        _check_int(seed, "seed")
        return _Drawn(_multinomial(random.Random(seed), count, self.profile.counts))


# ---------------------------------------------------------------------------
# sample sizes and the lower bound

# rule kind -> the constant C of its sample size, in `movkit.oracle._FAMILIES`' order
_SAMPLE_FACTORS = {family.kind: factor for family, _, _, factor in _FAMILIES}

# the least epsilon and delta whose closed forms stay finite floats for any m
# or k up to 2**53: C/eps^2 <= 96/eps^2 <= 2**1007 and 2m/delta <= 2**1014, so ln(2m/delta)
# < 2**10 and every sample size or floor stays below 2**1024
_FLOORS = {"epsilon": Fraction(1, 2**500), "delta": Fraction(1, 2**960)}


def _check_unit_interval(name, value):
    """``value`` as a float in (0, 1), at or above its floor in ``_FLOORS``.

    The exact value is checked as its integer ratio num/den (int, bool,
    float, Fraction and Decimal all give one) before it is rounded to a
    float, so a rational just inside (0, 1) is never refused as 0.0 or 1.0.
    A value with no integer ratio is not a number; NaN and the infinities
    have none either, and lie outside (0, 1).
    """
    try:
        num, den = value.as_integer_ratio()
    except AttributeError:
        raise InputError(f"{name} must be a number, got {_shown(value, repr)}") from None
    except (ValueError, OverflowError):
        num, den = 0, 1
    if not 0 < num < den:
        raise InputError(f"{name} must lie strictly between 0 and 1, got {_shown(value)}")
    floor = _FLOORS[name]
    if num * floor.denominator < floor.numerator * den:
        # a positive rational below the float range is shown exactly, not as 0
        shown = num / den or Decimal(num) / den
        raise InputError(f"{name} must be at least {float(floor):.6g}, got {shown:.6g}")
    return num / den


def _closed_form(rule_kind, over, delta, m, k) -> float:
    """(C / over) * ln(2k'/delta), C the rule kind's `_SAMPLE_FACTORS` entry
    and k' = k where k is given (k-approval alone takes it), m otherwise:
    the sample size at over = eps^2, and eps^2 at over = ell."""
    return (_SAMPLE_FACTORS[rule_kind] / over) * math.log(2.0 * (k or m) / delta)


def sample_size(rule_kind: str, epsilon, delta, m: int, k: Optional[int] = None) -> int:
    """Number of sampled votes the rule's estimator needs.

    The closed form (C/eps^2) * ln(2m/delta), ln(2k/delta) for k-approval,
    rounded up, C the kind's constant in `movkit.oracle._FAMILIES`.
    ``k`` must be given exactly for k-approval, nothing else.
    """
    if rule_kind not in _SAMPLE_FACTORS:
        raise InputError(f"unknown rule kind {rule_kind!r}")
    eps = _check_unit_interval("epsilon", epsilon)
    dlt = _check_unit_interval("delta", delta)
    if rule_kind == "kapproval" and k is not None:
        KApproval(k)  # the one check that k is a positive integer, before m is read
    _check_int(m, "m", 2, kind="an integer >= 2")
    if rule_kind == "kapproval":
        if k is None:
            raise InputError("k-approval sample size needs k")
        _check_k(k, m)
    elif k is not None:
        raise InputError(f"k is only meaningful for k-approval, not {rule_kind}")
    return _read(lambda: math.ceil(_closed_form(rule_kind, eps**2, dlt, m, k)),
                 "{} is too large for the sample-size closed form", "m" if k is None else "k")


def lower_bound_samples(c, epsilon, delta) -> float:
    """Information-theoretic floor on the samples any estimator needs.

    ((1-c)^2 / (36 eps^2)) * ln(1/(8 e sqrt(pi) delta)), clamped at zero once
    delta >= 1/(8 e sqrt(pi)) makes the logarithm negative. No estimator with
    the (c, epsilon, delta) guarantee can examine fewer votes.
    """
    c = _read(lambda: Fraction(c), "c must be a number, got {!r}", c)
    if not 0 <= c < 1:
        raise InputError(f"c must lie in [0, 1), got {_shown(c)}")
    eps = _check_unit_interval("epsilon", epsilon)
    dlt = _check_unit_interval("delta", delta)
    log_arg = 1.0 / (8.0 * math.e * math.sqrt(math.pi) * dlt)
    value = (float(1 - c) ** 2 / (36.0 * eps**2)) * math.log(log_arg)
    return max(0.0, value)


def guarantee_constant(rule: Rule, m: int) -> Fraction:
    """The multiplicative constant c in |estimate - MoV| <= c*MoV + eps*n:
    (r-1)/(r+1), r = U/L the rule's sandwich ratio, its row of
    `movkit.oracle._FAMILIES` (`movkit.oracle._sandwich`).

    Proof: the estimate (1 - c)*U is 2U/(r+1), and MoV lies in [U/r, U].
    At MoV = U the error is U - 2U/(r+1) = c*U, and at MoV = U/r it is
    2U/(r+1) - U/r = c*U/r: within c*MoV at both ends, so everywhere
    between; with a smaller c, no one estimate is within c*MoV at both
    ends. Bucklin's r = 2 is the paper's claim, not its sandwich's: its
    lower end is the change floor, and its U can be 8x the margin (ROADMAP
    item 15).
    """
    r = _sandwich(rule, m)[0]
    return Fraction(r - 1, r + 1)


# ---------------------------------------------------------------------------
# estimates


@dataclass(frozen=True)
class MovEstimate:
    """A sampled margin-of-victory estimate plus its guarantee annotation.

    ``m_bar`` is the point estimate (exact rational, in [1, n]).
    ``estimated_scores`` is the rule's rescaled tally payload: per-candidate
    scores, or per-level top-rank counts for Bucklin. Pairwise rules also
    carry the full antisymmetric ``pair_margins`` matrix. Both are read on
    first access from the sample's tally, which `estimate_mov` keeps in
    ``_sample`` as (rule, tally, n, scale) (`movkit.oracle._sample_payload`),
    and are not part of the repr or of equality. An estimate built by hand
    has no sample: its scores read {} and its pair margins None.
    """

    m_bar: Fraction
    ell: int
    seed: int
    c: Fraction
    epsilon: Fraction
    delta: Fraction
    _sample: Optional[tuple] = field(default=None, repr=False, compare=False, kw_only=True)

    def __post_init__(self):
        if self.m_bar < 0:
            raise InputError(f"margin estimate cannot be negative: {_shown(self.m_bar)}")
        _check_int(self.ell, "sample count", 1, kind="positive")

    @cached_property
    def _payload(self) -> tuple:
        return ({}, None) if self._sample is None else _sample_payload(*self._sample)

    @cached_property
    def estimated_scores(self) -> Mapping[int, object]:
        return self._payload[0]

    @cached_property
    def pair_margins(self) -> Optional[tuple[tuple[Fraction, ...], ...]]:
        return self._payload[1]


def _resolve_ell(rule_kind, epsilon, delta, m, k, ell):
    """Default ell from the closed form; invert it for explicit overrides."""
    if ell is not None:
        _check_int(ell, "sample count", 1, kind="positive")
    default = sample_size(rule_kind, epsilon, delta, m, k)  # checks epsilon and delta either way
    if ell is None:
        return default, Fraction(epsilon)
    return ell, _read(lambda: Fraction(math.sqrt(_closed_form(rule_kind, ell, float(delta), m, k))),
                      "sample count is too large for the sample-size closed form")


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
    Fraction only for U. The paper's estimator is (1 - c) * U, c from
    `guarantee_constant`; the estimate is its projection onto [1, n], where
    the margin always lies, so the projection never increases its error. It
    is clamped on the integer ratios of U and c, and one Fraction is built.
    The estimate keeps the tally: its scores and pair margins are read from
    it when first asked for.

    The rule is checked against the ballots by `movkit.core._store_tally`, with
    the same InputError as `movkit.oracle.mov_bounds`, before epsilon and
    delta are read or any vote is drawn. The sample is one call of
    ``source.draw_counts``, whose result is a read-only mapping over the
    drawn count vector that compares equal to the dict of positions and
    counts it replaces (``dict(result)`` makes one). That vector itself
    enters the tally through `movkit.core._add_votes`, with no dict built or
    read back: the profile weighed by the drawn counts, the path a profile
    with its own counts takes, column-wise for many distinct rankings, one
    ballot at a time otherwise.
    """
    profile = source.profile
    m, n = profile.m, profile.n
    tally = _mov_tally(rule, profile, ())
    k = rule.k if isinstance(rule, KApproval) else None
    ell, eps_eff = _resolve_ell(rule.kind, epsilon, delta, m, k, ell)
    _add_votes(tally, profile, source.draw_counts(ell, seed).counts)
    scale = Fraction(n, ell)
    u_num, u_den = _margin_statistic(rule, tally, n, scale).as_integer_ratio()
    c = guarantee_constant(rule, m)
    # (1 - c) * U = top / bottom, projected onto [1, n]
    top, bottom = (c.denominator - c.numerator) * u_num, c.denominator * u_den
    m_bar = Fraction(min(max(top, bottom), n * bottom), bottom)
    return MovEstimate(m_bar=m_bar, ell=ell, seed=seed, c=c, epsilon=eps_eff,
                       delta=Fraction(delta), _sample=(rule, tally, n, scale))


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
