"""Ballots, profiles, voting rules, and winner determination.

Candidates are integers ``0..m-1``. One `Profile` base stores a multiset of
distinct ballots with positive multiplicities; `RankedProfile` and
`ApprovalProfile` only check a ballot and give its sort key (the order, or
the ascending approved candidates). Votes are merged and sorted on those
plain tuples, and each ballot is built back from its key, so equal multisets
compare equal and have equal reprs. Each rule family has one
integer tally (positional, approval, Bucklin position counts, pairwise
``above`` counts), chosen by `rule_tally` and shared by winner
determination, the exact search and the sampling estimators. A positional
score vector is scaled once to integer weights over a common denominator,
and the totals become exact `fractions.Fraction` scores once per candidate.
Whenever a rule needs a single representative winner, the canonical
tie-break is the lowest candidate index.

Six rule families are supported: positional scoring, k-approval, approval,
Bucklin (strict majority, more than half of the votes), maximin, and
Copeland with tie parameter alpha.
"""

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence


class InputError(ValueError):
    """Invalid election data, rule parameters, or argument combination."""


# ---------------------------------------------------------------------------
# ballots


def _indices(entries) -> tuple[int, ...]:
    """A ballot's entries as plain ints (bools become 0 and 1); anything that
    is not an iterable of integers is an InputError."""
    try:
        return tuple(map(operator.index, entries))
    except TypeError:
        raise InputError(f"ballot entries must be integer candidate indices: {entries!r}") from None


@dataclass(frozen=True, slots=True)
class Ranking:
    """A strict total order over candidates, most preferred first."""

    order: tuple[int, ...]

    def __post_init__(self):
        order = _indices(self.order)
        object.__setattr__(self, "order", order)
        if sorted(order) != list(range(len(order))):
            raise InputError(f"not a permutation of 0..{len(order) - 1}: {order!r}")

    @property
    def m(self) -> int:
        return len(self.order)

    def position(self, candidate: int) -> int:
        """1-based position of a candidate in this ranking."""
        return self.order.index(candidate) + 1

    def prefix(self, k: int) -> frozenset[int]:
        return frozenset(self.order[:k])


@dataclass(frozen=True, slots=True)
class ApprovalBallot:
    """A set of approved candidates; empty and full sets are both legal."""

    approved: frozenset[int]

    def __post_init__(self):
        approved = frozenset(_indices(self.approved))
        object.__setattr__(self, "approved", approved)
        if any(c < 0 for c in approved):
            raise InputError(f"approval ballot must contain candidate indices: {approved!r}")


def _validate_names(names, m):
    if names is None:
        return None
    names = tuple(names)
    if len(names) != m:
        raise InputError(f"expected {m} candidate names, got {len(names)}")
    seen = set()
    for name in names:
        if not name or not all(ch.isalnum() or ch in "_.-" for ch in name):
            raise InputError(f"bad candidate name {name!r}")
        if name in seen:
            raise InputError(f"duplicate candidate name {name!r}")
        seen.add(name)
    return names


@dataclass(frozen=True)
class Profile:
    """A multiset of ballots over m candidates; `RankedProfile` or
    `ApprovalProfile`.

    ``votes`` is canonicalised on construction: each ballot is checked once,
    duplicates are merged and entries sorted by the ballot's sort key.
    ``names`` optionally labels candidates for I/O.
    """

    m: int
    votes: tuple[tuple[Ranking | ApprovalBallot, int], ...]
    names: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.m < 1:
            raise InputError("profile needs at least one candidate")
        counts: dict[tuple, int] = {}
        for ballot, mult in self.votes:
            key = self._check_ballot(ballot)
            if not isinstance(mult, int) or mult < 1:
                raise InputError(f"multiplicity must be a positive integer, got {mult!r}")
            counts[key] = counts.get(key, 0) + mult
        if not counts:
            raise InputError("profile must contain at least one vote")
        self._set_votes(counts, _validate_names(self.names, self.m))

    @classmethod
    def _from_canonical(cls, m: int, counts: Mapping[tuple, int], names) -> "Profile":
        """The profile of checked ballot sort keys and their merged positive
        counts, with validated ``names`` or None: what the constructor's
        checks and merge end in, without repeating them."""
        profile = object.__new__(cls)
        object.__setattr__(profile, "m", m)
        profile._set_votes(counts, names)
        return profile

    def _set_votes(self, counts: Mapping[tuple, int], names) -> None:
        """The one body of every profile: the subclass's `_ballot` of each
        key, in key order."""
        ballot = self._ballot
        object.__setattr__(self, "votes", tuple((ballot(key), counts[key]) for key in sorted(counts)))
        object.__setattr__(self, "names", names)

    def _check_ballot(self, ballot) -> tuple:
        """The sort key of a ballot, coerced and checked against m. This is
        the one check that a ballot belongs to the profile: anything else,
        another kind's ballot included, is an InputError."""
        raise NotImplementedError

    @property
    def n(self) -> int:
        return sum(mult for _, mult in self.votes)

    def expand(self) -> list:
        """All n ballots individually, in canonical order (stable indexing)."""
        out = []
        for ballot, mult in self.votes:
            out.extend([ballot] * mult)
        return out


class RankedProfile(Profile):
    """A multiset of rankings, sorted by ballot order."""

    @staticmethod
    def _ballot(key):
        ballot = object.__new__(Ranking)  # skips Ranking's checks
        object.__setattr__(ballot, "order", key)
        return ballot

    def _check_ballot(self, ballot):
        if not isinstance(ballot, Ranking):
            ballot = Ranking(ballot)
        order = ballot.order
        if len(order) != self.m:
            raise InputError(f"ballot {order!r} does not rank all {self.m} candidates")
        return order


class ApprovalProfile(Profile):
    """A multiset of approval ballots, sorted by their ascending members."""

    @staticmethod
    def _ballot(key):
        ballot = object.__new__(ApprovalBallot)  # skips ApprovalBallot's checks
        object.__setattr__(ballot, "approved", frozenset(key))
        return ballot

    def _check_ballot(self, ballot):
        if not isinstance(ballot, ApprovalBallot):
            ballot = ApprovalBallot(ballot)
        key = tuple(sorted(ballot.approved))
        if key and key[-1] >= self.m:
            raise InputError(f"ballot approves unknown candidate: {list(key)!r}")
        return key


# ---------------------------------------------------------------------------
# score vectors


def _fractions(values) -> tuple[Fraction, ...]:
    try:
        return tuple(Fraction(v) for v in values)
    except (TypeError, ValueError) as exc:
        raise InputError(f"score entries must be rationals: {values!r}") from exc


def _check_k(k, m: int) -> None:
    """The one range check on an approval depth k for m candidates."""
    if not isinstance(k, int) or not 1 <= k <= m - 1:
        raise InputError(f"k must be in [1, m-1], got k={k!r}, m={m}")


@dataclass(frozen=True)
class ScoreVector:
    """Per-position scores for a positional scoring rule.

    Entries must be non-increasing with a strictly larger first entry than
    last; this rules out constant vectors and single-candidate vectors.
    """

    alphas: tuple[Fraction, ...]

    def __post_init__(self):
        alphas = _fractions(self.alphas)
        object.__setattr__(self, "alphas", alphas)
        if len(alphas) < 2:
            raise InputError("score vector needs at least two positions")
        if any(a < b for a, b in zip(alphas, alphas[1:])):
            raise InputError(f"score vector must be non-increasing: {alphas!r}")
        if alphas[0] == alphas[-1]:
            raise InputError("constant score vector does not define a rule")

    @property
    def m(self) -> int:
        return len(self.alphas)

    @property
    def alpha1(self) -> Fraction:
        return self.alphas[0]

    def normalized(self) -> "ScoreVector":
        """This vector shifted and rescaled to its canonical normalized form.

        Subtracts the last entry, then divides by the value of the last
        strictly positive entry, so the result ends in zero and steps down by
        exactly one into its trailing zero block. Winner sets are unchanged by
        this affine rescaling.
        """
        shifted = tuple(a - self.alphas[-1] for a in self.alphas)
        scale = [v for v in shifted if v > 0][-1]
        return ScoreVector(tuple(v / scale for v in shifted))

    @classmethod
    def borda(cls, m: int) -> "ScoreVector":
        return cls(tuple(Fraction(m - 1 - i) for i in range(m)))

    @classmethod
    def k_approval(cls, m: int, k: int) -> "ScoreVector":
        _check_k(k, m)
        return cls(tuple(Fraction(1) if i < k else Fraction(0) for i in range(m)))

    @classmethod
    def plurality(cls, m: int) -> "ScoreVector":
        return cls.k_approval(m, 1)


def integer_weights(vector: ScoreVector) -> tuple[tuple[int, ...], int]:
    """Integer weights and their common denominator ``unit``:
    ``vector.alphas[i] == Fraction(weights[i], unit)`` for every position."""
    unit = math.lcm(*(a.denominator for a in vector.alphas))
    return tuple(a.numerator * (unit // a.denominator) for a in vector.alphas), unit


# ---------------------------------------------------------------------------
# rules


class Rule:
    """Marker base class for voting rules."""

    kind: str = ""


@dataclass(frozen=True)
class Scoring(Rule):
    vector: ScoreVector
    kind = "scoring"


@dataclass(frozen=True)
class KApproval(Rule):
    k: int
    kind = "kapproval"

    def __post_init__(self):
        if not isinstance(self.k, int) or self.k < 1:
            raise InputError(f"k must be a positive integer, got {self.k!r}")


@dataclass(frozen=True)
class Approval(Rule):
    kind = "approval"


@dataclass(frozen=True)
class Bucklin(Rule):
    kind = "bucklin"


@dataclass(frozen=True)
class Maximin(Rule):
    kind = "maximin"


@dataclass(frozen=True)
class Copeland(Rule):
    alpha: Fraction = Fraction(1, 2)
    kind = "copeland"

    def __post_init__(self):
        try:
            alpha = Fraction(self.alpha)
        except (TypeError, ValueError) as exc:
            raise InputError(f"copeland alpha must be rational: {self.alpha!r}") from exc
        object.__setattr__(self, "alpha", alpha)
        if not 0 <= alpha <= 1:
            raise InputError(f"copeland alpha must lie in [0, 1], got {alpha}")


# ---------------------------------------------------------------------------
# tallies
#
# One integer tally per rule family, built from (ballot, count) pairs. A
# tally takes add(raw, k), where ``raw`` is a ranking's order tuple or an
# approval ballot's frozenset and a negative k retracts, and reads out the
# rule's exact scores and its winner set as a bitmask over candidates. The
# rule is fixed when the tally is built, so add and winner_mask stay plain
# integer loops: the exact search runs them millions of times.


def _best_mask(values) -> int:
    best = max(values)
    mask = 0
    for cand, value in enumerate(values):
        if value == best:
            mask |= 1 << cand
    return mask


class PositionalTally:
    """Scoring and k-approval: position ``i`` earns the integer weight
    ``weights[i]``, and the scores are ``raw / unit`` (plain integers when
    ``unit`` is None). Zero weights cost nothing."""

    def __init__(self, votes, weights: Sequence[int], m: int, unit: int | None = None):
        self.raw = [0] * m
        self.unit = unit
        self.live = [(pos, w) for pos, w in enumerate(weights) if w]
        for ballot, count in votes:
            self.add(ballot.order, count)

    def add(self, order, k: int) -> None:
        raw = self.raw
        for pos, w in self.live:
            raw[order[pos]] += k * w

    def scores(self) -> dict[int, Fraction | int]:
        if self.unit is None:
            return dict(enumerate(self.raw))
        return {c: Fraction(r, self.unit) for c, r in enumerate(self.raw)}

    def winner_mask(self) -> int:
        return _best_mask(self.raw)


class ApprovalTally(PositionalTally):
    """Approval: the number of ballots approving each candidate, read out
    like an integer positional tally."""

    def __init__(self, votes, m: int):
        super().__init__((), (), m)
        for ballot, count in votes:
            self.add(ballot.approved, count)

    def add(self, approved, k: int) -> None:
        raw = self.raw
        for cand in approved:
            raw[cand] += k


class BucklinTally:
    """Bucklin: ``at_pos[x][i]`` of the ``n`` ballots rank x at position i."""

    def __init__(self, votes, m: int):
        self.m = m
        self.n = 0
        self.at_pos = [[0] * m for _ in range(m)]
        for ballot, count in votes:
            self.add(ballot.order, count)

    def add(self, order, k: int) -> None:
        at_pos = self.at_pos
        for pos, cand in enumerate(order):
            at_pos[cand][pos] += k
        self.n += k

    def top_counts(self) -> tuple[tuple[int, ...], ...]:
        """Row x, entry l-1: the ballots ranking x within their top l positions."""
        return tuple(tuple(itertools.accumulate(row)) for row in self.at_pos)

    def scores(self) -> dict[int, int]:
        """Each candidate's smallest level l at which more than half of the
        ballots rank it in their top l; level m always qualifies."""
        n = self.n
        return {
            x: next(level + 1 for level, count in enumerate(row) if 2 * count > n)
            for x, row in enumerate(self.top_counts())
        }

    def winner_mask(self) -> int:
        m, n, at_pos = self.m, self.n, self.at_pos
        cum = [0] * m
        for level in range(m):
            mask = 0
            for cand in range(m):
                cum[cand] += at_pos[cand][level]
                if 2 * cum[cand] > n:
                    mask |= 1 << cand
            if mask:
                return mask
        raise AssertionError("every candidate reaches a majority by the last level")


class PairwiseTally:
    """Pairwise family: ``above[x][y]`` ballots rank x above y."""

    def __init__(self, votes, m: int):
        self.m = m
        self.above = [[0] * m for _ in range(m)]
        self.rivals = [[y for y in range(m) if y != x] for x in range(m)]
        for ballot, count in votes:
            self.add(ballot.order, count)

    def add(self, order, k: int) -> None:
        above = self.above
        for i, x in enumerate(order):
            row = above[x]
            for y in order[i + 1:]:
                row[y] += k

    def net(self) -> tuple[tuple[int, ...], ...]:
        """Pairwise margins: ``above[x][y] - above[y][x]``."""
        above, m = self.above, self.m
        return tuple(tuple(above[x][y] - above[y][x] for y in range(m)) for x in range(m))


class MaximinTally(PairwiseTally):
    """Maximin: each candidate's worst pairwise margin (0 without rivals)."""

    def _worst(self) -> list[int]:
        above = self.above
        return [
            min([above[x][y] - above[y][x] for y in rivals], default=0)
            for x, rivals in enumerate(self.rivals)
        ]

    def scores(self) -> dict[int, int]:
        return dict(enumerate(self._worst()))

    def winner_mask(self) -> int:
        return _best_mask(self._worst())


class CopelandTally(PairwiseTally):
    """Copeland: pairwise wins plus ``alpha`` per pairwise tie."""

    def __init__(self, votes, m: int, alpha: Fraction):
        super().__init__(votes, m)
        self.alpha = alpha

    def _points(self) -> list[int]:
        # q*wins + p*ties is an integer proxy for wins + (p/q)*ties
        p, q = self.alpha.numerator, self.alpha.denominator
        above = self.above
        points = []
        for x, rivals in enumerate(self.rivals):
            row = above[x]
            total = 0
            for y in rivals:
                diff = row[y] - above[y][x]
                if diff > 0:
                    total += q
                elif diff == 0:
                    total += p
            points.append(total)
        return points

    def scores(self) -> dict[int, Fraction]:
        q = self.alpha.denominator
        return {x: Fraction(total, q) for x, total in enumerate(self._points())}

    def winner_mask(self) -> int:
        return _best_mask(self._points())


def rule_tally(rule: Rule, m: int, votes, ranked: bool):
    """The integer tally of ``rule`` over (ballot, count) pairs of
    ``m``-candidate ballots, which are rankings when ``ranked`` and approval
    ballots otherwise. Raises InputError when the rule does not fit them:
    this is the one check of a rule against an election, behind winner sets,
    bounds, the exact search and the estimators."""
    if isinstance(rule, Approval):
        if ranked:
            raise InputError("this operation needs an approval profile")
        return ApprovalTally(votes, m)
    if not isinstance(rule, (Scoring, KApproval, Bucklin, Maximin, Copeland)):
        raise InputError(f"unknown rule: {rule!r}")
    if not ranked:
        raise InputError("this operation needs a ranked profile")
    if isinstance(rule, Scoring):
        if rule.vector.m != m:
            raise InputError(f"score vector has {rule.vector.m} entries for {m} candidates")
        weights, unit = integer_weights(rule.vector)
        return PositionalTally(votes, weights, m, unit)
    if isinstance(rule, KApproval):
        _check_k(rule.k, m)
        return PositionalTally(votes, [1] * rule.k, m)
    if isinstance(rule, Bucklin):
        return BucklinTally(votes, m)
    if isinstance(rule, Maximin):
        return MaximinTally(votes, m)
    return CopelandTally(votes, m, rule.alpha)


# ---------------------------------------------------------------------------
# winners


@dataclass(frozen=True)
class WinnerResult:
    """Winning candidates (ascending) plus the per-candidate scores used."""

    winners: tuple[int, ...]
    scores: Mapping[int, Fraction | int]


def top_two(scores: Mapping[int, Fraction | int]) -> tuple[int, int]:
    """Highest and second-highest scoring candidates, ties broken by lowest
    index. Requires at least two candidates."""
    if len(scores) < 2:
        raise InputError("need at least two candidates to pick a top two")
    ordered = sorted(scores, key=lambda c: (-scores[c], c))
    return ordered[0], ordered[1]


def winner_set(profile: Profile, rule: Rule) -> WinnerResult:
    """Winner set of a profile under a rule.

    Approval rules require approval profiles and vice versa; every other
    rule requires a ranked profile. The winner set is never empty.
    """
    tally = rule_tally(rule, profile.m, profile.votes, isinstance(profile, RankedProfile))
    mask = tally.winner_mask()
    return WinnerResult(tuple(c for c in range(profile.m) if mask >> c & 1), tally.scores())


def ranked_profile(m: int, votes: Iterable[tuple[Sequence[int], int]], names=None) -> RankedProfile:
    """Convenience constructor accepting plain tuples as ballots."""
    return RankedProfile(
        m=m, votes=tuple((Ranking(tuple(b)), mult) for b, mult in votes), names=names
    )


def approval_profile(m: int, votes: Iterable[tuple[Iterable[int], int]], names=None) -> ApprovalProfile:
    """Convenience constructor accepting plain iterables as ballots."""
    return ApprovalProfile(
        m=m, votes=tuple((ApprovalBallot(frozenset(b)), mult) for b, mult in votes), names=names
    )
