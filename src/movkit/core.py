"""Ballots, profiles, voting rules, and winner determination.

Candidates are integers ``0..m-1``. Profiles store a multiset of distinct
ballots with positive multiplicities, canonically sorted so that equal
multisets compare equal. Each rule family has one integer tally
(positional, approval, Bucklin position counts, pairwise ``above`` counts),
chosen by `rule_tally` and shared by winner determination, the exact search
and the sampling estimators. A positional score vector is scaled once to
integer weights over a common denominator, and the totals become exact
`fractions.Fraction` scores once per candidate. Whenever a rule needs a
single representative winner, the canonical tie-break is the lowest
candidate index.

Six rule families are supported: positional scoring, k-approval, approval,
Bucklin (strict majority, more than half of the votes), maximin, and
Copeland with tie parameter alpha.
"""

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union


class InputError(ValueError):
    """Invalid election data, rule parameters, or argument combination."""


# ---------------------------------------------------------------------------
# ballots


@dataclass(frozen=True, slots=True)
class Ranking:
    """A strict total order over candidates, most preferred first."""

    order: tuple[int, ...]

    def __post_init__(self):
        order = tuple(self.order)
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
        approved = frozenset(self.approved)
        object.__setattr__(self, "approved", approved)
        if any(not isinstance(c, int) or c < 0 for c in approved):
            raise InputError(f"approval ballot must contain candidate indices: {approved!r}")

    def sort_key(self) -> tuple[int, ...]:
        return tuple(sorted(self.approved))


Ballot = Union[Ranking, ApprovalBallot]


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
class RankedProfile:
    """A multiset of rankings over m candidates.

    ``votes`` is canonicalised on construction: duplicates merged, entries
    sorted by ballot order. ``names`` optionally labels candidates for I/O.
    """

    m: int
    votes: tuple[tuple[Ranking, int], ...]
    names: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.m < 1:
            raise InputError("profile needs at least one candidate")
        merged: Counter[Ranking] = Counter()
        for ballot, mult in self.votes:
            if not isinstance(ballot, Ranking):
                ballot = Ranking(tuple(ballot))
            if ballot.m != self.m:
                raise InputError(f"ballot {ballot.order!r} does not rank all {self.m} candidates")
            if not isinstance(mult, int) or mult < 1:
                raise InputError(f"multiplicity must be a positive integer, got {mult!r}")
            merged[ballot] += mult
        if not merged:
            raise InputError("profile must contain at least one vote")
        canonical = tuple(sorted(merged.items(), key=lambda kv: kv[0].order))
        object.__setattr__(self, "votes", canonical)
        object.__setattr__(self, "names", _validate_names(self.names, self.m))

    @property
    def n(self) -> int:
        return sum(mult for _, mult in self.votes)

    def expand(self) -> list[Ranking]:
        """All n ballots individually, in canonical order (stable indexing)."""
        out: list[Ranking] = []
        for ballot, mult in self.votes:
            out.extend([ballot] * mult)
        return out


@dataclass(frozen=True)
class ApprovalProfile:
    """A multiset of approval ballots over m candidates."""

    m: int
    votes: tuple[tuple[ApprovalBallot, int], ...]
    names: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.m < 1:
            raise InputError("profile needs at least one candidate")
        merged: Counter[ApprovalBallot] = Counter()
        for ballot, mult in self.votes:
            if not isinstance(ballot, ApprovalBallot):
                ballot = ApprovalBallot(frozenset(ballot))
            if any(c >= self.m for c in ballot.approved):
                raise InputError(f"ballot approves unknown candidate: {sorted(ballot.approved)!r}")
            if not isinstance(mult, int) or mult < 1:
                raise InputError(f"multiplicity must be a positive integer, got {mult!r}")
            merged[ballot] += mult
        if not merged:
            raise InputError("profile must contain at least one vote")
        canonical = tuple(sorted(merged.items(), key=lambda kv: kv[0].sort_key()))
        object.__setattr__(self, "votes", canonical)
        object.__setattr__(self, "names", _validate_names(self.names, self.m))

    @property
    def n(self) -> int:
        return sum(mult for _, mult in self.votes)

    def expand(self) -> list[ApprovalBallot]:
        out: list[ApprovalBallot] = []
        for ballot, mult in self.votes:
            out.extend([ballot] * mult)
        return out


Profile = Union[RankedProfile, ApprovalProfile]


# ---------------------------------------------------------------------------
# score vectors


def _fractions(values) -> tuple[Fraction, ...]:
    try:
        return tuple(Fraction(v) for v in values)
    except (TypeError, ValueError) as exc:
        raise InputError(f"score entries must be rationals: {values!r}") from exc


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
        return normalize_score_vector(self.alphas)

    @classmethod
    def borda(cls, m: int) -> "ScoreVector":
        return cls(tuple(Fraction(m - 1 - i) for i in range(m)))

    @classmethod
    def k_approval(cls, m: int, k: int) -> "ScoreVector":
        if not 1 <= k <= m - 1:
            raise InputError(f"k must be in [1, m-1], got k={k}, m={m}")
        return cls(tuple(Fraction(1) if i < k else Fraction(0) for i in range(m)))

    @classmethod
    def plurality(cls, m: int) -> "ScoreVector":
        return cls.k_approval(m, 1)


def integer_weights(vector: ScoreVector) -> tuple[tuple[int, ...], int]:
    """Integer weights and their common denominator ``unit``:
    ``vector.alphas[i] == Fraction(weights[i], unit)`` for every position."""
    unit = math.lcm(*(a.denominator for a in vector.alphas))
    return tuple(a.numerator * (unit // a.denominator) for a in vector.alphas), unit


def normalize_score_vector(raw: Sequence) -> ScoreVector:
    """Shift and rescale a score vector to its canonical normalized form.

    Subtracts the last entry, then divides by the value of the last strictly
    positive entry, so the result ends in zero and steps down by exactly one
    into its trailing zero block. Winner sets are unchanged by this affine
    rescaling. Vectors that `ScoreVector` rejects are rejected.
    """
    alphas = ScoreVector(raw).alphas
    shifted = tuple(a - alphas[-1] for a in alphas)
    scale = [v for v in shifted if v > 0][-1]
    return ScoreVector(tuple(v / scale for v in shifted))


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
    ballots otherwise. Raises InputError when the rule does not fit them."""
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
        if rule.k > m - 1:
            raise InputError(f"k-approval needs k <= m-1, got k={rule.k}, m={m}")
        return PositionalTally(votes, [1] * rule.k, m)
    if isinstance(rule, Bucklin):
        return BucklinTally(votes, m)
    if isinstance(rule, Maximin):
        return MaximinTally(votes, m)
    return CopelandTally(votes, m, rule.alpha)


def _profile_tally(profile: Profile, rule: Rule):
    return rule_tally(rule, profile.m, profile.votes, isinstance(profile, RankedProfile))


def top_k_counts(profile: RankedProfile) -> tuple[tuple[int, ...], ...]:
    """Counts of votes placing each candidate within the top-k positions.

    Returns a tuple of rows, one per candidate; row ``x`` has entry
    ``counts[x][k-1]`` = number of votes ranking ``x`` within its first
    ``k`` positions, for k = 1..m. Rows are non-decreasing and end at n.
    """
    return _profile_tally(profile, Bucklin()).top_counts()


@dataclass(frozen=True)
class PairwiseMatrix:
    """Antisymmetric pairwise margins: d[x][y] = #(x above y) - #(y above x)."""

    d: tuple[tuple[int, ...], ...]
    n: int

    def __post_init__(self):
        d = tuple(tuple(row) for row in self.d)
        object.__setattr__(self, "d", d)
        m = len(d)
        if any(len(row) != m for row in d):
            raise InputError("pairwise matrix must be square")
        for x in range(m):
            if d[x][x] != 0:
                raise InputError("pairwise diagonal must be zero")
            for y in range(m):
                if d[x][y] != -d[y][x]:
                    raise InputError("pairwise matrix must be antisymmetric")
                if x != y and (abs(d[x][y]) > self.n or (d[x][y] - self.n) % 2 != 0):
                    raise InputError(
                        f"pairwise entry {d[x][y]} impossible with n={self.n} votes"
                    )

    @property
    def m(self) -> int:
        return len(self.d)

    def __getitem__(self, pair: tuple[int, int]) -> int:
        x, y = pair
        return self.d[x][y]


def pairwise_matrix(profile: RankedProfile) -> PairwiseMatrix:
    """Pairwise margin matrix of a ranked profile."""
    return PairwiseMatrix(d=_profile_tally(profile, Maximin()).net(), n=profile.n)


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
    tally = _profile_tally(profile, rule)
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
