"""Exact margin of victory and scale-free sandwich bounds.

The margin of victory (MoV) of an election is the minimum number of votes
that must be *replaced* to change the winner set. Set semantics throughout:
moving from {w} to {w, x} counts as a change, so MoV >= 1 and creating a tie
is enough.

Three layers live here:

* an exhaustive brute-force oracle (iterative deepening over how many votes
  change), the trusted ground truth at small scale; it retracts and inserts
  ballots in the rule's integer tally from `movkit.core.rule_tally` and
  compares winner sets as bitmasks;
* polynomial-time structural quantities: each rule's margin statistic (score
  gap, Bucklin level gap, Copeland relative margin), read from one tally by
  `_margin_statistic` and shared with `movkit.estimators`, and the Bucklin
  change floor;
* sandwich bounds built from those quantities, valid at any profile size.

Infinite quantities use the ``math.inf`` sentinel.
"""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

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
    Scoring,
    _profile_tally,
    pairwise_matrix,
    rule_tally,
    top_two,
    winner_set,  # not called here; perfbench's tracer wraps it under this name
)

DEFAULT_WORK_LIMIT = 5_000_000


class WorkLimitError(RuntimeError):
    """Brute-force search exceeded its evaluation budget (a resource guard,
    not a statement about the margin itself)."""


class TiedWinnersError(ValueError):
    """A closed form that presumes a unique winner was given a tied profile."""


# ---------------------------------------------------------------------------
# result types


@dataclass(frozen=True)
class ExactMovResult:
    """Outcome of the brute-force search.

    ``value`` is the exact margin when found within ``budget`` changed votes,
    else None. ``witness`` realizes the change: (vote index, replacement
    ballot) pairs, indices into ``profile.expand()``. ``evaluations`` counts
    the (retraction, insertion) pairs scored, one evaluation each.
    """

    value: int | None
    budget: int
    witness: tuple[tuple[int, Union[Ranking, ApprovalBallot]], ...] | None
    evaluations: int

    @property
    def is_exact(self) -> bool:
        return self.value is not None


@dataclass(frozen=True)
class MovBounds:
    """A validated sandwich lower <= MoV <= upper.

    ``upper`` may be ``math.inf`` (Bucklin profiles where no vote change can
    dislodge the winner through the level-gap argument). ``source`` names the
    argument that produced the bounds.
    """

    lower: Fraction
    upper: Union[Fraction, float]
    source: str

    def __post_init__(self):
        lower = Fraction(self.lower)
        upper = self.upper if self.upper == math.inf else Fraction(self.upper)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        if lower < 0:
            raise InputError(f"lower bound must be non-negative, got {lower}")
        if not upper > 0:
            raise InputError(f"upper bound must be positive, got {upper}")
        if lower > upper:
            raise InputError(f"bounds out of order: {lower} > {upper}")


# ---------------------------------------------------------------------------
# exact search


def _make_engine(profile: Profile, rule: Rule):
    """The rule's tally, raw ballot types, replacement universe and ballot
    wrapper. The search applies raw ballots (order tuples, frozensets) to
    the tally with add(raw, -1 or +1) and compares its winner_mask."""
    if isinstance(rule, Approval):
        if not isinstance(profile, ApprovalProfile):
            raise InputError("approval rule needs an approval profile")
        universe = [
            frozenset(c for c in range(profile.m) if mask >> c & 1)
            for mask in range(2 ** profile.m)
        ]
        tally = rule_tally(rule, profile.m, profile.votes, ranked=False)
        return tally, [b.approved for b, _ in profile.votes], universe, ApprovalBallot
    if not isinstance(profile, RankedProfile):
        raise InputError("this rule needs a ranked profile")
    tally = rule_tally(rule, profile.m, profile.votes, ranked=True)
    universe = list(itertools.permutations(range(profile.m)))
    return tally, [b.order for b, _ in profile.votes], universe, Ranking


def mov_brute_force(
    profile: Profile,
    rule: Rule,
    budget: int,
    work_limit: int = DEFAULT_WORK_LIMIT,
) -> ExactMovResult:
    """Exact margin of victory by iterative deepening, up to ``budget`` changes.

    For t = 1, 2, ..., budget, retracts every multiset of t ballot types
    (each at most its multiplicity times) and inserts every multiset of t
    ballots sharing no type with it (sharing one makes a smaller change, which
    an earlier level rejected). The first change of the winner set fixes the
    margin. The witness is the first hit of a search over vote indices: each
    retracted type's first indices in ``profile.expand()``, paired in order
    with the inserted ballots in ranking/subset order.

    Returns ``value=None`` when no change within the budget flips the winner
    set. Raises WorkLimitError once more than ``work_limit`` (retraction,
    insertion) pairs have been scored.
    """
    if profile.m < 2:
        raise InputError("margin of victory needs at least two candidates")
    if budget < 1:
        raise InputError(f"budget must be at least 1, got {budget}")
    tally, raw, universe, wrap = _make_engine(profile, rule)
    base_mask = tally.winner_mask()
    mults = [mult for _, mult in profile.votes]
    starts = list(itertools.accumulate(mults, initial=0))
    evaluations = 0
    for t in range(1, min(budget, profile.n) + 1):
        for retracted in itertools.combinations_with_replacement(range(len(raw)), t):
            # the j-th entry's offset in its type's block must be below its multiplicity
            if any(j - retracted.index(k) >= mults[k] for j, k in enumerate(retracted)):
                continue
            removed = {raw[k] for k in retracted}
            for k in retracted:
                tally.add(raw[k], -1)
            options = [u for u in universe if u not in removed]
            for inserted in itertools.combinations_with_replacement(options, t):
                evaluations += 1
                if evaluations > work_limit:
                    raise WorkLimitError(
                        f"exceeded work limit of {work_limit} evaluations"
                    )
                for new in inserted:
                    tally.add(new, +1)
                changed = tally.winner_mask() != base_mask
                for new in inserted:
                    tally.add(new, -1)
                if changed:
                    witness = tuple(
                        (starts[k] + j - retracted.index(k), wrap(new))
                        for j, (k, new) in enumerate(zip(retracted, inserted))
                    )
                    return ExactMovResult(
                        value=t, budget=budget, witness=witness, evaluations=evaluations
                    )
            for k in retracted:
                tally.add(raw[k], +1)
    return ExactMovResult(value=None, budget=budget, witness=None, evaluations=evaluations)


def apply_changes(
    profile: Profile,
    changes: Sequence[tuple[int, Union[Ranking, ApprovalBallot]]],
) -> Profile:
    """Replace the votes at the given expanded indices, returning a new profile.

    Indices refer to ``profile.expand()`` order and must be distinct; this is
    the format of ``ExactMovResult.witness``.
    """
    expanded = profile.expand()
    seen: set[int] = set()
    for index, ballot in changes:
        if not 0 <= index < len(expanded):
            raise InputError(f"vote index {index} out of range 0..{len(expanded) - 1}")
        if index in seen:
            raise InputError(f"vote index {index} changed twice")
        seen.add(index)
        if isinstance(profile, RankedProfile):
            if not isinstance(ballot, Ranking) or ballot.m != profile.m:
                raise InputError(f"replacement {ballot!r} is not a ranking of {profile.m}")
        else:
            if not isinstance(ballot, ApprovalBallot):
                raise InputError(f"replacement {ballot!r} is not an approval ballot")
            if any(c >= profile.m for c in ballot.approved):
                raise InputError(f"replacement approves unknown candidate: {ballot!r}")
        expanded[index] = ballot
    votes = tuple((b, 1) for b in expanded)
    if isinstance(profile, RankedProfile):
        return RankedProfile(m=profile.m, votes=votes, names=profile.names)
    return ApprovalProfile(m=profile.m, votes=votes, names=profile.names)


# ---------------------------------------------------------------------------
# closed forms and structural quantities


def _gap_closed_form(profile: Profile, rule: Rule) -> int:
    gap = _margin_statistic(rule, _profile_tally(profile, rule), profile.n)[0]
    if gap == 0:
        raise TiedWinnersError(
            "closed form applies only to a unique winner; use brute force"
        )
    return (gap + 1) // 2


def mov_kapproval_closed_form(profile: RankedProfile, k: int) -> int:
    """Exact k-approval margin for a unique winner: ceil(gap / 2).

    The margin M satisfies 2(M - 1) < gap <= 2M, so ceil(gap / 2) is the only
    integer candidate. Raises TiedWinnersError when the top score is shared.
    """
    return _gap_closed_form(profile, KApproval(k))


def mov_approval_closed_form(profile: ApprovalProfile) -> int:
    """Exact approval margin for a unique winner: ceil(gap / 2).

    Same two-sided argument as k-approval, applied to approval scores.
    """
    return _gap_closed_form(profile, Approval())


def bucklin_gap(profile: RankedProfile) -> Union[int, float]:
    """Upper-bound quantity for the Bucklin margin.

    Minimum of n_l(w) - n_l(x) + 1 over levels l in 1..m-1 where the
    canonical winner w holds a strict majority and some x != w does not.
    Changing that many votes (moving x up, w down) hands x a strictly earlier
    majority, so the value bounds the margin from above. Returns ``math.inf``
    when no level qualifies (then this argument gives no finite bound).
    """
    return _margin_statistic(Bucklin(), _profile_tally(profile, Bucklin()), profile.n)[0]


def bucklin_change_floor(profile: RankedProfile) -> Union[int, float]:
    """Lower-bound quantity for the Bucklin margin.

    Any change of the winner set must (a) cost some winner its majority at
    the winning level, (b) lift a non-winner to a majority at the winning
    level, or (c) lift some candidate to a majority at a strictly earlier
    level (which only matters if it isn't already the unique winner). One
    changed vote moves each count by at most one, so the margin is at least
    the cheapest of these events. Returns ``math.inf`` when no event is
    feasible (single-candidate profiles only).
    """
    return _change_floor(_profile_tally(profile, Bucklin()))


def _change_floor(tally) -> Union[int, float]:
    """`bucklin_change_floor` read from a Bucklin tally."""
    counts = tally.top_counts()
    scores = tally.scores()
    best_level = min(scores.values())
    winners = {c for c, s in scores.items() if s == best_level}
    half = tally.n // 2
    costs: list[int] = []
    if best_level <= tally.m - 1:
        for w in winners:
            costs.append(counts[w][best_level - 1] - half)
        for x in range(tally.m):
            if x not in winners:
                costs.append(half + 1 - counts[x][best_level - 1])
    for level in range(1, best_level):
        for y in range(tally.m):
            if y not in winners or len(winners) >= 2:
                costs.append(half + 1 - counts[y][level - 1])
    return min(costs) if costs else math.inf


# ---------------------------------------------------------------------------
# relative margin (pairwise-score family)


def _score_shifted(d, z: int, threshold, alpha: Fraction) -> Fraction:
    """Count of rivals whose margin over z is below ``threshold``, weighting
    exact hits by alpha."""
    total = Fraction(0)
    for u in range(len(d)):
        if u == z:
            continue
        margin = d[u][z]
        if margin < threshold:
            total += 1
        elif margin == threshold:
            total += alpha
    return total


def relative_margin_generic(
    d: Sequence[Sequence[Union[int, Fraction]]],
    n: int,
    x: int,
    y: int,
    alpha: Fraction,
) -> int:
    """Relative margin of x over y from a pairwise margin matrix ``d``.

    Finds the least integer shift t such that x's tie-weighted count of
    dominating rivals at threshold -2t does not exceed y's count at
    threshold +2t. The predicate is monotone in t (one side only loses
    members, the other only gains), so binary search over
    t in [-(ceil(n/2)+1), ceil(n/2)+1] is exact; the upper endpoint always
    satisfies the predicate. Accepts exact rational margins, so it serves
    both true pairwise matrices and sampled estimates scaled to n.
    """
    m = len(d)
    if x == y:
        raise InputError("relative margin needs two distinct candidates")
    if not (0 <= x < m and 0 <= y < m):
        raise InputError(f"candidate out of range for m={m}")
    alpha = Fraction(alpha)
    hi = (n + 1) // 2 + 1
    lo = -hi

    def holds(t: int) -> bool:
        left = _score_shifted(d, x, -2 * t, alpha)
        right = _score_shifted(d, y, 2 * t, alpha)
        return left <= right

    while lo < hi:
        mid = (lo + hi) // 2
        if holds(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def relative_margin(profile: RankedProfile, x: int, y: int, alpha) -> int:
    """Relative margin of candidate x over y on a ranked profile."""
    return relative_margin_generic(pairwise_matrix(profile).d, profile.n, x, y, Fraction(alpha))


def copeland_margin(profile: RankedProfile, alpha) -> int:
    """Smallest relative margin of the canonical Copeland winner over a rival.

    Non-negative; zero exactly when the winner set is tied. On a tie the
    canonical winner's raw relative margin over a co-winner can fall below
    zero, so the result is clamped at zero. With a unique winner this bounds
    the margin of victory from below, and times 2*(ceil(log2 m) + 1) from
    above.
    """
    if profile.m < 2:
        raise InputError("relative margin needs at least two candidates")
    rule = Copeland(Fraction(alpha))
    return _margin_statistic(rule, _profile_tally(profile, rule), profile.n)[0]


def copeland_log_factor(m: int) -> int:
    """ceil(log2 m): the pairwise-elimination depth used by the Copeland
    upper bound."""
    if m < 2:
        raise InputError("needs at least two candidates")
    return (m - 1).bit_length()


# ---------------------------------------------------------------------------
# the margin statistic and the sandwich bounds


def _margin_statistic(rule: Rule, tally, n: int, scale=1):
    """(statistic, scores, pair margins) read from the rule's tally over n
    votes, every count scaled by ``scale``: 1 for the full profile, n/ell
    for a sample of ell votes. The statistic is the top-two score gap (for
    scoring, over a1 - am), Bucklin's level gap plus one (``math.inf`` if
    none, with the top-l count rows as scores), or the Copeland winner's
    smallest relative margin (with unscaled Copeland scores). Pair margins
    are None outside maximin and Copeland.
    """
    if isinstance(rule, Bucklin):
        # a scaled majority scale*count > n/2 is the tally's own 2*count > ell
        mask, rows = tally.winner_mask(), tally.top_counts()
        w = (mask & -mask).bit_length() - 1
        leads = [
            rows[w][level] - row[level]
            for level in range(tally.m - 1) if 2 * rows[w][level] > tally.n
            for x, row in enumerate(rows) if x != w and 2 * row[level] <= tally.n
        ]
        gap = scale * min(leads) + 1 if leads else math.inf
        return gap, {x: tuple(scale * c for c in row) for x, row in enumerate(rows)}, None
    margins = None
    if isinstance(rule, (Maximin, Copeland)):
        margins = tuple(tuple(scale * d for d in row) for row in tally.net())
    if isinstance(rule, Copeland):
        scores = tally.scores()
        w = top_two(scores)[0]
        # clamped at zero: on a tie w's relative margin over a co-winner can be negative
        gamma = max(0, min(
            relative_margin_generic(margins, n, w, x, rule.alpha)
            for x in range(tally.m)
            if x != w
        ))
        return gamma, scores, margins
    scores = {x: scale * s for x, s in tally.scores().items()}
    w, z = top_two(scores)
    gap = scores[w] - scores[z]
    if isinstance(rule, Scoring):
        gap /= rule.vector.alpha1 - rule.vector.alphas[-1]
    return gap, scores, margins


def mov_bounds(profile: Profile, rule: Rule) -> MovBounds:
    """Scale-free sandwich bounds on the margin of victory.

    Every bound holds under winner-set semantics, tied winner sets included,
    where the tie special cases below apply:

    * positional scoring (normalized vector): [gap/(2*a1), gap/a1 + 1];
    * k-approval and approval: [1, 1] on a tie (one change always creates or
      breaks one), else [gap/2, ceil(gap/2)];
    * Bucklin: [change floor, level gap] (upper may be ``math.inf``);
    * maximin: [1, 1] on a tie, else [gap/4, gap/2];
    * Copeland: [1, n] on a tie, else [G, 2*(ceil(log2 m)+1)*G] with G the
      winner's smallest relative margin.
    """
    if profile.m < 2:
        raise InputError("margin of victory needs at least two candidates")
    tally = _profile_tally(profile, rule)
    gap = _margin_statistic(rule, tally, profile.n)[0]
    if isinstance(rule, Scoring):
        lower, upper, source = gap / 2, gap + 1, "positional score gap"
    elif isinstance(rule, Bucklin):
        lower, upper, source = _change_floor(tally), gap, "majority level analysis"
    elif gap == 0:
        lower, upper = 1, profile.n if isinstance(rule, Copeland) else 1
        source = "tied winners"
    elif isinstance(rule, Maximin):
        lower, upper, source = Fraction(gap, 4), Fraction(gap, 2), "pairwise score gap"
    elif isinstance(rule, Copeland):
        factor = 2 * (copeland_log_factor(profile.m) + 1)
        lower, upper, source = gap, factor * gap, "relative margin"
    else:
        lower, upper = Fraction(gap, 2), (gap + 1) // 2
        source = "top-k score gap" if isinstance(rule, KApproval) else "approval score gap"
    return MovBounds(lower=lower, upper=upper, source=source)
