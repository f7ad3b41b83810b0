"""Exact margin of victory and scale-free sandwich bounds.

The margin of victory (MoV) of an election is the minimum number of votes
that must be *replaced* to change the winner set. Set semantics throughout:
moving from {w} to {w, x} counts as a change, so MoV >= 1 and creating a tie
is enough.

Three layers live here:

* an exhaustive brute-force oracle (iterative deepening over how many votes
  change), the trusted ground truth at small scale; a depth-first search
  retracts and inserts ballots in the rule's integer tally from
  `movkit.core.rule_tally`, compares winner sets as bitmasks, and prunes
  every subtree in which a per-rule test certifies that the remaining
  changes cannot move a unique winner;
* polynomial-time structural quantities: each rule's margin statistic (score
  gap, Bucklin level gap, Copeland relative margin), read from one tally by
  `_margin_statistic` and shared with `movkit.estimators`, and the Bucklin
  change floor;
* sandwich bounds built from those quantities, valid at any profile size.
"""

import bisect
import itertools
import math
import operator
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
    _entries,
    _store_tally,
    winner_set,  # not called here; perfbench's tracer wraps it under this name
)

DEFAULT_WORK_LIMIT = 5_000_000


class WorkLimitError(RuntimeError):
    """Brute-force search exceeded its work budget: replacement ballots plus
    visited search nodes (a resource guard, not a statement about the margin
    itself)."""


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
    the complete (retraction, insertion) pairs scored, one evaluation each;
    pairs in pruned subtrees are not scored and not counted.
    """

    value: int | None
    budget: int
    witness: tuple[tuple[int, Union[Ranking, ApprovalBallot]], ...] | None
    evaluations: int


@dataclass(frozen=True)
class MovBounds:
    """A validated sandwich lower <= MoV <= upper. ``source`` names the
    argument that produced the bounds.
    """

    lower: Fraction
    upper: Fraction
    source: str

    def __post_init__(self):
        lower, upper = Fraction(self.lower), Fraction(self.upper)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        if lower < 0:
            raise InputError(f"lower bound must be non-negative, got {lower}")
        if upper <= 0:
            raise InputError(f"upper bound must be positive, got {upper}")
        if lower > upper:
            raise InputError(f"bounds out of order: {lower} > {upper}")


# ---------------------------------------------------------------------------
# exact search


def _mov_tally(rule: Rule, m: int, rows, counts, ranked: bool):
    """The tally of a store (see `movkit.core._store`), checked as
    `movkit.core.rule_tally` checks it, for a margin of victory, which
    needs a second candidate to change the winner set."""
    if m < 2:
        raise InputError("margin of victory needs at least two candidates")
    return _store_tally(rule, m, rows, counts, ranked)


def _settled_test(rule: Rule, tally, m: int, n: int):
    """A test certifying that the winner set cannot change any more, or None
    when the tally's winner set is tied (tied sets are never pruned).

    The test reads the tally part way through the search and takes the r
    retractions and s insertions still to come. One retraction lowers, and
    one insertion raises, each top-l count, approval count and pairwise count
    by at most one, so a pairwise net moves by at most one per change and a
    positional score by at most a1 - am. The test returns True only when every
    completion leaves the base winner w the unique winner of the final ``n``
    votes.
    """
    mask = tally.winner_mask()
    if mask & (mask - 1):
        return None
    w = mask.bit_length() - 1
    rivals = [x for x in range(m) if x != w]
    if isinstance(rule, Bucklin):
        level = tally.scores()[w]
        at_pos = tally.at_pos

        def settled(r: int, s: int) -> bool:
            # the events of `_change_floor`: w keeps its majority at the
            # winning level, and no rival reaches one there or earlier
            if 2 * (sum(at_pos[w][:level]) - r) <= n:
                return False
            return all(2 * (sum(at_pos[x][:level]) + s) <= n for x in rivals)

        return settled
    if isinstance(rule, Copeland):
        above, win = tally.above, rule.alpha.denominator
        pairs = list(itertools.combinations(range(m), 2))

        def settled(r: int, s: int) -> bool:
            # a pair with |net| > r + s is decided; an undecided one may still
            # end as a win (the most points) or a loss (the fewest) either way
            slack = r + s
            low, high = [0] * m, [0] * m
            for x, y in pairs:
                net = above[x][y] - above[y][x]
                if net > slack:
                    low[x] += win
                    high[x] += win
                elif net < -slack:
                    low[y] += win
                    high[y] += win
                else:
                    high[x] += win
                    high[y] += win
            return all(high[x] < low[w] for x in rivals)

        return settled
    if isinstance(rule, Maximin):
        # w's worst net can fall by one per change while x's rises by one
        read, spread = tally._worst, 2
    else:
        read = lambda: tally.raw  # noqa: E731
        spread = tally.weights[0] - tally.weights[-1] if isinstance(rule, Scoring) else 1

    def settled(r: int, s: int) -> bool:
        scores = read()
        floor = scores[w] - spread * (r + s)
        return all(scores[x] < floor for x in rivals)

    return settled


def mov_brute_force(
    profile: Profile,
    rule: Rule,
    budget: int | None = None,
    work_limit: int = DEFAULT_WORK_LIMIT,
) -> ExactMovResult:
    """Exact margin of victory by iterative deepening, up to ``budget`` changes
    (None: all n votes).

    The search applies raw ballots, tuples, to the rule's tally with
    add(raw, -1 or +1) and compares its winner_mask: the profile's ballots
    as they are read from its store (the order of each ranked row, or the
    ascending members of each approval mask), and replacements in the same
    form from the universe of every raw ballot, the m! order tuples of a
    ranked profile or the 2**m approval member tuples, in the order of
    ``itertools.permutations`` or of the bitmasks 0..2**m-1.

    For t = 1, 2, ..., budget, one depth-first search retracts a multiset of
    t ballot types (each at most its multiplicity times) and then inserts a
    multiset of t ballots sharing no type with it (sharing one makes a
    smaller change, which an earlier level rejected). It visits both in the
    lexicographic order of ``itertools.combinations_with_replacement`` and
    applies one ballot to the tally per node, so a prefix is applied once for
    all the changes that share it. The first change of the winner set fixes
    the margin. The witness is the first hit of a search over vote indices:
    each retracted type's first indices in ``profile.expand()``, paired in
    order with the inserted ballots in ranking/subset order.

    With a unique base winner, every node whose remaining changes provably
    cannot alter the winner set is pruned with its subtree (see
    `_settled_test`). Pruning skips no hit, so ``(value, witness)`` is that of
    the unpruned search and ``evaluations`` never exceeds its count.

    Returns ``value=None`` when no change within the budget flips the winner
    set. Raises WorkLimitError once the size of the replacement universe plus
    the search nodes visited (pruned nodes and leaves included) exceed
    ``work_limit``; the universe is charged before it is built. A
    ``work_limit`` below 1 is an InputError, raised before any search.
    """
    m, ranked = profile.m, isinstance(profile, RankedProfile)
    tally = _mov_tally(rule, m, profile.rows, profile.counts, ranked)
    if budget is None:
        budget = profile.n
    if budget < 1:
        raise InputError(f"budget must be at least 1, got {budget}")
    if work_limit < 1:
        raise InputError(f"work limit must be at least 1, got {work_limit}")
    limit_error = WorkLimitError(
        f"exceeded work limit of {work_limit} (replacement ballots plus search nodes)"
    )
    # the work count starts at the universe's size, charged before it is built
    work = math.factorial(m) if ranked else 2 ** m
    if work > work_limit:
        raise limit_error
    if ranked:
        universe = list(itertools.permutations(range(m)))
    else:
        # the members of the masks 0..2**m-1: those of mask + 2**c are the
        # members of mask, below 2**c, and c
        universe = [()]
        for c in range(m):
            universe += [members + (c,) for members in universe]
    raw = list(_entries(profile.rows, m, ranked))
    wrap = Ranking if ranked else (lambda members: ApprovalBallot(frozenset(members)))
    add, winner_mask = tally.add, tally.winner_mask
    base_mask = winner_mask()
    settled = _settled_test(rule, tally, m, profile.n)
    mults = profile.counts
    starts = list(itertools.accumulate(mults, initial=0))
    types = len(raw)
    evaluations = 0
    for t in range(1, min(budget, profile.n) + 1):
        work += 1
        if work > work_limit:
            raise limit_error
        if settled and settled(t, t):
            continue
        # path[:t] are retracted type indices, path[t:] indices into options;
        # choice is the next child to try below the node that path reaches
        path: list[int] = []
        taken = [0] * types
        options: list = []
        choice = 0
        while True:
            depth = len(path)
            if depth < 2 * t - 1:
                if depth < t:
                    while choice < types and taken[choice] == mults[choice]:
                        choice += 1
                    if choice < types:
                        add(raw[choice], -1)
                        taken[choice] += 1
                        path.append(choice)
                elif choice < len(options):
                    add(options[choice], +1)
                    path.append(choice)
                if len(path) > depth:
                    work += 1
                    if work > work_limit:
                        raise limit_error
                    depth += 1
                    if not (settled and settled(max(t - depth, 0), min(2 * t - depth, t))):
                        if depth == t:
                            removed = {raw[k] for k in path}
                            options = [u for u in universe if u not in removed]
                            choice = 0
                        continue
                    # pruned: step back from the child just entered
            else:
                for i in range(choice, len(options)):
                    work += 1
                    evaluations += 1
                    if work > work_limit:
                        raise limit_error
                    new = options[i]
                    add(new, +1)
                    changed = winner_mask() != base_mask
                    add(new, -1)
                    if changed:
                        retracted = path[:t]
                        inserted = [options[j] for j in path[t:]] + [new]
                        witness = tuple(
                            (starts[k] + j - retracted.index(k), wrap(ballot))
                            for j, (k, ballot) in enumerate(zip(retracted, inserted))
                        )
                        return ExactMovResult(
                            value=t, budget=budget, witness=witness, evaluations=evaluations
                        )
            # every child tried, or the node pruned: go on to its next sibling
            if not path:
                break
            last = path.pop()
            if len(path) < t:
                taken[last] -= 1
                add(raw[last], +1)
            else:
                add(options[last], -1)
            choice = last + 1
    return ExactMovResult(value=None, budget=budget, witness=None, evaluations=evaluations)


def apply_changes(
    profile: Profile,
    changes: Sequence[tuple[int, Union[Ranking, ApprovalBallot]]],
) -> Profile:
    """Replace the votes at the given expanded indices, returning a new profile.

    Indices refer to ``profile.expand()`` order and must be distinct; this is
    the format of ``ExactMovResult.witness``. Each index is found among the
    cumulative multiplicities and only counts change, so the cost does not
    grow with n. The new profile's constructor checks every replacement, so
    a raw tuple or set is accepted as in any profile constructor.
    """
    ends = list(itertools.accumulate(profile.counts))
    counts = list(profile.counts)
    seen: set[int] = set()
    inserted = []
    for index, ballot in changes:
        index = operator.index(index)  # TypeError for a non-integer, as for a list index
        if not 0 <= index < ends[-1]:
            raise InputError(f"vote index {index} out of range 0..{ends[-1] - 1}")
        if index in seen:
            raise InputError(f"vote index {index} changed twice")
        seen.add(index)
        counts[bisect.bisect_right(ends, index)] -= 1
        inserted.append((ballot, 1))
    entries = _entries(profile.rows, profile.m, isinstance(profile, RankedProfile))
    kept = [(entry, count) for entry, count in zip(entries, counts) if count]
    return type(profile)(m=profile.m, votes=(*kept, *inserted), names=profile.names)


# ---------------------------------------------------------------------------
# closed forms and structural quantities


def _gap_closed_form(profile: Profile, rule: Rule) -> int:
    bounds = mov_bounds(profile, rule)
    if bounds.source == "tied winners":
        raise TiedWinnersError("closed form applies only to a unique winner; use brute force")
    return int(bounds.upper)


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


def _change_floor(tally) -> int:
    """Lower-bound quantity for the Bucklin margin, read from the majority
    levels and top-l count rows of a Bucklin tally.

    Any change of the winner set must (a) cost some winner its majority at
    the winning level, (b) lift a non-winner to a majority at the winning
    level, or (c) lift some candidate to a majority at a strictly earlier
    level (which only matters if it isn't already the unique winner). One
    changed vote moves each count by at most one, so the margin is at least
    the cheapest of these events; with m >= 2 one of them always exists.
    """
    m, half, rows, levels = tally.m, tally.n // 2, tally.top_counts(), tally.levels()
    best = min(levels)  # the winning level, 0-based
    winners = {c for c, level in enumerate(levels) if level == best}
    costs = [  # (c): an earlier majority
        half + 1 - rows[y][level]
        for level in range(best) for y in range(m) if y not in winners or len(winners) >= 2
    ]
    if best < m - 1:  # (a) and (b) at the winning level
        costs += [rows[w][best] - half for w in winners]
        costs += [half + 1 - rows[x][best] for x in range(m) if x not in winners]
    return min(costs)


# ---------------------------------------------------------------------------
# relative margin (pairwise-score family)


def _relative_margin(net, num: int, den: int, n: int, x: int, y: int, alpha: Fraction) -> int:
    """Relative margin of x over y where u's margin over z is
    ``num * net[u][z] / den``, with ``net`` integer and num, den positive:
    1/1 for a profile's pairwise margins, n/ell for a sample's.

    It is the least integer shift t such that x's tie-weighted count of
    dominating rivals at threshold -2t does not exceed y's count at
    threshold +2t. The predicate is monotone in t (one side only loses
    members, the other only gains), so binary search over
    t in [-(ceil(n/2)+1), ceil(n/2)+1] is exact; the upper endpoint always
    satisfies the predicate.

    A margin is below the threshold 2t exactly when
    num * net[u][z] < 2t * den. A rival counts q when below and p when
    equal, alpha = p/q: q times alpha's tie-weighted count, as in
    `movkit.core.CopelandTally`. So the search builds no Fraction.
    """
    p, q = alpha.numerator, alpha.denominator
    column_x, column_y = (
        sorted(num * net[u][z] for u in range(len(net)) if u != z) for z in (x, y)
    )

    def weight(column, threshold: int) -> int:
        below = bisect.bisect_left(column, threshold)
        return q * below + p * (bisect.bisect_right(column, threshold) - below)

    hi = (n + 1) // 2 + 1
    lo = -hi
    while lo < hi:
        mid = (lo + hi) // 2
        if weight(column_x, -2 * mid * den) <= weight(column_y, 2 * mid * den):
            hi = mid
        else:
            lo = mid + 1
    return lo


def copeland_log_factor(m: int) -> int:
    """ceil(log2 m): the pairwise-elimination depth used by the Copeland
    upper bound."""
    if m < 2:
        raise InputError("needs at least two candidates")
    return (m - 1).bit_length()


# ---------------------------------------------------------------------------
# the margin statistic and the sandwich bounds


def _margin_statistic(rule: Rule, tally, n: int, scale: Fraction | None = None):
    """(U, scores, pair margins) read from the integers of the rule's tally
    over n votes. U is the un-rounded upper end of the rule's sandwich on
    the margin (`mov_bounds` for a unique winner, without the scoring +1 or
    the k-approval rounding), and 0 on a tied winner set.

    ``scale`` is n/ell for a sample of ell votes: every count is read as
    scale times itself, and the scores and pair margins are returned for
    the estimate. Without a scale (the full profile, as `mov_bounds` reads
    it) counts are read as they are, and pair margins and scores are None.
    The winner (the lowest index of the winner set on ties) and the gaps
    are read on the tally's integers. With scale = num/den, each returned
    value is built once, as Fraction(num * v, den * d) of integers v and d:
    only U, the scores and the pair margins are rationals.

    * scoring: the top-two gap over a1 - am. A scoring vector is normalized
      here, in its integer weights w_i: with sigma the last positive
      w_i - w_m, a score is (scale * raw - w_m * n) / sigma in normalized
      units, and U = scale * (raw_w - raw_z) / (w_1 - w_m) is the same in
      either unit;
    * k-approval and approval: half the top-two gap;
    * Bucklin: the level gap, the least n_l(w) - n_l(x) + 1 over levels l in
      1..m-1 where the canonical winner w holds a strict n/2 majority of the
      top-l counts and some x != w does not (the scaled top-l count rows are
      the scores). No level separates them exactly on a full tie;
    * maximin: half the gap between the two best worst-case pairwise margins;
    * Copeland: 2(K+1) times the winner's smallest relative margin over a
      rival, K = ceil(log2 m), with unscaled Copeland scores. The relative
      margin is searched on the integer margins (`_relative_margin`).

    Pair margins are None outside maximin and Copeland.
    """
    num, den = (1, 1) if scale is None else (scale.numerator, scale.denominator)
    sampled = scale is not None
    scores = margins = None
    if isinstance(rule, Bucklin):
        # a scaled majority scale*count > n/2 is the tally's own 2*count > ell
        levels, rows, last = tally.levels(), tally.top_counts(), tally.m - 1
        w = levels.index(min(levels))
        # each row's levels before the last where w holds a majority and its candidate not
        lead = min((
            rows[w][level] - row[level]
            for row, first in zip(rows, levels) for level in range(levels[w], min(first, last))
        ), default=None)
        if sampled:
            scores = {x: tuple(Fraction(num * c, den) for c in row) for x, row in enumerate(rows)}
        return 0 if lead is None else Fraction(num * lead + den, den), scores, None
    if isinstance(rule, (Maximin, Copeland)):
        net = tally.net()
        if sampled:
            margins = tuple(tuple(Fraction(num * d, den) for d in row) for row in net)
    if isinstance(rule, Copeland):
        points = tally._points()
        w = points.index(max(points))
        # clamped at zero: on a tie w's relative margin over a co-winner can be negative
        gamma = max(0, min(
            _relative_margin(net, num, den, n, w, x, rule.alpha)
            for x in range(tally.m)
            if x != w
        ))
        if sampled:
            scores = tally.scores()
        return 2 * (copeland_log_factor(tally.m) + 1) * gamma, scores, margins
    values = tally._worst() if isinstance(rule, Maximin) else tally.raw
    # a score is (num * v - shift) / (den * unit), U is num * gap / (den * spread)
    shift, unit, spread = 0, 1, 2
    if isinstance(rule, Scoring):
        weights = tally.weights
        low = weights[-1]
        shift, unit = den * low * n, [v - low for v in weights if v > low][-1]
        spread = weights[0] - low
    second, best = sorted(values)[-2:]
    if sampled:
        scores = {x: Fraction(num * v - shift, den * unit) for x, v in enumerate(values)}
    return Fraction(num * (best - second), den * spread), scores, margins


def mov_bounds(profile: Profile, rule: Rule) -> MovBounds:
    """Scale-free sandwich bounds on the margin of victory.

    Every bound holds under winner-set semantics, tied winner sets included,
    where the tie special cases below apply. U is the upper end that
    `_margin_statistic` reads:

    * positional scoring (normalized vector): [U/2, U + 1];
    * k-approval and approval: [1, 1] on a tie (one change always creates or
      breaks one), else [U, ceil(U)];
    * Bucklin: [change floor, U] (see `_change_floor` for the lower end).
      Changing U votes (moving x up, w down) hands x a strictly earlier
      majority, so the level gap bounds the margin from above; with no
      separating level (a full tie) the upper end is n;
    * maximin: [1, 1] on a tie, else [U/2, U];
    * Copeland: [1, n] on a tie, else [G, U] with G = U/(2(K+1)) the
      winner's smallest relative margin.

    Under winner-set semantics with m >= 2 the margin lies in [1, n]: one
    change is always needed, and replacing all n votes reaches any profile.
    So the upper end is capped at n.
    """
    tally = _mov_tally(rule, profile.m, profile.rows, profile.counts,
                       isinstance(profile, RankedProfile))
    upper = _margin_statistic(rule, tally, profile.n)[0]
    if isinstance(rule, Scoring):
        lower, upper, source = upper / 2, upper + 1, "positional score gap"
    elif isinstance(rule, Bucklin):
        lower, upper = _change_floor(tally), upper or profile.n
        source = "majority level analysis"
    elif upper == 0:
        lower, upper = 1, profile.n if isinstance(rule, Copeland) else 1
        source = "tied winners"
    elif isinstance(rule, Maximin):
        lower, source = upper / 2, "pairwise score gap"
    elif isinstance(rule, Copeland):
        lower, source = Fraction(upper, 2 * (copeland_log_factor(profile.m) + 1)), "relative margin"
    else:
        lower, upper = upper, math.ceil(upper)
        source = "top-k score gap" if isinstance(rule, KApproval) else "approval score gap"
    return MovBounds(lower=lower, upper=min(upper, profile.n), source=source)
