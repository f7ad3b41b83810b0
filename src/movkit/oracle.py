"""Exact margin of victory and scale-free sandwich bounds.

The margin of victory (MoV) of an election is the minimum number of votes
that must be *replaced* to change the winner set. Set semantics throughout:
moving from {w} to {w, x} counts as a change, so MoV >= 1 and creating a tie
is enough.

Three layers live here:

* an exhaustive brute-force oracle (iterative deepening over how many votes
  change), the trusted ground truth at small scale; a depth-first search
  retracts and inserts ballots in the rule's integer tally from
  `movkit.core._store_tally`, compares winner sets as bitmasks, and prunes
  every subtree in which a per-rule test certifies that the remaining
  changes cannot move a unique winner;
* polynomial-time structural quantities: each rule's margin statistic (score
  gap, Bucklin level gap, Copeland relative margin), read from one tally by
  `_margin_statistic` and shared with `movkit.estimators`, a sample's
  scores and pair margins (`_sample_payload`), and the Bucklin change
  floor;
* sandwich bounds built from those quantities, valid at any profile size.
  One table, `_FAMILIES`, gives each rule family's ratio r of its upper to
  its lower end, the source its bounds name and its sample-size constant:
  r sets the lower ends of `mov_bounds`, Copeland's statistic and the
  estimators' constant c = (r-1)/(r+1) (`_sandwich`).
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
    _check_int,
    _members,
    _read,
    _shown,
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
        lower = _read(lambda: Fraction(self.lower), "lower bound must be rational, got {!r}", self.lower)
        upper = _read(lambda: Fraction(self.upper), "upper bound must be rational, got {!r}", self.upper)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        if lower < 0:
            raise InputError(f"lower bound must be non-negative, got {_shown(lower)}")
        if upper <= 0:
            raise InputError(f"upper bound must be positive, got {_shown(upper)}")
        if lower > upper:
            raise InputError(f"bounds out of order: {_shown(lower)} > {_shown(upper)}")


# ---------------------------------------------------------------------------
# exact search


def _mov_tally(rule: Rule, profile: Profile, counts):
    """The tally of a profile's ballots weighed by ``counts`` (see
    `movkit.core._store_tally`, the one check of a rule against an
    election), for a margin of victory, which needs a second candidate to
    change the winner set."""
    if profile.m < 2:
        raise InputError("margin of victory needs at least two candidates")
    return _store_tally(rule, profile, counts)


def _settled_test(rule: Rule, tally, m: int, n: int, mask: int):
    """A test certifying that the winner set cannot change any more, or None
    when the tally's winner set ``mask`` (its `winner_mask` before the
    search) is tied (tied sets are never pruned).

    The test reads the tally part way through the search and takes the r
    retractions and s insertions still to come. One retraction lowers, and
    one insertion raises, each top-l count, approval count and pairwise count
    by at most one, so a pairwise net moves by at most one per change and a
    positional score by at most a1 - am. The test returns True only when every
    completion leaves the base winner w the unique winner of the final ``n``
    votes.

    The pairwise tests read the tally's ``above`` rows at its current count
    ``tally.n``, where a net is ``2 * above[x][y] - tally.n`` (see
    `movkit.core.PairwiseTally`): maximin compares the row minima, Copeland
    counts each row's entries above two thresholds. The positional, approval
    and maximin tests read the best score and the runner-up from one sort of
    the scores: w must still hold the unique best, and the runner-up must
    stay below it by more than the remaining changes can close.
    """
    if mask & (mask - 1):
        return None
    w = mask.bit_length() - 1
    rivals = [x for x in range(m) if x != w]
    if isinstance(rule, Bucklin):
        level = tally.levels()[w] + 1
        at_pos = tally.at_pos

        def settled(r: int, s: int) -> bool:
            # the events of `_change_floor`: w keeps its majority at the
            # winning level, and no rival reaches one there or earlier
            if 2 * (sum(at_pos[w][:level]) - r) <= n:
                return False
            return all(2 * (sum(at_pos[x][:level]) + s) <= n for x in rivals)

        return settled
    if isinstance(rule, Copeland):
        above = tally.above

        def settled(r: int, s: int) -> bool:
            # a pair whose net 2 * above[x][y] - n lies outside
            # [-(r + s), r + s] is decided; an undecided one may still end as
            # a win (the most points) or a loss (the fewest) either way, so
            # w's decided wins must outnumber each rival's decided wins and
            # undecided pairs together. An entry above ``beats`` is a decided
            # win of its row's candidate, one above ``holds`` a pair it has
            # not surely lost; the diagonal's inf is above both, so it counts
            # once on each side of the comparison.
            n_now = tally.n
            beats, holds = (n_now + r + s) // 2, (n_now - r - s - 1) // 2
            wins = 0
            for v in above[w]:
                if v > beats:
                    wins += 1
            for x in rivals:
                high = 0
                for v in above[x]:
                    if v > holds:
                        high += 1
                if high >= wins:
                    return False
            return True

        return settled
    if isinstance(rule, Maximin):
        # one change lowers w's row minimum, or raises a rival's, by at most
        # one; the worst nets 2 * min(row) - n rank candidates as the minima do
        read, spread = tally._minima, 1
    else:
        read = tally.raw.copy
        spread = tally.weights[0] - tally.weights[-1] if isinstance(rule, Scoring) else 1

    def settled(r: int, s: int) -> bool:
        scores = read()
        top = scores[w]
        second, best = sorted(scores)[-2:]
        return best == top and second < top - spread * (r + s)

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
    as its ``entries()`` reads them (each ranking's order, or each approval
    ballot's ascending members), and replacements in the same form from the
    universe of every raw ballot, the m! order tuples of a ranked profile
    or the 2**m approval member tuples, in the order of
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
    ``work_limit``; the universe is charged before it is built. A budget or
    ``work_limit`` that is not an int (a bool included) or is below 1 is an
    InputError, raised before any search.
    """
    m, ranked = profile.m, isinstance(profile, RankedProfile)
    tally = _mov_tally(rule, profile, None)
    if budget is None:
        budget = profile.n
    _check_int(budget, "budget", 1, "at least 1")
    _check_int(work_limit, "work limit", 1, "at least 1")

    def limit_error():
        # built only when raised: `_shown` takes about 3 us, a few percent of a small solve
        return WorkLimitError(f"exceeded work limit of {_shown(work_limit)}"
                              " (replacement ballots plus search nodes)")

    # the work count starts at the universe's size, charged before it is built
    work = math.factorial(m) if ranked else 2 ** m
    if work > work_limit:
        raise limit_error()
    if ranked:
        universe = list(itertools.permutations(range(m)))
    else:
        universe = list(map(_members, range(2 ** m)))
    raw = list(profile.entries())
    add, winner_mask = tally.add, tally.winner_mask
    base_mask = winner_mask()
    settled = _settled_test(rule, tally, m, profile.n, base_mask)
    mults = profile.counts
    types = len(raw)
    evaluations = 0
    for t in range(1, min(budget, profile.n) + 1):
        work += 1
        if work > work_limit:
            raise limit_error()
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
                        raise limit_error()
                    depth += 1
                    if not (settled and settled(t - depth if depth < t else 0,
                                                2 * t - depth if depth > t else t)):
                        if depth == t:
                            removed = {raw[k] for k in path}
                            options = list(itertools.filterfalse(removed.__contains__, universe))
                            choice = 0
                        continue
                    # pruned: step back from the child just entered
            else:
                for i in range(choice, len(options)):
                    work += 1
                    evaluations += 1
                    if work > work_limit:
                        raise limit_error()
                    new = options[i]
                    add(new, +1)
                    changed = winner_mask() != base_mask
                    add(new, -1)
                    if changed:
                        retracted = path[:t]
                        starts = list(itertools.accumulate(mults, initial=0))
                        inserted = [options[j] for j in path[t:]] + [new]
                        witness = tuple(
                            (starts[k] + j - retracted.index(k), profile._ballot(ballot))
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
            raise InputError(f"vote index {_shown(index)} out of range 0..{_shown(ends[-1] - 1)}")
        if index in seen:
            raise InputError(f"vote index {_shown(index)} changed twice")
        seen.add(index)
        counts[bisect.bisect_right(ends, index)] -= 1
        inserted.append((ballot, 1))
    kept = [(entry, count) for entry, count in zip(profile.entries(), counts) if count]
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
    _check_int(m, "m")
    if m < 2:
        raise InputError("needs at least two candidates")
    return (m - 1).bit_length()


# ---------------------------------------------------------------------------
# the margin statistic and the sandwich bounds


# One row per rule family, in the order `movkit samplesize -r` lists the
# kinds: (class, r, source, C). r = U/L is the ratio of the upper to the
# lower end of the family's sandwich on the margin for a unique winner (None
# for Copeland, whose 2(K+1), K = ceil(log2 m), is read from m); the source
# is the name `mov_bounds` gives its bounds; C is the constant of the
# family's sample size (C/eps^2) * ln(2m/delta), ln(2k/delta) for
# k-approval (`movkit.estimators.sample_size`).
_FAMILIES = ((Scoring, 2, "positional score gap", 12.0), (KApproval, 1, "top-k score gap", 12.0),
             (Approval, 1, "approval score gap", 12.0), (Bucklin, 2, "majority level analysis", 12.0),
             (Maximin, 2, "pairwise score gap", 24.0), (Copeland, None, "relative margin", 96.0))


def _sandwich(rule: Rule, m: int) -> tuple[int, str]:
    """(r, source) of the rule's row in `_FAMILIES` over m candidates, r =
    2(K+1) for Copeland. `mov_bounds` reads its lower end as U/r and
    `movkit.estimators.guarantee_constant` its c as (r-1)/(r+1); Copeland's
    U is r times the winner's relative margin. No rule has a sandwich below
    two candidates (`copeland_log_factor` checks m, before the rule).
    """
    depth = copeland_log_factor(m)
    for family, ratio, source, _ in _FAMILIES:
        if isinstance(rule, family):
            return ratio or 2 * (depth + 1), source
    raise InputError(f"unknown rule: {rule!r}")


def _margin_statistic(rule: Rule, tally, n: int, scale: Fraction = Fraction(1)):
    """U read from the integers of the rule's tally over n votes: the
    un-rounded upper end of the rule's sandwich on the margin (`mov_bounds`
    for a unique winner, without the scoring +1 or the k-approval
    rounding), and 0 on a tied winner set.

    ``scale`` is n/ell for a sample of ell votes: every count is read as
    scale times itself. A profile is read as a sample at scale 1, as
    `mov_bounds` reads it. The winner (the lowest index of the winner set
    on ties) and the gaps are read on the tally's integers; with
    scale = num/den, U alone is built as a rational, once, as
    Fraction(num * v, den * d) of integers v and d. `_sample_payload` reads
    a sample's scores and pair margins from the same tally.

    * scoring: the top-two gap over a1 - am: with integer weights w_i,
      U = scale * (raw_w - raw_z) / (w_1 - w_m), the same in raw and in
      normalized units;
    * k-approval and approval: half the top-two gap;
    * Bucklin: the level gap, the least n_l(w) - n_l(x) + 1 over levels l in
      1..m-1 where the canonical winner w holds a strict n/2 majority of the
      top-l counts and some x != w does not. No level separates them exactly
      on a full tie;
    * maximin: half the gap between the two best worst-case pairwise margins;
    * Copeland: the sandwich ratio r (`_sandwich`) times the winner's
      smallest relative margin over a rival.
      The relative margin is searched on the integer margins
      (`_relative_margin`).

    Half C of the guarantee (ROADMAP item 19), (1 - c)*|Û - U| <= eps*n for
    Û read on a sample and U on the profile, rests on the counts each
    statistic reads. Each is n times the mean of a per-vote value of range
    R, so Hoeffding's bound with a union bound over the u counts read puts
    every scaled count within t = n*R*sqrt(ln(2u/delta)/(2*ell)) of its
    census value with probability at least 1 - delta. Then:

    * scoring: the m scores in normalized units, per vote in [0, 1]
      (R = 1, u = m); the top-two gap moves by at most 2t, so
      |Û - U| <= 2t;
    * k-approval and approval: the m approval counts, per vote 0 or 1
      (R = 1, u = m); |Û - U| <= t;
    * maximin: the m(m-1)/2 pairwise margins, per vote -1 or +1 (R = 2);
      each worst-case margin moves by at most t, so |Û - U| <= t;
    * Copeland: the same m(m-1)/2 margins (R = 2); while the sample names
      the profile's winner, each relative margin moves by at most t/2 + 1,
      so (1 - c)*|Û - U| <= t + 2. A sample with another winner is outside
      this argument;
    * Bucklin: the m(m-1) top-l counts, per vote 0 or 1 (R = 1); a level
      gap at fixed levels moves by at most 2t, but the levels read are
      those where a count passes n/2, so a count within t of n/2 can move
      Û further. No bound follows from t alone (ROADMAP item 15).

    A top-two gap is read whichever candidates hold it, so for every rule
    but Copeland and Bucklin the bound holds also where the sample's
    winner differs from the profile's.
    """
    num, den = scale.numerator, scale.denominator
    if isinstance(rule, Bucklin):
        # a scaled majority scale*count > n/2 is the tally's own 2*count > ell
        levels, rows, last = tally.levels(), tally.top_counts(), tally.m - 1
        w = levels.index(min(levels))
        # each row's levels before the last where w holds a majority and its candidate not
        lead = min((
            rows[w][level] - row[level]
            for row, first in zip(rows, levels) for level in range(levels[w], min(first, last))
        ), default=None)
        return 0 if lead is None else Fraction(num * lead + den, den)
    if isinstance(rule, Copeland):
        net, points = tally.net(), tally._points()
        w = points.index(max(points))
        # clamped at zero: on a tie w's relative margin over a co-winner can be negative
        gamma = max(0, min(
            _relative_margin(net, num, den, n, w, x, rule.alpha)
            for x in range(tally.m)
            if x != w
        ))
        return _sandwich(rule, tally.m)[0] * gamma
    values = tally._worst() if isinstance(rule, Maximin) else tally.raw
    spread = 2
    if isinstance(rule, Scoring):
        spread = tally.weights[0] - tally.weights[-1]
    second, best = sorted(values)[-2:]
    return Fraction(num * (best - second), den * spread)


def _sample_payload(rule: Rule, tally, n: int, scale: Fraction):
    """(scores, pair margins) of a sample's tally over n votes, each count
    read as ``scale`` = n/ell times itself: the tally `_margin_statistic`
    reads U from, read again only when an estimate's payload is asked for.
    With scale = num/den, each rational is built once, as
    Fraction(num * v, den * d) of integers v and d.

    * scoring: a score is (scale * raw - w_m * n) / sigma in normalized
      units, sigma the last positive w_i - w_m of the integer weights w_i;
    * k-approval, approval and maximin: scale times the tally's score (the
      worst pairwise margin for maximin);
    * Bucklin: the scaled top-l count rows;
    * Copeland: the unscaled Copeland scores.

    Pair margins are scale times the integer margins for maximin and
    Copeland, and None elsewhere.
    """
    num, den = scale.numerator, scale.denominator
    margins = None
    if isinstance(rule, (Maximin, Copeland)):
        margins = tuple(tuple(Fraction(num * d, den) for d in row) for row in tally.net())
    if isinstance(rule, Bucklin):
        rows = tally.top_counts()
        return {x: tuple(Fraction(num * c, den) for c in row) for x, row in enumerate(rows)}, None
    if isinstance(rule, Copeland):
        return tally.scores(), margins
    values = tally._worst() if isinstance(rule, Maximin) else tally.raw
    # a score is (num * v - shift) / (den * unit)
    shift, unit = 0, 1
    if isinstance(rule, Scoring):
        low = tally.weights[-1]
        shift, unit = den * low * n, [v - low for v in tally.weights if v > low][-1]
    return {x: Fraction(num * v - shift, den * unit) for x, v in enumerate(values)}, margins


def mov_bounds(profile: Profile, rule: Rule) -> MovBounds:
    """Scale-free sandwich bounds on the margin of victory.

    Every bound holds under winner-set semantics, tied winner sets included,
    where the tie special cases below apply. U is the upper end that
    `_margin_statistic` reads, the lower end is U/r and the source is the
    one the rule's row of `_FAMILIES` gives, except where a case below says
    otherwise:

    * positional scoring (normalized vector): [U/r, U + 1];
    * where r = 1 (k-approval and approval): [1, 1] on a tie (one change
      always creates or breaks one), else [U, ceil(U)];
    * Bucklin: [change floor, U] (see `_change_floor` for the lower end).
      Changing U votes (moving x up, w down) hands x a strictly earlier
      majority, so the level gap bounds the margin from above; with no
      separating level (a full tie) the upper end is n;
    * maximin: [1, 1] on a tie, else [U/r, U];
    * Copeland: [1, n] on a tie, else [G, U] with G = U/r the winner's
      smallest relative margin.

    The ties' source is "tied winners".

    Under winner-set semantics with m >= 2 the margin lies in [1, n]: one
    change is always needed, and replacing all n votes reaches any profile.
    So the upper end is capped at n.
    """
    tally = _mov_tally(rule, profile, None)
    upper = _margin_statistic(rule, tally, profile.n)
    ratio, source = _sandwich(rule, profile.m)
    lower = Fraction(upper, ratio)
    if isinstance(rule, Scoring):
        upper += 1
    elif isinstance(rule, Bucklin):
        lower, upper = _change_floor(tally), upper or profile.n
    elif upper == 0:
        lower, upper, source = 1, profile.n if isinstance(rule, Copeland) else 1, "tied winners"
    elif ratio == 1:
        upper = math.ceil(upper)
    return MovBounds(lower=lower, upper=min(upper, profile.n), source=source)
