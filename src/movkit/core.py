"""Ballots, profiles, voting rules, and winner determination.

Candidates are integers ``0..m-1``. A `Profile` is a packed store of
distinct ballots with positive multiplicities: its d ballots in canonical
order as one packed array of d*m candidate indices (rankings) or one m-bit
mask each (approval ballots), plus a tuple of d counts, built by one
function, `_store`, from merged keys that sort as the ballots' order
tuples or ascending members do. `RankedProfile` and `ApprovalProfile` only
check a ballot and give its key. Equal multisets have equal stores, so they
compare equal; the (ballot, count) pairs of ``votes`` are a view built on
first use, and give the repr and the hash. Each rule family has one
integer tally (positional, approval, Bucklin position counts, pairwise
``above`` counts), shared by winner determination, the exact search and
the sampling estimators. A store enters a tally through `_add_votes`, a
profile's and a sample's alike (a sample weighs the profile's own rows by
its drawn counts): many distinct rankings are counted column-wise, from one
bitset per candidate and position read off slices of the packed rows,
few rankings and many candidates one ballot at a time, and approval masks
one candidate at a time; the exact search then steps a tally built any of
these ways with its add. A positional score vector is scaled once to
integer weights over a common denominator, which the tally keeps, and the
totals become exact `fractions.Fraction` scores once per candidate.
Whenever a rule needs a single representative winner, the canonical
tie-break is the lowest candidate index. `_binomial` and `_multinomial` are
the one seeded count sampler, shared by profile generation and vote
sampling.

Six rule families are supported: positional scoring, k-approval, approval,
Bucklin (strict majority, more than half of the votes), maximin, and
Copeland with tie parameter alpha.
"""

import array
import bisect
import collections
import functools
import itertools
import math
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping, Sequence


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


@dataclass(frozen=True, slots=True)
class ApprovalBallot:
    """A set of approved candidates; empty and full sets are both legal."""

    approved: frozenset[int]

    def __post_init__(self):
        approved = frozenset(_indices(self.approved))
        object.__setattr__(self, "approved", approved)
        if any(c < 0 for c in approved):
            raise InputError(f"approval ballot must contain candidate indices: {approved!r}")


def _bare(field, values: Sequence) -> list:
    """Ballots of the field's class, built in bulk with ``field`` (the slot
    descriptor of a frozen ballot class) set to each value, skipping the
    class's checks: one object per value, made and filled by C-level maps."""
    ballots = list(map(object.__new__, itertools.repeat(field.__objclass__, len(values))))
    collections.deque(map(field.__set__, ballots, values), maxlen=0)
    return ballots


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


def _row_type(m: int) -> type:
    """The type of a ranking's key over m candidates, which sorts as the
    ranking's order tuple does: ``bytes`` while every index fits in a byte
    (m <= 256), else ``tuple``. A store joins the sorted keys into its rows."""
    return bytes if m <= 256 else tuple


def _members(mask: int) -> tuple[int, ...]:
    """The ascending candidates of an approval mask."""
    return tuple(c for c in range(mask.bit_length()) if mask >> c & 1)


def _store(m: int, counts: Mapping, ranked: bool) -> tuple:
    """(rows, counts): the packed store of distinct ballot keys and their
    counts, in key order. This is the one builder of every store: of each
    profile, whatever made its keys, and of the ballots `rule_tally` is given.

    A ranking's key is its order as `_row_type` (bytes up to m = 256), and
    the ranked rows are the keys joined: ``bytes`` up to m = 256, above that
    an ``array`` of a wider typecode, in which row i is the slice
    [i*m, (i+1)*m). An approval ballot's key is its ascending members, and
    its row one int whose bit c is set when it approves candidate c."""
    keys = sorted(counts)
    weights = tuple(map(counts.__getitem__, keys))
    if not ranked:
        return tuple(sum(1 << c for c in key) for key in keys), weights
    if m <= 256:
        return b"".join(keys), weights
    return array.array("H" if m <= 1 << 16 else "L", itertools.chain.from_iterable(keys)), weights


def _entries(rows, m: int, ranked: bool) -> Iterator[tuple[int, ...]]:
    """Each ballot of a store, in order, as a tally adds it: a ranking's
    order, read m indices at a time off the packed rows, or an approval
    ballot's ascending members. Each is made as it is read."""
    if not ranked:
        return map(_members, rows)
    return zip(*[iter(rows)] * m)


@dataclass(frozen=True, init=False, repr=False)
class Profile:
    """A multiset of ballots over m candidates; `RankedProfile` or
    `ApprovalProfile`.

    A profile is a packed store (see `_store`): ``rows``, its d distinct
    ballots in canonical order, the order of their sort keys, and
    ``counts``, their d positive multiplicities. The constructor checks each
    ballot once and merges duplicates; the parser and the generators, whose
    keys are checked already, build the store from their merged keys with
    `_from_canonical`. ``names`` optionally labels candidates for I/O.

    ``votes`` is the public view of the store as (ballot, count) pairs,
    built on first use and cached; no path of the package reads it. Equal
    multisets have equal stores, so equality compares the stores, while the
    repr and the hash are those of (m, votes, names).
    """

    m: int
    rows: bytes | array.array | tuple[int, ...]
    counts: tuple[int, ...]
    names: tuple[str, ...] | None

    def __init__(self, m: int, votes, names=None):
        object.__setattr__(self, "m", m)
        if m < 1:
            raise InputError("profile needs at least one candidate")
        counts: dict = {}
        for ballot, mult in votes:
            key = self._check_ballot(ballot)
            if not isinstance(mult, int) or mult < 1:
                raise InputError(f"multiplicity must be a positive integer, got {mult!r}")
            counts[key] = counts.get(key, 0) + mult
        if not counts:
            raise InputError("profile must contain at least one vote")
        self._fill(counts, _validate_names(names, m))

    @classmethod
    def _from_canonical(cls, m: int, counts: Mapping, names) -> "Profile":
        """The profile of checked ballot keys (see `_store`) and their merged
        positive counts, with validated ``names`` or None: what the
        constructor's checks and merge end in, without repeating them."""
        profile = object.__new__(cls)
        object.__setattr__(profile, "m", m)
        profile._fill(counts, names)
        return profile

    def _fill(self, counts: Mapping, names) -> None:
        rows, counts = _store(self.m, counts, isinstance(self, RankedProfile))
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "names", names)

    def _check_ballot(self, ballot):
        """The key of a ballot (see `_store`), coerced and checked against m.
        This is the one check that a ballot belongs to the profile: anything
        else, another kind's ballot included, is an InputError."""
        raise NotImplementedError

    @functools.cached_property
    def votes(self) -> tuple[tuple[Ranking | ApprovalBallot, int], ...]:
        """The (ballot, count) pairs in canonical order, built from the store
        on first use (the cache is not part of the store)."""
        return tuple(zip(self._ballots(), self.counts))

    @functools.cached_property
    def n(self) -> int:
        """The number of votes, summed once per profile (the cache is not
        part of the store, so equality, repr and hash ignore it)."""
        return sum(self.counts)

    def expand(self) -> list:
        """All n ballots individually, in canonical order (stable indexing)."""
        out = []
        for ballot, mult in self.votes:
            out.extend([ballot] * mult)
        return out

    def __hash__(self):
        return hash((self.m, self.votes, self.names))

    def __repr__(self):
        return (f"{type(self).__qualname__}(m={self.m!r}, votes={self.votes!r},"
                f" names={self.names!r})")


class RankedProfile(Profile):
    """A multiset of rankings, sorted by ballot order."""

    def _ballots(self):
        return _bare(Ranking.order, list(_entries(self.rows, self.m, True)))

    def _check_ballot(self, ballot):
        if not isinstance(ballot, Ranking):
            ballot = Ranking(ballot)
        order = ballot.order
        if len(order) != self.m:
            raise InputError(f"ballot {order!r} does not rank all {self.m} candidates")
        return _row_type(self.m)(order)


class ApprovalProfile(Profile):
    """A multiset of approval ballots, sorted by their ascending members."""

    def _ballots(self):
        members = _entries(self.rows, self.m, False)
        return _bare(ApprovalBallot.approved, list(map(frozenset, members)))

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

    @classmethod
    def borda(cls, m: int) -> "ScoreVector":
        return cls(tuple(Fraction(m - 1 - i) for i in range(m)))


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
# One integer tally per rule family. `_store_tally` checks the rule, makes
# the empty tally of the rule's own parameters and hands it a store through
# `_add_votes`, the one place where ballots enter a tally: a profile's store,
# a sample's (the profile's rows weighed by the drawn counts) or the store
# `rule_tally` packs from the (ballot, count) pairs it is given. Where the
# family's counts_columns admits the number of distinct rankings and m, the
# range where it measured faster, the rankings are counted column-wise, one
# block of rows at a time (`_column_blocks`, read by the tally's add_block).
# Approval masks are counted one candidate at a time (the tally's
# add_masks), and every other store one ballot at a time. A tally takes
# add(raw, k), where ``raw`` is a ranking's order or an approval ballot's
# members, each a tuple, and a negative k retracts, and reads out the
# rule's exact scores and its winner set as a bitmask over candidates. The
# rule is fixed when the tally is built, so add and winner_mask stay plain
# integer loops: the exact search steps a tally built any of these ways
# with them, one ballot at a time, millions of times.

# Most ballots in a block of the column-wise count: a pairwise block holds
# m * m bitsets of up to _BLOCK bits, 4.7 MB at m = 128.
_BLOCK = 2048


def _column_blocks(rows: bytes, counts: Sequence[int], m: int):
    """The column-wise count of a store's rankings over at most 256
    candidates (``rows`` is bytes), in equal blocks of at most `_BLOCK`
    ballots: a bitmap index over (candidate, position), as in O'Neil and
    Quass, "Improved query performance with variant indexes" (SIGMOD 1997).
    Each block yields (column, weigh, total):

    * ``column(i)[x]`` is the bitset of the block's ballots that rank x at
      position i. Position i's entries are the slice ``block[i::m]`` of the
      packed rows, which ``bytes.translate`` turns into binary digits, one
      string per bit of the candidate index, read by ``int(digits, 2)``;
      ANDing those bitsets or their complements splits the block into the m
      candidates' bitsets. Only the positions a tally asks for are read.
    * ``weigh(s)`` is the number of votes of the ballots in bitset s: each
      bit plane of the counts is a bitset in the same way, and
      ``int.bit_count`` of s AND a plane is weighted by its power of two. A
      ballot of count 0 is in no plane, so it weighs nothing.
    * ``total`` is the block's number of votes.
    """
    # digits[b] maps a byte to the binary digit of its bit b; built per call
    # rather than at import
    digits = [(b"0" * (1 << b) + b"1" * (1 << b)) * (128 >> b) for b in range(8)]
    index_digits = digits[:(m - 1).bit_length()][::-1]  # highest bit first
    size = -(-len(counts) // -(-len(counts) // _BLOCK))  # the least even split
    for start in range(0, len(counts), size):
        block, weights = rows[start * m:(start + size) * m], counts[start:start + size]
        full = (1 << len(weights)) - 1
        top = max(weights).bit_length()
        width = (top + 7) // 8
        if width <= 1:
            count_bytes = bytes(weights)
        else:
            count_bytes = b"".join(
                map(int.to_bytes, weights, itertools.repeat(width), itertools.repeat("little")))
        planes = []
        for shift in range(top):
            byte, bit = divmod(shift, 8)
            plane = int(count_bytes[byte::width].translate(digits[bit]), 2)
            if plane:
                planes.append((shift, plane))

        def column(i, block=block, full=full):
            entries = block[i::m]
            cands = [full]
            for table in index_digits:
                ones = int(entries.translate(table), 2)
                halves = (full ^ ones, ones)
                cands = [c & h for c in cands for h in halves]
            return cands[:m]

        def weigh(s, planes=planes):
            total = 0
            for shift, plane in planes:
                total += (s & plane).bit_count() << shift
            return total

        yield column, weigh, sum(weights)


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

    @staticmethod
    def counts_columns(d: int, m: int) -> bool:
        """Whether d distinct rankings of m candidates are counted
        column-wise: where that count measured faster than one add per
        ballot, about 1.3x at d = 4,700 and m = 8, and no faster at m = 24."""
        return d >= 512 and m <= 16

    def __init__(self, m: int, weights: Sequence[int], unit: int | None = None):
        self.raw = [0] * m
        self.weights = weights
        self.unit = unit
        self.live = [(pos, w) for pos, w in enumerate(weights) if w]

    def add(self, order, k: int) -> None:
        raw = self.raw
        for pos, w in self.live:
            raw[order[pos]] += k * w

    def add_block(self, column, weigh, total: int) -> None:
        raw = self.raw
        for pos, w in self.live:
            for cand, ballots in enumerate(column(pos)):
                raw[cand] += w * weigh(ballots)

    def scores(self) -> dict[int, Fraction | int]:
        if self.unit is None:
            return dict(enumerate(self.raw))
        return {c: Fraction(r, self.unit) for c, r in enumerate(self.raw)}

    def winner_mask(self) -> int:
        return _best_mask(self.raw)


class ApprovalTally(PositionalTally):
    """Approval: the number of ballots approving each candidate, read out
    like an integer positional tally."""

    def add(self, approved, k: int) -> None:
        raw = self.raw
        for cand in approved:
            raw[cand] += k

    def add_masks(self, masks: Sequence[int], counts: Sequence[int]) -> None:
        """Add approval ballots stored as masks, weighed by ``counts``, one
        pass per candidate: candidate c gains the counts of the masks with
        bit c set."""
        raw = self.raw
        for cand in range(len(raw)):
            raw[cand] += sum(itertools.compress(counts, map((1 << cand).__and__, masks)))


class BucklinTally:
    """Bucklin: ``at_pos[x][i]`` of the ``n`` ballots rank x at position i.

    `levels` is the one reader of majority levels, for the scores, the
    bounds and the exact search's settled test. `winner_mask` keeps its own
    early-exit loop: the exact search calls it at every leaf, where a mask
    read from the levels measured 3x slower (3.6 against 1.1 us per call at
    m = 3 and 4 on 2 vCPUs, Python 3.11)."""

    counts_columns = staticmethod(PositionalTally.counts_columns)

    def __init__(self, m: int):
        self.m = m
        self.n = 0
        self.at_pos = [[0] * m for _ in range(m)]

    def add(self, order, k: int) -> None:
        at_pos = self.at_pos
        for pos, cand in enumerate(order):
            at_pos[cand][pos] += k
        self.n += k

    def add_block(self, column, weigh, total: int) -> None:
        at_pos = self.at_pos
        for pos in range(self.m):
            for cand, ballots in enumerate(column(pos)):
                at_pos[cand][pos] += weigh(ballots)
        self.n += total

    def top_counts(self) -> tuple[tuple[int, ...], ...]:
        """Row x, entry l-1: the ballots ranking x within their top l positions."""
        return tuple(tuple(itertools.accumulate(row)) for row in self.at_pos)

    def levels(self) -> list[int]:
        """Each candidate's first 0-based level l whose top-(l+1) count
        holds more than half of the ballots; level m - 1 always does. A row
        of `top_counts` is nondecreasing, so its first count above n // 2
        is a bisection."""
        return list(map(bisect.bisect_right, self.top_counts(), itertools.repeat(self.n // 2)))

    def scores(self) -> dict[int, int]:
        """Each candidate's smallest level l at which more than half of the
        ballots rank it in their top l; level m always qualifies."""
        return {x: level + 1 for x, level in enumerate(self.levels())}

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

    @staticmethod
    def counts_columns(d: int, m: int) -> bool:
        """Whether d distinct rankings of m candidates are counted
        column-wise. A block costs about m^3 bitset operations against
        add's m(m-1)/2 updates per ballot; the column-wise count measured
        faster from d = 8m (2-5x there), and 5.5x at d = 4,700 and m = 8.
        Above m = 128 a block's bitsets would pass 5 MB."""
        return d >= 8 * m and m <= 128

    def __init__(self, m: int):
        self.m = m
        self.above = [[0] * m for _ in range(m)]
        self.rivals = [[y for y in range(m) if y != x] for x in range(m)]

    def add(self, order, k: int) -> None:
        above = self.above
        for i, x in enumerate(order):
            row = above[x]
            for y in order[i + 1:]:
                row[y] += k

    def add_block(self, column, weigh, total: int) -> None:
        # x is above y on the ballots that rank x at some position i and y
        # after i: the OR over i of column(i)[x] AND (y after i)
        above, m = self.above, self.m
        at = [column(pos) for pos in range(m)]
        for y in range(1, m):
            after, later = [], 0
            for pos in range(m - 1, 0, -1):
                later |= at[pos][y]
                after.append(later)
            after.reverse()  # after[i]: y ranked after position i
            for x in range(y):
                ballots = 0
                for pos, later in enumerate(after):
                    ballots |= at[pos][x] & later
                k = weigh(ballots)
                above[x][y] += k
                above[y][x] += total - k

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

    def __init__(self, m: int, alpha: Fraction):
        super().__init__(m)
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
    ``m``-candidate ballots, which are `Ranking`s when ``ranked`` and
    `ApprovalBallot`s otherwise. Raises InputError when the rule does not
    fit them (see `_store_tally`), before the pairs are read. The pairs are
    packed into a store by `_store` and enter the tally through
    `_add_votes`, as a profile's store does."""
    tally = _store_tally(rule, m, (), (), ranked)
    merged: dict = {}
    row = _row_type(m)
    for ballot, count in votes:
        key = row(ballot.order) if ranked else tuple(sorted(ballot.approved))
        merged[key] = merged.get(key, 0) + count
    _add_votes(tally, m, *_store(m, merged, ranked), ranked)
    return tally


def _store_tally(rule: Rule, m: int, rows, counts: Sequence[int], ranked: bool):
    """The integer tally of ``rule`` over a store of ``m``-candidate ballots
    (see `_store`), rankings when ``ranked`` and approval ballots otherwise.
    Raises InputError when the rule does not fit them: this is the one check
    of a rule against an election, behind winner sets, bounds, the exact
    search and the estimators, which check on an empty store before they
    draw. The ballots enter through `_add_votes`; the exact search then
    steps the tally with add.

    A score vector is scaled here, once, to integer weights over a common
    denominator ``unit``: ``alphas[i] == Fraction(weights[i], unit)``."""
    if isinstance(rule, Approval):
        if ranked:
            raise InputError("this operation needs an approval profile")
        tally = ApprovalTally(m, ())
    elif not isinstance(rule, (Scoring, KApproval, Bucklin, Maximin, Copeland)):
        raise InputError(f"unknown rule: {rule!r}")
    elif not ranked:
        raise InputError("this operation needs a ranked profile")
    elif isinstance(rule, Scoring):
        if rule.vector.m != m:
            raise InputError(f"score vector has {rule.vector.m} entries for {m} candidates")
        alphas = rule.vector.alphas
        unit = math.lcm(*(a.denominator for a in alphas))
        weights = tuple(a.numerator * (unit // a.denominator) for a in alphas)
        tally = PositionalTally(m, weights, unit)
    elif isinstance(rule, KApproval):
        _check_k(rule.k, m)
        tally = PositionalTally(m, [1] * rule.k)
    elif isinstance(rule, Bucklin):
        tally = BucklinTally(m)
    elif isinstance(rule, Maximin):
        tally = MaximinTally(m)
    else:
        tally = CopelandTally(m, rule.alpha)
    _add_votes(tally, m, rows, counts, ranked)
    return tally


def _add_votes(tally, m: int, rows, counts: Sequence[int], ranked: bool) -> None:
    """Add a store's ballots (``rows`` of ``m``-candidate rankings when
    ``ranked``, else approval masks; see `_store`), weighed by ``counts``,
    to a tally of `_store_tally`: the one place where ballots enter a
    tally. A profile adds its own counts; a sample adds the profile's rows
    weighed by its drawn counts, 0 for a ballot not drawn. The path depends
    on the input alone: approval masks are counted one candidate at a time
    by the tally's add_masks; where the tally's counts_columns admits the
    number of rankings of nonzero count, they are counted column-wise by
    `_column_blocks` and the tally's add_block; otherwise each ranking of
    nonzero count is added with the tally's add, as its order (`_entries`)."""
    if not ranked:
        tally.add_masks(rows, counts)
        return
    if tally.counts_columns(len(counts) - counts.count(0), m):
        for column, weigh, total in _column_blocks(rows, counts, m):
            tally.add_block(column, weigh, total)
        return
    add = tally.add
    for order, count in zip(_entries(rows, m, True), counts):
        if count:
            add(order, count)


# ---------------------------------------------------------------------------
# winners


@dataclass(frozen=True)
class WinnerResult:
    """Winning candidates (ascending) plus the per-candidate scores used."""

    winners: tuple[int, ...]
    scores: Mapping[int, Fraction | int]


def winner_set(profile: Profile, rule: Rule) -> WinnerResult:
    """Winner set of a profile under a rule.

    Approval rules require approval profiles and vice versa; every other
    rule requires a ranked profile. The winner set is never empty.
    """
    tally = _store_tally(rule, profile.m, profile.rows, profile.counts,
                         isinstance(profile, RankedProfile))
    mask = tally.winner_mask()
    return WinnerResult(tuple(c for c in range(profile.m) if mask >> c & 1), tally.scores())


# ---------------------------------------------------------------------------
# seeded counts


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


def _multinomial(rng: random.Random, count: int, weights: Sequence[int]) -> list[int]:
    """One Multinomial(count; weights) draw over positive integer weights, as
    conditional binomials along the cells in order: a cell of weight w, with
    ``left`` items and weight W still to share out, gets Binomial(left, w/W)
    of them, and the last cell gets what is left. The walk stops once nothing
    is left, so the stream depends only on the cells it reaches. Cost: one
    binomial per cell reached, never more than O(len(weights) + count).
    """
    drawn = [0] * len(weights)
    left, weight_left = count, sum(weights)
    for i, w in enumerate(weights):
        k = left if w == weight_left else _binomial(rng, left, w / weight_left)
        if k:
            drawn[i] = k
            left -= k
            if not left:
                break
        weight_left -= w
    return drawn
