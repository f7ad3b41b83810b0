"""Ballots, profiles, voting rules, and winner determination.

Candidates are integers ``0..m-1``. A `Profile` is a packed store of
distinct ballots with positive multiplicities: its d ballots in canonical
order as one packed array of d*m candidate indices (rankings) or one m-bit
mask each (approval ballots), plus a tuple of d counts, built by one
function, `_store`, from keys that sort as the ballots' order tuples or
ascending members do, or from the letter parse's rankings packed in one
``bytes``, which it sorts and merges unless they already strictly
increase: keys are tested pair by pair, packed rankings in one pass over
the whole buffer. A profile of packed rankings builds that store only on
the first read of its rows or counts: until then its size and its tallies
read the rows as parsed. `RankedProfile` and `ApprovalProfile` only
check a ballot, give its key and read their own rows back as ballot tuples
(`entries`), so the store's layout is known only to this module. Equal
multisets have equal stores, so they compare equal; the (ballot, count)
pairs of ``votes`` are a view built on first use, and give the repr and the
hash. Each rule family has one integer tally (positional, approval, Bucklin
position counts, pairwise ``above`` counts), shared by winner
determination, the exact search and the sampling estimators. Every ballot
ranks every pair, so a pairwise tally, which also counts its ``n`` ballots,
reads the margin of x over y as ``2 * above[x][y] - n``, one entry; its
diagonal holds ``math.inf``, which no row minimum selects. A profile
enters a tally through `_add_votes`, with the rows and counts
`Profile._ballots` pairs: many distinct rankings are counted column-wise,
from one bitset per candidate and position read off slices of the packed
rows in blocks bounded by the bits a block's bitsets hold, few rankings
and many candidates one ballot at a time, and approval masks one
candidate at a time; the exact search then steps a tally built any of
these ways with its add. A positional score vector is scaled once to
integer weights over a common denominator, which the tally keeps, and the
totals become exact `fractions.Fraction` scores once per candidate.
Whenever a rule needs a single representative winner, the canonical
tie-break is the lowest candidate index. `_multinomial`, one walk of
conditional binomials drawn inline, is the one seeded count sampler, shared
by profile generation and vote sampling.

Six rule families are supported: positional scoring, k-approval, approval,
Bucklin (strict majority, more than half of the votes), maximin, and
Copeland with tie parameter alpha.
"""

import array
import bisect
import functools
import itertools
import math
import operator
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Collection, Iterable, Iterator, Mapping, Sequence


class InputError(ValueError):
    """Invalid election data, rule parameters, or argument combination."""


def _read(convert, text: str, *args):
    """``convert()``, the one reader of a converted argument: a TypeError,
    ValueError, ZeroDivisionError or OverflowError it raises is an
    InputError of ``text.format(*args)``, built only then."""
    try:
        return convert()
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):
        raise InputError(text.format(*args)) from None


# the brackets of each container whose repr `_shown` writes entry by entry
_BRACKETS = {tuple: ("(", ")"), list: ("[", "]"), set: ("{", "}"), frozenset: ("frozenset({", "})")}


def _shown(value, form=str) -> str:
    """``form(value)`` for an error text, the one way a number is shown in
    one. An int or Fraction with a part of more digits than ``str`` converts
    (``sys.get_int_max_str_digits()``; it refuses them with a bare
    ValueError) shows that part as its sign and digit count, ``-<5001
    digits>``, in the same form. A non-empty tuple, list, set or frozenset
    is shown in its repr, which is also its str, with each entry shown so
    in repr form; any other value is ``form(value)``."""
    if type(value) in _BRACKETS and value:
        opening, closing = _BRACKETS[type(value)]
        comma = "," * (len(value) == 1 and type(value) is tuple)
        return f"{opening}{', '.join(_shown(entry, repr) for entry in value)}{comma}{closing}"
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit or isinstance(value, bool) or not isinstance(value, (int, Fraction)):
        return form(value)
    parts = (value.numerator, value.denominator)
    digits = [_digit_count(part) for part in parts]
    if max(digits) <= limit:
        return form(value)
    num, den = (str(part) if count <= limit else f"{'-' * (part < 0)}<{count} digits>"
                for part, count in zip(parts, digits))
    if form is repr and isinstance(value, Fraction):
        return f"Fraction({num}, {den})"
    return num if den == "1" else f"{num}/{den}"


def _digit_count(number: int) -> int:
    """The decimal digits of a nonzero ``number``, counted without converting
    it: with b bits it has d or d - 1 of them, d = floor(b log10 2) + 1."""
    size = abs(number)
    digits = int(size.bit_length() * math.log10(2)) + 1
    return digits - (size < 10 ** (digits - 1))


# ---------------------------------------------------------------------------
# ballots


def _indices(entries) -> tuple[int, ...]:
    """A ballot's entries as plain ints (bools become 0 and 1); anything that
    is not an iterable of integers is an InputError."""
    try:
        return tuple(map(operator.index, entries))
    except TypeError:
        raise InputError(f"ballot entries must be integer candidate indices: {_shown(entries, repr)}") from None


@dataclass(frozen=True, slots=True)
class Ranking:
    """A strict total order over candidates, most preferred first."""

    order: tuple[int, ...]

    def __post_init__(self):
        order = _indices(self.order)
        object.__setattr__(self, "order", order)
        if sorted(order) != list(range(len(order))):
            raise InputError(f"not a permutation of 0..{len(order) - 1}: {_shown(order, repr)}")


@dataclass(frozen=True, slots=True)
class ApprovalBallot:
    """A set of approved candidates; empty and full sets are both legal."""

    approved: frozenset[int]

    def __post_init__(self):
        approved = frozenset(_indices(self.approved))
        object.__setattr__(self, "approved", approved)
        if any(c < 0 for c in approved):
            raise InputError(f"approval ballot must contain candidate indices: {_shown(approved, repr)}")


def _validate_names(names, m):
    if names is None:
        return None
    names = tuple(names)
    if len(names) != m:
        raise InputError(f"expected {_shown(m)} candidate names, got {len(names)}")
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


_DIGITS = bytes.maketrans(b"01", b"\0\1")


def _members(mask: int) -> tuple[int, ...]:
    """The ascending candidates of an approval mask, read off its binary
    digits lowest first."""
    return tuple(itertools.compress(itertools.count(), bin(mask)[:1:-1].encode().translate(_DIGITS)))


def _store(m: int, keys: Collection | bytes, counts: Iterable[int], ranked: bool) -> tuple:
    """(rows, counts): the packed store of ballot keys and their counts, in
    key order. This is the one builder of every store: of each profile,
    whatever made its keys, and the one place that tests their order. Only
    the profile (`entries`) and `_add_votes` read the rows back. A profile
    of packed rankings calls it on the first read of its rows or counts,
    not when it is built (see `Profile`).

    ``keys`` and ``counts`` are parallel, in any order, and a key may
    repeat. Where the keys are strictly increasing, as a written file's are
    and the generators' sorted keys are, they are the store's order as
    given, and no merge or sort runs; otherwise the counts are summed per
    key in a dict, whose keys are then sorted. This is the one merge of
    repeated ballots.

    A ranking's key is its order as `_row_type` (bytes up to m = 256), and
    the ranked rows are the keys joined: ``bytes`` up to m = 256, above that
    an ``array`` of a wider typecode, in which row i is the slice
    [i*m, (i+1)*m). An approval ballot's key is its ascending members, and
    its row one int whose bit c is set when it approves candidate c.
    `ranked_to_approval` counts a heavy ballot's uniform depths per prefix
    mask and hands only the distinct masks here, as member keys.

    Rankings of m <= 255 candidates may instead come packed, as the letter
    parse hands them: ``keys`` one ``bytes`` of the rows in order, each
    followed by the separator byte 255, which no index reaches. Packed rows
    are tested for strict increase in one whole-buffer pass (`_increasing`)
    and, where they pass, become the store with their separators deleted;
    only rows that fail it are cut into keys for the merge. A collection of
    keys is tested pair by pair, which measured faster than joining them
    for the whole-buffer pass (195 against 295 us for 4,702 keys of
    m = 8, 2 vCPUs, Python 3.11)."""
    packed = isinstance(keys, bytes)
    if packed:
        if _increasing(keys, m):
            return keys.translate(None, b"\xff"), tuple(counts)
        keys = keys.split(b"\xff")
        keys.pop()  # the empty text after the last separator
    if packed or not all(map(operator.lt, keys, itertools.islice(keys, 1, None))):
        merged: dict = {}
        for key, count in zip(keys, counts):
            merged[key] = merged.get(key, 0) + count
        keys = sorted(merged)
        counts = map(merged.__getitem__, keys)
    counts = tuple(counts)
    if not ranked:
        return tuple(sum(1 << c for c in key) for key in keys), counts
    if m <= 256:
        return b"".join(keys), counts
    return array.array("H" if m <= 1 << 16 else "L", itertools.chain.from_iterable(keys)), counts


def _increasing(packed: bytes, m: int) -> bool:
    """Whether the packed rows of `_store` strictly increase, tested on the
    whole buffer with big-integer arithmetic, after the guard bits of SWAR
    comparisons (Lamport, "Multiple byte processing with full-word
    instructions", CACM 1975).

    Read big-endian, the buffer is one integer x of (m+1)-byte chunks, a
    row each with its separator 255 lowest. Take x minus x shifted down by
    one chunk, less 1 at every separator: each chunk's row r less the row
    r' before it. Each separator slot reads 255 - 255 - 1 and borrows 1
    from its own chunk's row, which leaves r - r' - 1; that row borrows in
    turn, from the previous chunk's separator slot, exactly when r <= r'.
    A slot reads 255, or 254 where the next row borrowed from it, except
    the first row's: with no row before it, it reads 254, or 253, and
    borrows nothing. So the rows strictly increase exactly when the slots
    read 254 and then 255 each."""
    size = m + 1
    x = int.from_bytes(packed, "big")
    ones = int.from_bytes((bytes(m) + b"\x01") * (len(packed) // size), "big")
    slots = (x - (x >> 8 * size) - ones).to_bytes(len(packed), "big")[m::size]
    return slots == b"\xfe" + b"\xff" * (len(slots) - 1)


@dataclass(frozen=True, init=False, repr=False)
class Profile:
    """A multiset of ballots over m candidates; `RankedProfile` or
    `ApprovalProfile`.

    A profile is a packed store (see `_store`): ``rows``, its d distinct
    ballots in canonical order, the order of their sort keys, and
    ``counts``, their d positive multiplicities. The constructor checks each
    ballot once; the parser and the generators, whose keys are checked
    already, hand theirs to `_from_canonical`. Either way `_store` merges
    repeated ballots. ``names`` optionally labels candidates for I/O.

    The letter parse's packed rankings are kept as parsed, in file order
    and possibly repeated, with their counts, and `_store` runs on the first
    read of ``rows`` or ``counts``, which are then cached views as ``votes``
    and ``n`` are. A tally is a sum over ballots, so ``n`` and a tally of
    the profile's own counts read the rows as parsed (`_ballots`), and a
    winner set or the bounds never build the store; everything that reads
    the ballots in canonical order (``entries()``, ``votes``, equality, the
    estimators' draws, the exact search) builds it first. Every other
    profile is stored when it is built.

    Each kind's ``_check_ballot`` returns the key (see `_store`) of a ballot
    of that kind, checked against m. With the constructor's coercion through
    ``_ballot``, it is the one check that a ballot belongs to the profile:
    anything else, another kind's ballot included, is an InputError.

    ``entries()`` reads the rows back as ballot tuples, a ranking's order or
    an approval ballot's ascending members, in canonical order: every reader
    of a profile's ballots outside this module takes them from there, and
    only `_add_votes` also reads the packed rows themselves.

    ``votes`` is the public view of the store as (ballot, count) pairs, each
    ballot made from its entry by the kind's checked constructor
    (``_ballot``), built on first use and cached; no path of the package
    reads it. Equal multisets have equal stores, so equality compares the
    stores, while the repr and the hash are those of (m, votes, names).
    """

    m: int
    rows: bytes | array.array | tuple[int, ...]
    counts: tuple[int, ...]
    names: tuple[str, ...] | None

    def __init__(self, m: int, votes, names=None):
        _check_int(m, "m")
        object.__setattr__(self, "m", m)
        if m < 1:
            raise InputError("profile needs at least one candidate")
        keys, counts = [], []
        for ballot, mult in votes:
            if not isinstance(ballot, self._ballot):
                ballot = self._ballot(ballot)
            keys.append(self._check_ballot(ballot))
            _check_int(mult, "multiplicity", 1, kind="a positive integer")
            counts.append(int(mult))
        if not keys:
            raise InputError("profile must contain at least one vote")
        self._fill(keys, counts, _validate_names(names, m))

    @classmethod
    def _from_canonical(cls, m: int, keys: Collection | bytes, counts: Iterable[int],
                        names) -> "Profile":
        """The profile of checked ballot keys, or packed rankings (see
        `_store`), in any order and possibly repeated, and their positive
        counts, with validated ``names`` or None: what the constructor's
        checks end in, without repeating them. Packed rankings are stored
        on the first read of the rows or counts, not here."""
        profile = object.__new__(cls)
        object.__setattr__(profile, "m", m)
        profile._fill(keys, counts, names)
        return profile

    def _fill(self, keys: Collection | bytes, counts: Iterable[int], names) -> None:
        object.__setattr__(self, "names", names)
        if isinstance(keys, bytes):  # packed rankings: stored on the first read of rows or counts
            counts = counts if isinstance(counts, bytes) else tuple(counts)
            object.__setattr__(self, "_pending", (keys, counts))
            return
        rows, counts = _store(self.m, keys, counts, isinstance(self, RankedProfile))
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "counts", counts)

    def _ballots(self, counts: Sequence[int] | None = None) -> tuple:
        """(rows, counts, stride): the one place that pairs packed rows with
        the counts that weigh them, for ``n`` and `_add_votes`. A sample's
        ``counts``, drawn over the store's ballots in canonical order (0 for
        a ballot not drawn), go with the store's rows at a stride of m. The
        profile's own counts (``counts`` None) go with a pending store's
        rows and counts as parsed, in file order and possibly repeated, each
        row at a stride of m + 1 (its separator last), so a tally of them
        never builds the store; else with the store's rows at a stride of
        m."""
        if counts is not None:
            return self.rows, counts, self.m
        if "_pending" in vars(self):
            return *vars(self)["_pending"], self.m + 1
        return self.rows, self.counts, self.m

    # a pending store's rows and counts, read only where the instance holds
    # none: a cached view, not a __getattr__, which would slow every other
    # attribute read of every profile
    @functools.cached_property
    def rows(self) -> bytes:
        vars(self)["rows"], vars(self)["counts"] = _store(self.m, *vars(self)["_pending"], True)
        del vars(self)["_pending"]
        return vars(self)["rows"]

    @functools.cached_property
    def counts(self) -> tuple[int, ...]:
        self.rows  # builds the store, counts too
        return vars(self)["counts"]

    @functools.cached_property
    def votes(self) -> tuple[tuple[Ranking | ApprovalBallot, int], ...]:
        """The (ballot, count) pairs in canonical order, built from the store
        on first use (the cache is not part of the store)."""
        return tuple(zip(map(self._ballot, self.entries()), self.counts))

    @functools.cached_property
    def n(self) -> int:
        """The number of votes, summed once per profile, over the counts as
        parsed while the store is pending (the cache is not part of the
        store, so equality, repr and hash ignore it)."""
        return sum(self._ballots()[1])

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

    _ballot = Ranking

    def entries(self) -> Iterator[tuple[int, ...]]:
        """Each ranking's order, in canonical order, read m indices at a time
        off the packed rows and made as it is read."""
        return zip(*[iter(self.rows)] * self.m)

    def _check_ballot(self, ballot):
        order = ballot.order
        if len(order) != self.m:
            raise InputError(f"ballot {order!r} does not rank all {_shown(self.m)} candidates")
        return _row_type(self.m)(order)


class ApprovalProfile(Profile):
    """A multiset of approval ballots, sorted by their ascending members."""

    _ballot = ApprovalBallot

    def entries(self) -> Iterator[tuple[int, ...]]:
        """Each ballot's ascending members, in canonical order, read off its
        mask and made as it is read."""
        return map(_members, self.rows)

    def _check_ballot(self, ballot):
        key = tuple(sorted(ballot.approved))
        if key and key[-1] >= self.m:
            raise InputError(f"ballot approves unknown candidate: {_shown(list(key), repr)}")
        return key


def _check_int(value, what: str, least=None, floor=None, kind="an integer") -> None:
    """The one check of an integer argument (a seed, a size, a count, a
    multiplicity, a budget, a sample count): an int and not a bool, else an
    InputError "{what} must be {kind}, got {value!r}"; with ``least``, also
    at least ``least``, else "{what} must be {floor or kind}, got {value}".
    Both texts show the value through `_shown`."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"{what} must be {kind}, got {_shown(value, repr)}")
    if least is not None and value < least:
        raise InputError(f"{what} must be {floor or kind}, got {_shown(value)}")


def _check_k(k, m: int) -> None:
    """The one range check on an approval depth k for m candidates."""
    if not isinstance(k, int) or not 1 <= k <= m - 1:
        raise InputError(f"k must be in [1, m-1], got k={_shown(k, repr)}, m={_shown(m)}")


# ---------------------------------------------------------------------------
# rules


class Rule:
    """Marker base class for voting rules."""

    kind: str = ""


@dataclass(frozen=True)
class Scoring(Rule):
    """A positional scoring rule: position i earns ``alphas[i]``.

    The score vector's entries are rationals, non-increasing, with a
    strictly larger first entry than last; this rules out constant vectors
    and single-candidate vectors.
    """

    alphas: tuple[Fraction, ...]
    kind = "scoring"

    def __post_init__(self):
        alphas = _read(lambda: tuple(map(Fraction, self.alphas)),
                       "score entries must be rationals: {!r}", self.alphas)
        object.__setattr__(self, "alphas", alphas)
        if len(alphas) < 2:
            raise InputError("score vector needs at least two positions")
        if any(a < b for a, b in zip(alphas, alphas[1:])):
            raise InputError(f"score vector must be non-increasing: {_shown(alphas, repr)}")
        if alphas[0] == alphas[-1]:
            raise InputError("constant score vector does not define a rule")

    @classmethod
    def borda(cls, m: int) -> "Scoring":
        return cls(tuple(Fraction(m - 1 - i) for i in range(m)))


@dataclass(frozen=True)
class KApproval(Rule):
    """k-approval: each of a ballot's top k positions earns 1."""

    k: int
    kind = "kapproval"

    def __post_init__(self):
        _check_int(self.k, "k", 1, kind="a positive integer")


@dataclass(frozen=True)
class Approval(Rule):
    """Approval voting: each approved candidate earns 1."""

    kind = "approval"


@dataclass(frozen=True)
class Bucklin(Rule):
    """Bucklin: the least level at which a candidate holds a majority wins."""

    kind = "bucklin"


@dataclass(frozen=True)
class Maximin(Rule):
    """Maximin: a candidate's score is its worst pairwise margin."""

    kind = "maximin"


@dataclass(frozen=True)
class Copeland(Rule):
    """Copeland^alpha: 1 per pairwise win and ``alpha`` per pairwise tie."""

    alpha: Fraction = Fraction(1, 2)
    kind = "copeland"

    def __post_init__(self):
        alpha = _read(lambda: Fraction(self.alpha), "copeland alpha must be rational: {!r}", self.alpha)
        object.__setattr__(self, "alpha", alpha)
        if not 0 <= alpha <= 1:
            raise InputError(f"copeland alpha must lie in [0, 1], got {_shown(alpha)}")


# ---------------------------------------------------------------------------
# tallies
#
# One integer tally per rule family. `_store_tally` checks the rule, makes
# the empty tally of the rule's own parameters and hands it a profile and a
# count per ballot through `_add_votes`, the one place where ballots enter a
# tally: a profile's own counts (`rule_tally`) or a sample's, paired with
# their rows by `Profile._ballots`. Where the family's counts_columns admits
# the number of distinct rankings and m, the range where it measured
# faster, the rankings are counted column-wise, one block of rows at a
# time (`_column_blocks`, read by the tally's add_block): each position's
# column of the block is read as one int and split into one dense bitset
# per candidate, and a bitset's votes are popcounts against the bit planes
# of the counts, read the same way. Approval masks are
# counted one candidate at a time (the tally's add_masks), and every other
# profile one ballot at a time. A tally takes add(raw, k), where ``raw``
# is a ranking's order or an approval ballot's members, each a tuple, and a
# negative k retracts, and reads out the rule's exact scores and its winner
# set as a bitmask over candidates.
# The rule is fixed when the tally is built, so add and winner_mask stay
# plain integer loops: the exact search steps a tally built any of these
# ways with them, one ballot at a time, millions of times.

# The bound on a block of the column-wise count, from what a block holds.
# Each block pays again for its count planes, its column reads (one
# int.from_bytes per column, then a shift, an AND and a three-step fold per
# bit) and its weigh calls, so a block should be as large as memory allows:
# a pairwise block holds m * m bitsets of one bit per ballot (the block's
# size rounded up to a multiple of 8), at most _BLOCK_BITS bits
# (4 MB) in all, the bitsets of 2,048 ballots at m = 128; and no block holds
# more than _BLOCK_BALLOTS ballots, which caps the bitsets of a large file
# at small m. A ranked `audit` profile (d = 4,704, m = 8) is one block.
_BLOCK_BITS = 1 << 25
_BLOCK_BALLOTS = 1 << 16


def _column_blocks(rows: bytes, counts: bytes | Sequence[int], m: int, stride: int):
    """The column-wise count of a store's rankings over at most 256
    candidates (``rows`` is bytes), in equal blocks of at most
    `_BLOCK_BALLOTS` ballots and `_BLOCK_BITS` // (m * m): a bitmap index
    over (candidate, position), as in O'Neil and Quass, "Improved query
    performance with variant indexes" (SIGMOD 1997). Row i begins at byte
    i * ``stride``, which the caller gives (`Profile._ballots`): m in a
    store, m + 1 in rows as parsed, whose separators no column reads.
    ``counts`` is one ``bytes`` of a byte per count where every count is
    below 256, as `_add_votes` hands them, else the counts as ints. A
    block that spans the whole store is ``rows`` and ``counts``
    themselves, not copies of them. Each block yields (column, weigh,
    total):

    * ``column(i)[x]`` is the bitset of the block's ballots that rank x at
      position i. Position i's entries are the slice ``block[i::stride]`` of
      the packed rows, read once by ``int.from_bytes``; each bit of the
      candidate index is a bitset taken from that int (``plane``), and
      ANDing those bitsets or their complements splits the block into the m
      candidates' bitsets. Only the positions a tally asks for are read.
    * ``plane`` takes bit b of every byte with one shift and one AND against
      a 0x01-per-byte mask, then folds the eight chunks of ceil(size / 8)
      bytes onto each other by three mask, shift and OR steps of 4, 2 and 1
      bits: ballot k * ceil(size / 8) + j of the block lands on bit 8j + k,
      so every bitset is dense, size rounded up to a multiple of 8 bits,
      before any AND or popcount. Only bitsets of one block meet, so the
      layout is never seen outside it; the pad bits are in no candidate's
      bitset and have count 0.
    * ``weigh(s)`` is the number of votes of the ballots in bitset s: each
      bit of the counts is a bitset in the same way, from one
      ``int.from_bytes`` per byte of the counts, and ``int.bit_count`` of s
      AND a plane is weighted by its power of two. A ballot of count 0 is
      in no plane, so it weighs nothing. The top bit of byte counts is
      found by deleting the bytes below 1, 2, 4, ... until none is left.
      Wider counts are written out as little-endian ints of the block's
      widest one.
    * ``total`` is the block's number of votes, ``weigh`` of every ballot:
      the planes' popcounts weighted by their powers of two.
    """
    index_bits = range((m - 1).bit_length() - 1, -1, -1)  # highest bit first
    bound = min(_BLOCK_BALLOTS, _BLOCK_BITS // (m * m))
    size = -(-len(counts) // -(-len(counts) // bound))  # the least even split
    for start in range(0, len(counts), size):
        block, weights = rows[start * stride:(start + size) * stride], counts[start:start + size]
        lanes = int.from_bytes(b"\x01" * len(weights), "little")
        chunk = 8 * -(-len(weights) // 8)  # bits of an eighth of the bytes, rounded up
        # the fold's steps of 4, 2 and 1: keep the low 4, 2 or 1 chunks (k),
        # and shift the rest onto them, 4, 2 or 1 bits up in each byte (s)
        (k4, s4), (k2, s2), (k1, s1) = [((1 << k * chunk) - 1, k * (chunk - 1)) for k in (4, 2, 1)]

        def plane(read, bit, lanes=lanes, k4=k4, s4=s4, k2=k2, s2=s2, k1=k1, s1=s1):
            s = read >> bit & lanes
            s = s & k4 | s >> s4
            s = s & k2 | s >> s2
            return s & k1 | s >> s1

        full = plane(lanes, 0)
        if isinstance(weights, bytes):
            width, top, rest = 1, 0, weights
            while rest := rest.translate(None, bytes(range(1 << top))):  # counts >= 2**top
                top += 1
        else:
            top = max(weights).bit_length()
            width = (top + 7) // 8
            weights = b"".join(
                map(int.to_bytes, weights, itertools.repeat(width), itertools.repeat("little")))
        reads = [int.from_bytes(weights[byte::width], "little") for byte in range(width)]
        planes, total = [], 0
        for shift in range(top):
            if counted := plane(reads[shift >> 3], shift & 7):
                planes.append((shift, counted))
                total += counted.bit_count() << shift

        def column(i, block=block, full=full, plane=plane):
            entries = int.from_bytes(block[i::stride], "little")
            cands = [full]
            for bit in index_bits:
                ones = plane(entries, bit)
                halves = (full ^ ones, ones)
                cands = [c & h for c in cands for h in halves]
            return cands[:m]

        def weigh(s, planes=planes):
            total = 0
            for shift, counted in planes:
                total += (s & counted).bit_count() << shift
            return total

        yield column, weigh, total


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
        column-wise: inside the range where that count measured faster than
        one add per ballot. It measured 8x faster at d = 4,700 and m = 8
        (Borda; 9x for Bucklin), and faster from d = 96-128 at m = 6 and 8
        and d = 160-192 at m = 12 and 16 (2 vCPUs, Python 3.11)."""
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
    """Pairwise family: ``above[x][y]`` of the ``n`` ballots rank x above y.

    Every ballot ranks every pair, so ``above[x][y] + above[y][x] == n`` and
    the margin of x over y is ``2 * above[x][y] - n``: a reader takes one
    entry where a difference would take two. ``n`` counts the ballots as
    add and add_block enter them, as `BucklinTally.n` does, so it follows
    the exact search's retractions and insertions. The diagonal holds
    ``math.inf``, which neither add nor add_block writes: no row minimum
    selects it, and `net` reads it as 0."""

    @staticmethod
    def counts_columns(d: int, m: int) -> bool:
        """Whether d distinct rankings of m candidates are counted
        column-wise. A block costs about m^3 bitset operations against
        add's m(m-1)/2 updates per ballot; the column-wise count measured
        faster from d = 4m-6m (1.6-2x at d = 8m, m = 8 to 128), and 28x at
        d = 4,700 and m = 8 (2 vCPUs, Python 3.11). At m = 128 a block holds
        2,048 ballots (`_BLOCK_BITS`), and fewer above it."""
        return d >= 8 * m and m <= 128

    def __init__(self, m: int):
        self.m = m
        self.n = 0
        self.above = [[math.inf if x == y else 0 for y in range(m)] for x in range(m)]

    def add(self, order, k: int) -> None:
        above, after = self.above, 0
        for x in order:
            after += 1
            row = above[x]
            for y in order[after:]:
                row[y] += k
        self.n += k

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
        self.n += total

    def net(self) -> tuple[tuple[int, ...], ...]:
        """Pairwise margins ``2 * above[x][y] - n``, 0 on the diagonal."""
        n = self.n
        return tuple(tuple(0 if x == y else 2 * v - n for y, v in enumerate(row))
                     for x, row in enumerate(self.above))


class MaximinTally(PairwiseTally):
    """Maximin: each candidate's worst pairwise margin, ``2 * min(row) - n``
    of its row of ``above`` (0 without rivals, where the row is the
    diagonal alone). The winners hold the largest row minimum."""

    def _minima(self) -> list:
        """Each row's least entry (the diagonal's inf only without rivals)."""
        return list(map(min, self.above))

    def _worst(self) -> list[int]:
        n = self.n
        return [2 * low - n for low in self._minima()] if self.m > 1 else [0]

    def scores(self) -> dict[int, int]:
        return dict(enumerate(self._worst()))

    def winner_mask(self) -> int:
        return _best_mask(self._minima())


class CopelandTally(PairwiseTally):
    """Copeland: pairwise wins plus ``alpha`` per pairwise tie. x beats y
    when ``2 * above[x][y] > n`` and ties when the two are equal; the
    diagonal's ``math.inf`` would read as a win, so each row drops one."""

    def __init__(self, m: int, alpha: Fraction):
        super().__init__(m)
        self.alpha = alpha

    def _points(self) -> list[int]:
        # q*wins + p*ties is an integer proxy for wins + (p/q)*ties
        p, q, n = self.alpha.numerator, self.alpha.denominator, self.n
        points = []
        for row in self.above:
            total = -q  # the diagonal's win
            for v in row:
                twice = 2 * v
                if twice > n:
                    total += q
                elif twice == n:
                    total += p
            points.append(total)
        return points

    def scores(self) -> dict[int, Fraction]:
        q = self.alpha.denominator
        return {x: Fraction(total, q) for x, total in enumerate(self._points())}

    def winner_mask(self) -> int:
        return _best_mask(self._points())


def rule_tally(profile: Profile, rule: Rule):
    """The integer tally of ``rule`` over a profile's ballots and counts.
    Raises InputError when the rule does not fit the profile's m and ballot
    kind (see `_store_tally`)."""
    return _store_tally(rule, profile, None)


def _store_tally(rule: Rule, profile: Profile, counts: Sequence[int] | None):
    """The integer tally of ``rule`` over a profile's ballots weighed by
    ``counts`` (see `Profile._ballots`). Raises InputError when the rule
    does not fit the profile's m and ballot kind: this is the one check of
    a rule against an election, behind winner sets, bounds, the exact
    search and the estimators, which check with no counts before they
    draw. The exact search then steps the tally with add.

    A score vector is scaled here, once, to integer weights over a common
    denominator ``unit``: ``alphas[i] == Fraction(weights[i], unit)``."""
    m, ranked = profile.m, isinstance(profile, RankedProfile)
    if isinstance(rule, Approval):
        if ranked:
            raise InputError("this operation needs an approval profile")
        tally = ApprovalTally(m, ())
    elif not isinstance(rule, (Scoring, KApproval, Bucklin, Maximin, Copeland)):
        raise InputError(f"unknown rule: {rule!r}")
    elif not ranked:
        raise InputError("this operation needs a ranked profile")
    elif isinstance(rule, Scoring):
        alphas = rule.alphas
        if len(alphas) != m:
            raise InputError(f"score vector has {len(alphas)} entries for {m} candidates")
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
    _add_votes(tally, profile, counts)
    return tally


def _add_votes(tally, profile: Profile, counts: Sequence[int] | None) -> None:
    """Add a profile's ballots, weighed by ``counts``, to a tally of
    `_store_tally`: the one place where ballots enter a tally, with the rows,
    counts and stride `Profile._ballots` pairs. The path depends on the
    input alone: approval masks are counted one candidate at a time by the
    tally's add_masks; where the tally's counts_columns admits the number of
    rankings of nonzero count, the packed rows are counted column-wise by
    `_column_blocks` and the tally's add_block; otherwise each ranking of
    nonzero count is added with the tally's add, as its order
    (`RankedProfile.entries`) or, as parsed, its packed row cut at the
    separators. The counts are made one ``bytes`` when each fits in a
    byte, which `_column_blocks` reads as they are."""
    rows, counts, stride = profile._ballots(counts)
    if not isinstance(profile, RankedProfile):
        tally.add_masks(rows, counts)
        return
    m = profile.m
    try:
        counts = bytes(counts)
    except ValueError:  # a count of 256 or more, which `_column_blocks` widens
        pass
    if tally.counts_columns(len(counts) - counts.count(0), m):
        for column, weigh, total in _column_blocks(rows, counts, m, stride):
            tally.add_block(column, weigh, total)
        return
    add = tally.add
    for order, count in zip(profile.entries() if stride == m else rows.split(b"\xff"), counts):
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
    tally = rule_tally(profile, rule)
    return WinnerResult(_members(tally.winner_mask()), tally.scores())


# ---------------------------------------------------------------------------
# seeded counts


def _multinomial(rng: random.Random, count: int, weights: Sequence[int]) -> list[int]:
    """One Multinomial(count; weights) draw over positive integer weights, as
    conditional binomials along the cells in order: a cell of weight w, with
    ``left`` items and weight W still to share out, gets Binomial(left, w/W)
    of them, and the last cell gets what is left. The walk stops once nothing
    is left, so the stream depends only on the cells it reaches. Cost: one
    binomial per cell reached, never more than O(len(weights) + count). A
    walk over two or more cells reads its counts as floats and takes their
    ``lgamma``, which overflows above about 2**1014.5, so a count of 2**1014
    or more is an InputError there; one cell takes the count as it is.

    Each binomial is drawn inline, with no call per cell, by a line-for-line
    port of CPython 3.12's ``random.binomialvariate`` for n >= 1 and
    0 < p < 1, which calls ``rng.random()`` in the same order, so one seed
    gives the same variates on either and leaves the generator in the same
    state: Devroye's geometric method below n*p = 10, above it Hoermann's
    BTRS ("The generation of binomial random variates", 1993).
    """
    if count >> 1014 and len(weights) > 1:
        raise InputError("cannot split 2**1014 or more votes at random")
    random_, fabs, floor, lgamma, log, log2, sqrt = (
        rng.random, math.fabs, math.floor, math.lgamma, math.log, math.log2, math.sqrt)
    drawn = [0] * len(weights)
    left, weight_left = count, sum(weights)
    for i, w in enumerate(weights):
        if w == weight_left:
            k = left
        elif left == 1:  # before the symmetry, as in binomialvariate
            k = 1 if random_() < w / weight_left else 0
        else:
            # Binomial(n, p) by binomialvariate, its p > 0.5 case drawn as
            # n - Binomial(n, 1 - p)
            n, p = left, w / weight_left
            flip = p > 0.5
            if flip:
                p = 1.0 - p
            if n * p < 10.0:
                # BG: Geometric method by Devroye with running time of O(np).
                k = y = 0
                c = log2(1.0 - p)
                if c:
                    while True:
                        y += floor(log2(random_()) / c) + 1
                        if y > n:
                            break
                        k += 1
            else:
                # BTRS: Transformed rejection with squeeze method by Wolfgang Hoermann
                setup_complete = False
                spq = sqrt(n * p * (1.0 - p))  # Standard deviation of the distribution
                b = 1.15 + 2.53 * spq
                a = -0.0873 + 0.0248 * b + 0.01 * p
                c = n * p + 0.5
                vr = 0.92 - 4.2 / b
                while True:
                    u = random_()
                    u -= 0.5
                    us = 0.5 - fabs(u)
                    k = floor((2.0 * a / us + b) * u + c)
                    if k < 0 or k > n:
                        continue
                    # The early-out "squeeze" test substantially reduces
                    # the number of acceptance condition evaluations.
                    v = random_()
                    if us >= 0.07 and v <= vr:
                        break
                    # Acceptance-rejection test.
                    if not setup_complete:
                        alpha = (2.83 + 5.1 / b) * spq
                        lpq = log(p / (1.0 - p))
                        m = floor((n + 1) * p)          # Mode of the distribution
                        h = lgamma(m + 1) + lgamma(n - m + 1)
                        setup_complete = True           # Only needs to be done once
                    v *= alpha / (a / (us * us) + b)
                    if log(v) <= h - lgamma(k + 1) - lgamma(n - k + 1) + (k - m) * lpq:
                        break
            if flip:
                k = n - k
        if k:
            drawn[i] = k
            left -= k
            if not left:
                break
        weight_left -= w
    return drawn
