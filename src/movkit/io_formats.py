"""Election file parsing/serialization and experiment CSV output.

Election file grammar (UTF-8, line oriented):

    # comment lines and blank lines are ignored
    m 3
    candidates alice,bob,carol     (optional)
    2: alice>bob>carol             (ranked ballot, count first)
    1: {alice,carol}               (approval ballot; {} is legal)

The first significant line must be ``m <int>``. A file holds ranked ballots
or approval ballots, never both. Candidate tokens are declared names, bare
0-based integer indices, or (when no names are declared and m <= 26) the
default letters a, b, c, ... Declared names win over integer literals.
Counts, indices and ``m`` are written in ASCII digits. Lines with the same
ballot merge, their counts summed.

The parser is the one check of a file's ballots, and hands the merged
ballot keys to the profile's store (`movkit.core._store`) without the
constructor checking them again. Well-formed text is parsed in a few
whole-text passes: the body lines joined by ':' split once into counts and
ballots; rankings of single-character tokens are joined into one text,
whose separators one slice comparison checks, and which one translate
(each token to its candidate index) and one split cut into one ``bytes``
key per ballot: the store joins those into its packed rows, so no tuple or
ballot object is built per ballot. Longer tokens are split one ballot at a
time, so no ballot's token list outlives its key. Both readers resolve
tokens through one token table, which resolves each distinct token once.
Any fault sends the text to the line loop, which only locates the first
fault and names its line: it is the one reader of faulty text and the
reference for the passes.

Serialization is canonical: duplicates merged, ballots sorted, names kept
when present, default letters used otherwise (indices once m > 26), so
write(parse(text)) is idempotent and parse(write(profile)) == profile.
"""

import csv
import io
from dataclasses import dataclass, fields
from fractions import Fraction
from itertools import chain, filterfalse, repeat
from operator import contains, itemgetter, methodcaller
from typing import Iterable, Optional, Sequence

from movkit.core import (
    ApprovalProfile,
    InputError,
    Profile,
    RankedProfile,
    _entries,
    _row_type,
    _validate_names,
)

_DEFAULT_NAMES = "abcdefghijklmnopqrstuvwxyz"


class ParseError(ValueError):
    """Malformed election text; carries the 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class _TokenTable(dict):
    """The candidate index of each token, the one token rule of both readers.

    It starts from the declared names, or else (m <= 26) the default
    letters, so declared names win over integer literals. A miss is
    resolved on first use and remembered under the token as given: a name
    or letter of the table, padded or not, or an integer index, which may
    be written with non-canonical digits such as ``01``. Index labels are
    not preloaded, so a table holds only the tokens a file uses, whatever
    m is. An empty, out-of-range or unknown token is a ParseError on the
    caller's ``line``: 0 in the whole-file passes, which discard it."""

    def __init__(self, names: Optional[Sequence[str]], m: int):
        if names is not None:
            super().__init__(zip(names, range(m)))
        elif m <= 26:
            super().__init__(zip(_DEFAULT_NAMES, range(m)))
        self.m, self.line = m, 0

    def __missing__(self, token: str) -> int:
        name, m = token.strip(), self.m
        if not name:
            raise ParseError("empty candidate token", self.line)
        index = self.get(name)
        if index is None:
            # ASCII digits only: str.isdigit also accepts '²', which int() rejects
            if not (name.isascii() and name.isdigit()):
                raise ParseError(f"unknown candidate {name!r}", self.line)
            digits = name.lstrip("0") or "0"
            # more digits than m has is out of range, and may be more than int() reads
            if len(digits) > len(str(m)) or int(digits) >= m:
                raise ParseError(f"candidate index {digits} out of range for m={m}", self.line)
            index = int(digits)
        self[token] = index
        return index


def _positive(text: str) -> int:
    """The value of a string of ASCII digits, or 0 if it is anything else or
    has more digits than int() reads (sys.get_int_max_str_digits)."""
    try:
        return int(text) if text.isascii() and text.isdigit() else 0
    except ValueError:
        return 0


def parse_election(text: str) -> Profile:
    """Parse election text into a ranked or approval profile.

    Well-formed text is parsed in whole-file passes (`_parse_bulk`). On any
    fault the line loop (`_parse_lines`) parses the text again and raises
    the first fault with its line number."""
    return _parse_bulk(text) or _parse_lines(text)


def _parse_bulk(text: str) -> Optional[Profile]:
    """The profile of well-formed text, or None on any fault, read in a few
    whole-text passes instead of one Python iteration per line: the body
    lines joined by ':' split once into counts and ballots, and the ballots
    read by `_bulk_keys`."""
    lines = filter(None, map(str.strip, text.splitlines()))
    if "#" in text:
        lines = filterfalse(methodcaller("startswith", "#"), lines)
    try:
        head = next(lines, "").split()
        m = _positive(head[1]) if len(head) == 2 and head[0] == "m" else 0
        if m < 1:
            return None
        names, first = None, next(lines, "")
        if first.startswith("candidates"):
            rest = first[len("candidates"):].strip()
            names = _validate_names((tok.strip() for tok in rest.split(",")), m)
            first = next(lines, "")
        # first is "" when no ballot line follows. A ':' on every line and as
        # many ':' as lines in all make one per line, so the joined lines
        # split into count, ballot, count, ballot, ...
        body = [first, *lines]
        if not all(map(contains, body, repeat(":"))):
            return None
        fields = ":".join(body).split(":")
        if len(fields) != 2 * len(body):
            return None
        counts, ballots = list(map(str.strip, fields[::2])), fields[1::2]
        del body, fields  # not to hold the line text twice through the key pass
        digits = "".join(counts)
        if not (digits.isascii() and digits.isdigit()):
            return None
        # int() of an empty count, or of more digits than it reads, is a ValueError
        counts = list(map(int, counts))
        if 0 in counts:
            return None
        kind, keys = _bulk_keys(ballots, _TokenTable(names, m), m)
    except ValueError:  # so are a ParseError and an InputError
        return None
    del ballots  # the line text is not needed to build the profile
    merged = dict(zip(keys, counts))
    if len(merged) < len(keys):
        merged = {}
        for key, count in zip(keys, counts):
            merged[key] = merged.get(key, 0) + count
    return kind._from_canonical(m, merged, names)


def _bulk_keys(ballots: Sequence[str], table: _TokenTable, m: int):
    """(kind, keys): the profile class the first ballot names and the store
    key of each ballot (the text after its count; see `movkit.core._store`).
    A ballot of the other kind, or malformed, is a ValueError; an unknown
    token is the table's ParseError.

    Rankings of single-character tokens are read as one text
    (`_letter_keys`). Any other ranked text is split into tokens one ballot
    at a time, so no ballot's token list outlives its key, and each key is
    checked for repeats with a set."""
    get = table.__getitem__
    if ballots[0].strip().startswith("{"):
        ballots = list(map(str.strip, ballots))
        if not (all(map(str.startswith, ballots, repeat("{")))
                and all(map(str.endswith, ballots, repeat("}")))):
            raise ValueError("unterminated approval set, or a ranked ballot")
        inners = map(str.strip, map(itemgetter(slice(1, -1)), ballots))
        keys = [tuple(sorted(map(get, inner.split(",")))) if inner else () for inner in inners]
        if sum(map(len, map(set, keys))) != sum(map(len, keys)):
            raise ValueError("approval ballot lists a candidate twice")
        return ApprovalProfile, keys
    keys = _letter_keys(ballots, table, m)
    if keys is not None:
        return RankedProfile, keys
    # '{' is in no candidate token, so an approval ballot fails the ranked key
    # pass. A first token's leading blank is resolved once, like any miss.
    row = _row_type(m)
    keys = list(map(row, map(map, repeat(get), map(str.split, ballots, repeat(">")))))
    # every index lies in 0..m-1, so m distinct indices make a ranking
    if set(map(len, keys)) != {m} or min(map(len, map(set, keys))) != m:
        raise ValueError("ranking of the wrong length or with a repeat")
    return RankedProfile, keys


def _letter_keys(ballots: Sequence[str], table: _TokenTable, m: int) -> Optional[list]:
    """The keys of rankings of m single-character tokens each (default
    letters, one-digit indices, one-character names), each the ``bytes`` of
    its m candidate indices; None for any other text, which the token pass
    reads. A ranking with a repeat is a ValueError.

    Without spaces, the ballots joined by ',' (and one after the last) hold
    a token at every even place and, at every odd place, '>' within a
    ballot and ',' after it: one slice comparison checks every ballot's
    length and separators. Each distinct character is resolved once through
    the table, and one translate of the joined text deletes each '>', turns
    each token into its index and each ',' into the byte 255: m indices
    and one separator per ballot, which `_ranks_all` checks for repeats. A
    ranking of distinct single characters has m <= 65, so no index is 255,
    and one split on it cuts out the keys."""
    if len(ballots[0].replace(" ", "")) != 2 * m - 1:  # spares longer tokens the join
        return None
    text = ",".join(chain(ballots, ("",))).replace(" ", "")
    if not (len(text) == 2 * m * len(ballots) and text.isascii()
            and text[1::2] == (">" * (m - 1) + ",") * len(ballots)):
        return None
    text = text.encode()
    index = bytearray(256)
    try:
        for char in set(text[::2]):
            index[char] = table[chr(char)]
    except ValueError:  # an unknown token, or an index that is no byte
        return None
    index[ord(",")] = 255
    rows = text.translate(index, b">")
    if not _ranks_all(rows, m):
        raise ValueError("ranking with a repeat")
    keys = rows.split(b"\xff")
    keys.pop()  # the empty text after the last ','
    return keys


def _ranks_all(rows: bytes, m: int) -> bool:
    """Whether every run of m indices in rows, each below m and followed by
    one separator byte, lists m distinct candidates, that is each of them.
    For each eight candidates, one translate turns every index into its
    presence bit among the eight, and the OR of the m position columns must
    be a full byte per ballot."""
    ballots = len(rows) // (m + 1)
    for low in range(0, m, 8):
        bits = bytearray(256)
        for c in range(low, min(low + 8, m)):
            bits[c] = 1 << (c - low)
        present = rows.translate(bits)
        seen = 0
        for position in range(m):
            seen |= int.from_bytes(present[position::m + 1], "big")
        if seen != int.from_bytes(bytes([sum(bits)]) * ballots, "big"):
            return False
    return True


def _parse_lines(text: str) -> Profile:
    """Parse election text line by line: the one reader that names the
    first faulty line, and the reference the whole-file passes match. Both
    resolve tokens through one `_TokenTable`, here told each line's number."""
    m = 0
    names: Optional[tuple[str, ...]] = None
    kind: Optional[type[Profile]] = None  # set by the first ballot line
    counts: dict = {}
    for number, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line[0] == "#":
            continue
        if not m:
            parts = line.split()
            m = _positive(parts[1]) if len(parts) == 2 and parts[0] == "m" else 0
            if m < 1:
                raise ParseError("first line must be 'm <count>' with a positive count", number)
            last_header = number
            table, row = _TokenTable(names, m), _row_type(m)
            continue
        if kind is None and names is None and line.startswith("candidates"):
            rest = line[len("candidates"):].strip()
            try:
                names = _validate_names((tok.strip() for tok in rest.split(",")), m)
            except InputError as exc:
                raise ParseError(str(exc), number) from exc
            table, last_header = _TokenTable(names, m), number
            continue
        count_part, sep, ballot_part = line.partition(":")
        if not sep:
            raise ParseError("expected 'COUNT: ballot'", number)
        count_part = count_part.strip()
        count = _positive(count_part)
        if count < 1:
            raise ParseError(f"count must be a positive integer, got {count_part!r}", number)
        ballot_part = ballot_part.strip()
        table.line = number
        if ballot_part.startswith("{"):
            if kind is RankedProfile:
                raise ParseError("approval ballot in a ranked file", number)
            kind = ApprovalProfile
            if not ballot_part.endswith("}"):
                raise ParseError("unterminated approval set", number)
            inner = ballot_part[1:-1].strip()
            members: set[int] = set()
            if inner:
                for token in inner.split(","):
                    cand = table[token]
                    if cand in members:
                        raise ParseError(f"candidate {token.strip()!r} listed twice", number)
                    members.add(cand)
            key = tuple(sorted(members))
        else:
            if kind is ApprovalProfile:
                raise ParseError("ranked ballot in an approval file", number)
            kind = RankedProfile
            tokens = ballot_part.split(">")
            if len(tokens) != m:
                raise ParseError(f"ranking must list all {m} candidates", number)
            key = row(map(table.__getitem__, tokens))
            # all m indices lie in 0..m-1, so a repeat is the only fault left
            if len(set(key)) != m:
                raise ParseError("ranking repeats a candidate", number)
        counts[key] = counts.get(key, 0) + count
    if not m:
        raise ParseError("missing 'm <count>' header", 1)
    if kind is None:
        raise ParseError("no ballot lines", last_header)
    return kind._from_canonical(m, counts, names)


def candidate_labels(profile: Profile) -> list[str]:
    """Printed label of each candidate: declared names, else default letters
    (integer indices once m > 26)."""
    if profile.names is not None:
        return list(profile.names)
    if profile.m <= 26:
        return list(_DEFAULT_NAMES[: profile.m])
    return [str(c) for c in range(profile.m)]


def _format_ballot(entries: Sequence[int], ranked: bool, labels: Sequence[str]) -> str:
    """A ballot's text in the module grammar, without its count, from a
    ranking's order or an approval ballot's ascending members."""
    tokens = map(labels.__getitem__, entries)
    return ">".join(tokens) if ranked else "{" + ",".join(tokens) + "}"


def write_election(profile: Profile) -> str:
    """Canonical text form of a profile; see the module grammar."""
    labels = candidate_labels(profile)
    ranked = isinstance(profile, RankedProfile)
    out = [f"m {profile.m}"]
    if profile.names is not None:
        out.append("candidates " + ",".join(profile.names))
    entries = _entries(profile.rows, profile.m, ranked)
    out.extend(f"{mult}: {_format_ballot(entry, ranked, labels)}"
               for entry, mult in zip(entries, profile.counts))
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# experiment CSV


@dataclass(frozen=True)
class ExperimentRow:
    """One estimation trial, ready for CSV serialization.

    ``mov_exact`` is None when the trial carried no exact reference (bounds
    policy, exhausted oracle budget, or an inapplicable closed form); the
    bounds columns are None unless the bounds policy ran. ``within_guarantee``
    is None exactly when the trial has no reference to judge against.
    """

    trial: int
    seed: int
    rule: str
    n: int
    m: int
    epsilon: Fraction
    delta: Fraction
    ell: int
    mov_exact: Optional[int]
    mov_lower: Optional[Fraction]
    mov_upper: Optional[Fraction]
    estimate: Fraction
    abs_error: Optional[Fraction]
    within_guarantee: Optional[bool]


CSV_COLUMNS = tuple(field.name for field in fields(ExperimentRow))


def _cell(name: str, value):
    """The CSV cell of one field: None empty, booleans in lower case,
    rationals as decimals with 10 significant digits (padded with trailing
    zeros, except epsilon and delta), anything else as it is."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    if not isinstance(value, Fraction):
        return value
    return format(float(value), ".10g" if name in ("epsilon", "delta") else "#.10g")


def write_experiment_csv(rows: Iterable[ExperimentRow]) -> str:
    """Serialize experiment rows to CSV (RFC-4180-style, minimal quoting)."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, quoting=csv.QUOTE_MINIMAL, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow([_cell(name, getattr(row, name)) for name in CSV_COLUMNS])
    return buffer.getvalue()
