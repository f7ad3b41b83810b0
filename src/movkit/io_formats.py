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

The parser is the one check of a file's ballots, and hands the ballots
and counts, in file order, to the profile (`movkit.core.Profile`) without
the constructor checking them again; its store (`movkit.core._store`)
merges repeated ballots. A letter file's profile keeps its rows as parsed
and builds the store only when something reads the ballots in canonical
order: its winner sets and bounds tally the parsed rows. One reader, `_header`, reads the ``m`` and ``candidates`` lines for
both parse paths below, reading lines one at a time only as far as the
header, and raises a header fault itself, on its line. A well-formed body is
parsed in a few whole-text passes over its UTF-8 as written, and once more
normalised if neither pass reads it so (comments, blank lines or other
line breaks than '\\n', which only the token pass looks for). A
ranking of one-character, non-digit tokens (default letters, one-character
names) is read straight from the bytes, with no split per line: one
translate checks every line's shape, one reads the counts and one turns
the tokens into candidate indices, one packed buffer of rows that the
store takes whole, with no split into one key per ballot; no key,
tuple or ballot object is built per ballot. Any other body (approval sets,
longer tokens, and digit tokens, which a whole-body pass cannot tell from
counts) is split once at every ':' and line break into counts and ballots,
and its tokens are split one ballot at a time, so no ballot's token list
outlives its key. Both readers resolve tokens through one token table,
which resolves each distinct token once, and read each count by the line
loop's rule, `_positive` on the stripped count text, so a count padded
with any blank that `str.strip` removes is read in the passes too. Any
fault in the body sends the text to the line loop, which only locates the
first fault and names its line: it is the one reader of a faulty body and
the reference for the passes.

Serialization is canonical: duplicates merged, ballots sorted, names kept
when present, default letters used otherwise (indices once m > 26), so
write(parse(text)) is idempotent and parse(write(profile)) == profile.
"""

import csv
import io
import re
from dataclasses import dataclass, fields
from decimal import ROUND_HALF_EVEN, Context, Decimal, localcontext
from fractions import Fraction
from itertools import filterfalse, islice, repeat
from operator import itemgetter, methodcaller
from typing import Iterable, Iterator, Optional, Sequence

from movkit.core import (
    ApprovalProfile,
    InputError,
    Profile,
    RankedProfile,
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

    The header is read by `_header`, which raises its faults. The body after
    it is parsed in whole-text passes (`_read_body`), which hand the
    ballots and counts, in file order, to the profile, a ranking of
    one-character tokens as one packed buffer of rows and any other ballot
    as its key: the store skips its sort and merge where the ballots are
    strictly increasing, as a written file's are, and the packed buffer is
    stored only on the first read of the profile's rows or counts, never
    by a winner set or bounds. A body that fits neither
    pass as written, as one with a comment, a blank line or a line break
    other than '\\n' does, is read once more normalised (`_normalised`). On
    any body fault the line loop (`_parse_lines`) parses the text again and
    raises the first fault with its line number."""
    m, names, _, offset = _header(text)
    body, table = text[offset:], _TokenTable(names, m)
    try:
        profile = _read_body(body, table, m, names) or _read_body(_normalised(body), table, m, names)
    except ValueError:  # so are a ParseError and a lone surrogate's UnicodeError
        profile = None
    return profile or _parse_lines(text)


# the line breaks of str.splitlines other than '\n', the one copy of that set
_BREAKS = "\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
# every break of str.splitlines, '\r\n' first so that it is one break
_BREAK = re.compile("\r\n|[\n" + _BREAKS + "]")


def _lines(text: str) -> Iterator[tuple[str, int]]:
    """(line, end) for each line of text as str.splitlines cuts it, read one
    line at a time; ``end`` is the offset just after the line's break."""
    start = 0
    for match in _BREAK.finditer(text):
        yield text[start:match.start()], match.end()
        start = match.end()
    if start < len(text):
        yield text[start:], len(text)


def _header(text: str) -> tuple:
    """(m, names, last, offset): the header of election text, the one
    reader of it for both parse paths. It reads the lines one at a time, up
    to the first significant line after ``m``, and no further. Blank and '#'
    lines are skipped; the first other line must be ``m <count>``, and a
    ``candidates`` line right after it declares the names (None without
    one). ``last`` is the 1-based number of the header's last line, and
    ``offset`` the index in ``text`` just after it, where the body begins.
    A fault is a ParseError on its line."""
    lines = ((number, line.strip(), end) for number, (line, end) in enumerate(_lines(text), start=1))
    significant = (entry for entry in lines if entry[1] and entry[1][0] != "#")
    number, line, offset = next(significant, (0, "", 0))
    if not number:
        raise ParseError("missing 'm <count>' header", 1)
    parts = line.split()
    m = _positive(parts[1]) if len(parts) == 2 and parts[0] == "m" else 0
    if m < 1:
        raise ParseError("first line must be 'm <count>' with a positive count", number)
    last = number
    number, line, end = next(significant, (0, "", 0))
    if not line.startswith("candidates"):
        return m, None, last, offset
    rest = line[len("candidates"):].strip()
    try:
        names = _validate_names((tok.strip() for tok in rest.split(",")), m)
    except InputError as exc:
        raise ParseError(str(exc), number) from exc
    return m, names, number, end


# the UTF-8 of a comment mark and of each line break that is not '\n': a body
# holding one is not cut into fields, and is read once normalised instead
_IRREGULAR = tuple(c.encode() for c in ("#", *_BREAKS))
_NOT_SEPARATOR = bytes(c for c in range(256) if c not in b":\n")
# the bytes that a letter body's passes delete, or keep (see `_letter_body`)
_DIGITS_AND_BLANKS = b"0123456789 \t"
_NOT_COUNT = bytes(c for c in range(256) if c not in b"0123456789:\n")
_NOT_COUNT_TEXT = bytes(c for c in range(256) if c not in b"0123456789 \t:")
_DIGIT_VALUE = bytes.maketrans(b"0123456789", bytes(range(10)))


def _normalised(body: str) -> str:
    """The body's stripped lines, without blank or comment lines, joined by
    '\\n'."""
    lines = filter(None, map(str.strip, body.splitlines()))
    if "#" in body:
        lines = filterfalse(methodcaller("startswith", "#"), lines)
    return "\n".join(lines)


def _read_body(body: str, table: _TokenTable, m: int, names) -> Optional[Profile]:
    """The profile of an election body, or None when its lines fit neither
    pass below, as a blank line, a comment or a line break other than '\\n'
    does; a fault in a body that fits is a ValueError. A ranking of
    one-character tokens is read straight from the body's bytes
    (`_letter_body`), whose shape check refuses a comment line and any line
    break but '\\n'. Any other body without those is cut into counts and
    ballots (`_fields`), and `_bulk_keys` reads the ballots' keys. The
    packed rows or the keys go to the store with the counts in file order,
    and the store merges repeated ballots."""
    data = body.encode()
    del body  # a normalised body is held nowhere else
    if not data.endswith(b"\n"):
        data += b"\n"
    letters = _letter_body(data, table, m)
    if letters is not None:
        return RankedProfile._from_canonical(m, *letters, names)
    fields = None if any(map(data.__contains__, _IRREGULAR)) else _fields(data)
    del data  # not to hold the body twice through the key pass and the store
    if fields is None:
        return None
    counts, ballots = fields[::2], fields[1::2]
    del fields
    counts = _count_values(counts)
    kind, keys = _bulk_keys(ballots, table, m)
    del ballots  # the line text is not needed to build the profile
    return kind._from_canonical(m, keys, counts, names)


def _letter_body(data: bytes, table: _TokenTable, m: int) -> Optional[tuple]:
    """(rows, counts) of a ranked body whose candidate tokens are one ASCII
    character each, not a digit (default letters, one-character names),
    read from its UTF-8 ``data``, each line broken by '\\n', with no split
    per line; None for any other text, which `_fields` reads. A fault in a
    body that fits is a ValueError.

    It runs only when every candidate has such a token in the table, so
    m <= 55 and every index lies below 255. Blanks are ' ' and '\\t'.
    (1) Shape: one translate deletes digits and blanks and turns each token
    into 'T', any other byte but ':', '>' and '\\n' into a zero byte; the
    text must then be ':T>...>T\\n' (m tokens) once per line. (2) Counts:
    one translate keeps each line's digits, ':' and '\\n'. Where that is
    one digit, ':' and '\\n' per line, one translate of its digits gives
    the counts, and a 0 among them is a fault: on one ASCII digit this is
    `_positive`'s rule. Otherwise each ':' must be right before its '\\n'
    (no digit in a ranking), and the count texts, cut with their blanks,
    go to `_count_values`, which reads them by that rule. (3) Rows: one
    translate turns each token into its index and each '\\n' into the byte
    255, and deletes the rest: m indices and one separator per ballot,
    which `_ranks_all` checks for repeats. These rows go to the store
    packed as they are (see `movkit.core._store`), with no key cut per
    ballot: the store tests their order on the whole buffer, deletes the
    separators, and cuts keys only to merge rows out of order.

    Digit tokens (one-digit indices, single-digit names) are left to the
    token pass: a whole-body pass cannot tell them from counts."""
    letters = [(ord(token), i) for token, i in table.items()
               if len(token) == 1 and token.isascii() and not token.isdigit()]
    if len(letters) != m:
        return None
    shape, index = bytearray(256), bytearray(256)
    for byte, i in letters:
        shape[byte], index[byte] = ord("T"), i
    for byte in b":>\n":
        shape[byte] = byte
    index[ord("\n")] = 255
    classes = data.translate(shape, _DIGITS_AND_BLANKS)
    lines = len(classes) // (2 * m + 1)
    if classes != (b":" + b"T>" * (m - 1) + b"T\n") * lines:
        return None
    del classes
    digits = data.translate(None, _NOT_COUNT)
    if len(digits) == 3 * lines and digits[1::3] == b":" * lines \
            and digits[2::3] == b"\n" * lines:
        counts = digits[::3].translate(_DIGIT_VALUE)
        if 0 in counts:
            raise ValueError("a count of 0")
    elif digits.count(b":\n") == lines:
        # each text holds its line's count and the blanks of the ranking
        # before it; the text after the last ':' holds blanks only
        texts = data.translate(None, _NOT_COUNT_TEXT).split(b":")
        texts.pop()
        counts = _count_values(texts)
    else:
        raise ValueError("a digit in a ranking")
    rows = data.translate(index, _DIGITS_AND_BLANKS + b":>")
    if not _ranks_all(rows, m):
        raise ValueError("ranking with a repeat")
    return rows, counts


def _count_values(texts: list) -> Iterable[int]:
    """The value of each count text, a line's count in UTF-8 with the
    blanks around it, or a ValueError unless each is a positive integer.
    Each distinct text is read once by `_positive`, stripped as the line
    loop strips its count, so the passes and the line loop accept the same
    counts. A text of `_fields` lies between a '\\n' and a ':', which never
    occur inside a character's UTF-8 bytes, and one of `_letter_body` is
    ASCII, so it always decodes."""
    value = {text: _positive(text.decode().strip()) for text in set(texts)}
    if 0 in value.values():
        raise ValueError("a count that is not a positive integer")
    return map(value.__getitem__, texts)


def _fields(data: bytes) -> Optional[list]:
    """The body's UTF-8 ``data`` cut at its ':' and '\\n' into count,
    ballot, count, ballot, ..., or None unless every line of it holds one
    ':' exactly. Those two bytes never occur inside a character's UTF-8
    bytes. The body must be broken by '\\n' only, its last line too."""
    separators = data.translate(None, _NOT_SEPARATOR)
    if not separators or separators != b":\n" * (len(separators) // 2):
        return None
    fields = data.replace(b"\n", b":").split(b":")
    fields.pop()  # the empty text after the last break
    return fields


def _bulk_keys(ballots: Sequence[bytes], table: _TokenTable, m: int):
    """(kind, keys): the profile class the first ballot names and the store
    key of each ballot (the UTF-8 text after its count; see
    `movkit.core._store`). A ballot of the other kind, or malformed, is a
    ValueError; an unknown token is the table's ParseError.

    Ranked text is decoded and split into tokens one ballot at a time, so
    no ballot's token list outlives its key, and each key is checked for
    repeats with a set."""
    get = table.__getitem__
    if ballots[0].decode().strip().startswith("{"):
        ballots = list(map(str.strip, map(bytes.decode, ballots)))
        if not (all(map(str.startswith, ballots, repeat("{")))
                and all(map(str.endswith, ballots, repeat("}")))):
            raise ValueError("unterminated approval set, or a ranked ballot")
        inners = map(str.strip, map(itemgetter(slice(1, -1)), ballots))
        keys = [tuple(sorted(map(get, inner.split(",")))) if inner else () for inner in inners]
        if sum(map(len, map(set, keys))) != sum(map(len, keys)):
            raise ValueError("approval ballot lists a candidate twice")
        return ApprovalProfile, keys
    # '{' is in no candidate token, so an approval ballot fails the ranked key
    # pass. A first token's leading blank is resolved once, like any miss.
    row = _row_type(m)
    tokens = map(str.split, map(bytes.decode, ballots), repeat(">"))
    keys = list(map(row, map(map, repeat(get), tokens)))
    # every index lies in 0..m-1, so m distinct indices make a ranking
    if set(map(len, keys)) != {m} or min(map(len, map(set, keys))) != m:
        raise ValueError("ranking of the wrong length or with a repeat")
    return RankedProfile, keys


def _ranks_all(rows: bytes, m: int) -> bool:
    """Whether every run of m indices in rows, each below m and followed by
    one separator byte, lists m distinct candidates, that is each of them.
    The m position columns are sliced out once; for each eight candidates,
    one translate per column turns every index into its presence bit among
    the eight, and the OR of the columns must be a full byte per ballot."""
    ballots = len(rows) // (m + 1)
    columns = [rows[position::m + 1] for position in range(m)]
    for low in range(0, m, 8):
        bits = bytearray(256)
        for c in range(low, min(low + 8, m)):
            bits[c] = 1 << (c - low)
        seen = 0
        for column in columns:
            seen |= int.from_bytes(column.translate(bits), "little")
        if seen != int.from_bytes(bytes([sum(bits)]) * ballots, "little"):
            return False
    return True


def _parse_lines(text: str) -> Profile:
    """Parse election text line by line: the one reader that names the
    first faulty line, and the reference the whole-file passes match. Both
    read the header with `_header` and resolve tokens through one
    `_TokenTable`, here told each line's number."""
    m, names, last_header, _ = _header(text)
    table, row = _TokenTable(names, m), _row_type(m)
    kind: Optional[type[Profile]] = None  # set by the first ballot line
    keys, counts = [], []
    for number, line in enumerate(islice(text.splitlines(), last_header, None),
                                  start=last_header + 1):
        line = line.strip()
        if not line or line[0] == "#":
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
        keys.append(key)
        counts.append(count)
    if kind is None:
        raise ParseError("no ballot lines", last_header)
    return kind._from_canonical(m, keys, counts, names)


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
    out.extend(f"{mult}: {_format_ballot(entry, ranked, labels)}"
               for entry, mult in zip(profile.entries(), profile.counts))
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
    return _format_rational(value, ".10g" if name in ("epsilon", "delta") else "#.10g")


def _format_rational(value, spec: str) -> str:
    """``format(float(value), spec)`` for a rational and a ``[#].<N>g`` spec.
    Beyond the float range the same style is computed exactly: the quotient
    rounded half-even to N significant digits, trailing zeros kept only
    under ``#``."""
    try:
        return format(float(value), spec)
    except OverflowError:
        with localcontext(Context(prec=int(spec.strip("#.g")), rounding=ROUND_HALF_EVEN)):
            exact = Decimal(value.numerator) / value.denominator
            return format(exact if spec[0] == "#" else exact.normalize(), spec.lstrip("#"))


def write_experiment_csv(rows: Iterable[ExperimentRow]) -> str:
    """Serialize experiment rows to CSV (RFC-4180-style, minimal quoting)."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, quoting=csv.QUOTE_MINIMAL, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow([_cell(name, getattr(row, name)) for name in CSV_COLUMNS])
    return buffer.getvalue()
