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

The parser is the one check of a file's ballots: it resolves, checks and
merges each line once, and hands the merged ballots to the profile without
the constructor checking them again.

Serialization is canonical: duplicates merged, ballots sorted, names kept
when present, default letters used otherwise (indices once m > 26), so
write(parse(text)) is idempotent and parse(write(profile)) == profile.
"""

import csv
import io
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

from movkit.core import (
    ApprovalBallot,
    ApprovalProfile,
    InputError,
    Profile,
    RankedProfile,
    Ranking,
    _validate_names,
)

_DEFAULT_NAMES = "abcdefghijklmnopqrstuvwxyz"


class ParseError(ValueError):
    """Malformed election text; carries the 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _token_table(names: Optional[Sequence[str]], m: int) -> dict[str, int]:
    """Candidate index of the declared names, or else (m <= 26) of the
    default letters. Integer tokens enter on first use, through `_resolve`,
    so declared names win over integer literals, which win over letters."""
    if names is not None:
        return {name: c for c, name in enumerate(names)}
    return {letter: c for c, letter in enumerate(_DEFAULT_NAMES[:m])} if m <= 26 else {}


def _resolve(token: str, table: dict[str, int], m: int, line: int) -> int:
    """The candidate of a token `_token_table` misses as given (padded,
    empty, an integer, written with non-canonical digits such as ``01``, out
    of range, or unknown), remembered in the table under the token."""
    name = token.strip()
    if not name:
        raise ParseError("empty candidate token", line)
    index = table.get(name)
    if index is None:
        # ASCII digits only: str.isdigit also accepts '²', which int() rejects
        if not (name.isascii() and name.isdigit()):
            raise ParseError(f"unknown candidate {name!r}", line)
        digits = name.lstrip("0") or "0"
        # more digits than m has is out of range, and may be more than int() reads
        if len(digits) > len(str(m)) or int(digits) >= m:
            raise ParseError(f"candidate index {digits} out of range for m={m}", line)
        index = int(digits)
    table[token] = index
    return index


def _positive(text: str) -> int:
    """The value of a string of ASCII digits, or 0 if it is anything else or
    has more digits than int() reads (sys.get_int_max_str_digits)."""
    try:
        return int(text) if text.isascii() and text.isdigit() else 0
    except ValueError:
        return 0


def parse_election(text: str) -> Profile:
    """Parse election text into a ranked or approval profile."""
    m = 0
    names: Optional[tuple[str, ...]] = None
    kind: Optional[type[Profile]] = None  # set by the first ballot line
    counts: dict[tuple[int, ...], int] = {}
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
            # fast path for ballot tokens; a miss falls back to _resolve
            table = _token_table(names, m)
            continue
        if kind is None and names is None and line.startswith("candidates"):
            rest = line[len("candidates"):].strip()
            try:
                names = _validate_names((tok.strip() for tok in rest.split(",")), m)
            except InputError as exc:
                raise ParseError(str(exc), number) from exc
            table, last_header = _token_table(names, m), number
            continue
        count_part, sep, ballot_part = line.partition(":")
        if not sep:
            raise ParseError("expected 'COUNT: ballot'", number)
        count_part = count_part.strip()
        count = _positive(count_part)
        if count < 1:
            raise ParseError(f"count must be a positive integer, got {count_part!r}", number)
        ballot_part = ballot_part.strip()
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
                    cand = table.get(token)
                    if cand is None:
                        cand = _resolve(token, table, m, number)
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
            key = tuple(map(table.get, tokens))
            if None in key:
                key = tuple(_resolve(token, table, m, number) for token in tokens)
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


def _format_ballot(ballot: Union[Ranking, ApprovalBallot], labels: Sequence[str]) -> str:
    """A ballot's text in the module grammar, without its count."""
    if isinstance(ballot, Ranking):
        return ">".join(labels[c] for c in ballot.order)
    return "{" + ",".join(labels[c] for c in sorted(ballot.approved)) + "}"


def write_election(profile: Profile) -> str:
    """Canonical text form of a profile; see the module grammar."""
    labels = candidate_labels(profile)
    out = [f"m {profile.m}"]
    if profile.names is not None:
        out.append("candidates " + ",".join(profile.names))
    out.extend(f"{mult}: {_format_ballot(ballot, labels)}" for ballot, mult in profile.votes)
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
