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
Counts, indices and ``m`` are written in ASCII digits.

Serialization is canonical: duplicates merged, ballots sorted, names kept
when present, default letters used otherwise (indices once m > 26), so
write(parse(text)) is idempotent and parse(write(profile)) == profile.
"""

import csv
import io
import math
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


def _significant_lines(text: str):
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield number, line


def _is_number(text: str) -> bool:
    """ASCII digits only: ``str.isdigit`` also accepts '²', which int() rejects."""
    return text.isascii() and text.isdigit()


def _token_table(names: Optional[Sequence[str]], m: int) -> dict[str, int]:
    """Candidate index of every canonical token. Declared names win over
    integer literals, which win over the default letters."""
    table = {}
    if names is None and m <= 26:
        table.update((letter, c) for c, letter in enumerate(_DEFAULT_NAMES[:m]))
    table.update((str(c), c) for c in range(m))
    if names is not None:
        table.update((name, c) for c, name in enumerate(names))
    return table


def _resolve(token: str, table: dict[str, int], m: int, line: int) -> int:
    """A token `_token_table` misses as given: padded, empty, written with
    non-canonical digits such as ``01``, out of range, or unknown."""
    token = token.strip()
    if not token:
        raise ParseError("empty candidate token", line)
    if token in table:
        return table[token]
    if _is_number(token):
        index = int(token)
        if index >= m:
            raise ParseError(f"candidate index {index} out of range for m={m}", line)
        return index
    raise ParseError(f"unknown candidate {token!r}", line)


def parse_election(text: str) -> Profile:
    """Parse election text into a ranked or approval profile."""
    lines = _significant_lines(text)
    try:
        number, line = next(lines)
    except StopIteration:
        raise ParseError("missing 'm <count>' header", 1) from None
    parts = line.split()
    if len(parts) != 2 or parts[0] != "m" or not _is_number(parts[1]) or int(parts[1]) < 1:
        raise ParseError("first line must be 'm <count>' with a positive count", number)
    m = int(parts[1])

    names: Optional[tuple[str, ...]] = None
    # fast path for ballot tokens; a miss falls back to _resolve for its error
    table = _token_table(names, m)
    ranked: list[tuple[Ranking, int]] = []
    approval: list[tuple[ApprovalBallot, int]] = []
    for number, line in lines:
        if names is None and not ranked and not approval and line.startswith("candidates"):
            rest = line[len("candidates"):].strip()
            try:
                names = _validate_names((tok.strip() for tok in rest.split(",")), m)
            except InputError as exc:
                raise ParseError(str(exc), number) from exc
            table = _token_table(names, m)
            continue
        count_part, sep, ballot_part = line.partition(":")
        if not sep:
            raise ParseError("expected 'COUNT: ballot'", number)
        count_part = count_part.strip()
        if not _is_number(count_part) or int(count_part) < 1:
            raise ParseError(f"count must be a positive integer, got {count_part!r}", number)
        count = int(count_part)
        ballot_part = ballot_part.strip()
        if ballot_part.startswith("{"):
            if ranked:
                raise ParseError("approval ballot in a ranked file", number)
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
            approval.append((ApprovalBallot(frozenset(members)), count))
        else:
            if approval:
                raise ParseError("ranked ballot in an approval file", number)
            tokens = ballot_part.split(">")
            if len(tokens) != m:
                raise ParseError(f"ranking must list all {m} candidates", number)
            order = tuple(map(table.get, tokens))
            if None in order:
                order = tuple(_resolve(token, table, m, number) for token in tokens)
            # all m indices lie in 0..m-1, so Ranking rejects exactly the repeats
            try:
                ranked.append((Ranking(order), count))
            except InputError:
                raise ParseError("ranking repeats a candidate", number) from None
    if not ranked and not approval:
        raise ParseError("no ballot lines", number)
    try:
        if ranked:
            return RankedProfile(m=m, votes=tuple(ranked), names=names)
        return ApprovalProfile(m=m, votes=tuple(approval), names=names)
    except InputError as exc:
        raise ParseError(str(exc), 1) from exc


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
    mov_upper: Optional[Union[Fraction, float]]
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
    if not isinstance(value, (Fraction, float)):
        return value
    if math.isinf(value):
        return "inf"
    return format(float(value), ".10g" if name in ("epsilon", "delta") else "#.10g")


def write_experiment_csv(rows: Iterable[ExperimentRow]) -> str:
    """Serialize experiment rows to CSV (RFC-4180-style, minimal quoting)."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, quoting=csv.QUOTE_MINIMAL, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow([_cell(name, getattr(row, name)) for name in CSV_COLUMNS])
    return buffer.getvalue()
