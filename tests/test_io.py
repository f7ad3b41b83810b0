"""Election file grammar and experiment CSV output."""

import copy
import operator
import pickle
import random
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from movkit import core, io_formats
from movkit.core import (
    ApprovalBallot,
    ApprovalProfile,
    Bucklin,
    Copeland,
    KApproval,
    Maximin,
    RankedProfile,
    Scoring,
    rule_tally,
    winner_set,
)
from movkit.estimators import VoteSource, estimate_mov
from movkit.generation import ImpartialCulture, generate, ranked_to_approval
from movkit.io_formats import (
    CSV_COLUMNS,
    ExperimentRow,
    ParseError,
    _parse_lines,
    parse_election,
    write_election,
    write_experiment_csv,
)
from movkit.oracle import apply_changes, mov_bounds, mov_brute_force

F = Fraction


def test_parse_ranked_example():
    p = parse_election("m 2\n3: a>b\n1: b>a")
    assert isinstance(p, RankedProfile)
    assert p.n == 4
    assert p.votes[0][1] == 3


def test_parse_approval_example():
    p = parse_election("m 3\n2: {a,b}\n1: {}")
    assert isinstance(p, ApprovalProfile)
    assert p.n == 3
    assert any(b.approved == frozenset() for b, _ in p.votes)


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_election("m 3\n1: a>a>b")
    assert err.value.line == 2
    assert "line 2" in str(err.value)
    assert "ranking repeats a candidate" in str(err.value)

    # the index token 2 and the letter c name the same candidate
    with pytest.raises(ParseError, match="ranking repeats a candidate") as err:
        parse_election("m 3\n2: a>b>c\n1: 2>c>a")
    assert err.value.line == 3

    with pytest.raises(ParseError) as err:
        parse_election("m 2\n1: a>b\n1: {a}")
    assert err.value.line == 3

    with pytest.raises(ParseError) as err:
        parse_election("1: a>b")
    assert err.value.line == 1

    with pytest.raises(ParseError) as err:
        parse_election("m 2\n1: a>b>c")
    assert err.value.line == 2

    with pytest.raises(ParseError) as err:
        parse_election("m 2\n1: {a,zz}")
    assert err.value.line == 2


def test_parse_rejects_empty_body_and_bad_counts():
    with pytest.raises(ParseError):
        parse_election("m 3\n")
    with pytest.raises(ParseError):
        parse_election("m 2\n0: a>b")
    with pytest.raises(ParseError):
        parse_election("m 2\n-1: a>b")


def test_comments_and_blank_lines_are_ignored():
    text = "# header comment\n\nm 2\n# body comment\n2: a>b\n\n1: b>a\n"
    p = parse_election(text)
    assert p.n == 3


def test_candidate_names_resolve_and_roundtrip():
    text = "m 3\ncandidates left,center,right\n2: left>center>right\n1: right>center>left"
    p = parse_election(text)
    assert p.names == ("left", "center", "right")
    assert p.votes[0][0].order == (0, 1, 2)
    out = write_election(p)
    assert "candidates left,center,right" in out
    assert parse_election(out) == p


def test_candidate_header_validation():
    cases = [
        ("m 3\ncandidates a,b\n1: a>b", "expected 3 candidate names, got 2"),
        ("m 2\ncandidates a,a\n1: a>a", "duplicate candidate name 'a'"),
        ("m 2\ncandidates a,b c\n1: a>b", "bad candidate name 'b c'"),
    ]
    for text, message in cases:
        with pytest.raises(ParseError) as info:
            parse_election(text)
        assert info.value.line == 2
        assert str(info.value) == f"line 2: {message}"


@pytest.mark.parametrize("text", ["", "# only a comment\n"], ids=["empty", "comment"])
def test_text_without_a_header_names_line_1(text):
    with pytest.raises(ParseError) as info:
        parse_election(text)
    assert str(info.value) == "line 1: missing 'm <count>' header"


def test_bare_indices_accepted():
    p = parse_election("m 3\n1: 2>0>1")
    assert p.votes[0][0].order == (2, 0, 1)
    out = parse_election("m 3\n1: {0,2}")
    assert out.votes[0][0].approved == frozenset({0, 2})
    with pytest.raises(ParseError):
        parse_election("m 3\n1: 3>0>1")


def test_write_merges_duplicates():
    p = parse_election("m 2\n1: a>b\n1: a>b")
    assert write_election(p).strip().splitlines()[1] == "2: a>b"


def test_write_election_is_canonical_and_idempotent():
    p = RankedProfile(3, [((2, 1, 0), 2), ((0, 1, 2), 1)])
    text = write_election(p)
    assert text == write_election(parse_election(text))
    lines = text.strip().splitlines()
    assert lines[0] == "m 3"
    # ballots come out sorted
    assert lines[1] == "1: a>b>c"
    assert lines[2] == "2: c>b>a"


def test_roundtrip_on_random_profiles():
    rng = random.Random(2024)
    for trial in range(250):
        n = rng.randint(1, 8)
        m = rng.randint(2, 5)
        ranked = generate(ImpartialCulture(n=n, m=m, seed=rng.randrange(2**32)))
        assert parse_election(write_election(ranked)) == ranked
        approval = ranked_to_approval(ranked, "uniform", seed=trial)
        assert parse_election(write_election(approval)) == approval


def test_large_m_uses_index_labels():
    votes = [(tuple(range(30)), 1)]
    p = RankedProfile(30, votes)
    text = write_election(p)
    assert "0>1>2" in text
    assert parse_election(text) == p


def test_default_letters_stop_at_m_26():
    assert parse_election("m 26\n1: {a,z}\n").votes[0][0].approved == frozenset({0, 25})
    with pytest.raises(ParseError, match="line 2: unknown candidate 'a'"):
        parse_election("m 27\n1: {a}\n")


def test_duplicate_lines_merge_and_sum_exactly():
    text = "m 2\n# x\n1000000000000: a>b\n1: b>a\n999999999999: 0 > 1\n1000000000001: a>b\n"
    assert parse_election(text).votes == RankedProfile(
        2, [((0, 1), 3 * 10**12), ((1, 0), 1)]).votes
    approval = parse_election("m 3\n10000000000000: {c,a}\n10000000000000: { 02 ,0}\n")
    assert approval.votes == ((ApprovalBallot(frozenset({0, 2})), 2 * 10**13),)


def test_integer_tokens_resolve_on_first_use():
    # a miss is resolved once and remembered under the token as written
    p = parse_election("m 3\n1: 2>0>1\n1: 2>0>1\n1: 02>0 > 1\n1: 02>0 > 1\n")
    assert p.votes == RankedProfile(3, [((2, 0, 1), 4)]).votes
    # the memo never lets an integer shadow a declared name
    p = parse_election("m 3\ncandidates 2,0,1\n1: 2>0>1\n1: 02>01>00\n")
    assert p.votes == RankedProfile(3, [((0, 1, 2), 1), ((2, 1, 0), 1)]).votes


def test_integer_tokens_need_no_table_of_all_m():
    text = "m 1000000\n1: {}\n"
    tracemalloc.start()
    try:
        profile = parse_election(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert profile.m == 10**6 and profile.n == 1
    assert peak < 2**20


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="this interpreter has no integer string conversion limit")
@pytest.mark.parametrize("text, message", [
    ("m 2\n{n}: a>b\n", "line 2: count must be a positive integer, got '{n}'"),
    ("m {n}\n1: {{}}\n", "line 1: first line must be 'm <count>' with a positive count"),
    ("m 2\n1: a>{n}\n", "line 2: candidate index {n} out of range for m=2"),
], ids=["count", "m", "index"])
def test_numbers_longer_than_int_reads_are_parse_errors(text, message):
    n = "9" * (sys.get_int_max_str_digits() + 700)
    with pytest.raises(ParseError) as info:
        parse_election(text.format(n=n))
    assert str(info.value) == message.format(n=n)


def test_leading_zeros_do_not_count_toward_an_index():
    p = parse_election("m 2\n1: " + "0" * 5000 + "1>a\n")
    assert p.votes[0][0].order == (1, 0)


def row(**overrides):
    base = dict(
        trial=1, seed=42, rule="kapproval:1", n=100, m=3,
        epsilon=F(1, 10), delta=F(1, 20), ell=4427,
        mov_exact=7, mov_lower=None, mov_upper=None,
        estimate=F(15, 2), abs_error=F(1, 2), within_guarantee=True,
    )
    base.update(overrides)
    return ExperimentRow(**base)


def test_csv_header_and_basic_row():
    text = write_experiment_csv([row()])
    lines = text.splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    fields = lines[1].split(",")
    assert fields[0] == "1"
    assert fields[2] == "kapproval:1"
    assert fields[13] == "true"


def test_csv_empty_run_is_header_only():
    assert write_experiment_csv([]).strip() == ",".join(CSV_COLUMNS)


def test_csv_formats_decimals_with_enough_digits():
    text = write_experiment_csv([row(estimate=F(1, 3), abs_error=F(20, 3))])
    fields = text.splitlines()[1].split(",")
    assert fields[11] == "0.3333333333"
    assert fields[12] == "6.666666667"
    # at least 9 significant digits survive
    assert len(fields[12].replace(".", "").lstrip("0")) >= 9


def test_csv_bounds_only_rows():
    text = write_experiment_csv([
        row(mov_exact=None, mov_lower=F(1), mov_upper=F(5, 2), within_guarantee=False)
    ])
    fields = text.splitlines()[1].split(",")
    assert fields[8] == ""
    assert fields[9] == "1.000000000"
    assert fields[10] == "2.500000000"
    assert fields[13] == "false"


def test_csv_excluded_rows_leave_verdict_empty():
    text = write_experiment_csv([row(mov_exact=None, abs_error=None, within_guarantee=None)])
    fields = text.splitlines()[1].split(",")
    assert fields[8] == "" and fields[12] == "" and fields[13] == ""


def test_csv_uses_unix_line_endings():
    text = write_experiment_csv([row(), row(trial=2)])
    assert "\r" not in text
    assert text.count("\n") == 3


@pytest.mark.parametrize("text, line", [
    ("m ²\n1: a>b\n", 1),
    ("m 3\n²: a>b>c\n", 2),
    ("m 3\n1: a>b>²\n", 2),
    ("m 3\n1: {a,²}\n", 2),
], ids=["header", "count", "ranked", "approval"])
def test_unicode_digits_are_parse_errors(text, line):
    # '²'.isdigit() is true, but int() rejects it
    with pytest.raises(ParseError) as err:
        parse_election(text)
    assert err.value.line == line


def test_non_canonical_tokens_fall_back_to_the_resolver():
    p = parse_election("m 3\n1: 01 > c>a\n")
    assert p.votes[0][0].order == (1, 2, 0)
    q = parse_election("m 3\n1: { a , 02}\n")
    assert q.votes[0][0].approved == frozenset({0, 2})
    with pytest.raises(ParseError, match="candidate index 3 out of range"):
        parse_election("m 3\n1: a>b>3\n")
    with pytest.raises(ParseError, match="unknown candidate 'd'"):
        parse_election("m 3\n1: a>b>d\n")


def _written_profiles():
    """Written files of every label form: default letters, declared names
    (one-character ones among them), and index labels at m = 27 and 30,
    ranked and approval."""
    for m, names in [(3, None), (8, None), (26, None), (4, ["west", "n-1", "s.2", "_e"]),
                     (3, ["2", "0", "1"]), (3, ["x", "y", "z"]), (27, None), (30, None)]:
        ranked = generate(ImpartialCulture(n=60, m=m, seed=m))
        ranked = RankedProfile(m, ranked.votes, names)
        yield ranked
        yield ranked_to_approval(ranked, "uniform", seed=m)
        yield ApprovalProfile(m, [((), 2), (tuple(range(m)), 1)], names)


def _commented(text):
    """A written file with a comment line and a blank line put into its
    body, before its last ballot line."""
    lines = text.split("\n")
    lines[-2:-2] = ["# a comment: 1: a>b", ""]
    return "\n".join(lines)


def test_the_break_set_is_that_of_splitlines():
    # the header reader and the body's normalisation test cut lines where
    # str.splitlines does
    breaks = {chr(c) for c in range(0x10000) if len(f"a{chr(c)}b".splitlines()) == 2}
    assert breaks == set("\n" + io_formats._BREAKS)
    assert io_formats._BREAK.findall("a\r\nb\rc\n") == ["\r\n", "\r", "\n"]


def test_written_files_never_fall_back_to_the_line_loop(monkeypatch):
    # nor do written files with other line breaks, comments or blank lines:
    # their bodies are normalised for the whole-text passes; and a ranked
    # file of default letters or one-character names is read from its bytes,
    # never cut into counts and ballots
    def no_loop(text):
        raise AssertionError("the line loop parsed a written file")

    letter_file = False
    fields = io_formats._fields

    def no_fields_for_letters(data):
        if letter_file:
            raise AssertionError("a written letter file was cut into fields")
        return fields(data)

    monkeypatch.setattr(io_formats, "_parse_lines", no_loop)
    monkeypatch.setattr(io_formats, "_fields", no_fields_for_letters)
    letter_files = 0
    for profile in _written_profiles():
        text = write_election(profile)
        labels = io_formats.candidate_labels(profile)
        letter_file = isinstance(profile, RankedProfile) and all(
            len(label) == 1 and not label.isdigit() for label in labels)
        letter_files += letter_file
        for form in (text, text.replace("\n", "\r\n"), _commented(text)):
            assert parse_election(form) == profile
    assert letter_files == 4  # m = 3, 8 and 26 with default letters, and x, y, z


# 40 one-character names: a letter file past the 26 default letters
LETTER_NAMES = tuple("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMN")


def _letter_profile(m):
    """An IC profile of m candidates written with one-character tokens:
    default letters up to m = 26, declared names above."""
    names = LETTER_NAMES[:m] if m > 26 else None
    return RankedProfile(m, generate(ImpartialCulture(n=40, m=m, seed=m)).votes, names)


def _letter_bodies(profile):
    """(label, text): a written letter file, and the same file with its
    first two ballot lines swapped, with a repeat of its first ballot line
    right after it and at the end, and with its first ballot line alone."""
    lines = write_election(profile).splitlines()
    cut = len(lines) - len(profile.counts)
    head, body = lines[:cut], lines[cut:]
    swapped = body[1::-1] + body[2:]
    for label, ballots in [("canonical", body), ("swapped", swapped),
                           ("adjacent repeat", body[:1] + body),
                           ("distant repeat", body + body[:1]), ("single", body[:1])]:
        yield label, "\n".join(head + ballots) + "\n"


@pytest.mark.parametrize("m", [1, 2, 3, 8, 26, 40])
def test_letter_rows_reach_the_store_packed_in_order_or_not(monkeypatch, m):
    # the letter parse hands its rows to the store as one packed buffer,
    # which builds the line loop's profile whether the rows strictly
    # increase or hold a swap or a repeat, merged through the keys
    store, forms = core._store, []

    def recording(m, keys, counts, ranked):
        forms.append(type(keys))
        return store(m, keys, counts, ranked)

    for label, text in _letter_bodies(_letter_profile(m)):
        monkeypatch.setattr(core, "_store", recording)
        parsed = parse_election(text)
        parsed.rows  # the store is built on the first read of the rows
        monkeypatch.setattr(core, "_store", store)
        reference = _parse_lines(text)
        assert forms.pop() is bytes and not forms, label
        assert parsed == reference, label
        assert (repr(parsed), parsed.rows, parsed.counts) == \
            (repr(reference), reference.rows, reference.counts), label


def test_written_letter_files_hand_the_store_increasing_packed_rows(monkeypatch):
    # a written file's rows strictly increase: they take the store's
    # whole-buffer test and no merge, as the generators' keys take the
    # pairwise test and no merge
    store, increasing = core._store, core._increasing

    def packed_increasing_only(m, keys, counts, ranked):
        assert isinstance(keys, bytes)
        rows = keys.split(b"\xff")[:-1]
        assert all(map(operator.lt, rows, rows[1:]))
        return store(m, keys, counts, ranked)

    def passes(packed, m):
        assert increasing(packed, m)
        return True

    profiles = [_letter_profile(m) for m in (1, 2, 3, 8, 26, 40)]
    profiles.append(generate(ImpartialCulture(n=20_000, m=8, seed=1)))
    texts = list(map(write_election, profiles))
    monkeypatch.setattr(core, "_store", packed_increasing_only)
    monkeypatch.setattr(core, "_increasing", passes)
    for profile, text in zip(profiles, texts):
        assert parse_election(text) == profile


def _ranked_rules(m):
    """One rule of each ranked family at m candidates."""
    return [Scoring.borda(m), KApproval(max(1, m // 2)), Bucklin(), Maximin(), Copeland(F(1, 3))]


def _letter_variant(profile, variant, rng):
    """A written letter file of ``profile`` with its ballot lines in
    canonical order, reversed, with one swap, each line repeated (at least
    600 lines in all, so every family counts the parsed rows column-wise at
    m = 2 and 3 too), or with CRLF breaks or a comment and a blank line,
    which only the normalised pass reads."""
    lines = write_election(profile).splitlines()
    cut = len(lines) - len(profile.counts)
    head, body = lines[:cut], lines[cut:]
    if variant == "reversed":
        body.reverse()
    elif variant == "swap":
        i, j = rng.randrange(len(body)), rng.randrange(len(body))
        body[i], body[j] = body[j], body[i]
    elif variant == "repeated":
        body = [line for line in body for _ in range(-(-600 // len(body)))]
    elif variant == "comment":
        body[1:1] = ["# a comment: 1: a>b", ""]
    return ("\r\n" if variant == "crlf" else "\n").join(head + body) + "\n"


LETTER_VARIANTS = ["canonical", "reversed", "swap", "repeated", "crlf", "comment"]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([2, 3, 8, 26, 40]), st.sampled_from(LETTER_VARIANTS),
       st.sampled_from([40, 700]), st.integers(0, 2**32))
@example(2, "repeated", 40, 1)
@example(8, "reversed", 700, 2)
@example(8, "comment", 700, 3)
@example(40, "swap", 700, 4)
def test_tallies_of_a_letter_file_never_build_its_store(m, variant, n, seed):
    """Winner sets, bounds and raw tallies of a parsed letter file read its
    rows as parsed, in file order and possibly repeated, and never build
    the store: each equals the line loop's, with `core._store` refusing to
    run. Its store is built on the first read of the rows or the counts,
    and the profile is then the line loop's in every respect, whatever
    copy or pickle round trip it went through while pending."""
    names = LETTER_NAMES[:m] if m > 26 else None
    profile = RankedProfile(m, generate(ImpartialCulture(n=n, m=m, seed=seed)).votes, names)
    text = _letter_variant(profile, variant, random.Random(seed))
    reference = _parse_lines(text)

    def refused(*args):
        raise AssertionError("a tally built the store")

    with patch.object(core, "_store", refused):
        parsed = parse_election(text)
        assert parsed.n == reference.n
        # its own counts go with the rows as parsed, each row and its
        # separator at a stride of m + 1, merged only by the store
        rows, counts, stride = parsed._ballots()
        assert stride == m + 1 and len(rows) == stride * len(counts)
        merged = Counter()
        for row, count in zip(rows.split(b"\xff"), counts):
            merged[tuple(row)] += count
        assert merged == Counter(dict(zip(reference.entries(), reference.counts)))
        for rule in _ranked_rules(m):
            assert vars(rule_tally(parsed, rule)) == vars(rule_tally(reference, rule))
            assert winner_set(parsed, rule) == winner_set(reference, rule)
            assert mov_bounds(parsed, rule) == mov_bounds(reference, rule)
        # the text of an attribute that no class defines
        with pytest.raises(AttributeError) as pending:
            getattr(parsed, "nope")
        assert str(pending.value) == "'RankedProfile' object has no attribute 'nope'"
        assert not hasattr(parsed, "nope") and "rows" not in vars(parsed)
        copied, pickled = copy.copy(parsed), pickle.loads(pickle.dumps(parsed))
    drawn = list(range(len(reference.counts)))
    for built in (parsed, copied, pickled):
        assert (built.rows, built.counts, built.n, built.votes) == \
            (reference.rows, reference.counts, reference.n, reference.votes)
        # once stored, a sample's counts and its own go with the store's rows
        assert built._ballots(drawn) == (reference.rows, drawn, m)
        assert built._ballots() == (reference.rows, reference.counts, m)
        assert built == reference and hash(built) == hash(reference)
        assert repr(built) == repr(reference)


@pytest.mark.parametrize("variant", ["canonical", "reversed"])
@pytest.mark.parametrize("ell", [None, 37])
def test_estimates_on_a_parsed_letter_file_are_those_of_its_profile(variant, ell):
    # the seeded draw walks the store in canonical order, whatever order
    # the file's lines came in
    profile = generate(ImpartialCulture(n=3000, m=6, seed=4))
    parsed = parse_election(_letter_variant(profile, variant, None))
    for rule in _ranked_rules(6):
        estimate = estimate_mov(VoteSource(parsed), rule, F(1, 5), F(1, 10), 11, ell)
        expected = estimate_mov(VoteSource(profile), rule, F(1, 5), F(1, 10), 11, ell)
        assert repr(estimate) == repr(expected)
        assert (repr((estimate.estimated_scores, estimate.pair_margins))
                == repr((expected.estimated_scores, expected.pair_margins)))


@pytest.mark.parametrize("variant", ["canonical", "reversed"])
def test_the_exact_search_on_a_parsed_letter_file_is_that_of_its_profile(variant):
    # the search tallies the file's own counts over its rows as parsed, and
    # then walks the store in canonical order for its witness
    profile = generate(ImpartialCulture(n=12, m=3, seed=5))
    parsed = parse_election(_letter_variant(profile, variant, None))
    for rule in _ranked_rules(3):
        result, expected = mov_brute_force(parsed, rule), mov_brute_force(profile, rule)
        assert (result.value, result.witness, result.evaluations) == \
            (expected.value, expected.witness, expected.evaluations)


@pytest.mark.parametrize("variant", ["canonical", "reversed"])
def test_the_counts_of_a_parsed_letter_file_read_before_its_rows_are_its_profiles(variant):
    # a draw and `apply_changes` read a pending profile's counts first, which
    # builds its store through the counts' own view
    profile = generate(ImpartialCulture(n=300, m=4, seed=6))
    text = _letter_variant(profile, variant, None)
    changes = [(0, (3, 2, 1, 0)), (299, (1, 0, 2, 3))]
    for read in (lambda p: VoteSource(p).draw_counts(50, 3), lambda p: apply_changes(p, changes)):
        parsed = parse_election(text)
        assert "_pending" in vars(parsed)
        assert read(parsed) == read(profile)
        assert (parsed.rows, parsed.counts) == (profile.rows, profile.counts)


def test_padded_counts_are_read_in_the_whole_text_passes(monkeypatch):
    # a count padded with blanks that str.strip removes, but int() on bytes
    # does not, is read by the line loop's rule in the passes too
    def no_loop(text):
        raise AssertionError("the line loop parsed a file of padded counts")

    monkeypatch.setattr(io_formats, "_parse_lines", no_loop)
    pads = ["\xa0", "\x1f", "\u3000"]
    for profile in _written_profiles():
        lines = write_election(profile).split("\n")
        for i, line in enumerate(lines):
            count, sep, ballot = line.partition(":")
            if sep:
                lines[i] = f"{pads[i % 3]}{count}{pads[(i + 1) % 3]}:{ballot}"
        assert parse_election("\n".join(lines)) == profile


def test_multi_character_tokens_are_read_one_ballot_at_a_time():
    # index labels at m = 30 are split one ballot at a time; a flat list of
    # every token in the file would peak far above six times the text
    text = write_election(generate(ImpartialCulture(n=20_000, m=30, seed=1)))
    tracemalloc.start()
    try:
        profile = parse_election(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert profile.m == 30 and profile.n == 20_000
    assert peak <= 6 * len(text)
