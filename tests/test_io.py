"""Election file grammar and experiment CSV output."""

import random
import sys
import tracemalloc
from fractions import Fraction

import pytest

from movkit.core import ApprovalBallot, ApprovalProfile, RankedProfile, ranked_profile
from movkit.generation import ImpartialCulture, generate, ranked_to_approval
from movkit.io_formats import (
    CSV_COLUMNS,
    ExperimentRow,
    ParseError,
    parse_election,
    write_election,
    write_experiment_csv,
)

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
    p = ranked_profile(3, [((2, 1, 0), 2), ((0, 1, 2), 1)])
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
    p = ranked_profile(30, votes)
    text = write_election(p)
    assert "0>1>2" in text
    assert parse_election(text) == p


def test_default_letters_stop_at_m_26():
    assert parse_election("m 26\n1: {a,z}\n").votes[0][0].approved == frozenset({0, 25})
    with pytest.raises(ParseError, match="line 2: unknown candidate 'a'"):
        parse_election("m 27\n1: {a}\n")


def test_duplicate_lines_merge_and_sum_exactly():
    text = "m 2\n# x\n1000000000000: a>b\n1: b>a\n999999999999: 0 > 1\n1000000000001: a>b\n"
    assert parse_election(text).votes == ranked_profile(
        2, [((0, 1), 3 * 10**12), ((1, 0), 1)]).votes
    approval = parse_election("m 3\n10000000000000: {c,a}\n10000000000000: { 02 ,0}\n")
    assert approval.votes == ((ApprovalBallot(frozenset({0, 2})), 2 * 10**13),)


def test_integer_tokens_resolve_on_first_use():
    # a miss is resolved once and remembered under the token as written
    p = parse_election("m 3\n1: 2>0>1\n1: 2>0>1\n1: 02>0 > 1\n1: 02>0 > 1\n")
    assert p.votes == ranked_profile(3, [((2, 0, 1), 4)]).votes
    # the memo never lets an integer shadow a declared name
    p = parse_election("m 3\ncandidates 2,0,1\n1: 2>0>1\n1: 02>01>00\n")
    assert p.votes == ranked_profile(3, [((0, 1, 2), 1), ((2, 1, 0), 1)]).votes


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
