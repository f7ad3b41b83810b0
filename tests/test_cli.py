"""Command-line interface behaviour and output stability."""

import dataclasses
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import click
import pytest
from click.testing import CliRunner

from movkit import cli, experiments
from movkit.cli import main
from movkit.generation import ImpartialCulture, generate
from movkit.io_formats import write_election
from test_pinned_output import APPROVAL, RANKED

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, args, input_text=None, expect_exit=0):
    result = runner.invoke(main, args, input=input_text, catch_exceptions=False)
    assert result.exit_code == expect_exit, result.output
    return result


def write_file(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_winner_plurality(runner, tmp_path):
    path = write_file(tmp_path, "e.txt", "m 2\n3: a>b\n1: b>a\n")
    result = invoke(runner, ["winner", "-i", path, "-r", "plurality"])
    assert result.output == "winners: a; s(a)=3 s(b)=1\n"


def test_winner_copeland_named_example(runner, tmp_path):
    path = write_file(tmp_path, "e.txt", "m 3\n2: a>b>c\n1: b>c>a\n")
    result = invoke(runner, ["winner", "-i", path, "-r", "copeland:0.5"])
    assert result.output.startswith("winners: a;")


@pytest.mark.parametrize("rule", ["maximin", "copeland"])
def test_winner_pairwise_without_rivals_scores_zero(runner, tmp_path, rule):
    # one candidate has no pairwise margin: its score is 0, not the tally's
    # diagonal
    path = write_file(tmp_path, "e.txt", "m 1\n3: a\n")
    result = invoke(runner, ["winner", "-i", path, "-r", rule])
    assert result.output == "winners: a; s(a)=0\n"


def test_winner_multiwinner_tie(runner, tmp_path):
    path = write_file(tmp_path, "e.txt", "m 2\n1: a>b\n1: b>a\n")
    result = invoke(runner, ["winner", "-i", path, "-r", "plurality"])
    assert result.output.startswith("winners: a, b;")


def test_winner_k_out_of_range_exits_2(runner, tmp_path):
    path = write_file(tmp_path, "e.txt", "m 2\n1: a>b\n")
    result = runner.invoke(main, ["winner", "-i", path, "-r", "kapproval:2"])
    assert result.exit_code == 2


def test_parse_error_exits_2(runner, tmp_path):
    path = write_file(tmp_path, "e.txt", "m 2\n1: a>a\n")
    result = runner.invoke(main, ["winner", "-i", path, "-r", "plurality"])
    assert result.exit_code == 2
    assert "line 2" in result.output


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="this interpreter has no integer string conversion limit")
def test_count_longer_than_int_reads_exits_2(runner, tmp_path):
    count = "9" * (sys.get_int_max_str_digits() + 700)
    path = write_file(tmp_path, "e.txt", f"m 2\n{count}: a>b\n")
    result = runner.invoke(main, ["winner", "-i", path, "-r", "plurality"])
    assert result.exit_code == 2, result.output
    assert f"Error: line 2: count must be a positive integer, got '{count}'" in result.output


def test_mov_exact_with_witness(runner, tmp_path):
    path = write_file(tmp_path, "e.txt", "m 2\n2: a>b\n1: b>a\n")
    result = invoke(runner, ["mov", "-i", path, "-r", "plurality"])
    lines = result.output.splitlines()
    assert lines[0] == "MoV = 1"
    assert lines[1] == "  change vote 0: a>b -> b>a"


def test_mov_exact_budget_exceeded(runner, tmp_path):
    path = write_file(tmp_path, "e.txt", "m 2\n4: a>b\n")
    result = invoke(runner, ["mov", "-i", path, "-r", "plurality", "--budget", "1"])
    assert result.output == "MoV exceeds budget 1\n"


def test_mov_work_limit_exits_3(runner, tmp_path):
    path = write_file(tmp_path, "e.txt", "m 3\n6: a>b>c\n")
    result = runner.invoke(main, ["mov", "-i", path, "-r", "plurality", "--work-limit", "3"])
    assert result.exit_code == 3


def test_mov_work_limit_exits_3_on_large_profile(runner, tmp_path):
    profile = generate(ImpartialCulture(n=2000, m=7, seed=1))
    path = write_file(tmp_path, "ic.txt", write_election(profile))
    result = runner.invoke(main, ["mov", "-i", path, "-r", "borda", "--work-limit", "1000"])
    assert result.exit_code == 3


def test_mov_bounds_maximin_integer_tightening(runner, tmp_path):
    path = write_file(tmp_path, "e.txt", "m 2\n2: a>b\n1: b>a\n")
    result = invoke(runner, ["mov", "-i", path, "-r", "maximin", "--mode", "bounds"])
    lines = result.output.splitlines()
    assert lines[0] == "MoV in [0.5, 1] (pairwise score gap)"
    assert lines[1] == "integer range [1, 1]"


def test_mov_bounds_full_tie_upper_is_n(runner, tmp_path):
    # no level separates a full Bucklin tie, so the upper end is n
    path = write_file(tmp_path, "e.txt", "m 2\n1: a>b\n1: b>a\n")
    result = invoke(runner, ["mov", "-i", path, "-r", "bucklin", "--mode", "bounds"])
    assert result.output == "MoV in [1, 2] (majority level analysis)\ninteger range [1, 2]\n"


# a 3-cycle ties every ranked rule family; {a} and {b}, 2 votes each, tie approval
CYCLE = "m 3\n1: a>b>c\n1: b>c>a\n1: c>a>b\n"
APPROVAL_TIE = "m 3\n2: {a}\n2: {b}\n1: {c}\n"

ELECTIONS = {"ranked": RANKED, "approval": APPROVAL, "cycle": CYCLE, "approval-tie": APPROVAL_TIE}

# `mov --mode bounds` on the elections of test_pinned_output.py and on one
# tie per family, with each bound's source text and integer range
BOUNDS_PINNED = {
    ('scoring:3/2,1/3,0,-1/2', 'ranked'): 'MoV in [8, 17] (positional score gap)\ninteger range [8, 17]\n',
    ('borda', 'ranked'): 'MoV in [5.83333, 12.6667] (positional score gap)\ninteger range [6, 12]\n',
    ('kapproval:2', 'ranked'): 'MoV in [2.5, 3] (top-k score gap)\ninteger range [3, 3]\n',
    ('approval', 'approval'): 'MoV in [1.5, 2] (approval score gap)\ninteger range [2, 2]\n',
    ('bucklin', 'ranked'): 'MoV in [8, 16] (majority level analysis)\ninteger range [8, 16]\n',
    ('maximin', 'ranked'): 'MoV in [12.5, 25] (pairwise score gap)\ninteger range [13, 25]\n',
    ('copeland:0', 'ranked'): 'MoV in [10, 44] (relative margin)\ninteger range [10, 44]\n',
    ('copeland:1/2', 'ranked'): 'MoV in [11, 44] (relative margin)\ninteger range [11, 44]\n',
    ('copeland:1', 'ranked'): 'MoV in [11, 44] (relative margin)\ninteger range [11, 44]\n',
    ('borda', 'cycle'): 'MoV in [0, 1] (positional score gap)\ninteger range [0, 1]\n',
    ('plurality', 'cycle'): 'MoV in [1, 1] (tied winners)\ninteger range [1, 1]\n',
    ('bucklin', 'cycle'): 'MoV in [1, 3] (majority level analysis)\ninteger range [1, 3]\n',
    ('maximin', 'cycle'): 'MoV in [1, 1] (tied winners)\ninteger range [1, 1]\n',
    ('copeland:1/2', 'cycle'): 'MoV in [1, 3] (tied winners)\ninteger range [1, 3]\n',
    ('approval', 'approval-tie'): 'MoV in [1, 1] (tied winners)\ninteger range [1, 1]\n',
}


@pytest.mark.parametrize("rule, election", BOUNDS_PINNED)
def test_mov_bounds_text_for_every_rule_family(runner, tmp_path, rule, election):
    path = write_file(tmp_path, "e.txt", ELECTIONS[election])
    result = invoke(runner, ["mov", "-i", path, "-r", rule, "--mode", "bounds"])
    assert result.output == BOUNDS_PINNED[rule, election]


def test_mov_estimate_reports_guarantee(runner, tmp_path):
    path = write_file(tmp_path, "e.txt", "m 2\n3: a>b\n1: b>a\n")
    args = ["mov", "-i", path, "-r", "plurality", "--mode", "estimate",
            "--epsilon", "1/10", "--delta", "1/100", "--seed", "5"]
    result = invoke(runner, args)
    assert "samples = 6358, seed = 5" in result.output
    assert "guarantee: P[ |estimate - MoV| <= 0*MoV + 0.1*n ] >= 0.99" in result.output


def test_mov_estimate_is_deterministic(runner, tmp_path):
    path = write_file(tmp_path, "e.txt", "m 2\n3: a>b\n1: b>a\n")
    args = ["mov", "-i", path, "-r", "borda", "--mode", "estimate", "--seed", "11"]
    first = invoke(runner, args)
    second = invoke(runner, args)
    assert first.output == second.output


def test_samplesize_examples(runner):
    result = invoke(runner, ["samplesize", "--rule", "kapproval", "--k", "1",
                             "--epsilon", "0.1", "--delta", "0.01"])
    assert result.output == "6358\n"
    result = invoke(runner, ["samplesize", "--rule", "scoring", "--m", "5",
                             "--epsilon", "0.1", "--delta", "0.01"])
    assert result.output == "8290\n"
    result = invoke(runner, ["samplesize", "--rule", "copeland", "--m", "5",
                             "--epsilon", "0.1", "--delta", "0.01"])
    assert result.output == "66315\n"


def test_samplesize_requires_m_for_non_kapproval(runner):
    result = runner.invoke(main, ["samplesize", "--rule", "scoring",
                                  "--epsilon", "0.1", "--delta", "0.01"])
    assert result.exit_code == 2


def test_lowerbound_value(runner):
    result = invoke(runner, ["lowerbound", "--epsilon", "0.1", "--delta", "0.01"])
    assert result.output == "2.648232504\n"
    result = invoke(runner, ["lowerbound", "--c", "1/2", "--epsilon", "0.1", "--delta", "0.01"])
    assert result.output == "0.662058126\n"


def test_generate_plantedgap(runner):
    result = invoke(runner, ["generate", "--model", "plantedgap",
                             "--n", "10", "--m", "2", "--gap", "4"])
    assert result.output == "m 2\n7: a>b\n3: b>a\n"


def test_generate_twocandidate_reports_fraction(runner):
    result = invoke(runner, ["generate", "--model", "twocandidate", "--n", "7", "--p", "4/7"])
    lines = result.output.splitlines()
    assert lines[0] == "# realized a-first fraction: 4/7"
    assert lines[1] == "m 2"


def test_generate_ic_seeded_and_deterministic(runner):
    args = ["generate", "--model", "ic", "--n", "30", "--m", "3", "--seed", "2"]
    first = invoke(runner, args)
    second = invoke(runner, args)
    assert first.output == second.output
    shifted = invoke(runner, ["generate", "--model", "ic", "--n", "30", "--m", "3", "--seed", "3"])
    assert shifted.output != first.output


def test_generate_approval_conversion(runner):
    result = invoke(runner, ["generate", "--model", "ic", "--n", "5", "--m", "3",
                             "--seed", "2", "--approval", "2"])
    for line in result.output.splitlines()[1:]:
        assert line.split(": ")[1].startswith("{")


def test_generate_missing_parameter_exits_2(runner):
    result = runner.invoke(main, ["generate", "--model", "plantedgap", "--n", "10"])
    assert result.exit_code == 2


@pytest.mark.parametrize("args, message", [
    (["generate", "--model", "ic", "--n", "5"], "ic needs --m"),
    (["generate", "--model", "twocandidate", "--n", "5"], "twocandidate needs --p"),
    (["generate", "--model", "plantedgap", "--n", "10"], "plantedgap needs --m and --gap"),
    # only the options still missing are named
    (["generate", "--model", "plantedgap", "--n", "10", "--m", "3"], "plantedgap needs --gap"),
    # an option the model does not read is refused, the first one given
    # named, also when it is given at its default
    (["generate", "--model", "ic", "--n", "3", "--m", "2", "--p", "1/2", "--gap", "9",
      "--winner", "5"], "ic does not take --p"),
    (["generate", "--model", "twocandidate", "--n", "3", "--m", "5", "--p", "1/2"],
     "twocandidate does not take --m"),
    (["generate", "--model", "ic", "--n", "3", "--m", "2", "--winner", "0"],
     "ic does not take --winner"),
    (["experiment", "-r", "plurality", "-g", "ic:n=5,m=3", "--trials", "1", "--oracle", "foo"],
     "unknown oracle policy 'foo' (use brute[:BUDGET], closed, bounds)"),
], ids=["ic-m", "twocandidate-p", "plantedgap-m-gap", "plantedgap-gap", "ic-p-gap-winner",
        "twocandidate-m", "ic-winner-default", "oracle-policy"])
def test_generator_and_oracle_faults_exit_2(runner, args, message):
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert result.output.endswith(f"Error: {message}\n"), result.output


def test_generate_to_file(runner, tmp_path):
    out = tmp_path / "gen.txt"
    invoke(runner, ["generate", "--model", "plantedgap", "--n", "10", "--m", "2",
                    "--gap", "4", "-o", str(out)])
    assert out.read_text() == "m 2\n7: a>b\n3: b>a\n"


def test_experiment_stdout_csv(runner):
    args = ["experiment", "-r", "plurality", "-g", "ic:n=20,m=3",
            "--trials", "2", "--seed", "5", "--oracle", "brute"]
    result = invoke(runner, args)
    lines = result.output.splitlines()
    assert lines[0].startswith("trial,seed,rule,")
    assert len(lines) == 4  # header + 2 rows + summary (stderr merged by runner)
    assert "PASS" in lines[-1] or "FAIL" in lines[-1]


def test_experiment_csv_to_file(runner, tmp_path):
    out = tmp_path / "rows.csv"
    args = ["experiment", "-r", "plurality", "-g", "plantedgap:n=40,m=2,gap=10",
            "--trials", "2", "--seed", "1", "--oracle", "closed", "-o", str(out)]
    result = invoke(runner, args)
    assert "trials=2" in result.output
    body = out.read_text()
    assert body.startswith("trial,seed,rule,")
    assert len(body.splitlines()) == 3


def test_experiment_fail_verdict_exits_1(runner, monkeypatch):
    # an estimate of n on planted-gap profiles with margin 3 breaks the
    # guarantee in every trial
    real = experiments.estimate_mov

    def inflated(source, *args, **kwargs):
        est = real(source, *args, **kwargs)
        return dataclasses.replace(est, m_bar=Fraction(source.profile.n))

    monkeypatch.setattr(experiments, "estimate_mov", inflated)
    args = ["experiment", "-r", "plurality", "-g", "plantedgap:n=40,m=2,gap=6",
            "--trials", "3", "--seed", "1"]
    result = invoke(runner, args, expect_exit=1)
    assert result.stderr == (
        "trials=3 usable=3 excluded=0 violations=3 rate=1.000000 threshold=0.90 FAIL\n"
    )
    header, *rows = result.stdout.splitlines()
    column = header.split(",").index("within_guarantee")
    assert [row.split(",")[column] for row in rows] == ["false"] * 3


def test_experiment_rejects_both_generator_and_input(runner, tmp_path):
    path = write_file(tmp_path, "e.txt", "m 2\n1: a>b\n")
    result = runner.invoke(main, ["experiment", "-r", "plurality", "-g", "ic:n=5,m=2",
                                  "-i", path, "--trials", "1"])
    assert result.exit_code == 2


def test_experiment_is_deterministic(runner):
    args = ["experiment", "-r", "maximin", "-g", "ic:n=12,m=3",
            "--trials", "2", "--seed", "9", "--oracle", "brute"]
    first = invoke(runner, args)
    second = invoke(runner, args)
    assert first.output == second.output


def test_distinguish_summary_and_determinism(runner):
    args = ["distinguish", "--trials", "3", "--seed", "1"]
    first = invoke(runner, args)
    assert "samples = 17707" in first.output
    assert "planted a-first fraction = 4/5" in first.output
    assert "error rate" in first.output
    second = invoke(runner, args)
    assert first.output == second.output


def test_distinguish_with_one_sample_is_noise(runner):
    result = invoke(runner, ["distinguish", "--trials", "40", "--seed", "3",
                             "--samples", "1", "--n", "10"])
    # a single draw carries almost no signal; error rate should be far from 0
    rate_line = [l for l in result.output.splitlines() if l.startswith("error rate")][0]
    rate = float(rate_line.split("=")[1].split("(")[0])
    assert rate > 0.2


def test_rational_option_rejects_garbage(runner):
    result = runner.invoke(main, ["lowerbound", "--epsilon", "abc", "--delta", "0.01"])
    assert result.exit_code == 2


@pytest.mark.parametrize("text", ["m ²\n1: a>b\n", "m 3\n²: a>b>c\n", "m 3\n1: a>b>²\n"],
                         ids=["header", "count", "ranked"])
def test_unicode_digit_parse_error_exits_2(runner, tmp_path, text):
    path = write_file(tmp_path, "e.txt", text)
    result = runner.invoke(main, ["winner", "-i", path, "-r", "plurality"])
    assert result.exit_code == 2
    assert "line " in result.output


@pytest.mark.parametrize("args, message", [
    (["generate", "--model", "ic", "--n", "5", "--m", "3", "--approval", "abc"],
     """approval depth must be an integer or "uniform", got 'abc'"""),
    (["experiment", "-r", "approval", "-g", "ic:n=5,m=3,approval=x", "--trials", "1"],
     """approval depth must be an integer or "uniform", got 'x'"""),
    (["experiment", "-r", "plurality", "-g", "plantedgap:n=10,m=3,gap=2,winner=z",
      "--trials", "1"],
     "plantedgap parameter winner must be an integer"),
    (["experiment", "-r", "plurality", "-g", "ic:n=5,m=2", "--trials", "1",
      "--oracle", "brute:x"],
     "oracle budget must be an integer, got 'x'"),
], ids=["generate-approval", "generator-approval", "generator-winner", "oracle-budget"])
def test_non_integer_generator_and_oracle_parameters_exit_2(runner, args, message):
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert message in result.output


# a rule parameter that converts but lies out of range is named as such, not
# as a parameter that does not convert
@pytest.mark.parametrize("rule, message", [
    ("kapproval:0", "k must be a positive integer, got 0"),
    ("copeland:2", "copeland alpha must lie in [0, 1], got 2"),
    ("kapproval:x", "kapproval needs an integer k, got 'kapproval:x'"),
    ("copeland:1/0", "copeland needs a rational alpha, got 'copeland:1/0'"),
], ids=["kapproval-range", "copeland-range", "kapproval-type", "copeland-type"])
def test_rule_parameter_faults_exit_2(runner, tmp_path, rule, message):
    path = write_file(tmp_path, "e.txt", "m 3\n1: a>b>c\n")
    result = runner.invoke(main, ["winner", "-i", path, "-r", rule])
    assert result.exit_code == 2, result.output
    assert result.output.endswith(f"Error: {message}\n"), result.output


def test_exact_witness_does_not_expand_the_votes(runner, tmp_path):
    # printing the witness needs only the original of each changed vote
    path = write_file(tmp_path, "e.txt", "m 2\n2000000: a>b\n2000000: b>a\n")
    tracemalloc.start()
    try:
        result = invoke(runner, ["mov", "-i", path, "-r", "plurality", "--mode", "exact"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.output == "MoV = 1\n  change vote 0: a>b -> b>a\n"
    assert peak < 5 * 2**20


# counts beyond the float range: every rational is printed in its usual
# style, computed exactly
HUGE = "m 3\n1" + "0" * 400 + ": a>b>c\n1: b>c>a\n"


def test_huge_bounds_print_without_a_float(runner, tmp_path):
    path = write_file(tmp_path, "e.txt", HUGE)
    result = invoke(runner, ["mov", "--mode", "bounds", "-i", path, "-r", "maximin"])
    assert result.output == (
        f"MoV in [5e+399, {'9' * 400}] (pairwise score gap)\n"
        f"integer range [5{'0' * 399}, {'9' * 400}]\n"
    )


def test_huge_rational_scores_print_without_a_float(runner, tmp_path):
    path = write_file(tmp_path, "e.txt", HUGE)
    result = invoke(runner, ["winner", "-i", path, "-r", "scoring:1/3,1/7,0"])
    assert result.output == "winners: a; s(a)=3.33333e+399 s(b)=1.42857e+399 s(c)=0.142857\n"


def test_huge_estimate_prints_without_a_float(runner, tmp_path):
    path = write_file(tmp_path, "e.txt", HUGE)
    result = invoke(runner, ["mov", "--mode", "estimate", "-i", path, "-r", "borda"])
    assert result.output.startswith(f"estimate = 3.333333333e+399 (exact 1{'0' * 399}1/3)\n")


def test_huge_experiment_row_prints_without_a_float(runner, tmp_path):
    path = write_file(tmp_path, "e.txt", HUGE)
    result = invoke(runner, ["experiment", "-i", path, "-r", "borda", "--trials", "1",
                             "--oracle", "bounds"])
    row = result.stdout.splitlines()[1].split(",")
    assert row[-5:] == ["2.500000000e+399", "5.000000000e+399", "3.333333333e+399",
                        "0.000000000", "true"]
    assert result.stderr.endswith(" PASS\n")


# an integer beyond the float range where a float would be read is one
# error line and exit 2, not an OverflowError traceback (exit 1); the text
# never formats the integer, which str() refuses above 4,300 digits
N = "1" + "0" * 400
SPLIT = "cannot split 2**1014 or more votes at random"


@pytest.mark.parametrize("args, message", [
    (["experiment", "--trials", "1", "--oracle", "bounds", "-r", "approval", "-i", "FILE"], SPLIT),
    (["generate", "--model", "ic", "--n", N, "--m", "3"], SPLIT),
    (["experiment", "-r", "borda", "-g", f"ic:n={N},m=3", "--trials", "1", "--oracle", "bounds"],
     SPLIT),
    (["mov", "--mode", "estimate", "-r", "borda", "-i", "FILE", "--samples", N],
     "sample count is too large for the sample-size closed form"),
    (["samplesize", "-r", "scoring", "--m", N, "--epsilon", "0.1", "--delta", "0.05"],
     "m is too large for the sample-size closed form"),
    (["samplesize", "-r", "kapproval", "--k", N, "--epsilon", "0.1", "--delta", "0.05"],
     "k is too large for the sample-size closed form"),
], ids=["experiment-approval-file", "generate-ic", "experiment-ic", "estimate-samples",
        "samplesize-m", "samplesize-k"])
def test_an_integer_beyond_the_float_range_is_an_input_error(runner, tmp_path, args, message):
    path = write_file(tmp_path, "e.txt", HUGE)
    result = invoke(runner, [path if arg == "FILE" else arg for arg in args], expect_exit=2)
    assert result.output.endswith(f"\nError: {message}\n"), result.output
    assert "Traceback" not in result.output


# `cli._Group` binds a plain line (a command, then pairs of an exact option
# string and its value) straight into the command's context and hands every
# other argv to Click: with its `make_context` and `invoke` or Click's, every
# argv must give the same exit code, stdout and stderr. Paths are relative
# to the test's temporary directory, so that `-i=F` names the missing file
# "=F".
F = "e.txt"
TEXT = "m 3\n2: a>b>c\n1: c>b>a\n"
READ_SHAPES = [
    ["-i", F, "-r", "borda"], [f"-i{F}", "-rborda"], [f"-i={F}", "-r", "borda"],
    ["--input", F, "-r", "borda"], [f"--input={F}", "--rule=borda"],
    ["-r", "borda", "-i", F], ["-i", F, "-r", "plurality", "-r", "borda"],
    ["-i", F, "-r", "borda", "-x"], ["-I", F, "-r", "borda"], ["--inpt", F, "-r", "borda"],
    ["-r", "borda", "-i"], ["-i", "-r", "borda"], ["-ir", "borda"], ["--", "-i", F],
    ["--help"], ["-h"],
]
GENERATOR = "ic:n=6,m=3"
PARSE_CASES = (
    [["winner", *shape] for shape in READ_SHAPES]
    + [["mov", "--mode", "bounds", *shape] for shape in READ_SHAPES]
    + [["experiment", "--trials", "1", "--oracle", "bounds", *shape] for shape in [
        ["-r", "borda", "-g", GENERATOR], ["-rborda", f"-g{GENERATOR}"],
        [f"-g={GENERATOR}", "-r", "borda"], ["--rule", "borda", f"--generator={GENERATOR}"],
        ["-o", "rows.csv", "-g", GENERATOR, "-r", "borda"], ["-i", F, "-r", "borda", "-o", "rows.csv"],
        ["-r", "plurality", "-r", "borda", "-i", F], ["-x", "-r", "borda", "-i", F],
        ["-G", GENERATOR, "-r", "borda"], ["--genrator", GENERATOR, "-r", "borda"],
        ["-r", "borda", "-g"], ["-ig", "-r", "borda"], ["--help"], ["-h"],
    ]]
    + [["generate", "--model", "plantedgap", "--n", "10", "--m", "2", "--gap", "4", *shape]
       for shape in [
        ["-o", "out.txt"], ["-oout.txt"], ["-o=out.txt"], ["--output", "out.txt"],
        ["--output=out.txt"], ["-o", "a.txt", "-o", "out.txt"], ["-o"], ["-O", "out.txt"],
        ["-x"], ["--help"], ["-h"],
    ]]
    + [["samplesize", "--m", "3", "--epsilon", "0.1", "--delta", "0.05", *shape] for shape in [
        ["-r", "scoring"], ["-rscoring"], ["-r=scoring"], ["--rule", "scoring"], ["--rule=scoring"],
        ["-r", "maximin", "-r", "scoring"], ["-r"], ["-R", "scoring"], ["--rul", "scoring"],
        ["-x", "-r", "scoring"], ["--help"], ["-h"],
    ]]
)
# a plain line of each command, and lines the binder takes or must hand back
PLAIN_LINES = [
    ["winner", "-i", F, "-r", "borda"],
    ["mov", "--mode", "exact", "-i", F, "-r", "copeland"],
    ["mov", "--mode", "bounds", "--input", F, "--rule", "maximin"],
    ["mov", "--mode", "estimate", "-i", F, "-r", "borda", "--seed", "3", "--samples", "50"],
    ["samplesize", "-r", "kapproval", "--k", "2", "--epsilon", "0.1", "--delta", "0.05"],
    ["lowerbound", "--c", "1/3", "--epsilon", "0.1", "--delta", "0.05"],
    ["generate", "--model", "ic", "--n", "5", "--m", "3", "--seed", "2"],
    ["generate", "--model", "twocandidate", "--n", "7", "--p", "4/7", "--approval", "uniform"],
    ["experiment", "-r", "borda", "-g", GENERATOR, "--trials", "2", "--oracle", "bounds"],
    ["experiment", "-r", "borda", "-i", F, "--trials", "1", "--oracle", "bounds", "-o", "rows.csv"],
    ["distinguish", "--trials", "3", "--n", "20", "--seed", "1"],
]
BINDER_CASES = PLAIN_LINES + [
    ["winner", "-i", "-", "-r", "plurality"],
    ["mov", "--mode", "estimate", "-i", F, "-r", "borda", "--seed", "-5"],
    ["winner", "-i", "missing.txt", "-r", "borda"],
    ["mov", "--mode", "fast", "-i", F, "-r", "borda"],
    ["mov", "--mode", "estimate", "-i", F, "-r", "borda", "--epsilon", "x"],
    ["mov", "--mode", "estimate", "-i", F, "-r", "borda", "--epsilon", "2"],
    ["mov", "--mode", "exact", "-i", F, "-r", "borda", "--work-limit", "1"],
    ["mov", "--mode", "exact", "-i", F, "-r", "borda", "--budget", "many"],
    ["generate", "--model", "ic", "--n", "5", "--m", "3", "--p", "1/2", "--gap", "2"],
    ["generate", "--model", "ic", "--n", "5", "--m", "3", "--gap", "2", "--p", "1/2"],
    ["generate", "--model", "plantedgap", "--n", "10", "--m", "2"],
    ["samplesize", "--epsilon", "0.1", "--delta", "0.05"],
    ["samplesize", "-r", "bucklin", "--epsilon", "0.1", "--delta", "0.05"],
    ["lowerbound", "--epsilon", "0.1", "--delta", "0.05", "--c", "1"],
    ["distinguish", "--trials", "0"],
    ["winner", "-r", "borda"], ["winner", "-i", F, "-r"], ["winner", "-i", F, "--input", F, "-r", "borda"],
    ["winner", "-i", F, "-r", "borda", "--help"], ["winner", "-i", F, "--", "-r", "borda"],
    ["winner", "-i", "--", "-r", "borda"], ["mov", "--mode", "bounds", "-i", F, "-r", "--help"],
    ["distinguish"], ["distinguish", "--help"], ["lowerbound"], ["nosuch", "-i", F], ["--help"], [],
    ["generate", "-o", "out.txt", "--model", "ic", "--n", "x", "--m", "3"],
    ["experiment", "-r", "borda", "-i", F, "--trials", "x", "--oracle", "bounds"],
]

def run_in(tmp_path, monkeypatch, args, *, click_path=False):
    """(exit code, stdout, stderr) of `movkit ARGS` in TMP_PATH, through the
    binder or, with CLICK_PATH, through Click's own group."""
    monkeypatch.chdir(tmp_path)
    write_file(tmp_path, F, TEXT)
    with monkeypatch.context() as patch:
        if click_path:
            patch.setattr(cli._Group, "make_context", click.Group.make_context)
            patch.setattr(cli._Group, "invoke", click.Group.invoke)
        result = CliRunner().invoke(main, args, input=TEXT, prog_name="movkit")
    return result.exit_code, result.stdout, result.stderr


@pytest.mark.parametrize("args", PARSE_CASES + BINDER_CASES, ids=" ".join)
def test_the_binder_reads_argv_as_click_does(args, tmp_path, monkeypatch):
    # each path runs in a directory of its own, and must leave the same files
    runs = []
    for click_path in (False, True):
        where = tmp_path / ("click" if click_path else "binder")
        where.mkdir()
        result = run_in(where, monkeypatch, args, click_path=click_path)
        runs.append((result, {path.name: path.read_text() for path in where.iterdir()}))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("args", PLAIN_LINES, ids=" ".join)
def test_a_plain_line_binds_the_context_click_builds(args, tmp_path, monkeypatch):
    # the command's context as its callback sees it: each value and its
    # source in order, the usage path and the parent's record of the call
    seen = []

    def record(self, ctx):
        params = [(name, getattr(value, "name", value)) for name, value in ctx.params.items()]
        sources = [(name, ctx.get_parameter_source(name)) for name in ["help", *ctx.params]]
        parent = ctx.parent
        seen.append((params, sources, ctx.command_path, ctx.info_name, parent.info_name,
                     parent.invoked_subcommand, parent.params, parent.get_parameter_source("help")))

    monkeypatch.setattr(cli._Command, "invoke", record)
    run_in(tmp_path, monkeypatch, args)
    run_in(tmp_path, monkeypatch, args, click_path=True)
    assert len(seen) == 2 and seen[0] == seen[1]


def test_no_plain_line_builds_a_parser(tmp_path, monkeypatch):
    built = []
    real = click.Command.make_parser

    def counted(self, ctx):
        built.append(self.name)
        return real(self, ctx)

    monkeypatch.setattr(click.Command, "make_parser", counted)
    for args in PLAIN_LINES:
        assert run_in(tmp_path, monkeypatch, args)[0] == 0, args
    assert built == []
    # the counter sees Click's own path
    run_in(tmp_path, monkeypatch, ["winner", f"--input={F}", "-r", "borda"])
    assert built == ["main", "winner"]


@pytest.mark.parametrize("args", [
    ["mov", "--mode", "fast", "-i", F, "-r", "borda"],
    ["mov", "--mode", "estimate", "-i", F, "-r", "borda", "--epsilon", "x"],
], ids=" ".join)
def test_a_failing_plain_line_is_not_parsed_again(args, tmp_path, monkeypatch):
    made = []
    real = click.Command.make_context

    def counted(self, *args, **kwargs):
        made.append(self.name)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(click.Command, "make_context", counted)
    code, _, err = run_in(tmp_path, monkeypatch, args)
    assert (code, made) == (2, [])
    assert err.startswith("Usage: movkit mov [OPTIONS]\n") and "Invalid value for '--" in err, err


@pytest.mark.parametrize("command", sorted(main.commands))
def test_every_command_meets_the_binder_preconditions(command):
    assert isinstance(main.commands[command], cli._Command)
    assert main.commands[command].plain is not None


def test_a_command_beyond_the_preconditions_takes_clicks_path(tmp_path, monkeypatch):
    @click.command(cls=cli._Command)
    @click.option("--name", envvar="MOVKIT_TEST_NAME", default="x")
    def greet(name):
        click.echo(f"hello {name}")

    monkeypatch.setitem(main.commands, "greet", greet)
    monkeypatch.setenv("MOVKIT_TEST_NAME", "env")
    assert greet.plain is None
    assert run_in(tmp_path, monkeypatch, ["greet"]) == (0, "hello env\n", "")


@pytest.mark.parametrize("settings", [{"context_settings": {"default_map": {"name": "mapped"}}},
                                      {"no_args_is_help": True}], ids=["context-settings", "no-args-is-help"])
def test_a_command_with_context_settings_or_no_args_is_help_takes_clicks_path(settings, tmp_path,
                                                                                monkeypatch):
    # a default map, or help for no arguments, is Click's to apply: a bound
    # line would greet "x"
    @click.command(cls=cli._Command, **settings)
    @click.option("--name", default="x")
    def greet(name):
        click.echo(f"hello {name}")

    built = []
    real = click.Command.make_parser

    def counted(self, ctx):
        built.append(self.name)
        return real(self, ctx)

    monkeypatch.setitem(main.commands, "greet", greet)
    monkeypatch.setattr(click.Command, "make_parser", counted)
    assert greet.plain is None
    code, out, err = run_in(tmp_path, monkeypatch, ["greet"])
    assert built[0] == "main"  # the binder builds no parser, not even the group's
    if "no_args_is_help" in settings:
        # the help goes to stderr with exit 2 since Click 8.2, to stdout with exit 0 before
        assert "hello" not in out and "Usage: movkit greet [OPTIONS]\n" in out + err
    else:
        assert (code, out, err) == (0, "hello mapped\n", "")


@pytest.mark.parametrize("args", [
    ["mov", "--mode", "estimate", "-i", F, "-r", "borda", "--epsilon", "x"],
    ["mov", "--mode", "exact", "-i", F, "-r", "borda", "--budget", "many"],
    ["experiment", "-r", "borda", "-i", F, "--trials", "x", "--oracle", "bounds"],
], ids=" ".join)
def test_a_failing_plain_line_closes_the_file_it_opened(args, tmp_path, monkeypatch):
    # the value after -i F fails, once F is open: the binder closes F
    # before it raises, and prints what Click's own path prints
    opened = []
    real = click.File.convert

    def recorded(self, value, param, ctx):
        opened.append(real(self, value, param, ctx))
        return opened[-1]

    expected = run_in(tmp_path, monkeypatch, args, click_path=True)
    monkeypatch.setattr(click.File, "convert", recorded)
    assert run_in(tmp_path, monkeypatch, args) == expected
    assert expected[0] == 2 and "Invalid value for '--" in expected[2]
    assert len(opened) == 1 and opened[0].closed


KINDS = "'scoring', 'kapproval', 'approval', 'bucklin', 'maximin', 'copeland'"


def test_samplesize_lists_the_rule_kinds_in_table_order(runner):
    # `movkit.oracle._FAMILIES` gives the kinds and their order
    result = runner.invoke(main, ["samplesize", "-r", "plurality", "--epsilon", "0.1", "--delta", "0.1"])
    assert result.exit_code == 2
    assert result.stderr.endswith(
        f"Error: Invalid value for '--rule' / '-r': 'plurality' is not one of {KINDS}.\n")
    helped = invoke(runner, ["samplesize", "--help"])
    assert "[scoring|kapproval|approval|bucklin|maximin|copeland]" in helped.stdout


def test_short_flags_construct_no_no_such_option(runner, tmp_path, monkeypatch):
    path = write_file(tmp_path, "e.txt", "m 3\n2: a>b>c\n1: c>b>a\n")
    built = []
    real = click.exceptions.NoSuchOption.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        real(self, *args, **kwargs)

    monkeypatch.setattr(click.exceptions.NoSuchOption, "__init__", counted)
    invoke(runner, ["winner", "-i", path, "-r", "borda"])
    invoke(runner, ["mov", "-i", path, "-r", "borda", "--mode", "bounds"])
    invoke(runner, ["mov", "-i", path, "-r", "borda", "--mode", "estimate"])
    invoke(runner, ["experiment", "-r", "borda", "-g", "ic:n=6,m=3", "--trials", "1",
                    "--oracle", "bounds", "-o", str(tmp_path / "rows.csv")])
    invoke(runner, ["generate", "--model", "ic", "--n", "5", "--m", "2",
                    "-o", str(tmp_path / "out.txt")])
    invoke(runner, ["samplesize", "-r", "scoring", "--m", "3", "--epsilon", "0.1", "--delta", "0.05"])
    assert built == []


def test_a_short_flag_command_does_not_import_difflib(tmp_path):
    path = write_file(tmp_path, "e.txt", "m 3\n2: a>b>c\n1: c>b>a\n")
    script = ("import sys\nfrom movkit.cli import main\n"
              f"main.main(['winner', '-i', {path!r}, '-r', 'borda'], standalone_mode=False)\n"
              "print('difflib' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out == "winners: a; s(a)=4 s(b)=3 s(c)=2\nFalse\n"
