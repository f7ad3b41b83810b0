"""Command-line interface behaviour and output stability."""

import sys
import tracemalloc

import pytest
from click.testing import CliRunner

from movkit.cli import main
from movkit.generation import ImpartialCulture, generate
from movkit.io_formats import write_election


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
