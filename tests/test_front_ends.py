"""The two front ends, the ``movkit`` CLI and the experiment spec strings,
share one error mapping and one generation pipeline.

Every command maps an input or parse fault to a usage error of that command:
exit 2, with the command's own usage line and help hint before the message.
A work-limit fault is exit 3 with a one-line message. ``movkit generate``
and `parse_generator` read one table of generation models and build the same
election for the same seed, approval conversion included.
"""

import pytest
from click.testing import CliRunner

from movkit.cli import main
from movkit.experiments import parse_generator
from movkit.io_formats import write_election

ELECTION = "m 4\n1: a>b>c>d\n2: b>c>d>a\n1: c>d>a>b\n2: d>a>b>c\n"

# one domain fault per command, raised in the command's body (not by click's
# own option checks), and its message
DOMAIN_FAULTS = {
    "winner": (["-i", "{bad}", "-r", "plurality"], "line 2: ranking repeats a candidate"),
    "mov": (["-i", "{good}", "-r", "borda", "--budget", "0"], "budget must be at least 1, got 0"),
    "samplesize": (["-r", "scoring", "--epsilon", "0.1", "--delta", "0.05"],
                   "--m is required (except for kapproval, where --k suffices)"),
    "lowerbound": (["--c", "2", "--epsilon", "0.1", "--delta", "0.05"],
                   "c must lie in [0, 1), got 2"),
    "generate": (["--model", "ic", "--n", "5"], "ic needs --m"),
    "experiment": (["-r", "borda", "--trials", "1"],
                   "provide exactly one of --generator and --input"),
    "distinguish": (["--trials", "0"], "trials must be positive, got 0"),
}


@pytest.fixture()
def files(tmp_path):
    bad, good = tmp_path / "bad.txt", tmp_path / "good.txt"
    bad.write_text("m 2\n1: a>a\n")
    good.write_text(ELECTION)
    return {"bad": str(bad), "good": str(good)}


def run(args):
    return CliRunner().invoke(main, args, prog_name="movkit", catch_exceptions=False)


def test_every_command_has_a_domain_fault_case():
    assert set(DOMAIN_FAULTS) == set(main.commands)


@pytest.mark.parametrize("command", sorted(DOMAIN_FAULTS))
def test_a_domain_fault_is_a_usage_error_of_its_command(command, files):
    args, message = DOMAIN_FAULTS[command]
    result = run([command] + [arg.format(**files) for arg in args])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr == (
        f"Usage: movkit {command} [OPTIONS]\n"
        f"Try 'movkit {command} --help' for help.\n"
        "\n"
        f"Error: {message}\n"
    )


def test_a_work_limit_fault_exits_3_with_one_line(files):
    # the 4! = 24 replacement rankings alone exceed the limit
    result = run(["mov", "-i", files["good"], "-r", "copeland", "--work-limit", "5"])
    assert result.exit_code == 3
    assert result.stdout == ""
    assert result.stderr == (
        "error: exceeded work limit of 5 (replacement ballots plus search nodes)\n"
    )


GENERATED = [
    ("ic", "n=40,m=4", ["--n", "40", "--m", "4"]),
    ("plantedgap", "n=40,m=3,gap=4,winner=2",
     ["--n", "40", "--m", "3", "--gap", "4", "--winner", "2"]),
    ("twocandidate", "n=7,p=4/7", ["--n", "7", "--p", "4/7"]),
]


@pytest.mark.parametrize("approval", [None, "uniform", "2"])
@pytest.mark.parametrize("model, params, options", GENERATED)
@pytest.mark.parametrize("seed", [0, 5])
def test_both_front_ends_generate_the_same_election(model, params, options, approval, seed):
    spec = f"{model}:{params}" + ("" if approval is None else f",approval={approval}")
    args = ["generate", "--model", model, *options, "--seed", str(seed)]
    if approval is not None:
        args += ["--approval", approval]
    result = run(args)
    assert result.exit_code == 0
    # the CLI heads a two-candidate election with its realized fraction
    lines = result.stdout.splitlines(keepends=True)
    body = "".join(line for line in lines if not line.startswith("# realized a-first fraction"))
    assert body == write_election(parse_generator(spec)(seed))


def test_both_front_ends_generate_the_same_two_candidate_election():
    result = run(["generate", "--model", "twocandidate", "--n", "7", "--p", "4/7", "--seed", "3"])
    assert result.exit_code == 0
    profile = parse_generator("twocandidate:n=7,p=4/7")(3)
    assert result.stdout == "# realized a-first fraction: 4/7\n" + write_election(profile)
