"""Each rule or ballot fault gives one exception type and one text from
every library and command-line entry point.

`movkit.core.rule_tally` is the one check of a rule against an election and
the profile constructors are the one check that a ballot belongs to a
profile, so the texts below are theirs wherever the fault surfaces.
"""

import re
from fractions import Fraction as F

import pytest
from click.testing import CliRunner

from movkit.cli import main
from movkit.core import (
    Approval,
    ApprovalBallot,
    ApprovalProfile,
    Bucklin,
    InputError,
    KApproval,
    RankedProfile,
    Ranking,
    ScoreVector,
    Scoring,
    approval_profile,
    ranked_profile,
    winner_set,
)
from movkit.estimators import (
    VoteSource,
    estimate_kapproval,
    estimate_mov,
    lower_bound_samples,
    sample_size,
)
from movkit.experiments import run_distinguisher
from movkit.io_formats import write_election
from movkit.oracle import (
    apply_changes,
    mov_approval_closed_form,
    mov_bounds,
    mov_brute_force,
    mov_kapproval_closed_form,
)

EPS, DELTA = F(1, 10), F(1, 20)
RANKED = ranked_profile(3, [((0, 1, 2), 2), ((1, 2, 0), 1)])
APPROVAL = approval_profile(3, [((0,), 2), ((1, 2), 1)])
RANKED_1 = ranked_profile(1, [((0,), 3)])
APPROVAL_1 = approval_profile(1, [((0,), 3)])

NEEDS_APPROVAL = "this operation needs an approval profile"
NEEDS_RANKED = "this operation needs a ranked profile"
K_RANGE = "k must be in [1, m-1], got k=3, m=3"
VECTOR_LENGTH = "score vector has 2 entries for 3 candidates"
TWO_CANDIDATES = "margin of victory needs at least two candidates"

# fault -> (profile, rule, its CLI spec, the k that gives estimate_kapproval
# the same fault or None, message, winner message). One candidate is no fault
# for a winner set, so there the winner message is None (success) or the
# text of the rule's own fault.
RULE_FAULTS = {
    "approval-rule-on-rankings": (RANKED, Approval(), "approval", None, NEEDS_APPROVAL,
                                  NEEDS_APPROVAL),
    "ranked-rule-on-approval": (APPROVAL, Bucklin(), "bucklin", 1, NEEDS_RANKED, NEEDS_RANKED),
    "k-above-m-1": (RANKED, KApproval(3), "kapproval:3", 3, K_RANGE, K_RANGE),
    "vector-length": (RANKED, Scoring(ScoreVector((F(1), F(0)))), "scoring:1,0", None,
                      VECTOR_LENGTH, VECTOR_LENGTH),
    "one-candidate-ranked": (RANKED_1, Bucklin(), "bucklin", 1, TWO_CANDIDATES, None),
    "one-candidate-kapproval": (RANKED_1, KApproval(1), "plurality", 1, TWO_CANDIDATES,
                                "k must be in [1, m-1], got k=1, m=1"),
    "one-candidate-approval": (APPROVAL_1, Approval(), "approval", 1, TWO_CANDIDATES, None),
}


@pytest.mark.parametrize("fault", RULE_FAULTS)
def test_rule_fault_has_one_text_in_the_library(fault):
    profile, rule, _, k, message, winner_message = RULE_FAULTS[fault]
    source = VoteSource.from_profile(profile)
    calls = {
        "mov_bounds": lambda: mov_bounds(profile, rule),
        "mov_brute_force": lambda: mov_brute_force(profile, rule, 2),
        "estimate_mov": lambda: estimate_mov(source, rule, EPS, DELTA, 0),
        # epsilon = 0 is itself invalid: the rule is checked first
        "estimate_mov-before-epsilon": lambda: estimate_mov(source, rule, F(0), DELTA, 0),
    }
    if k is not None:
        calls["estimate_kapproval"] = lambda: estimate_kapproval(source, k, EPS, DELTA, 0)
    if isinstance(rule, KApproval):
        calls["mov_kapproval_closed_form"] = lambda: mov_kapproval_closed_form(profile, rule.k)
    if isinstance(rule, Approval):
        calls["mov_approval_closed_form"] = lambda: mov_approval_closed_form(profile)
    seen = {}
    for name, call in calls.items():
        with pytest.raises(InputError) as info:
            call()
        seen[name] = str(info.value)
    assert set(seen.values()) == {message}, seen
    if winner_message is None:
        winner_set(profile, rule)
    else:
        with pytest.raises(InputError, match=re.escape(winner_message)):
            winner_set(profile, rule)


@pytest.mark.parametrize("fault", RULE_FAULTS)
@pytest.mark.parametrize("command", [["winner"], ["mov", "--mode", "bounds"],
                                     ["mov", "--mode", "exact"], ["mov", "--mode", "estimate"]],
                         ids=["winner", "bounds", "exact", "estimate"])
def test_rule_fault_has_one_text_on_the_command_line(fault, command, tmp_path):
    profile, _, spec, _, message, winner_message = RULE_FAULTS[fault]
    path = tmp_path / "e.txt"
    path.write_text(write_election(profile))
    result = CliRunner().invoke(main, command + ["-i", str(path), "-r", spec])
    if command == ["winner"]:
        message = winner_message
    if message is None:
        assert result.exit_code == 0, result.output
        return
    assert result.exit_code == 2, result.output
    assert result.output.endswith(f"Error: {message}\n"), result.output


K_POSITIVE = "k must be a positive integer, got 0"


def test_k_below_one_has_one_text_in_the_library():
    source = VoteSource.from_profile(RANKED)
    calls = {
        "KApproval": lambda: KApproval(0),
        "estimate_kapproval": lambda: estimate_kapproval(source, 0, EPS, DELTA, 0),
        "sample_size": lambda: sample_size("kapproval", EPS, DELTA, 5, 0),
        # m = 1 is itself invalid: k is checked first
        "sample_size-before-m": lambda: sample_size("kapproval", EPS, DELTA, 1, 0),
    }
    seen = {}
    for name, call in calls.items():
        with pytest.raises(InputError) as info:
            call()
        seen[name] = str(info.value)
    assert set(seen.values()) == {K_POSITIVE}, seen


@pytest.mark.parametrize("args", [
    ["samplesize", "--rule", "kapproval", "--k", "0"],
    ["samplesize", "--rule", "kapproval", "--k", "0", "--m", "5"],
], ids=["k-only", "k-and-m"])
def test_k_below_one_has_one_text_on_the_command_line(args):
    result = CliRunner().invoke(main, args + ["--epsilon", "0.1", "--delta", "0.1"])
    assert result.exit_code == 2, result.output
    assert result.output.endswith(f"Error: {K_POSITIVE}\n"), result.output


# an epsilon or delta so small that a sample-size closed form would leave the
# float range: (--epsilon, --delta, message)
TINY = {
    "epsilon": ("1e-200", "0.05", "epsilon must be at least 3.05494e-151, got 1e-200"),
    "delta": ("0.05", "1e-320", "delta must be at least 1.02613e-289, got 9.99989e-321"),
}


@pytest.mark.parametrize("param", TINY)
def test_tiny_epsilon_or_delta_has_one_text_in_the_library(param):
    epsilon, delta, message = TINY[param]
    epsilon, delta = F(epsilon), F(delta)
    source = VoteSource.from_profile(RANKED)
    calls = {
        "sample_size": lambda: sample_size("scoring", epsilon, delta, 3),
        "lower_bound_samples": lambda: lower_bound_samples(0, epsilon, delta),
        "estimate_mov": lambda: estimate_mov(source, Bucklin(), epsilon, delta, 0),
        "estimate_mov-with-ell": lambda: estimate_mov(source, Bucklin(), epsilon, delta, 0, ell=5),
        "run_distinguisher": lambda: run_distinguisher(epsilon, delta, 1, 0),
    }
    seen = {}
    for name, call in calls.items():
        with pytest.raises(InputError) as info:
            call()
        seen[name] = str(info.value)
    assert set(seen.values()) == {message}, seen


@pytest.mark.parametrize("param", TINY)
@pytest.mark.parametrize("command", [
    ["samplesize", "-r", "scoring", "--m", "3"],
    ["lowerbound"],
    ["mov", "--mode", "estimate"],
    ["mov", "--mode", "estimate", "--samples", "5"],
    ["distinguish", "--trials", "1"],
], ids=["samplesize", "lowerbound", "estimate", "estimate-with-samples", "distinguish"])
def test_tiny_epsilon_or_delta_has_one_text_on_the_command_line(param, command, tmp_path):
    epsilon, delta, message = TINY[param]
    if command[0] == "mov":
        path = tmp_path / "e.txt"
        path.write_text(write_election(RANKED))
        command = command + ["-i", str(path), "-r", "bucklin"]
    result = CliRunner().invoke(main, command + ["--epsilon", epsilon, "--delta", delta])
    assert result.exit_code == 2, result.output
    assert result.output.endswith(f"Error: {message}\n"), result.output


ENTRIES = "ballot entries must be integer candidate indices: "


@pytest.mark.parametrize("kind, ballot, message", [
    (RankedProfile, ApprovalBallot(frozenset({0})),
     ENTRIES + "ApprovalBallot(approved=frozenset({0}))"),
    (ApprovalProfile, Ranking((0, 1)), ENTRIES + "Ranking(order=(0, 1))"),
    (RankedProfile, 5, ENTRIES + "5"),
    (ApprovalProfile, 5, ENTRIES + "5"),
    (RankedProfile, ["a", "b"], ENTRIES + "['a', 'b']"),
    (RankedProfile, [0, "b"], ENTRIES + "[0, 'b']"),
    (ApprovalProfile, ["a", "b"], ENTRIES + "['a', 'b']"),
    (RankedProfile, (0.0, 1.0), ENTRIES + "(0.0, 1.0)"),
    (ApprovalProfile, (0.0, 1.0), ENTRIES + "(0.0, 1.0)"),
    (RankedProfile, (1, 0, 2), "ballot (1, 0, 2) does not rank all 2 candidates"),
    (ApprovalProfile, {5}, "ballot approves unknown candidate: [5]"),
], ids=["approval-in-ranked", "ranking-in-approval", "int-ranked", "int-approval",
        "strings-ranked", "mixed-ranked", "strings-approval", "floats-ranked",
        "floats-approval", "long-ranking", "unknown-approved"])
def test_ballot_fault_has_one_text_in_constructors_and_apply_changes(kind, ballot, message):
    with pytest.raises(InputError) as info:
        kind(m=2, votes=((ballot, 1),))
    assert str(info.value) == message
    base = kind(m=2, votes=(((1, 0) if kind is RankedProfile else (1,), 2),))
    with pytest.raises(InputError) as info:
        apply_changes(base, [(1, ballot)])
    assert str(info.value) == message


def test_ballot_entries_are_plain_ints():
    # bools are normalized to 0 and 1, so every later step sees plain ints
    profile = ranked_profile(2, [((True, False), 1)])
    assert repr(profile.votes) == "((Ranking(order=(1, 0)), 1),)"
    assert ApprovalBallot(frozenset({True})) == ApprovalBallot(frozenset({1}))
    assert all(type(c) is int for c in ApprovalBallot(frozenset({True, 0})).approved)
    assert write_election(profile) == "m 2\n1: b>a\n"
    with pytest.raises(InputError):
        Ranking((0.0, 1.0))
    with pytest.raises(InputError):
        ApprovalBallot(frozenset({1.0}))
