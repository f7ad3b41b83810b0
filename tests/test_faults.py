"""Each rule or ballot fault gives one exception type and one text from
every library and command-line entry point.

`movkit.core._store_tally`, behind `movkit.core.rule_tally`, is the one
check of a rule against an election and the profile constructors are the
one check that a ballot belongs to a profile, so the texts below are
theirs wherever the fault surfaces.
"""

import re
from decimal import Decimal
from fractions import Fraction as F

import pytest
from click.testing import CliRunner

from movkit.cli import main
from movkit.core import (
    Approval,
    ApprovalBallot,
    ApprovalProfile,
    Bucklin,
    Copeland,
    InputError,
    KApproval,
    Maximin,
    RankedProfile,
    Ranking,
    Rule,
    Scoring,
    rule_tally,
    winner_set,
)
from movkit.estimators import (
    MovEstimate,
    VoteSource,
    estimate_kapproval,
    estimate_mov,
    guarantee_constant,
    lower_bound_samples,
    sample_size,
)
from movkit.experiments import (
    BoundsOnlyPolicy,
    ExperimentConfig,
    resolve_rule,
    rule_to_spec,
    run_distinguisher,
    run_experiment,
)
from movkit.generation import ImpartialCulture, PlantedGap, TwoCandidate, generate, ranked_to_approval
from movkit.io_formats import ParseError, parse_election, write_election
from movkit.oracle import (
    MovBounds,
    apply_changes,
    copeland_log_factor,
    mov_approval_closed_form,
    mov_bounds,
    mov_brute_force,
    mov_kapproval_closed_form,
)

EPS, DELTA = F(1, 10), F(1, 20)
BIG = 10**5000
RANKED = RankedProfile(3, [((0, 1, 2), 2), ((1, 2, 0), 1)])
APPROVAL = ApprovalProfile(3, [((0,), 2), ((1, 2), 1)])
RANKED_1 = RankedProfile(1, [((0,), 3)])
APPROVAL_1 = ApprovalProfile(1, [((0,), 3)])

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
    "vector-length": (RANKED, Scoring((F(1), F(0))), "scoring:1,0", None,
                      VECTOR_LENGTH, VECTOR_LENGTH),
    "one-candidate-ranked": (RANKED_1, Bucklin(), "bucklin", 1, TWO_CANDIDATES, None),
    "one-candidate-kapproval": (RANKED_1, KApproval(1), "plurality", 1, TWO_CANDIDATES,
                                "k must be in [1, m-1], got k=1, m=1"),
    "one-candidate-approval": (APPROVAL_1, Approval(), "approval", 1, TWO_CANDIDATES, None),
}


@pytest.mark.parametrize("fault", RULE_FAULTS)
def test_rule_fault_has_one_text_in_the_library(fault):
    profile, rule, _, k, message, winner_message = RULE_FAULTS[fault]
    source = VoteSource(profile)
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
    source = VoteSource(RANKED)
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
    source = VoteSource(RANKED)
    calls = {
        "sample_size": lambda: sample_size("scoring", epsilon, delta, 3),
        "lower_bound_samples": lambda: lower_bound_samples(0, epsilon, delta),
        "estimate_mov": lambda: estimate_mov(source, Bucklin(), epsilon, delta, 0),
        "estimate_mov-with-ell": lambda: estimate_mov(source, Bucklin(), epsilon, delta, 0, ell=5),
        "run_distinguisher": lambda: run_distinguisher(epsilon, delta, 1, 0),
        "ExperimentConfig": lambda: ExperimentConfig("bucklin", epsilon, delta, 1, 0,
                                                     BoundsOnlyPolicy(), generator="ic:n=20,m=3"),
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
    ["experiment", "-r", "bucklin", "-g", "ic:n=20,m=3", "--trials", "1"],
], ids=["samplesize", "lowerbound", "estimate", "estimate-with-samples", "distinguish",
        "experiment"])
def test_tiny_epsilon_or_delta_has_one_text_on_the_command_line(param, command, tmp_path):
    epsilon, delta, message = TINY[param]
    if command[0] == "mov":
        path = tmp_path / "e.txt"
        path.write_text(write_election(RANKED))
        command = command + ["-i", str(path), "-r", "bucklin"]
    result = CliRunner().invoke(main, command + ["--epsilon", epsilon, "--delta", delta])
    assert result.exit_code == 2, result.output
    assert result.output.endswith(f"Error: {message}\n"), result.output


# epsilon and delta are checked exactly, before they are rounded to floats:
# 1e-400 rounds to 0.0 but is a positive value below the floor, and
# 1 - 1e-19 rounds to 1.0 but lies inside (0, 1), where (12/0.01) * ln(6/1)
# rounds up to 2151. (--delta, exit code, the end of the output)
ROUNDED = {
    "below-the-float-range": ("1e-400", 2, "Error: delta must be at least 1.02613e-289, got 1e-400\n"),
    "just-below-one": ("0.9999999999999999999", 0, "2151\n"),
}


@pytest.mark.parametrize("case", ROUNDED)
def test_delta_is_checked_before_it_is_rounded_to_a_float(case):
    delta, code, tail = ROUNDED[case]
    result = CliRunner().invoke(
        main, ["samplesize", "-r", "scoring", "--m", "3", "--epsilon", "0.1", "--delta", delta])
    assert result.exit_code == code, result.output
    assert result.output.endswith(tail), result.output


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
    profile = RankedProfile(2, [((True, False), 1)])
    assert repr(profile.votes) == "((Ranking(order=(1, 0)), 1),)"
    assert ApprovalBallot(frozenset({True})) == ApprovalBallot(frozenset({1}))
    assert all(type(c) is int for c in ApprovalBallot(frozenset({True, 0})).approved)
    assert write_election(profile) == "m 2\n1: b>a\n"
    with pytest.raises(InputError):
        Ranking((0.0, 1.0))
    with pytest.raises(InputError):
        ApprovalBallot(frozenset({1.0}))


@pytest.mark.parametrize("limit", [0, -5])
def test_work_limit_below_one_is_an_input_error(limit, tmp_path):
    message = f"work limit must be at least 1, got {limit}"
    with pytest.raises(InputError) as info:
        mov_brute_force(RANKED, Bucklin(), 2, work_limit=limit)
    assert str(info.value) == message
    path = tmp_path / "e.txt"
    path.write_text(write_election(RANKED))
    result = CliRunner().invoke(
        main, ["mov", "-i", str(path), "-r", "borda", "--work-limit", str(limit)])
    assert result.exit_code == 2, result.output
    assert result.output.endswith(f"Error: {message}\n"), result.output


@pytest.mark.parametrize("ell", [2.5, True, F(3), 0, -1])
def test_sample_count_must_be_a_positive_integer(ell):
    with pytest.raises(InputError) as info:
        estimate_mov(VoteSource(RANKED), Bucklin(), EPS, DELTA, 0, ell=ell)
    assert str(info.value) == f"sample count must be positive, got {ell!r}"


def test_zero_samples_on_the_command_line(tmp_path):
    path = tmp_path / "e.txt"
    path.write_text(write_election(RANKED))
    result = CliRunner().invoke(
        main, ["mov", "--mode", "estimate", "--samples", "0", "-i", str(path), "-r", "bucklin"])
    assert result.exit_code == 2, result.output
    assert result.output.endswith("Error: sample count must be positive, got 0\n"), result.output


@pytest.mark.parametrize("raw", [[((0, 1), 3)], ((Ranking((0, 1)), 3),), None])
def test_vote_source_needs_a_profile(raw):
    # raw votes are an InputError, not an AttributeError once a rule reads m
    with pytest.raises(InputError) as info:
        estimate_mov(VoteSource(raw), Bucklin(), EPS, DELTA, 0)
    assert str(info.value) == f"vote source needs a profile, got {type(raw).__name__}"


# a bare Rule is no rule family; its repr holds its address
BARE_RULE = Rule()
UNKNOWN_RULE = f"unknown rule: {BARE_RULE!r}"
PARITY = "gap 3 is unachievable with n=10 and m=2 (parity)"


@pytest.mark.parametrize("make, message", [
    (lambda: resolve_rule("scoring:1,x", 2),
     "scoring needs comma-separated rationals, got 'scoring:1,x'"),
    (lambda: Copeland("x"), "copeland alpha must be rational: 'x'"),
    (lambda: Scoring(("x", 0)), "score entries must be rationals: ('x', 0)"),
    (lambda: ApprovalBallot({-1}),
     "approval ballot must contain candidate indices: frozenset({-1})"),
    (lambda: VoteSource(RANKED).draw_counts(0, 1), "draw count must be at least 1, got 0"),
    (lambda: VoteSource(RANKED).draw_counts(2.5, 0), "draw count must be an integer, got 2.5"),
    (lambda: VoteSource(RANKED).draw_counts(True, 0), "draw count must be an integer, got True"),
    (lambda: mov_brute_force(RANKED, Bucklin(), 1.5), "budget must be an integer, got 1.5"),
    (lambda: mov_brute_force(RANKED, Bucklin(), True), "budget must be an integer, got True"),
    (lambda: sample_size("plurality", EPS, DELTA, 3), "unknown rule kind 'plurality'"),
    (lambda: KApproval(True), "k must be a positive integer, got True"),
    (lambda: sample_size("kapproval", EPS, DELTA, 3, True),
     "k must be a positive integer, got True"),
    (lambda: lower_bound_samples(1, EPS, DELTA), "c must lie in [0, 1), got 1"),
    (lambda: run_distinguisher(EPS / 2, DELTA, 1, 0, c=1), "c must lie in [0, 1), got 1"),
    (lambda: run_distinguisher(EPS / 2, DELTA, 0, 0), "trials must be positive, got 0"),
    (lambda: ranked_to_approval(RANKED, "half"),
     'k must be an integer or "uniform", got \'half\''),
    (lambda: ranked_to_approval(RANKED, 2.5), 'k must be an integer or "uniform", got 2.5'),
    (lambda: ranked_to_approval(RANKED, True), 'k must be an integer or "uniform", got True'),
    (lambda: ImpartialCulture(n=True, m=3), "n must be an integer, got True"),
    # a seed that is not an int would give a different draw on every call
    (lambda: estimate_mov(VoteSource(RANKED), KApproval(1), EPS, DELTA, None, ell=50),
     "seed must be an integer, got None"),
    (lambda: VoteSource(RANKED).draw_counts(5, 1.5), "seed must be an integer, got 1.5"),
    (lambda: VoteSource(RANKED).draw_counts(5, True), "seed must be an integer, got True"),
    (lambda: ImpartialCulture(n=50, m=4, seed=None), "seed must be an integer, got None"),
    (lambda: ranked_to_approval(RANKED, "uniform", "7"), "seed must be an integer, got '7'"),
    (lambda: run_experiment(ExperimentConfig("borda", EPS, DELTA, 1, None, BoundsOnlyPolicy(),
                                             generator="ic:n=10,m=3")),
     "seed must be an integer, got None"),
    (lambda: run_distinguisher(EPS / 2, DELTA, 1, 2.0), "seed must be an integer, got 2.0"),
    (lambda: PlantedGap(winner=0, gap=True, n=4, m=2), "gap must be an integer, got True"),
    (lambda: ranked_to_approval(APPROVAL, 1), NEEDS_RANKED),
    (lambda: RankedProfile(2, [(Ranking((0, 1)), 1.5)]),
     "multiplicity must be a positive integer, got 1.5"),
    (lambda: RankedProfile(2, [(Ranking((0, 1)), -3)]),
     "multiplicity must be a positive integer, got -3"),
    (lambda: RankedProfile(3, [(Ranking((0, 1, 2, 3)), 1)]),
     "ballot (0, 1, 2, 3) does not rank all 3 candidates"),
    (lambda: rule_tally(APPROVAL, Maximin()), NEEDS_RANKED),
    (lambda: rule_tally(RANKED, Approval()), "this operation needs an approval profile"),
    (lambda: mov_brute_force(RANKED, Bucklin(), 2, work_limit=None),
     "work limit must be an integer, got None"),
    (lambda: mov_brute_force(RANKED, Bucklin(), 2, work_limit=True),
     "work limit must be an integer, got True"),
    (lambda: run_distinguisher(EPS / 2, DELTA, 2.5, 0), "trials must be an integer, got 2.5"),
    (lambda: run_distinguisher(EPS / 2, DELTA, "3", 0), "trials must be an integer, got '3'"),
    (lambda: ExperimentConfig("borda", EPS, DELTA, True, 0, BoundsOnlyPolicy(),
                              generator="ic:n=10,m=3"),
     "trials must be an integer, got True"),
    (lambda: ExperimentConfig("borda", EPS, DELTA, 2.5, 0, BoundsOnlyPolicy(),
                              generator="ic:n=10,m=3"),
     "trials must be an integer, got 2.5"),
    (lambda: winner_set(RANKED, BARE_RULE), UNKNOWN_RULE),
    (lambda: guarantee_constant(BARE_RULE, 3), UNKNOWN_RULE),
    (lambda: rule_to_spec(BARE_RULE), UNKNOWN_RULE),
    (lambda: copeland_log_factor(1), "needs at least two candidates"),
    # every rule's sandwich ratio refuses one candidate, not Copeland's alone
    (lambda: guarantee_constant(Maximin(), 1), "needs at least two candidates"),
    (lambda: guarantee_constant(Bucklin(), 1), "needs at least two candidates"),
    (lambda: guarantee_constant(KApproval(1), 1), "needs at least two candidates"),
    (lambda: generate(PlantedGap(winner=0, gap=3, n=10, m=2)), PARITY),
    (lambda: generate(PlantedGap(winner=0, gap=1, n=2, m=3)),
     "gap 1 is unachievable with n=2 and m=3"),
    (lambda: MovBounds(-1, 1, "test"), "lower bound must be non-negative, got -1"),
    (lambda: MovBounds(0, 0, "test"), "upper bound must be positive, got 0"),
    (lambda: MovBounds(2, 1, "test"), "bounds out of order: 2 > 1"),
    (lambda: MovEstimate(F(-1), 1, 0, F(1), EPS, DELTA),
     "margin estimate cannot be negative: -1"),
    (lambda: MovEstimate(F(1), 0, 0, F(1), EPS, DELTA),
     "sample count must be positive, got 0"),
    # epsilon and delta are read as their integer ratio: one text for a
    # value without one, for NaN and the infinities, and for a Decimal below
    # the float range
    (lambda: sample_size("scoring", "0.1", DELTA, 3), "epsilon must be a number, got '0.1'"),
    (lambda: lower_bound_samples(0, EPS, None), "delta must be a number, got None"),
    (lambda: estimate_mov(VoteSource(RANKED), Maximin(), 1j, DELTA, 0),
     "epsilon must be a number, got 1j"),
    (lambda: ExperimentConfig("borda", EPS, Decimal("1E-400"), 1, 0, BoundsOnlyPolicy(),
                              generator="ic:n=10,m=3"),
     "delta must be at least 1.02613e-289, got 1e-400"),
    (lambda: sample_size("maximin", Decimal("NaN"), DELTA, 3),
     "epsilon must lie strictly between 0 and 1, got NaN"),
    (lambda: estimate_mov(VoteSource(RANKED), Maximin(), float("nan"), DELTA, 0),
     "epsilon must lie strictly between 0 and 1, got nan"),
    (lambda: lower_bound_samples(0, EPS, float("inf")),
     "delta must lie strictly between 0 and 1, got inf"),
    # c is read as a Fraction, and run_distinguisher checks c, epsilon and
    # delta through lower_bound_samples before it builds anything
    (lambda: lower_bound_samples(None, EPS, DELTA), "c must be a number, got None"),
    (lambda: lower_bound_samples("x", EPS, DELTA), "c must be a number, got 'x'"),
    (lambda: lower_bound_samples(float("nan"), EPS, DELTA), "c must be a number, got nan"),
    (lambda: run_distinguisher(EPS / 2, DELTA, 1, 0, c=None), "c must be a number, got None"),
    (lambda: run_distinguisher(None, DELTA, 1, 0), "epsilon must be a number, got None"),
    (lambda: run_distinguisher(EPS / 2, None, 1, 0), "delta must be a number, got None"),
    (lambda: run_distinguisher("0.05", DELTA, 1, 0), "epsilon must be a number, got '0.05'"),
    # a size, a count or a sample count that is not an int (a bool included)
    # is refused where it is given, not read later as a sequence length
    (lambda: RankedProfile(2.0, [((0, 1), 1)]), "m must be an integer, got 2.0"),
    (lambda: ApprovalProfile(2.0, [((0,), 1)]), "m must be an integer, got 2.0"),
    (lambda: ApprovalProfile("3", [((0,), 1)]), "m must be an integer, got '3'"),
    (lambda: RankedProfile(True, [((0,), 1)]), "m must be an integer, got True"),
    (lambda: RankedProfile(2, [((0, 1), True)]),
     "multiplicity must be a positive integer, got True"),
    (lambda: MovEstimate(F(1), 2.5, 0, F(1), EPS, DELTA),
     "sample count must be positive, got 2.5"),
    (lambda: MovEstimate(F(1), True, 0, F(1), EPS, DELTA),
     "sample count must be positive, got True"),
    (lambda: copeland_log_factor(2.5), "m must be an integer, got 2.5"),
    (lambda: guarantee_constant(Copeland(), 2.5), "m must be an integer, got 2.5"),
    (lambda: guarantee_constant(Scoring.borda(3), 2.5), "m must be an integer, got 2.5"),
    (lambda: run_distinguisher(EPS, DELTA, 1, 0, n="4"), "n must be an integer, got '4'"),
    # every converted argument is read by `movkit.core._read`: an infinity
    # (OverflowError), a zero denominator (ZeroDivisionError), NaN or text
    # (ValueError) and None (TypeError) are each an InputError naming it
    (lambda: Copeland(float("inf")), "copeland alpha must be rational: inf"),
    (lambda: Copeland("1/0"), "copeland alpha must be rational: '1/0'"),
    (lambda: Scoring((float("inf"), 0)), "score entries must be rationals: (inf, 0)"),
    (lambda: Scoring(("1/0", 0)), "score entries must be rationals: ('1/0', 0)"),
    (lambda: TwoCandidate(p="x", n=10), "p must be rational, got 'x'"),
    (lambda: TwoCandidate(p=None, n=10), "p must be rational, got None"),
    (lambda: TwoCandidate(p=float("inf"), n=10), "p must be rational, got inf"),
    (lambda: lower_bound_samples("1/0", EPS, DELTA), "c must be a number, got '1/0'"),
    (lambda: MovBounds("x", 1, "test"), "lower bound must be rational, got 'x'"),
    (lambda: MovBounds(float("inf"), 1, "test"), "lower bound must be rational, got inf"),
    (lambda: MovBounds(0, float("nan"), "test"), "upper bound must be rational, got nan"),
    # an integer, or a fraction's part, of more digits than str() converts
    # is shown by its sign and digit count, not refused by str()
    (lambda: Copeland(BIG), "copeland alpha must lie in [0, 1], got <5001 digits>"),
    (lambda: KApproval(-BIG), "k must be a positive integer, got -<5001 digits>"),
    (lambda: sample_size("kapproval", EPS, DELTA, 3, k=BIG), "k must be in [1, m-1], got k=<5001 digits>, m=3"),
    (lambda: lower_bound_samples(BIG, EPS, DELTA), "c must lie in [0, 1), got <5001 digits>"),
    (lambda: mov_brute_force(RANKED, Maximin(), -BIG), "budget must be at least 1, got -<5001 digits>"),
    (lambda: run_distinguisher(EPS / 2, DELTA, 1, 0, n=-BIG),
     "n must be even and at least 2, got -<5001 digits>"),
    (lambda: estimate_mov(VoteSource(RANKED), Maximin(), EPS, DELTA, 0, ell=-BIG),
     "sample count must be positive, got -<5001 digits>"),
    (lambda: RankedProfile(2, [((0, 1), -BIG)]), "multiplicity must be a positive integer, got -<5001 digits>"),
    (lambda: TwoCandidate(p=BIG, n=10), "p must lie in [0, 1], got <5001 digits>"),
    (lambda: TwoCandidate(p=F(1, 2), n=-BIG), "need n >= 1, got -<5001 digits>"),
    (lambda: MovBounds(-BIG, 1, "x"), "lower bound must be non-negative, got -<5001 digits>"),
    (lambda: MovBounds(BIG, 1, "x"), "bounds out of order: <5001 digits> > 1"),
    (lambda: RankedProfile(F(BIG), [((0,), 1)]), "m must be an integer, got Fraction(<5001 digits>, 1)"),
    (lambda: PlantedGap(winner=BIG, gap=2, n=10, m=2), "winner <5001 digits> out of range for m=2"),
    (lambda: PlantedGap(winner=0, gap=BIG, n=10, m=2), "gap must lie in [1, n], got gap=<5001 digits>, n=10"),
    (lambda: ranked_to_approval(RANKED, BIG, 0), "k must lie in [0, m], got k=<5001 digits>, m=3"),
    (lambda: run_distinguisher(EPS / 2, DELTA, 1, 0, n=BIG + 1),
     "n must be even and at least 2, got <5001 digits>"),
    (lambda: TwoCandidate(p=F(BIG + 1, BIG), n=10), "p must lie in [0, 1], got <5001 digits>/<5001 digits>"),
    (lambda: KApproval(F(BIG + 1, 7)), "k must be a positive integer, got Fraction(<5001 digits>, 7)"),
    # a tuple, list or set in an error text shows each entry so, in its repr
    (lambda: Scoring((1, BIG)),
     "score vector must be non-increasing: (Fraction(1, 1), Fraction(<5001 digits>, 1))"),
    (lambda: Ranking((0, BIG)), "not a permutation of 0..1: (0, <5001 digits>)"),
    (lambda: ApprovalBallot((-BIG,)),
     "approval ballot must contain candidate indices: frozenset({-<5001 digits>})"),
    (lambda: ApprovalProfile(2, [((0, BIG), 1)]), "ballot approves unknown candidate: [0, <5001 digits>]"),
    (lambda: Ranking((0, 0.5, BIG)),
     "ballot entries must be integer candidate indices: (0, 0.5, <5001 digits>)"),
    (lambda: sample_size("scoring", (BIG,), DELTA, 3), "epsilon must be a number, got (<5001 digits>,)"),
    # and every scalar
    (lambda: MovEstimate(F(-BIG), 1, 0, F(1), EPS, DELTA),
     "margin estimate cannot be negative: -<5001 digits>"),
    (lambda: MovEstimate(F(1), -BIG, 0, F(1), EPS, DELTA),
     "sample count must be positive, got -<5001 digits>"),
    (lambda: ImpartialCulture(n=-BIG, m=3), "need n >= 1 and m >= 1, got n=-<5001 digits>, m=3"),
    (lambda: generate(PlantedGap(winner=0, gap=1, n=BIG, m=2)),
     "gap 1 is unachievable with n=<5001 digits> and m=2 (parity)"),
    (lambda: lower_bound_samples(0, BIG, DELTA),
     "epsilon must lie strictly between 0 and 1, got <5001 digits>"),
    (lambda: sample_size("scoring", EPS, DELTA, -BIG), "m must be an integer >= 2, got -<5001 digits>"),
    (lambda: ranked_to_approval(RANKED, F(BIG), 0),
     'k must be an integer or "uniform", got Fraction(<5001 digits>, 1)'),
    (lambda: RankedProfile(BIG, [((0, 1), 1)]), "ballot (0, 1) does not rank all <5001 digits> candidates"),
    (lambda: ApprovalProfile(BIG, [((0,), 1)], names=["a"]), "expected <5001 digits> candidate names, got 1"),
    (lambda: apply_changes(RANKED, [(BIG, (0, 1, 2))]), "vote index <5001 digits> out of range 0..2"),
    (lambda: apply_changes(RankedProfile(2, [((0, 1), BIG)]), [(BIG - 1, (1, 0)), (BIG - 1, (1, 0))]),
     "vote index <5000 digits> changed twice"),
], ids=["scoring-entry", "copeland-alpha", "score-entry", "approval-index", "draw-count",
        "draw-count-float", "draw-count-bool", "budget-float", "budget-bool", "rule-kind",
        "kapproval-bool", "sample-size-kapproval-bool",
        "lower-bound-c", "distinguisher-c", "distinguisher-trials",
        "approval-depth", "approval-depth-float", "approval-depth-bool", "ic-bool-n",
        "estimate-seed-none", "draw-seed-float", "draw-seed-bool", "ic-seed-none",
        "approval-seed-text", "experiment-seed-none", "distinguisher-seed-float",
        "planted-bool-gap", "approval-of-approval", "tally-count-float",
        "tally-count-negative", "tally-ballot-length", "tally-needs-ranked", "tally-needs-approval",
        "work-limit-none", "work-limit-bool", "distinguisher-trials-float",
        "distinguisher-trials-text", "experiment-trials-bool", "experiment-trials-float",
        "bare-rule-winner", "bare-rule-guarantee", "bare-rule-spec",
        "copeland-one-candidate", "guarantee-maximin-one-candidate",
        "guarantee-bucklin-one-candidate", "guarantee-kapproval-one-candidate",
        "planted-parity", "planted-too-few-votes",
        "bounds-lower-negative", "bounds-upper-zero", "bounds-order", "estimate-negative",
        "estimate-no-samples", "epsilon-text", "delta-none", "epsilon-complex",
        "delta-decimal-below-float-range", "epsilon-decimal-nan", "epsilon-nan", "delta-inf",
        "lower-bound-c-none", "lower-bound-c-text", "lower-bound-c-nan", "distinguisher-c-none",
        "distinguisher-epsilon-none", "distinguisher-delta-none", "distinguisher-epsilon-text",
        "ranked-m-float", "approval-m-float", "approval-m-text", "ranked-m-bool",
        "multiplicity-bool", "estimate-ell-float", "estimate-ell-bool",
        "copeland-factor-float", "guarantee-copeland-float", "guarantee-scoring-float",
        "distinguisher-n-text", "copeland-alpha-inf", "copeland-alpha-zero-denominator",
        "score-entry-inf", "score-entry-zero-denominator", "two-candidate-p-text",
        "two-candidate-p-none", "two-candidate-p-inf", "lower-bound-c-zero-denominator",
        "bounds-lower-text", "bounds-lower-inf", "bounds-upper-nan",
        "copeland-alpha-huge", "kapproval-huge", "sample-size-k-huge", "lower-bound-c-huge",
        "budget-huge", "distinguisher-n-huge", "estimate-ell-huge", "multiplicity-huge",
        "two-candidate-p-huge", "two-candidate-n-huge", "bounds-lower-huge", "bounds-order-huge",
        "ranked-m-huge-fraction", "planted-winner-huge", "planted-gap-huge", "approval-depth-huge",
        "distinguisher-n-huge-odd", "two-candidate-p-huge-parts", "kapproval-huge-fraction",
        "score-vector-huge", "ranking-huge", "approval-ballot-huge", "approval-unknown-huge",
        "ballot-entries-huge", "epsilon-tuple-huge", "estimate-negative-huge", "estimate-ell-negative-huge",
        "ic-n-huge", "planted-parity-huge", "epsilon-huge", "sample-size-m-huge",
        "approval-depth-huge-fraction", "ranked-length-m-huge", "names-m-huge", "vote-index-huge",
        "vote-index-twice-huge"])
def test_library_input_fault_texts(make, message):
    with pytest.raises(InputError) as info:
        make()
    assert str(info.value) == message


@pytest.mark.parametrize("text", ["m 3\n1: a>>c\n", "m 3\n1: {a,,c}\n"],
                         ids=["ranked", "approval"])
def test_an_empty_candidate_token_names_its_line(text):
    with pytest.raises(ParseError) as info:
        parse_election(text)
    assert type(info.value) is ParseError
    assert (str(info.value), info.value.line) == ("line 2: empty candidate token", 2)


def test_an_unachievable_planted_gap_on_the_command_line():
    result = CliRunner().invoke(
        main, ["generate", "--model", "plantedgap", "--n", "10", "--m", "2", "--gap", "3"])
    assert result.exit_code == 2, result.output
    assert result.output.endswith(f"Error: {PARITY}\n"), result.output
