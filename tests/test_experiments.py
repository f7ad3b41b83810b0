"""Experiment harness: rule specs, generator specs, policies, summaries."""

import dataclasses
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from movkit.core import (
    Approval,
    ApprovalProfile,
    Bucklin,
    Copeland,
    InputError,
    KApproval,
    Maximin,
    RankedProfile,
    Scoring,
)
from movkit.estimators import MovEstimate, VoteSource, estimate_mov
from movkit.experiments import (
    BoundsOnlyPolicy,
    BruteForcePolicy,
    ClosedFormPolicy,
    ExperimentConfig,
    _judge,
    parse_generator,
    pass_threshold,
    resolve_rule,
    rule_to_spec,
    run_distinguisher,
    run_experiment,
)
from movkit.io_formats import CSV_COLUMNS, write_experiment_csv
from movkit.oracle import mov_bounds, mov_brute_force

F = Fraction


def test_resolve_rule_variants():
    assert resolve_rule("plurality", 3) == KApproval(1)
    assert resolve_rule("kapproval:2", 3) == KApproval(2)
    assert resolve_rule("approval", 3) == Approval()
    assert resolve_rule("bucklin", 3) == Bucklin()
    assert resolve_rule("maximin", 3) == Maximin()
    assert resolve_rule("copeland", 3) == Copeland(F(1, 2))
    assert resolve_rule("copeland:1/4", 3) == Copeland(F(1, 4))
    assert resolve_rule(" Copeland: ", 3) == Copeland(F(1, 2))
    assert resolve_rule("MAXIMIN", 3) == Maximin()
    borda = resolve_rule("borda", 3)
    assert isinstance(borda, Scoring) and borda.alphas == (F(2), F(1), F(0))
    custom = resolve_rule("scoring:3,1,0", 3)
    assert isinstance(custom, Scoring) and custom.alphas == (F(3), F(1), F(0))


@pytest.mark.parametrize("spec, message", [
    ("", "unknown rule ''"),
    ("unknown", "unknown rule 'unknown'"),
    ("plurality:1", "unknown rule 'plurality:1'"),
    ("borda:x", "unknown rule 'borda:x'"),
    ("kapproval", "kapproval needs an integer k, got 'kapproval'"),
    ("kapproval:x", "kapproval needs an integer k, got 'kapproval:x'"),
    ("kapproval:0", "k must be a positive integer, got 0"),
    ("copeland:x", "copeland needs a rational alpha, got 'copeland:x'"),
    ("copeland:1/0", "copeland needs a rational alpha, got 'copeland:1/0'"),
    ("copeland:2", "copeland alpha must lie in [0, 1], got 2"),
    ("scoring:", "scoring needs comma-separated rationals, got 'scoring:'"),
    ("scoring:1,x", "scoring needs comma-separated rationals, got 'scoring:1,x'"),
    ("scoring:2,1", "score vector has 2 entries for 3 candidates"),
    ("scoring:1,0", "score vector has 2 entries for 3 candidates"),
])
def test_resolve_rule_rejects_malformed_specs(spec, message):
    with pytest.raises(InputError) as info:
        resolve_rule(spec, 3)
    assert str(info.value) == message


def test_rule_to_spec_round_trips():
    for spec in ["kapproval:1", "kapproval:2", "approval", "bucklin", "maximin",
                 "copeland:1/2", "copeland:1/4", "scoring:2,1,0"]:
        rule = resolve_rule(spec, 3)
        assert resolve_rule(rule_to_spec(rule), 3) == rule


def test_parse_generator_ic():
    factory = parse_generator("ic:n=8,m=3")
    a = factory(1)
    b = factory(1)
    assert a == b and a.n == 8 and a.m == 3
    assert factory(2) != a


def test_parse_generator_plantedgap_and_twocandidate():
    planted = parse_generator("plantedgap:n=10,m=2,gap=4")(0)
    assert planted.n == 10
    two = parse_generator("twocandidate:n=10,p=1/2")(3)
    assert two.m == 2


def test_parse_generator_approval_conversion():
    prof = parse_generator("ic:n=6,m=3,approval=uniform")(5)
    from movkit.core import ApprovalProfile
    assert isinstance(prof, ApprovalProfile)
    fixed = parse_generator("plantedgap:n=10,m=3,gap=2,approval=2")(5)
    assert all(len(b.approved) == 2 for b, _ in fixed.votes)


def test_parse_generator_rejects_unknown_keys():
    for bad in ["ic:n=5", "ic:n=5,m=3,extra=1", "nope:n=5,m=2", "plantedgap:n=10,m=2"]:
        with pytest.raises(InputError):
            parse_generator(bad)


@pytest.mark.parametrize("spec, message", [
    ("ic", "ic needs n="),
    ("ic:n", "bad ic parameter 'n'"),
    ("ic:n=1,n=2", "duplicate ic parameter 'n'"),
    ("twocandidate:n=4", "twocandidate needs p="),
    ("twocandidate:n=4,p=x", "twocandidate parameter p must be rational"),
    ("twocandidate:n=4,p=1/2,approval=x", 'approval depth must be an integer or "uniform", got \'x\''),
])
def test_parse_generator_fault_texts(spec, message):
    with pytest.raises(InputError) as info:
        parse_generator(spec)
    assert str(info.value) == message


def test_pass_threshold_formula():
    assert pass_threshold(F(1, 20), 200) == pytest.approx(10 + 2 * math.sqrt(0.05 * 0.95 * 200))
    assert pass_threshold(F(1, 20), 0) == 0


def test_run_experiment_brute_policy_counts_and_rows():
    config = ExperimentConfig(
        rule_spec="plurality", epsilon=F(1, 10), delta=F(1, 20), trials=4,
        base_seed=3, policy=BruteForcePolicy(), generator="plantedgap:n=40,m=2,gap=10",
    )
    result = run_experiment(config)
    assert result.summary.trials == 4
    assert result.summary.usable == 4
    assert len(result.rows) == 4
    assert [r.trial for r in result.rows] == [1, 2, 3, 4]
    for r in result.rows:
        assert r.mov_exact == 5  # closed form on the planted gap of 10
        assert r.rule == "kapproval:1"
        assert r.within_guarantee is True


def test_run_experiment_is_deterministic():
    config = ExperimentConfig(
        rule_spec="maximin", epsilon=F(1, 10), delta=F(1, 20), trials=3,
        base_seed=7, policy=BruteForcePolicy(), generator="ic:n=10,m=3",
    )
    assert run_experiment(config).rows == run_experiment(config).rows


def test_run_experiment_budget_exclusion():
    # budget 1 cannot certify MoV = 5, so every trial lands in excluded
    config = ExperimentConfig(
        rule_spec="plurality", epsilon=F(1, 10), delta=F(1, 20), trials=2,
        base_seed=0, policy=BruteForcePolicy(budget=1),
        generator="plantedgap:n=40,m=2,gap=10",
    )
    result = run_experiment(config)
    assert result.summary.usable == 0
    assert result.summary.excluded == 2
    for r in result.rows:
        assert r.mov_exact is None and r.within_guarantee is None


def test_run_experiment_closed_form_policy_requires_compatible_rule():
    with pytest.raises(InputError):
        ExperimentConfig(
            rule_spec="maximin", epsilon=F(1, 10), delta=F(1, 20), trials=1,
            base_seed=0, policy=ClosedFormPolicy(), generator="ic:n=5,m=3",
        )


def test_run_experiment_bounds_policy_populates_interval():
    config = ExperimentConfig(
        rule_spec="copeland:1/2", epsilon=F(1, 10), delta=F(1, 20), trials=2,
        base_seed=5, policy=BoundsOnlyPolicy(), generator="plantedgap:n=30,m=3,gap=6",
    )
    result = run_experiment(config)
    for r in result.rows:
        assert r.mov_exact is None
        assert r.mov_lower is not None and r.mov_upper is not None
        assert r.within_guarantee is not None


def test_run_experiment_rejects_an_unknown_policy():
    policy = object()
    with pytest.raises(InputError) as info:
        ExperimentConfig(
            rule_spec="plurality", epsilon=F(1, 10), delta=F(1, 20), trials=1,
            base_seed=0, policy=policy, generator="ic:n=5,m=3",
        )
    assert str(info.value) == f"unknown oracle policy: {policy!r}"


def two_branch_judge(est, n, mov_exact, lower, upper):
    """The judgement as an exact test and a separate sandwich test."""
    if mov_exact is not None:
        err = abs(est.m_bar - mov_exact)
        return err, err <= est.c * Fraction(mov_exact) + est.epsilon * n
    if lower is not None:
        margin = est.c * upper + est.epsilon * n
        within = (est.m_bar >= lower - margin) and (est.m_bar <= upper + margin)
        if est.m_bar < lower:
            err = lower - est.m_bar
        elif est.m_bar > upper:
            err = est.m_bar - upper
        else:
            err = Fraction(0)
        return err, within
    return None, None


@st.composite
def judge_cases(draw):
    n = draw(st.integers(1, 60))
    ends = sorted(draw(st.lists(st.integers(1, n), min_size=2, max_size=2)))
    kind = draw(st.sampled_from(["exact", "sandwich", "excluded"]))
    if kind == "exact":
        reference = (ends[0], None, None)
    elif kind == "sandwich":
        reference = (None, ends[0], ends[1])
    else:
        reference = (None, None, None)
    m_bar = draw(st.fractions(min_value=0, max_value=2 * n, max_denominator=12))
    est = MovEstimate(
        m_bar=m_bar, ell=1, seed=0,
        c=draw(st.sampled_from([F(0), F(1, 3), F(5, 7)])),
        epsilon=draw(st.fractions(min_value=F(1, 100), max_value=F(1, 2), max_denominator=100)),
        delta=F(1, 20),
    )
    return est, n, reference


@settings(max_examples=300, deadline=None)
@given(judge_cases())
def test_judge_matches_the_two_branch_judgement(case):
    est, n, reference = case
    expected = two_branch_judge(est, n, *reference)
    got = _judge(est, n, *reference)
    assert got == expected
    assert type(got[1]) is type(expected[1])
    if reference != (None, None, None):
        assert type(got[0]) is Fraction


def test_judge_bounds_only_bucklin_full_tie():
    # tied at every level below m, so there is no level gap: upper = n
    profile = RankedProfile(2, [((0, 1), 1), ((1, 0), 1)])
    bounds = mov_bounds(profile, Bucklin())
    assert (bounds.lower, bounds.upper) == (1, 2)
    est = estimate_mov(VoteSource(profile), Bucklin(), F(1, 10), F(1, 20), 3)
    assert bounds.lower <= est.m_bar <= bounds.upper
    err, within = _judge(est, profile.n, None, bounds.lower, bounds.upper)
    assert (err, within) == (0, True) and type(err) is Fraction
    # outside the sandwich the error is the distance to its nearer end
    low = dataclasses.replace(est, m_bar=F(1, 2))
    err, within = _judge(low, profile.n, None, bounds.lower, bounds.upper)
    assert (err, within) == (F(1, 2), True) and type(err) is Fraction
    high = dataclasses.replace(est, m_bar=F(10**9))
    err, within = _judge(high, profile.n, None, bounds.lower, bounds.upper)
    assert (err, within) == (10**9 - 2, False) and type(err) is Fraction
    config = ExperimentConfig(
        rule_spec="bucklin", epsilon=F(1, 10), delta=F(1, 20), trials=3,
        base_seed=1, policy=BoundsOnlyPolicy(), profile=profile,
    )
    result = run_experiment(config)
    assert all(r.mov_upper == 2 and r.within_guarantee for r in result.rows)
    assert (result.summary.usable, result.summary.violations) == (3, 0)


def test_run_experiment_fixed_profile():
    profile = RankedProfile(2, [((0, 1), 30), ((1, 0), 10)])
    config = ExperimentConfig(
        rule_spec="plurality", epsilon=F(1, 10), delta=F(1, 20), trials=3,
        base_seed=2, policy=ClosedFormPolicy(), profile=profile,
    )
    result = run_experiment(config)
    assert all(r.mov_exact == 10 for r in result.rows)
    assert result.summary.passed


def test_closed_form_policy_approval_matches_the_exact_search():
    # approval scores 9, 5, 2: a unique winner, so the closed form answers
    profile = ApprovalProfile(3, [((0, 1), 4), ((0,), 5), ((1, 2), 1), ((2,), 1)])
    config = ExperimentConfig(
        rule_spec="approval", epsilon=F(1, 10), delta=F(1, 20), trials=3,
        base_seed=6, policy=ClosedFormPolicy(), profile=profile,
    )
    result = run_experiment(config)
    exact = mov_brute_force(profile, Approval(), profile.n).value
    assert exact == 2
    assert all(r.mov_exact == exact and r.within_guarantee is not None for r in result.rows)
    assert (result.summary.usable, result.summary.excluded) == (3, 0)


@pytest.mark.parametrize("spec, profile", [
    # every candidate is among the top two of two of the three rankings
    ("kapproval:2", RankedProfile(3, [((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1)])),
    # approval scores 2, 2, 1
    ("approval", ApprovalProfile(3, [((0, 1), 2), ((2,), 1)])),
])
def test_closed_form_policy_excludes_tied_profiles(spec, profile):
    config = ExperimentConfig(
        rule_spec=spec, epsilon=F(1, 10), delta=F(1, 20), trials=2,
        base_seed=3, policy=ClosedFormPolicy(), profile=profile,
    )
    result = run_experiment(config)
    assert all(r.mov_exact is None and r.within_guarantee is None for r in result.rows)
    lines = write_experiment_csv(result.rows).splitlines()
    exact_col = CSV_COLUMNS.index("mov_exact")
    within_col = CSV_COLUMNS.index("within_guarantee")
    for line in lines[1:]:
        cells = line.split(",")
        assert cells[exact_col] == "" and cells[within_col] == ""
    assert len(lines) == 3
    s = result.summary
    assert (s.usable, s.excluded, s.violations, s.passed) == (0, 2, 0, True)


def test_run_experiment_approval_rule_converts_ranked_generator():
    config = ExperimentConfig(
        rule_spec="approval", epsilon=F(1, 10), delta=F(1, 20), trials=2,
        base_seed=4, policy=BoundsOnlyPolicy(), generator="ic:n=12,m=3",
    )
    result = run_experiment(config)
    assert result.summary.trials == 2


def test_experiment_config_validation():
    with pytest.raises(InputError):
        ExperimentConfig(
            rule_spec="plurality", epsilon=F(1, 10), delta=F(1, 20), trials=0,
            base_seed=0, policy=BruteForcePolicy(), generator="ic:n=5,m=2",
        )
    with pytest.raises(InputError):
        ExperimentConfig(
            rule_spec="plurality", epsilon=F(1, 10), delta=F(1, 20), trials=1,
            base_seed=0, policy=BruteForcePolicy(),
        )


def test_run_distinguisher_validation_and_payload():
    result = run_distinguisher(F(1, 20), F(1, 20), 2, 0, n=100)
    assert result.trials == 2
    assert result.planted_fraction == F(4, 5)
    assert result.threshold == F(3, 2) * F(1, 20) * 100
    assert 0 <= result.error_rate <= 1
    with pytest.raises(InputError):
        run_distinguisher(F(1, 20), F(1, 20), 1, 0, n=101)  # odd population
    with pytest.raises(InputError):
        run_distinguisher(F(1, 5), F(1, 20), 1, 0)  # planted fraction above 1


@pytest.mark.parametrize("seed", range(5))
def test_distinguish_with_one_sample_reads_every_sample_as_planted(seed):
    # one drawn vote is unanimous, so both populations estimate n/2, above
    # the threshold: no planted error, every tied sample misread
    result = run_distinguisher(F(1, 20), F(1, 20), 20, seed, budget=1)
    assert (result.errors_x, result.errors_y, result.error_rate) == (0, 20, 0.5)


@pytest.mark.parametrize("seed", range(5))
def test_distinguish_with_two_samples_misreads_split_planted_samples(seed):
    # two drawn votes split between a and b estimate a margin of 1, below the
    # threshold, so some planted samples read as tied
    result = run_distinguisher(F(1, 20), F(1, 20), 20, seed, budget=2)
    assert result.errors_x > 0
