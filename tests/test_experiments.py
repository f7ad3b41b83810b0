"""Experiment harness: rule specs, generator specs, policies, summaries."""

import dataclasses
import math
from fractions import Fraction

import pytest

from movkit.core import (
    Approval,
    Bucklin,
    Copeland,
    InputError,
    KApproval,
    Maximin,
    Scoring,
    ranked_profile,
)
from movkit.estimators import VoteSource, estimate_mov
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
from movkit.oracle import mov_bounds

F = Fraction


def test_resolve_rule_variants():
    assert resolve_rule("plurality", 3) == KApproval(1)
    assert resolve_rule("kapproval:2", 3) == KApproval(2)
    assert resolve_rule("approval", 3) == Approval()
    assert resolve_rule("bucklin", 3) == Bucklin()
    assert resolve_rule("maximin", 3) == Maximin()
    assert resolve_rule("copeland", 3) == Copeland(F(1, 2))
    assert resolve_rule("copeland:1/4", 3) == Copeland(F(1, 4))
    borda = resolve_rule("borda", 3)
    assert isinstance(borda, Scoring) and borda.vector.alphas == (F(2), F(1), F(0))
    custom = resolve_rule("scoring:3,1,0", 3)
    assert isinstance(custom, Scoring) and custom.vector.alphas == (F(3), F(1), F(0))


def test_resolve_rule_rejects_malformed_specs():
    for bad in ["", "unknown", "kapproval", "kapproval:0", "scoring:1,0", "copeland:2"]:
        with pytest.raises(InputError):
            resolve_rule(bad, 3)


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


def test_judge_bounds_only_bucklin_full_tie():
    # tied at every level below m, so there is no level gap: upper = n
    profile = ranked_profile(2, [((0, 1), 1), ((1, 0), 1)])
    bounds = mov_bounds(profile, Bucklin())
    assert (bounds.lower, bounds.upper) == (1, 2)
    est = estimate_mov(VoteSource.from_profile(profile), Bucklin(), F(1, 10), F(1, 20), 3)
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
    profile = ranked_profile(2, [((0, 1), 30), ((1, 0), 10)])
    config = ExperimentConfig(
        rule_spec="plurality", epsilon=F(1, 10), delta=F(1, 20), trials=3,
        base_seed=2, policy=ClosedFormPolicy(), profile=profile,
    )
    result = run_experiment(config)
    assert all(r.mov_exact == 10 for r in result.rows)
    assert result.summary.passed


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
