"""Sampling estimators, sample-size formulas, and the lower-bound formula."""

import dataclasses
import math
import random
import sys
from fractions import Fraction

import pytest
from mpmath import mp, mpf
from mpmath import ceil as mpceil
from mpmath import e as mpe
from mpmath import log as mplog
from mpmath import pi as mppi
from mpmath import sqrt as mpsqrt

from movkit import estimators
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
    Scoring,
    _multinomial,
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
    split_seed,
)

from generation_reference import ref_impartial_culture

F = Fraction
HALF = F(1, 2)
EPS = F(1, 10)
DELTA = F(1, 100)


# --- sample sizes ---------------------------------------------------------

def test_sample_size_frozen_values():
    assert sample_size("kapproval", EPS, DELTA, 5, 1) == 6358
    assert sample_size("scoring", EPS, DELTA, 5) == 8290
    assert sample_size("approval", EPS, DELTA, 5) == 8290
    assert sample_size("bucklin", EPS, DELTA, 5) == 8290
    assert sample_size("maximin", EPS, DELTA, 5) == 16579
    assert sample_size("copeland", EPS, DELTA, 5) == 66315


def test_sample_size_against_high_precision_arithmetic():
    """Recompute the ceilings at 50 decimal digits and compare."""
    mp.dps = 50
    eps, delta = mpf(1) / 10, mpf(1) / 100
    cases = [
        (12, 2 * 1 / delta, sample_size("kapproval", EPS, DELTA, 5, 1)),
        (12, 2 * 5 / delta, sample_size("scoring", EPS, DELTA, 5)),
        (24, 2 * 5 / delta, sample_size("maximin", EPS, DELTA, 5)),
        (96, 2 * 5 / delta, sample_size("copeland", EPS, DELTA, 5)),
    ]
    for factor, arg, got in cases:
        exact = (factor / eps**2) * mplog(arg)
        assert got == int(mpceil(exact))


def test_sample_size_monotone_in_m_and_validation():
    for kind in ["scoring", "bucklin", "approval", "maximin", "copeland"]:
        assert sample_size(kind, EPS, DELTA, 5) <= sample_size(kind, EPS, DELTA, 8)
    with pytest.raises(InputError):
        sample_size("scoring", F(0), DELTA, 5)
    with pytest.raises(InputError):
        sample_size("scoring", EPS, F(1), 5)
    with pytest.raises(InputError):
        sample_size("scoring", EPS, DELTA, 1)
    with pytest.raises(InputError):
        sample_size("scoring", EPS, DELTA, 5, 1)  # k only for kapproval
    with pytest.raises(InputError):
        sample_size("kapproval", EPS, DELTA, 5)  # kapproval needs k


def test_lower_bound_samples():
    value = lower_bound_samples(F(0), EPS, DELTA)
    assert format(value, ".10g") == "2.648232504"
    mp.dps = 50
    exact = (1 / (36 * (mpf(1) / 10) ** 2)) * mplog(1 / (8 * mpe * mpsqrt(mppi) * (mpf(1) / 100)))
    assert abs(value - float(exact)) < 1e-9

    # the clamp kicks in once delta reaches 1/(8 e sqrt(pi)) ~ 0.02594
    assert lower_bound_samples(F(0), EPS, F(26, 1000)) == 0.0
    assert lower_bound_samples(F(0), EPS, F(25, 1000)) > 0.0
    # multiplicative slack kills the bound as c -> 1
    assert lower_bound_samples(F(99, 100), EPS, DELTA) < value / 100
    # c is read as a Fraction, so a fraction's text is accepted
    assert lower_bound_samples("1/3", EPS, DELTA) == lower_bound_samples(F(1, 3), EPS, DELTA)


def test_guarantee_constants():
    assert guarantee_constant(KApproval(1), 5) == 0
    assert guarantee_constant(Scoring.borda(5), 5) == F(1, 3)
    assert guarantee_constant(Bucklin(), 5) == F(1, 3)
    assert guarantee_constant(Maximin(), 5) == F(1, 3)
    # ceil(log2 5) = 3 so the copeland constant is 7/9
    assert guarantee_constant(Copeland(HALF), 5) == F(7, 9)
    assert guarantee_constant(Copeland(HALF), 2) == F(3, 5)


# --- the vote source ------------------------------------------------------

def test_vote_source_draws_are_deterministic():
    p = RankedProfile(2, [((0, 1), 3), ((1, 0), 1)])
    src = VoteSource(p)
    a = src.draw_counts(10, 7)
    assert a == src.draw_counts(10, 7)
    assert a != src.draw_counts(10, 8)


def _recorded(calls, function):
    """``function``, appending each call's (args, result) to ``calls``."""
    def call(*args):
        calls.append((args, function(*args)))
        return calls[-1][1]
    return call


@pytest.mark.parametrize("profile, rule", [
    (ref_impartial_culture(2000, 4, 15), Copeland(HALF)),
    (ApprovalProfile(3, [((0,), 4), ((1, 2), 3), ((), 1)]), Approval()),
])
def test_estimate_tallies_the_drawn_vector_itself(profile, rule, monkeypatch):
    """`estimate_mov` draws once and hands `_add_votes` the very list the
    draw returned: no dict is built from it or read back into a list."""
    drawn, added, views = [], [], []
    monkeypatch.setattr(estimators, "_multinomial", _recorded(drawn, estimators._multinomial))
    monkeypatch.setattr(estimators, "_add_votes", _recorded(added, estimators._add_votes))
    monkeypatch.setattr(VoteSource, "draw_counts", _recorded(views, VoteSource.draw_counts))
    est = estimate_mov(VoteSource(profile), rule, EPS, DELTA, seed=3)
    assert len(drawn) == len(added) == len(views) == 1
    [(_, counts)], [((_, _, tallied), _)], [(_, view)] = drawn, added, views
    assert tallied is counts and sum(counts) == est.ell
    assert view == dict(filter(lambda item: item[1], enumerate(counts)))
    assert not isinstance(view, dict)


def test_vote_source_single_ballot():
    p = RankedProfile(2, [((0, 1), 1)])
    assert VoteSource(p).draw_counts(5, 0) == {0: 5}


def test_vote_source_frequency():
    # multiplicities (3, 1): the majority ballot should appear ~75% of the time
    p = RankedProfile(2, [((0, 1), 3), ((1, 0), 1)])
    assert p.votes[0][0] == Ranking((0, 1))
    top = VoteSource(p).draw_counts(1_000_000, 123)[0] / 1_000_000
    assert abs(top - 0.75) < 0.01


@pytest.mark.parametrize("seed", [0, 1, 7, 2**40 + 3])
def test_vote_source_draws_exactly_ell_from_repeated_entries(seed):
    # repeated entries are merged by the constructor, so no draw is lost to
    # two keys for one ballot
    repeated = [((0, 1), 5), ((0, 1), 5), ((1, 0), 2), ((0, 1), 1)]
    p = RankedProfile(2, repeated)
    assert p.votes == ((Ranking((0, 1)), 11), (Ranking((1, 0)), 2))
    counts = VoteSource(p).draw_counts(100, seed)
    assert sum(counts.values()) == 100
    # each sampled vote adds n/ell to one 1-approval score, so they sum to n
    est = estimate_mov(VoteSource(p), KApproval(1), EPS, DELTA, seed, ell=100)
    assert sum(est.estimated_scores.values()) == p.n
    approval = ApprovalProfile(3, [({0}, 4), ((0,), 4)])
    assert len(approval.votes) == 1 and VoteSource(approval).draw_counts(100, seed) == {0: 100}


@pytest.mark.parametrize("kind, votes, message", [
    (RankedProfile, [((0, 1), 1)], "ballot (0, 1) does not rank all 3 candidates"),
    (RankedProfile, [(ApprovalBallot(frozenset({0})), 1)],
     "ballot entries must be integer candidate indices: ApprovalBallot(approved=frozenset({0}))"),
    (ApprovalProfile, [({0, 3}, 1)], "ballot approves unknown candidate: [0, 3]"),
])
def test_vote_source_cannot_hold_a_ballot_its_profile_refuses(kind, votes, message):
    with pytest.raises(InputError) as info:
        VoteSource(kind(3, votes))
    assert str(info.value) == message


def test_draw_counts_moments():
    """Pre-registered: per-ballot mean within 4 standard errors of ell*p and
    variance within 5% of ell*p*(1-p) over 20,000 seeds. ell = 50 reaches
    the geometric branch; ell = 5,000 reaches BTRS and the p > 0.5 symmetry
    (the third ballot is drawn with p = 3/5 of what is left)."""
    weights = (5, 1, 3, 2)
    p = RankedProfile(3, zip([(0, 1, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)], weights))
    src = VoteSource(p)
    trials = 20_000
    for ell in (50, 5_000):
        samples = [src.draw_counts(ell, seed) for seed in range(trials)]
        for position, w in enumerate(weights):
            xs = [c.get(position, 0) for c in samples]
            q = w / p.n
            expected_var = ell * q * (1 - q)
            mean = sum(xs) / trials
            var = sum((x - mean) ** 2 for x in xs) / (trials - 1)
            assert abs(mean - ell * q) < 4 * math.sqrt(expected_var / trials)
            assert 0.95 <= var / expected_var <= 1.05


# every branch: n == 1, p > 0.5, the geometric method (also with log2(1 - p)
# rounding to 0), BTRS with and without its squeeze
BINOMIAL_GRID = [(n, q) for n in (1, 2, 7, 40, 1_000, 10**6)
                 for q in (1e-17, 0.001, 0.05, 0.3, 0.5, 0.7, 0.95, 0.999)]


def _binomial_cell(rng, n, q):
    """A Binomial(n, q) variate, drawn by `_multinomial` as the first of two
    cells, whose weights are the exact ratio of the float q and its rest."""
    num, den = q.as_integer_ratio()
    first, rest = _multinomial(rng, n, [num, den - num])
    assert first + rest == n
    return first


def test_binomial_stays_in_range():
    for n, q in BINOMIAL_GRID:
        for seed in range(20):
            assert 0 <= _binomial_cell(random.Random(seed), n, q) <= n


@pytest.mark.skipif(sys.version_info < (3, 12), reason="random.binomialvariate is new in 3.12")
def test_binomial_matches_binomialvariate():
    for n, q in BINOMIAL_GRID:
        for seed in range(50):
            a, b = random.Random(seed), random.Random(seed)
            assert _binomial_cell(a, n, q) == b.binomialvariate(n, q)
            assert a.random() == b.random()


def test_split_seed_is_stable():
    assert split_seed(0, 1) == 16294208416658607535
    assert split_seed(42, 7) == 4028864712777624925
    assert split_seed(0, 1) != split_seed(1, 0)


# --- zero-variance estimator checks --------------------------------------

def test_scoring_estimate_unanimous():
    p = RankedProfile(2, [((0, 1), 4)])
    src = VoteSource(p)
    est = estimate_mov(src, Scoring((1, 0)), EPS, DELTA, 0)
    assert est.m_bar == F(8, 3)
    assert est.estimated_scores == {0: F(4), 1: F(0)}
    assert est.c == F(1, 3)
    assert est.ell == sample_size("scoring", EPS, DELTA, 2)


def test_scoring_estimate_invariant_under_affine_vector_change():
    p = RankedProfile(3, [((0, 1, 2), 3), ((1, 2, 0), 2)])
    src = VoteSource(p)
    a = estimate_mov(src, Scoring((F(2), F(1), F(0))), EPS, DELTA, 5)
    b = estimate_mov(src, Scoring((F(7), F(4), F(1))), EPS, DELTA, 5)
    assert a.m_bar == b.m_bar


def test_kapproval_estimate_unanimous():
    p = RankedProfile(2, [((0, 1), 4)])
    est = estimate_kapproval(VoteSource(p), 1, EPS, DELTA, 0)
    assert est.m_bar == 2
    assert est.c == 0


def test_approval_estimate_unanimous_and_tied():
    single = ApprovalProfile(2, [((0,), 4)])
    est = estimate_mov(VoteSource(single), Approval(), EPS, DELTA, 0)
    assert est.m_bar == 2
    both = ApprovalProfile(2, [((0, 1), 4)])
    est = estimate_mov(VoteSource(both), Approval(), EPS, DELTA, 0)
    # the sampled gap is 0; the margin of a tie is at least 1
    assert est.m_bar == 1


def test_bucklin_estimate_unanimous():
    p = RankedProfile(2, [((0, 1), 4)])
    est = estimate_mov(VoteSource(p), Bucklin(), EPS, DELTA, 0)
    assert est.m_bar == F(10, 3)


def test_bucklin_estimate_of_a_sampled_full_tie():
    # with only two sampled votes a perfect split leaves no separating level,
    # a level gap of 0, so the estimate is 1, the margin of a tie; the first
    # seed whose two draws split 1-1 produces it
    p = RankedProfile(2, [((0, 1), 1), ((1, 0), 1)])
    src = VoteSource(p)
    seed = next(s for s in range(100) if list(src.draw_counts(2, s).values()) == [1, 1])
    est = estimate_mov(src, Bucklin(), EPS, DELTA, seed, ell=2)
    assert est.estimated_scores == {0: (1, 2), 1: (1, 2)}
    assert est.m_bar == 1


def test_maximin_estimate_unanimous():
    p = RankedProfile(3, [((0, 1, 2), 4)])
    est = estimate_mov(VoteSource(p), Maximin(), EPS, DELTA, 0)
    assert est.m_bar == F(8, 3)
    assert est.pair_margins is not None
    assert est.pair_margins[0][1] == 4


def test_estimate_payload_is_built_once_from_the_kept_tally(monkeypatch):
    p = RankedProfile(3, [((0, 1, 2), 3), ((1, 2, 0), 2)])
    est = estimate_mov(VoteSource(p), Maximin(), EPS, DELTA, 4)
    calls = []
    read = estimators._sample_payload
    monkeypatch.setattr(estimators, "_sample_payload",
                        lambda *sample: calls.append(sample) or read(*sample))
    scores, margins = est.estimated_scores, est.pair_margins
    assert est.estimated_scores is scores and est.pair_margins is margins
    assert len(calls) == 1 and margins is not None
    # a copy with a new estimate reads the same payload from the same tally
    moved = dataclasses.replace(est, m_bar=F(7))
    assert (moved.estimated_scores, moved.pair_margins) == (scores, margins)
    assert len(calls) == 2
    # the payload is neither in the repr nor in equality
    assert "estimated_scores" not in repr(est) and "_sample" not in repr(est)
    bare = MovEstimate(est.m_bar, est.ell, est.seed, est.c, est.epsilon, est.delta)
    assert bare == est and repr(bare) == repr(est)
    assert (bare.estimated_scores, bare.pair_margins) == ({}, None)


def test_copeland_estimate_unanimous_two_candidates():
    p = RankedProfile(2, [((0, 1), 4)])
    est = estimate_mov(VoteSource(p), Copeland(HALF), EPS, DELTA, 0)
    # zero-variance draws make the sampled relative margin exact: 2 at n=4
    assert est.m_bar == F(8, 5) * 2
    assert est.c == F(3, 5)


def test_copeland_estimate_exact_on_three_candidate_example():
    p = RankedProfile(3, [((0, 1, 2), 2), ((1, 2, 0), 1)])
    est = estimate_mov(VoteSource(p), Copeland(HALF), EPS, DELTA, 0)
    assert est.m_bar == F(12, 7)
    assert est.c == F(5, 7)


def test_copeland_tied_profile_estimates_zero():
    p = RankedProfile(2, [((0, 1), 1), ((1, 0), 1)])
    est = estimate_mov(VoteSource(p), Copeland(HALF), EPS, DELTA, 3)
    # sampled pairwise margins may wobble, but the tied profile at even ell
    # frequently yields 0; at minimum it is a valid non-negative estimate
    assert est.m_bar >= 0


def test_estimate_mov_dispatch():
    p = RankedProfile(2, [((0, 1), 4)])
    src = VoteSource(p)
    assert estimate_mov(src, KApproval(1), EPS, DELTA, 0).m_bar == 2
    assert estimate_mov(src, Bucklin(), EPS, DELTA, 0).m_bar == F(10, 3)
    assert estimate_mov(src, Scoring((1, 0)), EPS, DELTA, 0).m_bar == F(8, 3)


# --- statistical behaviour ------------------------------------------------

def test_score_estimates_are_unbiased():
    """Sample means converge to the exact scores on a fixed profile."""
    p = RankedProfile(3, [((0, 1, 2), 3), ((1, 2, 0), 2)])
    src = VoteSource(p)
    exact = winner_set(p, Scoring.borda(3)).scores
    ell = 60_000
    est = estimate_mov(src, Scoring.borda(3), EPS, DELTA, 99, ell=ell)
    n = p.n
    for x in range(3):
        # a borda draw changes the score by at most alpha1 * n per sample
        se = 2 * n / math.sqrt(ell)
        assert abs(float(est.estimated_scores[x] - exact[x])) < 3 * se


def test_pair_margin_estimates_are_unbiased_and_antisymmetric():
    p = RankedProfile(3, [((0, 1, 2), 3), ((1, 2, 0), 2)])
    src = VoteSource(p)
    d = rule_tally(p, Maximin()).net()
    est = estimate_mov(src, Maximin(), EPS, DELTA, 17, ell=60_000)
    for x in range(3):
        for y in range(3):
            if x == y:
                continue
            assert est.pair_margins[x][y] == -est.pair_margins[y][x]
            se = p.n / math.sqrt(60_000)
            assert abs(float(est.pair_margins[x][y] - d[x][y])) < 3 * se


def test_seed_determinism_across_all_estimators():
    p = RankedProfile(3, [((0, 1, 2), 3), ((1, 2, 0), 2)])
    src = VoteSource(p)
    ap = ApprovalProfile(3, [((0,), 2), ((0, 1), 2), ((2,), 1)])
    asrc = VoteSource(ap)
    runs = [
        lambda s: estimate_mov(src, Scoring.borda(3), EPS, DELTA, s),
        lambda s: estimate_kapproval(src, 1, EPS, DELTA, s),
        lambda s: estimate_mov(asrc, Approval(), EPS, DELTA, s),
        lambda s: estimate_mov(src, Bucklin(), EPS, DELTA, s),
        lambda s: estimate_mov(src, Maximin(), EPS, DELTA, s),
        lambda s: estimate_mov(src, Copeland(HALF), EPS, DELTA, s),
    ]
    for run in runs:
        assert run(11) == run(11)
        assert run(11) != run(12)


def test_ell_override_recomputes_the_guarantee():
    p = RankedProfile(2, [((0, 1), 3), ((1, 0), 1)])
    src = VoteSource(p)
    est = estimate_kapproval(src, 1, EPS, DELTA, 0, ell=100)
    assert est.ell == 100
    # inverting ceil((12/e^2) ln(2k/delta)) at ell=100 gives e ~ 0.797
    assert abs(float(est.epsilon) - math.sqrt(12 / 100 * math.log(2 / 0.01))) < 1e-12
    assert est.delta == DELTA

    default = estimate_kapproval(src, 1, EPS, DELTA, 0)
    assert default.epsilon == EPS


def test_estimators_reject_bad_parameters():
    p = RankedProfile(2, [((0, 1), 2)])
    src = VoteSource(p)
    with pytest.raises(InputError):
        estimate_kapproval(src, 2, EPS, DELTA, 0)
    with pytest.raises(InputError):
        estimate_mov(src, Scoring((1, 0)), F(0), DELTA, 0)
    with pytest.raises(InputError):
        estimate_mov(src, Copeland(F(2)), EPS, DELTA, 0)
    with pytest.raises(InputError):
        estimate_kapproval(src, 1, EPS, DELTA, 0, ell=0)


def test_maximin_three_plus_two_expectation():
    """E-level margin estimate on the 3+2 profile is 2/3 of the exact scores."""
    p = RankedProfile(3, [((0, 1, 2), 3), ((1, 2, 0), 2)])
    exact = winner_set(p, Maximin()).scores
    assert (exact[0], exact[1], exact[2]) == (1, -1, -5)
    src = VoteSource(p)
    total = F(0)
    reps = 200
    for i in range(reps):
        est = estimate_mov(src, Maximin(), EPS, DELTA, split_seed(400, i), ell=4000)
        second, best = sorted(est.estimated_scores.values())[-2:]
        # the paper's statistic, before the projection onto [1, n]
        total += (1 - est.c) * (best - second) / 2
    mean = total / reps
    # E[(1 - c) * gap / 2] = (s(w) - s(z))/3 = 2/3; allow generous monte-carlo slack
    assert abs(float(mean - F(2, 3))) < 0.12


def test_copeland_estimate_clamps_sampled_top_tie_at_zero():
    # the first seed whose sampled Copeland scores tie at the top (1 and 3
    # both score 2); the raw relative margin of the canonical winner over
    # the other is negative and raised
    p = ref_impartial_culture(2000, 4, 15)
    src = VoteSource(p)
    estimates = (estimate_mov(src, Copeland(HALF), F(1, 10), F(1, 20), s) for s in range(100))
    est = next(e for e in estimates if e.estimated_scores[1] == e.estimated_scores[3] == 2)
    assert est.estimated_scores[1] == est.estimated_scores[3] == 2
    assert est.m_bar == 1
