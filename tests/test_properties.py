"""Property tests: the integer positional tallies against plain Fraction
references, and candidate-token resolution in the parser."""

import itertools
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from movkit.core import (
    KApproval,
    ScoreVector,
    Scoring,
    positional_scores,
    ranked_profile,
    winner_set,
)
from movkit.estimators import VoteSource, estimate_scoring
from movkit.io_formats import parse_election
from movkit.oracle import mov_bounds

F = Fraction
PROPERTY_SETTINGS = settings(max_examples=60, deadline=None)


@st.composite
def profiles(draw, m):
    orders = list(itertools.permutations(range(m)))
    ballots = draw(st.lists(st.sampled_from(orders), min_size=1, max_size=8))
    mults = draw(st.lists(st.integers(1, 6), min_size=len(ballots), max_size=len(ballots)))
    return ranked_profile(m, zip(ballots, mults))


@st.composite
def profiles_with_vectors(draw):
    m = draw(st.integers(2, 5))
    entries = draw(st.lists(
        st.fractions(min_value=0, max_value=5, max_denominator=7), min_size=m, max_size=m,
    ).map(lambda xs: sorted(xs, reverse=True)).filter(lambda xs: xs[0] > xs[-1]))
    return draw(profiles(m)), ScoreVector(tuple(entries))


def _ref_scores(votes, alphas):
    scores = {c: F(0) for c in range(len(alphas))}
    for ballot, mult in votes:
        for pos, cand in enumerate(ballot.order):
            scores[cand] += mult * alphas[pos]
    return scores


def _ref_winners(scores):
    best = max(scores.values())
    return tuple(c for c in sorted(scores) if scores[c] == best)


def _ref_normalized(alphas):
    shifted = [a - alphas[-1] for a in alphas]
    scale = [a for a in shifted if a > 0][-1]
    return [a / scale for a in shifted]


def _ref_top_two_gap(scores):
    ordered = sorted(scores, key=lambda c: (-scores[c], c))
    return scores[ordered[0]] - scores[ordered[1]]


FRACTIONAL = (
    ranked_profile(3, [((0, 1, 2), 2), ((2, 1, 0), 3), ((1, 0, 2), 1)]),
    ScoreVector((F(3, 2), F(1, 3), F(0))),
)


@PROPERTY_SETTINGS
@given(profiles_with_vectors())
@example(FRACTIONAL)
def test_positional_scores_and_winners_match_fraction_reference(case):
    profile, vector = case
    expected = _ref_scores(profile.votes, vector.alphas)
    assert positional_scores(profile, vector) == expected
    result = winner_set(profile, Scoring(vector))
    assert result.scores == expected
    assert result.winners == _ref_winners(expected)


@PROPERTY_SETTINGS
@given(st.integers(3, 5).flatmap(lambda m: st.tuples(profiles(m), st.integers(1, m - 1))))
def test_kapproval_winners_match_fraction_reference(case):
    profile, k = case
    alphas = [F(1)] * k + [F(0)] * (profile.m - k)
    expected = _ref_scores(profile.votes, alphas)
    result = winner_set(profile, KApproval(k))
    assert result.scores == expected
    assert all(type(s) is int for s in result.scores.values())
    assert result.winners == _ref_winners(expected)


@PROPERTY_SETTINGS
@given(profiles_with_vectors())
@example(FRACTIONAL)
def test_scoring_bounds_match_fraction_reference(case):
    profile, vector = case
    alphas = _ref_normalized(vector.alphas)
    gap = _ref_top_two_gap(_ref_scores(profile.votes, alphas))
    bounds = mov_bounds(profile, Scoring(vector))
    assert bounds.lower == gap / (2 * alphas[0])
    assert bounds.upper == gap / alphas[0] + 1


@PROPERTY_SETTINGS
@given(profiles_with_vectors(), st.integers(0, 2**32), st.integers(1, 40))
@example(FRACTIONAL, 7, 11)
def test_scoring_estimate_matches_fraction_reference(case, seed, ell):
    profile, vector = case
    source = VoteSource.from_profile(profile)
    alphas = _ref_normalized(vector.alphas)
    raw = _ref_scores(source.draw_counts(ell, seed).items(), alphas)
    sbar = {c: F(profile.n, ell) * s for c, s in raw.items()}
    est = estimate_scoring(source, vector, F(1, 10), F(1, 20), seed, ell=ell)
    assert est.estimated_scores == sbar
    assert est.m_bar == _ref_top_two_gap(sbar) / (F(3, 2) * alphas[0])


@PROPERTY_SETTINGS
@given(st.integers(2, 6).flatmap(lambda m: st.tuples(
    st.permutations([str(c) for c in range(m)]), st.permutations(range(m)),
)))
@example((["1", "0", "2"], [0, 1, 2]))
def test_declared_names_take_precedence_over_integer_literals(case):
    names, order = case
    text = f"m {len(names)}\ncandidates {','.join(names)}\n1: " + ">".join(
        names[c] for c in order
    )
    profile = parse_election(text)
    # e.g. with names 1,0,2 the token "0" is candidate 1, not candidate 0
    assert profile.votes[0][0].order == tuple(order)
