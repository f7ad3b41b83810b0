"""Property tests: the integer tallies, counted ballot by ballot and
column-wise, and the estimators built on them against plain references,
the inlined binomial walk of the seeded count sampler against one call per
cell, the type-level exact search against an index-level one and the
pruned search against the unpruned one,
candidate-token resolution in the parser, and profile
construction (counted generation, the constructor's merge and errors, the
parse/write round trip, the parser's own merge of scrambled text, its
whole-file passes against its line loop on scrambled and faulty text, and
every path into a profile's packed store against a reference built from
sorted key tuples), and the printing of rationals against ``float``'s."""

import functools
import itertools
import math
import operator
import random
import sys
from collections import Counter
from fractions import Fraction
from operator import itemgetter
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from movkit import core
from movkit.core import (
    Approval,
    ApprovalBallot,
    ApprovalProfile,
    Bucklin,
    BucklinTally,
    Copeland,
    InputError,
    KApproval,
    Maximin,
    PairwiseTally,
    PositionalTally,
    RankedProfile,
    Ranking,
    Scoring,
    WinnerResult,
    _multinomial,
    _row_type,
    _store,
    _store_tally,
    rule_tally,
    winner_set,
)
from movkit.estimators import VoteSource, estimate_mov
from movkit.generation import (
    ImpartialCulture,
    PlantedGap,
    TwoCandidate,
    _impartial_orders,
    _planted_counts,
    generate,
    ranked_to_approval,
)
from movkit.io_formats import ParseError, _format_rational, _parse_lines, parse_election, write_election
from movkit.oracle import (
    _sample_payload,
    copeland_log_factor,
    mov_bounds,
    mov_brute_force,
)

from generation_reference import ref_impartial_culture, ref_impartial_keys, ref_ranked_to_approval

F = Fraction
PROPERTY_SETTINGS = settings(max_examples=60, deadline=None)


@st.composite
def profiles(draw, m):
    orders = list(itertools.permutations(range(m)))
    ballots = draw(st.lists(st.sampled_from(orders), min_size=1, max_size=8))
    mults = draw(st.lists(st.integers(1, 6), min_size=len(ballots), max_size=len(ballots)))
    return RankedProfile(m, zip(ballots, mults))


@st.composite
def profiles_with_vectors(draw):
    m = draw(st.integers(2, 5))
    entries = draw(st.lists(
        st.fractions(min_value=-5, max_value=5, max_denominator=7), min_size=m, max_size=m,
    ).map(lambda xs: sorted(xs, reverse=True)).filter(lambda xs: xs[0] > xs[-1]))
    return draw(profiles(m)), Scoring(tuple(entries))


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
    RankedProfile(3, [((0, 1, 2), 2), ((2, 1, 0), 3), ((1, 0, 2), 1)]),
    Scoring((F(3, 2), F(1, 3), F(0))),
)
# rational entries and a negative last entry, so normalizing shifts every score
NEGATIVE = (
    RankedProfile(4, [((0, 1, 2, 3), 3), ((3, 2, 1, 0), 2), ((1, 3, 0, 2), 4)]),
    Scoring((F(5, 2), F(1, 3), F(-1, 6), F(-7, 4))),
)
BORDA = (RankedProfile(3, [((0, 1, 2), 4), ((1, 2, 0), 3), ((2, 0, 1), 2)]), Scoring.borda(3))


@PROPERTY_SETTINGS
@given(profiles_with_vectors())
@example(FRACTIONAL)
def test_positional_scores_and_winners_match_fraction_reference(case):
    profile, rule = case
    expected = _ref_scores(profile.votes, rule.alphas)
    assert winner_set(profile, rule).scores == expected
    result = winner_set(profile, rule)
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
@example(NEGATIVE)
@example(BORDA)
def test_scoring_bounds_match_fraction_reference(case):
    profile, rule = case
    alphas = _ref_normalized(rule.alphas)
    gap = _ref_top_two_gap(_ref_scores(profile.votes, alphas))
    bounds = mov_bounds(profile, rule)
    assert bounds.lower == gap / (2 * alphas[0])
    assert bounds.upper == min(gap / alphas[0] + 1, profile.n)


def _drawn_votes(source, ell, seed):
    """The sample as (ballot, count) pairs: the ballot of ``votes`` at each
    position `draw_counts` draws, with its count."""
    votes = source.profile.votes
    return [(votes[i][0], k) for i, k in source.draw_counts(ell, seed).items()]


@PROPERTY_SETTINGS
@given(profiles_with_vectors(), st.integers(0, 2**32), st.integers(1, 40))
@example(FRACTIONAL, 7, 11)
@example(FRACTIONAL, 7, FRACTIONAL[0].n)
@example(NEGATIVE, 3, 5)
@example(NEGATIVE, 3, NEGATIVE[0].n)
@example(BORDA, 5, BORDA[0].n)
def test_scoring_estimate_matches_fraction_reference(case, seed, ell):
    profile, rule = case
    source = VoteSource(profile)
    alphas = _ref_normalized(rule.alphas)
    raw = _ref_scores(_drawn_votes(source, ell, seed), alphas)
    sbar = {c: F(profile.n, ell) * s for c, s in raw.items()}
    est = estimate_mov(source, rule, F(1, 10), F(1, 20), seed, ell=ell)
    assert _typed(est.estimated_scores) == _typed(sbar)
    assert est.m_bar == _ref_project(_ref_top_two_gap(sbar) / (F(3, 2) * alphas[0]), profile.n)


@st.composite
def vote_sources(draw):
    """Sources of either kind, with small weights or weights up to 10**18,
    where w/W can round to 1.0 before the last ballot."""
    m = draw(st.integers(2, 4))
    profile = draw(st.one_of(profiles(m), approval_profiles(m)))
    ballots = [b for b, _ in profile.votes]
    weights = draw(st.lists(st.one_of(st.integers(1, 6), st.integers(1, 10**18)),
                            min_size=len(ballots), max_size=len(ballots)))
    return VoteSource(type(profile)(m, zip(ballots, weights)))


# 120 rankings of about 8,333 votes: maximin counts a sample of them
# column-wise, and a sample of 10**6 votes has counts of 256 and more
IC_M5 = VoteSource(generate(ImpartialCulture(n=10**6, m=5, seed=1)))


@PROPERTY_SETTINGS
@given(vote_sources(), st.integers(0, 2**64), st.one_of(st.integers(1, 8), st.integers(1, 10**6)))
@example(VoteSource(RankedProfile(2, [((0, 1), 10**18), ((1, 0), 1)])), 0, 10**6)
@example(VoteSource(ApprovalProfile(2, [((), 1), ((1,), 10**18), ((0, 1), 1)])), 0, 10**6)
@example(IC_M5, 0, 50)
@example(IC_M5, 0, 10**6)
def test_draw_counts_is_a_seeded_multinomial_in_profile_order(source, seed, ell):
    """The draw is a read-only mapping over the drawn count vector, equal to
    the dict of its positive counts, and the estimate tallies that vector as
    the dense rebuild of the dict."""
    counts = source.draw_counts(ell, seed)
    assert sum(counts.values()) == ell
    positions = list(counts)
    assert positions == sorted(positions)
    assert all(0 <= i < len(source.profile.votes) for i in positions)
    assert all(1 <= c <= ell for c in counts.values())
    assert source.draw_counts(ell, seed) == counts
    profile = source.profile
    d = len(profile.counts)
    drawn = _multinomial(random.Random(seed), ell, profile.counts)
    reference = dict(filter(itemgetter(1), enumerate(drawn)))
    assert counts == reference and reference == counts
    assert not counts != reference and not reference != counts
    assert positions == list(reference) and len(counts) == len(reference)
    assert repr(counts) == repr(reference)
    assert list(counts.items()) == list(reference.items()) and counts.items() == reference.items()
    assert list(counts.values()) == list(reference.values())
    for i in range(-1, d + 1):
        assert counts.get(i, 0) == reference.get(i, 0)
        assert (i in counts) == (i in reference)
    with pytest.raises(TypeError):
        counts[0] = 1
    with pytest.raises(TypeError):
        hash(counts)
    rule = Maximin() if isinstance(profile, RankedProfile) else Approval()
    est = estimate_mov(source, rule, F(1, 10), F(1, 20), seed, ell=ell)
    tally = _store_tally(rule, profile, list(map(reference.get, range(d), itertools.repeat(0))))
    assert est._payload == _sample_payload(rule, tally, profile.n, F(profile.n, ell))


# The seeded count sampler as it was before `_multinomial` drew its
# binomials inline: one call of `_ref_binomial`, a line-for-line port of
# CPython 3.12's ``random.binomialvariate``, per cell.


def _ref_binomial(rng, n, p):
    random_ = rng.random
    if n == 1:
        return int(random_() < p)
    if p > 0.5:
        return n - _ref_binomial(rng, n, 1.0 - p)
    if n * p < 10.0:
        x = y = 0
        c = math.log2(1.0 - p)
        if not c:
            return x
        while True:
            y += math.floor(math.log2(random_()) / c) + 1
            if y > n:
                return x
            x += 1
    setup_complete = False
    spq = math.sqrt(n * p * (1.0 - p))
    b = 1.15 + 2.53 * spq
    a = -0.0873 + 0.0248 * b + 0.01 * p
    c = n * p + 0.5
    vr = 0.92 - 4.2 / b
    while True:
        u = random_()
        u -= 0.5
        us = 0.5 - math.fabs(u)
        k = math.floor((2.0 * a / us + b) * u + c)
        if k < 0 or k > n:
            continue
        v = random_()
        if us >= 0.07 and v <= vr:
            return k
        if not setup_complete:
            alpha = (2.83 + 5.1 / b) * spq
            lpq = math.log(p / (1.0 - p))
            m = math.floor((n + 1) * p)
            h = math.lgamma(m + 1) + math.lgamma(n - m + 1)
            setup_complete = True
        v *= alpha / (a / (us * us) + b)
        if math.log(v) <= h - math.lgamma(k + 1) - math.lgamma(n - k + 1) + (k - m) * lpq:
            return k


def _ref_multinomial(rng, count, weights):
    drawn = [0] * len(weights)
    left, weight_left = count, sum(weights)
    for i, w in enumerate(weights):
        k = left if w == weight_left else _ref_binomial(rng, left, w / weight_left)
        if k:
            drawn[i] = k
            left -= k
            if not left:
                break
        weight_left -= w
    return drawn


# each example's first cell takes one branch: left == 1, p > 0.5, log2(1 - p)
# rounding to 0, the geometric method just below n*p = 10, then BTRS at
# p = 1/2 with seeds whose first variate is a squeeze accept (0), an lgamma
# accept (1), follows an lgamma reject (2), or follows a k outside 0..n (36)
@PROPERTY_SETTINGS
@given(st.lists(st.one_of(st.integers(1, 6), st.integers(1, 10**18)), min_size=1, max_size=12),
       st.integers(1, 10**7), st.integers(0, 2**64))
@example([1, 1], 1, 0)
@example([3, 1], 5, 0)
@example([1, 10**18], 2, 0)
@example([1, 99], 999, 0)
@example([1, 1], 1000, 0)
@example([1, 1], 1000, 1)
@example([1, 1], 1000, 2)
@example([1, 1], 1000, 36)
def test_multinomial_draws_the_stream_of_the_reference(weights, count, seed):
    a, b = random.Random(seed), random.Random(seed)
    assert _multinomial(a, count, weights) == _ref_multinomial(b, count, weights)
    assert a.random() == b.random()


# the walk's lgamma overflows above about 2**1014.5: below 2**1014 each seed
# draws the reference's stream (seeds 2 and 8 reach BTRS's lgamma test), from
# 2**1014 a walk over two or more cells draws nothing, and one cell takes any
# count as it is
@pytest.mark.parametrize("seed", range(12))
def test_multinomial_reads_counts_below_2_to_the_1014(seed):
    a, b = random.Random(seed), random.Random(seed)
    assert _multinomial(a, 2**1014 - 1, [1, 1]) == _ref_multinomial(b, 2**1014 - 1, [1, 1])
    assert a.random() == b.random()
    with pytest.raises(InputError, match=r"^cannot split 2\*\*1014 or more votes at random$"):
        _multinomial(a, 2**1014, [1, 1, 1])
    assert a.random() == b.random()
    assert _multinomial(a, 2**1100 + seed, [7]) == [2**1100 + seed]
    assert a.random() == b.random()


# References for the approval, Bucklin and pairwise families: the score
# functions and estimator bodies as they were before one integer tally per
# family replaced them, over plain dicts and Fractions.


@st.composite
def approval_profiles(draw, m):
    ballots = draw(st.lists(st.frozensets(st.integers(0, m - 1)), min_size=1, max_size=8))
    mults = draw(st.lists(st.integers(1, 6), min_size=len(ballots), max_size=len(ballots)))
    return ApprovalProfile(m, zip(ballots, mults))


def both_kinds():
    return st.integers(2, 5).flatmap(lambda m: st.tuples(profiles(m), approval_profiles(m)))


ALPHAS = (F(0), F(1, 2), F(1))


def _ref_approval_scores(votes, m):
    scores = {c: 0 for c in range(m)}
    for ballot, mult in votes:
        for cand in ballot.approved:
            scores[cand] += mult
    return scores


def _ref_top_k_counts(votes, m):
    at_pos = [[0] * m for _ in range(m)]
    for ballot, mult in votes:
        for pos, cand in enumerate(ballot.order):
            at_pos[cand][pos] += mult
    return tuple(tuple(itertools.accumulate(at_pos[x])) for x in range(m))


def _ref_bucklin_scores(votes, m, n):
    counts = _ref_top_k_counts(votes, m)
    return {x: next(k + 1 for k in range(m) if 2 * counts[x][k] > n) for x in range(m)}


def _ref_pairwise(votes, m):
    above = [[0] * m for _ in range(m)]
    for ballot, mult in votes:
        order = ballot.order
        for i in range(m):
            for j in range(i + 1, m):
                above[order[i]][order[j]] += mult
    return tuple(tuple(above[x][y] - above[y][x] for y in range(m)) for x in range(m))


def _ref_maximin_scores(votes, m):
    d = _ref_pairwise(votes, m)
    return {x: min(d[x][y] for y in range(m) if y != x) for x in range(m)}


def _ref_copeland_scores(d, m, alpha):
    scores = {}
    for x in range(m):
        wins = sum(1 for y in range(m) if y != x and d[x][y] > 0)
        ties = sum(1 for y in range(m) if y != x and d[x][y] == 0)
        scores[x] = wins + alpha * ties
    return scores


def _ref_winner_set(profile, rule):
    votes, m = profile.votes, profile.m
    if isinstance(rule, Approval):
        scores = _ref_approval_scores(votes, m)
    elif isinstance(rule, Bucklin):
        scores = _ref_bucklin_scores(votes, m, profile.n)
        best = min(scores.values())
        return WinnerResult(tuple(c for c in sorted(scores) if scores[c] == best), scores)
    elif isinstance(rule, Maximin):
        scores = _ref_maximin_scores(votes, m)
    else:
        scores = _ref_copeland_scores(_ref_pairwise(votes, m), m, rule.alpha)
    return WinnerResult(_ref_winners(scores), scores)


def _ref_project(value, n):
    """The nearest point of [1, n], where every margin lies, to ``value``."""
    return min(max(value, 1), n)


def _ref_estimate(source, rule, seed, ell):
    """(m_bar, estimated_scores, pair_margins) of the estimator."""
    drawn = _drawn_votes(source, ell, seed)
    m, n = source.profile.m, source.profile.n
    scale = F(n, ell)
    if isinstance(rule, (Approval, KApproval)):
        if isinstance(rule, Approval):
            raw = _ref_approval_scores(drawn, m)
        else:
            raw = _ref_scores(drawn, [1] * rule.k + [0] * (m - rule.k))
        sbar = {x: scale * raw[x] for x in range(m)}
        return _ref_project(_ref_top_two_gap(sbar) / 2, n), sbar, None
    if isinstance(rule, Bucklin):
        rows = _ref_top_k_counts(drawn, m)
        nbar = {x: tuple(scale * c for c in rows[x]) for x in range(m)}
        half = F(n, 2)
        level_of = {x: next(lv + 1 for lv in range(m) if nbar[x][lv] > half) for x in range(m)}
        best_level = min(level_of.values())
        w = min(x for x in range(m) if level_of[x] == best_level)
        gap = None
        for lv in range(1, m):
            if nbar[w][lv - 1] > half:
                for x in range(m):
                    if x != w and nbar[x][lv - 1] <= half:
                        candidate = nbar[w][lv - 1] - nbar[x][lv - 1] + 1
                        if gap is None or candidate < gap:
                            gap = candidate
        # no separating level (a sampled full tie) reads as a gap of 0
        return _ref_project((gap or 0) / F(3, 2), n), nbar, None
    dbar = tuple(tuple(scale * d for d in row) for row in _ref_pairwise(drawn, m))
    if isinstance(rule, Maximin):
        sbar = {x: min(dbar[x][y] for y in range(m) if y != x) for x in range(m)}
        return _ref_project(_ref_top_two_gap(sbar) / 3, n), sbar, dbar
    scores = {}
    for x in range(m):
        total = F(0)
        for y in range(m):
            if y != x:
                if dbar[x][y] > 0:
                    total += 1
                elif dbar[x][y] == 0:
                    total += rule.alpha
        scores[x] = total
    best = max(scores.values())
    w = min(x for x in range(m) if scores[x] == best)
    gamma = max(0, min(
        _ref_relative_margin(dbar, m, n, w, x, rule.alpha)
        for x in range(m) if x != w
    ))
    k_log = copeland_log_factor(m)
    return _ref_project(F(4 * (k_log + 1), 2 * k_log + 3) * gamma, n), scores, dbar


def _typed(scores):
    return {c: (type(s), s) for c, s in scores.items()}


@PROPERTY_SETTINGS
@given(both_kinds(), st.sampled_from(ALPHAS))
@example((RankedProfile(2, [((0, 1), 1), ((1, 0), 1)]), ApprovalProfile(2, [((), 2)])), F(1, 2))
def test_family_tallies_match_reference(case, alpha):
    ranked, approval = case
    m = ranked.m
    for profile, rule in ((approval, Approval()), (ranked, Bucklin()),
                          (ranked, Maximin()), (ranked, Copeland(alpha))):
        result, expected = winner_set(profile, rule), _ref_winner_set(profile, rule)
        assert result == expected
        assert _typed(result.scores) == _typed(expected.scores)
    assert rule_tally(ranked, Bucklin()).top_counts() == \
        _ref_top_k_counts(ranked.votes, m)
    assert rule_tally(ranked, Maximin()).net() == _ref_pairwise(ranked.votes, m)
    counts, n = _ref_top_k_counts(ranked.votes, m), ranked.n
    w = _ref_winner_set(ranked, Bucklin()).winners[0]
    leads = [counts[w][lv] - counts[x][lv] + 1 for lv in range(m - 1) if 2 * counts[w][lv] > n
             for x in range(m) if x != w and 2 * counts[x][lv] <= n]
    assert mov_bounds(ranked, Bucklin()).upper == min([*leads, n])


# A tally counts a long list of distinct rankings column-wise and a short one
# ballot by ballot (`movkit.core._add_votes`): the pairwise family from 8m
# distinct ballots on, the positional and Bucklin families from 512. These
# profiles of up to 9 candidates fall on both sides of each switch and
# exactly at it, with counts up to 10^12, whose bits span five bytes.
COLUMN_SWITCHES = (512,) + tuple(8 * m for m in range(2, 10))


def _ranking(index, m):
    """The index-th permutation of range(m) in lexicographic order."""
    rest, order = list(range(m)), []
    for k in range(m - 1, -1, -1):
        pos, index = divmod(index, math.factorial(k))
        order.append(rest.pop(pos))
    return tuple(order)


def _column_profile(m, d, seed, top):
    """d distinct rankings of m candidates, each counted 1..top times."""
    rng = random.Random(seed)
    indices = rng.sample(range(math.factorial(m)), d)
    return RankedProfile(m, [(_ranking(i, m), rng.randint(1, top)) for i in indices])


def _shuffled_profile(m, d, seed, top):
    """d seeded shuffles of m candidates, each counted 1..top times: rankings
    of an m too large for `_column_profile` to index every permutation."""
    rng = random.Random(seed)
    return RankedProfile(m, [(tuple(rng.sample(range(m), m)), rng.randint(1, top))
                             for _ in range(d)])


@st.composite
def column_cases(draw):
    m = draw(st.integers(2, 9))
    d = draw(st.one_of(st.integers(1, 2 * max(COLUMN_SWITCHES)), st.sampled_from(COLUMN_SWITCHES))
             .filter(lambda d: d <= math.factorial(m)))
    # 2 and 128 are the edges of the top bit read off one byte per count
    top = draw(st.sampled_from([1, 2, 3, 128, 255, 256, 10**12]))
    profile = _column_profile(m, d, draw(st.integers(0, 2**32)), top)
    entries = draw(st.lists(
        st.fractions(min_value=-5, max_value=5, max_denominator=7), min_size=m, max_size=m,
    ).map(lambda xs: sorted(xs, reverse=True)).filter(lambda xs: xs[0] > xs[-1]))
    # the most ballots in a block of the column-wise count: 1..d gives
    # uneven blocks and blocks of one ballot, d one block
    block = draw(st.integers(1, d))
    return profile, Scoring(tuple(entries)), draw(st.integers(1, m - 1)), block


@PROPERTY_SETTINGS
@given(column_cases())
@example((_column_profile(9, 512, 1, 10**12), Scoring.borda(9), 3, 512))
@example((_column_profile(9, 511, 2, 3), Scoring.borda(9), 1, 1))
@example((_column_profile(8, 64, 3, 10**12), Scoring.borda(8), 7, 5))
@example((_column_profile(8, 63, 4, 256), Scoring.borda(8), 2, 62))
# above m = 9 every ballot takes the per-ballot adds, the pairwise one included
@example((_shuffled_profile(30, 8, 5, 10**12), Scoring.borda(30), 4, 8))
@example((_shuffled_profile(300, 8, 6, 10**12), Scoring.borda(300), 17, 8))
def test_column_counts_match_reference(case):
    profile, rule, k, block = case
    m, votes, n = profile.m, profile.votes, profile.n
    with patch.object(core, "_BLOCK_BALLOTS", block):
        bucklin = rule_tally(profile, Bucklin())
        assert (bucklin.top_counts(), bucklin.n) == (_ref_top_k_counts(votes, m), n)
        net = _ref_pairwise(votes, m)
        pairwise = rule_tally(profile, Maximin())
        assert pairwise.n == n
        above = pairwise.above
        assert [[v for y, v in enumerate(row) if y != x] for x, row in enumerate(above)] == [
            [(n + net[x][y]) // 2 for y in range(m) if y != x] for x in range(m)]
        assert rule_tally(profile, rule).scores() == \
            _ref_scores(votes, rule.alphas)
        assert rule_tally(profile, KApproval(k)).scores() == \
            _ref_scores(votes, [1] * k + [0] * (m - k))


@pytest.mark.parametrize("widest", [255, 256, 10**12])
@pytest.mark.parametrize("m, d, block", [(8, 1_000, 150), (9, 900, 97)])
def test_sampled_counts_match_reference_across_blocks(m, d, block, widest):
    """A sample's counts enter the tally as a profile's do: zero for a
    ballot not drawn, a whole block of zeros at the front, and counts up to
    ``widest``, whose planes take one byte below 256 and more above. Their
    nonzero rankings pass every family's switch, so each tally is counted
    column-wise in several blocks, and must read what the per-ballot
    references do."""
    profile = _column_profile(m, d, 5, 1)
    rng = random.Random(widest)
    counts = [0] * block + [rng.choice([0, 1, 2, 128, widest]) for _ in range(d - block)]
    votes = [(ballot, k) for (ballot, _), k in zip(profile.votes, counts) if k]
    n, rule = sum(counts), Scoring.borda(m)
    assert PositionalTally.counts_columns(len(votes), m)
    real, totals = core._column_blocks, []

    def blocks(rows, weights, m, stride):
        for column, weigh, total in real(rows, weights, m, stride):
            totals.append(total)
            yield column, weigh, total

    with patch.object(core, "_BLOCK_BALLOTS", block), patch.object(core, "_column_blocks", blocks):
        bucklin = _store_tally(Bucklin(), profile, counts)
        assert (bucklin.top_counts(), bucklin.n) == (_ref_top_k_counts(votes, m), n)
        assert _store_tally(Maximin(), profile, counts).net() == _ref_pairwise(votes, m)
        assert _store_tally(rule, profile, counts).scores() == \
            _ref_scores(votes, rule.alphas)
    blocks_per_tally = -(-d // block)
    assert len(totals) == 3 * blocks_per_tally > 3
    assert totals[0] == 0 and sum(totals) == 3 * n


@pytest.mark.parametrize("m, d, sizes", [
    (128, 2048, [2048]), (128, 2049, [1025, 1024]), (129, 2048, [1024, 1024]),
    (8, 65_536, [65_536]), (8, 65_537, [32_769, 32_768]), (2, 4, [4])])
def test_a_block_is_bounded_by_its_bitset_bits_and_its_ballots(m, d, sizes):
    # a pairwise block's m * m bitsets hold at most 2^25 bits, 2,048 ballots
    # at m = 128, and no block holds more than 65,536 ballots
    blocks = core._column_blocks(bytes(d * m), [1] * d, m, m)
    assert [total for _, _, total in blocks] == sizes


@pytest.mark.parametrize("counts", [(0, 1, 255), (0, 1, 255, 256, 10**12)])
@pytest.mark.parametrize("size", range(1, 18))
def test_column_bitsets_split_each_block_into_its_ballots(size, counts):
    """Three blocks of ``size`` ballots each, every residue of size mod 8,
    read by properties that hold whatever bit a ballot takes in its block:
    at each position the m candidates' bitsets are disjoint, and their
    lanes, each one bit, are the block's ballots with their own counts; the
    candidates' weights sum to the block's total; and a bit that is no
    ballot's weighs 0. Counts below 256 are read as bytes, wider ones as
    ints."""
    m, rng = 5, random.Random(size)
    ballots = [tuple(rng.sample(range(m), m)) for _ in range(3 * size)]
    weights = [rng.choice(counts) for _ in ballots]
    rows = b"".join(map(bytes, ballots))
    with patch.object(core, "_BLOCK_BALLOTS", size):
        blocks = list(core._column_blocks(rows, bytes(weights) if counts[-1] < 256 else weights, m, m))
    assert len(blocks) == 3
    for start, (column, weigh, total) in zip(range(0, 3 * size, size), blocks):
        expected = Counter(zip(ballots[start:start + size], weights[start:start + size]))
        assert total == sum(weights[start:start + size])
        sets = [column(i) for i in range(m)]
        for cands in sets:
            assert len(cands) == m
            assert all(a & b == 0 for a, b in itertools.combinations(cands, 2))
            assert sum(map(weigh, cands)) == total
        unions = {functools.reduce(operator.or_, cands) for cands in sets}
        assert len(unions) == 1
        lanes = unions.pop()
        found = Counter()
        for lane in (1 << bit for bit in range(lanes.bit_length()) if lanes >> bit & 1):
            ballot = tuple(next(x for x, s in enumerate(cands) if s & lane) for cands in sets)
            found[ballot, weigh(lane)] += 1
        assert found == expected
        assert weigh(~lanes & ((1 << 8 * size + 64) - 1)) == 0


@pytest.mark.parametrize("top", [3, 10**12])
def test_pad_bits_add_nothing_to_candidate_zero(top):
    # 513 = 8 * 64 + 1 rankings, none with candidate 0 first: a block of
    # 513 ballots has 7 pad bits, and a pad bit counted for candidate 0
    # would show in its first-place, Borda and pairwise counts
    m = 6
    rng = random.Random(top)
    indices = rng.sample(range(math.factorial(m - 1), math.factorial(m)), 513)
    profile = RankedProfile(m, [(_ranking(i, m), rng.randint(1, top)) for i in indices])
    votes, n = profile.votes, profile.n
    assert len(votes) % 8 == 1 and all(ballot.order[0] != 0 for ballot, _ in votes)
    assert PositionalTally.counts_columns(len(votes), m)
    bucklin = rule_tally(profile, Bucklin())
    assert (bucklin.top_counts(), bucklin.n) == (_ref_top_k_counts(votes, m), n)
    assert bucklin.at_pos[0][0] == 0
    rule = Scoring.borda(m)
    assert rule_tally(profile, rule).scores() == _ref_scores(votes, rule.alphas)
    assert rule_tally(profile, Maximin()).net() == _ref_pairwise(votes, m)


def test_column_switches_are_the_tallies_own():
    for family in (PositionalTally, BucklinTally, PairwiseTally):
        for m in range(2, 10):
            first = next(d for d in itertools.count(1) if family.counts_columns(d, m))
            assert first in COLUMN_SWITCHES


@st.composite
def stepped_cases(draw):
    """A profile of 1 to 5 candidates and steps as the exact search takes
    them: (True, i) retracts a ballot of the current multiset, (False, i)
    inserts a ballot of the universe, i picking which."""
    m = draw(st.integers(1, 5))
    steps = st.tuples(st.booleans(), st.integers(0, 10**6))
    return draw(profiles(m)), draw(st.lists(steps, max_size=16))


@PROPERTY_SETTINGS
@given(stepped_cases(), st.sampled_from(ALPHAS))
@example((RankedProfile(1, [((0,), 3)]), [(True, 0)] * 3 + [(False, 0)]), F(1, 2))
@example((RankedProfile(3, [((0, 1, 2), 2), ((1, 2, 0), 2), ((2, 0, 1), 2)]),
          [(True, 0), (False, 5), (True, 1), (False, 3)]), F(0))
def test_stepped_pairwise_tallies_match_rebuilt(case, alpha):
    """Maximin and Copeland tallies stepped by add(order, -1) and add(order,
    +1) read, after every step, what a tally built afresh over the
    same multiset reads: the universe's profile weighed by the multiset's
    counts, 0 for an absent ballot, and the plain references. Retracting
    every ballot leaves an empty tally."""
    profile, steps = case
    m = profile.m
    universe = list(itertools.permutations(range(m)))
    everything = RankedProfile(m, [(order, 1) for order in universe])
    counts = Counter(dict(zip(profile.entries(), profile.counts)))
    rules = (Maximin(), Copeland(alpha))
    stepped = [rule_tally(profile, rule) for rule in rules]
    for retract, pick in steps:
        present = sorted(order for order, count in counts.items() if count)
        if retract and not present:
            continue
        order, k = (present[pick % len(present)], -1) if retract else (universe[pick % len(universe)], 1)
        counts[order] += k
        for tally in stepped:
            tally.add(order, k)
        votes = [(Ranking(order), count) for order, count in counts.items() if count]
        net = _ref_pairwise(votes, m)
        expected_scores = (
            {x: min((net[x][y] for y in range(m) if y != x), default=0) for x in range(m)},
            _ref_copeland_scores(net, m, alpha),
        )
        for rule, tally, scores in zip(rules, stepped, expected_scores):
            rebuilt = _store_tally(rule, everything, [counts[order] for order in everything.entries()])
            assert tally.n == rebuilt.n == sum(counts.values())
            assert tally.net() == rebuilt.net() == net
            assert tally.scores() == rebuilt.scores() == scores
            assert tally.winner_mask() == rebuilt.winner_mask()
            assert tally.winner_mask() == sum(1 << x for x in _ref_winners(scores))


@PROPERTY_SETTINGS
@given(both_kinds(), st.sampled_from(ALPHAS), st.integers(1, 4), st.integers(0, 2**32),
       st.integers(1, 60))
def test_family_estimates_match_reference(case, alpha, k, seed, ell):
    ranked, approval = case
    k = 1 + (k - 1) % (ranked.m - 1)
    for profile, rule in ((ranked, KApproval(k)), (approval, Approval()), (ranked, Bucklin()),
                          (ranked, Maximin()), (ranked, Copeland(alpha))):
        source = VoteSource(profile)
        est = estimate_mov(source, rule, F(1, 10), F(1, 20), seed, ell=ell)
        m_bar, scores, pair_margins = _ref_estimate(source, rule, seed, ell)
        assert (est.m_bar, est.pair_margins) == (m_bar, pair_margins)
        assert _typed(est.estimated_scores) == _typed(scores)
        assert isinstance(est.m_bar, F) and 1 <= est.m_bar <= profile.n


def _ref_bucklin_floor(votes, m, n):
    """Cheapest single event that can change a Bucklin winner set: a winner
    losing its majority at the winning level, a non-winner gaining one
    there, or a candidate (other than a unique winner) gaining one earlier."""
    counts, half = _ref_top_k_counts(votes, m), n // 2
    levels = _ref_bucklin_scores(votes, m, n)
    best = min(levels.values())
    winners = [x for x in range(m) if levels[x] == best]
    costs = []
    if best < m:
        costs += [counts[w][best - 1] - half for w in winners]
        costs += [half + 1 - counts[x][best - 1] for x in range(m) if x not in winners]
    costs += [half + 1 - counts[y][lv] for lv in range(best - 1) for y in range(m)
              if y not in winners or len(winners) > 1]
    return min(costs)


def _ref_relative_margin(d, m, n, x, y, alpha):
    """Least integer t, scanned upwards from -(ceil(n/2)+1), at which x's
    tie-weighted count of rivals u with d[u][x] below -2t does not exceed
    y's count of rivals u with d[u][y] below 2t."""
    def below(z, threshold):
        return sum(1 if d[u][z] < threshold else alpha if d[u][z] == threshold else 0
                   for u in range(m) if u != z)
    t = -((n + 1) // 2 + 1)
    while below(x, -2 * t) > below(y, 2 * t):
        t += 1
    return t


def _ref_bounds(profile, rule):
    """(lower, upper, source) of mov_bounds for the non-scoring rules,
    before the upper end is capped at n."""
    votes, m, n = profile.votes, profile.m, profile.n
    if isinstance(rule, Bucklin):
        counts = _ref_top_k_counts(votes, m)
        w = _ref_winner_set(profile, rule).winners[0]
        leads = [counts[w][lv] - counts[x][lv] + 1 for lv in range(m - 1)
                 if 2 * counts[w][lv] > n for x in range(m) if x != w and 2 * counts[x][lv] <= n]
        return _ref_bucklin_floor(votes, m, n), min(leads, default=n), "majority level analysis"
    if isinstance(rule, Copeland):
        d = _ref_pairwise(votes, m)
        w = _ref_winners(_ref_copeland_scores(d, m, rule.alpha))[0]
        gamma = max(0, min(_ref_relative_margin(d, m, n, w, x, rule.alpha)
                           for x in range(m) if x != w))
        if gamma == 0:
            return 1, n, "tied winners"
        depth = next(k for k in range(m) if 2**k >= m)
        return gamma, 2 * (depth + 1) * gamma, "relative margin"
    if isinstance(rule, KApproval):
        scores = _ref_scores(votes, [1] * rule.k + [0] * (m - rule.k))
        source = "top-k score gap"
    elif isinstance(rule, Approval):
        scores = _ref_approval_scores(votes, m)
        source = "approval score gap"
    else:
        scores = _ref_maximin_scores(votes, m)
        source = "pairwise score gap"
    gap = _ref_top_two_gap(scores)
    if gap == 0:
        return 1, 1, "tied winners"
    if isinstance(rule, Maximin):
        return F(gap, 4), F(gap, 2), source
    return F(gap, 2), -(-gap // 2), source


TIED_PAIR = (RankedProfile(2, [((0, 1), 1), ((1, 0), 1)]), ApprovalProfile(2, [((), 2)]))


@PROPERTY_SETTINGS
@given(both_kinds(), st.sampled_from(ALPHAS), st.integers(1, 4))
@example(TIED_PAIR, F(1, 2), 1)
@example((RankedProfile(3, [((0, 1, 2), 5), ((1, 2, 0), 2), ((2, 1, 0), 2)]),
          ApprovalProfile(3, [((0,), 3), ((1, 2), 1)])), F(0), 2)
def test_family_bounds_match_reference(case, alpha, k):
    ranked, approval = case
    k = 1 + (k - 1) % (ranked.m - 1)
    for profile, rule in ((ranked, KApproval(k)), (approval, Approval()), (ranked, Bucklin()),
                          (ranked, Maximin()), (ranked, Copeland(alpha))):
        bounds = mov_bounds(profile, rule)
        lower, upper, source = _ref_bounds(profile, rule)
        assert (bounds.lower, bounds.upper, bounds.source) == (lower, min(upper, profile.n), source)
        assert bounds.upper <= profile.n


def _ref_engine(profile, rule):
    """The rule's tally, raw ballot types, replacement universe (every raw
    ballot, in `mov_brute_force`'s order) and ballot wrapper, built here so
    that the references share no set-up with the search they check."""
    m, ranked = profile.m, isinstance(profile, RankedProfile)
    tally = rule_tally(type(profile)(profile.m, profile.votes), rule)
    raw = [b.order if ranked else b.approved for b, _ in profile.votes]
    if ranked:
        return tally, raw, list(itertools.permutations(range(m))), Ranking
    subsets = [frozenset(c for c in range(m) if mask >> c & 1) for mask in range(2**m)]
    return tally, raw, subsets, ApprovalBallot


def _ref_brute_force(profile, rule, budget):
    """Index-level exact search: every size-t set of indices into
    ``profile.expand()`` times every tuple of replacements that differ from
    the votes they replace. Returns (value, witness, evaluations)."""
    engine, _, universe, wrap = _ref_engine(profile, rule)
    base_mask = engine.winner_mask()
    raw = [b.order if isinstance(b, Ranking) else b.approved for b in profile.expand()]
    n = len(raw)
    options = [[u for u in universe if u != raw[i]] for i in range(n)]
    evaluations = 0
    for t in range(1, min(budget, n) + 1):
        for combo in itertools.combinations(range(n), t):
            originals = [raw[i] for i in combo]
            for replacement in itertools.product(*(options[i] for i in combo)):
                evaluations += 1
                for old, new in zip(originals, replacement):
                    engine.add(old, -1)
                    engine.add(new, +1)
                changed = engine.winner_mask() != base_mask
                for old, new in zip(originals, replacement):
                    engine.add(new, -1)
                    engine.add(old, +1)
                if changed:
                    witness = tuple((i, wrap(r)) for i, r in zip(combo, replacement))
                    return t, witness, evaluations
    return None, None, evaluations


def _ref_type_level_search(profile, rule, budget):
    """The type-level exact search without pruning: for each t, every
    retraction multiset in `combinations_with_replacement` order times every
    insertion multiset sharing no type with it, each applied afresh. Returns
    (value, witness, evaluations)."""
    tally, raw, universe, wrap = _ref_engine(profile, rule)
    base_mask = tally.winner_mask()
    mults = [mult for _, mult in profile.votes]
    starts = list(itertools.accumulate(mults, initial=0))
    evaluations = 0
    for t in range(1, min(budget, profile.n) + 1):
        for retracted in itertools.combinations_with_replacement(range(len(raw)), t):
            # the j-th entry's offset in its type's block must be below its multiplicity
            if any(j - retracted.index(k) >= mults[k] for j, k in enumerate(retracted)):
                continue
            removed = {raw[k] for k in retracted}
            for k in retracted:
                tally.add(raw[k], -1)
            options = [u for u in universe if u not in removed]
            for inserted in itertools.combinations_with_replacement(options, t):
                evaluations += 1
                for new in inserted:
                    tally.add(new, +1)
                changed = tally.winner_mask() != base_mask
                for new in inserted:
                    tally.add(new, -1)
                if changed:
                    witness = tuple(
                        (starts[k] + j - retracted.index(k), wrap(new))
                        for j, (k, new) in enumerate(zip(retracted, inserted))
                    )
                    return t, witness, evaluations
            for k in retracted:
                tally.add(raw[k], +1)
    return None, None, evaluations


def _ranked_rules(m):
    skewed = Scoring((F(3),) + (F(1),) * (m - 2) + (F(0),))
    return [
        Scoring.borda(m), skewed, Bucklin(), Maximin(),
        *(KApproval(k) for k in range(1, m)),
        *(Copeland(alpha) for alpha in (F(0), F(1, 2), F(1))),
    ]


# vote counts are capped so that the index-level reference stays fast
MAX_VOTES = {2: 8, 3: 6, 4: 4}


@st.composite
def brute_force_cases(draw):
    if draw(st.booleans()):
        m = draw(st.integers(2, 3))
        universe = [tuple(c for c in range(m) if mask >> c & 1) for mask in range(2**m)]
        make, rules = ApprovalProfile, [Approval()]
    else:
        m = draw(st.integers(2, 4))
        universe = list(itertools.permutations(range(m)))
        make, rules = RankedProfile, _ranked_rules(m)
    types = draw(st.lists(st.sampled_from(universe), min_size=1, max_size=3, unique=True))
    ballots = draw(st.lists(st.sampled_from(types), min_size=1, max_size=MAX_VOTES[m]))
    profile = make(m, [(b, 1) for b in ballots])
    return profile, draw(st.sampled_from(rules)), draw(st.integers(1, profile.n))


@settings(max_examples=300, deadline=None)
@given(brute_force_cases())
def test_type_level_search_matches_index_level_search(case):
    profile, rule, budget = case
    full = _ref_brute_force(profile, rule, profile.n)
    mov = full[0]
    expected = full if budget >= mov else _ref_brute_force(profile, rule, budget)
    result = mov_brute_force(profile, rule, budget)
    assert (result.value, result.witness) == expected[:2]
    assert result.evaluations <= expected[2]
    assert (result.value is None) == (budget < mov)


@st.composite
def pruning_cases(draw):
    """Few ballot types with multiplicities up to 12, so that the margin is
    often larger than the budget and the search prunes."""
    m = draw(st.integers(2, 4))
    if draw(st.booleans()):
        universe = [tuple(c for c in range(m) if mask >> c & 1) for mask in range(2**m)]
        make, rules = ApprovalProfile, [Approval()]
    else:
        universe = list(itertools.permutations(range(m)))
        make, rules = RankedProfile, _ranked_rules(m)
    types = draw(st.lists(st.sampled_from(universe), min_size=1, max_size=4, unique=True))
    mults = draw(st.lists(st.integers(1, 12), min_size=len(types), max_size=len(types)))
    return make(m, zip(types, mults)), draw(st.sampled_from(rules)), draw(st.integers(1, 3))


@settings(max_examples=300, deadline=None)
@given(pruning_cases())
# one change lifts candidate 2 to a level-2 majority beside the Bucklin winner 1
@example((RankedProfile(3, [((0, 1, 2), 4), ((2, 1, 0), 4)]), Bucklin(), 1))
# two changes let candidate 3 tie the Copeland winner 2 on points
@example((RankedProfile(4, [((2, 3, 0, 1), 5), ((3, 0, 2, 1), 2)]), Copeland(F(1)), 2))
def test_pruned_search_matches_unpruned_type_level_search(case):
    profile, rule, budget = case
    value, witness, evaluations = _ref_type_level_search(profile, rule, budget)
    result = mov_brute_force(profile, rule, budget)
    assert (result.value, result.witness) == (value, witness)
    assert result.evaluations <= evaluations


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


# Profile construction. The generators draw counts, not votes; where every
# count stays below its number of outcomes they draw per vote, and there
# they must reproduce the per-vote references exactly (the benchmark's
# `audit` files, IC n=5000 m=8, lie there: the example below).


@PROPERTY_SETTINGS
@given(st.integers(1, 6), st.integers(1, 300), st.integers(0, 2**64))
@example(1, 1, 0)
@example(8, 5000, 1)
def test_generation_keeps_the_per_vote_streams_where_it_draws_per_vote(m, n, seed):
    n = min(n, max(math.factorial(m) - 1, 1))  # below m!; m = 1 has one order, no draw
    ranked = generate(ImpartialCulture(n=n, m=m, seed=seed))
    reference = ref_impartial_culture(n, m, seed)
    assert ranked == reference and repr(ranked) == repr(reference)
    depths = list(range(m + 1))
    if all(mult < m + 1 for _, mult in ranked.votes):
        depths.append("uniform")
    for k in depths:
        approval = ranked_to_approval(ranked, k, seed)
        reference = ref_ranked_to_approval(ranked, k, seed)
        assert approval == reference and repr(approval) == repr(reference)


# From n = m! on, the walk splits the votes by multinomials; at two
# candidates left it appends both orders itself. There it must give the
# keys and counts of the walk with one call per group: seed 0 at m = 3,
# n = 6 hands that step a count of 1 (drawn per vote) and one of 2.


@PROPERTY_SETTINGS
@given(st.integers(2, 6), st.integers(0, 5000), st.integers(0, 2**64))
@example(2, 2, 0)
@example(3, 6, 0)
@example(6, 5000, 1)
def test_counted_walk_matches_one_call_per_group(m, n, seed):
    n = max(n, math.factorial(m))
    keys, counts, key = [], [], _row_type(m)
    _impartial_orders(random.Random(seed), key(), key(range(m)), n, keys, counts)
    assert (keys, counts) == ref_impartial_keys(n, m, seed)


@st.composite
def raw_and_wrapped_votes(draw):
    """(kind, m, votes, expected): votes shuffled, with repeated ballots
    given raw or wrapped, and the Counter + sorted merge of their keys."""
    m = draw(st.integers(1, 5))
    if draw(st.booleans()):
        kind, wrap = RankedProfile, Ranking
        types = st.permutations(range(m)).map(tuple)
        forms = [tuple, list, Ranking]
    else:
        kind, wrap = ApprovalProfile, ApprovalBallot
        types = st.frozensets(st.integers(0, m - 1)).map(lambda s: tuple(sorted(s)))
        forms = [frozenset, set, lambda key: key[::-1], ApprovalBallot]
    keys = draw(st.lists(types, min_size=1, max_size=4, unique=True))
    votes, merged = [], Counter()
    for key in draw(st.lists(st.sampled_from(keys), min_size=1, max_size=12)):
        mult = draw(st.integers(1, 10**12))
        votes.append((draw(st.sampled_from(forms))(key), mult))
        merged[key] += mult
    expected = tuple((wrap(key), mult) for key, mult in sorted(merged.items()))
    return kind, m, draw(st.permutations(votes)), expected


@PROPERTY_SETTINGS
@given(raw_and_wrapped_votes())
def test_profile_constructor_matches_counter_merge(case):
    kind, m, votes, expected = case
    profile = kind(m=m, votes=tuple(votes))
    assert profile.votes == expected and repr(profile.votes) == repr(expected)
    assert profile.n == sum(mult for _, mult in votes)
    assert kind(m=m, votes=profile.votes) == profile


@pytest.mark.parametrize("kind, m, votes, names, message", [
    (RankedProfile, 0, (((0,), 1),), None, "profile needs at least one candidate"),
    (ApprovalProfile, 0, (), ["x"], "profile needs at least one candidate"),
    (RankedProfile, 2, (((0, 1), 1), ((0, 1, 2), 0)), None,
     "ballot (0, 1, 2) does not rank all 2 candidates"),
    (ApprovalProfile, 2, (({0}, 1), ({3, 1}, 0)), None,
     "ballot approves unknown candidate: [1, 3]"),
    (RankedProfile, 2, (((1, 0), 0), ((0,), 1)), None,
     "multiplicity must be a positive integer, got 0"),
    (ApprovalProfile, 2, (({1}, True), ({0}, 2.0)), None,
     "multiplicity must be a positive integer, got True"),
    (RankedProfile, 2, (), ["a", "a", "b"], "profile must contain at least one vote"),
    (ApprovalProfile, 3, (), None, "profile must contain at least one vote"),
    (RankedProfile, 2, (((1, 0), 1),), ["a", "a"], "duplicate candidate name 'a'"),
    (RankedProfile, 2, (((1, 0), F(3, 2)),), None,
     "multiplicity must be a positive integer, got Fraction(3, 2)"),
    (ApprovalProfile, 2, (({1}, 1.5),), None, "multiplicity must be a positive integer, got 1.5"),
    (RankedProfile, 2, (((0, 1), 1.0),), None, "multiplicity must be a positive integer, got 1.0"),
])
def test_profile_constructor_errors_in_order(kind, m, votes, names, message):
    with pytest.raises(InputError) as info:
        kind(m=m, votes=votes, names=names)
    assert str(info.value) == message


@st.composite
def named_profiles(draw):
    m = draw(st.sampled_from([1, 2, 3, 5, 26, 27, 30]))
    names = draw(st.none() | st.lists(
        st.text("abxyz019_.-", min_size=1, max_size=4), min_size=m, max_size=m, unique=True,
    ))
    if draw(st.booleans()):
        ballots = st.permutations(range(m)).map(tuple)
        make = RankedProfile
    else:
        ballots = st.frozensets(st.integers(0, m - 1))
        make = ApprovalProfile
    votes = draw(st.lists(st.tuples(ballots, st.integers(1, 10**12)), min_size=1, max_size=5))
    return make(m, votes, names)


@PROPERTY_SETTINGS
@given(named_profiles())
@example(RankedProfile(1, [((0,), 1)]))
@example(ApprovalProfile(2, [((), 1)], ["b", "a"]))
@example(ApprovalProfile(27, [((), 3), ((26, 0), 1)]))
@example(RankedProfile(28, [(tuple(range(27, -1, -1)), 1)], [f"c{c}" for c in range(28)]))
def test_parse_inverts_write(profile):
    assert parse_election(write_election(profile)) == profile


@st.composite
def scrambled_elections(draw):
    """(text, expected): a profile from the checked constructor, and a text
    of it with shuffled lines, ballots split over several count lines,
    comments and blank lines, padded and non-canonical tokens, and maybe
    declared names."""
    m = draw(st.sampled_from([1, 2, 3, 5, 9, 26, 27, 30]))
    names = draw(st.none() | st.lists(
        st.text("abxyz019_.-", min_size=1, max_size=3), min_size=m, max_size=m, unique=True,
    ))
    ranked = draw(st.booleans())
    if ranked:
        keys = st.permutations(range(m)).map(tuple)
    else:
        keys = st.frozensets(st.integers(0, m - 1)).map(lambda s: tuple(sorted(s)))
    counts = draw(st.dictionaries(keys, st.integers(1, 10**12), min_size=1, max_size=5))
    make = RankedProfile if ranked else ApprovalProfile
    expected = make(m, counts.items(), names)

    def token(c):
        forms = [names[c] if names else chr(97 + c) if m <= 26 else str(c)]
        padded = "0" * draw(st.integers(0, 2)) + str(c)
        if not names or padded not in names:  # declared names win over integers
            forms.append(padded)
        return draw(st.sampled_from(["", " ", "  "])) + draw(st.sampled_from(forms)) + \
            draw(st.sampled_from(["", " "]))

    lines = []
    for key, count in counts.items():
        cuts = sorted(draw(st.sets(st.integers(1, count - 1), max_size=2)) if count > 1 else [])
        for part in (b - a for a, b in zip([0, *cuts], [*cuts, count])):
            order = list(key) if ranked else draw(st.permutations(key))
            ballot = ">".join(map(token, order)) if ranked else "{" + ",".join(map(token, order)) + "}"
            lines.append(draw(st.sampled_from(["", "0", " "])) + f"{part}:" + ballot)
    lines = draw(st.permutations(lines))
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", "  ", "# c>a", "#"])))
    header = [draw(st.sampled_from(["", "# election"])), f"m {m}"]
    if names is not None:
        header.append("candidates " + " , ".join(names))
    return "\n".join(header + lines) + "\n", expected


@PROPERTY_SETTINGS
@given(scrambled_elections())
@example(("m 3\n2: a>b>c\n# x\n\n1: 00>01 > 2\n", RankedProfile(3, [((0, 1, 2), 3)])))
@example(("m 30\n1: {20,010}\n2: { 5,21,20 , 10}\n3: {10, 20 }\n",
          ApprovalProfile(30, [({10, 20}, 4), ({5, 10, 20, 21}, 2)])))
def test_parse_merges_scrambled_text_like_the_constructor(case):
    text, expected = case
    profile = parse_election(text)
    assert profile == expected and repr(profile) == repr(expected)
    assert [tuple(map(type, vote)) for vote in profile.votes] == \
        [tuple(map(type, vote)) for vote in expected.votes]


def _outcome(parse, text):
    """What a parser makes of a text: the profile with its repr and vote
    types, or the ParseError's text and line."""
    try:
        profile = parse(text)
    except ParseError as exc:
        return str(exc), exc.line
    return profile, repr(profile), [tuple(map(type, vote)) for vote in profile.votes]


# near-misses first: hypothesis draws the first entries most often
MUTATIONS = (
    "repeated token", "wrong length", "out-of-range token", "other kind", "unknown token",
    "unterminated set", "second candidates line", "second m line", "unicode token",
    "unicode count", "unicode header", "zero count", "long count", "missing colon",
)


@st.composite
def mutated_elections(draw):
    """A scrambled election text with one or two faults (or near-faults)
    put in: each a mutation of one ballot line or of the header."""
    lines = draw(scrambled_elections())[0].split("\n")
    m_line = next(k for k, line in enumerate(lines) if line.startswith("m "))
    m = int(lines[m_line][2:])
    for mutation in draw(st.lists(st.sampled_from(MUTATIONS), min_size=1, max_size=2)):
        body = [i for i, line in enumerate(lines) if ":" in line]
        if not body:  # an earlier mutation took the last separator
            body = [len(lines)]
            lines.append("1:")
        i = draw(st.sampled_from(body))
        count, _, ballot = lines[i].partition(":")
        approval = ballot.strip().startswith("{")
        tokens = ballot.strip()[1:-1].split(",") if approval else ballot.split(">")
        j = draw(st.integers(0, len(tokens) - 1))
        join = (lambda ts: "{" + ",".join(ts) + "}") if approval else ">".join
        if mutation == "zero count":
            lines[i] = "0:" + ballot
        elif mutation == "missing colon":
            lines[i] = count + ballot
        elif mutation == "long count":
            lines[i] = "9" * 5000 + ":" + ballot
        elif mutation == "unicode count":
            lines[i] = draw(st.sampled_from(["²", "1²", "３", "1٣"])) + ":" + ballot
        elif mutation == "unicode header":
            lines[m_line] = draw(st.sampled_from(["m ²", f"m {m}²", "m ３"]))
        elif mutation in ("unicode token", "unknown token", "out-of-range token", "repeated token"):
            zeros = draw(st.sampled_from(["", "0", "00"]))
            tokens[j] = {
                "unicode token": draw(st.sampled_from(["²", "３"])),
                "unknown token": "Q",
                "out-of-range token": zeros + str(m + draw(st.integers(0, 3))),
                "repeated token": tokens[(j + 1) % len(tokens)],
            }[mutation]
            lines[i] = count + ":" + join(tokens)
        elif mutation == "wrong length":
            tokens = tokens[1:] if draw(st.booleans()) else tokens + tokens[:1]
            lines[i] = count + ":" + join(tokens)
        elif mutation == "other kind":
            other = ">".join(tokens) if approval else "{" + ",".join(tokens) + "}"
            lines.insert(draw(st.integers(m_line + 1, len(lines))), "1:" + other)
        elif mutation == "unterminated set":
            lines[i] = count + ":" + (ballot.rstrip()[:-1] if approval else "{" + ballot)
        elif mutation == "second m line":
            lines.insert(draw(st.integers(m_line + 1, len(lines))), f"m {m}")
        else:
            names = draw(st.sampled_from(["a,b", ",".join(map(str, range(m))), "x"]))
            lines.insert(draw(st.integers(m_line + 1, len(lines))), "candidates " + names)
    return "\n".join(lines)


@PROPERTY_SETTINGS
@given(st.one_of(scrambled_elections().map(lambda case: case[0]), mutated_elections()))
@example("m 3\n1: {}\n2: {a, c}\n1: {}\n")
@example("m 2\n1: a>b>a\n")
@example("m 2\n1: a>a\n")
@example("m 3\n1: {a,c, a}\n")
@example("m 2\n1: {\n")
@example("m 2\n1: {a}\n1: ab}\n")
@example("m 3\n1: {a\n")
@example("m 2\n1: a>b\n0: b>a\n")
@example("m 2\n٣: a>b\n")
@example("m 2\n1\n")
@example("m 3\n1: a>b>c\n1: {a}\n")
@example("m 2\n1: {a}\n1: a>b\n")
@example("m 2\n1: a>b\n" + "9" * 5000 + ": b>a\n")
@example("m 3\n1: a>b>²\n")
@example("m 2\ncandidates x,y\ncandidates x,y\n1: x>y\n")
@example("m 2\n1: a>b\nm 2\n")
@example("m 30\n1: {0,29,00}\n")
@example("m 3\n1: 0>1>2>1\n0: 2>1\n")
@example("m 3\n1: a>b>c>a\n1: b>c\n")
@example("m 3\n1: ab>>c\n")
@example("m 3\n1: a b>c\n")
@example("m 3\n1:  a > b >c \n")
@example("m 3\n1: a\t>b>c\n")
@example("m 3\n1: a>b>c\n2: a:b>c\n")
@example("m 2\n2: a>b:1\nb>a\n")
@example("m 2\ncandidates 1,0\n3: 0>1\n1: 1>0\n")
@example("m 2\ncandidates é,b\n1: é>b\n")
@example("m 2\n1: a>\x01\n")
@example("m 11\n1: a>b>c>d>e>f>g>h>i>j>10\n")
@example("m 3\n1: a>b>d\n")
@example("m 3\n1: a>1>c\n")
@example("m 3\ncandidates c,a,1\n1: 1>a>c\n")
@example("# c\n\nm 2\n1: a>b\n")
@example("\n  m 2  \n# x\ncandidates x,y\n\n1: y>x\n")
@example("candidates x,y\nm 2\n1: x>y\n")
@example("m 2\ncandidates x,y\n\n# only a header\n")
@example("# a\n# b\n")
@example("m 2\ncandidates x,x\n1: x>y\n")
@example("m 2\n1 2: a>b\n")
@example("m 3\r\n2: a>b>c\r\n1: c>b>a\r\n")
@example("m 3\r2: a>b>c\r1: c>b>a\r")
@example("m 3\n2: a>b>c\x0b1: c>b>a\n")
@example("m 3\n2: a>b>c\x0c1: c>b>a\n")
@example("m 3\n2: a>b>c\x1c1: c>b>a\n")
@example("m 3\n2: a>b>c\u20281: c>b>a\n")
@example("m 3\n2\x1f: a>b>c\x1f\n1: c>b>a\n")
@example("m 3\n\xa02: a>b>c\n1:\xa0c>b>a\n")
@example("m 3\n2: a>b>c\t\n1: c>b>a\n")
@example("m 3\n2: a>b>c\n\n  \n1: c>b>a\n\n\n")
@example("m 3\n2: a>b>c\n1: c>b>a")
@example("m 3\n2: a>b>c\n# 1: a>b>c\n1: c>b>a\n")
@example("m 3\n1: c>b>a\n2: a>b>c\n3: c>b>a\n1: b>a>c\n")
@example("m 3\n: a>b>c\n12: b>a>c\n")
@example("m 3\n1 2: a>b>c\n10: b>a>c\n")
@example("m 2\n1: a>\x00\n")
@example("m 2\n10: a>b\n3: b>a\n")
@example("m 1\n4: a\n")
@example("m 3\n1: a1>b>c\n")
@example("m 2\n1: a>b5\n: b>a\n")
@example("m 2\n12: a > b\n3: b>a7\n")
@example("m 2\n1: a>b\n\t10 : b>a\n")
@example("m 2\n10: a>b\n0: b>a\n")
@example("m 30\n1: {0}\n0: {1}\n")
@example("m 30\n1\u3000: {0,29}\n2 : {1}\n")
@example("m 2\ncandidates xx,yy\n\xa012\x1f: xx>yy\n")
@example("m 30\n00: {1}\n")
@example("m 30\n+1: {1}\n")
@example("m 30\n1_0: {1}\n")
@example("m 30\n٣: {1}\n")
# a break inside a ballot that only the token pass's irregular-byte guard refuses
@example("m 2\ncandidates xx,yy\n1: xx\r>yy\n")
@example("m 30\n1: {0\r,1}\n")
def test_whole_file_parse_matches_the_line_loop(text):
    assert _outcome(parse_election, text) == _outcome(_parse_lines, text)


# ---------------------------------------------------------------------------
# every way into a profile against one reference
#
# A profile is its distinct ballots in the order of their key tuples (a
# ranking's order, an approval ballot's ascending members) with merged
# counts. `_reference` builds from such a {key: count} map the votes, repr
# and hash that a profile must show, whichever path built it: the parser's
# letter and token passes and its line loop, the constructor, the three
# generators and the approval conversion.


def _approval_ballot(key):
    """The ballot whose set is built from the ascending key, as a profile's
    is: a set's repr follows its insertion order where members collide in
    its hash table, and the checked class builds its set again."""
    ballot = object.__new__(ApprovalBallot)
    object.__setattr__(ballot, "approved", frozenset(key))
    return ballot


def _reference(kind, m, merged, names=None):
    """(votes, repr, hash) of the profile of the keys and counts in merged."""
    wrap = Ranking if kind is RankedProfile else _approval_ballot
    votes = tuple((wrap(key), merged[key]) for key in sorted(merged))
    return votes, f"{kind.__name__}(m={m!r}, votes={votes!r}, names={names!r})", \
        hash((m, votes, names))


def _assert_is_reference(profile, kind, m, merged, names=None):
    votes, text, digest = _reference(kind, m, merged, names)
    assert type(profile) is kind and (profile.m, profile.names) == (m, names)
    assert profile.votes == votes and repr(profile) == text and hash(profile) == digest
    assert [tuple(map(type, vote)) for vote in profile.votes] == \
        [tuple(map(type, vote)) for vote in votes]
    assert profile.n == sum(merged.values())
    assert profile == kind(m, votes[::-1], names)
    heavier = dict(merged)
    heavier[min(merged)] += 1
    assert profile != kind(m, _reference(kind, m, heavier)[0], names)


@st.composite
def keyed_counts(draw):
    """(kind, m, {key: count}, names): distinct keys of one ballot kind with
    counts, over m across the letter, index-label and byte boundaries."""
    m = draw(st.sampled_from([1, 2, 3, 8, 26, 27, 70, 255, 256, 257]))
    if draw(st.booleans()):
        kind, keys = RankedProfile, st.permutations(range(m)).map(tuple)
    else:
        kind = ApprovalProfile
        keys = st.frozensets(st.integers(0, m - 1)).map(lambda s: tuple(sorted(s)))
    counts = st.one_of(st.integers(1, 6), st.integers(1, 10**12))
    merged = draw(st.dictionaries(keys, counts, min_size=1, max_size=6))
    names = draw(st.sampled_from([None, tuple(f"c{c}" for c in range(m))]
                                 + ([tuple("ZYXWVUTSRQPONMLKJIHGFEDCBA"[:m])] if m <= 26 else [])))
    return kind, m, merged, names


def _election_text(draw, kind, m, merged, names):
    """The keys and counts as election text: with a ``draw``, each count
    maybe split over two lines, in shuffled order; without one, one line per
    key in the given order."""
    labels = names or ("abcdefghijklmnopqrstuvwxyz"[:m] if m <= 26 else list(map(str, range(m))))
    lines = []
    for key, count in merged.items():
        part = draw(st.integers(1, count)) if draw else count
        text = ">".join(labels[c] for c in key) if kind is RankedProfile else \
            "{" + ",".join(labels[c] for c in key) + "}"
        lines += [f"{part}: {text}"] + ([f"{count - part}: {text}"] if part < count else [])
    header = [f"m {m}"] + ([] if names is None else ["candidates " + ",".join(names)])
    return "\n".join(header + (draw(st.permutations(lines)) if draw else lines)) + "\n"


@PROPERTY_SETTINGS
@given(keyed_counts(), st.data())
@example((RankedProfile, 1, {(0,): 10**12}, None), None)
@example((RankedProfile, 8, {(7, 6, 5, 4, 3, 2, 1, 0): 3, (0, 1, 2, 3, 4, 5, 6, 7): 10**12},
          None), None)
@example((RankedProfile, 26, {tuple(range(26)): 2, tuple(range(25, -1, -1)): 1}, None), None)
@example((RankedProfile, 27, {tuple(range(27)): 2, tuple(range(26, -1, -1)): 1}, None), None)
@example((RankedProfile, 255, {tuple(range(255)): 1, tuple(range(254, -1, -1)): 10**12},
          None), None)
@example((RankedProfile, 256, {tuple(range(256)): 1, tuple(range(255, -1, -1)): 2}, None), None)
@example((RankedProfile, 257, {tuple(range(257)): 1, tuple(range(256, -1, -1)): 2,
                               (256, *range(256)): 10**12}, None), None)
@example((ApprovalProfile, 70, {(): 1, (0, 64, 69): 10**12, (63, 64): 2, (1,): 3}, None), None)
@example((ApprovalProfile, 3, {(): 10**12}, None), None)
def test_every_path_into_a_profile_gives_the_reference(case, data):
    # an example has no data to draw from: its text keeps the keys' order
    kind, m, merged, names = case
    votes = [(key if kind is RankedProfile else set(key), count)
             for key, count in merged.items()]
    _assert_is_reference(kind(m, votes[::-1], names), kind, m, merged, names)
    text = _election_text(data and data.draw, kind, m, merged, names)
    for parse in (parse_election, _parse_lines):
        _assert_is_reference(parse(text), kind, m, merged, names)


@PROPERTY_SETTINGS
@given(keyed_counts(), st.data())
def test_the_store_takes_keys_in_any_order_with_repeats(case, data):
    # the parser hands its keys to the store in file order, repeats included:
    # the store must build from them what the constructor builds from the
    # same pairs, and the profile must be the reference
    kind, m, merged, names = case
    ranked = kind is RankedProfile
    pairs = []
    for ballot, count in merged.items():
        part = data.draw(st.integers(1, count))
        pairs += [(ballot, part)] + ([(ballot, count - part)] if part < count else [])
    pairs = data.draw(st.permutations(pairs))
    key = _row_type(m) if ranked else tuple
    keys, counts = [key(ballot) for ballot, _ in pairs], [count for _, count in pairs]
    checked = kind(m, [(ballot if ranked else set(ballot), count) for ballot, count in pairs])
    assert _store(m, keys, counts, ranked) == (checked.rows, checked.counts)
    _assert_is_reference(kind._from_canonical(m, keys, counts, names), kind, m, merged, names)


def _ref_impartial_counts(n, m, seed):
    """IC's counts as {order tuple: count}, by the generator's own walk over
    ranking prefixes, counted on tuples."""
    rng, orders = random.Random(seed), Counter()

    def walk(prefix, rest, count):
        k = len(rest)
        if k < 2:
            orders[prefix + rest] += count
        elif count < math.factorial(k):
            orders.update(prefix + tuple(rng.sample(rest, k)) for _ in range(count))
        else:
            for i, c in enumerate(_multinomial(rng, count, [1] * k)):
                if c:
                    walk(prefix + rest[i:i + 1], rest[:i] + rest[i + 1:], c)

    walk((), tuple(range(m)), n)
    return dict(orders)


def _ref_approval_counts(merged, m, k, seed):
    """`ranked_to_approval`'s counts as {members tuple: count}: fixed depths,
    or uniform ones drawn per ballot in key order."""
    prefixes = Counter()
    rng = random.Random(seed)
    for order, mult in sorted(merged.items()):
        if k != "uniform":
            prefixes[tuple(sorted(order[:k]))] += mult
        elif mult < m + 1:
            for _ in range(mult):
                prefixes[tuple(sorted(order[:rng.randint(0, m)]))] += 1
        else:
            for depth, c in enumerate(_multinomial(rng, mult, [1] * (m + 1))):
                if c:
                    prefixes[tuple(sorted(order[:depth]))] += c
    return dict(prefixes)


@PROPERTY_SETTINGS
@given(st.integers(1, 9), st.integers(1, 3000), st.integers(0, 2**32),
       st.sampled_from(["uniform", 0, 1, 2]))
@example(1, 5, 0, 0)
@example(2, 10**12, 3, "uniform")
@example(26, 30, 1, 2)
@example(27, 30, 1, "uniform")
@example(70, 4, 2, 0)
@example(70, 4, 2, 66)
@example(255, 2, 3, 1)
@example(256, 2, 3, 255)
@example(257, 3, 4, "uniform")
def test_generators_and_conversion_give_the_reference(m, n, seed, k):
    merged = _ref_impartial_counts(n, m, seed)
    ranked = generate(ImpartialCulture(n=n, m=m, seed=seed))
    _assert_is_reference(ranked, RankedProfile, m, merged)
    k = k if k == "uniform" else min(k, m)
    _assert_is_reference(ranked_to_approval(ranked, k, seed), ApprovalProfile, m,
                         _ref_approval_counts(merged, m, k, seed))
    if m >= 2:
        spec = PlantedGap(winner=m - 1, gap=1 + seed % n, n=n, m=m)
        try:
            tops = _planted_counts(spec)
        except InputError:  # a gap of the wrong parity, or too large for n and m
            tops = []
        planted = {(top, *(c for c in range(m) if c != top)): c for top, c in enumerate(tops) if c}
        if planted:
            _assert_is_reference(generate(spec), RankedProfile, m, planted)
    two = TwoCandidate(p=min(F(seed % 8, 7), F(1)), n=n)
    counts = {key: c for key, c in (((0, 1), two.top_count), ((1, 0), n - two.top_count)) if c}
    _assert_is_reference(generate(two), RankedProfile, 2, counts)


# A heavy ballot's uniform depths are counted per prefix mask: at m = 70 a
# mask is wider than a machine word. A ranking of multiplicity m draws its
# depths per vote, one of m + 1 or more as one multinomial over the m + 1
# prefixes.


@pytest.mark.parametrize("seed", range(6))
def test_uniform_depths_on_both_sides_of_the_multinomial_branch_at_m70(seed):
    m, rng = 70, random.Random(70)
    merged = {tuple(rng.sample(range(m), m)): mult for mult in (m, m + 1, 300)}
    ranked = RankedProfile(m, [(Ranking(order), mult) for order, mult in merged.items()])
    _assert_is_reference(ranked_to_approval(ranked, "uniform", seed), ApprovalProfile, m,
                         _ref_approval_counts(merged, m, "uniform", seed))



# A rational is printed as its float would be, in three styles; beyond the
# float range the same style is computed exactly.
SPECS = [".6g", ".10g", "#.10g"]
FLOAT_MAX = int(sys.float_info.max)


@PROPERTY_SETTINGS
@given(st.integers(-FLOAT_MAX, FLOAT_MAX), st.integers(1, FLOAT_MAX), st.sampled_from(SPECS))
@example(FLOAT_MAX, 1, ".6g")
@example(1, FLOAT_MAX, "#.10g")
@example(-1, 3, ".10g")
def test_a_rational_in_the_float_range_prints_as_its_float(numerator, denominator, spec):
    value = F(numerator, denominator)
    assert _format_rational(value, spec) == format(float(value), spec)


@PROPERTY_SETTINGS
@given(st.data(), st.sampled_from(SPECS), st.booleans())
def test_beyond_the_float_range_a_rational_prints_in_the_float_style(data, spec, negative):
    # D * 10^20 for D of at most the spec's digits prints in scientific style
    # with D's digits; D * 10^420 must print the same, its exponent 400 higher
    digits = int(spec.strip("#.g"))
    d = data.draw(st.integers(1, 10**digits - 1)) * (-1 if negative else 1)
    mantissa, exponent = format(float(F(d * 10**20)), spec).split("e")
    assert _format_rational(F(d * 10**420), spec) == f"{mantissa}e+{int(exponent) + 400}"


@pytest.mark.parametrize("value, spec, text", [
    (F(10**400, 2), ".6g", "5e+399"),
    (F(10**400, 3), ".10g", "3.333333333e+399"),
    (F(10**400, 2), "#.10g", "5.000000000e+399"),
    # an exact tie rounds half to even, as float's printing does
    (F(1234565 * 10**393), ".6g", "1.23456e+399"),
    (F(1234575 * 10**393), ".6g", "1.23458e+399"),
    (F(-(10**400 - 1)), ".6g", "-1e+400"),
])
def test_beyond_the_float_range_the_digits_are_exact(value, spec, text):
    assert _format_rational(value, spec) == text
