"""Property tests: the integer tallies and the estimators built on them
against plain references, the type-level exact search against an
index-level one and the pruned search against the unpruned one,
candidate-token resolution in the parser, and profile
construction (counted generation, the constructor's merge and errors, the
parse/write round trip, and the parser's own merge of scrambled text)."""

import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    ScoreVector,
    Scoring,
    WinnerResult,
    approval_profile,
    ranked_profile,
    rule_tally,
    winner_set,
)
from movkit.estimators import VoteSource, estimate_mov
from movkit.generation import ImpartialCulture, generate, ranked_to_approval
from movkit.io_formats import parse_election, write_election
from movkit.oracle import (
    _make_engine,
    copeland_log_factor,
    mov_bounds,
    mov_brute_force,
    relative_margin_generic,
)

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
    assert winner_set(profile, Scoring(vector)).scores == expected
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
    assert bounds.upper == min(gap / alphas[0] + 1, profile.n)


@PROPERTY_SETTINGS
@given(profiles_with_vectors(), st.integers(0, 2**32), st.integers(1, 40))
@example(FRACTIONAL, 7, 11)
def test_scoring_estimate_matches_fraction_reference(case, seed, ell):
    profile, vector = case
    source = VoteSource.from_profile(profile)
    alphas = _ref_normalized(vector.alphas)
    raw = _ref_scores(source.draw_counts(ell, seed).items(), alphas)
    sbar = {c: F(profile.n, ell) * s for c, s in raw.items()}
    est = estimate_mov(source, Scoring(vector), F(1, 10), F(1, 20), seed, ell=ell)
    assert est.estimated_scores == sbar
    assert est.m_bar == _ref_project(_ref_top_two_gap(sbar) / (F(3, 2) * alphas[0]), profile.n)


@st.composite
def vote_sources(draw):
    """Sources of either kind, with small weights or weights up to 10**18,
    where w/W can round to 1.0 before the last ballot."""
    m = draw(st.integers(2, 4))
    profile = draw(st.one_of(profiles(m), approval_profiles(m)))
    ballots = tuple(b for b, _ in profile.votes)
    weights = draw(st.lists(st.one_of(st.integers(1, 6), st.integers(1, 10**18)),
                            min_size=len(ballots), max_size=len(ballots)))
    kind = "ranked" if isinstance(profile, RankedProfile) else "approval"
    return VoteSource(kind, m, ballots, tuple(weights))


@PROPERTY_SETTINGS
@given(vote_sources(), st.integers(0, 2**64), st.integers(1, 10**6))
@example(VoteSource("ranked", 2, (Ranking((0, 1)), Ranking((1, 0))), (10**18, 1)), 0, 10**6)
def test_draw_counts_is_a_seeded_multinomial_in_profile_order(source, seed, ell):
    counts = source.draw_counts(ell, seed)
    assert sum(counts.values()) == ell
    positions = [source.ballots.index(b) for b in counts]
    assert positions == sorted(positions)
    assert all(1 <= c <= ell for c in counts.values())
    assert source.draw_counts(ell, seed) == counts
    if ell <= 1000:
        drawn = source.draw(ell, seed)
        assert Counter(drawn) == counts and list(Counter(drawn)) == list(counts)


# References for the approval, Bucklin and pairwise families: the score
# functions and estimator bodies as they were before one integer tally per
# family replaced them, over plain dicts and Fractions.


@st.composite
def approval_profiles(draw, m):
    ballots = draw(st.lists(st.frozensets(st.integers(0, m - 1)), min_size=1, max_size=8))
    mults = draw(st.lists(st.integers(1, 6), min_size=len(ballots), max_size=len(ballots)))
    return approval_profile(m, zip(ballots, mults))


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
    counts = Counter(source.draw(ell, seed))
    m, n = source.m, source.n
    scale = F(n, ell)
    if isinstance(rule, (Approval, KApproval)):
        if isinstance(rule, Approval):
            raw = _ref_approval_scores(counts.items(), m)
        else:
            raw = _ref_scores(counts.items(), [1] * rule.k + [0] * (m - rule.k))
        sbar = {x: scale * raw[x] for x in range(m)}
        return _ref_project(_ref_top_two_gap(sbar) / 2, n), sbar, None
    if isinstance(rule, Bucklin):
        rows = _ref_top_k_counts(counts.items(), m)
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
    dbar = tuple(tuple(scale * d for d in row) for row in _ref_pairwise(counts.items(), m))
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
        relative_margin_generic(dbar, n, w, x, rule.alpha)
        for x in range(m) if x != w
    ))
    k_log = copeland_log_factor(m)
    return _ref_project(F(4 * (k_log + 1), 2 * k_log + 3) * gamma, n), scores, dbar


def _typed(scores):
    return {c: (type(s), s) for c, s in scores.items()}


@PROPERTY_SETTINGS
@given(both_kinds(), st.sampled_from(ALPHAS))
@example((ranked_profile(2, [((0, 1), 1), ((1, 0), 1)]), approval_profile(2, [((), 2)])), F(1, 2))
def test_family_tallies_match_reference(case, alpha):
    ranked, approval = case
    m = ranked.m
    for profile, rule in ((approval, Approval()), (ranked, Bucklin()),
                          (ranked, Maximin()), (ranked, Copeland(alpha))):
        result, expected = winner_set(profile, rule), _ref_winner_set(profile, rule)
        assert result == expected
        assert _typed(result.scores) == _typed(expected.scores)
    assert rule_tally(Bucklin(), m, ranked.votes, True).top_counts() == \
        _ref_top_k_counts(ranked.votes, m)
    assert rule_tally(Maximin(), m, ranked.votes, True).net() == _ref_pairwise(ranked.votes, m)
    counts, n = _ref_top_k_counts(ranked.votes, m), ranked.n
    w = _ref_winner_set(ranked, Bucklin()).winners[0]
    leads = [counts[w][lv] - counts[x][lv] + 1 for lv in range(m - 1) if 2 * counts[w][lv] > n
             for x in range(m) if x != w and 2 * counts[x][lv] <= n]
    assert mov_bounds(ranked, Bucklin()).upper == min([*leads, n])


@PROPERTY_SETTINGS
@given(both_kinds(), st.sampled_from(ALPHAS), st.integers(1, 4), st.integers(0, 2**32),
       st.integers(1, 60))
def test_family_estimates_match_reference(case, alpha, k, seed, ell):
    ranked, approval = case
    k = 1 + (k - 1) % (ranked.m - 1)
    for profile, rule in ((ranked, KApproval(k)), (approval, Approval()), (ranked, Bucklin()),
                          (ranked, Maximin()), (ranked, Copeland(alpha))):
        source = VoteSource.from_profile(profile)
        est = estimate_mov(source, rule, F(1, 10), F(1, 20), seed, ell=ell)
        m_bar, scores, pair_margins = _ref_estimate(source, rule, seed, ell)
        assert (est.m_bar, est.pair_margins) == (m_bar, pair_margins)
        assert _typed(est.estimated_scores) == _typed(scores)
        assert isinstance(est.m_bar, F) and 1 <= est.m_bar <= source.n


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


TIED_PAIR = (ranked_profile(2, [((0, 1), 1), ((1, 0), 1)]), approval_profile(2, [((), 2)]))


@PROPERTY_SETTINGS
@given(both_kinds(), st.sampled_from(ALPHAS), st.integers(1, 4))
@example(TIED_PAIR, F(1, 2), 1)
@example((ranked_profile(3, [((0, 1, 2), 5), ((1, 2, 0), 2), ((2, 1, 0), 2)]),
          approval_profile(3, [((0,), 3), ((1, 2), 1)])), F(0), 2)
def test_family_bounds_match_reference(case, alpha, k):
    ranked, approval = case
    k = 1 + (k - 1) % (ranked.m - 1)
    for profile, rule in ((ranked, KApproval(k)), (approval, Approval()), (ranked, Bucklin()),
                          (ranked, Maximin()), (ranked, Copeland(alpha))):
        bounds = mov_bounds(profile, rule)
        lower, upper, source = _ref_bounds(profile, rule)
        assert (bounds.lower, bounds.upper, bounds.source) == (lower, min(upper, profile.n), source)
        assert bounds.upper <= profile.n


def _ref_brute_force(profile, rule, budget):
    """Index-level exact search: every size-t set of indices into
    ``profile.expand()`` times every tuple of replacements that differ from
    the votes they replace. Returns (value, witness, evaluations)."""
    engine, _, universe, wrap = _make_engine(profile, rule)
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
    tally, raw, universe, wrap = _make_engine(profile, rule)
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
    skewed = ScoreVector((F(3),) + (F(1),) * (m - 2) + (F(0),))
    return [
        Scoring(ScoreVector.borda(m)), Scoring(skewed), Bucklin(), Maximin(),
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
        make, rules = approval_profile, [Approval()]
    else:
        m = draw(st.integers(2, 4))
        universe = list(itertools.permutations(range(m)))
        make, rules = ranked_profile, _ranked_rules(m)
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
        make, rules = approval_profile, [Approval()]
    else:
        universe = list(itertools.permutations(range(m)))
        make, rules = ranked_profile, _ranked_rules(m)
    types = draw(st.lists(st.sampled_from(universe), min_size=1, max_size=4, unique=True))
    mults = draw(st.lists(st.integers(1, 12), min_size=len(types), max_size=len(types)))
    return make(m, zip(types, mults)), draw(st.sampled_from(rules)), draw(st.integers(1, 3))


@settings(max_examples=300, deadline=None)
@given(pruning_cases())
# one change lifts candidate 2 to a level-2 majority beside the Bucklin winner 1
@example((ranked_profile(3, [((0, 1, 2), 4), ((2, 1, 0), 4)]), Bucklin(), 1))
# two changes let candidate 3 tie the Copeland winner 2 on points
@example((ranked_profile(4, [((2, 3, 0, 1), 5), ((3, 0, 2, 1), 2)]), Copeland(F(1)), 2))
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


# Profile construction. The generators count ballots before they build a
# profile; the references below are their per-vote forms, one ballot object
# per vote, merged by the constructor.


def _ref_impartial_culture(n, m, seed):
    rng = random.Random(seed)
    votes = tuple((Ranking(tuple(rng.sample(range(m), m))), 1) for _ in range(n))
    return RankedProfile(m=m, votes=votes)


def _ref_ranked_to_approval(profile, k, seed):
    m = profile.m
    if k == "uniform":
        rng = random.Random(seed)
        depths = [rng.randint(0, m) for _ in range(profile.n)]
    else:
        depths = [k] * profile.n
    votes = tuple(
        (ApprovalBallot(ballot.prefix(depth)), 1)
        for ballot, depth in zip(profile.expand(), depths)
    )
    return ApprovalProfile(m=m, votes=votes, names=profile.names)


@PROPERTY_SETTINGS
@given(st.integers(1, 300), st.integers(1, 6), st.integers(0, 2**64))
@example(1, 1, 0)
def test_counted_generation_keeps_the_seeded_streams(n, m, seed):
    ranked = generate(ImpartialCulture(n=n, m=m, seed=seed))
    reference = _ref_impartial_culture(n, m, seed)
    assert ranked == reference and repr(ranked) == repr(reference)
    for k in ["uniform", *range(m + 1)]:
        approval = ranked_to_approval(ranked, k, seed)
        reference = _ref_ranked_to_approval(ranked, k, seed)
        assert approval == reference and repr(approval) == repr(reference)


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
     "multiplicity must be a positive integer, got 2.0"),
    (RankedProfile, 2, (), ["a", "a", "b"], "profile must contain at least one vote"),
    (ApprovalProfile, 3, (), None, "profile must contain at least one vote"),
    (RankedProfile, 2, (((1, 0), 1),), ["a", "a"], "duplicate candidate name 'a'"),
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
        make = ranked_profile
    else:
        ballots = st.frozensets(st.integers(0, m - 1))
        make = approval_profile
    votes = draw(st.lists(st.tuples(ballots, st.integers(1, 10**12)), min_size=1, max_size=5))
    return make(m, votes, names)


@PROPERTY_SETTINGS
@given(named_profiles())
@example(ranked_profile(1, [((0,), 1)]))
@example(approval_profile(2, [((), 1)], ["b", "a"]))
@example(approval_profile(27, [((), 3), ((26, 0), 1)]))
@example(ranked_profile(28, [(tuple(range(27, -1, -1)), 1)], [f"c{c}" for c in range(28)]))
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
    make = ranked_profile if ranked else approval_profile
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
@example(("m 3\n2: a>b>c\n# x\n\n1: 00>01 > 2\n", ranked_profile(3, [((0, 1, 2), 3)])))
@example(("m 30\n1: {20,010}\n2: { 5,21,20 , 10}\n3: {10, 20 }\n",
          approval_profile(30, [({10, 20}, 4), ({5, 10, 20, 21}, 2)])))
def test_parse_merges_scrambled_text_like_the_constructor(case):
    text, expected = case
    profile = parse_election(text)
    assert profile == expected and repr(profile) == repr(expected)
    assert [tuple(map(type, vote)) for vote in profile.votes] == \
        [tuple(map(type, vote)) for vote in expected.votes]
