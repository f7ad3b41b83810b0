"""Exact margin search, structural quantities, and sandwich bounds."""

import itertools
import random
import tracemalloc
from fractions import Fraction

import pytest

from movkit.core import (
    Approval,
    Bucklin,
    Copeland,
    InputError,
    KApproval,
    Maximin,
    Ranking,
    ScoreVector,
    Scoring,
    approval_profile,
    ranked_profile,
    rule_tally,
    winner_set,
)
from movkit.generation import ImpartialCulture, generate
from movkit.oracle import (
    TiedWinnersError,
    WorkLimitError,
    apply_changes,
    copeland_log_factor,
    mov_approval_closed_form,
    mov_bounds,
    mov_brute_force,
    mov_kapproval_closed_form,
    relative_margin_generic,
)

F = Fraction
HALF = F(1, 2)

ALL_RULES_M3 = [
    Scoring(ScoreVector.borda(3)),
    KApproval(1),
    KApproval(2),
    Bucklin(),
    Maximin(),
    Copeland(HALF),
]


def _pair_margins(p):
    return rule_tally(Maximin(), p.m, p.votes, True).net()


def _relative_margin(p, x, y, alpha):
    return relative_margin_generic(_pair_margins(p), p.n, x, y, alpha)


def random_ranked(rng, m, n):
    perms = list(itertools.permutations(range(m)))
    votes = {}
    for _ in range(n):
        b = rng.choice(perms)
        votes[b] = votes.get(b, 0) + 1
    return ranked_profile(m, list(votes.items()))


def random_approval(rng, m, n):
    votes = {}
    for _ in range(n):
        b = frozenset(c for c in range(m) if rng.random() < 0.5)
        votes[tuple(sorted(b))] = votes.get(tuple(sorted(b)), 0) + 1
    return approval_profile(m, list(votes.items()))


def test_brute_force_two_candidate_basics():
    p = ranked_profile(2, [((0, 1), 2), ((1, 0), 1)])
    r = mov_brute_force(p, KApproval(1), 3)
    assert r.value == 1
    assert r.witness == ((0, Ranking((1, 0))),)

    p4 = ranked_profile(2, [((0, 1), 4)])
    r4 = mov_brute_force(p4, KApproval(1), 4)
    assert r4.value == 2
    assert r4.witness == ((0, Ranking((1, 0))), (1, Ranking((1, 0))))


def test_brute_force_copeland_example():
    p = ranked_profile(3, [((0, 1, 2), 2), ((1, 2, 0), 1)])
    r = mov_brute_force(p, Copeland(HALF), 3)
    assert r.value == 1
    assert r.witness == ((0, Ranking((1, 0, 2))),)


def test_brute_force_budget_exhaustion_and_mov_floor():
    p = ranked_profile(2, [((0, 1), 4)])
    r = mov_brute_force(p, KApproval(1), 1)
    assert r.value is None and not r.is_exact
    assert r.budget == 1
    # a tied winner set still needs one replacement to change
    tie = ranked_profile(2, [((0, 1), 1), ((1, 0), 1)])
    assert mov_brute_force(tie, KApproval(1), 2).value == 1


def test_brute_force_work_limit():
    p = ranked_profile(3, [((0, 1, 2), 6)])
    with pytest.raises(WorkLimitError):
        mov_brute_force(p, KApproval(1), 6, work_limit=3)


def test_brute_force_work_limit_on_large_profile_stays_small():
    # the guard must trip before any per-vote work: a list of the m! - 1 other
    # rankings for each of the n votes would take about 80 MiB here
    p = generate(ImpartialCulture(n=2000, m=7, seed=1))
    tracemalloc.start()
    try:
        with pytest.raises(WorkLimitError):
            mov_brute_force(p, Scoring(ScoreVector.borda(7)), p.n, work_limit=1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_brute_force_work_limit_charges_the_universe_before_building_it():
    # the 9! = 362,880 replacement rankings alone exceed the limit, so none is
    # built: the whole list would peak at about 64 MB
    p = generate(ImpartialCulture(n=20, m=9, seed=1))
    tracemalloc.start()
    try:
        with pytest.raises(WorkLimitError):
            mov_brute_force(p, Scoring(ScoreVector.borda(9)), p.n, work_limit=1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_brute_force_work_limit_counts_pruned_nodes():
    # levels 1..19 are pruned at their roots and level 20 scores one change,
    # so only the visited nodes can trip a limit this small
    p = ranked_profile(3, [((0, 1, 2), 40)])
    r = mov_brute_force(p, KApproval(1), p.n)
    assert (r.value, r.evaluations) == (20, 1)
    with pytest.raises(WorkLimitError):
        mov_brute_force(p, KApproval(1), p.n, work_limit=30)


@pytest.mark.parametrize("rule, mov", [
    (KApproval(1), 3), (Maximin(), 4), (Copeland(HALF), 4),
])
def test_brute_force_solves_ic_n30_under_the_default_limit(rule, mov):
    # unpruned, maximin and Copeland need 6.5M evaluations here
    p = generate(ImpartialCulture(n=30, m=4, seed=13))
    r = mov_brute_force(p, rule, p.n)
    assert r.value == mov and len(r.witness) == mov
    assert winner_set(apply_changes(p, r.witness), rule).winners != winner_set(p, rule).winners


def test_brute_force_input_validation():
    p = ranked_profile(2, [((0, 1), 2)])
    with pytest.raises(InputError):
        mov_brute_force(p, KApproval(1), 0)


def test_witness_replay_changes_the_winner_set():
    rng = random.Random(99)
    for _ in range(60):
        p = random_ranked(rng, 3, rng.randint(1, 5))
        rule = rng.choice(ALL_RULES_M3)
        r = mov_brute_force(p, rule, p.n)
        before = winner_set(p, rule).winners
        changed = apply_changes(p, r.witness)
        after = winner_set(changed, rule).winners
        assert after != before
        assert changed.n == p.n


def test_apply_changes_validates_indices_and_ballots():
    p = ranked_profile(2, [((0, 1), 2)])
    with pytest.raises(InputError):
        apply_changes(p, [(5, Ranking((1, 0)))])
    with pytest.raises(InputError):
        apply_changes(p, [(0, Ranking((1, 0))), (0, Ranking((0, 1)))])
    with pytest.raises(InputError):
        apply_changes(p, [(0, Ranking((1, 0, 2)))])
    with pytest.raises(TypeError):
        apply_changes(p, [(0.0, Ranking((1, 0)))])


def test_apply_changes_takes_raw_ballots_and_matches_a_rebuilt_profile():
    p = ranked_profile(3, [((0, 1, 2), 2), ((1, 2, 0), 3), ((2, 0, 1), 1)])
    changes = [(4, Ranking((2, 1, 0))), (0, (2, 1, 0)), (5, [0, 2, 1])]
    expanded = p.expand()
    for index, ballot in changes:
        expanded[index] = ballot
    rebuilt = ranked_profile(3, [(tuple(getattr(b, "order", b)), 1) for b in expanded])
    changed = apply_changes(p, changes)
    assert changed == rebuilt and repr(changed) == repr(rebuilt)
    a = approval_profile(2, [((0,), 1), ((), 2)])
    assert apply_changes(a, [(1, {0, 1})]) == approval_profile(2, [((0,), 1), ((), 1), ((0, 1), 1)])


def test_apply_changes_does_not_expand_the_votes():
    # 4,000,000 votes would take hundreds of MB as a list of ballots
    p = ranked_profile(2, [((0, 1), 2_000_000), ((1, 0), 2_000_000)])
    witness = mov_brute_force(p, KApproval(1), p.n).witness
    tracemalloc.start()
    try:
        changed = apply_changes(p, witness)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20
    assert changed == ranked_profile(2, [((0, 1), 1_999_999), ((1, 0), 2_000_001)])


def test_kapproval_closed_form_examples():
    assert mov_kapproval_closed_form(ranked_profile(2, [((0, 1), 2), ((1, 0), 1)]), 1) == 1
    assert mov_kapproval_closed_form(ranked_profile(2, [((0, 1), 7), ((1, 0), 3)]), 1) == 2
    assert mov_kapproval_closed_form(ranked_profile(2, [((0, 1), 3), ((1, 0), 1)]), 1) == 1
    with pytest.raises(TiedWinnersError):
        mov_kapproval_closed_form(ranked_profile(2, [((0, 1), 1), ((1, 0), 1)]), 1)


def test_approval_closed_form_examples():
    p = approval_profile(2, [((0,), 3), ((1,), 1)])
    assert mov_approval_closed_form(p) == 1
    assert mov_brute_force(p, Approval(), 4).value == 1
    with pytest.raises(TiedWinnersError):
        mov_approval_closed_form(approval_profile(2, [((0, 1), 2)]))


def test_bucklin_gap_examples():
    p = ranked_profile(3, [((0, 1, 2), 1), ((0, 2, 1), 1), ((1, 0, 2), 1)])
    assert mov_bounds(p, Bucklin()).upper == 2
    assert mov_brute_force(p, Bucklin(), 3).value == 1

    # the level gap is 5, capped at n = 4
    unanimous = ranked_profile(2, [((0, 1), 4)])
    assert mov_bounds(unanimous, Bucklin()).upper == 4

    # no level separates a full tie, and the upper end is capped at n
    tie = ranked_profile(2, [((0, 1), 1), ((1, 0), 1)])
    assert mov_bounds(tie, Bucklin()).upper == 2


def test_bucklin_change_floor_is_a_true_lower_bound():
    # the two-vote unanimous profile shows why the floor cannot be gap/2:
    # the level gap is 3 there (capped at n = 2 as the upper end) but one
    # replacement already creates a tie
    p = ranked_profile(2, [((0, 1), 2)])
    assert mov_bounds(p, Bucklin()).upper == 2
    assert mov_bounds(p, Bucklin()).lower == 1
    assert mov_brute_force(p, Bucklin(), 2).value == 1

    rng = random.Random(4)
    for _ in range(120):
        prof = random_ranked(rng, rng.choice([2, 3]), rng.randint(1, 5))
        bounds = mov_bounds(prof, Bucklin())
        floor, gap = bounds.lower, bounds.upper
        exact = mov_brute_force(prof, Bucklin(), prof.n).value
        assert floor <= exact
        assert exact <= gap
        assert floor <= gap


def test_relative_margin_examples():
    p = ranked_profile(3, [((0, 1, 2), 2), ((1, 2, 0), 1)])
    assert _relative_margin(p, 0, 1, HALF) == 1
    assert _relative_margin(p, 0, 2, HALF) == 1
    tie = ranked_profile(2, [((0, 1), 1), ((1, 0), 1)])
    assert _relative_margin(tie, 0, 1, HALF) == 0
    with pytest.raises(InputError):
        _relative_margin(p, 1, 1, HALF)


def test_relative_margin_agrees_with_direct_scan():
    """The binary search must match a linear scan of the defining predicate."""

    def scan(profile, x, y, alpha):
        d = _pair_margins(profile)
        n = profile.n

        def shifted(z, t):
            below = sum(1 for u in range(profile.m) if u != z and d[u][z] < 2 * t)
            equal = sum(1 for u in range(profile.m) if u != z and d[u][z] == 2 * t)
            return below + alpha * equal

        for t in range(-(n + 2), n + 3):
            if shifted(x, -t) <= shifted(y, t):
                return t
        raise AssertionError("predicate never satisfied")

    rng = random.Random(7)
    alphas = [F(0), HALF, F(1), F(1, 3)]
    for _ in range(150):
        m = rng.choice([2, 3, 4])
        p = random_ranked(rng, m, rng.randint(1, 5))
        a = rng.choice(alphas)
        for x in range(m):
            for y in range(m):
                if x != y:
                    assert _relative_margin(p, x, y, a) == scan(p, x, y, a)


def test_copeland_margin_examples():
    p = ranked_profile(3, [((0, 1, 2), 2), ((1, 2, 0), 1)])
    assert mov_bounds(p, Copeland(HALF)).lower == 1

    # unanimous two-candidate profile at n=4: the direct scan settles it at 2
    unanimous = ranked_profile(2, [((0, 1), 4)])
    for alpha in [F(0), HALF, F(1)]:
        assert mov_bounds(unanimous, Copeland(alpha)).lower == 2
    assert mov_brute_force(unanimous, Copeland(HALF), 4).value == 2

    # a margin of zero is a tie, which the bounds report as such
    tie = ranked_profile(2, [((0, 1), 1), ((1, 0), 1)])
    assert mov_bounds(tie, Copeland(HALF)).source == "tied winners"


def test_copeland_log_factor():
    assert copeland_log_factor(2) == 1
    assert copeland_log_factor(3) == 2
    assert copeland_log_factor(4) == 2
    assert copeland_log_factor(5) == 3
    assert copeland_log_factor(8) == 3
    assert copeland_log_factor(9) == 4


def test_bounds_examples():
    bu = ranked_profile(3, [((0, 1, 2), 1), ((0, 2, 1), 1), ((1, 0, 2), 1)])
    b = mov_bounds(bu, Bucklin())
    assert b.lower == 1 and b.upper == 2

    tie = ranked_profile(2, [((0, 1), 1), ((1, 0), 1)])
    for rule in [KApproval(1), Maximin()]:
        tb = mov_bounds(tie, rule)
        assert tb.lower == 1 and tb.upper == 1
        assert tb.source == "tied winners"
    # plain scoring keeps the gap formula shape on ties: [0, 1] still brackets MoV=1
    sc_tie = mov_bounds(tie, Scoring(ScoreVector.borda(2)))
    assert sc_tie.lower == 0 and sc_tie.upper == 1

    cp_tie = mov_bounds(tie, Copeland(HALF))
    assert cp_tie.lower == 1 and cp_tie.upper == tie.n

    bucklin_tie = mov_bounds(tie, Bucklin())
    assert bucklin_tie.lower == 1 and bucklin_tie.upper == tie.n


def test_bounds_sources_are_labeled():
    p = ranked_profile(2, [((0, 1), 2), ((1, 0), 1)])
    assert mov_bounds(p, KApproval(1)).source == "top-k score gap"
    assert mov_bounds(p, Scoring(ScoreVector.borda(2))).source == "positional score gap"
    assert mov_bounds(p, Maximin()).source == "pairwise score gap"
    assert mov_bounds(p, Copeland(HALF)).source == "relative margin"
    assert mov_bounds(p, Bucklin()).source == "majority level analysis"
    ap = approval_profile(2, [((0,), 2), ((1,), 1)])
    assert mov_bounds(ap, Approval()).source == "approval score gap"


def test_bounds_contain_exact_value_on_random_profiles():
    rng = random.Random(31)
    for _ in range(150):
        p = random_ranked(rng, 3, rng.randint(1, 5))
        for rule in ALL_RULES_M3:
            bounds = mov_bounds(p, rule)
            exact = mov_brute_force(p, rule, p.n).value
            assert bounds.lower <= exact <= bounds.upper
    for _ in range(60):
        p = random_approval(rng, 3, rng.randint(1, 5))
        bounds = mov_bounds(p, Approval())
        exact = mov_brute_force(p, Approval(), p.n).value
        assert bounds.lower <= exact <= bounds.upper


def test_scoring_bounds_shape():
    p = ranked_profile(2, [((0, 1), 2), ((1, 0), 1)])
    b = mov_bounds(p, Scoring(ScoreVector.borda(2)))
    # gap 1 under borda m=2, alpha1 = 1: [g/2, g + 1]
    assert b.lower == HALF and b.upper == 2


def test_maximin_bounds_shape():
    p = ranked_profile(2, [((0, 1), 2), ((1, 0), 1)])
    b = mov_bounds(p, Maximin())
    # pairwise gap 2: [g/4, g/2]
    assert b.lower == HALF and b.upper == 1


def test_kapproval_bounds_shape():
    p = ranked_profile(2, [((0, 1), 7), ((1, 0), 3)])
    b = mov_bounds(p, KApproval(1))
    assert b.lower == 2 and b.upper == 2
    odd = ranked_profile(2, [((0, 1), 2), ((1, 0), 1)])
    bo = mov_bounds(odd, KApproval(1))
    assert bo.lower == HALF and bo.upper == 1


def test_brute_force_counts_evaluations_deterministically():
    p = ranked_profile(2, [((0, 1), 2), ((1, 0), 1)])
    r1 = mov_brute_force(p, KApproval(1), 3)
    r2 = mov_brute_force(p, KApproval(1), 3)
    assert r1.evaluations == r2.evaluations
    assert r1.evaluations >= 1


@pytest.mark.parametrize("seed", [1, 10, 15, 25, 28, 38, 58])
def test_copeland_margin_is_zero_on_tied_ic_profiles(seed):
    # these tied IC profiles gave raw relative margins from -13 to -2
    p = generate(ImpartialCulture(n=2000, m=4, seed=seed))
    assert len(winner_set(p, Copeland(HALF)).winners) >= 2
    w = winner_set(p, Copeland(HALF)).winners[0]
    assert min(_relative_margin(p, w, x, HALF) for x in range(p.m) if x != w) < 0
    bounds = mov_bounds(p, Copeland(HALF))
    assert (bounds.lower, bounds.upper, bounds.source) == (1, p.n, "tied winners")
