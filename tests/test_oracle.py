"""Exact margin search, structural quantities, and sandwich bounds."""

import itertools
import random
import tracemalloc
from fractions import Fraction

import pytest

from movkit.core import (
    Approval,
    ApprovalProfile,
    Bucklin,
    Copeland,
    InputError,
    KApproval,
    Maximin,
    RankedProfile,
    Ranking,
    Scoring,
    rule_tally,
    winner_set,
)
from movkit.generation import ImpartialCulture, PlantedGap, generate
from movkit.oracle import (
    TiedWinnersError,
    _relative_margin as relative_margin,
    WorkLimitError,
    apply_changes,
    copeland_log_factor,
    mov_approval_closed_form,
    mov_bounds,
    mov_brute_force,
    mov_kapproval_closed_form,
)

from generation_reference import ref_impartial_culture

F = Fraction
HALF = F(1, 2)

ALL_RULES_M3 = [
    Scoring.borda(3),
    KApproval(1),
    KApproval(2),
    Bucklin(),
    Maximin(),
    Copeland(HALF),
]


def _pair_margins(p):
    return rule_tally(p, Maximin()).net()


def _relative_margin(p, x, y, alpha):
    """The profile's relative margin of x over y, as `mov_bounds` reads it
    (scale 1/1), checked against the linear scan on the same margins."""
    d = _pair_margins(p)
    t = relative_margin(d, 1, 1, p.n, x, y, alpha)
    assert t == _scan_relative_margin(d, p.n, x, y, alpha)
    return t


def random_ranked(rng, m, n):
    perms = list(itertools.permutations(range(m)))
    votes = {}
    for _ in range(n):
        b = rng.choice(perms)
        votes[b] = votes.get(b, 0) + 1
    return RankedProfile(m, list(votes.items()))


def random_approval(rng, m, n):
    votes = {}
    for _ in range(n):
        b = frozenset(c for c in range(m) if rng.random() < 0.5)
        votes[tuple(sorted(b))] = votes.get(tuple(sorted(b)), 0) + 1
    return ApprovalProfile(m, list(votes.items()))


def test_brute_force_two_candidate_basics():
    p = RankedProfile(2, [((0, 1), 2), ((1, 0), 1)])
    r = mov_brute_force(p, KApproval(1), 3)
    assert r.value == 1
    assert r.witness == ((0, Ranking((1, 0))),)

    p4 = RankedProfile(2, [((0, 1), 4)])
    r4 = mov_brute_force(p4, KApproval(1), 4)
    assert r4.value == 2
    assert r4.witness == ((0, Ranking((1, 0))), (1, Ranking((1, 0))))


def test_brute_force_copeland_example():
    p = RankedProfile(3, [((0, 1, 2), 2), ((1, 2, 0), 1)])
    r = mov_brute_force(p, Copeland(HALF), 3)
    assert r.value == 1
    assert r.witness == ((0, Ranking((1, 0, 2))),)


def test_brute_force_budget_exhaustion_and_mov_floor():
    p = RankedProfile(2, [((0, 1), 4)])
    r = mov_brute_force(p, KApproval(1), 1)
    assert r.value is None
    assert r.budget == 1
    # a tied winner set still needs one replacement to change
    tie = RankedProfile(2, [((0, 1), 1), ((1, 0), 1)])
    assert mov_brute_force(tie, KApproval(1), 2).value == 1


def test_brute_force_work_limit():
    p = RankedProfile(3, [((0, 1, 2), 6)])
    with pytest.raises(WorkLimitError):
        mov_brute_force(p, KApproval(1), 6, work_limit=3)


def test_brute_force_work_limit_on_large_profile_stays_small():
    # the guard must trip before any per-vote work: a list of the m! - 1 other
    # rankings for each of the n votes would take about 80 MiB here
    p = generate(ImpartialCulture(n=2000, m=7, seed=1))
    tracemalloc.start()
    try:
        with pytest.raises(WorkLimitError):
            mov_brute_force(p, Scoring.borda(7), p.n, work_limit=1000)
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
            mov_brute_force(p, Scoring.borda(9), p.n, work_limit=1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_a_work_limit_beyond_str_digits_is_shown_by_its_digit_count():
    p = RankedProfile(3, [((0, 1, 2), 2), ((1, 2, 0), 1)])
    assert mov_brute_force(p, Maximin(), work_limit=10**5000) == mov_brute_force(p, Maximin())
    # 2000! is above 10**5735, so the universe alone exceeds the limit
    wide = RankedProfile(2000, [(tuple(range(2000)), 1), (tuple(range(1999, -1, -1)), 1)])
    with pytest.raises(WorkLimitError) as info:
        mov_brute_force(wide, KApproval(1), work_limit=10**5000)
    assert str(info.value) == "exceeded work limit of <5001 digits> (replacement ballots plus search nodes)"


def test_brute_force_work_limit_counts_pruned_nodes():
    # levels 1..19 are pruned at their roots and level 20 scores one change,
    # so only the visited nodes can trip a limit this small
    p = RankedProfile(3, [((0, 1, 2), 40)])
    r = mov_brute_force(p, KApproval(1), p.n)
    assert (r.value, r.evaluations) == (20, 1)
    with pytest.raises(WorkLimitError):
        mov_brute_force(p, KApproval(1), p.n, work_limit=30)


# (profile, rule, limits that raise, the least limit that does not, value,
# evaluations). The work count is the universe's size, then one per level,
# search node and scored leaf: the limits are the last universe, level-step,
# node and leaf raises before the search returns.
PLANTED = generate(PlantedGap(winner=0, gap=4, n=10, m=4))
WORK_LIMIT_PINS = [
    (RankedProfile(3, [((0, 1, 2), 40)]), KApproval(1), (5, 25, 66), 67, 20, 1),
    (RankedProfile(3, [((0, 1, 2), 1), ((1, 0, 2), 1)]), KApproval(1), (5, 6, 7, 8, 9), 10, 1, 2),
    (ApprovalProfile(3, [((0,), 1), ((1,), 1)]), Approval(), (7, 8, 9, 10), 11, 1, 1),
    # one unpruned path 3,999 search nodes deep: the search must not recurse per node
    (RankedProfile(3, [((0, 1, 2), 4000)]), KApproval(1), (5, 2005, 6006), 6007, 2000, 1),
    # one planted election under each remaining family's settled test
    (PLANTED, Scoring.borda(4), (40,), 41, 2, 4),
    (PLANTED, Bucklin(), (31,), 32, 1, 6),
    (PLANTED, Maximin(), (37,), 38, 3, 1),
    (PLANTED, Copeland(HALF), (37,), 38, 3, 1),
]


@pytest.mark.parametrize("profile, rule, raising, first_ok, value, evaluations",
                         WORK_LIMIT_PINS, ids=["level-step", "leaf-loop", "approval", "deep-path",
                                               "borda", "bucklin", "maximin", "copeland"])
def test_brute_force_work_limit_accounting_is_pinned(
        profile, rule, raising, first_ok, value, evaluations):
    for limit in raising:
        with pytest.raises(WorkLimitError):
            mov_brute_force(profile, rule, work_limit=limit)
    for r in (mov_brute_force(profile, rule, work_limit=first_ok), mov_brute_force(profile, rule)):
        assert (r.value, r.evaluations) == (value, evaluations)


@pytest.mark.parametrize("rule, mov, evaluations", [
    (KApproval(1), 3, 1), (Maximin(), 4, 9), (Copeland(HALF), 4, 391),
])
def test_brute_force_solves_ic_n30_under_the_default_limit(rule, mov, evaluations):
    # unpruned, maximin and Copeland need 6.5M evaluations here
    p = ref_impartial_culture(30, 4, 13)
    r = mov_brute_force(p, rule, p.n)
    assert (r.value, r.evaluations) == (mov, evaluations) and len(r.witness) == mov
    assert winner_set(apply_changes(p, r.witness), rule).winners != winner_set(p, rule).winners


def test_brute_force_input_validation():
    p = RankedProfile(2, [((0, 1), 2)])
    with pytest.raises(InputError):
        mov_brute_force(p, KApproval(1), 0)


def test_brute_force_budget_defaults_to_n():
    p = RankedProfile(2, [((0, 1), 7), ((1, 0), 3)])
    r = mov_brute_force(p, KApproval(1))
    assert r == mov_brute_force(p, KApproval(1), p.n)
    assert (r.value, r.budget) == (2, 10)


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
    p = RankedProfile(2, [((0, 1), 2)])
    with pytest.raises(InputError):
        apply_changes(p, [(5, Ranking((1, 0)))])
    with pytest.raises(InputError):
        apply_changes(p, [(0, Ranking((1, 0))), (0, Ranking((0, 1)))])
    with pytest.raises(InputError):
        apply_changes(p, [(0, Ranking((1, 0, 2)))])
    with pytest.raises(TypeError):
        apply_changes(p, [(0.0, Ranking((1, 0)))])


def test_apply_changes_takes_raw_ballots_and_matches_a_rebuilt_profile():
    p = RankedProfile(3, [((0, 1, 2), 2), ((1, 2, 0), 3), ((2, 0, 1), 1)])
    changes = [(4, Ranking((2, 1, 0))), (0, (2, 1, 0)), (5, [0, 2, 1])]
    expanded = p.expand()
    for index, ballot in changes:
        expanded[index] = ballot
    rebuilt = RankedProfile(3, [(tuple(getattr(b, "order", b)), 1) for b in expanded])
    changed = apply_changes(p, changes)
    assert changed == rebuilt and repr(changed) == repr(rebuilt)
    a = ApprovalProfile(2, [((0,), 1), ((), 2)])
    assert apply_changes(a, [(1, {0, 1})]) == ApprovalProfile(2, [((0,), 1), ((), 1), ((0, 1), 1)])


def test_apply_changes_does_not_expand_the_votes():
    # 4,000,000 votes would take hundreds of MB as a list of ballots
    p = RankedProfile(2, [((0, 1), 2_000_000), ((1, 0), 2_000_000)])
    witness = mov_brute_force(p, KApproval(1), p.n).witness
    tracemalloc.start()
    try:
        changed = apply_changes(p, witness)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20
    assert changed == RankedProfile(2, [((0, 1), 1_999_999), ((1, 0), 2_000_001)])


def test_kapproval_closed_form_examples():
    assert mov_kapproval_closed_form(RankedProfile(2, [((0, 1), 2), ((1, 0), 1)]), 1) == 1
    assert mov_kapproval_closed_form(RankedProfile(2, [((0, 1), 7), ((1, 0), 3)]), 1) == 2
    assert mov_kapproval_closed_form(RankedProfile(2, [((0, 1), 3), ((1, 0), 1)]), 1) == 1
    with pytest.raises(TiedWinnersError):
        mov_kapproval_closed_form(RankedProfile(2, [((0, 1), 1), ((1, 0), 1)]), 1)


def test_approval_closed_form_examples():
    p = ApprovalProfile(2, [((0,), 3), ((1,), 1)])
    assert mov_approval_closed_form(p) == 1
    assert mov_brute_force(p, Approval(), 4).value == 1
    with pytest.raises(TiedWinnersError):
        mov_approval_closed_form(ApprovalProfile(2, [((0, 1), 2)]))


def test_bucklin_gap_examples():
    p = RankedProfile(3, [((0, 1, 2), 1), ((0, 2, 1), 1), ((1, 0, 2), 1)])
    assert mov_bounds(p, Bucklin()).upper == 2
    assert mov_brute_force(p, Bucklin(), 3).value == 1

    # the level gap is 5, capped at n = 4
    unanimous = RankedProfile(2, [((0, 1), 4)])
    assert mov_bounds(unanimous, Bucklin()).upper == 4

    # no level separates a full tie, and the upper end is capped at n
    tie = RankedProfile(2, [((0, 1), 1), ((1, 0), 1)])
    assert mov_bounds(tie, Bucklin()).upper == 2


def test_bucklin_change_floor_is_a_true_lower_bound():
    # the two-vote unanimous profile shows why the floor cannot be gap/2:
    # the level gap is 3 there (capped at n = 2 as the upper end) but one
    # replacement already creates a tie
    p = RankedProfile(2, [((0, 1), 2)])
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
    p = RankedProfile(3, [((0, 1, 2), 2), ((1, 2, 0), 1)])
    assert _relative_margin(p, 0, 1, HALF) == 1
    assert _relative_margin(p, 0, 2, HALF) == 1
    tie = RankedProfile(2, [((0, 1), 1), ((1, 0), 1)])
    assert _relative_margin(tie, 0, 1, HALF) == 0


def _scan_relative_margin(d, n, x, y, alpha):
    """The least t in [-(n+2), n+2] at which x's tie-weighted count of rivals
    u with d[u][x] below -2t does not exceed y's count below 2t."""

    def shifted(z, t):
        below = sum(1 for u in range(len(d)) if u != z and d[u][z] < 2 * t)
        equal = sum(1 for u in range(len(d)) if u != z and d[u][z] == 2 * t)
        return below + alpha * equal

    for t in range(-(n + 2), n + 3):
        if shifted(x, -t) <= shifted(y, t):
            return t
    raise AssertionError("predicate never satisfied")


def test_relative_margin_agrees_with_direct_scan():
    """The binary search must match a linear scan of the defining predicate,
    on a profile's integer margins and on a sample's margins scaled by n/ell,
    which the estimator feeds it."""
    rng = random.Random(7)
    alphas = [F(0), HALF, F(1), F(1, 3)]
    for _ in range(150):
        m = rng.choice([2, 3, 4])
        p = random_ranked(rng, m, rng.randint(1, 5))
        a = rng.choice(alphas)
        d = _pair_margins(p)
        for x, y in itertools.permutations(range(m), 2):
            assert relative_margin(d, 1, 1, p.n, x, y, a) == \
                _scan_relative_margin(d, p.n, x, y, a)
    # a multiple of ell for n makes the scale an integer, so many scaled
    # margins land exactly on a threshold 2t, where alpha weighs the tie
    on_threshold = 0
    for _ in range(200):
        m, ell = rng.randint(2, 6), rng.randint(1, 12)
        n = ell * rng.randint(1, 3) if rng.random() < 0.5 else rng.randint(1, 30)
        net = _pair_margins(random_ranked(rng, m, ell))
        d = [[F(n, ell) * v for v in row] for row in net]
        a = rng.choice(alphas)
        for x, y in itertools.permutations(range(m), 2):
            t = relative_margin(net, n, ell, n, x, y, a)
            assert t == _scan_relative_margin(d, n, x, y, a)
            on_threshold += any(u != x and d[u][x] == -2 * t or u != y and d[u][y] == 2 * t
                                for u in range(m))
    assert on_threshold > 100


def test_copeland_margin_examples():
    p = RankedProfile(3, [((0, 1, 2), 2), ((1, 2, 0), 1)])
    assert mov_bounds(p, Copeland(HALF)).lower == 1

    # unanimous two-candidate profile at n=4: the direct scan settles it at 2
    unanimous = RankedProfile(2, [((0, 1), 4)])
    for alpha in [F(0), HALF, F(1)]:
        assert mov_bounds(unanimous, Copeland(alpha)).lower == 2
    assert mov_brute_force(unanimous, Copeland(HALF), 4).value == 2

    # a margin of zero is a tie, which the bounds report as such
    tie = RankedProfile(2, [((0, 1), 1), ((1, 0), 1)])
    assert mov_bounds(tie, Copeland(HALF)).source == "tied winners"


def test_copeland_log_factor():
    assert copeland_log_factor(2) == 1
    assert copeland_log_factor(3) == 2
    assert copeland_log_factor(4) == 2
    assert copeland_log_factor(5) == 3
    assert copeland_log_factor(8) == 3
    assert copeland_log_factor(9) == 4


def test_bounds_examples():
    bu = RankedProfile(3, [((0, 1, 2), 1), ((0, 2, 1), 1), ((1, 0, 2), 1)])
    b = mov_bounds(bu, Bucklin())
    assert b.lower == 1 and b.upper == 2

    tie = RankedProfile(2, [((0, 1), 1), ((1, 0), 1)])
    for rule in [KApproval(1), Maximin()]:
        tb = mov_bounds(tie, rule)
        assert tb.lower == 1 and tb.upper == 1
        assert tb.source == "tied winners"
    # plain scoring keeps the gap formula shape on ties: [0, 1] still brackets MoV=1
    sc_tie = mov_bounds(tie, Scoring.borda(2))
    assert sc_tie.lower == 0 and sc_tie.upper == 1

    cp_tie = mov_bounds(tie, Copeland(HALF))
    assert cp_tie.lower == 1 and cp_tie.upper == tie.n

    bucklin_tie = mov_bounds(tie, Bucklin())
    assert bucklin_tie.lower == 1 and bucklin_tie.upper == tie.n


def test_bounds_sources_are_labeled():
    p = RankedProfile(2, [((0, 1), 2), ((1, 0), 1)])
    assert mov_bounds(p, KApproval(1)).source == "top-k score gap"
    assert mov_bounds(p, Scoring.borda(2)).source == "positional score gap"
    assert mov_bounds(p, Maximin()).source == "pairwise score gap"
    assert mov_bounds(p, Copeland(HALF)).source == "relative margin"
    assert mov_bounds(p, Bucklin()).source == "majority level analysis"
    ap = ApprovalProfile(2, [((0,), 2), ((1,), 1)])
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
    p = RankedProfile(2, [((0, 1), 2), ((1, 0), 1)])
    b = mov_bounds(p, Scoring.borda(2))
    # gap 1 under borda m=2, alpha1 = 1: [g/2, g + 1]
    assert b.lower == HALF and b.upper == 2


def test_maximin_bounds_shape():
    p = RankedProfile(2, [((0, 1), 2), ((1, 0), 1)])
    b = mov_bounds(p, Maximin())
    # pairwise gap 2: [g/4, g/2]
    assert b.lower == HALF and b.upper == 1


def test_kapproval_bounds_shape():
    p = RankedProfile(2, [((0, 1), 7), ((1, 0), 3)])
    b = mov_bounds(p, KApproval(1))
    assert b.lower == 2 and b.upper == 2
    odd = RankedProfile(2, [((0, 1), 2), ((1, 0), 1)])
    bo = mov_bounds(odd, KApproval(1))
    assert bo.lower == HALF and bo.upper == 1


def test_brute_force_counts_evaluations_deterministically():
    p = RankedProfile(2, [((0, 1), 2), ((1, 0), 1)])
    r1 = mov_brute_force(p, KApproval(1), 3)
    r2 = mov_brute_force(p, KApproval(1), 3)
    assert r1.evaluations == r2.evaluations
    assert r1.evaluations >= 1


@pytest.mark.parametrize("seed", [1, 10, 15, 25, 28, 38, 58])
def test_copeland_margin_is_zero_on_tied_ic_profiles(seed):
    # these tied IC profiles gave raw relative margins from -13 to -2
    p = ref_impartial_culture(2000, 4, seed)
    assert len(winner_set(p, Copeland(HALF)).winners) >= 2
    w = winner_set(p, Copeland(HALF)).winners[0]
    assert min(_relative_margin(p, w, x, HALF) for x in range(p.m) if x != w) < 0
    bounds = mov_bounds(p, Copeland(HALF))
    assert (bounds.lower, bounds.upper, bounds.source) == (1, p.n, "tied winners")
