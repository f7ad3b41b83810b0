"""Synthetic profile generators."""

import itertools
import math
import operator
from collections import Counter
from fractions import Fraction

import pytest
from mpmath import gammainc, mpf

from movkit import core
from movkit.core import (
    InputError,
    KApproval,
    RankedProfile,
    Scoring,
    winner_set,
)
from movkit.generation import (
    ImpartialCulture,
    PlantedGap,
    TwoCandidate,
    _planted_counts,
    generate,
    ranked_to_approval,
)
from movkit.estimators import split_seed
from movkit.oracle import mov_brute_force, mov_kapproval_closed_form

F = Fraction


def plurality_counts(profile):
    scores = winner_set(profile, Scoring((1,) + (0,) * (profile.m - 1))).scores
    return {x: int(scores[x]) for x in range(profile.m)}


def test_two_candidate_exact_tie():
    p = generate(TwoCandidate(p=F(1, 2), n=10))
    counts = plurality_counts(p)
    assert counts == {0: 5, 1: 5}
    assert winner_set(p, KApproval(1)).winners == (0, 1)


def test_two_candidate_rounds_down_and_reports_realized_fraction():
    spec = TwoCandidate(p=F(2, 3), n=10)
    assert spec.top_count == 6  # floor(20/3)
    assert spec.realized_top_fraction == F(6, 10)
    p = generate(spec)
    assert plurality_counts(p) == {0: 6, 1: 4}


def test_two_candidate_validation():
    with pytest.raises(InputError):
        TwoCandidate(p=F(3, 2), n=10)
    with pytest.raises(InputError):
        TwoCandidate(p=F(1, 2), n=0)


def test_planted_gap_two_candidates():
    p = generate(PlantedGap(winner=0, gap=4, n=10, m=2))
    assert plurality_counts(p) == {0: 7, 1: 3}
    assert mov_kapproval_closed_form(p, 1) == 2
    assert mov_brute_force(p, KApproval(1), 10).value == 2


def test_planted_gap_exactness_across_sizes():
    for m, n, gap in [(2, 10, 2), (2, 11, 3), (3, 12, 3), (3, 30, 7), (4, 21, 5), (5, 40, 1)]:
        p = generate(PlantedGap(winner=0, gap=gap, n=n, m=m))
        counts = plurality_counts(p)
        assert sum(counts.values()) == n
        top = counts[0]
        runner_up = max(counts[x] for x in range(1, m))
        assert top - runner_up == gap
        assert winner_set(p, KApproval(1)).winners == (0,)


def test_planted_gap_respects_requested_winner():
    p = generate(PlantedGap(winner=2, gap=3, n=12, m=3))
    assert winner_set(p, KApproval(1)).winners == (2,)
    counts = plurality_counts(p)
    assert counts[2] - max(counts[0], counts[1]) == 3


def test_planted_gap_relabeling_moves_the_plant():
    """Planting a different winner permutes the target but keeps count shape."""
    base = generate(PlantedGap(winner=0, gap=2, n=9, m=3))
    moved = generate(PlantedGap(winner=1, gap=2, n=9, m=3))
    assert sorted(plurality_counts(base).values()) == sorted(plurality_counts(moved).values())
    assert winner_set(moved, KApproval(1)).winners == (1,)


def test_planted_gap_validation():
    with pytest.raises(InputError):
        PlantedGap(winner=0, gap=0, n=10, m=2)
    with pytest.raises(InputError):
        PlantedGap(winner=0, gap=11, n=10, m=2)
    with pytest.raises(InputError):
        PlantedGap(winner=2, gap=1, n=10, m=2)
    # two-candidate plants need n + gap even, otherwise no exact split exists
    with pytest.raises(InputError):
        generate(PlantedGap(winner=0, gap=1, n=10, m=2))
    # gap = n - 1 with three candidates leaves no room for the others
    with pytest.raises(InputError):
        generate(PlantedGap(winner=0, gap=9, n=10, m=3))


def checked_profile(m, counts):
    """The profile the checked constructor builds from first-place counts,
    each candidate's ballot ranking the others in ascending order."""
    votes = [((top,) + tuple(c for c in range(m) if c != top), k)
             for top, k in enumerate(counts) if k > 0]
    return RankedProfile(m, votes)


def test_planted_gap_equals_the_checked_profile_of_its_counts():
    for n in range(1, 31):
        for m in range(2, 6):
            for gap in range(1, n + 1):
                for winner in range(m):
                    spec = PlantedGap(winner=winner, gap=gap, n=n, m=m)
                    try:
                        counts = _planted_counts(spec)
                    except InputError as fault:
                        with pytest.raises(InputError) as info:
                            generate(spec)
                        assert str(info.value) == str(fault)
                        continue
                    profile = generate(spec)
                    expected = checked_profile(m, counts)
                    assert profile == expected and profile.votes == expected.votes
                    assert profile.names is None


def test_two_candidate_equals_the_checked_profile_of_its_counts():
    for n in range(1, 31):
        for p in [F(0), F(1), F(1, 2), F(7, 9)]:
            spec = TwoCandidate(p=p, n=n)
            expected = checked_profile(2, [spec.top_count, n - spec.top_count])
            profile = generate(spec)
            assert profile == expected and profile.votes == expected.votes
            assert profile.names is None


@pytest.mark.parametrize("make, message", [
    (lambda: ImpartialCulture(0, 3), "need n >= 1 and m >= 1, got n=0, m=3"),
    (lambda: PlantedGap(0, 1, 5, 1), "a planted gap needs at least two candidates"),
    (lambda: generate("x"), "unknown generation model: 'x'"),
    (lambda: generate(PlantedGap(winner=0, gap=1, n=3.0, m=2)), "n must be an integer, got 3.0"),
    (lambda: TwoCandidate(p=F(1, 2), n=2.5), "n must be an integer, got 2.5"),
    (lambda: PlantedGap(winner=0, gap=1.5, n=4, m=2), "gap must be an integer, got 1.5"),
    (lambda: ImpartialCulture(n=4.0, m=3), "n must be an integer, got 4.0"),
    (lambda: ImpartialCulture(n=4, m=3.0), "m must be an integer, got 3.0"),
    (lambda: PlantedGap(winner=0.0, gap=2, n=4, m=2), "winner must be an integer, got 0.0"),
    (lambda: ImpartialCulture(n=True, m=3), "n must be an integer, got True"),
    (lambda: PlantedGap(winner=0, gap=True, n=4, m=2), "gap must be an integer, got True"),
    (lambda: ranked_to_approval(generate(ImpartialCulture(n=4, m=3)), True),
     'k must be an integer or "uniform", got True'),
], ids=["ic-size", "planted-one-candidate", "unknown-model", "planted-float-n",
        "two-candidate-float-n", "planted-float-gap", "ic-float-n", "ic-float-m",
        "planted-float-winner", "ic-bool-n", "planted-bool-gap", "approval-bool-depth"])
def test_generation_fault_texts(make, message):
    with pytest.raises(InputError) as info:
        make()
    assert str(info.value) == message


def test_impartial_culture_determinism_and_shape():
    a = generate(ImpartialCulture(n=50, m=4, seed=3))
    b = generate(ImpartialCulture(n=50, m=4, seed=3))
    c = generate(ImpartialCulture(n=50, m=4, seed=4))
    assert a == b
    assert a != c
    assert a.n == 50 and a.m == 4


def test_impartial_culture_uniform_over_rankings():
    # all 6 rankings of 3 candidates should appear with similar frequency
    p = generate(ImpartialCulture(n=60_000, m=3, seed=1))
    counts = Counter()
    for ballot, mult in p.votes:
        counts[ballot.order] += mult
    assert len(counts) == 6
    for order in itertools.permutations(range(3)):
        assert abs(counts[order] / 60_000 - 1 / 6) < 0.01


def test_impartial_culture_plurality_frequencies_at_scale():
    """Large-sample check: every candidate heads about a quarter of the votes."""
    p = generate(ImpartialCulture(n=1_000_000, m=4, seed=7))
    counts = plurality_counts(p)
    for x in range(4):
        assert abs(counts[x] / 1_000_000 - 0.25) < 0.002


def test_ranked_to_approval_prefix_property():
    ranked = generate(ImpartialCulture(n=40, m=4, seed=5))
    approval = ranked_to_approval(ranked, "uniform", seed=9)
    assert approval.n == 40 and approval.m == 4
    again = ranked_to_approval(ranked, "uniform", seed=9)
    assert approval == again
    # every vote approves a prefix of its own ranking, whether its ballot's
    # depths are drawn one by one (weight 4 < m + 1) or as one multinomial
    # (weight 40); no proper nonempty suffix of either ranking is a prefix
    # of either, so approving any other part of a ranking shows
    orders = [(0, 1, 2, 3), (1, 0, 2, 3)]
    ranked = RankedProfile(4, [(orders[0], 40), (orders[1], 4)])
    prefixes = {frozenset(order[:depth]) for order in orders for depth in range(5)}
    for seed in range(20):
        approval = ranked_to_approval(ranked, "uniform", seed=seed)
        assert approval.n == 44
        assert all(ballot.approved in prefixes for ballot, _ in approval.votes)


def test_ranked_to_approval_fixed_depth():
    ranked = generate(ImpartialCulture(n=25, m=4, seed=5))
    approval = ranked_to_approval(ranked, 2, seed=0)
    for ballot, mult in approval.votes:
        assert len(ballot.approved) == 2
    # depth-k sets are exactly the top-k prefixes of the originals
    tops = Counter()
    for ballot, mult in ranked.votes:
        tops[frozenset(ballot.order[:2])] += mult
    got = Counter()
    for ballot, mult in approval.votes:
        got[ballot.approved] += mult
    assert tops == got


def test_ranked_to_approval_depth_validation():
    ranked = generate(ImpartialCulture(n=5, m=3, seed=5))
    with pytest.raises(InputError):
        ranked_to_approval(ranked, 4, seed=0)
    with pytest.raises(InputError):
        ranked_to_approval(ranked, -1, seed=0)


def test_generated_profiles_keep_names_out():
    p = generate(ImpartialCulture(n=5, m=3, seed=0))
    assert p.names is None


# Pre-registered chi-square tests of the count-drawing generators. The
# points, seeds, repeat counts and critical values below were fixed before
# the first run; a failure is a finding to report, not a reason to re-seed.
# Each point (n, m, repeats) pools `repeats` IC profiles, profile r drawn
# with seed split_seed(CHI_SQUARE_SEED, r) and its uniform-depth approval
# version with split_seed(that seed, 1). Under IC the pooled order counts
# are Multinomial(repeats * n; m! equal cells) and the pooled approval depths
# Multinomial(repeats * n; m + 1 equal cells), exactly. The points sit on
# both sides of n = m!, where IC switches from per-vote draws to the tree
# of multinomials. Pearson's statistic must lie between the CHI_SQUARE_TAIL
# and 1 - CHI_SQUARE_TAIL quantiles of the chi-square law with cells - 1
# degrees of freedom: above, the frequencies are wrong; below, the counts
# are split more evenly than a multinomial splits them.
CHI_SQUARE_SEED = 20151505
CHI_SQUARE_TAIL = 1e-6
CHI_SQUARE_POINTS = [
    (5, 3, 400), (6, 3, 400), (7, 3, 400),
    (23, 4, 400), (24, 4, 400), (25, 4, 400),
    (2000, 4, 20), (100_000, 3, 2),
]


def chi_square_quantile(df, q):
    """The q-quantile of the chi-square law with df degrees of freedom, by
    bisection on its regularized incomplete gamma CDF (mpmath)."""
    lo, hi = mpf(0), mpf(df + 50 * math.sqrt(df) + 100)
    for _ in range(200):
        mid = (lo + hi) / 2
        if gammainc(mpf(df) / 2, 0, mid / 2, regularized=True) < q:
            lo = mid
        else:
            hi = mid
    return float(lo)


def assert_uniform_multinomial(counts, cells):
    """Pearson's statistic of ``counts`` over ``cells`` equally likely cells
    lies inside the two CHI_SQUARE_TAIL quantiles."""
    assert set(counts) <= set(cells)
    total = sum(counts.values())
    expected = total / len(cells)
    statistic = sum((counts[c] - expected) ** 2 for c in cells) / expected
    df = len(cells) - 1
    low = chi_square_quantile(df, CHI_SQUARE_TAIL)
    high = chi_square_quantile(df, 1 - CHI_SQUARE_TAIL)
    assert low < statistic < high, (statistic, low, high)


@pytest.mark.parametrize("n, m, repeats", CHI_SQUARE_POINTS)
def test_generated_counts_pass_the_pre_registered_chi_square(n, m, repeats):
    orders, depths = Counter(), Counter()
    for r in range(repeats):
        seed = split_seed(CHI_SQUARE_SEED, r)
        ranked = generate(ImpartialCulture(n=n, m=m, seed=seed))
        approval = ranked_to_approval(ranked, "uniform", split_seed(seed, 1))
        assert ranked.n == approval.n == n
        for ballot, mult in ranked.votes:
            orders[ballot.order] += mult
        for ballot, mult in approval.votes:
            depths[len(ballot.approved)] += mult
    assert_uniform_multinomial(orders, list(itertools.permutations(range(m))))
    assert_uniform_multinomial(depths, list(range(m + 1)))


def test_generators_hand_the_store_strictly_increasing_keys(monkeypatch):
    # distinct keys in order take the store's join path: a merge of
    # ~400,000 generated orders would hold a second copy of them
    store = core._store

    def increasing_only(m, keys, counts, ranked):
        keys = list(keys)
        assert all(map(operator.lt, keys, keys[1:]))
        return store(m, keys, counts, ranked)

    monkeypatch.setattr(core, "_store", increasing_only)
    for m in (3, 300):
        ranked = generate(ImpartialCulture(n=500, m=m, seed=m))
        generate(PlantedGap(winner=m - 1, gap=4, n=50, m=m))
        ranked_to_approval(ranked, "uniform", seed=m)
        ranked_to_approval(ranked, 1)
    generate(TwoCandidate(p=Fraction(5, 9), n=9))
