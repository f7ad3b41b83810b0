"""Synthetic profile generators."""

import itertools
from collections import Counter
from fractions import Fraction

import pytest

from movkit.core import (
    InputError,
    KApproval,
    ScoreVector,
    Scoring,
    winner_set,
)
from movkit.generation import (
    ImpartialCulture,
    PlantedGap,
    TwoCandidate,
    generate,
    ranked_to_approval,
)
from movkit.oracle import mov_brute_force, mov_kapproval_closed_form

F = Fraction


def plurality_counts(profile):
    scores = winner_set(profile, Scoring(ScoreVector.plurality(profile.m))).scores
    return {x: int(scores[x]) for x in range(profile.m)}


def test_two_candidate_exact_tie():
    p = generate(TwoCandidate(p=F(1, 2), n=10, seed=0))
    counts = plurality_counts(p)
    assert counts == {0: 5, 1: 5}
    assert winner_set(p, KApproval(1)).winners == (0, 1)


def test_two_candidate_rounds_down_and_reports_realized_fraction():
    spec = TwoCandidate(p=F(2, 3), n=10, seed=0)
    assert spec.top_count == 6  # floor(20/3)
    assert spec.realized_top_fraction == F(6, 10)
    p = generate(spec)
    assert plurality_counts(p) == {0: 6, 1: 4}


def test_two_candidate_validation():
    with pytest.raises(InputError):
        TwoCandidate(p=F(3, 2), n=10, seed=0)
    with pytest.raises(InputError):
        TwoCandidate(p=F(1, 2), n=0, seed=0)


def test_planted_gap_two_candidates():
    p = generate(PlantedGap(winner=0, gap=4, n=10, m=2, seed=0))
    assert plurality_counts(p) == {0: 7, 1: 3}
    assert mov_kapproval_closed_form(p, 1) == 2
    assert mov_brute_force(p, KApproval(1), 10).value == 2


def test_planted_gap_exactness_across_sizes():
    for m, n, gap in [(2, 10, 2), (2, 11, 3), (3, 12, 3), (3, 30, 7), (4, 21, 5), (5, 40, 1)]:
        p = generate(PlantedGap(winner=0, gap=gap, n=n, m=m, seed=0))
        counts = plurality_counts(p)
        assert sum(counts.values()) == n
        top = counts[0]
        runner_up = max(counts[x] for x in range(1, m))
        assert top - runner_up == gap
        assert winner_set(p, KApproval(1)).winners == (0,)


def test_planted_gap_respects_requested_winner():
    p = generate(PlantedGap(winner=2, gap=3, n=12, m=3, seed=0))
    assert winner_set(p, KApproval(1)).winners == (2,)
    counts = plurality_counts(p)
    assert counts[2] - max(counts[0], counts[1]) == 3


def test_planted_gap_relabeling_moves_the_plant():
    """Planting a different winner permutes the target but keeps count shape."""
    base = generate(PlantedGap(winner=0, gap=2, n=9, m=3, seed=0))
    moved = generate(PlantedGap(winner=1, gap=2, n=9, m=3, seed=0))
    assert sorted(plurality_counts(base).values()) == sorted(plurality_counts(moved).values())
    assert winner_set(moved, KApproval(1)).winners == (1,)


def test_planted_gap_validation():
    with pytest.raises(InputError):
        PlantedGap(winner=0, gap=0, n=10, m=2, seed=0)
    with pytest.raises(InputError):
        PlantedGap(winner=0, gap=11, n=10, m=2, seed=0)
    with pytest.raises(InputError):
        PlantedGap(winner=2, gap=1, n=10, m=2, seed=0)
    # two-candidate plants need n + gap even, otherwise no exact split exists
    with pytest.raises(InputError):
        generate(PlantedGap(winner=0, gap=1, n=10, m=2, seed=0))
    # gap = n - 1 with three candidates leaves no room for the others
    with pytest.raises(InputError):
        generate(PlantedGap(winner=0, gap=9, n=10, m=3, seed=0))


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
    expanded_ranked = ranked.expand()
    expanded_approval = approval.expand()
    # conversion happens ballot-by-ballot in canonical order
    again = ranked_to_approval(ranked, "uniform", seed=9)
    assert approval == again
    for rb, ab in zip(expanded_ranked, sorted(expanded_approval, key=lambda b: (len(b.approved), sorted(b.approved)))):
        assert len(ab.approved) <= 4


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
