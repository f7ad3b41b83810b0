"""Core type and winner-determination tests."""

from fractions import Fraction

import pytest

from movkit.core import (
    ApprovalBallot,
    Approval,
    Bucklin,
    Copeland,
    InputError,
    KApproval,
    Maximin,
    PairwiseMatrix,
    Ranking,
    ScoreVector,
    Scoring,
    approval_profile,
    normalize_score_vector,
    pairwise_matrix,
    ranked_profile,
    top_k_counts,
    top_two,
    winner_set,
)

F = Fraction
HALF = F(1, 2)


def test_ranking_is_a_permutation():
    r = Ranking((2, 0, 1))
    assert r.m == 3
    assert r.position(2) == 1
    assert r.position(0) == 2
    assert r.position(1) == 3
    assert r.prefix(2) == frozenset({2, 0})


@pytest.mark.parametrize("order", [(0, 0), (0, 2), (1, 2, 3)])
def test_ranking_rejects_non_permutations(order):
    with pytest.raises(InputError):
        Ranking(order)


def test_approval_ballot_accepts_empty_and_full():
    assert ApprovalBallot(frozenset()).approved == frozenset()
    assert ApprovalBallot(frozenset({0, 1, 2})).approved == frozenset({0, 1, 2})


def test_profile_merges_duplicate_ballots():
    p = ranked_profile(2, [((0, 1), 1), ((0, 1), 2), ((1, 0), 1)])
    assert p.votes == ((Ranking((0, 1)), 3), (Ranking((1, 0)), 1))
    assert p.n == 4
    assert len(p.expand()) == 4


def test_profile_rejects_bad_multiplicity_and_mismatched_m():
    with pytest.raises(InputError):
        ranked_profile(2, [((0, 1), 0)])
    with pytest.raises(InputError):
        ranked_profile(3, [((0, 1), 1)])


def test_profile_names_validated():
    p = ranked_profile(2, [((0, 1), 1)], names=("left", "right"))
    assert p.names == ("left", "right")
    with pytest.raises(InputError):
        ranked_profile(2, [((0, 1), 1)], names=("x",))
    with pytest.raises(InputError):
        ranked_profile(2, [((0, 1), 1)], names=("a", "has space"))
    with pytest.raises(InputError):
        ranked_profile(2, [((0, 1), 1)], names=("dup", "dup"))


def test_score_vector_shapes():
    borda = ScoreVector.borda(3)
    assert borda.alphas == (F(2), F(1), F(0))
    assert borda.alpha1 == 2
    assert ScoreVector.plurality(4).alphas == (F(1), F(0), F(0), F(0))
    assert ScoreVector.k_approval(4, 2).alphas == (F(1), F(1), F(0), F(0))
    with pytest.raises(InputError):
        ScoreVector((F(1), F(2)))
    with pytest.raises(InputError):
        ScoreVector((F(1),))
    with pytest.raises(InputError):
        ScoreVector((F(1), F(1)))


def test_normalize_score_vector():
    # contract: shift by the last entry, divide by the last positive entry
    assert normalize_score_vector((2, 1, 0)).alphas == (F(2), F(1), F(0))
    assert normalize_score_vector((5, 5, 3, 3)).alphas == (F(1), F(1), F(0), F(0))
    assert normalize_score_vector((7, 4, 1)).alphas == (F(2), F(1), F(0))
    with pytest.raises(InputError):
        normalize_score_vector((3, 3, 3))


def test_positional_scores_examples():
    p = ranked_profile(3, [((0, 1, 2), 1), ((1, 0, 2), 1)])
    s = winner_set(p, Scoring(ScoreVector.borda(3))).scores
    assert (s[0], s[1], s[2]) == (3, 3, 0)
    p2 = ranked_profile(2, [((0, 1), 4)])
    s2 = winner_set(p2, Scoring(ScoreVector.plurality(2))).scores
    assert (s2[0], s2[1]) == (4, 0)
    p3 = ranked_profile(3, [((0, 1, 2), 3), ((1, 2, 0), 2)])
    s3 = winner_set(p3, Scoring(ScoreVector.plurality(3))).scores
    assert (s3[0], s3[1], s3[2]) == (3, 2, 0)


def test_approval_scores_examples():
    p = approval_profile(3, [((0,), 2), ((1,), 1)])
    s = winner_set(p, Approval()).scores
    assert (s[0], s[1], s[2]) == (2, 1, 0)
    empty = approval_profile(3, [((), 5)])
    assert all(v == 0 for v in winner_set(empty, Approval()).scores.values())
    p2 = approval_profile(3, [((0, 1), 2), ((1, 2), 1)])
    s2 = winner_set(p2, Approval()).scores
    assert (s2[0], s2[1], s2[2]) == (2, 3, 1)


def test_top_k_counts_example():
    p = ranked_profile(3, [((0, 1, 2), 1), ((0, 2, 1), 1), ((1, 0, 2), 1)])
    counts = top_k_counts(p)
    assert [counts[x][0] for x in range(3)] == [2, 1, 0]
    assert [counts[x][1] for x in range(3)] == [3, 2, 1]
    assert [counts[x][2] for x in range(3)] == [3, 3, 3]
    single = top_k_counts(ranked_profile(2, [((0, 1), 1)]))
    assert single[0][0] == 1 and single[1][0] == 0
    assert single[0][1] == 1 and single[1][1] == 1


def test_pairwise_matrix_examples():
    p = ranked_profile(3, [((0, 1, 2), 3), ((1, 2, 0), 2)])
    d = pairwise_matrix(p)
    assert d[0, 1] == 1 and d[0, 2] == 1 and d[1, 2] == 5
    assert d[1, 0] == -1 and d[0, 0] == 0
    single = pairwise_matrix(ranked_profile(3, [((0, 1, 2), 1)]))
    assert single[0, 1] == single[0, 2] == single[1, 2] == 1
    tied = pairwise_matrix(ranked_profile(2, [((0, 1), 1), ((1, 0), 1)]))
    assert tied[0, 1] == 0


def test_pairwise_matrix_validation():
    with pytest.raises(InputError):
        PairwiseMatrix(((0, 1), (1, 0)), n=1)  # not antisymmetric
    with pytest.raises(InputError):
        PairwiseMatrix(((0, 2), (-2, 0)), n=3)  # parity mismatch with n
    # odd diagonal-zero matrices are fine: parity applies off the diagonal
    PairwiseMatrix(((0, 1), (-1, 0)), n=1)


def test_bucklin_scores_strict_majority():
    p = ranked_profile(3, [((0, 1, 2), 1), ((0, 2, 1), 1), ((1, 0, 2), 1)])
    s = winner_set(p, Bucklin()).scores
    assert s[0] == 1 and s[1] == 2 and s[2] == 3
    # even n, exact half does not count as a majority
    even = ranked_profile(2, [((0, 1), 1), ((1, 0), 1)])
    assert winner_set(even, Bucklin()).scores == {0: 2, 1: 2}


def test_maximin_scores_example():
    p = ranked_profile(3, [((0, 1, 2), 3), ((1, 2, 0), 2)])
    s = winner_set(p, Maximin()).scores
    assert (s[0], s[1], s[2]) == (1, -1, -5)


def test_copeland_scores_and_alpha():
    p = ranked_profile(3, [((0, 1, 2), 2), ((1, 2, 0), 1)])
    s = winner_set(p, Copeland(HALF)).scores
    assert (s[0], s[1], s[2]) == (2, 1, 0)
    tied = ranked_profile(2, [((0, 1), 1), ((1, 0), 1)])
    assert winner_set(tied, Copeland(HALF)).scores == {0: HALF, 1: HALF}
    assert winner_set(tied, Copeland(F(0))).scores == {0: 0, 1: 0}
    assert winner_set(tied, Copeland(F(1))).scores == {0: 1, 1: 1}


def test_copeland_half_scores_sum_to_pair_count():
    import itertools
    import random

    rng = random.Random(11)
    for _ in range(50):
        m = rng.choice([2, 3, 4])
        n = rng.randint(1, 5)
        perms = list(itertools.permutations(range(m)))
        votes = {}
        for _ in range(n):
            b = rng.choice(perms)
            votes[b] = votes.get(b, 0) + 1
        p = ranked_profile(m, list(votes.items()))
        total = sum(winner_set(p, Copeland(HALF)).scores.values())
        assert total == F(m * (m - 1), 2)


def test_winner_set_examples():
    mm = ranked_profile(3, [((0, 1, 2), 3), ((1, 2, 0), 2)])
    res = winner_set(mm, Maximin())
    assert res.winners == (0,)
    assert res.scores[0] == 1 and res.scores[1] == -1 and res.scores[2] == -5

    cp = ranked_profile(3, [((0, 1, 2), 2), ((1, 2, 0), 1)])
    res = winner_set(cp, Copeland(HALF))
    assert res.winners == (0,)
    assert res.scores == {0: 2, 1: 1, 2: 0}

    bu = ranked_profile(3, [((0, 1, 2), 1), ((0, 2, 1), 1), ((1, 0, 2), 1)])
    res = winner_set(bu, Bucklin())
    assert res.winners == (0,)
    assert res.scores[0] == 1

    pl = ranked_profile(2, [((0, 1), 3), ((1, 0), 1)])
    res = winner_set(pl, KApproval(1))
    assert res.winners == (0,)
    assert res.scores == {0: 3, 1: 1}


def test_winner_set_kind_and_parameter_validation():
    ranked = ranked_profile(2, [((0, 1), 1)])
    approval = approval_profile(2, [((0,), 1)])
    with pytest.raises(InputError):
        winner_set(ranked, Approval())
    with pytest.raises(InputError):
        winner_set(approval, KApproval(1))
    with pytest.raises(InputError):
        winner_set(ranked, KApproval(2))  # k must stay below m


def test_kapproval_matches_equivalent_scoring_vector():
    import itertools
    import random

    rng = random.Random(23)
    for _ in range(40):
        m = rng.choice([3, 4])
        n = rng.randint(1, 5)
        perms = list(itertools.permutations(range(m)))
        votes = {}
        for _ in range(n):
            b = rng.choice(perms)
            votes[b] = votes.get(b, 0) + 1
        p = ranked_profile(m, list(votes.items()))
        k = rng.randint(1, m - 1)
        via_rule = winner_set(p, KApproval(k))
        via_vector = winner_set(p, Scoring(ScoreVector.k_approval(m, k)))
        assert via_rule.winners == via_vector.winners


def test_affine_invariance_of_scoring_winners():
    import itertools
    import random

    rng = random.Random(5)
    perms = list(itertools.permutations(range(3)))
    for _ in range(40):
        votes = {}
        for _ in range(rng.randint(1, 5)):
            b = rng.choice(perms)
            votes[b] = votes.get(b, 0) + 1
        p = ranked_profile(3, list(votes.items()))
        base = winner_set(p, Scoring(ScoreVector.borda(3)))
        scaled = winner_set(p, Scoring(ScoreVector((F(7), F(4), F(1)))))
        assert base.winners == scaled.winners


def test_relabeling_equivariance():
    p = ranked_profile(3, [((0, 1, 2), 3), ((1, 2, 0), 2)])
    perm = {0: 2, 1: 0, 2: 1}
    relabeled = ranked_profile(
        3, [(tuple(perm[c] for c in b.order), mult) for b, mult in p.votes]
    )
    for rule in [KApproval(1), Scoring(ScoreVector.borda(3)), Bucklin(), Maximin(), Copeland(HALF)]:
        orig = winner_set(p, rule)
        new = winner_set(relabeled, rule)
        assert tuple(sorted(perm[w] for w in orig.winners)) == new.winners


def test_top_two_breaks_ties_by_lowest_index():
    scores = {0: F(3), 1: F(3), 2: F(1)}
    w, z = top_two(scores)
    assert (w, z) == (0, 1)
    w, z = top_two({0: F(1), 1: F(2), 2: F(2)})
    assert (w, z) == (1, 2)


def test_copeland_alpha_bounds():
    with pytest.raises(InputError):
        Copeland(F(3, 2))
    with pytest.raises(InputError):
        Copeland(F(-1, 2))
