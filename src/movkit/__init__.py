"""Election winners, exact margins of victory, and sampling-based margin estimation.

The package is organised around a small exact core:

- :mod:`movkit.core` holds ballots, profiles, voting rules, and winner sets;
- :mod:`movkit.oracle` computes exact margins by brute force together with
  cheap certified lower/upper bounds;
- :mod:`movkit.estimators` estimates margins from uniform ballot samples with
  additive-error guarantees;
- :mod:`movkit.generation` builds synthetic profiles;
- :mod:`movkit.io_formats` parses and writes election files and result CSVs;
- :mod:`movkit.experiments` and :mod:`movkit.cli` wire everything into a
  Monte-Carlo harness.

All scores and estimates are exact rationals (`fractions.Fraction`); ties are
broken canonically by lowest candidate index wherever a single representative
is needed.
"""

from movkit.core import (
    Approval,
    ApprovalBallot,
    ApprovalProfile,
    Bucklin,
    Copeland,
    InputError,
    KApproval,
    Maximin,
    PairwiseMatrix,
    RankedProfile,
    Ranking,
    Rule,
    Scoring,
    ScoreVector,
    WinnerResult,
    normalize_score_vector,
    pairwise_matrix,
    top_k_counts,
    winner_set,
)
from movkit.oracle import (
    ExactMovResult,
    MovBounds,
    TiedWinnersError,
    WorkLimitError,
    apply_changes,
    bucklin_change_floor,
    bucklin_gap,
    copeland_margin,
    mov_approval_closed_form,
    mov_bounds,
    mov_brute_force,
    mov_kapproval_closed_form,
    relative_margin,
)
from movkit.estimators import (
    MovEstimate,
    VoteSource,
    estimate_kapproval,
    estimate_mov,
    lower_bound_samples,
    sample_size,
    split_seed,
)
from movkit.generation import (
    ImpartialCulture,
    PlantedGap,
    TwoCandidate,
    generate,
    ranked_to_approval,
)
from movkit.io_formats import (
    ExperimentRow,
    ParseError,
    parse_election,
    write_election,
    write_experiment_csv,
)

__version__ = "0.1.0"
