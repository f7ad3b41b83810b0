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

Each name is imported from the module that defines it; the package root
re-exports nothing.

All numbers are exact. Winner-set scores are ints for k-approval, approval,
Bucklin (the winning level) and maximin (the worst pairwise margin), and
`fractions.Fraction` for positional scoring and Copeland. Sandwich bounds,
estimates and estimated scores are Fractions, and exact margins are ints.
Ties are broken canonically by lowest candidate index wherever a single
representative is needed.
"""

__version__ = "0.1.0"
