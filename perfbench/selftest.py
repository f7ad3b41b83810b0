"""Self-test of the exact workload's output checks on a smoke-size election.

Run from the repository root:

    python3 perfbench/selftest.py

The check must accept movkit's own result, and must reject the same result
against a wrong reference MoV and a witness that leaves the winner set
unchanged. Exits 0 when all three verdicts come out that way.
"""

import sys

from run import load_workloads


def main() -> int:
    workloads = load_workloads()
    from movkit.experiments import resolve_rule
    from movkit.generation import PlantedGap, generate
    from movkit.oracle import ExactMovResult, mov_bounds, mov_brute_force

    n, m, gap, spec = 12, 3, 4, "maximin"
    profile = generate(PlantedGap(winner=0, gap=gap, n=n, m=m))
    rule = resolve_rule(spec, m)
    bounds = mov_bounds(profile, rule)
    window = workloads.ref.integer_range(bounds.lower, bounds.upper)
    expected = workloads.PLANTED_MOVS[(n, m, gap)][spec]
    result = mov_brute_force(profile, rule, profile.n)
    originals = profile.expand()
    idle = ExactMovResult(
        value=result.value, budget=result.budget, evaluations=result.evaluations,
        witness=tuple((i, originals[i]) for i in range(result.value)))
    cases = (
        ("movkit's own result", result, expected, True),
        ("a wrong reference MoV", result, expected + 1, False),
        ("a witness that keeps the winner set", idle, expected, False),
    )
    ok = True
    for label, candidate, reference, should_pass in cases:
        outcome = workloads.check_exact(profile, spec, candidate, reference, window)
        passed = outcome.problem is None
        verdict = "as expected" if passed == should_pass else "WRONG"
        ok &= passed == should_pass
        print(f"{label}: {'accepted' if passed else 'rejected'}"
              f" ({outcome.problem or 'no problem'}) - {verdict}")
    print("self-test", "PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
