"""Output checks: each returns the list of problems found in a verdict.

A verdict is the program's JSON report (``solution_set_to_dict`` or the CLI's
``--format json`` output).  For ``classify_full`` the benchmark adds
``exact``, one flag per solution, because a rational and a float print alike
once they are integers.  The CLI verdict carries the exit code as
``exitCode``.
"""

from __future__ import annotations

from fractions import Fraction

RESIDUAL_MAX = 1e-10
MATCH_TOL = 1e-4
ORACLE_CASE = "newton oracle"
GENERAL_CASE = "(x1 - x5)(x1 - x6)(x5 - x6) != 0"

# README table at x1 = x5 = 1, x4 = x3: (x2, x3, x6, k)
G2_NON_KAEHLER = ((0.2762, 1.0347, 1.7896, 0.3560), (0.2173, 1.0234, 0.7440, 0.4269))
# Kaehler-Einstein metrics, components 2 (delta, alpha) in coprime integers
G2_KE = (3, 1, 4, 5, 6, 9)
B3_KE = (2, 2, 1, 4, 3, 5, 4, 6, 8)


def branches_complete(verdict: dict) -> int:
    return sum(1 for c in verdict.get("cases", []) if c["status"] == "complete")


def classes_found(verdict: dict) -> int:
    return len(verdict.get("solutions", []))


def _proportional(x: list[Fraction], target: tuple[int, ...]) -> bool:
    return len(x) == len(target) and all(v * target[0] == x[0] * t for v, t in zip(x, target))


def _has_exact_ke(verdict: dict, target: tuple[int, ...]) -> bool:
    exact = verdict.get("exact", [False] * classes_found(verdict))
    return any(
        sol["kaehler"] and flag and _proportional([Fraction(v) for v in sol["x"]], target)
        for sol, flag in zip(verdict["solutions"], exact)
    )


def _common(verdict: dict) -> list[str]:
    """Positivity, residuals and a truthful case-log status."""
    problems = []
    for sol in verdict.get("solutions", []):
        if not all(float(v) > 0 for v in sol["x"]):
            problems.append(f"class {sol['class']} is not positive")
        if not float(sol["residual"]) < RESIDUAL_MAX:
            problems.append(f"class {sol['class']} has residual {sol['residual']}")
    all_complete = all(c["status"] == "complete" for c in verdict.get("cases", []))
    if all_complete != (verdict.get("status") == "complete"):
        problems.append(f"status {verdict.get('status')!r} disagrees with the case log")
    for case in verdict.get("cases", []):
        if case["name"] == GENERAL_CASE and case["status"] == "complete":
            # a complete general branch must match the published elimination:
            # degree 90, all 14 positive roots rejected, no new algebraic metric
            if case["eliminationDegree"] != 90 or case["positiveRoots"] != 14:
                problems.append("complete general branch does not have degree 90 and 14 positive roots")
            if "14 positive-x6 roots rejected" not in case["notes"]:
                problems.append("complete general branch kept a positive root")
    return problems


def _non_kaehler_match(verdict: dict) -> list[str]:
    """The two non-Kaehler metrics match the README table to 1e-4 after
    scaling to x1 = 1, as acceptance criterion 5 compares them."""
    others = [s for s in verdict.get("solutions", []) if not s["kaehler"]]
    if len(others) != 2:
        return [f"{len(others)} non-Kaehler classes, expected 2"]
    unmatched = [(1.0, x2, x3, x3, 1.0, x6, k) for x2, x3, x6, k in G2_NON_KAEHLER]
    problems = []
    for sol in others:
        x = [float(v) for v in sol["x"]]
        # scaling the metric by 1/x1 scales the Einstein constant by x1
        got = [v / x[0] for v in x] + [float(sol["k"]) * x[0]]
        found = next(
            (
                row for row in unmatched
                if len(got) == len(row) and all(abs(a - b) <= MATCH_TOL for a, b in zip(got, row))
            ),
            None,
        )
        if found is None:
            problems.append(f"non-Kaehler class {sol['class']} does not match the README table")
        else:
            unmatched.remove(found)
    return problems


def check_g2_classify(verdict: dict) -> list[str]:
    problems = _common(verdict)
    if classes_found(verdict) != 3:
        problems.append(f"{classes_found(verdict)} classes, expected 3")
    kaehler = sum(1 for s in verdict.get("solutions", []) if s["kaehler"])
    if kaehler != 1:
        problems.append(f"{kaehler} Kaehler classes, expected 1")
    if not _has_exact_ke(verdict, G2_KE):
        problems.append("no exact Kaehler-Einstein class proportional to (3,1,4,5,6,9)")
    return problems + _non_kaehler_match(verdict)


def check_g2_ansatz(verdict: dict) -> list[str]:
    problems = _common(verdict)
    if verdict.get("exitCode") != 0:
        problems.append(f"exit code {verdict.get('exitCode')}, expected 0")
    cases = verdict.get("cases", [])
    if len(cases) != 3 or branches_complete(verdict) != 3:
        problems.append(f"{branches_complete(verdict)} of {len(cases)} cases complete, expected 3 of 3")
    if not any(c["eliminationDegree"] == 14 for c in cases):
        problems.append("no elimination of degree 14")
    return problems + _non_kaehler_match(verdict)


def check_b3_search(verdict: dict) -> list[str]:
    problems = _common(verdict)
    if not _has_exact_ke(verdict, B3_KE):
        problems.append("the exact Kaehler-Einstein metric is missing")
    return problems


CHECKS = {
    "g2-classify": check_g2_classify,
    "g2-ansatz": check_g2_ansatz,
    "b3-search": check_b3_search,
}
