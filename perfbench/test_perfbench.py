"""Tests of the benchmark's output checks and span recorder.

    PYTHONPATH=src python3 -m pytest perfbench -q

Each check must accept a correct verdict and reject a wrong one.
"""

from __future__ import annotations

import copy
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from checks import check_b3_search, check_g2_ansatz, check_g2_classify  # noqa: E402
from spans import Tracer, layer_metrics  # noqa: E402

NON_KAEHLER = [
    {
        "x": ["1", "0.217370380781588", "1.02342690810257", "1.02342690810257", "1", "0.744034779902419"],
        "k": "0.426905581784717", "kaehler": False, "class": "a", "residual": "2.2e-16",
    },
    {
        "x": ["1", "0.27624004892421", "1.03472530800063", "1.03472530800063", "1", "1.78960062231037"],
        "k": "0.356014665126602", "kaehler": False, "class": "b", "residual": "4.4e-16",
    },
]
G2_KE = {"x": ["3", "1", "4", "5", "6", "9"], "k": "1/12", "kaehler": True, "class": "ke", "residual": "0"}
B3_KE = {"x": ["2", "2", "1", "4", "3", "5", "4", "6", "8"], "k": "1/8", "kaehler": True, "class": "ke", "residual": "0"}


def case(name, status="complete", degree=None, positive=None, notes=""):
    return {"name": name, "status": status, "eliminationDegree": degree, "positiveRoots": positive, "notes": notes}


ANSATZ_CASES = [case("x6 = 1", degree=2, positive=0), case("x6 != 1", degree=14, positive=2), case("x4 = x3 consistency")]
GENERAL = case("(x1 - x5)(x1 - x6)(x5 - x6) != 0", status="budget_exceeded")
ORACLE = case("newton oracle", notes="10000 starts, seed 1, 2027 convergent, 3 classes")


@pytest.fixture
def g2_classify():
    return {
        "status": "budget_exceeded",
        "cases": [*ANSATZ_CASES, GENERAL, ORACLE],
        "solutions": [G2_KE, *NON_KAEHLER],
        "exact": [True, False, False],
    }


@pytest.fixture
def g2_ansatz():
    return {"status": "complete", "cases": list(ANSATZ_CASES), "solutions": list(NON_KAEHLER), "exitCode": 0}


@pytest.fixture
def b3_search():
    other = {"x": ["1", "0.5", "0.7", "1.1", "0.9", "1.3", "0.8", "1.2", "1.4"], "k": "0.3",
             "kaehler": False, "class": "c", "residual": "3e-15"}
    return {"status": "complete", "cases": [ORACLE], "solutions": [B3_KE, other], "exact": [True, False]}


def test_correct_verdicts_pass(g2_classify, g2_ansatz, b3_search):
    assert check_g2_classify(g2_classify) == []
    assert check_g2_ansatz(g2_ansatz) == []
    assert check_b3_search(b3_search) == []


def test_two_classes_rejected(g2_classify):
    g2_classify["solutions"].pop()
    g2_classify["exact"].pop()
    assert check_g2_classify(g2_classify)


def test_missing_ke_rejected(g2_classify, b3_search):
    g2_classify["solutions"][0] = dict(G2_KE, x=["3", "1", "4", "5", "6", "10"])
    assert check_g2_classify(g2_classify)
    b3_search["solutions"].pop(0)
    b3_search["exact"].pop(0)
    assert check_b3_search(b3_search)


def test_inexact_ke_rejected(g2_classify):
    g2_classify["exact"][0] = False
    assert check_g2_classify(g2_classify)


@pytest.mark.parametrize("workload", ["g2_classify", "g2_ansatz", "b3_search"])
def test_residual_rejected(workload, request):
    verdict = request.getfixturevalue(workload)
    verdict["solutions"][-1] = dict(verdict["solutions"][-1], residual="1e-06")
    check = {"g2_classify": check_g2_classify, "g2_ansatz": check_g2_ansatz, "b3_search": check_b3_search}
    assert check[workload](verdict)


def test_wrong_metric_rejected(g2_ansatz):
    g2_ansatz["solutions"][0] = dict(NON_KAEHLER[0], k="0.4279")
    assert check_g2_ansatz(g2_ansatz)


def test_ansatz_exit_code_and_degree_rejected(g2_ansatz):
    bad_exit = dict(g2_ansatz, exitCode=3)
    assert check_g2_ansatz(bad_exit)
    bad_degree = copy.deepcopy(g2_ansatz)
    bad_degree["cases"][1]["eliminationDegree"] = 12
    assert check_g2_ansatz(bad_degree)
    incomplete = copy.deepcopy(g2_ansatz)
    incomplete["cases"][2]["status"] = "budget_exceeded"
    assert check_g2_ansatz(incomplete)


def test_untruthful_status_rejected(g2_classify):
    g2_classify["status"] = "complete"
    assert check_g2_classify(g2_classify)


def test_complete_general_branch_needs_criterion_10(g2_classify):
    g2_classify["status"] = "complete"
    g2_classify["cases"][3] = case(GENERAL["name"], degree=90, positive=14,
                                   notes="six rational roots split off; 12 positive-x6 roots rejected")
    assert check_g2_classify(g2_classify)
    g2_classify["cases"][3]["notes"] = "six rational roots split off; 14 positive-x6 roots rejected"
    assert check_g2_classify(g2_classify) == []


def test_wrappers_bind_every_alias_and_record_self_time(capsys):
    import json

    import flagein.cli
    import flagein.polyalg.groebner
    import flagein.solver

    saturate = flagein.polyalg.groebner.saturate
    ansatz = flagein.solver.solve_symmetric_ansatz
    tracer = Tracer()
    tracer.install()
    try:
        assert flagein.solver.saturate is flagein.polyalg.groebner.saturate is not saturate
        assert flagein.cli.solve_symmetric_ansatz is flagein.solver.solve_symmetric_ansatz is not ansatz
        code = flagein.cli.main(["einstein", "G2", "--mode", "oracle", "--starts", "200", "--seed", "1",
                                 "--format", "json"])
    finally:
        tracer.uninstall()
    assert code == 0
    assert flagein.solver.saturate is saturate and flagein.cli.solve_symmetric_ansatz is ansatz

    (main,) = tracer.named("cli.main")
    children = sum(s.end - s.start for s in tracer.spans if s.parent == 0)
    assert tracer.self_time("cli.main") == pytest.approx(main.end - main.start - children)
    residuals = tracer.named("curvature.einstein_residual")
    assert residuals and tracer.within("solver.newton_oracle", "curvature.einstein_residual") == residuals

    verdict = json.loads(capsys.readouterr().out)
    metrics = layer_metrics(tracer, verdict, 1e-10)
    convergent = metrics["oracle.convergent"][0]
    assert convergent > 0 and f"{convergent} convergent" in verdict["cases"][0]["notes"]
    assert 0 < metrics["oracle.useful_share"][0] <= 1
    assert metrics["oracle.min_class_hits"][0] >= 1
    assert metrics["groebner.saturate_calls"][0] == 0
