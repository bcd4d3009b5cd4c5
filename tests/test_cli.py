import json
from fractions import Fraction as F

import pytest

from flagein.cli import EXIT_BUDGET, EXIT_OK, EXIT_USAGE, main
from flagein.polyalg.groebner import saturate
from flagein.polyalg.poly import MultiPoly, format_polynomial
from flagein.solver import build_system
from flagein.rootsys import root_system


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_roots_table(capsys):
    code, out, _ = run(capsys, "roots", "G2")
    assert code == EXIT_OK
    assert "positive roots of G2 (6)" in out
    assert out.count("long") == 3
    assert out.count("short") == 3


def test_roots_json_counts(capsys):
    code, out, _ = run(capsys, "roots", "G2", "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["positiveRoots"] == [[1, 0], [0, 1], [1, 1], [1, 2], [1, 3], [2, 3]]
    assert payload["longIndices"] == [1, 5, 6]
    assert payload["shortIndices"] == [2, 3, 4]


def test_roots_a2(capsys):
    code, out, _ = run(capsys, "roots", "A2", "--format", "json")
    payload = json.loads(out)
    assert len(payload["positiveRoots"]) == 3
    assert len(set(payload["lengthsSquared"])) == 1


def test_unknown_group_usage_error(capsys):
    code, _, err = run(capsys, "roots", "H9")
    assert code == EXIT_USAGE
    assert "unsupported group" in err


def test_triples_g2(capsys):
    code, out, _ = run(capsys, "triples", "G2", "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    values = {tuple(r["indices"]): r["value"] for r in payload["triples"]}
    assert values == {
        (1, 2, 3): "1/4",
        (1, 5, 6): "1/4",
        (2, 3, 4): "1/3",
        (2, 4, 5): "1/4",
        (3, 4, 6): "1/4",
    }


def test_triples_a1_empty(capsys):
    code, out, _ = run(capsys, "triples", "A1")
    assert code == EXIT_OK
    assert "no nonzero triples" in out


def test_ricci_kaehler_einstein(capsys):
    code, out, _ = run(capsys, "ricci", "G2", "--metric", "3,1,4,5,6,9", "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["ricci"] == ["1/12"] * 6
    assert payload["residual"] == "0"


def test_ricci_normal_metric(capsys):
    code, out, _ = run(capsys, "ricci", "G2", "--metric", "1,1,1,1,1,1", "--format", "json")
    payload = json.loads(out)
    assert payload["ricci"] == ["3/8", "7/24", "7/24", "7/24", "3/8", "3/8"]
    assert payload["residual"] == "1/12"


def test_ricci_rejects_nonpositive(capsys):
    code, _, err = run(capsys, "ricci", "G2", "--metric", "0,1,1,1,1,1")
    assert code == EXIT_USAGE
    assert "positive" in err


def test_ricci_rejects_wrong_length(capsys):
    code, _, err = run(capsys, "ricci", "G2", "--metric", "1,2,3")
    assert code == EXIT_USAGE


def test_kaehler_values(capsys):
    for group, expected in [("G2", "(3, 1, 4, 5, 6, 9)"), ("A2", "(1, 1, 2)"), ("A1", "(1)")]:
        code, out, _ = run(capsys, "kaehler", group)
        assert code == EXIT_OK
        assert expected in out


def test_einstein_symmetric(capsys):
    code, out, _ = run(capsys, "einstein", "G2", "--mode", "symmetric", "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    ks = sorted(float(s["k"]) for s in payload["solutions"])
    assert abs(ks[0] - 0.3560) < 1e-4
    assert abs(ks[1] - 0.4269) < 1e-4
    assert all(s["kaehler"] is False for s in payload["solutions"])


def test_einstein_general_budget_exit(capsys):
    code, out, _ = run(
        capsys, "einstein", "G2", "--mode", "general",
        "--budget-pairs", "40", "--budget-bits", "2500", "--format", "json",
    )
    assert code == EXIT_BUDGET
    payload = json.loads(out)
    assert payload["status"] == "budget_exceeded"


def test_einstein_oracle_a1(capsys):
    code, out, _ = run(capsys, "einstein", "A1", "--mode", "oracle", "--starts", "10", "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert len(payload["solutions"]) == 1


def test_einstein_oracle_a2(capsys):
    code, out, _ = run(
        capsys, "einstein", "A2", "--mode", "oracle", "--starts", "5000",
        "--seed", "1", "--format", "json",
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert len(payload["solutions"]) == 2


def test_json_round_trip_is_byte_identical(capsys):
    code, out, _ = run(capsys, "einstein", "G2", "--mode", "symmetric", "--format", "json")
    assert code == EXIT_OK
    reparsed = json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"
    assert reparsed == out


def test_einstein_output_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "einstein", "A1", "--mode", "oracle", "--starts", "5",
        "--output", str(target), "--format", "json",
    )
    assert code == EXIT_OK
    assert json.loads(target.read_text()) == json.loads(out)


def test_groebner_trivial(tmp_path, capsys):
    source = tmp_path / "sys.txt"
    source.write_text("x - 1\ny - x\n")
    code, out, _ = run(capsys, "groebner", str(source), "--order", "lex", "--vars", "x,y")
    assert code == EXIT_OK
    assert "x - 1" in out and "y - 1" in out


def test_groebner_empty_file(tmp_path, capsys):
    source = tmp_path / "empty.txt"
    source.write_text("\n")
    code, _, err = run(capsys, "groebner", str(source))
    assert code == EXIT_USAGE


def test_groebner_parse_error_line(tmp_path, capsys):
    source = tmp_path / "bad.txt"
    source.write_text("x + 1\nx +\n")
    code, _, err = run(capsys, "groebner", str(source))
    assert code == EXIT_USAGE
    assert "line 2" in err


def test_groebner_isolates_elimination_polynomial(tmp_path, capsys, g2):
    """The saturated generators round-trip through the file format and the
    printed univariate matches the stored canonical form byte for byte."""
    system = build_system(
        g2, normalization={"x1": 1, "x5": 1}, equalities={"x4": "x3"},
        pairs=[(0, 1), (1, 2), (2, 5)],
    )
    names = system.variables
    constraints = [MultiPoly.variable(v, names) for v in names]
    constraints.append(MultiPoly.variable("x6", names) - MultiPoly.constant(1, names))
    basis = saturate(list(system.polynomials), constraints)
    source = tmp_path / "saturated.txt"
    source.write_text(
        "\n".join(format_polynomial(g, basis.order) for g in basis.generators) + "\n"
    )
    code, out, _ = run(
        capsys, "groebner", str(source), "--order", "lex",
        "--vars", "x2,x3,x6", "--isolate", "x6",
    )
    assert code == EXIT_OK
    golden_line = open("tests/data/g2_elimination_deg14.txt").read().strip()
    assert golden_line in out
    assert "0.744" in out and "1.789" in out


def test_missing_subcommand_usage(capsys):
    assert main([]) == EXIT_USAGE


def test_bad_flag_usage(capsys):
    assert main(["roots", "G2", "--format", "yaml"]) == EXIT_USAGE


def test_bad_precision_usage(capsys):
    code, _, err = run(capsys, "einstein", "G2", "--mode", "oracle", "--precision", "2.0", "--starts", "5")
    assert code == EXIT_USAGE
