import json
import os
from pathlib import Path

import pytest

from flagein import cli
from flagein.cli import EXIT_BUDGET, EXIT_OK, EXIT_USAGE, main
from flagein.polyalg.groebner import saturate
from flagein.polyalg.poly import MultiPoly, format_polynomial
from flagein import solver
from flagein.solver import build_system


DATA = Path(__file__).parent / "data"


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


@pytest.mark.parametrize(
    "entry, message",
    [
        ("0", "must be positive"),
        ("-1", "must be positive"),
        ("inf", "bad metric entry 'inf'"),
        ("1e400", "bad metric entry '1e400'"),
        ("nan", "bad metric entry 'nan'"),
        ("", "bad metric entry ''"),
        ("1,", "bad metric entry ''"),
    ],
    ids=["zero", "negative", "inf", "1e400", "nan", "empty", "mid-list-empty"],
)
def test_ricci_rejects_bad_metric_entries(capsys, entry, message):
    code, _, err = run(capsys, "ricci", "G2", "--metric", f"{entry},1,1,1,1,1")
    assert code == EXIT_USAGE
    assert message in err


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
    assert out == (DATA / "g2_symmetric_report.json").read_text()


def test_einstein_general_budget_exit(capsys):
    code, out, _ = run(
        capsys, "einstein", "G2", "--mode", "general",
        "--budget-pairs", "40", "--budget-bits", "2500", "--format", "json",
    )
    assert code == EXIT_BUDGET
    payload = json.loads(out)
    assert payload["status"] == "budget_exceeded"


def test_einstein_symmetric_budget_overrun_still_reports(capsys):
    code, out, _ = run(
        capsys, "einstein", "G2", "--mode", "symmetric", "--budget-pairs", "40", "--format", "json",
    )
    assert code == EXIT_BUDGET
    payload = json.loads(out)
    assert payload["status"] == "budget_exceeded"
    # x6 = 1 needs 13 pairs, x6 != 1 89 and the x4 = x3 certificate 50
    assert [c["status"] for c in payload["cases"]] == ["complete", "budget_exceeded", "budget_exceeded"]
    assert "pairs budget after 40 pairs" in payload["cases"][1]["notes"]
    assert payload["solutions"] == []


def test_budget_environment_variables_are_ignored(capsys, monkeypatch):
    """Only --budget-pairs and --budget-bits set a budget; the environment does not."""
    monkeypatch.setenv("FLAGEIN_GB_MAX_PAIRS", "1")
    monkeypatch.setenv("FLAGEIN_GB_MAX_BITS", "1")
    code, out, _ = run(capsys, "einstein", "G2", "--mode", "symmetric", "--format", "json")
    assert code == EXIT_OK
    assert out == (DATA / "g2_symmetric_report.json").read_text()
    code, _, _ = run(capsys, "einstein", "G2", "--mode", "symmetric", "--budget-pairs", "50", "--format", "json")
    assert code == EXIT_BUDGET


def test_einstein_symmetric_needs_no_larger_budget(capsys):
    """The ansatz report under the case-analysis budget is the one it gets
    under 100k pairs / 1M bits."""
    code, out, _ = run(capsys, "einstein", "G2", "--mode", "symmetric", "--format", "json")
    assert code == EXIT_OK
    wide = ("--budget-pairs", "100000", "--budget-bits", "1000000")
    code, wide_out, _ = run(capsys, "einstein", "G2", "--mode", "symmetric", *wide, "--format", "json")
    assert (code, wide_out) == (EXIT_OK, out)


def test_einstein_bit_overrun_reports_the_bits_that_tripped(capsys):
    """The x4 = x3 certificate completes at 800 bits; at 600 a reduction
    factor of 625 bits trips the check, and the case note reports those bits,
    more than the limit, not the 266 bits of its largest generator so far."""
    code, out, _ = run(capsys, "einstein", "G2", "--mode", "symmetric", "--budget-bits", "600", "--format", "json")
    assert code == EXIT_BUDGET
    notes = json.loads(out)["cases"][2]["notes"]
    assert notes.startswith("exact elimination exceeded its coeff_bits budget after 42 pairs (37 discarded, 625 ")


def test_einstein_general_uses_the_branch_budget(capsys):
    """Without budget flags the general branch runs under the case-analysis
    budget, 250 pairs / 2500 bits."""
    code, out, _ = run(capsys, "einstein", "G2", "--mode", "general", "--format", "json")
    assert code == EXIT_BUDGET
    notes = json.loads(out)["cases"][0]["notes"]
    assert "exceeded its coeff_bits budget after 137 pairs" in notes


def test_einstein_full_classification(capsys):
    code, out, _ = run(
        capsys, "einstein", "G2", "--mode", "full", "--starts", "2000", "--seed", "1",
        "--budget-pairs", "125", "--format", "json",
    )
    # 125 pairs close the ansatz branches (at most 89) and stop the general
    # branch early; the oracle covers that region
    assert code == EXIT_BUDGET
    payload = json.loads(out)
    assert payload["status"] == "budget_exceeded"
    assert [c["status"] for c in payload["cases"]] == ["complete"] * 3 + ["budget_exceeded", "complete"]
    assert len(payload["solutions"]) == 3
    assert sum(1 for s in payload["solutions"] if s["kaehler"]) == 1
    assert out == (DATA / "g2_full_2000_seed1_report.json").read_text()


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


@pytest.mark.parametrize("name", [".", "missing/report.json"])
def test_einstein_unwritable_output_fails_before_the_run(tmp_path, capsys, monkeypatch, name):
    def reached(*args, **kwargs):
        raise AssertionError("the run started before the output path was checked")

    monkeypatch.setattr(cli, "solve_symmetric_ansatz", reached)
    target = tmp_path / name  # a directory, or a file in a missing directory
    code, out, err = run(capsys, "einstein", "G2", "--mode", "symmetric", "--output", str(target))
    assert code == EXIT_USAGE
    assert out == ""
    assert f"cannot write {target}" in err


def test_einstein_failed_run_keeps_an_existing_report(tmp_path, capsys):
    target = tmp_path / "keep.json"
    target.write_text("x" * 100_000)
    before = target.read_bytes()
    code, out, err = run(capsys, "einstein", "A2", "--mode", "symmetric", "--output", str(target))
    assert code == EXIT_USAGE
    assert "specific to G2" in err
    assert target.read_bytes() == before
    # a run that succeeds replaces the whole of the longer file
    code, out, _ = run(capsys, "einstein", "A1", "--mode", "oracle", "--starts", "5", "--output", str(target))
    assert code == EXIT_OK
    assert json.loads(target.read_text())["group"] == "A1"
    # a device is written, not truncated
    code, out, _ = run(capsys, "einstein", "A1", "--mode", "oracle", "--starts", "5", "--output", os.devnull)
    assert code == EXIT_OK


def test_einstein_failed_run_creates_no_report(tmp_path, capsys):
    target = tmp_path / "new.json"
    code, _, err = run(capsys, "einstein", "A2", "--mode", "symmetric", "--output", str(target))
    assert code == EXIT_USAGE
    assert "specific to G2" in err
    assert not target.exists()


def test_einstein_write_that_fails_after_the_run_is_a_usage_error(tmp_path, capsys, monkeypatch):
    target = tmp_path / "gone" / "report.json"
    target.parent.mkdir()
    real_oracle = cli.newton_oracle

    def oracle_then_remove_directory(*args, **kwargs):
        result = real_oracle(*args, **kwargs)
        target.parent.rmdir()
        return result

    monkeypatch.setattr(cli, "newton_oracle", oracle_then_remove_directory)
    code, out, err = run(capsys, "einstein", "A1", "--mode", "oracle", "--starts", "5", "--output", str(target))
    assert code == EXIT_USAGE
    assert out == ""
    assert f"cannot write {target}" in err


def test_groebner_trivial(tmp_path, capsys):
    source = tmp_path / "sys.txt"
    source.write_text("x - 1\ny - x\n")
    code, out, _ = run(capsys, "groebner", str(source), "--order", "lex", "--vars", "x,y")
    assert code == EXIT_OK
    assert "x - 1" in out and "y - 1" in out


def test_groebner_bit_budget_covers_the_fglm_pass(tmp_path, capsys):
    # the grevlex pass stays at 12 bits; FGLM would emit 100-bit coefficients
    source = tmp_path / "sys.txt"
    source.write_text(
        "20*x*z + 23*y + 9 + 24*z + 16*z^2\n"
        "21*x^2 + 15 + 10*z + 19*z^2 + 20*x\n"
        "25*x*z + 12*z^2 + 28 + 20*y^2 + 9*z\n"
    )
    code, out, _ = run(capsys, "groebner", str(source), "--order", "lex", "--budget-bits", "24", "--format", "json")
    assert code == EXIT_BUDGET
    payload = json.loads(out)
    assert (payload["status"], payload["generators"]) == ("budget_exceeded", [])


def test_groebner_empty_file(tmp_path, capsys):
    source = tmp_path / "empty.txt"
    source.write_text("\n")
    code, _, err = run(capsys, "groebner", str(source))
    assert code == EXIT_USAGE


def test_groebner_non_utf8_file(tmp_path, capsys):
    source = tmp_path / "binary.txt"
    source.write_bytes(b"\xc0\x80")
    code, out, err = run(capsys, "groebner", str(source))
    assert code == EXIT_USAGE
    assert out == ""
    assert f"cannot read {source}" in err


def test_groebner_parse_error_line(tmp_path, capsys):
    source = tmp_path / "bad.txt"
    source.write_text("x + 1\nx +\n")
    code, _, err = run(capsys, "groebner", str(source))
    assert code == EXIT_USAGE
    assert "line 2" in err


def test_groebner_zero_denominator_is_a_parse_error(tmp_path, capsys):
    source = tmp_path / "bad.txt"
    source.write_text("x + 1\nx - 1/0\n")
    code, _, err = run(capsys, "groebner", str(source))
    assert code == EXIT_USAGE
    assert "line 2" in err and "column 5" in err


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
    # each root to 15 digits, exactly rounded: 0.74403477990241864... and
    # 1.78960062231037439...
    assert "(2):\n  0.744034779902419\n  1.78960062231037\n" in out


def test_groebner_isolate_prints_exactly_rounded_roots(tmp_path, capsys):
    # (2x - 1)(x^2 - 2)(2000000000000000 x - 1488069559804837): an exact
    # bisection point, an irrational root, and a root on the tie between two
    # 15-digit roundings, which rounds half to even
    source = tmp_path / "roots.txt"
    source.write_text(
        "4000000000000000*x^4 - 4976139119609674*x^3 - 6511930440195163*x^2"
        " + 9952278239219348*x - 2976139119609674\n"
    )
    code, out, _ = run(capsys, "groebner", str(source), "--vars", "x", "--isolate", "x")
    assert code == EXIT_OK
    assert out.endswith("(3):\n  0.5\n  0.744034779902418\n  1.4142135623731\n")


def test_missing_subcommand_usage(capsys):
    assert main([]) == EXIT_USAGE


def test_bad_flag_usage(capsys):
    assert main(["roots", "G2", "--format", "yaml"]) == EXIT_USAGE


def test_bad_precision_usage(capsys):
    code, _, err = run(capsys, "einstein", "G2", "--mode", "oracle", "--precision", "2.0", "--starts", "5")
    assert code == EXIT_USAGE


def test_negative_seed_usage(capsys):
    code, out, err = run(capsys, "einstein", "G2", "--mode", "oracle", "--starts", "5", "--seed", "-1")
    assert code == EXIT_USAGE
    assert out == ""
    assert "seed must be >= 0" in err


def test_negative_seed_fails_before_the_exact_branches(capsys, monkeypatch):
    def reached(*args, **kwargs):
        raise AssertionError("the exact branches ran before the seed was checked")

    monkeypatch.setattr(solver, "solve_symmetric_ansatz", reached)
    code, out, err = run(capsys, "einstein", "G2", "--mode", "full", "--starts", "5", "--seed", "-1")
    assert code == EXIT_USAGE
    assert out == ""
    assert "seed must be >= 0" in err


@pytest.mark.parametrize("flag", ["--budget-pairs", "--budget-bits"])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_einstein_rejects_budgets_below_one(capsys, flag, value):
    code, out, err = run(capsys, "einstein", "G2", "--mode", "symmetric", flag, value)
    assert code == EXIT_USAGE
    assert out == ""
    assert f"{flag} must be >= 1" in err


@pytest.mark.parametrize("flag", ["--budget-pairs", "--budget-bits"])
def test_groebner_rejects_budgets_below_one(capsys, flag):
    code, out, err = run(capsys, "groebner", str(DATA / "g2_symmetric_system.txt"), flag, "-3")
    assert code == EXIT_USAGE
    assert out == ""
    assert f"{flag} must be >= 1" in err


@pytest.mark.parametrize(
    "names, message", [("x,x", "repeated variable name in x, x"), ("x,,", "empty variable name")]
)
def test_groebner_rejects_repeated_or_empty_variable_names(tmp_path, capsys, names, message):
    source = tmp_path / "sys.txt"
    source.write_text("x^2 - 2\n")
    code, out, err = run(capsys, "groebner", str(source), "--vars", names, "--format", "json")
    assert code == EXIT_USAGE
    assert out == ""
    assert message in err
