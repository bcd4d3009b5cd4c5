"""A traced benchmark run keeps its contract.

perfbench/child.py runs one workload in a fresh interpreter and prints one
JSON object as its last line.  A traced run must exit 0, report every
per-layer metric BENCHMARK.json declares (all but trace.wall_s, which
perfbench/run.py adds from outside the child), and carry a verdict the
workload's check accepts.  A child that trips one of its own guards leaves a
result without per-layer metrics, so this runs the child as the benchmark
does.  No --spans-out, so nothing is written.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from checks import CHECKS  # noqa: E402

# exact Groebner counts of the saturations each workload runs
GROEBNER_COUNTS = {
    "x6_eq_1": (13, 8, 3, 13, 1),
    "x6_ne_1": (89, 36, 4, 187, 1),
    "x4_eq_x3": (50, 58, 1, 285, 1),
}
GENERAL_COUNTS = (137, 29, 0, 2820, 0)  # the budgeted attempt that does not finish
COUNT_FIELDS = ("pairs_processed", "pairs_discarded", "basis_size", "max_coeff_bits", "complete")
# what g2-classify's oracle (10k starts, seed 1) reports; any change to a
# Newton iterate moves these
ORACLE_COUNTS = {"convergent": 1932, "spurious": 437, "min_class_hits": 250}


@pytest.mark.parametrize("workload", ["g2-ansatz", "g2-classify"])
def test_traced_child_reports_every_layer(workload):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"), "--workload", workload, "--seed", "1", "--trace", "1"],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    declared = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    layers = report["layers"]
    assert sorted(declared - {"trace.wall_s"} - set(layers)) == []
    assert CHECKS[workload](report["verdict"]) == []
    rows = dict(GROEBNER_COUNTS)
    if workload == "g2-classify":
        rows["general"] = GENERAL_COUNTS
        assert {k: layers[f"oracle.{k}"]["value"] for k in ORACLE_COUNTS} == ORACLE_COUNTS
    for row, counts in rows.items():
        assert tuple(layers[f"groebner.{row}.{f}"]["value"] for f in COUNT_FIELDS) == counts, row
