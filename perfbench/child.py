"""One cold run of a benchmark workload, in the interpreter that runs this file.

    PYTHONPATH=src python3 perfbench/child.py --workload g2-ansatz --seed 1 [--trace 1] [--setup-only]

Sets up (imports flagein, builds the root system, triples and Weyl
permutations), reports the monotonic clock when set-up is done, then makes
the workload's top-level call once and prints one JSON object as the last
line of standard output: the verdict, its wall time, the peak resident
memory and, when traced, the per-layer metrics.  ``run.py`` starts one of
these per sample, so no sample sees a cache filled by an earlier one.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# workload -> (group, oracle starts for classify_full; None runs the CLI)
WORKLOADS = {
    "g2-classify": ("G2", 10_000),
    "g2-ansatz": ("G2", None),
    "b3-search": ("B3", 4_000),
}
ORACLE_TOL = 1e-10  # classify_full's default tolerance
# layers each workload must exercise; a traced run without them fails
REQUIRED_SPANS = {
    "g2-classify": (
        "isotropy.triple_tensor", "solver.build_system", "solver.solve_symmetric_ansatz",
        "solver.solve_general_case", "groebner.saturate", "realroots.sturm_isolate",
        "realroots.refine_root", "solver.newton_oracle", "curvature.einstein_residual",
        "solver.canonical_vector", "solver.classify",
    ),
    "g2-ansatz": (
        "cli.main", "isotropy.triple_tensor", "solver.build_system", "solver.solve_symmetric_ansatz",
        "groebner.saturate", "realroots.sturm_isolate", "realroots.refine_root",
        "curvature.einstein_residual",
    ),
    "b3-search": (
        "isotropy.triple_tensor", "solver.build_system", "solver.newton_oracle",
        "curvature.einstein_residual", "solver.canonical_vector", "solver.classify",
    ),
}


def run(workload: str, seed: int) -> dict:
    """The top-level call; returns its verdict as JSON-ready data."""
    import flagein.cli
    import flagein.rootsys
    import flagein.solver

    group, starts = WORKLOADS[workload]
    if starts is None:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = flagein.cli.main(["einstein", group, "--mode", "symmetric", "--format", "json"])
        verdict = json.loads(out.getvalue()) if code == 0 else {}
        verdict["exitCode"] = code
        return verdict
    result = flagein.solver.classify_full(flagein.rootsys.root_system(group), starts=starts, seed=seed)
    verdict = flagein.solver.solution_set_to_dict(result)
    verdict["exact"] = [s.metric.is_exact for s in result.solutions]
    return verdict


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans-out", help="write the recorded spans to this JSON file")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import flagein
    import flagein.cli  # noqa: F401  (loaded before tracing so its bindings are wrapped)

    if not Path(flagein.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"flagein was imported from {flagein.__file__}, not from {ROOT / 'src'}")
    tracer = None
    if args.trace:
        from spans import Tracer, layer_metrics

        tracer = Tracer()
        tracer.install()
    spec = flagein.rootsys.root_system(WORKLOADS[args.workload][0])
    flagein.isotropy.triple_tensor(spec)
    flagein.rootsys.weyl_orbit_permutations(spec)
    report: dict = {"setup_done": time.monotonic()}
    if args.setup_only:
        print(json.dumps(report))
        return 0

    start = time.perf_counter()
    verdict = run(args.workload, args.seed)
    report["wall_s"] = time.perf_counter() - start
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    report["verdict"] = verdict
    if tracer is not None:
        missing = [n for n in REQUIRED_SPANS[args.workload] if not tracer.named(n)]
        if missing:
            raise SystemExit(f"no span recorded for {', '.join(missing)}")
        exact_branches = sum(1 for c in verdict.get("cases", []) if c["name"] != "newton oracle")
        saturations = len(tracer.named("groebner.saturate"))
        if saturations != exact_branches:
            raise SystemExit(f"{saturations} saturate spans for {exact_branches} exact branches; was a result cached?")
        report["layers"] = {k: {"value": v, "unit": u} for k, (v, u) in layer_metrics(tracer, verdict, ORACLE_TOL).items()}
        if args.spans_out:
            Path(args.spans_out).write_text(json.dumps(tracer.to_records()))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
