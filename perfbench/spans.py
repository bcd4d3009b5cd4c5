"""Spans recorded from outside the program, around calls into flagein's layers.

A span carries a name, start, end and the index of its parent span; spans
stay in memory until the run ends.  Each wrapper is installed on every
binding of the traced function across the loaded ``flagein.*`` modules,
matched by object identity, so a module that imported the function by name
(``solver`` imports ``saturate``, ``cli`` imports ``solve_symmetric_ansatz``)
is traced as well.  Self time is a span's duration minus the time its direct
children cover.
"""

from __future__ import annotations

import functools
import importlib
import re
import sys
import time
from dataclasses import dataclass

from flagein.polyalg.groebner import GroebnerStats

# span name -> (module, attribute) of the public function it wraps
TARGETS = {
    "rootsys.weyl_orbit_permutations": ("flagein.rootsys", "weyl_orbit_permutations"),
    "isotropy.triple_tensor": ("flagein.isotropy", "triple_tensor"),
    "curvature.einstein_residual": ("flagein.curvature", "einstein_residual"),
    "solver.build_system": ("flagein.solver", "build_system"),
    "solver.solve_symmetric_ansatz": ("flagein.solver", "solve_symmetric_ansatz"),
    "solver.solve_general_case": ("flagein.solver", "solve_general_case"),
    "solver.newton_oracle": ("flagein.solver", "newton_oracle"),
    "solver.canonical_vector": ("flagein.solver", "canonical_vector"),
    "solver.classify": ("flagein.solver", "classify"),
    "solver.classify_full": ("flagein.solver", "classify_full"),
    "groebner.saturate": ("flagein.polyalg.groebner", "saturate"),
    "realroots.sturm_isolate": ("flagein.polyalg.realroots", "sturm_isolate"),
    "realroots.refine_root": ("flagein.polyalg.realroots", "refine_root"),
    "cli.main": ("flagein.cli", "main"),
}

# saturation branch, keyed by the variables of its generators
BRANCHES = {
    ("x3", "x2"): "x6_eq_1",
    ("x2", "x3", "x6"): "x6_ne_1",
    ("x2", "x3", "x4", "x6"): "x4_eq_x3",
    ("x2", "x3", "x4", "x5", "x6"): "general",
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    args: tuple
    result: object = None


class Tracer:
    """Records one span per call of each wrapped function."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._replaced: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else None, args)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                span.result = fn(*args, **kwargs)
                return span.result
            finally:
                span.end = time.perf_counter()
                self._stack.pop()

        return traced

    def install(self) -> None:
        """Rebind every module attribute that is a traced function to its wrapper."""
        modules = [m for n, m in list(sys.modules.items()) if n == "flagein" or n.startswith("flagein.")]
        for name, (module_name, attr) in TARGETS.items():
            fn = getattr(importlib.import_module(module_name), attr)
            wrapper = self._wrap(name, fn)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        self._replaced.append((module, key, fn))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for module, key, fn in reversed(self._replaced):
            setattr(module, key, fn)
        self._replaced.clear()

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def self_time(self, name: str) -> float:
        children: dict[int, float] = {}
        for s in self.spans:
            if s.parent is not None:
                children[s.parent] = children.get(s.parent, 0.0) + (s.end - s.start)
        return sum(
            s.end - s.start - children.get(i, 0.0) for i, s in enumerate(self.spans) if s.name == name
        )

    def within(self, ancestor_name: str, name: str) -> list[Span]:
        """Spans called *name* that have an ancestor called *ancestor_name*."""
        out = []
        for s in self.named(name):
            p = s.parent
            while p is not None and self.spans[p].name != ancestor_name:
                p = self.spans[p].parent
            if p is not None:
                out.append(s)
        return out

    def to_records(self) -> list[dict]:
        return [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent} for s in self.spans
        ]


def _total(spans: list[Span]) -> float:
    return sum(s.end - s.start for s in spans)


def _parse_class(class_id: str) -> tuple[float, ...]:
    return tuple(float(v) for v in class_id.split(","))


def _close(a, b, tol: float = 1e-6) -> bool:
    return len(a) == len(b) and all(abs(p - q) <= tol * max(1.0, abs(q)) for p, q in zip(a, b))


def layer_metrics(tracer: Tracer, verdict: dict, oracle_tol: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics (name -> (value, unit)) derived from the spans of one run."""
    m: dict[str, tuple[float, str]] = {}

    def timed(name: str, calls: bool = False):
        spans = tracer.named(name)
        m[f"{name}_s"] = (_total(spans), "s")
        if calls:
            m[f"{name}_calls"] = (len(spans), "count")

    timed("rootsys.weyl_orbit_permutations")
    timed("isotropy.triple_tensor")
    timed("solver.build_system", calls=True)

    saturations = tracer.named("groebner.saturate")
    m["groebner.saturate_calls"] = (len(saturations), "count")
    by_branch: dict[str, Span] = {}
    for s in saturations:
        key = tuple(s.args[0][0].vars)
        if key not in BRANCHES:
            raise RuntimeError(f"saturation over unknown variables {key}")
        if BRANCHES[key] in by_branch:
            raise RuntimeError(f"branch {BRANCHES[key]} saturated twice in one run")
        by_branch[BRANCHES[key]] = s
    for branch in BRANCHES.values():
        s = by_branch.get(branch)
        seconds = s.end - s.start if s else 0.0
        stats = s.result.stats if s else GroebnerStats()
        prefix = f"groebner.{branch}."
        m[prefix + "s"] = (seconds, "s")
        m[prefix + "pairs_processed"] = (stats.pairs_processed, "count")
        m[prefix + "pairs_discarded"] = (stats.pairs_discarded, "count")
        m[prefix + "basis_size"] = (stats.basis_size, "count")
        m[prefix + "max_coeff_bits"] = (stats.max_coeff_bits, "bits")
        m[prefix + "complete"] = (int(bool(s and s.result.complete)), "count")
        m[prefix + "pairs_per_s"] = (stats.pairs_processed / seconds if seconds else 0.0, "1/s")

    timed("realroots.sturm_isolate", calls=True)
    m["realroots.intervals"] = (sum(len(s.result) for s in tracer.named("realroots.sturm_isolate")), "count")
    timed("realroots.refine_root", calls=True)

    oracle = tracer.named("solver.newton_oracle")
    oracle_s = _total(oracle)
    starts = convergent = 0
    for case in verdict.get("cases", []):
        if case["name"] == "newton oracle":
            starts += int(re.search(r"(\d+) starts", case["notes"]).group(1))
            convergent += int(re.search(r"(\d+) convergent", case["notes"]).group(1))
    residuals = tracer.within("solver.newton_oracle", "curvature.einstein_residual")
    spurious = sum(1 for s in residuals if float(s.result[1]) >= oracle_tol)
    # one canonical_vector call per surviving point, plus one more for the
    # representative of each new class on the same values tuple (kept alive
    # by the span, so its id is unique): count each tuple once
    points: dict[int, tuple[float, ...]] = {}
    for s in tracer.within("solver.newton_oracle", "solver.canonical_vector"):
        points.setdefault(id(s.args[1]), tuple(float(v) for v in s.result))
    hits = [
        sum(1 for canon in points.values() if _close(canon, _parse_class(sol["class"])))
        for sol in verdict.get("solutions", [])
    ]
    m["oracle.s"] = (oracle_s, "s")
    m["oracle.starts_per_s"] = (starts / oracle_s if oracle_s else 0.0, "1/s")
    m["oracle.convergent"] = (convergent, "count")
    m["oracle.spurious"] = (spurious, "count")
    m["oracle.useful_share"] = ((convergent - spurious) / convergent if convergent else 0.0, "ratio")
    m["oracle.min_class_hits"] = (min(hits) if oracle and hits else 0, "count")

    timed("curvature.einstein_residual", calls=True)
    timed("solver.canonical_vector", calls=True)
    timed("solver.classify")
    m["solver.case_analysis_self_s"] = (
        tracer.self_time("solver.solve_symmetric_ansatz") + tracer.self_time("solver.solve_general_case"),
        "s",
    )
    m["cli.self_s"] = (tracer.self_time("cli.main"), "s")
    m["trace.spans"] = (len(tracer.spans), "count")
    return m
