"""Benchmark: time to a verified Einstein-metric verdict on G2/T and B3/T.

    python3 perfbench/run.py --workload g2-classify --seed 1 --seconds 5 --trace 0

Run from anywhere inside a checkout; the program is imported from its
``src``.  With ``--trace 0`` the run first starts a few set-up-only
children, then starts one fresh child interpreter after another, each making
the workload's top-level call once, until ``--seconds`` have passed (at least
one).  Every verdict is checked.  The last line of standard output is the
result, with the end-to-end metrics as medians over the children.  With
``--trace 1`` one traced child runs and the result carries the per-layer
metrics derived from its spans, which are also written under
``perfbench/out/``.  The line before the result records the environment and
every child's figures.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import CHECKS, branches_complete, classes_found

ROOT = Path(__file__).resolve().parent.parent
SETUP_SAMPLES = 9
RUN_CAP_S = 170.0  # a run must end within 180 s, so no child starts past this
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def environment() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        probe = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = probe.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
    }


def child(args: list[str], timeout: float) -> dict:
    """Run perfbench/child.py once; the record always has 'ok' and 'elapsed'."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "child.py"), *args],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return {"ok": False, "elapsed": time.monotonic() - spawned, "error": f"timed out after {timeout:.0f}s"}
    record = {"ok": False, "elapsed": time.monotonic() - spawned}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        record["error"] = f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        return record
    report = json.loads(lines[-1])
    record["setup_s"] = report["setup_done"] - spawned
    record["ok"] = True
    for key in ("wall_s", "peak_rss_mb", "verdict", "layers"):
        if key in report:
            record[key] = report[key]
    return record


def work(workload: str, seed: int, trace: bool, timeout: float) -> dict:
    args = ["--workload", workload, "--seed", str(seed), "--trace", str(int(trace))]
    if trace:
        out = ROOT / "perfbench" / "out"
        out.mkdir(exist_ok=True)
        args += ["--spans-out", str(out / f"spans-{workload}-seed{seed}.json")]
    record = child(args, timeout)
    if record["ok"]:
        record["problems"] = CHECKS[workload](record["verdict"])
        record["ok"] = not record["problems"]
    return record


def end_to_end(setups: list[float], records: list[dict]) -> dict:
    measured = [r for r in records if "wall_s" in r] or records
    failed = sum(1 for r in records if not r["ok"])

    def median(values):
        return statistics.median(values) if values else 0.0

    return {
        "wall_s": (median([r.get("wall_s", r["elapsed"]) for r in measured]), "s"),
        "setup_s": (median(setups), "s"),
        "peak_rss_mb": (median([r.get("peak_rss_mb", 0.0) for r in measured]), "MB"),
        "verified_share": ((len(records) - failed) / len(records), "ratio"),
        "branches_complete": (median([branches_complete(r.get("verdict", {})) for r in measured]), "count"),
        "classes_found": (median([classes_found(r.get("verdict", {})) for r in measured]), "count"),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(CHECKS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "flagein" / "__init__.py").is_file():
        print(f"error: no flagein sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    began = time.monotonic()

    def remaining() -> float:
        return RUN_CAP_S - (time.monotonic() - began)

    records: list[dict] = []
    setups: list[float] = []
    if args.trace:
        records.append(work(args.workload, args.seed, True, remaining()))
    else:
        for _ in range(SETUP_SAMPLES):
            sample = child(["--workload", args.workload, "--seed", str(args.seed), "--setup-only"], remaining())
            if "setup_s" in sample:
                setups.append(sample["setup_s"])
        start = time.monotonic()
        while True:
            record = work(args.workload, args.seed, False, remaining())
            records.append(record)
            if "setup_s" in record:
                setups.append(record["setup_s"])
            if not record["ok"] or time.monotonic() - start >= args.seconds or record["elapsed"] > remaining():
                break

    failed = sum(1 for r in records if not r["ok"])
    if args.trace:
        layers = records[0].get("layers", {})
        metrics = {k: (v["value"], v["unit"]) for k, v in layers.items()}
        metrics["trace.wall_s"] = (records[0].get("wall_s", records[0]["elapsed"]), "s")
    else:
        metrics = end_to_end(setups, records)
    details = [
        {k: r[k] for k in ("ok", "elapsed", "setup_s", "wall_s", "peak_rss_mb", "problems", "error") if k in r}
        for r in records
    ]
    print(json.dumps({
        "environment": environment(), "workload": args.workload, "seed": args.seed,
        "setup_samples": setups, "children": details,
    }))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
