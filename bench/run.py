"""cayleydeg benchmark: run one workload for a fixed time and report metrics.

    python3 bench/run.py --workload abelian|engines \
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  Each pass runs in a fresh interpreter
(bench/one_pass.py, single process, jobs=1) that imports cayleydeg from this
checkout's src/.  Passes repeat until the next one would end after --seconds;
the run reports medians over its passes.

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json.
With --trace 1 the run alternates untraced and traced passes and reports the
per-layer metrics: span times and exact work counts from the traced passes,
and trace.overhead_s, the traced minus the untraced median wall time.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The line before it records the environment.
See bench/README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
HARD_LIMIT_S = 170.0

# per-layer metrics computed from two others: name -> (numerator, denominator)
RATIOS = {
    "groups.enumerate.yield_ratio": ("groups.enumerate.sets", "groups.enumerate.subsets_walked"),
    "graphs.build_cayley.edges_per_s": ("graphs.build_cayley.edges", "graphs.build_cayley.s"),
    "extremal.exhaustive.masks_per_s": ("extremal.exhaustive.masks", "extremal.exhaustive.s"),
    "extremal.bnb.nodes_per_s": ("extremal.bnb.nodes", "extremal.bnb.s"),
    "witness.make_lift.points_per_s": ("witness.make_lift.points", "witness.make_lift.s"),
    "signing.verify_signing.entries_per_s": ("signing.verify_signing.entries", "signing.verify_signing.s"),
    "signing.signing_search.evals_per_s": ("signing.signing_search.evals", "signing.signing_search.s"),
}
# work counts that must repeat exactly between traced passes of one input
EXACT_SUFFIXES = (".calls", ".sets", ".subsets_walked", ".edges", ".masks", ".nodes",
                  ".points", ".entries", ".evals", ".min_modulus", ".hit_ratio")


def environment() -> dict:
    import numpy

    git_sha = None
    if (ROOT / ".git").exists():
        try:
            git_sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                     text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            git_sha = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {k: os.environ.get(k, "unset") for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
    }


def run_pass(workload: str, seed: int, trace: int, size: str, workdir: Path, timeout: float) -> dict:
    cmd = [sys.executable, str(HERE / "one_pass.py"), "--workload", workload, "--seed", str(seed),
           "--trace", str(trace), "--size", size, "--work-dir", str(workdir)]
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("CAYLEYDEG_OUT_DIR", None)
    spawn = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    end = time.monotonic()
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"pass exited with code {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(lines[-1])
    result["setup_s"] = result.pop("ready") - spawn
    result["duration_s"] = end - spawn
    result["trace"] = trace
    return result


def run_passes(workload: str, seed: int, seconds: float, trace: int, size: str, workdir: Path):
    """Passes until the next one would end after `seconds`; with trace, the
    modes alternate and each runs at least once."""
    modes = (0, 1) if trace else (0,)
    start = time.monotonic()
    passes: list[dict] = []
    while True:
        mode = modes[len(passes) % len(modes)]
        elapsed = time.monotonic() - start
        passes.append(run_pass(workload, seed, mode, size, workdir,
                               timeout=max(1.0, HARD_LIMIT_S - elapsed)))
        if len(passes) < len(modes):
            continue
        following = modes[len(passes) % len(modes)]
        estimate = statistics.median(p["duration_s"] for p in passes if p["trace"] == following)
        if time.monotonic() - start + estimate > seconds:
            return passes


def end_to_end_metrics(passes: list[dict]) -> dict[str, float]:
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    return {
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "items_per_s": statistics.median((p["attempted"] - p["failed"]) / p["wall_s"] for p in passes),
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "success_rate": (attempted - failed) / attempted,
    }


def per_layer_metrics(passes: list[dict], names: list[str]) -> tuple[dict[str, float], list[str]]:
    traced = [p["layers"] for p in passes if p["trace"]]
    plain = [p["wall_s"] for p in passes if not p["trace"]]
    notes = []
    keys = set().union(*traced)
    exact = {k for k in keys if k.endswith(EXACT_SUFFIXES)}
    for k in sorted(exact):
        if len({layers.get(k, 0.0) for layers in traced}) > 1:
            notes.append(f"work count {k} differs between traced passes")
    merged = {k: (traced[0].get(k, 0.0) if k in exact
                  else statistics.median(layers.get(k, 0.0) for layers in traced)) for k in keys}
    merged["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in passes if p["trace"])
                                  - statistics.median(plain))
    for name, (num, den) in RATIOS.items():
        merged[name] = merged.get(num, 0.0) / merged[den] if merged.get(den) else 0.0
    return {name: merged.get(name, 0.0) for name in names}, notes


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0,
                   help="drives the witness, oracle and signing-search inputs (default 0)")
    p.add_argument("--seconds", type=float, default=60.0, help="measuring time of the run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny runs every workload in seconds, for the benchmark's own tests")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "cayleydeg" / "__init__.py").is_file():
        print(f"error: no cayleydeg sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    group = spec["per_layer"] if args.trace else spec["end_to_end"]

    workdir = ROOT / ".benchwork" / args.workload
    workdir.mkdir(parents=True, exist_ok=True)
    env = environment()
    passes = run_passes(args.workload, args.seed, args.seconds, args.trace, args.size, workdir)

    notes = sorted({n for p in passes for n in p["notes"]})
    if args.trace:
        values, trace_notes = per_layer_metrics(passes, [m["name"] for m in group])
        notes += trace_notes
    else:
        values = end_to_end_metrics(passes)
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    result = {
        "correct": failed == 0 and not notes,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in group},
    }
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "size": args.size, "environment": env, "notes": notes,
              "passes": passes, "result": result}
    (workdir / f"result-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")

    for note in notes:
        print(f"check: {note}", file=sys.stderr)
    print(f"{args.workload}: {len(passes)} pass(es), seed {args.seed}, "
          f"{'traced and untraced' if args.trace else 'untraced'}")
    print("environment " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
