"""One pass of one workload, in this fresh interpreter.

    python3 bench/one_pass.py --workload NAME --seed N --trace 0|1 --size full|tiny --work-dir DIR

bench/run.py starts this script once per pass, so every pass pays the
interpreter start, the imports (including cayleydeg's import-time tables) and
lazy state such as mask caches the way a command-line user does.  The last
line of standard output is one JSON object with the pass's timings, its
correctness outcome and, with --trace 1, the span summary.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def import_cayleydeg() -> None:
    """Import the package from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import cayleydeg

    where = Path(cayleydeg.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SystemExit(f"cayleydeg was imported from {where}, not from {SRC}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    p.add_argument("--work-dir", required=True)
    args = p.parse_args(argv)

    import_cayleydeg()
    from spans import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    workdir = Path(args.work_dir)
    workdir.mkdir(parents=True, exist_ok=True)
    inputs = workload.setup(args.seed, args.size, workdir)
    ready = time.monotonic()

    tracer = Tracer() if args.trace else None
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    if tracer is not None:
        with tracer:
            output = workload.run(inputs)
    else:
        output = workload.run(inputs)
    t1 = time.perf_counter()
    ru1 = resource.getrusage(resource.RUSAGE_SELF)

    outcome = workload.check(output, inputs, args.seed)
    result = {
        "ready": ready,
        "wall_s": t1 - t0,
        "cpu_s": (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime),
        "peak_rss_mb": ru1.ru_maxrss / 1024.0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "notes": outcome.notes,
    }
    if tracer is not None:
        tracer.write_spans(workdir / "spans.jsonl")
        layers = tracer.summary()
        layers.update(outcome.derived)
        result["layers"] = layers
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
