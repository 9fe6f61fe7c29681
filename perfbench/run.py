"""paritygraph benchmark: one workload per run, checked, reported as JSON.

    python3 perfbench/run.py --workload solve --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The line before it records the seed, op count, rounds,
the SHA-256 digest of the canonical outputs and a host-speed reading:
the median of readings taken before set-up and after every round.  Exit status is 0 on a
completed run (``correct`` may still be false), 1 when an op raised an
unexpected error, 2 when the checkout holds no package.  See README.md
for the workloads and the metric definitions.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

import harness
import wl_cli
import wl_scan
import wl_solve
import wl_structure

WORKLOADS = {"solve": wl_solve, "scan": wl_scan, "structure": wl_structure, "cli": wl_cli}
# set-up runs at least SETUP_MIN times, more while cheap; setup_s is the median
SETUP_MIN, SETUP_MAX, SETUP_SECONDS = 3, 7, 2.0

SETUP_LAYERS = ("corpus.generate_s", "catalog.load_s")  # timed inside set-up
DERIVED_LAYERS = ("scanner.witnesses_per_scan", "trace.overhead_ratio")
# the per-layer metrics summed from traced ops: name -> unit
PER_LAYER = {
    m["name"]: m["unit"]
    for m in json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())["per_layer"]
    if m["name"] not in SETUP_LAYERS + DERIVED_LAYERS
}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    root = Path.cwd()
    src = root / "src"
    if not (src / "paritygraph" / "__init__.py").is_file():
        sys.stderr.write(f"no paritygraph package under {src}\n")
        return 2
    workload = WORKLOADS[args.workload]

    calibration = [harness.calibration_ms()]
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=root) as workdir:
        setup_times, setup_layers = [], []
        while len(setup_times) < SETUP_MIN or (
            len(setup_times) < SETUP_MAX and sum(setup_times) < SETUP_SECONDS
        ):
            pg = ops = None  # the previous set-up's objects must not slow this one
            gc.collect()
            tracer = harness.Tracer()
            t0 = time.perf_counter()
            pg = harness.load_package(src)
            ops = workload.setup(pg, random.Random(args.seed), tracer, Path(workdir))
            harness.reset_caches(pg)
            setup_times.append(time.perf_counter() - t0)
            setup_layers.append(tracer.times)

        # the benchmark's own long-lived objects stay out of the collections
        # that the timed ops trigger
        gc.collect()
        gc.freeze()
        limit_errors = (pg.errors.ResourceLimitError, pg.errors.CapabilityError)
        try:
            res = harness.run_rounds(ops, args.seconds, bool(args.trace), limit_errors)
            correct = True
        except harness.CheckFailed as exc:
            sys.stderr.write(f"check failed: {exc}\n")
            res, correct = None, False

    attempted = len(ops)
    info = {"workload": args.workload, "seed": args.seed, "ops": attempted}
    if res is None:
        metrics = {}
        failed = 0
    else:
        failed = res.limited
        info.update(
            rounds=res.rounds,
            digest=harness.digest(res.canon),
            calibration_ms=statistics.median(calibration + res.calibration_ms),
        )
        if args.trace:
            metrics = harness.per_layer(res, PER_LAYER)
            scans = harness.count(res, "scanner.scans")
            found = harness.count(res, "scanner.witnesses")
            metrics["scanner.witnesses_per_scan"] = harness.metric(found / scans if scans else 0.0, "ratio")
            for name in SETUP_LAYERS:
                value = statistics.median(layers.get(name, 0.0) for layers in setup_layers)
                metrics[name] = harness.metric(value, "s")
        else:
            if args.workload == "cli":
                rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
            else:
                rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            metrics = harness.end_to_end(res, setup_times, rss_kb / 1024)
    print("info " + json.dumps(info, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
