"""matgraph benchmark: one workload per invocation.

    python3 bench/run.py --workload gn-design --seed 1 --seconds 10 --trace 0

Run from the repository root; matgraph is imported from ``src/``.  The
run times ``setup_s`` as the median of several fresh processes that
import matgraph and build the workload's inputs, then repeats whole
passes of the workload until ``--seconds`` have elapsed (at least one),
checks the outputs of the last pass, and prints one JSON line last:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
the metrics are the end-to-end ones of BENCHMARK.json; with ``--trace 1``
the calls between layers are wrapped (see tracer.py) and the metrics are
the per-layer ones.  Results and traces go to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

from speed import SpeedSampler
from tracer import NullTracer, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
SETUP_PROBES = 5


class Ops:
    """Counts the public calls of one pass and routes them through the tracer."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.done = 0

    def __call__(self, name, fn, *args, **kwargs):
        out = self.tracer.call(name, fn, *args, **kwargs)
        self.done += 1
        return out

    def record(self, key, value):
        self.tracer.record(key, value)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=5.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def probe_setup(args):
    """Reference seconds from spawning a fresh interpreter to its inputs being ready.

    The child samples the machine speed while it imports and sets up, and
    reports the speed factor and the time its samples took.
    """
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    word, factor, busy = (line.split() + ["", "", ""])[:3]
    if proc.returncode != 0 or word != "ready":
        raise RuntimeError(f"setup probe failed with exit code {proc.returncode}")
    return (elapsed - float(busy)) * float(factor)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "matgraph", "__init__.py")):
        print(f"bench: no matgraph sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    if args.setup_only:
        with SpeedSampler() as sp:
            import workloads
            workloads.WORKLOADS[args.workload].setup(args.seed)
        print(f"ready {sp.factor!r} {sum(sp.samples)!r}", flush=True)
        return 0
    import workloads

    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"bench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    setup_samples = [] if args.trace else [probe_setup(args) for _ in range(SETUP_PROBES)]
    inp = wl.setup(args.seed)

    tracer = Tracer(wl.name) if args.trace else NullTracer()
    tracer.install()
    walls, raw_walls, attempted, failed, last, faults = [], [], 0, 0, None, set()
    start = time.perf_counter()
    try:
        while True:
            tracer.pass_index = len(walls)
            op = Ops(tracer)
            try:
                with SpeedSampler() as sp:
                    out = wl.run_pass(inp, op)
            except Exception:  # a failed call counts, the run goes on
                traceback.print_exc()
                out = None
            walls.append(sp.reference_seconds())
            raw_walls.append(sp.elapsed)
            tracer.pass_index = -1
            attempted += wl.OPS
            if out is None:
                failed += wl.OPS - op.done
            else:
                wrong = wl.op_faults(inp, out)
                failed += len(wrong)
                faults.update(wrong)
                last = out
            if time.perf_counter() - start >= args.seconds:
                break
    finally:
        tracer.uninstall()

    problems = ["no pass completed"] if last is None else wl.check(inp, last)
    if last is not None:
        buffers, more = wl.c_peak_buffers(inp, last)
        problems += more
    for msg in sorted(faults):
        print(f"bench: failed call: {msg}", file=sys.stderr)
    for msg in problems:
        print(f"bench: check failed: {msg}", file=sys.stderr)

    os.makedirs(OUT, exist_ok=True)
    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        values, trace = tracer.summary(len(walls), raw_walls)
        with open(os.path.join(OUT, f"trace-{tag}.json"), "w", encoding="utf-8") as fh:
            json.dump(trace, fh)
        wanted = spec["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(setup_samples),
            "wall_s": statistics.median(walls),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "c_peak_buffers": buffers if last is not None else 0,
        }
        wanted = spec["end_to_end"]
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    with open(os.path.join(OUT, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(dict(result, passes=len(walls), pass_ref_s=walls, pass_wall_s=raw_walls,
                       setup_samples_s=setup_samples, problems=problems,
                       failed_calls=sorted(faults)), fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
