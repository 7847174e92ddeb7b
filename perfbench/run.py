"""The repository's benchmark: one command, three workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload train --seed 1 --seconds 24 --trace 0

``--workload`` is ``train``, ``serve-hot`` or ``serve-live`` (see
``perfbench/workloads.json`` for what each runs and why).  The inputs
are generated from ``--seed``.  ``--trace 0`` measures with tracing off
and prints every end-to-end metric; ``--trace 1`` runs the workload
untraced and then traced, prints the per-layer self times, the
``unattributed`` residual and the tracing overhead, and reports every
per-layer metric.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The command exits
non-zero when a correctness check fails or the program cannot be
imported.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(os.getcwd(), ".perfbench_run")
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _load_spec() -> dict:
    with open(os.path.join(HERE, "workloads.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _bench_names() -> tuple:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    return bench["end_to_end"], bench["per_layer"]


def _run_workload(name: str, spec: dict, seed: int, seconds: float, traced: bool, runtime_dir: str) -> dict:
    from common import Tracer

    tracer = Tracer(traced)
    config = spec["workloads"][name]["config"]
    if name == "train":
        import train

        return train.run(config, seed, seconds, tracer)
    import serve

    return serve.run(config, seed, seconds, tracer, runtime_dir)


def _report_trace(name: str, result: dict, untraced: dict, out_dir: str) -> dict:
    """Print per-layer self times per lane; return the trace metrics."""
    from common import print_breakdown, self_times

    spans = 0
    main_share = None
    for lane, roots in result["lanes"].items():
        totals = {}
        wall = 0.0
        for tracer, root in roots:
            spans += len(tracer.spans)
            wall += tracer.spans[root][2] - tracer.spans[root][1]
            for layer, seconds in self_times(tracer.spans, root).items():
                totals[layer] = totals.get(layer, 0.0) + seconds
        print_breakdown(f"{name} lane {lane}", wall, totals)
        if main_share is None or lane in ("driver", "loadgen"):
            main_share = totals.get("unattributed", 0.0) / wall
        for index, (tracer, _) in enumerate(roots):
            tracer.write(os.path.join(out_dir, f"spans-{name}-{lane}-{index}.jsonl"))
    metric_name, better = result["primary"]
    before = untraced["end_to_end"][metric_name]
    after = result["end_to_end"][metric_name]
    slowdown = (before / after - 1.0) if better == "higher" else (after / before - 1.0)
    print(f"[trace] {name}: tracing overhead on {metric_name}: untraced {before:.6g}, traced {after:.6g}")
    return {
        "trace.unattributed_share": main_share,
        "trace.overhead_pct": 100.0 * slowdown,
        "trace.spans": spans,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"error: the program's sources are missing ({src}); run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    sys.path.insert(1, src)
    spec = _load_spec()
    if args.workload not in spec["workloads"]:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(spec['workloads'])}", file=sys.stderr)
        return 2
    end_to_end, per_layer = _bench_names()
    from common import host_ticks

    # One BLAS thread per process: the server, its readers, the training
    # workers and this driver share the machine's cores, and idle OpenBLAS
    # pool threads spin.  Set before numpy is first imported; the spawned
    # and forked processes inherit it.
    for variable in BLAS_THREAD_VARIABLES:
        os.environ[variable] = "1"
    runtime_dir = os.path.join(SCRATCH, f"runtime-{os.getpid()}")
    os.makedirs(runtime_dir, exist_ok=True)
    # Shared-memory manifests land inside the checkout, where the leak
    # check reads them.
    os.environ["REPRO_RUNTIME_DIR"] = runtime_dir
    try:
        steal0, total0 = host_ticks()
        result = _run_workload(args.workload, spec, args.seed, args.seconds, False, runtime_dir)
        checks = result["checks"]
        if args.trace:
            untraced = result
            result = _run_workload(args.workload, spec, args.seed, args.seconds, True, runtime_dir)
            checks = result["checks"]
            checks.attempted += untraced["checks"].attempted
            for kind, count in untraced["checks"].failures.items():
                checks.fail(kind, count)
            checks.broken.extend(untraced["checks"].broken)
            values = dict(result["per_layer"])
            values.update(_report_trace(args.workload, result, untraced, os.path.join(SCRATCH, "spans")))
            values["ops.failed_share"] = checks.failed / max(1, checks.attempted)
            declared = per_layer
        else:
            values = result["end_to_end"]
            declared = end_to_end
        steal1, total1 = host_ticks()
        steal_share = (steal1 - steal0) / max(1, total1 - total0)
        if args.trace:
            values["host.steal_share"] = steal_share
    finally:
        shutil.rmtree(runtime_dir, ignore_errors=True)

    print(f"[bench] {args.workload} seed {args.seed}: measured {result['wall_s']:.1f} s")
    # Time the hypervisor gave this machine's CPUs to others: every timing
    # above includes it, so compare runs with it in view.
    print(f"[bench] host steal share during the run: {100.0 * steal_share:.2f}%")
    for key in ("rungs", "sampled_slates"):
        if key in result:
            print(f"[bench] {key}: {result[key]}")
    for name, value in result["end_to_end"].items():
        print(f"[bench] {name} = {value:.6g}")
    share = checks.failed / max(1, checks.attempted)
    print(
        f"[bench] failed operations: {checks.failed} of {checks.attempted} ({100.0 * share:.3f}%)"
        f" {dict(checks.failures)}"
    )
    for message in checks.broken:
        print(f"[bench] CHECK FAILED: {message}")

    # A per-layer metric of a layer this workload bypasses reads 0.
    metrics = {
        entry["name"]: {"value": float(values.get(entry["name"], 0.0)), "unit": entry["unit"]} for entry in declared
    }
    line = {
        "correct": checks.correct,
        "attempted": int(checks.attempted),
        "failed": int(checks.failed),
        "metrics": metrics,
    }
    print(json.dumps(line))
    return 0 if checks.correct else 1


def _terminate(signum, frame):
    if os.getpid() != MAIN_PID:
        os._exit(128 + signum)  # a forked worker dies as it would untrapped
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    # A SIGTERM unwinds like an error, so the cleanup below still runs.
    MAIN_PID = os.getpid()
    signal.signal(signal.SIGTERM, _terminate)
    try:
        code = main()
    finally:
        from common import stop_children

        stop_children()
    sys.exit(code)
