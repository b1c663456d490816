"""One workload in one fresh process: set up, run passes, check, report.

Started by run.py, with the checkout root as working directory. Prints one
JSON object as its last line of standard output. With --setup-only it stops
once the inputs are ready and reports only the set-up time.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, "_work")
MEMORY_LIMIT = 2 << 30  # bytes of address space


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--batch-seed", type=int, required=True)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.perf_counter() of the parent when it started this process")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    # a runaway job fails with MemoryError instead of exhausting the machine
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    os.makedirs(WORK, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as work:
        report = run(args, work)
    print(json.dumps(report))
    return 0


def run(args, work) -> dict:
    import speed

    t0 = time.thread_time()
    speed.kernel()  # its first run in a process is slow: neither a sample nor set-up
    cold_s = time.thread_time() - t0
    # a traced run reports no end-to-end metric, and kernel samples would
    # land inside its spans, so it runs without a meter
    meter = None if args.trace else speed.Meter()
    with meter or contextlib.nullcontext():
        setup_tracer = None
        if args.trace:
            import negsum.cli  # noqa: F401  (every layer loaded before wrapping)
            import tracing

            setup_tracer = tracing.Tracer()
            setup_tracer.install()
        import workloads  # imports negsum: part of the set-up time

        setup, fresh, run_pass = workloads.WORKLOADS[args.workload]
        inputs = setup(args.seed, args.batch_seed, work)
        setup_end = time.thread_time()
        setup_wall_s = time.perf_counter() - args.spawned_at
        if setup_tracer is not None:
            setup_tracer.uninstall()
    # CPU time of this process since it started (interpreter start-up,
    # imports and inputs), scaled to the host's speed during it
    if meter:
        setup_cpu_s = meter.own_cpu(0.0, setup_end) - cold_s
        setup_s = setup_cpu_s * meter.factor(0.0, setup_end)
    else:
        setup_s = setup_cpu_s = setup_end - cold_s
    if args.setup_only:
        return {"setup_s": setup_s, "setup_cpu_s": setup_cpu_s, "setup_wall_s": setup_wall_s}

    with open(os.path.join(HERE, "transcript.json"), encoding="utf-8") as fh:
        transcript = json.load(fh).get(args.workload)

    first = {}  # the first untraced pass, and the first traced pass's tracer

    def one_pass(tracer=None) -> dict:
        """One pass, summed up at once: the run keeps no pass's objects, so
        its heap does not grow with the number of passes."""
        p = workloads.Pass(transcript=transcript, tracer=tracer)
        pass_inputs = fresh(inputs)  # untimed and untraced
        gc.collect()  # every pass starts from a collected heap, untimed
        meter = speed.Meter() if tracer is None else None
        if tracer is not None:
            tracer.install()
        w0 = time.perf_counter()
        try:
            with meter or contextlib.nullcontext():
                run_pass(p, pass_inputs)
        finally:
            wall = time.perf_counter() - w0
            if tracer is not None:
                tracer.uninstall()
        p.finish(meter)
        entry = {
            "pass_s": sum(p.times.values()),
            "jobs_cpu_s": sum(p.cpu_times.values()),
            "wall_s": wall,  # kernel samples included
            "times": p.times,
            "attempted": p.attempted,
            "failures": p.failures,
            "fingerprint": p.fingerprint(),
        }
        if tracer is None:
            first.setdefault("pass", p)
        else:
            first.setdefault("tracer", tracer)
            entry["layers"] = tracing.layer_metrics(tracer, setup_tracer)
            entry["layers"].update({
                "cli.output_bytes": p.cli_output_bytes,
                "cli.exit_mismatch": p.exit_mismatch,
                "cli.transcript_changed": p.transcript_changed,
            })
        return entry

    # untraced and traced passes alternate while another round still fits
    # in the run's time (there is always one); end-to-end metrics come from
    # the untraced passes only
    passes, traced = [], []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        passes.append(one_pass())
        if args.trace:
            traced.append(one_pass(tracing.Tracer()))
        now = time.perf_counter()
        if now - start + (now - round_start) > args.seconds:
            break

    report = {
        "setup_s": setup_s,
        "setup_cpu_s": setup_cpu_s,
        "setup_wall_s": setup_wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "passes": passes,
        "kinds": first["pass"].kinds,
        "recorded": first["pass"].recorded,
    }
    if args.trace:
        report["traced"] = traced
        first["tracer"].write(os.path.join(WORK, f"spans-{args.workload}.tsv"))
    return report


if __name__ == "__main__":
    sys.exit(main())
