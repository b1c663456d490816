"""The negsum benchmark.

    python3 perfbench/run.py --workload expfam|generated|corpus --seed N \
        --seconds S --trace 0|1 [--batch-seed B]

Run from the root of a checkout. The workload runs in a fresh child process
(perfbench/worker.py) as a closed loop: one client runs each job after the
previous one ends, with no threads. The child repeats passes over the job
list while another pass fits in S seconds; each pass works on diagram
objects of its own, built outside its timing. Times are CPU times of the
child, scaled to the host's speed around each job (speed.py). `pass_s` and
the other `*_s` metrics are medians over the passes of the pass's summed
job times and of its job kinds' summed times; the CLI percentiles are
taken over the median time of each CLI call.
Set-up time is the median over SETUP_SAMPLES fresh processes.

With --trace 0 the last line of standard output holds the end-to-end
metrics; with --trace 1 it holds the per-layer metrics of a traced pass
(untraced and traced passes alternate; the ratio of their times is
trace.overhead_ratio). Both also print one line per metric before it, and
write the full record (Python version, git revision, nproc, seeds, every
pass's values, quartiles) to perfbench/_work/.

The seed only orders the jobs of `generated` and `corpus`; `expfam` does
not depend on it. The diagrams of `generated` come from --batch-seed: the
workload was tuned on batch 1 (the default), and batch 7 is held out, so a
claimed gain can be re-checked on a batch it was not tuned on.

A run is correct only if every job's answer matches its independent
answer, every pass repeats the same exact counts (traced or not), those
counts match counts.json where it has an entry for the workload and batch,
and every CLI exit code of expfam and corpus matches transcript.json;
otherwise the run still prints its result, with "correct": false, and
exits with code 1. Re-record both files with perfbench/record.py after a
deliberate change of behaviour.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, "_work")
SETUP_SAMPLES = 7
TUNED_BATCH = 1
HELD_OUT_BATCH = 7
DEADLINE_S = 170  # a run must end within 180 s
# per-layer counts that must repeat exactly between traced passes and runs
EXACT_LAYERS = ("semantics.markings", "semantics.edges", "strategies.applications",
                "transformers.format_bytes", "transformers.dag_nodes")
KIND_METRICS = {
    "check": "check_s",
    "states": "summarize_states_s",
    "rules": "summarize_rules_s",
    "crosscheck": "crosscheck_s",
}


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def git_revision():
    """The checked-out commit, read from .git when the checkout has one."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(git, head[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def spawn(args, deadline, setup_only=False):
    """Run one worker process to completion; its last output line is JSON."""
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--batch-seed", str(args.batch_seed),
    ]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--spawned-at", repr(time.perf_counter())]
    proc = subprocess.run(
        cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - time.perf_counter()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_counts(args, child, problems):
    """Exact counts: the same in every pass, traced or not, and equal to
    the recorded ones where counts.json has this workload and seed."""
    everything = child["passes"] + child.get("traced", [])
    first = child["passes"][0]["fingerprint"]
    for i, p in enumerate(everything):
        if p["fingerprint"] != first:
            problems.append(f"pass {i}: exact counts differ from pass 0")
    traced = [{k: t["layers"][k] for k in EXACT_LAYERS} for t in child.get("traced", [])]
    for i, t in enumerate(traced):
        if t != traced[0]:
            problems.append(f"traced pass {i}: per-layer counts differ from traced pass 0")
    with open(os.path.join(HERE, "counts.json"), encoding="utf-8") as fh:
        recorded = json.load(fh)
    ref = recorded.get(args.workload, {})
    ref = ref.get("any", ref.get(str(args.batch_seed)))
    if ref is None:
        return
    mine = {k: v for k, v in first.items() if k != "outputs_sha"}
    if mine != ref["fingerprint"]:
        problems.append(f"exact counts {mine} differ from counts.json {ref['fingerprint']}")
    if traced and traced[0] != ref["layers"]:
        problems.append(f"per-layer counts {traced[0]} differ from counts.json {ref['layers']}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("expfam", "generated", "corpus"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--batch-seed", type=int, default=TUNED_BATCH,
                    help=f"the generated workload's batch (tuned on {TUNED_BATCH}, "
                         f"{HELD_OUT_BATCH} held out)")
    args = ap.parse_args()
    deadline = time.perf_counter() + DEADLINE_S

    if not os.path.isfile(os.path.join(ROOT, "src", "negsum", "__init__.py")):
        print("error: no negsum sources under src/negsum in this checkout", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)

    try:
        setup_runs = [spawn(args, deadline, setup_only=True) for _ in range(SETUP_SAMPLES - 1)]
        child = spawn(args, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    setup_runs.append(child)
    setups = [s["setup_s"] for s in setup_runs]

    passes = child["passes"]
    everything = passes + child.get("traced", [])
    attempted = sum(p["attempted"] for p in everything)
    failures = {k: v for p in everything for k, v in p["failures"].items()}
    failed = sum(len(p["failures"]) for p in everything)
    problems: list[str] = []
    check_counts(args, child, problems)

    # job times are scaled to the host's speed (see speed.py); what noise
    # is left is even on both sides, so each metric is the median over the
    # run's passes
    kinds = child["kinds"]
    per_pass = {"pass_s": [p["pass_s"] for p in passes]}
    for kind, name in KIND_METRICS.items():
        jobs = [job for job, (k, _cli) in kinds.items() if k == kind]
        per_pass[name] = [sum(p["times"][job] for job in jobs) for p in passes]
    values = {name: statistics.median(v) for name, v in per_pass.items()}
    cli_ms = sorted(
        1000 * statistics.median(p["times"][job] for p in passes)
        for job, (_k, cli) in kinds.items() if cli
    )
    values["setup_s"] = statistics.median(setups)
    values["peak_rss_mb"] = child["peak_rss_mb"]
    values["cli_p50_ms"] = statistics.median(cli_ms) if cli_ms else 0.0
    values["cli_p90_ms"] = (
        statistics.quantiles(cli_ms, n=10, method="inclusive")[8] if len(cli_ms) > 1
        else values["cli_p50_ms"]
    )
    spread = {name: quartiles(v) for name, v in per_pass.items()}
    spread["setup_s"] = quartiles(setups)

    if args.trace:
        traced = child["traced"]
        # median_low keeps counts whole; they are the same in every traced pass
        layers = {
            name: statistics.median_low(t["layers"][name] for t in traced)
            for name in traced[0]["layers"]
        }
        layers["trace.overhead_ratio"] = (
            statistics.median(t["jobs_cpu_s"] for t in traced)
            / statistics.median(p["jobs_cpu_s"] for p in passes)
        )
        wanted = bench["per_layer"]
        metrics = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]} for m in wanted}
    else:
        wanted = bench["end_to_end"]
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "batch_seed": args.batch_seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "git_revision": git_revision(),
        "nproc": os.cpu_count(),
        "passes": len(passes),
        "cli_calls": len(cli_ms),
        "values": values,
        "quartiles": spread,
        "per_pass": per_pass,
        "setup_samples": setups,
        # unscaled CPU and wall-clock times, for comparison only
        "pass_jobs_cpu_s": [p["jobs_cpu_s"] for p in passes],
        "pass_wall_s": [p["wall_s"] for p in passes],
        "setup_cpu_samples": [s["setup_cpu_s"] for s in setup_runs],
        "setup_wall_samples": [s["setup_wall_s"] for s in setup_runs],
        "fail_ratio": {"failed": failed, "attempted": attempted},
        "failures": failures,
        "problems": problems,
        "fingerprint": passes[0]["fingerprint"],
        "metrics": metrics,
    }
    os.makedirs(WORK, exist_ok=True)
    path = os.path.join(WORK, f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    for name, m in metrics.items():
        extra = ""
        if name in spread:
            lo, hi = spread[name]
            extra = f"  (per pass: q1 {lo:.6g}, q3 {hi:.6g}, n={len(per_pass.get(name, setups))})"
        elif name.startswith("cli_p"):
            extra = f"  (n={len(cli_ms)} calls)"
        print(f"{name:32s} {m['value']:.6g} {m['unit']}{extra}")
    print(f"{'fail_ratio':32s} {failed}/{attempted}")
    for label, reason in list(failures.items())[:20]:
        print(f"FAILED {label}: {reason}")
    for problem in problems:
        print(f"SELF-CHECK {problem}")
    print(f"record: {os.path.relpath(path, ROOT)}")
    correct = failed == 0 and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
