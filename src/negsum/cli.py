"""Command-line front end.

Exit codes: 0 = sound / ok, 1 = unsound, 2 = error or exploration budget.
Exit code 1 means "unsound" and nothing else: an unexpected exception is
reported as an internal error, with its traceback, and exits 2.
"""

from __future__ import annotations

import argparse
import functools
import sys
import traceback

from . import fileio
from .errors import NegsumError
from .generator import expfam, generate_sound
from .model import classify
from .semantics import DEFAULT_CAP, check_soundness, reachability
from .state_elim import summarize_by_states
from .strategies import run_auto, run_exponential_demo
from .structure import find_loops, fragment, synchronizers
from .transformers import format_expr

EXIT_OK = 0
EXIT_UNSOUND = 1
EXIT_ERROR = 2
# the exit code of each reduction verdict
VERDICT_EXIT = {"summarized": EXIT_OK, "unsound": EXIT_UNSOUND, "unknown": EXIT_ERROR}


def cmd_validate(args) -> int:
    neg = fileio.load(args.file)
    print(f"valid: {len(neg.agents)} agents, {len(neg.atoms)} atoms")
    return EXIT_OK


def cmd_classify(args) -> int:
    cls = classify(fileio.load(args.file))
    print(f"deterministic: {cls.deterministic}")
    print(f"weakly_deterministic: {cls.weakly_deterministic}")
    print(f"acyclic: {cls.acyclic}")
    print(f"deterministic_agents: {sorted(cls.deterministic_agents)}")
    return EXIT_OK


def cmd_reach(args) -> int:
    neg = fileio.load(args.file)
    graph = reachability(neg, cap=args.cap)
    if args.dot:
        print(fileio.reachability_dot(graph), end="")
    else:
        print(f"nodes: {len(graph.codes)}")
        print(f"edges: {sum(map(len, graph.succ))}")
        print(f"final reachable: {graph.final is not None}")
    return EXIT_OK


def cmd_check(args) -> int:
    neg = fileio.load(args.file)
    verdict = check_soundness(neg, cap=args.cap)
    print(f"sound: {verdict.sound}")
    print(f"states: {verdict.state_count}")
    if verdict.dead_atoms:
        print(f"dead atoms: {sorted(verdict.dead_atoms)}")
    if verdict.stuck_witness is not None:
        pretty = " ".join(f"({a},{r})" for a, r in verdict.stuck_witness)
        print(f"witness: {pretty}")
    return EXIT_OK if verdict.sound else EXIT_UNSOUND


def _print_summary(summary) -> None:
    for result in sorted(summary):
        print(f"{result}: {format_expr(summary[result])}")


def cmd_summarize(args) -> int:
    neg = fileio.load(args.file)
    if args.method == "states":
        outcome = summarize_by_states(neg, cap=args.cap)
        if not outcome.fully_reduced:
            alive = len(outcome.residual.alive)
            print(f"not fully reducible: {alive} markings remain")
            return EXIT_UNSOUND
        _print_summary(outcome.summary)
        return EXIT_OK
    trace = run_auto(neg)
    if trace.verdict == "summarized":
        _print_summary(trace.summary)
        print(f"applications: {trace.total}")
    else:
        print(f"verdict: {trace.verdict} ({trace.reason})")
    return VERDICT_EXIT[trace.verdict]


def cmd_reduce(args) -> int:
    neg = fileio.load(args.file)
    trace = run_auto(neg)
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as fh:
            fh.write("\n".join(trace.trace_lines()) + "\n")
    print(f"verdict: {trace.verdict}" + (f" ({trace.reason})" if trace.reason else ""))
    print(f"applications: {trace.total}")
    if trace.summary is not None:
        _print_summary(trace.summary)
    return VERDICT_EXIT[trace.verdict]


def cmd_diag(args) -> int:
    neg = fileio.load(args.file)
    if args.fragments:
        for atom in neg.atoms:
            frag = fragment(neg, atom)
            if frag.negotiation is None:
                print(f"fragment {atom}: targets not unique")
            else:
                members = sorted(frag.negotiation.atoms)
                print(f"fragment {atom}: atoms {members}")
    if args.loops:
        loops = find_loops(neg)
        if not loops:
            print("no loops")
        for loop in loops:
            pretty = " ".join(f"({a},{r})" for a, r in loop.outcomes)
            sync = sorted(synchronizers(neg, loop))
            print(f"loop {pretty} atoms={sorted(loop.atoms)} synchronizers={sync}")
    return EXIT_OK


def cmd_gen(args) -> int:
    neg = generate_sound(
        args.seed, args.steps, num_agents=args.agents, acyclic=args.acyclic
    )
    text = fileio.dumps(neg)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        print(text, end="")
    return EXIT_OK


def cmd_demo(args) -> int:
    neg = expfam(args.k)
    trace = run_exponential_demo(neg, args.strategy)
    print(f"strategy: {args.strategy}")
    print(f"applications: {trace.total}")
    print(f"peak results at the initial atom: {trace.counters['peak_initial_results']}")
    print(f"verdict: {trace.verdict}")
    return EXIT_OK


def at_least(low: int):
    """An argparse type: an integer no smaller than `low`. argparse turns a
    smaller one into a usage error (exit 2)."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    parse.__name__ = "integer"  # argparse names the type in its messages
    return parse


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and shared by every later
    one: `main` pays for the argparse tree once per process, not once per
    call. Parsing leaves the parser unchanged, since every call gets a new
    namespace, and each `cmd_*` looks up the engines at call time."""
    parser = argparse.ArgumentParser(
        prog="negsum",
        description="Analyze negotiation diagrams: soundness, summaries, reduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check well-formedness")
    p.add_argument("file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("classify", help="determinism and acyclicity")
    p.add_argument("file")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("reach", help="explore the reachability graph")
    p.add_argument("file")
    p.add_argument("--cap", type=at_least(1), default=DEFAULT_CAP)
    p.add_argument("--dot", action="store_true")
    p.set_defaults(func=cmd_reach)

    p = sub.add_parser("check", help="state-space soundness check")
    p.add_argument("file")
    p.add_argument("--cap", type=at_least(1), default=DEFAULT_CAP)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("summarize", help="compute the summary transformers")
    p.add_argument("file")
    p.add_argument("--method", choices=["states", "reduce"], default="states")
    p.add_argument("--cap", type=at_least(1), default=DEFAULT_CAP)
    p.set_defaults(func=cmd_summarize)

    p = sub.add_parser("reduce", help="run the reduction strategy")
    p.add_argument("file")
    p.add_argument("--trace", help="write one line per rule application")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("diag", help="structural diagnostics")
    p.add_argument("file")
    p.add_argument("--fragments", action="store_true")
    p.add_argument("--loops", action="store_true")
    p.set_defaults(func=cmd_diag)

    p = sub.add_parser("gen", help="generate a sound instance")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--steps", type=at_least(0), required=True)
    p.add_argument("--agents", type=at_least(1), default=3)
    p.add_argument("--acyclic", action="store_true")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("demo", help="built-in demonstrations")
    p.add_argument("family", choices=["expfam"])
    p.add_argument("--k", type=at_least(1), default=4)
    p.add_argument("--strategy", choices=["initial", "alternating"], default="initial")
    p.set_defaults(func=cmd_demo)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (NegsumError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ERROR
    except Exception as e:  # a defect, never a verdict
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        traceback.print_exc()
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
