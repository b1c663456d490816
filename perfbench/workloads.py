"""The benchmark's workloads: `expfam`, `generated` and `corpus`.

Each workload has a set-up, which builds its inputs once; a `fresh` step,
which gives every pass its own diagram objects, built outside the timed
jobs, so that whatever a diagram caches or indexes is paid again in every
pass; and a pass: one closed-loop run over its job list, one job after
the other in this process. Every job's answer is checked against an
independent one (a known answer, the state-space oracle or the brute-force
summary); a job that raises, or whose answer is wrong, is a failed job.

Jobs call negsum through the package namespace (`ns.<name>`, `ns.cli.main`)
at call time, so the traced run sees every call through its wrappers.

Job kinds and the end-to-end metric each is summed into:

  check       check_s             check_soundness (corpus: `check` calls)
  states      summarize_states_s  summarize_by_states (corpus: `summarize
                                  --method states` calls)
  rules       summarize_rules_s   run_auto (corpus: `summarize --method
                                  reduce` and `reduce` calls)
  crosscheck  crosscheck_s        brute_force_summary, eval_expr and
                                  rels_equal on each engine's summary, plus
                                  format_expr on API summaries
  cli         cli_p50_ms/p90_ms   one in-process negsum.cli.main call
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import itertools
import os
import random
import re
import time
from collections import Counter
from dataclasses import dataclass, field

import negsum as ns
import negsum.cli  # noqa: F401  (makes ns.cli available)

from tracing import RULE_KINDS


# ---------------------------------------------------------------------------
# Relations for the cross-check
# ---------------------------------------------------------------------------

# Fixed, so that the cost of a cross-check depends on the diagram only: on
# the same diagram it varies by about a third from one relation draw to the
# next. The generated workload still varies its relations, with its
# diagrams.
RELATION_SEED = 1


def relations(neg):
    """The diagram's own relations when it ships one for every outcome;
    otherwise seeded left-total relations over two states per agent, each
    local entry state related to one or two exit states."""
    if neg.states is not None and all(o in neg.rels for o in neg.outcomes()):
        return neg.states, dict(neg.rels)
    space = {a: ("0", "1") for a in neg.agents}
    interp = {}
    for atom, result in neg.outcomes():
        rng = random.Random(f"{RELATION_SEED}/{atom}/{result}")
        parties = neg.parties(atom)
        local = list(itertools.product("01", repeat=len(parties)))
        pairs = frozenset(
            (q, q2) for q in local for q2 in rng.sample(local, rng.randint(1, 2))
        )
        interp[(atom, result)] = ns.Rel(parties, pairs)
    return space, interp


# ---------------------------------------------------------------------------
# One pass
# ---------------------------------------------------------------------------

@dataclass
class Pass:
    """Job timings, CLI latencies, failures and the exact counts of one
    pass. `transcript` maps a CLI call to its recorded exit code and
    stdout; `recorded` collects the calls of this pass in the same form."""

    transcript: dict | None = None
    tracer: object = None
    times: dict = field(default_factory=dict)  # job label -> scaled CPU seconds
    cpu_times: dict = field(default_factory=dict)  # job label -> CPU seconds
    spans: list = field(default_factory=list)  # (job label, CPU time at start, at end)
    kinds: dict = field(default_factory=dict)  # job label -> (kind or None, is a CLI call)
    attempted: int = 0
    failures: dict = field(default_factory=dict)  # job label -> reason
    counts: Counter = field(default_factory=Counter)
    trace_lines: dict = field(default_factory=dict)  # job label -> rule trace lines
    outputs: list = field(default_factory=list)
    recorded: dict = field(default_factory=dict)
    cli_output_bytes: int = 0
    exit_mismatch: int = 0
    transcript_changed: int = 0

    def fail(self, label, reason):
        self.failures.setdefault(label, reason)

    def expect(self, label, ok, reason):
        if not ok:
            self.fail(label, reason)

    # The garbage collector is off while a job runs, as timeit has it, and
    # collects between jobs: when a collection falls due depends on all
    # that ran before, so it lands in one job in one job order and in
    # another in the next, and added up to 50 % to a job's time.
    def _start(self, label, kind, is_cli):
        self.attempted += 1
        self.kinds[label] = (kind, is_cli)
        if self.tracer is not None:
            self.tracer.set_job(label)
        gc.disable()
        return time.thread_time()

    def _stop(self, label, t0):
        t1 = time.thread_time()
        gc.enable()
        self.spans.append((label, t0, t1))

    def finish(self, meter=None):
        """After the pass: each job's CPU time, and its time scaled to
        the host's speed by the pass's `meter` (unscaled without one)."""
        for label, t0, t1 in self.spans:
            cpu, factor = (meter.own_cpu(t0, t1), meter.factor(t0, t1)) if meter else (t1 - t0, 1.0)
            self.cpu_times[label] = self.cpu_times.get(label, 0.0) + cpu
            self.times[label] = self.times.get(label, 0.0) + cpu * factor

    def run(self, kind, label, fn):
        """Time one job under its kind. Any exception fails the job."""
        t0 = self._start(label, kind, False)
        try:
            return fn()
        except Exception as exc:  # BudgetExceeded included: every error is a failed job
            self.fail(label, f"{type(exc).__name__}: {exc}")
            return None
        finally:
            self._stop(label, t0)

    # -- API jobs --------------------------------------------------------

    def check(self, label, neg, sound, markings=None):
        v = self.run("check", label, lambda: ns.check_soundness(neg))
        if v is None:
            return
        self.counts["markings"] += v.state_count
        self.expect(label, v.sound == sound, f"verdict sound={v.sound}, expected {sound}")
        if markings is not None:
            self.expect(label, v.state_count == markings,
                        f"{v.state_count} markings, expected {markings}")

    def rules(self, label, neg, sound):
        """run_auto; its verdict must match the oracle's."""
        trace = self.run("rules", label, lambda: ns.run_auto(neg))
        if trace is None:
            return None
        for kind in ("total",) + RULE_KINDS:
            self.counts[f"applications_{kind}"] += trace.counters.get(kind, 0)
        self.trace_lines[label] = trace.trace_lines()
        want = "summarized" if sound else "unsound"
        self.expect(label, trace.verdict == want,
                    f"verdict {trace.verdict} ({trace.reason}), expected {want}")
        return trace.summary

    def states(self, label, neg):
        res = self.run("states", label, lambda: ns.summarize_by_states(neg))
        if res is None:
            return None
        self.expect(label, res.fully_reduced, "state elimination did not reduce fully")
        return res.summary

    def crosscheck(self, label, neg, space, interp, summaries, fmt=True):
        """Each engine's summary must equal the brute-force union of all
        large steps under the relations. With `fmt`, each summary is also
        printed, and its size is one of the exact counts."""

        def job():
            oracle = ns.brute_force_summary(neg, interp, space)
            wrong, nbytes = [], 0
            for engine, summary in summaries:
                if set(summary) != set(oracle):
                    wrong.append(f"{engine}: results {sorted(summary)} != {sorted(oracle)}")
                    continue
                for r, expr in summary.items():
                    rel = ns.eval_expr(expr, interp, space)
                    if not ns.rels_equal(rel, oracle[r], space):
                        wrong.append(f"{engine}: result {r} disagrees with the oracle")
                    if fmt:
                        nbytes += len(ns.format_expr(expr).encode("utf-8"))
            return wrong, nbytes

        out = self.run("crosscheck", label, job)
        if out is None:
            return
        wrong, nbytes = out
        self.counts["format_bytes"] += nbytes
        self.expect(label, not wrong, "; ".join(wrong))

    # -- CLI jobs --------------------------------------------------------

    def cli(self, argv, kind=None):
        """One in-process CLI call; returns (exit code, stdout). Its latency
        counts for the CLI percentiles and, with `kind`, for that job kind."""
        label = " ".join(argv)
        out, err = io.StringIO(), io.StringIO()
        t0 = self._start(label, kind, True)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = ns.cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code
        except Exception as exc:
            code = None
            self.fail(label, f"{type(exc).__name__}: {exc}")
        self._stop(label, t0)
        text = out.getvalue()
        self.cli_output_bytes += len(text.encode("utf-8"))
        self.outputs.append((label, code, hashlib.sha256(text.encode()).hexdigest()))
        self.recorded[label] = {"exit": code, "stdout": text}
        if self.transcript is not None:
            want = self.transcript.get(label)
            if want is None:
                self.fail(label, "call missing from the recorded transcript")
            elif want["exit"] != code:
                self.exit_mismatch += 1
                self.fail(label, f"exit {code}, transcript says {want['exit']}")
            elif want["stdout"] != text:
                self.transcript_changed += 1
        return code, text

    # -- exact counts ----------------------------------------------------

    def fingerprint(self) -> dict:
        """Counts that must repeat exactly from pass to pass, traced or
        not. `outputs_sha` covers every CLI exit code and stdout."""
        fp = {k: self.counts[k] for k in sorted(self.counts)}
        fp["trace_sha"] = hashlib.sha256(repr(sorted(self.trace_lines.items())).encode()).hexdigest()
        fp["outputs_sha"] = hashlib.sha256(repr(sorted(self.outputs)).encode()).hexdigest()
        return fp


def _summary_lines(text):
    """Parse `result: expr` lines printed by `summarize` back into
    expressions."""
    out = {}
    for line in text.splitlines():
        result, sep, expr = line.partition(": ")
        if sep and result != "applications":
            out[result] = (ns.parse_expr(expr), len(expr.encode("utf-8")))
    return out


# ---------------------------------------------------------------------------
# expfam: the branch-diamond family
# ---------------------------------------------------------------------------
#
# Reachable markings grow as 5^k + 2 while atoms grow as 4k + 2, so the
# state-space engines (semantics, state_elim, transformers) do most of the
# work. The rule engine runs on k up to 8, beyond the reach of the state
# space, where its polynomial growth (6k + 1 applications) still makes it a
# real share of a pass. Left out: check_soundness on expfam(6) (1.7 s in
# one call; it would cut the passes of a run, whose median must hold steady
# on a noisy host, to about nine) and the eager demo at k = 6 (0.6 s); also
# expfam(7..8) reachability (10 s and 51 s) and expfam(4) elimination
# (about 65 s).

EXPFAM_CHECK = range(1, 6)   # check_soundness
EXPFAM_RULES = range(1, 9)   # run_auto
EXPFAM_STATES = range(1, 4)  # summarize_by_states
EXPFAM_CROSS = range(1, 5)   # brute-force cross-check
EXPFAM_DEMO = range(1, 6)    # `negsum demo expfam`, both strategies


def setup_expfam(seed, batch_seed, work):
    return None


def fresh_expfam(_inputs):
    """expfam(k) for every k of a pass, with its cross-check relations."""
    negs = {k: ns.expfam(k) for k in EXPFAM_RULES}
    return negs, {k: relations(negs[k]) for k in EXPFAM_CROSS}


def pass_expfam(p: Pass, inp):
    negs, rels = inp
    rule_sums, state_sums = {}, {}
    for k in EXPFAM_CHECK:
        p.check(f"check expfam({k})", negs[k], True, markings=5**k + 2)
    for k in EXPFAM_RULES:
        rule_sums[k] = p.rules(f"run_auto expfam({k})", negs[k], True)
    for k in EXPFAM_STATES:
        state_sums[k] = p.states(f"summarize_by_states expfam({k})", negs[k])
    for k in EXPFAM_CROSS:
        engines = [(e, s) for e, s in (("rules", rule_sums.get(k)), ("states", state_sums.get(k)))
                   if s is not None]
        p.crosscheck(f"crosscheck expfam({k})", negs[k], *rels[k], engines)
    for k in EXPFAM_DEMO:
        for strategy in ("initial", "alternating"):
            argv = ["demo", "expfam", "--k", str(k), "--strategy", strategy]
            code, text = p.cli(argv)
            # known answers: the alternating order needs exactly 5k+1
            # applications; the eager order piles 2^(k-1) results (at
            # least 2) on the initial atom
            label = " ".join(argv)
            if strategy == "alternating":
                p.expect(label, f"applications: {5 * k + 1}\n" in text,
                         f"expected {5 * k + 1} applications")
            else:
                peak = max(2, 2 ** (k - 1))
                p.expect(label, f"initial atom: {peak}\n" in text,
                         f"expected a peak of {peak} results")


# ---------------------------------------------------------------------------
# generated: sound instances from the generator and their unsound mutants
# ---------------------------------------------------------------------------
#
# Deterministic diagrams from generate_sound, half cyclic (run_general) and
# half acyclic (run_acyclic), each with one mutate_unsound mutant. Their
# state spaces stay small, so among the engines the rule engine (rules,
# strategies, model.validate) does most of the work; the brute-force
# oracle of the cross-check takes the largest single share. An instance or
# mutant with more than GEN_MAX_MARKINGS reachable markings or GEN_MAX_EDGES
# edges is passed over for the next candidate seed: the cost of state
# elimination and of the brute-force oracle grows steeply with the
# reachability graph (minutes beyond about 100 markings at this commit), and
# a few such instances would set most of a pass's time. The expfam workload
# measures those engines on larger graphs.
#
# The batch comes from the batch seed, not from the workload seed, which only
# orders it: over ten seeds, the cost of eight random diagrams spread by
# 15-40 % (quartile distance), more than a run may vary. Nothing depends on
# a measured time.

# (agents, inverse-rule steps, max atoms, acyclic)
GEN_SHAPES = (
    (3, 24, 12, False),
    (3, 40, 20, True),
    (4, 32, 16, False),
    (4, 48, 24, True),
    (5, 32, 16, False),
    (5, 40, 20, True),
    (4, 40, 20, False),
    (3, 64, 32, True),
)
GEN_MAX_MARKINGS = 50
GEN_MAX_EDGES = 150
GEN_MAX_ATTEMPTS = 200


@dataclass
class Instance:
    label: str
    path: str
    mutant_path: str
    classes: tuple  # classification lines the CLI must print, sound then mutant


def _small(neg):
    try:
        graph = ns.reachability(neg, cap=GEN_MAX_MARKINGS)
    except ns.BudgetExceeded:
        return False
    return len(graph.edges) <= GEN_MAX_EDGES


def _class_lines(neg):
    c = ns.classify(neg)
    return (
        f"deterministic: {c.deterministic}\n"
        f"weakly_deterministic: {c.weakly_deterministic}\n"
        f"acyclic: {c.acyclic}\n"
    )


def setup_generated(seed, batch_seed, work):
    instances = []
    for i, (agents, steps, max_atoms, acyclic) in enumerate(GEN_SHAPES):
        for attempt in range(GEN_MAX_ATTEMPTS):
            gseed = (batch_seed * 1000 + i) * GEN_MAX_ATTEMPTS + attempt
            neg = ns.generate_sound(gseed, steps, agents, acyclic, max_atoms=max_atoms)
            if not _small(neg):
                continue
            mutant = ns.mutate_unsound(neg, random.Random(gseed))
            if mutant is not None and _small(mutant):
                break
        else:
            raise RuntimeError(f"no small instance of shape {i} after {GEN_MAX_ATTEMPTS} seeds")
        path = os.path.join(work, f"gen{i}.json")
        mutant_path = os.path.join(work, f"gen{i}-mutant.json")
        ns.dump(neg, path)
        ns.dump(mutant, mutant_path)
        instances.append(Instance(
            f"gen#{i} seed={gseed} agents={agents} K={len(neg.atoms)} "
            f"{'acyclic' if acyclic else 'cyclic'}",
            path, mutant_path,
            (_class_lines(neg), _class_lines(mutant)),
        ))
    random.Random(seed).shuffle(instances)
    return instances


def fresh_generated(instances):
    """Each instance and its mutant, loaded anew from the files written in
    set-up, with the instance's cross-check relations."""
    out = []
    for inst in instances:
        neg = ns.load(inst.path)
        out.append((inst, neg, ns.load(inst.mutant_path), relations(neg)))
    return out


def pass_generated(p: Pass, inputs):
    for inst, neg, mutant, (space, interp) in inputs:
        lab = inst.label
        p.check(f"check {lab}", neg, True)
        rules = p.rules(f"run_auto {lab}", neg, True)
        states = p.states(f"summarize_by_states {lab}", neg)
        engines = [(e, s) for e, s in (("rules", rules), ("states", states)) if s is not None]
        p.crosscheck(f"crosscheck {lab}", neg, space, interp, engines)
        p.check(f"check mutant {lab}", mutant, False)
        p.rules(f"run_auto mutant {lab}", mutant, False)
        for path, lines in ((inst.path, inst.classes[0]), (inst.mutant_path, inst.classes[1])):
            code, _ = p.cli(["validate", path])
            p.expect(f"validate {path}", code == 0, f"exit {code}")
            code, text = p.cli(["classify", path])
            p.expect(f"classify {path}", code == 0 and text.startswith(lines),
                     "classification differs from negsum.classify")


# ---------------------------------------------------------------------------
# corpus: the bundled fixtures through the CLI, in process
# ---------------------------------------------------------------------------
#
# The diagrams are small, so per-call fixed costs in fileio, model,
# structure, cli and format_expr dominate. The seed orders the fixtures.

CORPUS_DIR = os.path.join("src", "negsum", "fixtures")
# fixed, so that the `reduce --trace` calls match the recorded transcript
CORPUS_TRACE = os.path.join("perfbench", "_work", "corpus-reduce.log")
# (name, command and options, job kind)
CORPUS_COMMANDS = (
    ("validate", ["validate"], None),
    ("classify", ["classify"], None),
    ("reach", ["reach"], None),
    ("dot", ["reach", "--dot"], None),
    ("check", ["check"], "check"),
    ("states", ["summarize", "--method", "states"], "states"),
    ("rules", ["summarize", "--method", "reduce"], "rules"),
    ("reduce", ["reduce", "--trace", CORPUS_TRACE], "rules"),
    ("diag", ["diag", "--fragments", "--loops"], None),
)
_RULE_LINE = re.compile(r"^k=\d+ rule=(\w+) ")


@dataclass
class CorpusFixture:
    name: str
    path: str
    sound: bool
    deterministic: bool


def setup_corpus(seed, batch_seed, work):
    names = ns.fixture_names()
    random.Random(seed).shuffle(names)
    fixtures = []
    for name in names:
        det, _wd, _acyclic, sound = ns.CLASSIFICATIONS[name]
        fixtures.append(CorpusFixture(name, os.path.join(CORPUS_DIR, f"{name}.json"), sound, det))
    return fixtures


def fresh_corpus(fixtures):
    """Each fixture's diagram for the cross-check, loaded anew, with its
    relations; the CLI calls load their own."""
    out = []
    for fx in fixtures:
        neg = ns.load(fx.path)
        out.append((fx, neg, relations(neg)))
    return out


def pass_corpus(p: Pass, inputs):
    for fx, neg, (space, interp) in inputs:
        exits, labels, summaries = {}, {}, []
        for name, (command, *options), kind in CORPUS_COMMANDS:
            argv = [command, fx.path, *options]
            labels[name] = " ".join(argv)
            if name == "reduce" and os.path.exists(CORPUS_TRACE):
                os.remove(CORPUS_TRACE)
            exits[name], text = p.cli(argv, kind)
            if name == "check":
                states = re.search(r"^states: (\d+)$", text, re.M)
                p.counts["markings"] += int(states.group(1)) if states else 0
            if name in ("states", "rules") and exits[name] == 0:
                parsed = _summary_lines(text)
                p.counts["format_bytes"] += sum(n for _e, n in parsed.values())
                summaries.append((name, {r: e for r, (e, _n) in parsed.items()}))
            if name == "reduce" and os.path.exists(CORPUS_TRACE):
                with open(CORPUS_TRACE, encoding="utf-8") as fh:
                    lines = fh.read().splitlines()
                p.trace_lines[labels[name]] = lines
                p.counts["applications_total"] += len(lines)
                p.counts.update(
                    f"applications_{m.group(1)}" for m in map(_RULE_LINE.match, lines) if m
                )
        p.expect(labels["check"], exits["check"] == (0 if fx.sound else 1),
                 f"exit {exits['check']} for a fixture documented sound={fx.sound}")
        if fx.deterministic:
            p.expect(labels["reduce"], exits["reduce"] == exits["check"],
                     f"exit {exits['reduce']} disagrees with check's exit {exits['check']}")
        if fx.sound:
            p.expect(labels["states"], exits["states"] == 0, "state elimination printed no summary")
        if summaries:
            p.crosscheck(f"crosscheck {fx.name}", neg, space, interp, summaries, fmt=False)


# workload -> (set-up, fresh inputs of a pass, pass)
WORKLOADS = {
    "expfam": (setup_expfam, fresh_expfam, pass_expfam),
    "generated": (setup_generated, fresh_generated, pass_generated),
    "corpus": (setup_corpus, fresh_corpus, pass_corpus),
}
