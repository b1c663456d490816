"""Span tracing for the traced run.

A `Tracer` wraps the public functions of each negsum layer at every module
attribute where a calling layer (or the benchmark, through the `negsum`
package namespace) looks them up, and restores them on `uninstall`. Each
call records a span: name, start, end, parent span and job id. Spans stay
in memory, in flat arrays, until `write` saves them once at the end.

Self-recursive functions (`eval_expr`, `format_expr`) are wrapped
everywhere except in their own module, so a span is one call into the
layer, not one per expression node.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter

# defining module -> {function: group}; a group is the unit the per-layer
# metrics aggregate over ("outermost" means not nested in a span of the
# same group)
TRACED = {
    "negsum.fileio": {"loads": "fileio.loads"},
    "negsum.model": {"validate": "model.validate", "classify": "model.classify"},
    "negsum.semantics": {
        "reachability": "semantics.reachability",
        "check_soundness": "semantics.check",
    },
    "negsum.state_elim": {
        "labeled_rg": "state_elim.labeled_rg",
        "reduce_labeled_rg": "state_elim.reduce",
        "graph_denotation": "state_elim.denotation",
        "summarize_by_states": "state_elim.summarize",
        "brute_force_summary": "state_elim.brute_force",
    },
    "negsum.transformers": {
        "eval_expr": "transformers.eval",
        "rels_equal": "transformers.rels_equal",
        "format_expr": "transformers.format",
    },
    "negsum.rules": {
        "shortcut_guard": "rules.guard",
        "reducible_outcomes": "rules.reducible",
        "merge_partner": "rules.merge_partner",
        "apply_merge": "rules.apply",
        "apply_iteration": "rules.apply",
        "apply_shortcut": "rules.apply",
        "apply_d_shortcut": "rules.apply",
        "apply_useless_arc": "rules.apply",
    },
    "negsum.strategies": {
        name: "strategies.run"
        for name in (
            "run_auto",
            "run_acyclic",
            "run_one_agent",
            "run_general",
            "run_acyclic_wd",
            "run_exponential_demo",
        )
    },
    "negsum.structure": {
        name: "structure"
        for name in (
            "target_of_atom",
            "target_of_outcome",
            "fragment",
            "segment",
            "k_fragment",
            "find_loops",
            "find_minimal_loop",
            "synchronizers",
            "dominating_atom",
            "syntactic_cycles",
            "execute_path",
        )
    },
    "negsum.generator": {
        "generate_sound": "generator.generate",
        "expfam": "generator.generate",
        "mutate_unsound": "generator.mutate",
    },
    "negsum.cli": {"main": "cli.main"},
}
SELF_RECURSIVE = {"eval_expr", "format_expr"}
RULE_KINDS = ("merge", "iteration", "shortcut", "d_shortcut", "useless_arc")


def dag_nodes(summary) -> int:
    """Distinct expression objects reachable from a summary's expressions:
    the size of its shared structure, not of its printed tree."""
    seen: set[int] = set()
    stack = list(summary.values())
    while stack:
        e = stack.pop()
        if id(e) in seen:
            continue
        seen.add(id(e))
        parts = getattr(e, "parts", None)
        if parts is not None:
            stack.extend(parts)
        elif hasattr(e, "inner"):
            stack.append(e.inner)
    return len(seen)


class Tracer:
    """Spans of one traced stretch (the set-up, or one pass), kept in flat
    arrays indexed by span number."""

    def __init__(self):
        self.names: list[str] = []
        self.jobs: list[str] = [""]  # job 0: spans outside any job
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job_id = array("I")
        self.child = array("d")  # time covered by direct child spans
        self.outer = array("b")  # 1 iff no enclosing span of the same group
        self.group_of: list[str] = []
        self.payload: dict[int, object] = {}
        self.steps: Counter = Counter()  # state elimination on_step kinds
        self._stack: list[int] = []
        self._depth: Counter = Counter()
        self._job = 0
        self._patched: list[tuple[object, str, object]] = []

    # -- job ids -------------------------------------------------------------

    def set_job(self, label: str) -> None:
        self.jobs.append(label)
        self._job = len(self.jobs) - 1

    # -- wrapping ------------------------------------------------------------

    def _hooks(self, fname):
        """(argument hook, return hook) for the functions whose spans carry
        a count."""
        if fname == "loads":
            return (lambda a, kw: len(a[0].encode("utf-8"))), None
        if fname == "reachability":
            return None, lambda g: (len(g.nodes), len(g.edges))
        if fname == "format_expr":
            return None, lambda s: len(s.encode("utf-8"))
        if fname == "summarize_by_states":
            return None, lambda res: res.summary
        if fname.startswith("run_"):
            return None, lambda t: (dict(t.counters), t.verdict, t.summary)
        return None, None

    def _wrap(self, fname, group, fn):
        name_id = len(self.names)
        self.names.append(fname)
        self.group_of.append(group)
        on_call, on_return = self._hooks(fname)
        counting_steps = fname == "reduce_labeled_rg"

        def wrapper(*args, **kwargs):
            if counting_steps and kwargs.get("on_step") is None and len(args) < 2:
                kwargs["on_step"] = lambda _g, kind, _site: self.steps.update((kind,))
            idx = len(self.start)
            stack = self._stack
            self.name_id.append(name_id)
            self.parent.append(stack[-1] if stack else -1)
            self.job_id.append(self._job)
            self.child.append(0.0)
            self.outer.append(1 if self._depth[group] == 0 else 0)
            self.start.append(0.0)
            self.end.append(0.0)
            if on_call is not None:
                self.payload[idx] = on_call(args, kwargs)
            self._depth[group] += 1
            stack.append(idx)
            t0 = self.start[idx] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self.end[idx] = t1
                stack.pop()
                self._depth[group] -= 1
                if stack:
                    self.child[stack[-1]] += t1 - t0
            if on_return is not None:
                self.payload[idx] = on_return(out)
            return out

        return wrapper

    def install(self) -> None:
        modules = [
            m
            for name, m in sorted(sys.modules.items())
            if m is not None and (name == "negsum" or name.startswith("negsum."))
        ]
        for modname, functions in TRACED.items():
            home = sys.modules[modname]
            for fname, group in functions.items():
                original = getattr(home, fname)
                wrapper = self._wrap(fname, group, original)
                for m in modules:
                    if fname in SELF_RECURSIVE and m is home:
                        continue
                    hits = [k for k, v in vars(m).items() if v is original]
                    for attr in hits:
                        self._patched.append((m, attr, original))
                        setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for m, attr, original in reversed(self._patched):
            setattr(m, attr, original)
        self._patched.clear()

    # -- aggregation ---------------------------------------------------------

    def groups(self) -> dict[str, dict[str, float]]:
        """Per group: all calls, outermost calls, inclusive time of the
        outermost spans, and self time of all spans."""
        out: dict[str, dict[str, float]] = {}
        for i in range(len(self.start)):
            g = out.setdefault(
                self.group_of[self.name_id[i]],
                {"calls": 0, "outer_calls": 0, "s": 0.0, "self_s": 0.0},
            )
            dur = self.end[i] - self.start[i]
            g["calls"] += 1
            g["self_s"] += dur - self.child[i]
            if self.outer[i]:
                g["outer_calls"] += 1
                g["s"] += dur
        return out

    def payloads(self, group: str, outermost: bool = True):
        for i, value in self.payload.items():
            if self.group_of[self.name_id[i]] != group:
                continue
            if outermost and not self.outer[i]:
                continue
            yield value

    def write(self, path) -> None:
        """Save every span, one tab-separated line each: index, name,
        start, end, parent index, job label."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tname\tstart\tend\tparent\tjob\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{self.names[self.name_id[i]]}\t{self.start[i]:.9f}\t"
                    f"{self.end[i]:.9f}\t{self.parent[i]}\t{self.jobs[self.job_id[i]]}\n"
                )


def layer_metrics(pass_tracer: Tracer, setup_tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics of one traced pass (generator metrics come
    from the traced set-up, where the inputs are generated)."""
    g = pass_tracer.groups()

    def grp(name, key):
        return g.get(name, {}).get(key, 0)

    markings = edges = 0
    for n, e in pass_tracer.payloads("semantics.reachability", outermost=False):
        markings += n
        edges += e
    reach_s = grp("semantics.reachability", "s")

    apps: Counter = Counter()
    unsound = 0
    dag = 0
    for counters, verdict, summary in pass_tracer.payloads("strategies.run"):
        apps.update(counters)
        unsound += verdict == "unsound"
        if summary is not None:
            dag += dag_nodes(summary)
    for summary in pass_tracer.payloads("state_elim.summarize"):
        if summary is not None:
            dag += dag_nodes(summary)

    guard_calls = grp("rules.guard", "calls")
    apply_calls = grp("rules.apply", "outer_calls")
    setup = setup_tracer.groups()
    return {
        "semantics.reachability_s": reach_s,
        "semantics.markings": markings,
        "semantics.edges": edges,
        "semantics.markings_per_s": markings / reach_s if reach_s else 0.0,
        "semantics.check_self_s": grp("semantics.check", "self_s"),
        "state_elim.labeled_rg_s": grp("state_elim.labeled_rg", "s"),
        "state_elim.reduce_s": grp("state_elim.reduce", "s"),
        "state_elim.steps_parallel": pass_tracer.steps["parallel"],
        "state_elim.steps_selfloop": pass_tracer.steps["selfloop"],
        "state_elim.steps_node": pass_tracer.steps["node"],
        "state_elim.denotation_s": grp("state_elim.denotation", "s"),
        "transformers.eval_calls": grp("transformers.eval", "calls"),
        "transformers.eval_s": grp("transformers.eval", "s"),
        "transformers.rels_equal_s": grp("transformers.rels_equal", "s"),
        "transformers.format_s": grp("transformers.format", "s"),
        "transformers.format_bytes": sum(pass_tracer.payloads("transformers.format")),
        "transformers.dag_nodes": dag,
        "rules.guard_calls": guard_calls,
        "rules.guard_s": grp("rules.guard", "s"),
        "rules.reducible_calls": grp("rules.reducible", "calls"),
        "rules.reducible_s": grp("rules.reducible", "s"),
        "rules.merge_partner_calls": grp("rules.merge_partner", "calls"),
        "rules.apply_calls": apply_calls,
        "rules.apply_s": grp("rules.apply", "s"),
        "rules.guard_hit_ratio": apply_calls / guard_calls if guard_calls else 0.0,
        "strategies.run_s": grp("strategies.run", "s"),
        "strategies.applications": apps["total"],
        **{f"strategies.applications_{k}": apps[k] for k in RULE_KINDS},
        "strategies.unsound_verdicts": unsound,
        "model.validate_calls": grp("model.validate", "calls"),
        "model.validate_s": grp("model.validate", "s"),
        "model.classify_calls": grp("model.classify", "calls"),
        "model.classify_s": grp("model.classify", "s"),
        "fileio.loads_calls": grp("fileio.loads", "calls"),
        "fileio.loads_s": grp("fileio.loads", "s"),
        "fileio.input_bytes": sum(pass_tracer.payloads("fileio.loads")),
        "structure.calls": grp("structure", "calls"),
        "structure.s": grp("structure", "s"),
        "cli.calls": grp("cli.main", "calls"),
        "generator.generate_s": setup.get("generator.generate", {}).get("s", 0.0),
        "generator.mutate_s": setup.get("generator.mutate", {}).get("s", 0.0),
    }
