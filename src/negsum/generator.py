"""Random instance generation.

`generate_sound` starts from an atomic negotiation and applies randomly
chosen inverse rule images: splitting a result in two (inverse merge),
inserting a fresh atom behind an outcome (inverse shortcut), and adding a
self-loop result (inverse iteration). Each inserted pattern is exactly
what a correct reduction rule removes again, so every output is sound by
rule correctness, deterministic by construction, and acyclic when
self-loop insertion is disabled.

`mutate_unsound` derives unsound, still well-formed variants from sound
ones by deleting results (falling back to retargeting single arcs),
keeping only mutants the state-space oracle rejects.
"""

from __future__ import annotations

import random
from typing import Optional

from .model import AtomSpec, Edit, Negotiation, classify, edit, validate
from .errors import ValidationError
from .semantics import check_soundness


def _atomic(agents: tuple[str, ...]) -> Negotiation:
    return validate(
        agents,
        [AtomSpec("n0", agents, ("r0",))],
        "n0",
        "n0",
        {("n0", p, "r0"): set() for p in agents},
    )


def _split_final(e: Edit, counter: list[int]) -> None:
    """Inverse of the final-atom shortcut: push the final results onto a
    fresh final atom behind the old one."""
    old = e.final
    fresh = f"a{counter[0]}"
    counter[0] += 1
    link = f"r{counter[1]}"
    counter[1] += 1
    results = e.atoms[old].results
    e.set_results(old, (link,))
    e.atoms[fresh] = AtomSpec(fresh, e.base.agents, results)
    for p in e.base.agents:
        for r in results:
            del e.transition[(old, p, r)]
            e.transition[(fresh, p, r)] = set()
        e.transition[(old, p, link)] = {fresh}
    e.final = fresh


def _un_merge(e: Edit, rng: random.Random, counter: list[int]) -> None:
    candidates = [a for a in e.atoms.values() if a.id != e.final]
    if not candidates:
        return
    spec = rng.choice(candidates)
    r = rng.choice(spec.results)
    r1 = f"r{counter[1]}"
    r2 = f"r{counter[1] + 1}"
    counter[1] += 2
    pos = spec.results.index(r)
    e.set_results(spec.id, spec.results[:pos] + (r1, r2) + spec.results[pos + 1 :])
    for p in spec.parties:
        targets = e.transition.pop((spec.id, p, r))
        e.transition[(spec.id, p, r1)] = set(targets)
        e.transition[(spec.id, p, r2)] = set(targets)


def _un_shortcut(e: Edit, rng: random.Random, counter: list[int]) -> None:
    sites = [
        (n, r) for n, spec in e.atoms.items() if n != e.final for r in spec.results
    ]
    if not sites:
        return
    n, r = rng.choice(sites)
    parties = e.atoms[n].parties
    size = rng.randint(1, len(parties))
    chosen = tuple(sorted(rng.sample(parties, size), key=e.base.agent_index))
    fresh = f"a{counter[0]}"
    counter[0] += 1
    link = f"r{counter[1]}"
    counter[1] += 1
    e.atoms[fresh] = AtomSpec(fresh, chosen, (link,))
    for p in chosen:
        e.transition[(fresh, p, link)] = e.transition[(n, p, r)]
        e.transition[(n, p, r)] = {fresh}


def _un_iteration(e: Edit, rng: random.Random, counter: list[int]) -> None:
    candidates = [a for a in e.atoms.values() if a.id != e.final]
    if not candidates:
        return
    spec = rng.choice(candidates)
    loop = f"r{counter[1]}"
    counter[1] += 1
    e.set_results(spec.id, spec.results + (loop,))
    for p in spec.parties:
        e.transition[(spec.id, p, loop)] = {spec.id}


def generate_sound(
    seed: int,
    steps: int,
    num_agents: int = 3,
    acyclic: bool = False,
    max_atoms: int = 12,
) -> Negotiation:
    """Apply `steps` random inverse rules starting from an atomic
    negotiation over `num_agents` agents. The rules edit one copy
    (`model.edit`), which is validated once, at the end."""
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    if num_agents < 1:
        raise ValueError(f"num_agents must be >= 1, got {num_agents}")
    rng = random.Random(seed)
    agents = tuple(f"p{i}" for i in range(1, num_agents + 1))
    neg = _atomic(agents)
    counter = [1, 1]  # fresh atom ids, fresh result names
    if steps == 0:
        return neg
    e = edit(neg)
    _split_final(e, counter)
    ops = ["un_merge", "un_shortcut"] + ([] if acyclic else ["un_iteration"])
    for _ in range(steps - 1):
        op = rng.choice(ops)
        if op == "un_shortcut" and len(e.atoms) >= max_atoms:
            op = "un_merge"
        if op == "un_merge":
            _un_merge(e, rng, counter)
        elif op == "un_shortcut":
            _un_shortcut(e, rng, counter)
        else:
            _un_iteration(e, rng, counter)
    return e.done()


MUTATE_ATTEMPTS = 60  # the most mutants `mutate_unsound` tries


def mutate_unsound(neg: Negotiation, rng: random.Random) -> Optional[Negotiation]:
    """A well-formed but unsound variant of a sound input, produced by
    deleting a result (or, failing that, retargeting one arc); mutants are
    screened with the state-space oracle. Preserves determinism and
    acyclicity. Returns None when none of `MUTATE_ATTEMPTS` attempts
    works."""
    was_acyclic = classify(neg).acyclic
    deletable = [
        (n, r)
        for n, spec in neg.atoms.items()
        if n != neg.final and len(spec.results) > 1
        for r in spec.results
    ]
    retargets = [
        (n, p, r, t)
        for (n, p, r), targets in neg.transition.items()
        if n != neg.final
        for t in targets
    ]
    for _ in range(MUTATE_ATTEMPTS):
        mutant = None
        if deletable and (not retargets or rng.random() < 0.7):
            n, r = rng.choice(deletable)
            spec = neg.atoms[n]
            e = edit(neg)
            e.set_results(n, tuple(x for x in spec.results if x != r))
            for p in spec.parties:
                del e.transition[(n, p, r)]
            try:
                mutant = e.done()
            except ValidationError:
                continue
        elif retargets:
            n, p, r, old = rng.choice(retargets)
            options = [
                m
                for m, spec in neg.atoms.items()
                if p in spec.parties and m != old and m != neg.initial
            ]
            if not options:
                continue
            new = rng.choice(options)
            e = edit(neg)
            e.transition[(n, p, r)] = (e.transition[(n, p, r)] - {old}) | {new}
            try:
                mutant = e.done()
            except ValidationError:
                continue
        if mutant is None:
            continue
        cls = classify(mutant)
        if was_acyclic and not cls.acyclic:
            continue
        if not cls.deterministic:
            continue
        if not check_soundness(mutant, cap=200_000).sound:
            return mutant
    return None


def expfam(k: int) -> Negotiation:
    """The branch-diamond family: one initial atom fans out to k private
    branches (a two-way choice rejoining before the final atom); shortcuts
    taken eagerly at the initial atom pile up 2^(k-1) results there."""
    if k < 1:
        raise ValueError("k must be >= 1")
    agents = tuple(f"p{i}" for i in range(1, k + 1))
    atoms = [AtomSpec("n0", agents, ("a",))]
    transition: dict = {}
    for i, agent in enumerate(agents, start=1):
        root, arm_a, arm_b, join = f"b{i}", f"b{i}a", f"b{i}b", f"b{i}j"
        atoms.append(AtomSpec(root, (agent,), (f"x{i}", f"y{i}")))
        atoms.append(AtomSpec(arm_a, (agent,), ("go",)))
        atoms.append(AtomSpec(arm_b, (agent,), ("go",)))
        atoms.append(AtomSpec(join, (agent,), ("go",)))
        transition[("n0", agent, "a")] = {root}
        transition[(root, agent, f"x{i}")] = {arm_a}
        transition[(root, agent, f"y{i}")] = {arm_b}
        transition[(arm_a, agent, "go")] = {join}
        transition[(arm_b, agent, "go")] = {join}
        transition[(join, agent, "go")] = {"nf"}
    atoms.append(AtomSpec("nf", agents, ("f",)))
    for agent in agents:
        transition[("nf", agent, "f")] = set()
    return validate(agents, atoms, "n0", "nf", transition)
