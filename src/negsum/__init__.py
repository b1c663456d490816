"""negsum: soundness and summarization of negotiation diagrams.

A negotiation diagram couples agents with multi-party atoms; each atom
ends with one of several results, and a transition function says which
atoms each party is ready to engage in next. This package decides
soundness (no deadlocks or livelocks, no dead atoms), computes summary
transformers per final result, and implements the reduction-rule calculus
(merge, iteration, useless arc, shortcut) with polynomial strategies for
deterministic diagrams, all cross-checked against explicit state-space
oracles.
"""

from .errors import (
    BudgetExceeded,
    GuardFailed,
    NegsumError,
    NotAcyclic,
    NotDeterministic,
    NotEnabled,
    NotOneAgentOrReplication,
    ParseError,
    StateSpaceMismatch,
    UnboundAtomic,
    ValidationError,
)
from .model import (
    AtomSpec,
    Classification,
    Negotiation,
    classify,
    is_acyclic,
    validate,
)
from .semantics import (
    Marking,
    ReachabilityGraph,
    SoundnessVerdict,
    check_soundness,
    enabled,
    reachability,
    step,
    successors,
)
from .state_elim import (
    LabeledRG,
    SummaryResult,
    brute_force_summary,
    elim_node,
    elim_parallel,
    elim_selfloop,
    graph_denotation,
    labeled_rg,
    summarize_by_states,
)
from .rules import (
    GuardReport,
    RuleApplication,
    apply_d_shortcut,
    apply_iteration,
    apply_merge,
    apply_shortcut,
    apply_useless_arc,
    another_commits,
    commits_to,
    exclusive_access,
    is_useless_arc,
    iteration_applicable,
    merge_partner,
    uniform_target,
    useless_arcs_at,
    shortcut_candidates,
    reducible_outcomes,
    shortcut_guard,
    unconditionally_enables,
    uniform,
)
from .strategies import (
    ReductionTrace,
    run_acyclic,
    run_acyclic_wd,
    run_auto,
    run_exponential_demo,
    run_general,
    run_one_agent,
)
from .structure import (
    Fragment,
    Loop,
    dominating_atom,
    execute_path,
    find_loops,
    find_minimal_loop,
    fragment,
    k_fragment,
    segment,
    synchronizers,
    syntactic_cycles,
    target_of_atom,
    target_of_outcome,
)
from .transformers import (
    Atomic,
    Concat,
    IDENTITY,
    Identity,
    Rel,
    Star,
    TransformerExpr,
    Union,
    concat,
    concat_expr,
    eval_expr,
    format_expr,
    parse_expr,
    rels_equal,
    star,
    star_expr,
    union,
    union_expr,
)
from .generator import expfam, generate_sound, mutate_unsound
from .fileio import dump, dumps, load, loads
from .fixtures import (
    CLASSIFICATIONS,
    WITH_RELATIONS,
    fixture_names,
    fixture_text,
    load_fixture,
)

__version__ = "0.1.0"
