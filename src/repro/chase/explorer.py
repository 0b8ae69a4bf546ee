"""Bounded exhaustive exploration of the chase's nondeterminism.

``CTc∀`` and ``CTc∃`` membership is undecidable, but for the small witness
programs used in the Table 1 bench we can *empirically* classify a concrete
``(D, Σ)`` pair by exploring every chase sequence up to a depth bound:

* every explored path reaches a leaf (no applicable step, or ⊥) and no path
  was cut off → all sequences terminate (within the bound: conclusive,
  because chase states grow monotonically along a path only through the
  explored frontier);
* some leaf reached → a terminating sequence exists;
* otherwise nothing terminated within the bounds.

States reached by the standard chase are memoized up to null renaming.
The canonical key colour-refines the labelled nulls (1-WL over the
instance's occurs-in structure, the same refinement loop the batch
engine's content fingerprint runs over predicates — see
``repro.batch.fingerprint.colour_refine``), then canonises exactly by
minimising over the colour-preserving relabelings when their number is at
most ``CLASS_PERMUTATION_CAP``; beyond that a deterministic
colour-then-first-occurrence relabeling is used, which may fail to merge
some highly symmetric isomorphic states — that costs time but never
soundness (any *bijective* relabeling scheme only ever identifies
genuinely isomorphic states).

The DFS visits branches transactionally: a branch takes an
``Instance.savepoint``, applies its step in place, recurses, and rolls
back — O(|Δ|) per branch — and finds each child's triggers by joining
only the step's delta against the dependency bodies.  ``reference=True``
switches both back to the seed's behaviour: an O(|I|) ``copy()`` per
branch and a from-scratch trigger enumeration per state.  The
differential suite and the explore bench hold the two against each
other.  The oblivious and semi-oblivious chase carry trigger-key state,
so their exploration is a plain bounded DFS over the same machinery.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from math import factorial

from ..budget import Budget
from ..homomorphism.finder import find_homomorphisms
from ..homomorphism.satisfaction import satisfies_tgd
from ..matching import (
    body_atom_index,
    delta_homomorphisms,
    match_atom,
    warm_plans,
    working_instance,
)
from ..model.atoms import Atom
from ..model.columnar import ColumnarInstance
from ..model.dependencies import EGD, TGD, DependencySet
from ..model.instances import Instance
from ..model.terms import Null, NullFactory
from .runner import _key_variables
from .step import Trigger, apply_step

#: Exact canonization minimises over the colour-preserving null
#: relabelings as long as their count (the product of the colour-class
#: factorials) stays within this cap — 8!, so a fully symmetric 8-null
#: state is still canonised exactly, while refinement usually splits the
#: classes down to a single relabeling long before the cap matters.
CLASS_PERMUTATION_CAP = 40_320


class ExplorationVerdict(enum.Enum):
    """Summary of a bounded exhaustive chase exploration."""

    ALL_TERMINATING = "all sequences terminate"
    SOME_TERMINATING = "a terminating sequence exists; some paths were cut off"
    NONE_FOUND = "no terminating sequence found within bounds"
    EXHAUSTED = "state budget exhausted before any conclusion"


@dataclass
class ExplorationResult:
    """Verdict plus path/state counters of one exploration."""

    verdict: ExplorationVerdict
    terminating_paths: int
    failing_paths: int
    capped_paths: int
    explored_states: int

    @property
    def some_terminating(self) -> bool:
        return self.terminating_paths + self.failing_paths > 0

    @property
    def all_terminating(self) -> bool:
        return self.verdict is ExplorationVerdict.ALL_TERMINATING


def _null_colours(instance: Instance) -> dict[Null, str]:
    """1-WL colours of the instance's labelled nulls.

    Seed colours come from each null's occurrence profile (which
    predicates/positions it fills); each refinement round re-colours a
    null with the multiset of its facts, encoded with the current
    colouring and the null's own positions marked.  The colours are
    isomorphism-invariant by construction, so any isomorphism between two
    states maps colour classes onto colour classes.
    """
    # Lazy import: repro.batch pulls in the analysis layer, which imports
    # this module — a module-level import would cycle at load time.
    from ..batch.fingerprint import colour_refine, stable_hash

    nulls = instance.nulls()
    initial: dict[Null, str] = {}
    for n in nulls:
        profile = sorted(
            [f.predicate, len(f.args), [i for i, t in enumerate(f.args) if t is n]]
            for f in instance.with_term(n)
        )
        initial[n] = stable_hash(["init", profile])

    def contexts(colours: dict[Null, str]) -> dict[Null, list]:
        out: dict[Null, list] = {}
        for n in colours:
            ctx = []
            for f in instance.with_term(n):
                enc: list = [f.predicate]
                for t in f.args:
                    if t is n:
                        enc.append(["s"])
                    elif isinstance(t, Null):
                        enc.append(["n", colours[t]])
                    else:
                        enc.append(["c", str(t)])
                ctx.append(enc)
            ctx.sort()
            out[n] = ctx
        return out

    return colour_refine(initial, contexts)


def canonical_key(instance: Instance) -> tuple:
    """A hashable key identifying the instance up to null renaming.

    The key pairs the *ground* facts verbatim (isomorphisms fix
    constants, so two isomorphic states have literally equal ground
    parts — a frozenset of interned atoms, no per-fact encoding cost)
    with a canonical form of the null-mentioning facts.  Nulls are
    colour-refined first; the null part is exact (minimum over the
    colour-preserving relabelings) while their count stays within
    ``CLASS_PERMUTATION_CAP``, and a deterministic colour-ordered
    first-occurrence relabeling beyond.  Either way the relabeling is a
    bijection, so equal keys always mean isomorphic states; the key
    depends only on the fact *set*, never on iteration order, so the
    production and reference DFS memoize identically.
    """
    null_facts = []
    ground = []
    for f in instance:
        if any(isinstance(t, Null) for t in f.args):
            null_facts.append(f)
        else:
            ground.append(f)
    return (frozenset(ground), _null_part(instance, null_facts))


def _memo_key(instance: Instance) -> tuple:
    """:func:`canonical_key`, minus ground-atom materialisation when the
    instance can supply cheaper parts.

    A :class:`ColumnarInstance` hands over its ground facts as cached
    frozensets of local-id row keys (``memo_parts``) — no ``Atom`` is
    built for the (dominant) ground part of a visited state, and sibling
    states share the per-store split through the store version cache.
    Row-key ground parts only compare within one fork family, which is
    exactly the memo's scope: every state of one exploration forks from
    the single converted root.  Other instance types fall back to the
    public :func:`canonical_key`.
    """
    if isinstance(instance, ColumnarInstance):
        ground_key, null_facts = instance.memo_parts()
        return (ground_key, _null_part(instance, null_facts))
    return canonical_key(instance)


def _null_part(instance: Instance, null_facts: list[Atom]) -> tuple:
    """Canonical form of a state's null-mentioning facts (the second
    component of :func:`canonical_key`); ``()`` when there are none."""
    if not null_facts:
        return ()
    nulls = sorted(instance.nulls(), key=lambda n: n.label)
    colours = _null_colours(instance)
    by_colour: dict[str, list[Null]] = {}
    for n in nulls:
        by_colour.setdefault(colours[n], []).append(n)
    ordered_classes = [by_colour[c] for c in sorted(by_colour)]

    total = 1
    for cls in ordered_classes:
        total *= factorial(len(cls))
        if total > CLASS_PERMUTATION_CAP:
            break
    if total <= CLASS_PERMUTATION_CAP:
        offsets = []
        base = 0
        for cls in ordered_classes:
            offsets.append(base)
            base += len(cls)
        best = None
        for perms in itertools.product(
            *(itertools.permutations(range(len(cls))) for cls in ordered_classes)
        ):
            relabel: dict[Null, int] = {}
            for cls, off, perm in zip(ordered_classes, offsets, perms):
                for n, j in zip(cls, perm):
                    relabel[n] = off + j
            key = tuple(sorted(_fact_key(f, relabel) for f in null_facts))
            if best is None or key < best:
                best = key
        assert best is not None
        return best

    # Fallback: order facts by colour-aware shape (ties broken by the
    # concrete fact key, keeping the sort content-determined), then label
    # nulls by colour rank and first occurrence within their class.
    offsets_by_colour: dict[str, int] = {}
    base = 0
    for c in sorted(by_colour):
        offsets_by_colour[c] = base
        base += len(by_colour[c])
    concrete = {n: n.label for n in nulls}
    shaped = sorted(
        null_facts,
        key=lambda f: (_fact_shape(f, colours), _fact_key(f, concrete)),
    )
    next_in_class: dict[str, int] = {}
    relabel = {}
    for f in shaped:
        for t in f.args:
            if isinstance(t, Null) and t not in relabel:
                c = colours[t]
                sub = next_in_class.get(c, 0)
                next_in_class[c] = sub + 1
                relabel[t] = offsets_by_colour[c] + sub
    return tuple(sorted(_fact_key(f, relabel) for f in null_facts))


def _fact_shape(fact: Atom, colours: dict[Null, str]) -> tuple:
    """A null-label-blind sort key: nulls appear as their colours."""
    parts: list = [fact.predicate]
    for t in fact.args:
        if isinstance(t, Null):
            parts.append(("η", colours[t]))
        else:
            parts.append(("c", str(t)))
    return tuple(parts)


def _fact_key(fact: Atom, relabel: dict) -> tuple:
    parts: list = [fact.predicate]
    for t in fact.args:
        if isinstance(t, Null):
            parts.append(("η", relabel[t]))
        else:
            parts.append(("c", str(t)))
    return tuple(parts)


def explore_chase(
    database: Instance,
    sigma: DependencySet,
    variant: str = "standard",
    max_depth: int = 20,
    max_states: int = 20_000,
    budget: Budget | None = None,
    reference: bool = False,
) -> ExplorationResult:
    """Explore every ``variant``-chase sequence of (database, sigma).

    ``budget`` (one step charged per visited state) adds wall-clock bounds
    and cancellation on top of the ``max_states`` cap; exhausting either
    counts as hitting the state budget for the verdict.

    By default each branch applies its step in place under an undo-log
    savepoint and rolls back after the recursion — O(step) per branch —
    and each state's candidate triggers are the parent's (still live,
    γ-rewritten) candidates plus a join of only the step's delta-log
    facts against the dependency bodies (the semi-naive protocol of
    DESIGN.md §1, sound along a DFS path because chase states evolve
    monotonically and dead triggers stay dead); only variant
    applicability is re-checked per state.  ``reference=True`` is the
    seed behaviour: a full instance copy per branch and every body
    homomorphism re-enumerated from scratch at every state.

    Both paths produce identical results; the differential suite asserts
    it.  The input database is never modified.
    """
    budget = budget if budget is not None else Budget()
    key_vars = {d: _key_variables(d, variant) for d in sigma} if variant != "standard" else {}
    memo: set[tuple] = set()
    stats = {"terminating": 0, "failing": 0, "capped": 0, "states": 0}
    budget_hit = [False]
    body_index = body_atom_index((d, d.body) for d in sigma)
    # Compile the per-dependency join plans once for the whole exploration
    # (a no-op under the naive reference backend).
    warm_plans((d.body for d in sigma), database)
    head_preds = {
        d: frozenset(a.predicate for a in d.head)
        for d in sigma
        if isinstance(d, TGD)
    }

    # Triggers recur across sibling states, so their canonical sort string
    # and (semi-)oblivious key — both pure functions of the trigger value —
    # are cached for the whole exploration.
    sort_strings: dict[Trigger, str] = {}
    trigger_keys: dict[Trigger, tuple] = {}

    def sort_string(trigger: Trigger) -> str:
        s = sort_strings.get(trigger)
        if s is None:
            s = sort_strings[trigger] = str(trigger)
        return s

    def trigger_key(trigger: Trigger) -> tuple:
        k = trigger_keys.get(trigger)
        if k is None:
            k = trigger_keys[trigger] = trigger.key(key_vars[trigger.dependency])
        return k

    def applicable(instance: Instance, trigger: Trigger, fired: frozenset) -> bool:
        """The variant-specific applicability of one candidate trigger."""
        dep = trigger.dependency
        h = trigger.mapping()
        if isinstance(dep, EGD) and h[dep.lhs] is h[dep.rhs]:
            return False
        if variant == "standard":
            if isinstance(dep, TGD):
                return not satisfies_tgd(instance, dep, h)
            return True
        return trigger_key(trigger) not in fired

    def initial_candidates(instance: Instance) -> list[tuple[Trigger, bool]]:
        """Full discovery over the root state: every body homomorphism.
        The flag marks a candidate as *clean* (see applicable_triggers);
        root candidates never are."""
        return [
            (Trigger.make(dep, h), False)
            for dep in sigma
            for h in find_homomorphisms(dep.body, instance, limit=None)
        ]

    def applicable_triggers(
        instance: Instance,
        fired: frozenset,
        candidates: list[tuple[Trigger, bool]],
        delta: list[Atom],
    ) -> list[Trigger]:
        """Dedupe candidates, filter by applicability, canonical order.

        A *clean* candidate was applicable at the parent state and was not
        rewritten by the step's γ, so under the standard chase its
        applicability can only have flipped if the step's delta provides a
        new head extension: an EGD's distinct images stay distinct, and a
        TGD stays violated unless some delta fact unifies with one of its
        head atoms under the trigger's seed (any new extension must send a
        head atom onto a delta fact).  Those re-checks — the bulk of
        per-state work on branchy programs — are skipped exactly.
        """
        delta_preds = frozenset(f.predicate for f in delta)
        seen: set[Trigger] = set()
        out = []
        for t, clean in candidates:
            if t in seen:
                continue
            seen.add(t)
            if clean and variant == "standard":
                dep = t.dependency
                if isinstance(dep, EGD) or not (head_preds[dep] & delta_preds):
                    out.append(t)
                    continue
                h = t.mapping()
                if not any(
                    a.predicate == f.predicate
                    and match_atom(a, f, h, frozen_nulls=True) is not None
                    for f in delta
                    for a in dep.head
                ):
                    out.append(t)
                    continue
                if not satisfies_tgd(instance, dep, h):
                    out.append(t)
                continue
            if applicable(instance, t, fired):
                out.append(t)
        out.sort(key=sort_string)
        return out

    def visit(
        instance: Instance,
        fired: frozenset,
        depth: int,
        candidates: list[tuple[Trigger, bool]],
        delta: list[Atom],
    ) -> None:
        if stats["states"] >= max_states or not budget.charge():
            budget_hit[0] = True
            return
        stats["states"] += 1
        if variant == "standard":
            key = _memo_key(instance)
            if key in memo:
                return
            memo.add(key)
        triggers = applicable_triggers(instance, fired, candidates, delta)
        if not triggers:
            stats["terminating"] += 1
            return
        if depth >= max_depth:
            stats["capped"] += 1
            return
        # Fresh-null numbering is a function of the *parent* state: every
        # sibling branch starts from the same nulls (the savepoint path
        # rolls a branch's nulls back before the next one begins), so the
        # domain scan is hoisted out of the branch loop.
        start = max((n.label for n in instance.nulls()), default=0) + 1
        for trigger in triggers:
            if budget_hit[0]:
                return
            if reference:
                sp = None
                child = instance.copy()
            else:
                sp = instance.savepoint()
                child = instance
            nulls = NullFactory(start=start)
            tick = child.tick
            outcome = apply_step(child, trigger, nulls)
            if outcome.failed:
                stats["failing"] += 1
                if sp is not None:
                    instance.rollback(sp)
                continue
            child_fired = fired
            if variant != "standard":
                new_key = trigger_key(trigger)
                if outcome.gamma is not None:
                    old, new = outcome.gamma.old, outcome.gamma.new
                    child_fired = frozenset(
                        (dep, tuple(new if t is old else t for t in images))
                        for dep, images in fired
                    )
                child_fired = child_fired | {new_key}
            if reference:
                child_candidates, child_delta = initial_candidates(child), []
            else:
                # Carry the parent's (still-live, γ-rewritten) applicable
                # triggers and join only the delta facts against the
                # bodies; inapplicable triggers are dead along the whole
                # path (DESIGN.md §1) and rewritten facts re-enter the
                # delta log, so this reconstructs exactly the full
                # enumeration's candidate set.
                carried: list[tuple[Trigger, bool]]
                if outcome.gamma is not None:
                    old, new = outcome.gamma.old, outcome.gamma.new
                    carried = [
                        (t.rewrite(old, new), False)
                        if any(img is old for _, img in t.assignment)
                        else (t, True)
                        for t in triggers
                    ]
                else:
                    carried = [(t, True) for t in triggers]
                live = [f for f in child.added_since(tick) if f in child]
                carried.extend(
                    (Trigger.make(dep, h), False)
                    for dep, h in delta_homomorphisms(body_index, child, live)
                )
                child_candidates, child_delta = carried, live
            visit(child, child_fired, depth + 1, child_candidates, child_delta)
            if sp is not None:
                instance.rollback(sp)

    # The savepoint path mutates its working instance in place, so it
    # forks the caller's database exactly once; the reference path forks
    # per branch and never touches the root.  Under the columnar backend
    # the conversion is itself a fork, and branch savepoints/copies then
    # stay columnar all the way down.
    root = working_instance(database, copy=not reference)
    visit(root, frozenset(), 0, initial_candidates(root), [])

    capped = stats["capped"]
    terminated = stats["terminating"] + stats["failing"]
    if budget_hit[0] and terminated == 0:
        verdict = ExplorationVerdict.EXHAUSTED
    elif capped == 0 and not budget_hit[0]:
        verdict = ExplorationVerdict.ALL_TERMINATING
    elif terminated > 0:
        verdict = ExplorationVerdict.SOME_TERMINATING
    else:
        verdict = ExplorationVerdict.NONE_FOUND
    return ExplorationResult(
        verdict=verdict,
        terminating_paths=stats["terminating"],
        failing_paths=stats["failing"],
        capped_paths=capped,
        explored_states=stats["states"],
    )
