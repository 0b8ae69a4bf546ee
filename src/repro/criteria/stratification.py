"""Stratification (Deutsch–Nash–Remmel) and c-stratification (Meier).

Stratification decomposes Σ along the chase graph G(Σ) (edges are the
``≺`` firing relation) and requires every **cycle** to be weakly acyclic:
Σ ∈ Str iff for every cycle ``C`` of G(Σ), the set of dependencies on
``C`` is WA.  As shown in [31] (and recalled in the paper's Section 3),
Str guarantees only that *some* standard chase sequence terminates
(CTstd∃), not all.

C-stratification uses the *oblivious* chase step in the firing relation,
which restores the CTstd∀ guarantee.

Cycle enumeration is exponential in the worst case; past
``MAX_SIMPLE_CYCLES`` we fall back to the SCC-level check (every SCC weakly
acyclic), which is a stronger condition — still a sound sufficient
criterion, flagged as approximate in the result.
"""

from __future__ import annotations

from itertools import islice
from typing import Callable

import networkx as nx

from ..firing.graphs import chase_graph, oblivious_chase_graph
from ..firing.relations import FiringOracle
from ..model.dependencies import DependencySet
from .base import Guarantee, TerminationCriterion, register
from .weak_acyclicity import is_weakly_acyclic

MAX_SIMPLE_CYCLES = 10_000


def cycles_hold(
    sigma: DependencySet,
    graph: nx.DiGraph,
    holds: Callable[[DependencySet], bool],
    cap: int,
) -> tuple[bool, bool]:
    """(``holds`` accepts the dependencies of every cycle, exact).

    The cycle check shared by Str/CStr (``holds`` = weak acyclicity) and
    SR/IR (``holds`` = safety).  Cycles are enumerated over integer node
    ids (Johnson's search compares nodes constantly, and ids compare far
    cheaper than dependencies), and ``holds`` runs once per distinct cycle
    node set.  Past ``cap`` cycles it falls back to checking every cyclic
    SCC instead — a stronger condition, so still sound, but inexact.
    """
    nodes = list(graph)
    ids = nx.convert_node_labels_to_integers(graph)
    cycles = list(islice(nx.simple_cycles(ids), cap + 1))
    if len(cycles) <= cap:
        checked: set[frozenset[int]] = set()
        for cycle in cycles:
            key = frozenset(cycle)
            if key in checked:
                continue
            checked.add(key)
            if not holds(sigma.restricted_to(nodes[i] for i in cycle)):
                return False, True
        return True, True
    for scc in nx.strongly_connected_components(graph):
        if len(scc) > 1 or graph.has_edge(next(iter(scc)), next(iter(scc))):
            if not holds(sigma.restricted_to(scc)):
                return False, False
    return True, False


def _cycles_weakly_acyclic(
    sigma: DependencySet, graph: nx.DiGraph
) -> tuple[bool, bool]:
    """(all cycles WA, exact).  Falls back to the SCC check past the cap."""
    return cycles_hold(sigma, graph, is_weakly_acyclic, MAX_SIMPLE_CYCLES)


def is_stratified(sigma: DependencySet) -> bool:
    """Str: every cycle of G(Σ) is weakly acyclic."""
    graph = chase_graph(sigma, FiringOracle(sigma))
    ok, _ = _cycles_weakly_acyclic(sigma, graph)
    return ok


def c_stratified_exact(sigma: DependencySet) -> tuple[bool, bool]:
    """(accepted, exact) for CStr — exact also covers the firing oracle,
    so an edge decided on a blown witness budget flags the verdict."""
    oracle = FiringOracle(sigma, step_variant="oblivious")
    graph = oblivious_chase_graph(sigma, oracle=oracle)
    ok, exact = _cycles_weakly_acyclic(sigma, graph)
    return ok, exact and not oracle.ever_inexact


def is_c_stratified(sigma: DependencySet) -> bool:
    """CStr: Str over the oblivious-step chase graph."""
    return c_stratified_exact(sigma)[0]


@register
class Stratification(TerminationCriterion):
    """Str: every cycle of the chase graph is weakly acyclic."""

    name = "Str"
    guarantee = Guarantee.CT_EXISTS

    def _accepts(self, sigma: DependencySet, ctx) -> tuple[bool, bool, dict]:
        graph, oracle_exact = ctx.chase_graph("standard")
        ok, exact = _cycles_weakly_acyclic(sigma, graph)
        exact = exact and oracle_exact
        return ok, exact, {"chase_graph_edges": graph.number_of_edges()}


@register
class CStratification(TerminationCriterion):
    """CStr: stratification over the oblivious-step chase graph."""

    name = "CStr"
    guarantee = Guarantee.CT_ALL

    def _accepts(self, sigma: DependencySet, ctx) -> tuple[bool, bool, dict]:
        graph, oracle_exact = ctx.chase_graph("oblivious")
        ok, exact = _cycles_weakly_acyclic(sigma, graph)
        exact = exact and oracle_exact
        return ok, exact, {"chase_graph_edges": graph.number_of_edges()}
