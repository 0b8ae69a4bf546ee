"""The chase graph G(Σ) and the firing graph Gf(Σ) (paper Section 5).

* ``G(Σ)`` has an edge (r1, r2) iff ``r1 ≺ r2``  — used by stratification;
* ``Gf(Σ)`` has an edge (r1, r2) iff ``r1 < r2`` — used by
  semi-stratification (Definition 2); its edges are a subset of G(Σ)'s
  because the firing relation adds the full-dependency defusal condition
  for existentially quantified targets.

Figure 1 of the paper shows both graphs for Σ11; the Figure 1 bench and
tests pin those edge sets.

Both builders visit only the pairs :func:`~.witness.may_fire` admits,
found through a body-predicate index, so their work follows the number
of candidate pairs rather than |Σ|².
"""

from __future__ import annotations

from typing import Iterator

import networkx as nx

from ..model.dependencies import TGD, AnyDependency, DependencySet
from .relations import FiringOracle


def candidate_pairs(
    sigma: DependencySet,
) -> Iterator[tuple[AnyDependency, AnyDependency]]:
    """The pairs ``(r1, r2)`` of Σ that :func:`~.witness.may_fire` admits,
    in Σ × Σ order: a TGD r1 pairs with every r2 whose body shares a
    predicate with r1's head; an EGD r1 pairs with every r2."""
    deps = list(sigma)
    readers: dict[str, set[int]] = {}
    for j, d in enumerate(deps):
        for a in d.body:
            readers.setdefault(a.predicate, set()).add(j)
    for r1 in deps:
        if isinstance(r1, TGD):
            hit: set[int] = set()
            for a in r1.head:
                hit.update(readers.get(a.predicate, ()))
            for j in sorted(hit):
                yield r1, deps[j]
        else:
            for r2 in deps:
                yield r1, r2


def chase_graph(
    sigma: DependencySet, oracle: FiringOracle | None = None
) -> nx.DiGraph:
    """Build G(Σ)."""
    oracle = oracle or FiringOracle(sigma)
    g = nx.DiGraph()
    g.add_nodes_from(sigma)
    for r1, r2 in candidate_pairs(sigma):
        if oracle.precedes(r1, r2):
            g.add_edge(r1, r2)
    return g


def firing_graph(
    sigma: DependencySet, oracle: FiringOracle | None = None
) -> nx.DiGraph:
    """Build Gf(Σ)."""
    oracle = oracle or FiringOracle(sigma)
    fulls = tuple(d for d in sigma if d.is_full)
    g = nx.DiGraph()
    g.add_nodes_from(sigma)
    for r1, r2 in candidate_pairs(sigma):
        if oracle.fires(r1, r2, fulls=fulls):
            g.add_edge(r1, r2)
    return g


def oblivious_chase_graph(
    sigma: DependencySet,
    budget: int | None = None,
    oracle: FiringOracle | None = None,
) -> nx.DiGraph:
    """The chase graph computed with oblivious chase steps (used by
    c-stratification).  Pass (and keep) an ``oracle`` to observe whether
    any edge decision was inexact (``oracle.ever_inexact``)."""
    if oracle is None:
        kwargs = {"budget": budget} if budget is not None else {}
        oracle = FiringOracle(sigma, step_variant="oblivious", **kwargs)
    return chase_graph(sigma, oracle)


def edge_labels(graph: nx.DiGraph) -> set[tuple[str, str]]:
    """Edges as (label, label) pairs — convenient for tests and display."""
    return {
        (u.label or str(u), v.label or str(v)) for u, v in graph.edges()
    }


def render_graph(graph: nx.DiGraph, title: str) -> str:
    """A small ASCII rendering used by the Figure 1 bench."""
    lines = [title, "-" * len(title)]
    for node in sorted(graph.nodes(), key=lambda d: d.label or str(d)):
        name = node.label or str(node)
        succs = sorted(
            (s.label or str(s)) for s in graph.successors(node)
        )
        arrow = " -> " + ", ".join(succs) if succs else "   (no outgoing edges)"
        lines.append(f"  {name}{arrow}")
    return "\n".join(lines)


def to_dot(graph: nx.DiGraph, name: str = "G") -> str:
    """Render a chase/firing graph as Graphviz DOT."""
    lines = [f"digraph {name} {{", "  rankdir=LR;"]
    for node in sorted(graph.nodes(), key=lambda d: d.label or str(d)):
        label = node.label or str(node)
        shape = "ellipse" if node.is_existential else "box"
        lines.append(f'  "{label}" [shape={shape}];')
    for u, v in sorted(
        graph.edges(), key=lambda e: (e[0].label or "", e[1].label or "")
    ):
        lines.append(f'  "{u.label or u}" -> "{v.label or v}";')
    lines.append("}")
    return "\n".join(lines)
