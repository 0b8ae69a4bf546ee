"""The firing-relation layer does work proportional to its output.

DESIGN.md §12 describes the three pruning steps these tests pin:

* the graph builders visit only predicate-compatible pairs, build exactly
  one witness engine per such pair and never cache a rejected one;
* the indexed graphs equal an all-pairs loop over the engine decisions,
  edge for edge and in the same adjacency order;
* a TGD r1's witness always instantiates some body atom of r2 in
  ``J \\ K`` (the newness lemma the candidate prune rests on);
* the cycle check over integer node ids returns what enumerating cycles
  of the dependency-node graph returns, cap fallback included.
"""

from __future__ import annotations

import random
from collections import Counter
from itertools import islice

import networkx as nx
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.criteria.stratification import MAX_SIMPLE_CYCLES, _cycles_weakly_acyclic
from repro.criteria.weak_acyclicity import is_weakly_acyclic
from repro.data import all_paper_sets
from repro.firing import (
    DecisionCache,
    FiringOracle,
    WitnessEngine,
    chase_graph,
    decide_fires,
    decide_precedes,
    firing_graph,
    oblivious_chase_graph,
)
from repro.generators import random_dependency_set
from repro.model.dependencies import TGD

SETTINGS = settings(
    max_examples=15,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)

seeds = st.integers(min_value=0, max_value=10_000)

PAPER_SETS = sorted(all_paper_sets().items())


def _compatible(r1, r2) -> bool:
    """A TGD feeds r2 only through a shared head/body predicate; an EGD
    merge may create any body atom."""
    if isinstance(r1, TGD):
        return bool(
            {a.predicate for a in r1.head} & {a.predicate for a in r2.body}
        )
    return True


def _build(kind, sigma, cache):
    if kind == "chase":
        return chase_graph(sigma, FiringOracle(sigma, decisions=cache))
    if kind == "firing":
        return firing_graph(sigma, FiringOracle(sigma, decisions=cache))
    oracle = FiringOracle(sigma, step_variant="oblivious", decisions=cache)
    return oblivious_chase_graph(sigma, oracle=oracle)


@pytest.fixture
def engine_log(monkeypatch):
    """Every ``(r1, r2)`` a witness engine is constructed for."""
    log: list[tuple] = []
    init = WitnessEngine.__init__

    def recording_init(self, r1, r2, *args, **kwargs):
        log.append((r1, r2))
        init(self, r1, r2, *args, **kwargs)

    monkeypatch.setattr(WitnessEngine, "__init__", recording_init)
    return log


class TestCandidatePairs:
    @pytest.mark.parametrize("kind", ["chase", "firing", "oblivious"])
    @pytest.mark.parametrize("name,sigma", PAPER_SETS, ids=[n for n, _ in PAPER_SETS])
    def test_one_engine_per_compatible_pair(self, engine_log, kind, name, sigma):
        cache = DecisionCache()
        _build(kind, sigma, cache)
        expected = Counter(
            (r1, r2) for r1 in sigma for r2 in sigma if _compatible(r1, r2)
        )
        assert Counter(engine_log) == expected
        for key in cache.snapshot():
            assert _compatible(key[1], key[2]), key

    def test_rejected_pairs_answer_false_without_an_engine(self, engine_log):
        sigma = all_paper_sets()["sigma_11"]
        cache = DecisionCache()
        oracle = FiringOracle(sigma, decisions=cache)
        rejected = [
            (r1, r2) for r1 in sigma for r2 in sigma if not _compatible(r1, r2)
        ]
        assert rejected
        for r1, r2 in rejected:
            assert not oracle.precedes(r1, r2)
            assert not oracle.fires(r1, r2)
        assert engine_log == []
        assert len(cache) == 0


class TestIndexedGraphsMatchAllPairs:
    @SETTINGS
    @given(seeds)
    def test_chase_graph(self, seed):
        sigma = random_dependency_set(seed, n_deps=3, egd_fraction=0.3)
        expected = [
            (r1, r2)
            for r1 in sigma
            for r2 in sigma
            if decide_precedes(r1, r2).edge
        ]
        assert list(chase_graph(sigma).edges()) == expected

    @SETTINGS
    @given(seeds)
    def test_firing_graph(self, seed):
        sigma = random_dependency_set(seed, n_deps=3, egd_fraction=0.3)
        fulls = sigma.full
        expected = [
            (r1, r2)
            for r1 in sigma
            for r2 in sigma
            if decide_fires(r1, r2, fulls).edge
        ]
        assert list(firing_graph(sigma).edges()) == expected


def _assert_new_body_atom(r1, r2, fulls=None):
    engine = WitnessEngine(r1, r2, fulls or ())
    decision = engine.precedes() if fulls is None else engine.fires()
    witness = decision.witness
    if witness is None:
        return False
    body = [a.apply(witness.h2) for a in engine.r2.body]
    assert any(a in witness.J and a not in witness.K for a in body), (
        r1, r2, witness,
    )
    return True


class TestNewnessLemma:
    @pytest.mark.parametrize("name,sigma", PAPER_SETS, ids=[n for n, _ in PAPER_SETS])
    def test_paper_witnesses(self, name, sigma):
        for r1 in sigma.tgds:
            for r2 in sigma:
                _assert_new_body_atom(r1, r2)
                _assert_new_body_atom(r1, r2, sigma.full)

    def test_some_witness_is_checked(self):
        sigma = all_paper_sets()["sigma_11"]
        assert any(_assert_new_body_atom(r1, r2) for r1 in sigma.tgds for r2 in sigma)

    @SETTINGS
    @given(seeds)
    def test_random_witnesses(self, seed):
        sigma = random_dependency_set(seed, n_deps=3, egd_fraction=0.3)
        for r1 in sigma.tgds:
            for r2 in sigma:
                _assert_new_body_atom(r1, r2)
                _assert_new_body_atom(r1, r2, sigma.full)


def _reference_cycles_weakly_acyclic(sigma, graph):
    """Cycles enumerated on the dependency-node graph itself."""
    cycles = list(islice(nx.simple_cycles(graph), MAX_SIMPLE_CYCLES + 1))
    if len(cycles) <= MAX_SIMPLE_CYCLES:
        for cycle in cycles:
            if not is_weakly_acyclic(sigma.restricted_to(cycle)):
                return False, True
        return True, True
    for scc in nx.strongly_connected_components(graph):
        if len(scc) > 1 or graph.has_edge(next(iter(scc)), next(iter(scc))):
            if not is_weakly_acyclic(sigma.restricted_to(scc)):
                return False, False
    return True, False


def _dependency_graph(sigma, edges) -> nx.DiGraph:
    deps = list(sigma)
    graph = nx.DiGraph()
    graph.add_nodes_from(deps)
    graph.add_edges_from((deps[u], deps[v]) for u, v in edges)
    return graph


class TestCycleCheck:
    @pytest.mark.parametrize("seed", range(40))
    def test_random_digraphs(self, seed):
        sigma = random_dependency_set(
            seed, n_deps=6, n_predicates=4, egd_fraction=0.2
        )
        rng = random.Random(seed)
        n = len(sigma)
        p = rng.choice([0.15, 0.3, 0.5])
        edges = [
            (u, v) for u in range(n) for v in range(n) if rng.random() < p
        ]
        graph = _dependency_graph(sigma, edges)
        assert _cycles_weakly_acyclic(sigma, graph) == (
            _reference_cycles_weakly_acyclic(sigma, graph)
        )

    def test_verdicts_cover_both_outcomes(self):
        outcomes = set()
        for seed in range(40):
            sigma = random_dependency_set(
                seed, n_deps=6, n_predicates=4, egd_fraction=0.2
            )
            n = len(sigma)
            graph = _dependency_graph(
                sigma, [(u, v) for u in range(n) for v in range(n)]
            )
            outcomes.add(_cycles_weakly_acyclic(sigma, graph))
        assert {(True, True), (False, True)} <= outcomes

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_complete_digraph_past_the_cap(self, seed):
        sigma = random_dependency_set(
            seed, n_deps=8, n_predicates=6, egd_fraction=0.2
        )
        assert len(sigma) == 8
        complete = nx.complete_graph(8, create_using=nx.DiGraph)
        graph = _dependency_graph(sigma, complete.edges())
        result = _cycles_weakly_acyclic(sigma, graph)
        assert result == _reference_cycles_weakly_acyclic(sigma, graph)
        assert result[1] is False  # more than MAX_SIMPLE_CYCLES cycles
