"""Chase sequence explorer tests (bounded exhaustive nondeterminism)."""

from repro.chase import ExplorationVerdict, canonical_key, explore_chase
from repro.model import Atom, Constant, Instance, Null, parse_dependencies, parse_facts

a, b = Constant("a"), Constant("b")


class TestCanonicalKey:
    def test_isomorphic_instances_same_key(self):
        i1 = Instance([Atom("E", (a, Null(1))), Atom("E", (Null(1), Null(2)))])
        i2 = Instance([Atom("E", (a, Null(7))), Atom("E", (Null(7), Null(5)))])
        assert canonical_key(i1) == canonical_key(i2)

    def test_non_isomorphic_distinct(self):
        i1 = Instance([Atom("E", (a, Null(1)))])
        i2 = Instance([Atom("E", (Null(1), a))])
        assert canonical_key(i1) != canonical_key(i2)

    def test_ground_instances(self):
        i1 = parse_facts('E("a","b")')
        i2 = parse_facts('E("a","b")')
        assert canonical_key(i1) == canonical_key(i2)

    def test_many_nulls_fallback(self):
        # Past the permutation cap the greedy relabeling still produces a
        # deterministic key.
        facts = [Atom("E", (Null(i), Null(i + 1))) for i in range(1, 10)]
        assert canonical_key(Instance(facts)) == canonical_key(Instance(facts))


class TestExploration:
    def test_sigma1_some_terminating(self):
        sigma = parse_dependencies(
            """
            r1: N(x) -> exists y. E(x, y)
            r2: E(x, y) -> N(y)
            r3: E(x, y) -> x = y
            """
        )
        db = parse_facts('N("a")')
        result = explore_chase(db, sigma, max_depth=8, max_states=5_000)
        assert result.verdict is ExplorationVerdict.SOME_TERMINATING
        assert result.terminating_paths >= 1
        assert result.capped_paths >= 1  # the r1/r2 alternation

    def test_all_terminating(self):
        sigma = parse_dependencies("r: A(x) -> B(x)")
        db = parse_facts('A("a")')
        result = explore_chase(db, sigma, max_depth=5)
        assert result.verdict is ExplorationVerdict.ALL_TERMINATING

    def test_none_found(self):
        # Σ10: no terminating standard sequence exists (Example 10).
        sigma = parse_dependencies(
            """
            r1: N(x) -> exists y, z. E(x, y, z)
            r2: E(x, y, y) -> N(y)
            r3: E(x, y, z) -> y = z
            """
        )
        db = parse_facts('N("a")')
        result = explore_chase(db, sigma, max_depth=9, max_states=8_000)
        assert result.verdict is ExplorationVerdict.NONE_FOUND
        assert result.terminating_paths == 0

    def test_failing_paths_count_as_terminating(self):
        sigma = parse_dependencies("r: E(x, y) -> x = y")
        db = parse_facts('E("a", "b")')
        result = explore_chase(db, sigma, max_depth=3)
        assert result.failing_paths == 1
        assert result.some_terminating

    def test_oblivious_exploration(self):
        # Σ6 under the oblivious chase has no terminating sequence.
        sigma = parse_dependencies("r: E(x, y) -> exists z. E(x, z)")
        db = parse_facts('E("a", "b")')
        result = explore_chase(
            db, sigma, variant="oblivious", max_depth=6, max_states=2_000
        )
        assert result.terminating_paths == 0

    def test_semi_oblivious_exploration(self):
        sigma = parse_dependencies("r: E(x, y) -> exists z. E(x, z)")
        db = parse_facts('E("a", "b")')
        result = explore_chase(
            db, sigma, variant="semi_oblivious", max_depth=6, max_states=2_000
        )
        assert result.verdict is ExplorationVerdict.ALL_TERMINATING


class TestCanonicalKeyColourRefinement:
    """The colour-refined canonical key (DESIGN.md §5 / ISSUE 4 satellite):
    isomorphic states beyond the old 6-null permutation cap must merge."""

    @staticmethod
    def _cycle(labels):
        """E-facts forming a directed cycle over ``Null(l)`` for l in labels."""
        return [
            Atom("E", (Null(labels[i]), Null(labels[(i + 1) % len(labels)])))
            for i in range(len(labels))
        ]

    @staticmethod
    def _legacy_greedy_key(facts_in_order):
        """The seed's >cap fallback: facts sorted by null-blind shape (a
        tie for every fact here — the explicit input order stands in for
        the set-iteration order the seed depended on), nulls relabeled by
        first occurrence."""
        relabel = {}
        for f in facts_in_order:
            for t in f.args:
                if isinstance(t, Null) and t not in relabel:
                    relabel[t] = len(relabel)
        key = []
        for f in facts_in_order:
            key.append(
                (f.predicate,)
                + tuple(
                    ("η", relabel[t]) if isinstance(t, Null) else ("c", str(t))
                    for t in f.args
                )
            )
        return tuple(sorted(key))

    def test_legacy_fallback_is_order_sensitive(self):
        # Eight nulls — past the old PERMUTATION_CAP — in a single cycle.
        # Walking the cycle vs interleaving opposite edges are two
        # set-iteration orders of the *same* instance, yet the legacy
        # first-occurrence relabeling keys them differently: the very
        # failure mode that made isomorphic states fail to merge.
        facts = self._cycle([1, 2, 3, 4, 5, 6, 7, 8])
        walk = facts
        interleaved = [facts[0], facts[4], facts[1], facts[5], facts[2], facts[6], facts[3], facts[7]]
        assert self._legacy_greedy_key(walk) != self._legacy_greedy_key(interleaved)

    def test_isomorphic_eight_null_states_merge(self):
        # The same 8-cycle under a scrambled null labelling: the legacy
        # relabeling (above) could key these apart; the colour-refined
        # canonical key must not.
        i1 = Instance(self._cycle([1, 2, 3, 4, 5, 6, 7, 8]))
        i2 = Instance(self._cycle([31, 17, 25, 12, 40, 23, 9, 38]))
        assert canonical_key(i1) == canonical_key(i2)

    def test_isomorphic_states_with_anchors_merge(self):
        # An asymmetric 9-null structure (anchored chain + spokes): colour
        # refinement separates every null, so the key is exact with a
        # single relabeling.
        def build(perm):
            n = [None] + [Null(p) for p in perm]
            facts = [Atom("S", (a, n[1]))]
            facts += [Atom("E", (n[i], n[i + 1])) for i in range(1, 9)]
            facts += [Atom("M", (n[3],)), Atom("M", (n[7],))]
            return Instance(facts)

        i1 = build(range(1, 10))
        i2 = build([14, 3, 77, 20, 5, 61, 8, 42, 19])
        assert canonical_key(i1) == canonical_key(i2)

    def test_wl_hard_pair_stays_distinct(self):
        # C8 vs C4 ⊎ C4: colour refinement alone cannot tell these apart
        # (the classic 1-WL-hard pair) — soundness must come from the key
        # being the *whole* relabeled fact set, not the colours.
        c8 = Instance(self._cycle([1, 2, 3, 4, 5, 6, 7, 8]))
        c44 = Instance(self._cycle([1, 2, 3, 4]) + self._cycle([5, 6, 7, 8]))
        assert canonical_key(c8) != canonical_key(c44)


class TestSnapshotBackendDifferential:
    """Savepoint + delta DFS vs the reference copy + full DFS:
    byte-identical results."""

    def _assert_identical(self, db, sigma, variant, **kw):
        before = db.facts()
        r_sp = explore_chase(db, sigma, variant=variant, **kw)
        r_ref = explore_chase(db, sigma, variant=variant, reference=True, **kw)
        assert r_sp == r_ref
        assert db.facts() == before  # neither path mutates the input
        return r_sp

    def test_differential_on_witness_cases(self):
        from repro.data.witnesses import witness_cases

        for case in witness_cases():
            for variant in ("standard", "oblivious", "semi_oblivious"):
                self._assert_identical(
                    case.database, case.sigma, variant,
                    max_depth=6, max_states=400,
                )

    def test_differential_on_random_programs(self):
        from repro.generators.random_deps import random_dependency_set
        from repro.generators.databases import seed_database

        for seed in range(12):
            sigma = random_dependency_set(seed)
            db = seed_database(sigma)
            for variant in ("standard", "oblivious", "semi_oblivious"):
                self._assert_identical(
                    db, sigma, variant, max_depth=4, max_states=250,
                )

    def test_unknown_backend_rejected(self):
        import pytest

        from repro.matching import using_backend

        # The explorer's matcher is the ambient one; the retired
        # "indexed" engine fails like any unknown name.
        sigma = parse_dependencies("r: A(x) -> B(x)")
        for name in ("indexed", "fork"):
            with pytest.raises(ValueError):
                with using_backend(name):
                    explore_chase(parse_facts('A("a")'), sigma)
