"""Self-tests of the benchmark itself (not of the analyser).

Run from the repository root::

    python3 e2ebench/selftest.py

They check that a seed pins the inputs and the verdicts, that a traced run
restores every function it patched and gives untraced verdicts, that
generator calls are timed over their consumption, that host scaling
undoes a change of host speed, and that the known-answer check flags
wrong answers.
"""

from __future__ import annotations

import os
import shutil
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import layers  # noqa: E402
import oracle  # noqa: E402
import worker  # noqa: E402
from tracer import Tracer  # noqa: E402

#: Programs per workload the in-process checks run (a full pass is the
#: benchmark's job; these only need every layer and character touched).
SLICE = 12


def draw(workload, seed: int) -> list:
    return worker.make_pass(seed, workload.draw, 0)


def verdicts(workload, programs: list) -> list:
    out = []
    for ont in programs:
        summary, error, _ = workload.outcome(ont, workload.run(ont))
        out.append((ont.name, summary, error))
    return out


class WorkloadCase(unittest.TestCase):
    def setUp(self) -> None:
        self.tmp = tempfile.mkdtemp(prefix="selftest-")
        self.addCleanup(shutil.rmtree, self.tmp, True)

    def make(self, cls):
        workload = cls(self.tmp)
        workload.new_pass(0)
        return workload


class SeedTests(WorkloadCase):
    def test_same_seed_same_programs_and_verdicts(self) -> None:
        from repro.batch import canonical_fingerprint

        first = draw(worker.Classify, worker.DEFAULT_SEED)
        second = draw(worker.Classify, worker.DEFAULT_SEED)
        self.assertEqual(
            [canonical_fingerprint(o.sigma) for o in first],
            [canonical_fingerprint(o.sigma) for o in second],
        )
        self.assertEqual(
            verdicts(self.make(worker.Classify), first[:SLICE]),
            verdicts(self.make(worker.Classify), second[:SLICE]),
        )

    def test_other_seed_other_draw(self) -> None:
        from repro.batch import canonical_fingerprint

        for cls in worker.WORKLOADS.values():
            a = [canonical_fingerprint(o.sigma) for o in draw(cls, worker.DEFAULT_SEED)]
            b = [canonical_fingerprint(o.sigma) for o in draw(cls, worker.DEFAULT_SEED + 1)]
            self.assertNotEqual(a, b)
            self.assertGreaterEqual(len(a), 100)

    def test_passes_fill_the_fixed_mix_from_fresh_draws(self) -> None:
        import collections

        need = worker.quotas(worker.Classify.draw["tests_scale"])
        first = worker.make_pass(worker.DEFAULT_SEED, worker.Classify.draw, 0)
        second = worker.make_pass(worker.DEFAULT_SEED, worker.Classify.draw, 1)
        for programs in (first, second):
            mix = collections.Counter((o.class_name, o.character) for o in programs)
            self.assertEqual(mix, collections.Counter(need))
        self.assertGreaterEqual(len(first), 100)
        self.assertFalse({o.seed for o in first} & {o.seed for o in second})


class HostScalingTests(unittest.TestCase):
    def test_times_scale_with_the_nearby_reference_loops(self) -> None:
        ref_s = worker.REFERENCE_MS / 1e3
        times = [10.0] * 30
        self.assertEqual(worker.host_scaled(times, [ref_s] * 30), times)
        # The host at half speed for the last third, with one stray slow
        # loop before it: the slow programs scale back, the stray is outvoted.
        refs = [ref_s] * 20 + [2 * ref_s] * 10
        refs[5] = 3 * ref_s
        scaled = worker.host_scaled(times[:20] + [20.0] * 10, refs)
        for value in scaled:
            self.assertAlmostEqual(value, 10.0)


class TraceTests(WorkloadCase):
    def test_traced_run_restores_patches_and_keeps_verdicts(self) -> None:
        import repro
        import repro.analysis.evaluation
        import repro.batch.engine
        import repro.criteria.stratification
        import repro.firing.witness

        layers.import_all()
        workloads = [self.make(cls) for cls in worker.WORKLOADS.values()]
        slices = [draw(type(w), worker.DEFAULT_SEED)[:3] for w in workloads]
        plain = [verdicts(w, s) for w, s in zip(workloads, slices)]
        before = layers.snapshot_bindings()
        originals = (repro.classify, repro.batch.engine.adn_exists,
                     repro.analysis.evaluation.adn_exists, repro.firing.witness.warm_plans,
                     repro.firing.witness.chase_instance, repro.criteria.stratification.nx)
        tracer = Tracer()
        patches = layers.install(tracer)
        try:
            patched = (repro.classify, repro.batch.engine.adn_exists,
                       repro.analysis.evaluation.adn_exists, repro.firing.witness.warm_plans,
                       repro.firing.witness.chase_instance, repro.criteria.stratification.nx)
            for old, new in zip(originals, patched):
                self.assertIsNot(old, new)
            for w in workloads:
                w.new_pass(1)
            traced = [verdicts(w, s) for w, s in zip(workloads, slices)]
        finally:
            patches.restore()
        self.assertEqual(before, layers.snapshot_bindings())
        self.assertEqual(plain, traced)
        metrics = layers.per_layer_metrics(tracer, {})
        for name in ("analysis.classify.ms", "criteria.LS.ms", "firing.engines",
                     "core.adn.calls", "chase.runs", "matching.homomorphisms.calls",
                     "model.savepoints", "model.renames", "batch.fingerprint.ms",
                     "batch.cache_put.ms"):
            self.assertGreater(metrics[name][0], 0, name)

    def test_generator_timed_over_consumption(self) -> None:
        now = [0.0]
        tracer = Tracer(clock=lambda: now[0])

        def produce():
            for i in range(3):
                now[0] += 1.0  # the producer's own work
                yield i

        timed = tracer.wrap(produce, "gen", "matching", generator=True)
        outer = tracer.wrap(lambda: [now.__setitem__(0, now[0] + 10.0) or x for x in timed()],
                            "consumer", "bench")
        self.assertEqual(outer(), [0, 1, 2])
        by_name = tracer.by_name()
        self.assertEqual(by_name["gen"]["ms"], 3000.0)
        self.assertEqual(by_name["gen"]["calls"], 1)
        self.assertEqual(by_name["consumer"]["self_ms"], 30000.0)
        self.assertEqual(tracer.by_layer()["bench"]["total_ms"], 33000.0)


class KnownAnswerTests(WorkloadCase):
    def test_wrong_verdicts_are_flagged(self) -> None:
        self.assertIsNotNone(oracle.verdict_error("unguarded", False, True))
        self.assertIsNotNone(oracle.verdict_error("functional_guard", False, True))
        self.assertIsNotNone(oracle.verdict_error("egd_rescued", True, True))
        self.assertIsNone(oracle.verdict_error("egd_rescued", False, True))
        self.assertIsNone(oracle.verdict_error("acyclic", True, True))
        self.assertTrue(oracle.known_corner("functional_guard", ["SAC"]))
        self.assertFalse(oracle.known_corner("functional_guard", ["LS", "SAC"]))
        self.assertFalse(oracle.known_corner("unguarded", ["SAC"]))

    def test_classify_outcome_flags_a_forged_report(self) -> None:
        from repro.analysis.classify import ClassificationReport
        from repro.criteria.base import CriterionResult, Guarantee

        workload = self.make(worker.Classify)
        ont = next(o for o in draw(worker.Classify, worker.DEFAULT_SEED)
                   if o.character == "unguarded")
        report = ClassificationReport(ont.sigma)
        report.results["WA"] = CriterionResult("WA", True, Guarantee.CT_ALL)
        _, error, corner = workload.outcome(ont, report)
        self.assertIsNotNone(error)
        self.assertFalse(corner)

    def test_chase_check_flags_a_non_model_and_an_unbounded_acyclic_run(self) -> None:
        import repro
        from repro.generators.databases import seed_database

        ont = next(o for o in draw(worker.Chase, worker.DEFAULT_SEED)
                   if o.character == "acyclic")
        db = list(seed_database(ont.sigma))
        result = repro.run_chase(seed_database(ont.sigma), ont.sigma, max_steps=1000)
        self.assertTrue(result.successful)
        facts = list(result.instance)
        self.assertIsNone(oracle.chase_error("acyclic", [("success", facts)], db, ont.sigma))
        derived = [f for f in facts if f not in set(db)]
        self.assertTrue(derived)
        # A single derived fact may have a stand-in among the others, so the
        # non-model drops all of them: a standard chase derived them only
        # because the database alone violates Σ.
        for broken in ([f for f in facts if f != db[0]], [f for f in facts if f in set(db)]):
            self.assertIsNotNone(
                oracle.chase_error("acyclic", [("success", broken)], db, ont.sigma))
        self.assertIsNotNone(oracle.chase_error("acyclic", [("exceeded", None)], db, ont.sigma))
        self.assertIsNone(oracle.chase_error("unguarded", [("exceeded", None)], db, ont.sigma))


if __name__ == "__main__":
    unittest.main()
