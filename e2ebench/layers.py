"""Which calls into ``repro`` the traced run wraps, and the per-layer
metrics it derives from them.

Each :data:`SPECS` row names a public function (``module:function``) or
method (``module:Class.method``), the span name and the layer it is
charged to.  The layers follow ROADMAP's stack, top to bottom: batch and
store, analysis, criteria, firing (witness engine), core (adornment),
chase, matching, model.  ``bench`` is the benchmark's own per-program
span; its self time is the time no wrapper covers (``unattributed``).
"""

from __future__ import annotations

import importlib
import pkgutil
import sys
from typing import Any

from tracer import Patches, Tracer, bindings_of, loaded_modules

CRITERIA = (
    "WA", "SC", "SwA", "AC", "LS", "MSA", "MFA", "CStr", "SR", "IR", "Str", "S-Str", "SAC",
)
LAYERS = (
    "batch", "store", "analysis", "criteria", "firing", "core", "chase", "matching", "model",
)
#: Modules whose ``nx.simple_cycles`` calls are timed as cycle enumeration.
CYCLE_ENUM_MODULES = ("repro.criteria.stratification", "repro.criteria.restriction")


def _observe_classify(tracer: Tracer, args: tuple, report: Any) -> None:
    ctx = report.details.get("context")
    if ctx is not None:
        for kind in ("artifacts", "decisions"):
            tracer.count(f"{kind}.hits", ctx[kind]["hits"])
            tracer.count(f"{kind}.lookups", ctx[kind]["hits"] + ctx[kind]["misses"])
    for name, result in report.results.items():
        tracer.count(f"criteria.{name}.ms", result.elapsed_ms)
        if result.exhausted is not None and not result.skipped:
            tracer.count("criteria.exhausted")


def _observe_decision(tracer: Tracer, args: tuple, decision: Any) -> None:
    from repro.model.dependencies import TGD

    if decision.edge:
        tracer.count("firing.edges")
    engine = args[0]
    if isinstance(engine.r1, TGD):
        heads = {a.predicate for a in engine.r1.head}
        if not heads & {a.predicate for a in engine.r2.body}:
            # No head atom of r1 can feed r2's body: the engine was built
            # for a pair the predicate prefilter rejects outright.
            tracer.count("firing.prefilter_rejected")


def _observe_adn(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.count("core.sigma_size", len(args[0]))
    tracer.count("core.adorned_size", len(result.adorned))


def _observe_chase(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.count("chase.steps", result.step_count)


def _criterion_span(args: tuple) -> str:
    return f"criteria.{args[0].name}"


#: (target, span name, layer, observer, is a generator)
SPECS: list[tuple[str, Any, str, Any, bool]] = [
    ("repro.batch.engine:evaluate_corpus", "batch.evaluate_corpus", "batch", None, False),
    ("repro.batch.fingerprint:canonical_fingerprint", "batch.fingerprint", "batch", None, False),
    ("repro.batch.cache:ResultCache.put_many", "store.put_many", "store", None, False),
    ("repro.analysis.classify:classify", "analysis.classify", "analysis", _observe_classify, False),
    ("repro.criteria.base:TerminationCriterion.check", _criterion_span, "criteria", None, False),
    ("repro.firing.witness:WitnessEngine.__init__", "firing.engine_init", "firing", None, False),
    ("repro.firing.witness:WitnessEngine.precedes", "firing.decide", "firing", _observe_decision, False),
    ("repro.firing.witness:WitnessEngine.fires", "firing.decide", "firing", _observe_decision, False),
    ("repro.core.adornment:adn_exists", "core.adn", "core", _observe_adn, False),
    ("repro.core.adornment:ac_rewriting", "core.adn", "core", _observe_adn, False),
    ("repro.chase.runner:run_chase", "chase.run", "chase", _observe_chase, False),
    ("repro.matching:homomorphisms", "matching.homomorphisms", "matching", None, True),
    ("repro.matching:warm_plans", "matching.warm_plans", "matching", None, False),
    ("repro.matching:chase_instance", "model.chase_instance", "model", None, False),
    ("repro.model.columnar:ColumnarInstance.__init__", "model.instance", "model", None, False),
    ("repro.model.columnar:ColumnarInstance.savepoint", "model.savepoint", "model", None, False),
    ("repro.model.instances:Instance.savepoint", "model.savepoint", "model", None, False),
    ("repro.model.columnar:ColumnarInstance.rollback", "model.rollback", "model", None, False),
    ("repro.model.instances:Instance.rollback", "model.rollback", "model", None, False),
    ("repro.model.columnar:ColumnarInstance.copy", "model.fork", "model", None, False),
    ("repro.model.instances:Instance.copy", "model.fork", "model", None, False),
    ("repro.model.dependencies:TGD.rename_variables", "model.rename", "model", None, False),
    ("repro.model.dependencies:EGD.rename_variables", "model.rename", "model", None, False),
]


def import_all() -> None:
    """Import every ``repro`` module up front, so no module imported later
    binds a wrapper by name and keeps it after :meth:`Patches.restore`."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)


class _CycleEnumView:
    """Stands in for ``networkx`` inside one criteria module: everything
    is the real module except a timed ``simple_cycles``."""

    def __init__(self, nx: Any, simple_cycles: Any) -> None:
        self._nx = nx
        self.simple_cycles = simple_cycles

    def __getattr__(self, name: str) -> Any:
        return getattr(self._nx, name)


def install(tracer: Tracer) -> Patches:
    """Wrap every :data:`SPECS` target at each of its bindings."""
    import_all()
    patches = Patches()
    try:
        modules = loaded_modules("repro")
        for target, name, layer, observe, generator in SPECS:
            module_name, _, qualname = target.partition(":")
            module = sys.modules[module_name]
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                owner = getattr(module, cls_name)
                wrapper = tracer.wrap(owner.__dict__[attr], name, layer, observe, generator)
                patches.set(owner, attr, wrapper)
                continue
            fn = getattr(module, qualname)
            wrapper = tracer.wrap(fn, name, layer, observe, generator)
            for mod, attr in bindings_of(fn, modules):
                patches.set(mod, attr, wrapper)
        for module_name in CYCLE_ENUM_MODULES:
            module = sys.modules[module_name]
            nx = module.nx
            timed = tracer.wrap(nx.simple_cycles, "criteria.cycle_enum", "criteria", None, True)
            patches.set(module, "nx", _CycleEnumView(nx, timed))
    except BaseException:
        patches.restore()
        raise
    return patches


def snapshot_bindings() -> dict[tuple[str, str], int]:
    """id() of every attribute of every loaded repro module and of every
    class :data:`SPECS` patches — equal before and after a traced run iff
    every patch was undone."""
    out: dict[tuple[str, str], int] = {}
    for mod in loaded_modules("repro"):
        for attr, value in list(vars(mod).items()):
            out[(mod.__name__, attr)] = id(value)
    for target, *_ in SPECS:
        module_name, _, qualname = target.partition(":")
        if "." in qualname:
            cls = getattr(sys.modules[module_name], qualname.split(".")[0])
            for attr, value in vars(cls).items():
                out[(f"{module_name}:{cls.__name__}", attr)] = id(value)
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(tracer: Tracer, extra: dict[str, float]) -> dict[str, tuple[float, str]]:
    """name → (value, unit) for every per-layer metric of BENCHMARK.json.

    Counts and times are totals over the traced pass.  A layer the
    workload never reaches reports 0.
    """
    names = tracer.by_name()
    c = tracer.counters

    def calls(name: str) -> float:
        return names.get(name, {}).get("calls", 0)

    def ms(name: str) -> float:
        return names.get(name, {}).get("ms", 0.0)

    engines = calls("firing.engine_init")
    out: dict[str, tuple[float, str]] = {
        "analysis.classify.ms": (ms("analysis.classify"), "ms"),
        "analysis.context.artifact_hit_rate": (
            _ratio(c.get("artifacts.hits", 0), c.get("artifacts.lookups", 0)), "ratio"),
        "analysis.context.decision_hit_rate": (
            _ratio(c.get("decisions.hits", 0), c.get("decisions.lookups", 0)), "ratio"),
    }
    for crit in CRITERIA:
        out[f"criteria.{crit}.ms"] = (c.get(f"criteria.{crit}.ms", 0.0), "ms")
    out.update({
        "criteria.exhausted": (c.get("criteria.exhausted", 0), "count"),
        "criteria.cycle_enum.ms": (ms("criteria.cycle_enum"), "ms"),
        "firing.engines": (engines, "count"),
        "firing.engine_init.ms": (ms("firing.engine_init"), "ms"),
        "firing.decisions": (calls("firing.decide"), "count"),
        "firing.decide.ms": (ms("firing.decide"), "ms"),
        "firing.edge_yield": (_ratio(c.get("firing.edges", 0), engines), "ratio"),
        "firing.prefilter_rejected_share": (
            _ratio(c.get("firing.prefilter_rejected", 0), calls("firing.decide")), "ratio"),
        "core.adn.calls": (calls("core.adn"), "count"),
        "core.adn.ms": (ms("core.adn"), "ms"),
        "core.adorned_ratio": (
            _ratio(c.get("core.adorned_size", 0), c.get("core.sigma_size", 0)), "ratio"),
        "chase.runs": (calls("chase.run"), "count"),
        "chase.steps": (c.get("chase.steps", 0), "count"),
        "chase.ms": (ms("chase.run"), "ms"),
        "chase.steps_per_s": (_ratio(c.get("chase.steps", 0), ms("chase.run") / 1e3), "1/s"),
        "matching.homomorphisms.calls": (calls("matching.homomorphisms"), "count"),
        "matching.homomorphisms.ms": (ms("matching.homomorphisms"), "ms"),
        "matching.warm_plans.ms": (ms("matching.warm_plans"), "ms"),
        "model.instances": (calls("model.instance"), "count"),
        "model.savepoints": (calls("model.savepoint"), "count"),
        "model.rollbacks": (calls("model.rollback"), "count"),
        "model.forks": (calls("model.fork"), "count"),
        "model.renames": (calls("model.rename"), "count"),
        "batch.fingerprint.ms": (ms("batch.fingerprint"), "ms"),
        "batch.cache_put.ms": (ms("store.put_many"), "ms"),
        "store.bytes_per_record": (extra.get("store.bytes_per_record", 0.0), "B"),
    })
    layers = tracer.by_layer()
    for layer in LAYERS:
        got = layers.get(layer, {"total_ms": 0.0, "self_ms": 0.0})
        out[f"layer.{layer}.total_ms"] = (got["total_ms"], "ms")
        out[f"layer.{layer}.self_ms"] = (got["self_ms"], "ms")
    out["trace.unattributed_ms"] = (layers.get("bench", {}).get("self_ms", 0.0), "ms")
    out["trace.spans"] = (tracer.span_count, "count")
    return out
