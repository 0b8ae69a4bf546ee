"""Transactional vs copy-backed chase exploration micro-benchmark.

The branchiest Table 1 witness programs are explored over *grown*
databases (the witness pattern replicated over fresh constants, so every
state carries hundreds of facts while each chase step still only touches
a handful): exactly the regime the undo-log savepoint protocol targets,
where a branch should cost O(|Δ|) instead of the O(|I|) the seed paid
per branch — once for the ``Instance.copy()`` fork and once more for the
from-scratch trigger rediscovery.

The baseline is the seed behaviour, kept as the explorer's reference
switch: ``reference=True`` (a copy per branch, full trigger
rediscovery per state).  The bench re-checks the
differential invariant (identical :class:`ExplorationResult`) on every
workload and asserts the savepoint-backed explorer is ≥ 3× faster in
aggregate.  Timings go to ``benchmarks/results/explore.txt``.

Both arms are pinned to the uncompiled ``"naive"`` matching backend:
this bench measures the snapshot/discovery axis in isolation, and the
compiled-plan backends (measured by ``test_bench_matching.py``) speed up
the matching-dominated copy+full baseline disproportionately, which
would fold the matching axis into this floor (under ``"planned"`` the
aggregate drops to about 2.7x on a 2-core x86-64 host).
"""

from __future__ import annotations

import os
import time

from conftest import write_result

from repro.chase.explorer import explore_chase
from repro.data.witnesses import witness_cases
from repro.matching import using_backend
from repro.model import Atom, Instance
from repro.model.columnar import ColumnarInstance
from repro.model.terms import Constant, Null

SPEEDUP_FLOOR = 3.0

#: Fork microbench: COW forks must beat eager full-column copies by this
#: factor in aggregate over the branch loop (fork + one chase-step-sized
#: write per branch).
FORK_FLOOR = 3.0
FORK_BRANCHES = 200

#: Replication factor for the witness databases (fact count scales with it).
SCALE = int(os.environ.get("REPRO_EXPLORE_SCALE", "200"))
REPEATS = 3

#: The branchy corpus: (witness case, chase variant, depth, state cap).
#: mirror_pair gets a larger share of scale — its database is a single
#: fact, the others' are two to three.
WORKLOADS = [
    ("sigma_1", "standard", SCALE, 4, 200),
    ("sigma_11", "standard", SCALE, 4, 200),
    ("sigma_10", "standard", SCALE, 4, 200),
    ("mirror_pair", "oblivious", SCALE + SCALE // 4, 3, 200),
    ("mirror_pair", "semi_oblivious", SCALE + SCALE // 4, 3, 200),
]


def _grown(db: Instance, copies: int) -> Instance:
    """The database pattern replicated ``copies`` times over fresh
    constants: isomorphic chase structure per copy, |I| scaled up."""
    out = Instance()
    for k in range(copies):
        for f in db:
            out.add(
                Atom(f.predicate, tuple(Constant(f"{t.value}@{k}") for t in f.args))
            )
    return out


def _best_of(repeats, fn):
    best, value = None, None
    for _ in range(repeats):
        t0 = time.perf_counter()
        value = fn()
        dt = time.perf_counter() - t0
        if best is None or dt < best:
            best = dt
    return best, value


#: Both explore.txt sections, assembled in definition order so a full
#: module run commits one file with the explore arm and the fork arm.
_SECTIONS: dict[str, str] = {}


def _emit_sections() -> None:
    write_result(
        "explore",
        "\n\n".join(
            _SECTIONS[k] for k in ("explore", "fork") if k in _SECTIONS
        ),
    )


def test_bench_explore():
    cases = {c.name: c for c in witness_cases()}
    rows = []
    total_sp = total_cp = 0.0
    for name, variant, copies, depth, states in WORKLOADS:
        case = cases[name]
        db = _grown(case.database, copies)
        with using_backend("naive"):
            t_sp, r_sp = _best_of(
                REPEATS,
                lambda: explore_chase(
                    db, case.sigma, variant=variant,
                    max_depth=depth, max_states=states,
                ),
            )
            t_cp, r_cp = _best_of(
                REPEATS,
                lambda: explore_chase(
                    db, case.sigma, variant=variant,
                    max_depth=depth, max_states=states, reference=True,
                ),
            )
        assert r_sp == r_cp, f"differential violation on {name}/{variant}"
        total_sp += t_sp
        total_cp += t_cp
        speedup = t_cp / max(t_sp, 1e-9)
        rows.append(
            f"{name:<13} {variant:<15} {len(db):>6} {r_sp.explored_states:>7} "
            f"{t_sp * 1e3:>12.1f} {t_cp * 1e3:>10.1f} {speedup:>7.1f}x"
        )
    aggregate = total_cp / max(total_sp, 1e-9)
    header = (
        f"{'witness':<13} {'variant':<15} {'|I|':>6} {'states':>7} "
        f"{'savepoint ms':>12} {'copy ms':>10} {'speedup':>8}"
    )
    text = "\n".join(
        [
            "Explore micro-bench — savepoint+delta DFS vs the copy+full seed "
            f"baseline on grown Table 1 witness programs (scale {SCALE}), "
            f"best of {REPEATS}",
            "",
            header,
            "-" * len(header),
            *rows,
            "",
            f"floor: savepoint ≥ {SPEEDUP_FLOOR}x copy-backed baseline in "
            f"aggregate (measured {aggregate:.1f}x)",
        ]
    )
    _SECTIONS["explore"] = text
    _emit_sections()
    assert aggregate >= SPEEDUP_FLOOR, (
        f"savepoint-backed explorer only {aggregate:.2f}x faster than the "
        f"copy-backed baseline on the branchy witness corpus"
    )


def _branch_facts(name: str, k: int, null_base: int) -> list[Atom]:
    """The head facts one first-level chase step adds on copy ``k`` of a
    grown witness database (fresh nulls per branch, as the chase would)."""
    a = Constant(f"a@{k}")
    if name == "sigma_10":
        return [Atom("E", (a, Null(null_base), Null(null_base + 1)))]
    return [Atom("E", (a, Null(null_base)))]  # sigma_1 / sigma_11


def test_bench_fork():
    """COW forks vs the eager PR 9 full-column copy, branch by branch.

    Each arm replays the explorer's per-branch pattern over a grown
    Table 1 database: fork the parent, apply one chase step's worth of
    writes, drop the child.  The sigma programs' first-level steps write
    only the (initially empty) ``E`` store, so the COW arm never
    un-shares the |I|-sized ``N`` columns — fork cost is
    O(predicates + changes) — while the eager arm pays the O(|I|)
    column duplication on every branch.  (Single-predicate programs like
    mirror_pair see no win: the branch writes the only store, so the
    un-share equals the eager copy; the fork arm therefore measures the
    multi-predicate Table 1 programs where sharing can exist at all.)
    The fork-only columns time the bare ``copy()`` with no writes.
    """
    cases = {c.name: c for c in witness_cases()}
    rows = []
    total_cow = total_eager = 0.0
    for name, _variant, copies, _depth, _states in WORKLOADS:
        if name == "mirror_pair" or any(name == r[0] for r in rows):
            continue
        db = _grown(cases[name].database, copies)
        root = ColumnarInstance(db)

        def branches(eager: bool) -> int:
            null_base = 1
            total = 0
            for k in range(FORK_BRANCHES):
                child = root.copy(cow=False) if eager else root.copy()
                for f in _branch_facts(name, k % copies, null_base):
                    child.add(f)
                null_base += 2
                total += len(child)
            return total

        # Differential: both fork flavours yield identical children.
        c_cow, c_eager = root.copy(), root.copy(cow=False)
        for f in _branch_facts(name, 0, 999_983):
            c_cow.add(f)
            c_eager.add(f)
        assert c_cow == c_eager and len(root) == len(db)

        t_cow, n_cow = _best_of(REPEATS, lambda: branches(eager=False))
        t_eager, n_eager = _best_of(REPEATS, lambda: branches(eager=True))
        assert n_cow == n_eager
        f_cow, _ = _best_of(REPEATS, lambda: [root.copy() for _ in range(FORK_BRANCHES)])
        f_eager, _ = _best_of(
            REPEATS, lambda: [root.copy(cow=False) for _ in range(FORK_BRANCHES)]
        )
        total_cow += t_cow
        total_eager += t_eager
        rows.append(
            (
                name,
                f"{name:<13} {len(db):>6} {t_cow * 1e3:>8.2f} {t_eager * 1e3:>10.2f} "
                f"{t_eager / max(t_cow, 1e-9):>7.1f}x {f_cow * 1e6 / FORK_BRANCHES:>11.1f} "
                f"{f_eager * 1e6 / FORK_BRANCHES:>13.1f}",
            )
        )
    aggregate = total_eager / max(total_cow, 1e-9)
    header = (
        f"{'witness':<13} {'|I|':>6} {'cow ms':>8} {'eager ms':>10} "
        f"{'speedup':>8} {'fork cow µs':>11} {'fork eager µs':>13}"
    )
    text = "\n".join(
        [
            f"Fork micro-bench — {FORK_BRANCHES} branches of (fork + one "
            "chase-step write) per grown Table 1 program: copy-on-write "
            "forks vs the eager full-column copy (PR 9 behaviour, "
            f"``copy(cow=False)``), best of {REPEATS}; fork-only columns "
            "time the bare fork",
            "",
            header,
            "-" * len(header),
            *(r[1] for r in rows),
            "",
            f"floor: COW fork+step ≥ {FORK_FLOOR}x eager copy in aggregate "
            f"(measured {aggregate:.1f}x)",
        ]
    )
    _SECTIONS["fork"] = text
    _emit_sections()
    assert aggregate >= FORK_FLOOR, (
        f"COW forks only {aggregate:.2f}x faster than eager full-column "
        f"copies on the grown witness corpus"
    )
