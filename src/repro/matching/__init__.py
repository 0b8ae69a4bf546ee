"""Delta-driven trigger matching.

The matching layer behind every chase consumer — see DESIGN.md §1
(semi-naive discovery) and §9 (compiled plans).  Public surface:

* :func:`homomorphisms` — backend-dispatching homomorphism enumeration
  (``repro.homomorphism.finder`` delegates here);
* :func:`delta_homomorphisms` / :func:`body_atom_index` — semi-naive
  discovery over an instance's delta log;
* :func:`seed_mapping` — anchor a body atom onto a fact;
* :func:`get_backend` / :func:`set_backend` / :func:`using_backend` —
  switch between the ``planned`` compiled plans (default), the
  ``columnar`` generated int loops, and the ``naive`` reference;
* :func:`chase_instance` / :func:`working_instance` — the backend's
  preferred fact store for a fresh or a caller-supplied chase instance;
* :func:`warm_plans` — precompile the ``planned``/``columnar`` backends'
  join plans for a dependency set's bodies at chase start.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Sequence

from ..model.atoms import Atom
from ..model.columnar import ColumnarInstance
from ..model.instances import Instance
from ..model.terms import Term
from . import naive as _naive
from . import plans as _plans
from .config import BACKENDS, get_backend, set_backend, using_backend
from .engine import (
    Homomorphism,
    body_atom_index,
    delta_homomorphisms,
    match_atom,
    seed_mapping,
)
from .plans import delta_row_homomorphisms
from .plans import warm as _warm


def homomorphisms(
    source: Sequence[Atom],
    target: Instance | ColumnarInstance | Iterable[Atom],
    seed: Mapping[Term, Term] | None = None,
    frozen_nulls: bool = False,
    limit: int | None = None,
) -> Iterator[Homomorphism]:
    """Enumerate homomorphisms using the active matching backend."""
    if get_backend() == "naive":
        return _naive.match(source, target, seed, frozen_nulls, limit)
    # One dispatcher for "planned" and "columnar": plans.match picks the
    # int executor for columnar targets and the object path for everything
    # else, so plain-Instance consumers keep working under "columnar".
    return _plans.match(source, target, seed, frozen_nulls, limit)


def chase_instance(facts: Iterable[Atom] = ()) -> Instance | ColumnarInstance:
    """A fresh mutable instance matching the active backend's preferred
    fact representation: columnar under ``"columnar"``, the object
    ``Instance`` otherwise.  Chase entry points build their working
    instances through this so backend selection reaches the model layer."""
    if get_backend() == "columnar":
        return ColumnarInstance(facts)
    return Instance(facts)


def working_instance(
    database: Instance | ColumnarInstance,
    copy: bool = True,
    backend: str | None = None,
) -> Instance | ColumnarInstance:
    """The instance a chase entry point mutates in place of ``database``.

    Under the columnar backend (``backend``, else the active one) an
    object ``database`` is converted once, at chase start — the
    conversion is itself a fork, so the caller's database is never
    touched and every step downstream runs on int columns.  Otherwise it
    is a private ``copy()``, or ``database`` itself when ``copy`` is
    false (the caller hands its instance over to be mutated).
    """
    if (backend or get_backend()) == "columnar" and not isinstance(
        database, ColumnarInstance
    ):
        return ColumnarInstance(database)
    return database.copy() if copy else database


def warm_plans(
    bodies: Iterable[Sequence[Atom]],
    target: Instance | ColumnarInstance | Iterable[Atom],
    frozen_nulls: bool = False,
) -> int:
    """Precompile join plans for ``bodies`` if a plan-executing backend
    (``planned``/``columnar``) is active; a no-op (returning 0) under the
    ``naive`` reference."""
    if get_backend() == "naive":
        return 0
    return _warm(bodies, target, frozen_nulls)


__all__ = [
    "BACKENDS",
    "Homomorphism",
    "body_atom_index",
    "chase_instance",
    "delta_homomorphisms",
    "delta_row_homomorphisms",
    "get_backend",
    "homomorphisms",
    "match_atom",
    "seed_mapping",
    "set_backend",
    "using_backend",
    "warm_plans",
    "working_instance",
]
