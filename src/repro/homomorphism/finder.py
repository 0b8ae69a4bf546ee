"""Homomorphism search between sets of atoms.

A homomorphism from a set of atoms ``A1`` to a set of atoms ``A2`` is a
mapping ``h : Dom(A1) → Dom(A2)`` with ``h(c) = c`` for every constant and
``R(h(t)) ∈ A2`` for every ``R(t) ∈ A1`` (Section 2).

The search itself lives in :mod:`repro.matching`: by default the columnar
backend (compiled join plans run over per-predicate typed columns), with
the planned, indexed and naive engines retained as switchable backends —
see ``repro.matching.config``.  This module keeps the stable public API:

* a partial seed mapping supports *extension* homomorphisms, which the
  standard chase's applicability test and EGD satisfaction checks need;
* nulls in the **source** behave like variables (they may map anywhere)
  unless ``frozen_nulls`` is set — the universal-model check maps nulls
  freely, while instance containment ``A1 ⊆ A2`` wants them rigid.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Sequence

from ..matching import Homomorphism, homomorphisms
from ..model.atoms import Atom
from ..model.instances import Instance
from ..model.terms import Constant, Null, Term, Variable

__all__ = [
    "Homomorphism",
    "find_homomorphism",
    "find_homomorphisms",
    "has_homomorphism",
    "homomorphic_image",
    "homomorphically_equivalent",
    "instance_maps_into",
]


def find_homomorphisms(
    source: Sequence[Atom],
    target: Instance | Iterable[Atom],
    seed: Mapping[Term, Term] | None = None,
    frozen_nulls: bool = False,
    limit: int | None = 1,
) -> Iterator[Homomorphism]:
    """Enumerate homomorphisms from ``source`` atoms into ``target``.

    ``seed`` fixes the image of some terms in advance (extension search).
    ``limit`` bounds how many homomorphisms are yielded (None = all).
    The yielded dicts map every flexible term of the source (and include the
    seed entries).
    """
    return homomorphisms(source, target, seed, frozen_nulls, limit)


def find_homomorphism(
    source: Sequence[Atom],
    target: Instance | Iterable[Atom],
    seed: Mapping[Term, Term] | None = None,
    frozen_nulls: bool = False,
) -> Homomorphism | None:
    """First homomorphism or None."""
    for h in find_homomorphisms(source, target, seed, frozen_nulls, limit=1):
        return h
    return None


def has_homomorphism(
    source: Sequence[Atom],
    target: Instance | Iterable[Atom],
    seed: Mapping[Term, Term] | None = None,
    frozen_nulls: bool = False,
) -> bool:
    """Existence check (first homomorphism only)."""
    return find_homomorphism(source, target, seed, frozen_nulls) is not None


def homomorphic_image(atoms: Iterable[Atom], h: Mapping[Term, Term]) -> list[Atom]:
    """``h(A)`` per the paper: apply ``h`` to a set of atoms."""
    return [a.apply(h) for a in atoms]


def _term_order(term: Term) -> tuple:
    """A total, deterministic order on fact terms without stringification.

    Constants sort before nulls before variables; within a kind the
    identifying attribute decides (constant values are partitioned by
    type name first, so mixed ``int``/``str`` values never hit an
    unorderable comparison).
    """
    if isinstance(term, Constant):
        value = term.value
        if not isinstance(value, (str, int, float, bool)):
            # Exotic values: rare, but keep the order total.  The "~"
            # kind tag (no type is named that) keeps a repr from ever
            # tying with a genuine string constant of the same spelling.
            return (0, "~" + type(value).__name__, repr(value))
        return (0, type(value).__name__, value)
    if isinstance(term, Null):
        return (1, "", term.label)
    assert isinstance(term, Variable)
    return (2, "", term.name)


def _atom_order(atom: Atom) -> tuple:
    """Deterministic structural sort key for atoms (hot path: called once
    per source atom of every containment check — ``key=str`` used to
    rebuild the full rendered string here every time)."""
    return (atom.predicate, atom.arity, tuple(_term_order(t) for t in atom.args))


def instance_maps_into(a: Instance, b: Instance) -> Homomorphism | None:
    """A homomorphism from instance ``a`` into instance ``b`` (nulls flexible,
    constants fixed), or None.  This is the homomorphism notion used for
    universal models.

    The source atoms are sorted (structurally, not by rendered string) so
    the search — and hence the returned homomorphism — is deterministic
    regardless of the instances' insertion order.
    """
    return find_homomorphism(sorted(a, key=_atom_order), b)


def homomorphically_equivalent(a: Instance, b: Instance) -> bool:
    """True iff homomorphisms exist both ways."""
    return instance_maps_into(a, b) is not None and instance_maps_into(b, a) is not None
