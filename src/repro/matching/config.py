"""Matching backend selection.

Three interchangeable homomorphism-search backends exist:

* ``"planned"`` (default) — compiled fixed-order join plans replayed over
  the plain :class:`~repro.model.instance.Instance`, probing term-id-keyed
  buckets (:mod:`.plans`, DESIGN.md §9); the production path (DESIGN.md
  §13 records the end-to-end numbers that chose it);
* ``"columnar"`` — the same compiled plans executed as generated int
  loops over a :class:`~repro.model.columnar.ColumnarInstance`'s typed tid
  columns and row-id sets, with optional vectorised kernels (DESIGN.md
  §10–§11); chase entry points build columnar instances under this
  backend (:func:`..chase_instance`);
* ``"naive"``   — the retained reference: static atom order, full predicate
  extent scans, no interning anywhere on its path (:mod:`.naive`).

All backends enumerate exactly the same *set* of homomorphisms (possibly
in a different order); the differential test suite holds each of them
against ``naive``.  The backend is a :mod:`contextvars` variable so
nested chase runs (e.g. the explorer forking runners) compose correctly.
"""

from __future__ import annotations

import contextlib
from contextvars import ContextVar
from typing import Iterator

BACKENDS = ("planned", "columnar", "naive")

_backend: ContextVar[str] = ContextVar("repro_matching_backend", default="planned")


def _check(name: str) -> None:
    if name not in BACKENDS:
        raise ValueError(f"unknown matching backend {name!r}; known: {BACKENDS}")


def get_backend() -> str:
    """The currently active matching backend name."""
    return _backend.get()


def set_backend(name: str) -> None:
    """Set the matching backend for the *current context*.

    The setting lives in a :mod:`contextvars` variable: new threads (and
    contexts copied before the call) start from the ``"planned"`` default
    and do not observe it.  Use :func:`using_backend` for scoped switches.
    """
    _check(name)
    _backend.set(name)


@contextlib.contextmanager
def using_backend(name: str) -> Iterator[None]:
    """Temporarily switch the matching backend (re-entrant)."""
    _check(name)
    token = _backend.set(name)
    try:
        yield
    finally:
        _backend.reset(token)
