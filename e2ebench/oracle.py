"""Known-answer checks that share no logic with the analyser.

The expected answer for a program comes from the corpus generator's
``character`` — the cycle motif it planted — never from a criterion:

* ``acyclic``, ``mirror`` and ``sigma8_like`` programs are in CTstd∀;
* ``egd_rescued`` programs are in CTstd∃ but not in CTstd∀;
* ``unguarded`` and ``functional_guard`` programs are not in CTstd∃.

A verdict is wrong when it claims more than that.  Accepting a
``functional_guard`` program is the paper's ``FP?`` corner (DESIGN.md §3):
it counts as a failure like any other wrong claim; :func:`known_corner`
only tells it apart so the run can report whether anything *else* failed.

A chase result is wrong when a successful run is not a model of Σ that
contains the database — checked with the retained ``naive`` matcher — or
when an acyclic program's run ends ``EXCEEDED``.
"""

from __future__ import annotations

from repro.matching import naive
from repro.model.dependencies import EGD

IN_CT_ALL = frozenset({"acyclic", "mirror", "sigma8_like"})
IN_CT_EXISTS_ONLY = frozenset({"egd_rescued"})
NOT_IN_CT_EXISTS = frozenset({"unguarded", "functional_guard"})
CHARACTERS = IN_CT_ALL | IN_CT_EXISTS_ONLY | NOT_IN_CT_EXISTS

#: Criteria whose acceptance rests on the adornment algorithm (Adn∃).
ADORNMENT_CRITERIA = frozenset({"SAC", "S-Str"})


def _expect_known(character: str) -> None:
    if character not in CHARACTERS:
        raise ValueError(f"no known answer for corpus character {character!r}")


def verdict_error(character: str, claims_all: bool, claims_exists: bool) -> str | None:
    """Why a termination verdict contradicts the known answer, or None."""
    _expect_known(character)
    if character in NOT_IN_CT_EXISTS and (claims_exists or claims_all):
        return f"{character} program claimed to have a terminating sequence"
    if character in IN_CT_EXISTS_ONLY and claims_all:
        return f"{character} program claimed to terminate on all sequences"
    return None


def known_corner(character: str, accepted_by: list[str]) -> bool:
    """Is this wrong acceptance the documented ``FP?`` corner: a
    ``functional_guard`` program accepted only by adornment criteria?"""
    return (
        character == "functional_guard"
        and bool(accepted_by)
        and set(accepted_by) <= ADORNMENT_CRITERIA
    )


def is_model(facts: list, database: list, sigma) -> bool:
    """Does ``facts`` contain ``database`` and satisfy every dependency?

    Uses only the ``naive`` reference matcher, which shares no code with
    the production matching engines.
    """
    target = set(facts)
    if not set(database) <= target:
        return False
    for dep in sigma:
        for h in naive.match(dep.body, target):
            if isinstance(dep, EGD):
                if h[dep.lhs] != h[dep.rhs]:
                    return False
            elif next(naive.match(dep.head, target, seed=h), None) is None:
                return False
    return True


def chase_error(character: str, runs: list[tuple[str, list | None]], database: list, sigma) -> str | None:
    """Why a program's chase runs contradict the known answer, or None.

    ``runs`` holds one ``(status, facts)`` per strategy; ``facts`` is the
    final instance of a successful run and None otherwise.
    """
    _expect_known(character)
    for status, facts in runs:
        if status == "exceeded" and character == "acyclic":
            return "acyclic program's chase exceeded its step budget"
        if status == "success" and not is_model(facts, database, sigma):
            return "successful chase run is not a model of the program and database"
    return None
