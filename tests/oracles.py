"""Pruning-free reference routines that the tests compare the library
against. Ideals are closed by the worklist fixpoint ``generic_closure``,
never by the ideal registry or ``FiniteRing.principal``, and every
product is taken element by element. The reference strong scan walks the
lattice of ``all_ideals``, which ``oracle_lattice`` checks."""

import functools
import itertools
from typing import Iterable, Optional

from omegalab.absorbing import AbsorbingCheck
from omegalab.ideals import Ideal, all_ideals


def generic_closure(ring, gens: Iterable[int]) -> frozenset[int]:
    """Worklist fixpoint: close the generators under + and multiplication
    by ring elements."""
    closed = {ring.zero}
    work = []
    for g in gens:
        ring.check_index(g)
        if g not in closed:
            closed.add(g)
            work.append(g)
    add = ring.add
    mul = ring.mul
    order = ring.order
    while work:
        x = work.pop()
        for r in range(order):
            y = mul(r, x)
            if y not in closed:
                closed.add(y)
                work.append(y)
        for s in list(closed):
            y = add(x, s)
            if y not in closed:
                closed.add(y)
                work.append(y)
    return frozenset(closed)


def reference_product(ring, a, b) -> frozenset[int]:
    """The ideal product of two element sets: the closure of all products."""
    mul = ring.mul
    return generic_closure(ring, {mul(x, y) for x in a for y in b})


@functools.cache
def reference_units(ring) -> frozenset[int]:
    """The x with x * y = 1 for some y, by a double loop."""
    one, mul = ring.one, ring.mul
    return frozenset(
        x for x in range(ring.order)
        if any(mul(x, y) == one for y in range(ring.order))
    )


def is_prime(ideal: Ideal) -> bool:
    """Proper, and xy in I implies x in I or y in I (full scan)."""
    if not ideal.is_proper:
        return False
    ring = ideal.ring
    members = ideal.elements
    mul = ring.mul
    outside = [x for x in range(ring.order) if x not in members]
    return not any(mul(x, y) in members for x in outside for y in outside)


def reference_is_n_absorbing(ideal: Ideal, n: int) -> AbsorbingCheck:
    """All non-decreasing (n+1)-tuples of elements in lex order, with
    direct product checks: the first whose product lies in I while no
    n-subproduct does."""
    ring = ideal.ring
    members = ideal.elements
    mul = ring.mul

    def product(xs) -> int:
        acc = ring.one
        for x in xs:
            acc = mul(acc, x)
        return acc

    for chosen in itertools.combinations_with_replacement(range(ring.order), n + 1):
        if product(chosen) in members and not any(
            product(chosen[:t] + chosen[t + 1:]) in members for t in range(n + 1)
        ):
            return AbsorbingCheck(holds=False, violation=chosen)
    return AbsorbingCheck(holds=True)


def reference_strong_violation(ideal: Ideal, n: int) -> Optional[tuple]:
    """Pruning-free strong scan: the first non-decreasing (n+1)-tuple of
    lattice positions whose product lies in I while no n-subproduct does,
    with every product taken by reference_product."""
    ring = ideal.ring
    lattice = all_ideals(ring)

    def inside(sets):
        acc = frozenset(range(ring.order))
        for els in sets:
            acc = reference_product(ring, acc, els)
        return acc <= ideal.elements

    for combo in itertools.combinations_with_replacement(lattice, n + 1):
        sets = [iv.elements for iv in combo]
        if inside(sets) and not any(
            inside(sets[:t] + sets[t + 1:]) for t in range(n + 1)
        ):
            return combo
    return None


def oracle_lattice(ring) -> list[frozenset[int]]:
    """Pairwise-sum BFS over principal ideals, sorted like all_ideals."""
    principal = {}
    for e in range(ring.order):
        principal.setdefault(generic_closure(ring, (e,)), e)
    zero = frozenset({ring.zero})
    known = {zero}
    frontier = [zero]
    add = ring.add
    while frontier:
        new_frontier = []
        for current in frontier:
            for els in principal:
                if els <= current:
                    continue
                combined = frozenset(add(x, y) for x in current for y in els)
                if combined not in known:
                    known.add(combined)
                    new_frontier.append(combined)
        frontier = new_frontier
    return sorted(known, key=lambda els: (len(els), tuple(sorted(els))))
