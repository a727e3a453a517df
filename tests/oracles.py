"""Pruning-free reference routines that the tests compare the library
against. Ideals are closed by the worklist fixpoint ``generic_closure``,
never by the ideal registry or ``FiniteRing.principal``, and every
product is taken element by element. The reference strong scan walks the
lattice of ``all_ideals``, which ``oracle_lattice`` checks. The reference
DM and certify sweeps walk every (f, g) pair of ``Sweep.tuples``, one by
one, with no unit-orbit weighting. Integer contents are gcds of the
coefficients."""

import functools
import itertools
import math
from typing import Iterable, Optional

from omegalab.absorbing import DEFAULT_CAP, AbsorbingCheck
from omegalab.content_checks import (
    DEFAULT_BUDGET,
    DEFAULT_SAMPLE,
    CertifySweep,
    DmTable,
    _convolver,
    _peel,
    _to_polys,
    plan_sweep,
)
from omegalab.errors import CapExceededError
from omegalab.ideals import Ideal, all_ideals, ideal_space
from omegalab.integers import IntPolynomial


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


def reference_dm_table(
    ring, num_vars=1, max_deg=1, cap=DEFAULT_CAP, budget=DEFAULT_BUDGET,
    sample=DEFAULT_SAMPLE, seed=0,
) -> DmTable:
    """dm_exponent_table over every pair, each counted once."""
    slots, convolve = _convolver(ring, num_vars, max_deg)
    space = ideal_space(ring)
    slot_degs = [sum(e) for e in slots]
    hist: dict[int, int] = {}
    max_exp = 0
    witness = None
    cap_exceeded = 0
    checked = 0
    bound_ok = True if num_vars == 1 else None
    sweep = plan_sweep(ring.order ** (2 * len(slots)), budget, sample, seed)
    for fa, fb in sweep.tuples(ring.order, len(slots), 2):
        checked += 1
        n = space.dm_exponent(
            space.id_of_coeffs(fa),
            space.id_of_coeffs(fb),
            space.id_of_coeffs(convolve(fa, fb)),
            cap,
        )
        if n is None:
            cap_exceeded += 1
            continue
        hist[n] = hist.get(n, 0) + 1
        if n > max_exp:
            max_exp = n
            witness = (fa, fb)
        if bound_ok:
            deg_g = max(
                (d for c, d in zip(fb, slot_degs) if c != ring.zero), default=0
            )
            if n > deg_g + 1:
                bound_ok = False
    if witness is not None:
        witness = _to_polys(ring, num_vars, slots, witness)
    return DmTable(
        tuple(sorted(hist.items())), max_exp, witness, bound_ok, cap_exceeded,
        checked, sweep.mode, sweep.seed,
    )


def reference_certify_sweep(
    ideal, num_vars=1, max_deg=1, cap=8, budget=DEFAULT_BUDGET,
    sample=DEFAULT_SAMPLE, seed=0,
) -> CertifySweep:
    """certify_pair_sweep over every pair, each counted once."""
    ring = ideal.ring
    slots, convolve = _convolver(ring, num_vars, max_deg)
    members = ideal.elements
    space = ideal_space(ring)
    qualifying = 0
    max_exp = 0
    exp_ok = chain_ok = final_ok = True
    witness = None
    total_pairs = ring.order ** (2 * len(slots))
    sweep = plan_sweep(total_pairs, budget, sample, seed)
    for fa, fb in sweep.tuples(ring.order, len(slots), 2):
        prod_coeffs = convolve(fa, fb)
        if any(c not in members for c in prod_coeffs):
            continue
        qualifying += 1
        cf = space.id_of_coeffs(fa)
        cg = space.id_of_coeffs(fb)
        l = space.dm_exponent(cf, cg, space.id_of_coeffs(prod_coeffs), cap)
        if l is None:
            raise CapExceededError(f"dm exponent not found within cap {cap}")
        chain, final = _peel(space, (cf, cg), (l,), members)
        bounded = l <= max_deg + 1
        max_exp = max(max_exp, l)
        exp_ok = exp_ok and bounded
        chain_ok = chain_ok and chain
        final_ok = final_ok and final
        if witness is None and not (bounded and chain and final):
            witness = _to_polys(ring, num_vars, slots, (fa, fb))
    return CertifySweep(
        ideal, max_deg, total_pairs if sweep.exhaustive else sample,
        qualifying, max_exp, exp_ok, chain_ok, final_ok, witness, sweep.mode,
        sweep.seed,
    )


def content_int(f: IntPolynomial) -> int:
    """gcd of the coefficients, nonnegative; 0 for the zero polynomial."""
    return math.gcd(*f.coefficients()) if f.terms else 0


def gauss_lemma_check(f: IntPolynomial, g: IntPolynomial) -> bool:
    """content(fg) == content(f) * content(g); classical, always true."""
    return content_int(f * g) == content_int(f) * content_int(g)
