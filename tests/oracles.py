"""Pruning-free reference routines that the tests compare the library
against. Ideals are closed by the worklist fixpoint ``generic_closure``,
never by the ideal registry or ``FiniteRing.principal``, and every
product is taken element by element. The reference strong scan walks the
lattice of ``all_ideals``, which ``oracle_lattice`` checks. The reference
DM and certify sweeps walk every (f, g) pair one by one, drawn by
``randrange`` when sampled, with no unit-orbit weighting or grouping by
contents. The reference pair search walks every admissible pair and
decides each one on its own, with no memo over unit orbits, taking the
ideal product of the contents by ``reference_product``. The reference
radical walks the powers of every element. The
reference multiset scan tries each last factor in turn and checks a hit
subproduct by subproduct, with no hit masks; the reference poly-omega
scan runs it over sparse exponent->coefficient dicts, not unit classes
of residue polynomials through the row kernel. The reference integer leg
expands every product in Z[X], never in (Z/m)[X]. Integer contents are
gcds of the coefficients."""

import functools
import itertools
import math
import random
from itertools import combinations_with_replacement
from typing import Iterable, Optional, Sequence

from omegalab.absorbing import (
    DEFAULT_CAP,
    AbsorbingCheck,
    omega,
    violates,
)
from omegalab.content_checks import (
    DEFAULT_BUDGET,
    DEFAULT_SAMPLE,
    CertifySweep,
    DmTable,
    PolyOmegaReport,
    SearchOutcome,
    _admissible_draws,
    _admissible_sweep,
    _convolver,
    _peel,
    _to_polys,
    plan_sweep,
)
from omegalab.errors import CapExceededError
from omegalab.ideals import Ideal, all_ideals, ideal_space
from omegalab.integers import (
    IntConjectureReport,
    IntPolynomial,
    _split_draws,
    int_poly,
    omega_int,
)
from omegalab.polys import _poly_dict_mul
from omegalab.rings import FiniteRing, monomials_up_to


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


def reference_ideal_radical(ideal: Ideal) -> frozenset[int]:
    """{x : x^t in I for some t >= 1}: the powers of each x, walked until
    one repeats."""
    ring = ideal.ring
    members = ideal.elements
    mul = ring.mul
    result = set()
    for x in range(ring.order):
        seen = set()
        p = x
        while p not in seen:
            if p in members:
                result.add(x)
                break
            seen.add(p)
            p = mul(p, x)
    return frozenset(result)


def reference_tuples(sweep, order: int, length: int, arity: int):
    """``Sweep.tuples`` with the seeded draws made by ``randrange``."""
    if sweep.exhaustive:
        tuples = itertools.product(range(order), repeat=length)
        return itertools.product(tuples, repeat=arity)
    randrange = random.Random(sweep.seed).randrange
    return (
        tuple(
            tuple(randrange(order) for _ in range(length))
            for _ in range(arity)
        )
        for _ in range(sweep.sample)
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
    for fa, fb in reference_tuples(sweep, ring.order, len(slots), 2):
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
    for fa, fb in reference_tuples(sweep, ring.order, len(slots), 2):
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


def reference_pair_search(
    ring, num_vars, max_deg, kind, budget=DEFAULT_BUDGET,
    sample=DEFAULT_SAMPLE, seed=0,
) -> SearchOutcome:
    """gaussian_search (kind "gaussian": c(fg) != c(f)c(g)) or
    armendariz_search (kind "armendariz": fg = 0 but c(f)c(g) != 0) as a
    plain lex walk over the admissible pairs f <= g, or the randrange
    draws when sampled, each pair decided on its own."""
    slots, convolve = _convolver(ring, num_vars, max_deg)
    space = ideal_space(ring)
    length = len(slots)
    content = space.id_of_coeffs
    product = functools.cache(
        lambda a, b: reference_product(ring, space.set_of(a), space.set_of(b))
    )
    zero_ideal = frozenset({ring.zero})

    def admissible(cid) -> bool:
        return cid not in (space.zero_id, space.full_id)

    def violation(fa, ca, fb, cb) -> bool:
        prod = convolve(fa, fb)
        if kind == "gaussian":
            return space.set_of(content(prod)) != product(ca, cb)
        return set(prod) == {ring.zero} and product(ca, cb) != zero_ideal

    adm = None
    if ring.order ** length <= budget:
        adm = [
            (t, cid)
            for t in itertools.product(range(ring.order), repeat=length)
            if admissible(cid := content(t))
        ]
    size = None if adm is None else len(adm) * (len(adm) + 1) // 2
    sweep = plan_sweep(size, budget, sample, seed)
    if sweep.exhaustive:
        pairs = combinations_with_replacement(adm, 2)
    else:
        pairs = (
            ((fa, ca), (fb, cb))
            for fa, fb in reference_tuples(sweep, ring.order, length, 2)
            if admissible(ca := content(fa)) and admissible(cb := content(fb))
        )
    checked = 0
    for (fa, ca), (fb, cb) in pairs:
        checked += 1
        if violation(fa, ca, fb, cb):
            witness = _to_polys(ring, num_vars, slots, sorted((fa, fb)))
            return SearchOutcome(True, witness, sweep.mode, checked, sweep.seed)
    return SearchOutcome(False, None, sweep.mode, checked, sweep.seed)


def reference_multiset_scan(
    candidates: Sequence, one, table, inside, n: int
) -> tuple[Optional[tuple[int, ...]], int, int]:
    """First violating (n+1)-multiset over candidates, the leaves tried,
    and the leaves tried whose product lies in I.

    table[a][b] is the product of a and b, where a is a partial product and
    b a candidate or a partial product; one is the empty product, and
    ``p in inside`` tests whether p lies in the ideal I. A multiset whose
    product lies in I violates when none of its n-subproducts does.
    Multisets are walked as non-decreasing position tuples in lex order and
    a prefix whose product lies in I is cut, so the first violation is the
    lexicographically least. Returns (candidate positions or None, number
    of (n+1)-th factors tried, number of those whose product lies in I).

    The scan multiset_scan replaced: each last factor is tried in turn and
    a hit is checked subproduct by subproduct (``leaf_ok``), so partial
    products need not be hashable.
    """
    count = len(candidates)
    chosen = [0] * (n + 1)
    prefix = [one] * (n + 1)  # prefix[t] = product of the first t chosen
    leaves = inside_leaves = 0

    def leaf_ok() -> bool:
        # the full product is in I; reject unless every n-subproduct is out
        suffix = one
        for t in range(n, -1, -1):
            # subproduct omitting position t; equal neighbours give the same
            if t == n or chosen[t] != chosen[t + 1]:
                if table[prefix[t]][suffix] in inside:
                    return False
            suffix = table[suffix][candidates[chosen[t]]]
        return True

    def rec(start: int, depth: int) -> Optional[tuple[int, ...]]:
        nonlocal leaves, inside_leaves
        row = table[prefix[depth]]
        if depth == n:
            for ci in range(start, count):
                if row[candidates[ci]] in inside:
                    inside_leaves += 1
                    chosen[n] = ci
                    if leaf_ok():
                        leaves += ci - start + 1
                        return tuple(chosen)
            leaves += count - start
            return None
        for ci in range(start, count):
            p = row[candidates[ci]]
            if p not in inside:
                chosen[depth] = ci
                prefix[depth + 1] = p
                found = rec(ci, depth + 1)
                if found is not None:
                    return found
        return None

    return rec(0, 0), leaves, inside_leaves


class _PolyRow:
    """Row a of the product table of R[X] over sparse coefficient dicts:
    row[b] = a*b. Nothing is stored; each entry is one sparse product."""

    __slots__ = ("ring", "a")

    def __init__(self, ring: FiniteRing, a: dict):
        self.ring = ring
        self.a = a

    def __getitem__(self, b: dict) -> dict:
        return _poly_dict_mul(self.ring, self.a, b)


class _PolyTable:
    """table[a][b] = a*b over sparse coefficient dicts, for multiset_scan."""

    __slots__ = ("ring",)

    def __init__(self, ring: FiniteRing):
        self.ring = ring

    def __getitem__(self, a: dict) -> _PolyRow:
        return _PolyRow(self.ring, a)


class _IdealX:
    """Membership in I[X]: every coefficient of the sparse dict lies in I."""

    __slots__ = ("members",)

    def __init__(self, members: frozenset[int]):
        self.members = members

    def __contains__(self, poly: dict) -> bool:
        return self.members.issuperset(poly.values())


def reference_poly_omega(
    ideal: Ideal,
    max_deg: int = 1,
    num_vars: int = 1,
    cap: int = DEFAULT_CAP,
    budget: int = DEFAULT_BUDGET,
    sample: int = DEFAULT_SAMPLE,
    seed: int = 0,
) -> PolyOmegaReport:
    """verify_poly_omega with every product a sparse dict product
    (``polys._poly_dict_mul``) and I[X] membership read off the dict."""
    if not ideal.is_proper:
        raise ValueError("poly-omega checks need a proper ideal")
    ring = ideal.ring
    base = omega(ideal, cap)
    if base.value is None:
        return PolyOmegaReport(
            ideal, max_deg, base, None, None, "skipped:omega-cap", 0
        )
    n = base.value

    members = ideal.elements
    slots = monomials_up_to(num_vars, max_deg)
    one = {(0,) * num_vars: ring.one}
    table = _PolyTable(ring)
    in_ix = _IdealX(members)

    witness_valid: Optional[bool] = None
    if n == 1:
        witness_valid = True  # proper ideals are at least 1-absorbing targets
    elif base.lower_witness is not None:
        # the base witness read as constant polynomials: its product lies in
        # I[X] and no (n-1)-subproduct does
        constants = [{(0,) * num_vars: x} for x in base.lower_witness]
        witness_valid = len(constants) == n and violates(
            constants, one, table, in_ix
        )
    # exhaustive only when the whole tuple space fits the budget: the scan
    # walks (n+1)-tuples of admissible polynomials, not single polynomials
    adm, sweep = _admissible_sweep(
        ring, slots, members, lambda a: a ** (n + 1), budget, sample, seed
    )

    def as_dict(coeffs) -> dict:
        return {exp: c for exp, c in zip(slots, coeffs) if c != ring.zero}

    witness = None
    if sweep.exhaustive:
        cands = [as_dict(coeffs) for coeffs, _ in adm]
        found, checked, _ = reference_multiset_scan(cands, one, table, in_ix, n)
        if found is not None:
            witness = _to_polys(ring, num_vars, slots, [adm[i][0] for i in found])
    else:
        checked = 0
        for draw in _admissible_draws(sweep, ring, slots, n + 1, members):
            checked += 1
            tuples = [t for t, _ in draw]
            if violates([as_dict(t) for t in tuples], one, table, in_ix):
                witness = _to_polys(ring, num_vars, slots, sorted(tuples))
                break
    return PolyOmegaReport(
        ideal, max_deg, base, witness_valid, witness, sweep.mode, checked,
        sweep.seed,
    )


def _box_polys(max_deg: int, height: int, m: int) -> list[IntPolynomial]:
    """All polynomials of degree <= max_deg with |coeff| <= height, except
    those with every coefficient divisible by m (they cannot appear in a
    violation: any subproduct containing one lands in mZ[X])."""
    out = []
    span = range(-height, height + 1)
    coeffs = [()]
    for _ in range(max_deg + 1):
        coeffs = [c + (v,) for c in coeffs for v in span]
    for tup in coeffs:
        if any(c % m for c in tup):
            out.append(int_poly(tup))
    return out


def _in_mzx(f: IntPolynomial, m: int) -> bool:
    return all(c % m == 0 for c in f.coefficients())


def int_poly_mul(f: IntPolynomial, g: IntPolynomial) -> IntPolynomial:
    """The product in Z[X], term by term."""
    acc: dict[int, int] = {}
    for da, ca in f.terms:
        for db, cb in g.terms:
            acc[da + db] = acc.get(da + db, 0) + ca * cb
    return IntPolynomial(
        tuple(sorted((d, c) for d, c in acc.items() if c != 0))
    )


def _product(polys: Sequence[IntPolynomial]) -> IntPolynomial:
    if not polys:
        return int_poly((1,))
    out = polys[0]
    for p in polys[1:]:
        out = int_poly_mul(out, p)
    return out


def _violates(polys: Sequence[IntPolynomial], full: IntPolynomial, m: int) -> bool:
    """Whether full, the product of polys, lies in mZ[X] while no product
    omitting one factor does."""
    return _in_mzx(full, m) and not any(
        _in_mzx(_product(polys[:t] + polys[t + 1:]), m)
        for t in range(len(polys))
    )


def reference_conjecture_check_int(
    m: int,
    max_deg: int = 1,
    height: int = 2,
    sample: int = 1000,
    seed: int = 0,
    budget: int = DEFAULT_BUDGET,
) -> IntConjectureReport:
    """conjecture_check_int with every product expanded in Z[X] through
    ``int_poly_mul``, one tuple of ``combinations_with_replacement``
    at a time, and mZ[X] membership read off the integer coefficients."""
    if m < 2:
        raise ValueError("conjecture check needs a modulus m >= 2")
    if max_deg < 0 or height < 1:
        raise ValueError("need max_deg >= 0 and height >= 1")
    base = omega_int(m)
    n = base.value
    k = n + 1

    witness = [int_poly((p,)) for p in base.factors]
    witness_valid = _violates(witness, _product(witness), m)

    box_size = (2 * height + 1) ** (max_deg + 1)
    sweep = plan_sweep(box_size**k, budget, sample, seed)

    def report(violation, checked, drawn) -> IntConjectureReport:
        return IntConjectureReport(
            m, base, max_deg, height, witness_valid, violation, sweep.mode,
            checked, drawn, sweep.seed,
        )

    checked = 0
    drawn = 0
    if sweep.exhaustive:
        polys = _box_polys(max_deg, height, m)
        for combo in combinations_with_replacement(range(len(polys)), k):
            drawn += 1
            tup = [polys[i] for i in combo]
            full = _product(tup)
            if not _in_mzx(full, m):
                continue
            checked += 1
            if _violates(tup, full, m):
                return report(tuple(tup), checked, drawn)
        return report(None, checked, drawn)

    rng = random.Random(sweep.seed)
    span = 2 * height + 1

    def draw_uniform() -> list[IntPolynomial]:
        return [
            int_poly([rng.randrange(span) - height for _ in range(max_deg + 1)])
            for _ in range(k)
        ]

    def draw_constructed() -> Optional[list[IntPolynomial]]:
        values = _split_draws(rng, base.factors, k, height)
        if values is None:
            return None
        out = []
        for v in values:
            bound = height // v
            coeffs = [v * (rng.randrange(2 * bound + 1) - bound) for _ in range(max_deg + 1)]
            if all(c == 0 for c in coeffs):
                coeffs[rng.randrange(max_deg + 1)] = v
            out.append(int_poly(coeffs))
        return out

    for i in range(sample):
        drawn += 1
        tup = draw_uniform() if i % 2 == 0 else draw_constructed()
        if tup is None:
            continue
        if any(_in_mzx(p, m) for p in tup):
            continue
        full = _product(tup)
        if not _in_mzx(full, m):
            continue
        checked += 1
        if _violates(tup, full, m):
            return report(tuple(tup), checked, drawn)
    return report(None, checked, drawn)


def content_int(f: IntPolynomial) -> int:
    """gcd of the coefficients, nonnegative; 0 for the zero polynomial."""
    return math.gcd(*f.coefficients()) if f.terms else 0


def gauss_lemma_check(f: IntPolynomial, g: IntPolynomial) -> bool:
    """content(fg) == content(f) * content(g); classical, always true."""
    return content_int(int_poly_mul(f, g)) == content_int(f) * content_int(g)
