"""Content-ideal checks over polynomial extensions R[x_1..x_k].

Covers: Dedekind-Mertens exponents, the least n with
c(f)^n c(g) = c(f)^(n-1) c(fg); exhaustive or seeded searches for
content-multiplicativity violations (c(fg) != c(f)c(g)) and for
annihilating pairs with non-annihilating contents (fg = 0 but
c(f)c(g) != 0); the principal-content factorization g = g' * b with unit
content g' available over residue rings and their products; iterated
peeling certificates for products landing in an ideal; and the bounded
search for violations of the absorbing-degree identity between I and its
polynomial extension.

Content ideals are ids of the ring's ideal registry (``ideals.IdealSpace``),
found by folding the coefficients through its dense rows of I + (c); it
also holds their products, powers and DM exponents. Every sweep is
planned by ``plan_sweep``: exhaustive when the caller's enumeration fits
the budget, else seeded draws (``uniform_draws``), with mode and seed
recorded. The DM table and the certify sweep fold over one table of
pairs grouped by content ids (``_pair_groups``), one per ring when
exhaustive, so the pairs are walked once for all of them. Per-class
counts and first tuples come from a table built slot by slot
(``_class_table``), which sizes poly-omega and the pair searches with no
tuple read. On a ring certified Gaussian (``IdealSpace.gaussian``) c(fg) is
read off the product table and the searches only count. Elsewhere every
exhaustive pair sweep multiplies each unordered pair of unit orbits
({u*f : u a unit}, ``_unit_orbits``) once, as fg = gf and scaling by
units changes no content: the table folds each product into the keys of
both orders, and the searches decide the representative pairs lazily in
lex order up to the first violating one, whose rank is checked.
The poly-omega check runs absorbing.multiset_scan, the scanner behind
omega, over bounded polynomials of R[X], each held as the id of the unit
class of its residue polynomial in (R/I)[X] (``polys._residue_table``,
which the integer leg shares with coefficients mod m and plain
residues): a product lies in I[X] exactly when its class is zero.
Products go through the sweeps' row kernel, ``_convolver``, over the
slots up to (omega+1)*max_deg, and each product of two ids is computed
once per call, unless the lowest terms already put it outside I[X].

Search enumeration order is fixed: coefficient tuples over the graded-lex
slot list, ascending lexicographically; pairs run f <= g (both predicates
are symmetric), so a returned witness is the canonically first one, and
checked counts the pairs of that walk.
Searches skip polynomials whose content is zero (or contained in the target
ideal) and polynomials with unit content; both skips are sound because such
polynomials can never appear in a violation (the first kind forces every
product through the ideal, the second kind satisfies multiplicativity by
the Dedekind-Mertens law); the exhaustive searches also skip every
principal content (``_pair_search``). Pruned and unpruned scans are
compared in tests.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .absorbing import (
    DEFAULT_CAP, OmegaResult, multiset_rank, omega, violates,
)
from .errors import CapExceededError, UnsupportedRingError
from .ideals import Ideal, IdealSpace, ideal_space, is_radical_ideal
from .polys import (
    Polynomial,
    _residue_table,
    constant_poly,
    make_poly,
    poly_mul,
)
from .rings import (
    FiniteRing,
    ProductRing,
    ZmodRing,
    coset_minima,
    monomials_up_to,
)

__all__ = [
    "DEFAULT_BUDGET",
    "DEFAULT_SAMPLE",
    "SearchOutcome",
    "gaussian_search",
    "armendariz_search",
    "Sweep",
    "plan_sweep",
    "DmTable",
    "dm_exponent_table",
    "BezoutFactorization",
    "bezout_factor",
    "ContainmentCertificate",
    "certify_content_product",
    "CertifySweep",
    "certify_pair_sweep",
    "PolyOmegaReport",
    "verify_poly_omega",
]

DEFAULT_BUDGET = 10**7
DEFAULT_SAMPLE = 10000
_CHUNK = 1024  # sampled items per uniform_draws call


# ---------------------------------------------------------------------------
# coefficient-tuple enumeration helpers


def _convolver(ring: FiniteRing, num_vars: int, max_deg: int, factors: int = 2):
    """(slots, convolve): the graded-lex slots up to max_deg, and the
    product of coefficient tuples over the slots up to factors*max_deg.

    The slots up to any degree are a prefix of that list (graded-lex lists
    a degree before the next), so an input may be shorter: a candidate over
    the slots, a partial product of fewer factors over the longer list.
    The output covers every product slot. A term past factors*max_deg has
    no slot, so it raises instead of being dropped."""
    slots = monomials_up_to(num_vars, max_deg)
    prod_slots = monomials_up_to(num_vars, factors * max_deg)
    pos_of = {exp: i for i, exp in enumerate(prod_slots)}
    pairpos = [
        [pos_of.get(tuple(a + b for a, b in zip(ea, eb))) for eb in prod_slots]
        for ea in prod_slots
    ]
    size = len(prod_slots)
    zero = ring.zero
    mtab = ring.mul_rows()
    atab = ring.add_rows()

    def convolve(fa: Sequence[int], fb: Sequence[int]) -> list[int]:
        out = [zero] * size
        for i, ca in enumerate(fa):
            if ca != zero:
                mrow = mtab[ca]
                row = pairpos[i]
                for j, cb in enumerate(fb):
                    if cb != zero:
                        p = mrow[cb]
                        if p != zero:
                            pos = row[j]
                            out[pos] = atab[out[pos]][p]
        return out

    return slots, convolve


def _to_polys(ring: FiniteRing, num_vars: int, slots, tuples) -> tuple:
    """The polynomials with the given coefficient tuples over the slots."""
    return tuple(make_poly(ring, num_vars, dict(zip(slots, t))) for t in tuples)


@dataclass(frozen=True)
class Sweep:
    """How one sweep covers its space: exhaustively, or by seeded draws."""

    mode: str
    seed: Optional[int]
    sample: int

    @property
    def exhaustive(self) -> bool:
        return self.mode == "exhaustive"

    def tuples(self, order: int, length: int, arity: int):
        """The sweep's items, each a tuple of arity coefficient tuples of the
        given length over range(order): all of them in lex order when
        exhaustive, else the seeded draws of ``uniform_draws``."""
        if self.exhaustive:
            tuples = itertools.product(range(order), repeat=length)
            return itertools.product(tuples, repeat=arity)
        return self._draws(order, length, arity)

    def _draws(self, order: int, length: int, arity: int):
        """The sampled items, drawn _CHUNK at a time by one ``uniform_draws``
        call of chunk*arity*length values, packed by length into coefficient
        tuples and those by arity into items. ``uniform_draws`` makes one
        getrandbits(k) call per attempt, in order, and keeps no state between
        values, so one long call returns exactly the values, in the same
        order, that one call per coefficient tuple returns. The generator is
        private to the sweep: a consumer that stops early leaves unread draws
        that nothing else would have read."""
        getrandbits = random.Random(self.seed).getrandbits
        for start in range(0, self.sample, _CHUNK):
            chunk = min(self.sample - start, _CHUNK)
            values = iter(uniform_draws(getrandbits, order, chunk * arity * length))
            coeffs = zip(*[values] * length)
            yield from zip(*[coeffs] * arity)


def uniform_draws(getrandbits, n: int, length: int) -> tuple[int, ...]:
    """length values of randrange(n) from the generator of getrandbits.
    For n >= 1, CPython's randrange(n) is _randbelow_with_getrandbits(n):
    it draws k = n.bit_length() bits until the value is below n. This loop
    makes the same getrandbits(k) calls, so it returns the same values and
    leaves the generator in the same state, minus randrange's overhead."""
    k = n.bit_length()
    out = []
    for _ in range(length):
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        out.append(r)
    return tuple(out)


def _unit_orbits(ring: FiniteRing, tuples: Iterable[tuple]) -> Iterator[tuple]:
    """Yields (f, |O(f)|) for each orbit O(f) = {u*f : u a unit} met in the
    coefficient tuples, f its first tuple, lazily and in order of first
    tuple. The tuples must be closed under units; in lex order, each f is
    the lex-least tuple of its orbit.

    Scaling by units changes nothing a pair sweep reads: for units u and v,
    c(uf) = c(f), c(uf*vg) = c(uv*fg) = c(fg), uv*fg lies in I[X] (is zero)
    exactly when fg does, and uf has the support (so the degree) of f.
    Every per-pair value is therefore constant on O(f) x O(g), and a count
    over all pairs is the sum over representative pairs weighted by
    |O(f)|*|O(g)|. A representative pair also comes first among the pairs
    with any such property: if (f, g) has it, so does (min O(f), min O(g)),
    which is no larger in the lex order of pairs. So the first pair at the
    maximum exponent and the first failing pair are representative pairs,
    and the sweeps report the witnesses of the full walk."""
    rows = ring.mul_rows()
    unit_rows = [rows[u] for u in sorted(ring.units())]
    seen: set[tuple] = set()
    for f in tuples:
        if f not in seen:
            orbit = {tuple(row[c] for c in f) for row in unit_rows}
            seen |= orbit
            yield f, len(orbit)


def _orbit_pairs(reps: Iterable) -> Iterator[tuple]:
    """The pairs i <= j of a stream in lex order, read only as needed."""
    seen = []
    for rep in reps:
        seen.append(rep)
        yield seen[0], rep
    yield from itertools.combinations_with_replacement(seen[1:], 2)


def plan_sweep(
    size: Optional[int], budget: int, sample: int, seed: int
) -> Sweep:
    """Exhaustive when the caller's exhaustive enumeration has size <= budget
    items (None: too large even to list), else sample seeded draws."""
    if size is not None and size <= budget:
        return Sweep("exhaustive", None, sample)
    return Sweep(f"sampled:{sample}", seed, sample)


def _admissible(space: IdealSpace, cid: int, skip_inside: frozenset[int]) -> bool:
    """Whether a content id is proper and not contained in skip_inside (the
    zero ideal for the pair searches, I for poly-omega)."""
    return cid != space.full_id and not space.set_of(cid) <= skip_inside


def _admissible_count(
    ring: FiniteRing, num_vars: int, max_deg: int, skip_inside: frozenset[int], budget: int
) -> Optional[int]:
    """The number of admissible coefficient tuples, summed over the content
    classes of ``_class_table`` with no tuple read; None when the
    order**L tuples are over the budget, too many for a walk to read."""
    if ring.order ** len(monomials_up_to(num_vars, max_deg)) > budget:
        return None
    space = ideal_space(ring)
    firsts = _class_table(ring, num_vars, max_deg)[0]
    return sum(n for cid, (n, _) in firsts.items() if _admissible(space, cid, skip_inside))


def _admissible_tuples(ring: FiniteRing, slots, skip_inside: frozenset[int]) -> Iterator[tuple]:
    """(coeffs, content id) of each admissible coefficient tuple, lazily
    and in lex order."""
    space = ideal_space(ring)
    for coeffs in itertools.product(range(ring.order), repeat=len(slots)):
        cid = space.id_of_coeffs(coeffs)
        if _admissible(space, cid, skip_inside):
            yield coeffs, cid


def _admissible_draws(
    sweep: Sweep, ring: FiniteRing, slots, arity: int, skip_inside
):
    """The sweep's draws whose every content is admissible, each a tuple of
    (coeffs, content id) pairs."""
    space = ideal_space(ring)
    for draw in sweep.tuples(ring.order, len(slots), arity):
        ids = []
        for t in draw:  # every factor is drawn: stopping keeps the stream
            ids.append(space.id_of_coeffs(t))
            if not _admissible(space, ids[-1], skip_inside):
                break
        else:
            yield tuple(zip(draw, ids))


@dataclass(frozen=True)
class SearchOutcome:
    """Result of a pair search: first canonical witness, or a clean sweep."""

    found: bool
    witness: Optional[tuple[Polynomial, Polynomial]]
    mode: str
    checked: int
    seed: Optional[int] = None


def _pair_search(
    ring: FiniteRing,
    num_vars: int,
    max_deg: int,
    is_violation: Callable,
    budget: int,
    sample: int,
    seed: int,
) -> SearchOutcome:
    """First violating pair f <= g of admissible polynomials: exhaustive
    when the order**L tuples and the unordered admissible pairs fit the
    budget, else over seeded draws decided one by one. checked counts the
    pairs in lex order, or the admissible draws, up to and including the
    witness (all if none). The admissible polynomials are counted per
    content class (``_class_table``), so no tuple is read to plan.

    The exhaustive search decides the pairs i <= j of the unit-orbit
    representatives (``_unit_orbits``) in lex order. Both predicates read
    a pair only through c(f), c(g) and fg = gf, so a verdict is symmetric
    and, by ``_unit_orbits``, constant on O(f) x O(g). If f <= g violates,
    so does the sorted pair of their orbit minima, which is no larger: the
    first violating pair of the full walk is a representative pair, which
    the loop meets first, and checked is its rank among the 2-multisets of
    the admissible positions (``absorbing.multiset_rank``). The walk reads
    tuples lazily and stops there (``_orbit_pairs``).

    Orbits with a principal content are skipped: no pair holding one
    violates. In a local ring, Nakayama gives a principal c(f) != 0 a
    generating coefficient a, so f = a*f1 with c(f1) = R, and
    Dedekind-Mertens gives c(fg) = a*c(f1 g) = a*c(g) = c(f)c(g), so
    neither c(fg) != c(f)c(g) nor fg = 0 with c(f)c(g) != 0 holds. A finite
    ring is the product of local rings, contents split componentwise, the
    components of a principal ideal are principal, and a zero component
    of c(f) is one of fg and of c(f)c(g). The skipped orbits leave the
    order of the rest, so the first violating pair and checked are those
    of the full walk.

    On a ring certified Gaussian (``IdealSpace.gaussian``) nothing
    violates, as c(fg) = c(f)c(g) and so fg = 0 gives c(f)c(g) = 0: the
    search reads no tuple and counts every pair or admissible draw."""
    slots = monomials_up_to(num_vars, max_deg)
    space = ideal_space(ring)
    zero = frozenset({ring.zero})
    count = _admissible_count(ring, num_vars, max_deg, zero, budget)
    sweep = plan_sweep(None if count is None else count * (count + 1) // 2,
                       budget, sample, seed)
    convolve = None if space.gaussian() else _convolver(ring, num_vars, max_deg)[1]

    def first_violation(pairs) -> tuple[int, Optional[tuple]]:
        # (pairs decided, the first violating pair or None)
        decided = 0
        for decided, ((fa, ca), (fb, cb)) in enumerate(pairs, 1):
            if convolve and is_violation(space, convolve(fa, fb), ca, cb):
                return decided, tuple(sorted((fa, fb)))
        return decided, None

    hit = found = None
    if sweep.exhaustive:
        if convolve:
            principal = space.principal_reps()
            walked = {}  # non-principal admissible tuple -> (position, content id)

            def walk():
                for position, (f, cid) in enumerate(_admissible_tuples(ring, slots, zero)):
                    if cid not in principal:
                        walked[f] = position, cid
                        yield f

            reps = ((f, walked[f][1]) for f, _ in _unit_orbits(ring, walk()))
            _, hit = first_violation(_orbit_pairs(reps))
            found = None if hit is None else [walked[f][0] for f in hit]
        checked = multiset_rank(found, count, 1)
    else:
        checked, hit = first_violation(_admissible_draws(sweep, ring, slots, 2, zero))
    witness = None if hit is None else _to_polys(ring, num_vars, slots, hit)
    return SearchOutcome(hit is not None, witness, sweep.mode, checked, sweep.seed)


def _gaussian_violation(space: IdealSpace, prod_coeffs, ca: int, cb: int) -> bool:
    return space.id_of_coeffs(prod_coeffs) != space.products[ca][cb]


def _armendariz_violation(space: IdealSpace, prod_coeffs, ca: int, cb: int) -> bool:
    if prod_coeffs.count(space.ring.zero) < len(prod_coeffs):
        return False
    return space.products[ca][cb] != space.zero_id


def gaussian_search(
    ring: FiniteRing,
    num_vars: int = 1,
    max_deg: int = 1,
    budget: int = DEFAULT_BUDGET,
    sample: int = DEFAULT_SAMPLE,
    seed: int = 0,
) -> SearchOutcome:
    """First pair with c(fg) != c(f)c(g) up to the degree bound, if any."""
    return _pair_search(
        ring, num_vars, max_deg, _gaussian_violation, budget, sample, seed
    )


def armendariz_search(
    ring: FiniteRing,
    num_vars: int = 1,
    max_deg: int = 1,
    budget: int = DEFAULT_BUDGET,
    sample: int = DEFAULT_SAMPLE,
    seed: int = 0,
) -> SearchOutcome:
    """First pair with fg = 0 but c(f)c(g) != 0, if any."""
    return _pair_search(
        ring, num_vars, max_deg, _armendariz_violation, budget, sample, seed
    )


# ---------------------------------------------------------------------------
# grouped pair table and the Dedekind-Mertens exponent table


def _class_table(ring: FiniteRing, num_vars: int, max_deg: int) -> tuple[dict, dict]:
    """(firsts, seconds): [count, lex-least tuple] of the coefficient tuples
    per content id c(f) and per (c(f), deg f), in order of first tuple;
    kept on the ring's registry. One pass per slot over the prefix states
    (content id, degree), never one per tuple.

    A coefficient v acts on a state only through (v): K becomes K + (v)
    (``IdealSpace.extend``), and the degree the slot's when v != 0, as
    graded-lex puts deg f at the last nonzero slot. So count times
    |{v : (v) = P}| moves along each principal ideal P. A tuple t reaching
    S' passes through some S with t[:-1] >= first(S), t[-1] >= min P, and
    first(S) + (min P,) reaches S' too, so first(S') is the least such
    candidate. Walking the states in order of first prefix and each P by
    min P makes the candidates in lex order: a state's first candidate is
    its least, and the states arrive in order of first tuple."""
    space = ideal_space(ring)
    got = space.class_tables.get((num_vars, max_deg))
    if got is None:
        zero = ring.zero
        gens: dict[int, list[int]] = {}  # id of (v) -> [least v, |{v}|]
        for v in range(ring.order):
            gens.setdefault(space.principal_id(v), [v, 0])[1] += 1
        states = {(space.zero_id, 0): [1, ()]}
        for slot_deg in map(sum, monomials_up_to(num_vars, max_deg)):
            nxt: dict[tuple[int, int], list] = {}
            for (cid, d), (count, first) in states.items():
                for v, size in gens.values():
                    key = (space.extend(cid, v), d if v == zero else slot_deg)
                    nxt.setdefault(key, [0, first + (v,)])[0] += count * size
            states = nxt
        firsts: dict[int, list] = {}
        for (cid, _), (count, first) in states.items():
            firsts.setdefault(cid, [0, first])[0] += count
        got = space.class_tables[num_vars, max_deg] = firsts, states
    return got


def _pair_groups(
    ring: FiniteRing, num_vars: int, max_deg: int, sweep: Sweep,
    inside: Optional[frozenset[int]] = None,
) -> dict[tuple[int, int, int, int], list]:
    """The sweep's (f, g) pairs grouped by (c(f), c(g), c(fg), deg g), as
    content ids, each group [weight, first pair], in walk order of first
    pairs. Exhaustive, kept on the ring's registry for the DM table and
    every certify ideal: on a ring certified Gaussian the class pairs of
    ``_class_table``; else one pair per pair of unit orbits, by lex-least
    tuples, weighted |O(f)|*|O(g)| (``_unit_orbits``, consumed whole,
    shows this covers every pair). Sampled: the draws, weight 1, grouped
    per call, less those whose c(fg) leaves inside, if given; on a
    certified ring c(fg) is products[c(f)][c(g)] and nothing is multiplied.

    On a certified ring the key of (f, g) is (c(f), c(g),
    products[c(f)][c(g)], deg g), so each group is a class pair A x B: A
    the tuples of one content, B those of one content and degree, weight
    |A|*|B|, first pair (min A, min B) in the lex walk of the ordered
    pairs. Listing the groups by min A, then min B, is the walk's order.

    What the DM table and certify read of a pair is a function of its key:
    the DM exponent, the peel, the degree bound, and whether fg lies in
    I[X], which holds exactly when c(fg) <= I as I is an ideal. So a count
    is a sum of weights, and the first pair with such a property is the
    first pair of the first group with it: earlier groups start earlier.

    The exhaustive orbit walk over the K representatives f_0 < .. < f_(K-1)
    is that of the ordered pairs (f_i, f_j), rank i*K + j. As fg = gf, it
    multiplies only the pairs i <= j, once each, and folds the product
    into the keys of both (f_i, f_j) and (f_j, f_i), with the weight
    |O(f_i)|*|O(f_j)| and the ranks i*K + j and j*K + i. Every ordered
    pair is folded exactly once, so each group's weight is that of the
    full walk. A group keeps the least rank folded into it, the rank of
    its first pair, so sorting by it orders the groups as the walk does:
    a mirrored rank j*K + i can open a group before a smaller rank arrives
    (Z/2 x F_2[x,y]/(x^2, y^2), degree 1). The table holds the
    representatives and the groups, never one entry per pair."""
    space = ideal_space(ring)
    if sweep.exhaustive and (num_vars, max_deg) in space.pair_groups:
        return space.pair_groups[num_vars, max_deg]
    slots = monomials_up_to(num_vars, max_deg)
    convolve = None if space.gaussian() else _convolver(ring, num_vars, max_deg)[1]
    slot_degs = [sum(e) for e in slots]
    zero = ring.zero
    id_of = space.id_of_coeffs

    def degree(f) -> int:
        last = len(f) - 1  # graded-lex: the last nonzero slot has deg f
        while last and f[last] == zero:
            last -= 1
        return slot_degs[last]

    groups: dict[tuple[int, int, int, int], list] = {}
    if not sweep.exhaustive:
        for fa, fb in sweep.tuples(ring.order, len(slots), 2):
            ca, cb = id_of(fa), id_of(fb)
            cfg = space.products[ca][cb] if convolve is None else id_of(convolve(fa, fb))
            if inside is None or space.set_of(cfg) <= inside:
                groups.setdefault((ca, cb, cfg, degree(fb)), [0, (fa, fb)])[0] += 1
        return groups

    if convolve is None:
        firsts, seconds = _class_table(ring, num_vars, max_deg)
        groups = {
            (c1, c2, space.products[c1][c2], d): [n1 * n2, (f1, f2)]
            for c1, (n1, f1) in firsts.items()
            for (c2, d), (n2, f2) in seconds.items()
        }
    else:
        def fold(key, weight: int, rank: int) -> None:  # -> [weight, least rank]
            entry = groups.setdefault(key, [0, rank])
            entry[0] += weight
            entry[1] = min(entry[1], rank)

        tuples = itertools.product(range(ring.order), repeat=len(slots))
        reps, weights = zip(*_unit_orbits(ring, tuples))
        count = len(reps)
        ids = [id_of(f) for f in reps]
        degs = [degree(f) for f in reps]
        for i, fa in enumerate(reps):
            for j in range(i, count):
                cfg = id_of(convolve(fa, reps[j]))
                weight = weights[i] * weights[j]
                fold((ids[i], ids[j], cfg, degs[j]), weight, i * count + j)
                if j > i:
                    fold((ids[j], ids[i], cfg, degs[i]), weight, j * count + i)
        groups = {
            key: [weight, (reps[rank // count], reps[rank % count])]
            for key, (weight, rank) in sorted(groups.items(), key=lambda g: g[1][1])
        }
    space.pair_groups[num_vars, max_deg] = groups
    return groups


@dataclass(frozen=True)
class DmTable:
    """Distribution of dm exponents over all pairs up to the bounds."""

    histogram: tuple[tuple[int, int], ...]
    max_exponent: int
    witness: Optional[tuple[Polynomial, Polynomial]]
    bound_holds: Optional[bool]
    cap_exceeded: int
    checked: int
    mode: str
    seed: Optional[int] = None


def dm_exponent_table(
    ring: FiniteRing,
    num_vars: int = 1,
    max_deg: int = 1,
    cap: int = DEFAULT_CAP,
    budget: int = DEFAULT_BUDGET,
    sample: int = DEFAULT_SAMPLE,
    seed: int = 0,
) -> DmTable:
    """The DM exponent over all (f, g) pairs, or a seeded sample over budget;
    a fold over the groups of ``_pair_groups``, which weight the counts.

    bound_holds reports the univariate classical bound l <= deg(g)+1 (with
    deg(0) treated as 0); None for multivariate sweeps where the classical
    degree bound statement does not apply.
    """
    slots = monomials_up_to(num_vars, max_deg)
    space = ideal_space(ring)

    hist: dict[int, int] = {}
    max_exp = 0
    witness: Optional[tuple] = None
    cap_exceeded = 0
    checked = 0
    bound_ok: Optional[bool] = True if num_vars == 1 else None

    sweep = plan_sweep(ring.order ** (2 * len(slots)), budget, sample, seed)
    groups = _pair_groups(ring, num_vars, max_deg, sweep)
    for (cf, cg, cfg, deg_g), (weight, pair) in groups.items():
        checked += weight
        n = space.dm_exponent(cf, cg, cfg, cap)
        if n is None:
            cap_exceeded += weight
            continue
        hist[n] = hist.get(n, 0) + weight
        if n > max_exp:
            max_exp = n
            witness = pair
        bound_ok = bound_ok and n <= deg_g + 1

    if witness is not None:
        witness = _to_polys(ring, num_vars, slots, witness)
    return DmTable(
        histogram=tuple(sorted(hist.items())),
        max_exponent=max_exp,
        witness=witness,
        bound_holds=bound_ok,
        cap_exceeded=cap_exceeded,
        checked=checked,
        mode=sweep.mode,
        seed=sweep.seed,
    )


# ---------------------------------------------------------------------------
# principal-content factorization (residue rings and products)


@dataclass(frozen=True)
class BezoutFactorization:
    """g = unit_part * b with c(unit_part) = R and (b) = c(g).

    b, d and the entries of r and s are element indices. r and s follow the
    ascending graded-lex term order of g: term i has coefficient
    b_i = r_i * b and b = sum_i s_i b_i; d = sum_i s_i r_i. When 1 - d is
    nonzero the unit_part carries it on fresh_exponent, the least exponent
    vector outside the support of g.
    """

    poly: Polynomial
    b: int
    r: tuple[int, ...]
    s: tuple[int, ...]
    d: int
    fresh_exponent: tuple[int, ...]
    unit_part: Polynomial


def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _principal_combination(
    ring: FiniteRing, values: Sequence[int]
) -> tuple[int, list[int], list[int]]:
    """(b, r, s): (values) = (b), values[i] = r[i]*b, b = sum s[i]*values[i]."""
    if isinstance(ring, ZmodRing):
        n = ring.modulus
        g = 0
        combo: list[int] = []
        # left-to-right accumulation; a value that does not strictly
        # refine the gcd keeps the existing combination (canonical form)
        for v in values:
            g2 = math.gcd(g, v)
            if g2 == g and g != 0:
                combo.append(0)
            else:
                g2, u, w = _ext_gcd(g, v)
                combo = [(c * u) % n for c in combo]
                combo.append(w % n)
            g = g2
        g2 = math.gcd(g, n)
        if g2 != g:
            _, u, _ = _ext_gcd(g, n)
            combo = [(c * u) % n for c in combo]
        b = g2 % n
        if b == 0:
            # every value is 0 mod n; happens for one factor of a product
            # ring whose column vanishes, and (0) = (0) with r = s = 0
            return 0, [0] * len(values), [0] * len(values)
        r = [(v // b) % n for v in values]
        return b, r, combo
    if isinstance(ring, ProductRing):
        lefts = [ring.decode(v)[0] for v in values]
        rights = [ring.decode(v)[1] for v in values]
        bl, rl, sl = _principal_combination(ring.left, lefts)
        br, rr, sr = _principal_combination(ring.right, rights)
        b = ring.encode(bl, br)
        r = [ring.encode(x, y) for x, y in zip(rl, rr)]
        s = [ring.encode(x, y) for x, y in zip(sl, sr)]
        return b, r, s
    raise UnsupportedRingError(
        f"principal-content factorization needs zmod or products of zmod, "
        f"got {ring.descriptor}"
    )


def bezout_factor(g: Polynomial) -> BezoutFactorization:
    """Factor g = g' * b with c(g') = R, per the extended-gcd construction.

    Requires g nonzero over zmod:N or a product of such. The three
    invariants (reconstruction, unit content, fresh exponent outside the
    support) are verified before returning; failure is a hard error.
    """
    if g.is_zero:
        raise ValueError("bezout_factor requires a nonzero polynomial")
    ring = g.ring
    values = [c for _, c in g.terms]
    b, r, s = _principal_combination(ring, values)
    mul = ring.mul
    add = ring.add
    d = ring.zero
    for si, ri in zip(s, r):
        d = add(d, mul(si, ri))
    support = {exp for exp, _ in g.terms}
    # the least graded-lex exponent vector outside the support
    fresh = next(e for d in itertools.count() for e in monomials_up_to(g.num_vars, d)
                 if e not in support)
    unit_terms = {exp: ri for (exp, _), ri in zip(g.terms, r)}
    # 1 - d: the one x with d + x = 1
    leftover = next(x for x in ring.elements if add(d, x) == ring.one)
    if leftover != ring.zero:
        unit_terms[fresh] = leftover
    unit_part = make_poly(ring, g.num_vars, unit_terms)

    # verification: the construction is proved, a failure means corrupt input
    reconstructed = poly_mul(unit_part, constant_poly(ring, b, g.num_vars))
    if reconstructed != g:
        raise RuntimeError("principal-content factorization failed to reconstruct g")
    space = ideal_space(ring)
    if space.id_of_coeffs(unit_part.coefficients()) != space.full_id:
        raise RuntimeError("unit part does not have unit content")
    if fresh in support:
        raise RuntimeError("fresh exponent collided with the support")
    combo = ring.zero
    for si, (_, bi) in zip(s, g.terms):
        combo = add(combo, mul(si, bi))
    if combo != b:
        raise RuntimeError("combination coefficients do not reproduce the generator")
    return BezoutFactorization(
        poly=g,
        b=b,
        r=tuple(r),
        s=tuple(s),
        d=d,
        fresh_exponent=fresh,
        unit_part=unit_part,
    )


# ---------------------------------------------------------------------------
# iterated peeling certificate


@dataclass(frozen=True)
class ContainmentCertificate:
    """Peeling certificate for c(f_1)...c(f_m) against an ideal I.

    exponents[i] is the dm exponent of f_i against the tail product
    f_{i+1}..f_m. chain_containment verifies
    c(f_1)^{l_1} .. c(f_{m-1})^{l_{m-1}} c(f_m) <= I directly;
    final_containment verifies c(f_1)..c(f_m) <= I, the conclusion that is
    guaranteed when I is radical (the ideal_radical flag).
    """

    ideal: Ideal
    exponents: tuple[int, ...]
    chain_containment: bool
    final_containment: bool
    ideal_radical: bool


def _peel(
    space: IdealSpace, ids: Sequence[int], exponents: Sequence[int], members
) -> tuple[bool, bool]:
    """(chain, final): whether c(f_1)^{l_1} .. c(f_{m-1})^{l_{m-1}} c(f_m)
    and c(f_1)..c(f_m) lie in I (its element set members), from the
    content ids of f_1..f_m and the peeling exponents l_1..l_{m-1}."""
    chain = plain = ids[-1]
    for cid, l in zip(ids, exponents):  # stops before f_m: one l fewer
        chain = space.products[chain][space.power(cid, l)]
        plain = space.products[plain][cid]
    return space.set_of(chain) <= members, space.set_of(plain) <= members


def certify_content_product(
    ideal: Ideal, fs: Sequence[Polynomial], cap: int = 8
) -> ContainmentCertificate:
    """Certify the peeling chain for polynomials whose product lies in I[X].

    Preconditions: at least two polynomials, all over the ideal's ring, and
    every coefficient of their full product inside I. Raises
    CapExceededError if any peeling exponent is not found within cap.
    """
    if len(fs) < 2:
        raise ValueError("need at least two polynomials")
    ring = ideal.ring
    for f in fs:
        if f.ring is not ring:
            raise ValueError("polynomial ring does not match the ideal's ring")
    num_vars = fs[0].num_vars
    suffix: list[Polynomial] = [fs[-1]]
    for f in reversed(fs[:-1]):
        suffix.append(poly_mul(f, suffix[-1]))
    suffix.reverse()  # suffix[i] = product fs[i..]
    full = suffix[0]
    members = ideal.elements
    if any(c not in members for c in full.coefficients()):
        raise ValueError("product of the polynomials does not lie in I[X]")

    space = ideal_space(ring)
    content_ids = [space.id_of_coeffs(f.coefficients()) for f in fs]
    tails = [space.id_of_coeffs(s.coefficients()) for s in suffix]
    exponents: list[int] = []
    for i in range(len(fs) - 1):
        # f_i times suffix[i + 1] is suffix[i]
        l = space.dm_exponent(content_ids[i], tails[i + 1], tails[i], cap)
        if l is None:
            raise CapExceededError(
                f"dm exponent of factor {i} not found within cap {cap}"
            )
        exponents.append(l)

    chain_ok, final_ok = _peel(space, content_ids, exponents, members)
    return ContainmentCertificate(
        ideal=ideal,
        exponents=tuple(exponents),
        chain_containment=chain_ok,
        final_containment=final_ok,
        ideal_radical=is_radical_ideal(ideal),
    )


@dataclass(frozen=True)
class CertifySweep:
    """Sweep of certify_content_product over all (f, g) pairs up to the
    degree bound whose product lies in I[X] (ordered pairs; or a seeded
    sample when the pair space exceeds the budget).

    exp_bound_holds: every peeling exponent stayed <= max_deg + 1.
    chain_holds / final_holds: the corresponding certificate fields held
    for every qualifying pair. witness is the first failing pair, if any.
    """

    ideal: Ideal
    max_deg: int
    pairs: int
    qualifying: int
    max_exponent: int
    exp_bound_holds: bool
    chain_holds: bool
    final_holds: bool
    witness: Optional[tuple[Polynomial, Polynomial]]
    mode: str
    seed: Optional[int] = None


def certify_pair_sweep(
    ideal: Ideal,
    num_vars: int = 1,
    max_deg: int = 1,
    cap: int = 8,
    budget: int = DEFAULT_BUDGET,
    sample: int = DEFAULT_SAMPLE,
    seed: int = 0,
) -> CertifySweep:
    """Certify every bounded pair whose product lands in I[X]: a fold over
    the groups of ``_pair_groups`` whose c(fg) lies in I, which weight
    ``qualifying``. Each group's certificate is the peeling of
    certify_content_product on its content ids.
    """
    ring = ideal.ring
    slots = monomials_up_to(num_vars, max_deg)
    members = ideal.elements
    space = ideal_space(ring)

    qualifying = 0
    max_exp = 0
    exp_ok = True
    chain_ok = True
    final_ok = True
    witness: Optional[tuple[Polynomial, Polynomial]] = None

    total_pairs = ring.order ** (2 * len(slots))
    sweep = plan_sweep(total_pairs, budget, sample, seed)
    groups = _pair_groups(ring, num_vars, max_deg, sweep, members)
    for (cf, cg, cfg, _), (weight, pair) in groups.items():
        if not space.set_of(cfg) <= members:
            continue
        qualifying += weight
        l = space.dm_exponent(cf, cg, cfg, cap)
        if l is None:
            raise CapExceededError(f"dm exponent not found within cap {cap}")
        chain, final = _peel(space, (cf, cg), (l,), members)
        bounded = l <= max_deg + 1
        max_exp = max(max_exp, l)
        exp_ok = exp_ok and bounded
        chain_ok = chain_ok and chain
        final_ok = final_ok and final
        if witness is None and not (bounded and chain and final):
            witness = _to_polys(ring, num_vars, slots, pair)

    return CertifySweep(
        ideal=ideal,
        max_deg=max_deg,
        pairs=total_pairs if sweep.exhaustive else sample,
        qualifying=qualifying,
        max_exponent=max_exp,
        exp_bound_holds=exp_ok,
        chain_holds=chain_ok,
        final_holds=final_ok,
        witness=witness,
        mode=sweep.mode,
        seed=sweep.seed,
    )


# ---------------------------------------------------------------------------
# absorbing degree of I[X]: bounded violation search


@dataclass(frozen=True)
class PolyOmegaReport:
    """Bounded check that I[X] is omega(I)-absorbing in R[x_1..x_k].

    lower_witness_valid re-verifies the base witness as constant
    polynomials (their product lies in I[X] with no smaller subproduct),
    which certifies the polynomial absorbing degree is at least omega(I).
    violation, if present, is an (omega+1)-tuple of polynomials whose
    product lies in I[X] with no omega-subproduct inside, refuting the
    degree identity at these bounds.
    """

    ideal: Ideal
    max_deg: int
    omega_base: OmegaResult
    lower_witness_valid: Optional[bool]
    violation: Optional[tuple[Polynomial, ...]]
    mode: str
    checked: int
    seed: Optional[int] = None


def verify_poly_omega(
    ideal: Ideal,
    max_deg: int = 1,
    num_vars: int = 1,
    cap: int = DEFAULT_CAP,
    budget: int = DEFAULT_BUDGET,
    sample: int = DEFAULT_SAMPLE,
    seed: int = 0,
) -> PolyOmegaReport:
    """Search for (omega+1)-tuples of bounded polynomials violating the
    absorbing property of I[X]; validate the constant lower witness.

    The scan runs in (R/I)[X]. Every decision of multiset_scan and
    violates asks whether a product lies in I[X]. Reducing coefficients
    mod I is a ring homomorphism pi: R[X] -> (R/I)[X] with kernel I[X], so
    p lies in I[X] exactly when pi(p) = 0, and pi(ab) = pi(pi(a)*pi(b)).
    Nor does a unit u: uf lies in I[X] exactly when f does. The scan
    therefore asks each question of unit classes of residue polynomials
    (``_residue_table``): the candidate list and its order are those of
    the coefficient tuples and every decision is the same, so the walk,
    checked, the positions of the first violation, the mode and the seed
    are unchanged. The witness is read from the original coefficient
    tuples at those positions."""
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
    # a product of the scan has at most n+1 factors of degree <= max_deg
    slots, convolve = _convolver(ring, num_vars, max_deg, n + 1)
    rows = ring.mul_rows()
    reduce, one, table, inside, _, scan = _residue_table(
        coset_minima(ring, members), ring.zero, ring.one, ring.mul, convolve,
        [rows[u] for u in ring.units()],
    )

    witness_valid: Optional[bool] = None
    if n == 1:
        witness_valid = True  # proper ideals are at least 1-absorbing targets
    elif base.lower_witness is not None:
        # the base witness read as constant polynomials: its product lies in
        # I[X] and no (n-1)-subproduct does
        constants = [reduce((x,)) for x in base.lower_witness]
        witness_valid = len(constants) == n and violates(
            constants, one, table, inside
        )
    # exhaustive only when the whole tuple space fits the budget: the scan
    # walks (n+1)-tuples of admissible polynomials, not single polynomials
    count = _admissible_count(ring, num_vars, max_deg, members, budget)
    sweep = plan_sweep(None if count is None else count ** (n + 1), budget, sample, seed)

    witness = None
    if sweep.exhaustive:
        adm = list(_admissible_tuples(ring, slots, members))
        cands = [reduce(coeffs) for coeffs, _ in adm]
        found, checked, _ = scan(cands, n)
        if found is not None:
            witness = _to_polys(ring, num_vars, slots, [adm[i][0] for i in found])
    else:
        checked = 0
        for draw in _admissible_draws(sweep, ring, slots, n + 1, members):
            checked += 1
            tuples = [t for t, _ in draw]
            if violates([reduce(t) for t in tuples], one, table, inside):
                witness = _to_polys(ring, num_vars, slots, sorted(tuples))
                break
    return PolyOmegaReport(
        ideal, max_deg, base, witness_valid, witness, sweep.mode, checked,
        sweep.seed,
    )
