"""Ideals of finite commutative rings.

An ideal is stored as its full element set (a frozenset of indices) plus the
generators it was built from.

All ideal arithmetic goes through one registry per ring, ``IdealSpace``
(``ideal_space(ring)``): it interns element sets as ids and memoizes
I + (c), one product table (``IdealSpace.products``) that powers and
Dedekind-Mertens exponents walk, minimal generators, and one table of
x^(2^k) that decides radicals. Closure has one route: (c) is the ring's
``principal(c)``, I + (c) is the union of the cosets y + I over y in
(c), and the ideal generated by a set is a fold of ``IdealSpace.extend``
from the zero ideal, so this module never branches on the ring family;
the worklist closure that tests compare against lives in the tests. The
lattice BFS, the strong scan and the content formulas all use the
registry, so ``ring.caches`` holds only the registry and the sorted
lattice (``"all_ideals"``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

from .errors import LatticeOverflowError, SpecParseError
from .rings import TABLE_LIMIT, FiniteRing, LazyRow, make_quotient, take_digits

if TYPE_CHECKING:  # closure never depends on the ring family
    from .rings import QuotientRing

__all__ = [
    "Ideal",
    "ideal_from_generators",
    "closure_elements",
    "minimal_generators",
    "IdealSpace",
    "ideal_space",
    "ideal_radical",
    "is_radical_ideal",
    "all_ideals",
    "parse_ideal_spec",
    "ideal_spec",
    "ideal_display",
    "quotient_by",
]

DEFAULT_LATTICE_CAP = 4096


@dataclass(frozen=True)
class Ideal:
    """An ideal of a finite ring: generators plus the closed element set."""

    ring: FiniteRing
    generators: tuple[int, ...]
    elements: frozenset[int]

    @property
    def is_proper(self) -> bool:
        return len(self.elements) < self.ring.order

    @property
    def is_zero(self) -> bool:
        return len(self.elements) == 1

    def sort_key(self) -> tuple[int, tuple[int, ...]]:
        return (len(self.elements), tuple(sorted(self.elements)))

    def __le__(self, other: "Ideal") -> bool:
        return self.elements <= other.elements

    def __repr__(self) -> str:
        return f"<Ideal {ideal_display(self)} of {self.ring.descriptor}>"


def closure_elements(ring: FiniteRing, gens: Iterable[int]) -> frozenset[int]:
    """Element set of the ideal generated by gens, through the ring's
    ideal registry (``IdealSpace.id_of_coeffs``)."""
    gens = [ring.check_index(g) for g in gens]
    space = ideal_space(ring)
    return space.set_of(space.id_of_coeffs(gens))


def minimal_generators(ring: FiniteRing, elements: frozenset[int]) -> tuple[int, ...]:
    """Lexicographically least greedy generating subset of an element set.

    Deterministic: scan indices in ascending order, keep an element iff it is
    not already generated, stop once the whole set is generated. The ideal
    grows by ``IdealSpace.extend``; memoized on the ring's ideal registry.
    """
    space = ideal_space(ring)
    key = space.intern(elements)
    got = space.gens.get(key)
    if got is None:
        gens: list[int] = []
        current = space.zero_id
        for x in sorted(elements):
            if current == key:
                break
            if x not in space.set_of(current):
                gens.append(x)
                current = space.extend(current, x)
        if current != key:
            raise ValueError("element set is not an ideal")
        got = space.gens[key] = tuple(gens)
    return got


class IdealSpace:
    """The ring's ideal registry: one id per ideal, one product table.

    Element sets are interned as small integer ids (the zero ideal and R
    first), and the arithmetic is memoized on ids: I + (c), which also
    builds content ideals, minimal generators, ``products[a][b]``, the id
    of IJ, computed once per unordered pair on first read, and x^(2^k) per
    element (``radical``). I^n and every DM exponent are walks through the
    product table. The lattice, the strong scan and the content formulas
    share the registry of their ring (``ideal_space``), so one ideal has
    one id everywhere. Every ideal given by generators is a fold of
    ``extend`` from the zero ideal, starting from the ring's ``principal``;
    generators come from the module's ``minimal_generators``.
    """

    def __init__(self, ring: FiniteRing):
        self.ring = ring
        self._ids: dict[frozenset[int], int] = {}
        self._sets: list[frozenset[int]] = []
        self._sums: list[list[Optional[int]]] = []  # [I][(c)] -> I + (c)
        self._principal: list[Optional[int]] = [None] * ring.order
        self.zero_id = self.intern(frozenset({ring.zero}))
        self.full_id = self.intern(frozenset(range(ring.order)))
        self.gens: dict[int, tuple[int, ...]] = {}  # filled by minimal_generators
        self._reps: Optional[dict[int, int]] = None
        self._power: Optional[list[int]] = None  # x^(2^k), see radical
        self._factors: Optional[list[tuple[int, int]]] = None
        self._gaussian: Optional[bool] = None
        # products[I][J] -> IJ, filled on first use under both orders
        self.products = LazyRow(lambda _, a: LazyRow(self._product, a), None)
        # (num_vars, max_deg) -> content_checks' class tables, pair groups
        self.class_tables: dict[tuple[int, int], tuple[dict, dict]] = {}
        self.pair_groups: dict[tuple[int, int], dict] = {}

    def intern(self, els: frozenset[int]) -> int:
        got = self._ids.get(els)
        if got is None:
            got = self._ids[els] = len(self._sets)
            self._sets.append(els)
            self._sums.append([])
        return got

    def set_of(self, ideal_id: int) -> frozenset[int]:
        return self._sets[ideal_id]

    def principal_id(self, elem: int) -> int:
        got = self._principal[elem]
        if got is None:
            got = self._principal[elem] = self.intern(self.ring.principal(elem))
        return got

    def principal_reps(self) -> dict[int, int]:
        """The least generator of each principal ideal, keyed by the ideal's
        id and listed in ascending order of generator."""
        if self._reps is None:
            reps: dict[int, int] = {}
            for e in range(self.ring.order):
                reps.setdefault(self.principal_id(e), e)
            self._reps = reps
        return self._reps

    def extend(self, ideal_id: int, elem: int) -> int:
        """I + (elem), memoized on the ids of I and (elem).

        I + (c) depends on c only through the principal ideal (c), so every
        generator of (c) shares one entry: the memo holds at most one entry
        per pair of an ideal and a principal ideal, in the row of I at the
        id of (c). Nested ideals need no cosets: (c) <= I gives I + (c) = I,
        and I <= (c) gives (c), both ids already interned."""
        pid = self.principal_id(elem)
        row = self._sums[ideal_id]
        got = row[pid] if pid < len(row) else None
        if got is None:
            base, gen = self._sets[ideal_id], self._sets[pid]
            if gen <= base:
                got = ideal_id
            elif base <= gen:
                got = pid
            else:
                ring = self.ring
                rows = ring.add_rows() if ring.order <= TABLE_LIMIT else None
                # I + (c) is the union of the cosets y + I over y in (c); a
                # y already covered adds no coset. Kept rows are read; above
                # TABLE_LIMIT fresh lazy rows would cost more than the calls
                acc = set(base)
                for y in gen:
                    if y not in acc:
                        acc.update(map(rows[y].__getitem__, base) if rows else
                                   (ring.add(x, y) for x in base))
                got = self.intern(frozenset(acc))
            row.extend([None] * (pid + 1 - len(row)))
            row[pid] = got
        return got

    def id_of_coeffs(self, coeffs: Sequence[int]) -> int:
        """Id of the ideal generated by the coefficients: the fold
        I <- I + (c) from (0), read from the rows of ``extend``. The sum of
        ideals is associative and commutative with (0) neutral, so any
        order, with repeats and zeros, reaches the element set
        (c_1) + ... + (c_k) and its one id."""
        principal = self._principal
        sums = self._sums
        got = self.zero_id
        for c in coeffs:
            pid = principal[c]
            row = sums[got]
            nxt = row[pid] if pid is not None and pid < len(row) else None
            got = self.extend(got, c) if nxt is None else nxt
        return got

    def radical(self, members: frozenset[int]) -> frozenset[int]:
        """rad(I) = {x : x^t in I for some t >= 1} = {x : x^(2^k) in I},
        with 2^k >= bit_length(|R|): x^(2^k) is tabled once, by k squarings
        of the diagonal of one ``mul_rows()`` read.

        In each local factor Re (``factors``) xe is a unit, and so are all
        its powers, or nilpotent of index at most bit_length(|R|). So for
        s >= 2^k the nilpotent parts of x^s vanish and Rx^s = Rf, f the sum
        of the e where xe is a unit: x^t in I gives x^(t 2^k), so x^(2^k), in I."""
        if self._power is None:
            ring = self.ring
            rows = ring.mul_rows()
            square = [rows[x][x] for x in range(ring.order)]
            power, reach = square, 2  # power[x] = x^reach
            while reach < ring.order.bit_length():
                power, reach = [square[p] for p in power], 2 * reach
            self._power = power
        return frozenset(x for x, p in enumerate(self._power) if p in members)

    def factors(self) -> list[tuple[int, int]]:
        """(e, id of m = Re ∩ nil(R)) per primitive idempotent e, ascending:
        the local factors Re of R = prod Re and their maximal ideals, with
        nil(R) the radical of (0).

        Primitive e (no idempotent f but 0, e has ef = f) are orthogonal (ef
        lies under both) and sum to 1 (1 - sum has none under it). A power
        of x in Re is 0 or e, so x is nilpotent or a unit: Re is local. If
        x^t = 0, t least, Rx > Rx^2 > ... > Rx^t = 0 is strict (Rx^i =
        Rx^(i+1) gives x^i = r^t x^(i+t)) and halves each step, so
        t <= log2|R| + 1, which ``radical`` relies on."""
        if self._factors is None:
            ring = self.ring
            rows = ring.mul_rows()
            idempotents = [e for e in range(ring.order) if rows[e][e] == e != ring.zero]
            nil = self.radical(self.set_of(self.zero_id))
            self._factors = [
                (e, self.intern(self.set_of(self.principal_id(e)) & nil))
                for e in idempotents
                if not any(f != e and rows[e][f] == f for f in idempotents)
            ]
        return self._factors

    def gaussian(self) -> bool:
        """Whether R is certified Gaussian, c(fg) = c(f)c(g) for all f, g
        in R[x_1..x_k]: each local factor's m of ``factors()`` has m^2 = 0
        or is principal, the latter tested as (x) = m for x = min(m - m^2).
        False means not certified, never not Gaussian.

        A proper content of R e lies in m, and c(f) = R e gives
        c(fg) = c(g) by Dedekind-Mertens (in any number of variables, by
        Kronecker substitution). If m = (t), any x in m - m^2 is ut with u
        not in m, a unit (Nakayama), so (x) = m. Every element is then a
        unit times a power of t, so f = af1 with (a) = c(f), c(f1) = R e,
        and DM gives c(f1g1) = c(g1) = R e: c(fg) = (ab) = c(f)c(g). If
        m^2 = 0 and neither content is R e, c(fg) <= c(f)c(g) <= m^2 = 0.
        R[X] is the product of the (R e)[X], and contents split
        componentwise."""
        if self._gaussian is None:
            sets, products = self._sets, self.products
            self._gaussian = all(
                products[m][m] == self.zero_id
                or self.principal_id(min(sets[m] - sets[products[m][m]])) == m
                for _, m in self.factors()
            )
        return self._gaussian

    def _product(self, a: int, b: int) -> int:
        """IJ: generated by the products of the minimal generators. Stored
        under (b, a) as well, since IJ = JI; ``products`` stores (a, b)."""
        ring = self.ring
        ga = minimal_generators(ring, self._sets[a])
        gb = minimal_generators(ring, self._sets[b])
        rows = ring.mul_rows() if ring.order <= TABLE_LIMIT else None
        got = self.products[b][a] = self.id_of_coeffs(
            [rows[x][y] if rows else ring.mul(x, y) for x in ga for y in gb]
        )
        return got

    def power(self, a: int, n: int) -> int:
        """I^n, with I^0 = R: n reads of the product table from R."""
        got = self.full_id
        for _ in range(n):
            got = self.products[got][a]
        return got

    def dm_exponent(self, cf: int, cg: int, cfg: int, cap: int) -> Optional[int]:
        """Least n in 1..cap with c(f)^n c(g) = c(f)^(n-1) c(fg), from the
        content ids of f, g and fg; None past cap. p = c(f)^(n-1) steps to
        q = c(f)^n through the product table."""
        products, p = self.products, self.full_id
        for n in range(1, cap + 1):
            q = products[p][cf]
            if products[q][cg] == products[p][cfg]:
                return n
            p = q
        return None


def ideal_space(ring: FiniteRing) -> IdealSpace:
    """The ring's ideal registry, made on first use."""
    space = ring.caches.get("ideal_space")
    if space is None:
        space = ring.caches["ideal_space"] = IdealSpace(ring)
    return space


def ideal_from_generators(ring: FiniteRing, gens: Iterable[int]) -> Ideal:
    """The ideal generated by the given element indices."""
    gens = tuple(sorted(set(gens)))
    elements = closure_elements(ring, gens)
    return Ideal(ring, gens, elements)


def _from_elements(ring: FiniteRing, elements: frozenset[int]) -> Ideal:
    return Ideal(ring, minimal_generators(ring, elements), elements)


def ideal_radical(ideal: Ideal) -> Ideal:
    """{x : x^t in I for some t >= 1}, from ``IdealSpace.radical``."""
    ring = ideal.ring
    # minimal_generators raises if the set fails to close (corrupt tables)
    return _from_elements(ring, ideal_space(ring).radical(ideal.elements))


def is_radical_ideal(ideal: Ideal) -> bool:
    return ideal_radical(ideal).elements == ideal.elements


def all_ideals(ring: FiniteRing, count_cap: int = DEFAULT_LATTICE_CAP) -> list[Ideal]:
    """Every ideal of the ring, sorted by (cardinality, element tuple).

    BFS over principal-ideal extensions: start from (0), repeatedly extend
    by one principal ideal (``IdealSpace.extend``) until no new element
    sets appear. Raises
    LatticeOverflowError when more than count_cap ideals are found.
    """
    cache = ring.caches.get("all_ideals")
    if cache is not None:
        if len(cache) > count_cap:
            raise LatticeOverflowError(
                f"{ring.descriptor}: {len(cache)} ideals exceed cap {count_cap}"
            )
        return list(cache)
    space = ideal_space(ring)
    reps = space.principal_reps().values()
    known = {space.zero_id}
    frontier = [space.zero_id]
    while frontier:
        new_frontier = []
        for current in frontier:
            members = space.set_of(current)
            for e in reps:
                if e in members:  # (e) is inside current: nothing to add
                    continue
                combined = space.extend(current, e)
                if combined not in known:
                    known.add(combined)
                    if len(known) > count_cap:
                        raise LatticeOverflowError(
                            f"{ring.descriptor}: ideal count exceeds cap {count_cap}"
                        )
                    new_frontier.append(combined)
        frontier = new_frontier
    result = [_from_elements(ring, space.set_of(i)) for i in known]
    result.sort(key=Ideal.sort_key)
    ring.caches["all_ideals"] = tuple(result)
    return list(result)


def parse_ideal_spec(ring: FiniteRing, text: str) -> Ideal:
    """Parse the exact ideal spec grammar: gen:none | gen:i1,i2,..."""
    if text == "gen:none":
        return ideal_from_generators(ring, ())
    if not text.startswith("gen:"):
        raise SpecParseError("ideal spec must start with gen:", text, 0)
    body = text[4:]
    if not body:
        raise SpecParseError("empty generator list (use gen:none)", text, 4)
    gens = []
    for part in body.split(","):
        idx, end = take_digits(part, 0)
        if idx is None or end != len(part):
            raise SpecParseError(f"bad generator index {part!r}", text, 4)
        if idx >= ring.order:
            raise SpecParseError(
                f"generator {idx} out of range for {ring.descriptor}", text, 4
            )
        gens.append(idx)
    return ideal_from_generators(ring, gens)


def ideal_spec(ideal: Ideal) -> str:
    """Canonical spec string (minimal generators): gen:none or gen:i1,i2."""
    gens = minimal_generators(ideal.ring, ideal.elements)
    if not gens:
        return "gen:none"
    return "gen:" + ",".join(str(g) for g in gens)


def ideal_display(ideal: Ideal) -> str:
    """Human display: (g1,g2) with element display syntax, (0) for zero."""
    gens = minimal_generators(ideal.ring, ideal.elements)
    if not gens:
        return "(0)"
    return "(" + ",".join(ideal.ring.display(g) for g in gens) + ")"


def quotient_by(ideal: Ideal) -> QuotientRing:
    """R/I as a table ring (proper ideals only)."""
    return make_quotient(ideal.ring, ideal.elements, ideal_spec(ideal))
