"""Ideals of finite commutative rings.

An ideal is stored as its full element set (a frozenset of indices) plus the
generators it was built from.

All ideal arithmetic goes through one registry per ring, ``IdealSpace``
(``ideal_space(ring)``): it interns element sets as ids and memoizes
I + (c), products, powers, minimal generators and the Dedekind-Mertens
exponent. Closure has one route: (c) is the ring's ``principal(c)``,
I + (c) is the union of the cosets y + I over y in (c), and the ideal
generated by a set is a fold of ``IdealSpace.extend`` from the zero ideal,
so this module never branches on the ring family; the worklist closure
that tests compare against lives in the tests. The lattice BFS, the
strong scan and the content formulas all use the registry, so
``ring.caches`` holds only the registry and the sorted lattice
(``"all_ideals"``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

from .errors import LatticeOverflowError, SpecParseError
from .rings import FiniteRing, make_quotient, take_digits

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
    """The ring's ideal registry: one id per ideal, one product, one power.

    Element sets are interned as small integer ids (the zero ideal and R
    first), and the arithmetic is memoized on ids: I + (c), which also
    builds content ideals, IJ, I^n, minimal generators and the
    Dedekind-Mertens exponent. The lattice, the strong scan and the content
    formulas share the registry of their ring (``ideal_space``), so one
    ideal has one id everywhere. Every ideal given by generators is a fold
    of ``extend`` from the zero ideal, starting from the ring's
    ``principal``; generators come from the module's ``minimal_generators``.
    """

    def __init__(self, ring: FiniteRing):
        self.ring = ring
        self._ids: dict[frozenset[int], int] = {}
        self._sets: list[frozenset[int]] = []
        self.zero_id = self.intern(frozenset({ring.zero}))
        self.full_id = self.intern(frozenset(range(ring.order)))
        self.gens: dict[int, tuple[int, ...]] = {}  # filled by minimal_generators
        self._principal: dict[int, int] = {}
        self._reps: Optional[dict[int, int]] = None
        self._extended: dict[tuple[int, int], int] = {}
        self._coeffs: dict[tuple[int, ...], int] = {}
        self._prod: dict[tuple[int, int], int] = {}
        self._pow: dict[tuple[int, int], int] = {}
        self._dm: dict[tuple[int, int, int, int], Optional[int]] = {}

    def intern(self, els: frozenset[int]) -> int:
        got = self._ids.get(els)
        if got is None:
            got = self._ids[els] = len(self._sets)
            self._sets.append(els)
        return got

    def set_of(self, ideal_id: int) -> frozenset[int]:
        return self._sets[ideal_id]

    def principal_id(self, elem: int) -> int:
        got = self._principal.get(elem)
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
        per pair of an ideal and a principal ideal. A miss needs the id of
        (c) anyway, so (c) is still interned just before I + (c)."""
        pid = self.principal_id(elem)
        key = (ideal_id, pid)
        got = self._extended.get(key)
        if got is None:
            add = self.ring.add
            base = self._sets[ideal_id]
            # I + (c) is the union of the cosets y + I over y in (c); a y
            # already covered brings no new coset
            acc = set(base)
            for y in self._sets[pid]:
                if y not in acc:
                    acc.update(add(x, y) for x in base)
            got = self._extended[key] = self.intern(frozenset(acc))
        return got

    def id_of_coeffs(self, coeffs: Sequence[int]) -> int:
        """Id of the ideal generated by the given coefficients."""
        zero = self.ring.zero
        key = tuple(sorted(set(c for c in coeffs if c != zero)))
        got = self._coeffs.get(key)
        if got is None:
            got = self.zero_id
            for c in key:
                got = self.extend(got, c)
            self._coeffs[key] = got
        return got

    def product(self, a: int, b: int) -> int:
        """IJ: generated by the products of the minimal generators."""
        key = (a, b) if a <= b else (b, a)
        got = self._prod.get(key)
        if got is None:
            ring = self.ring
            mul = ring.mul
            ga = minimal_generators(ring, self._sets[a])
            gb = minimal_generators(ring, self._sets[b])
            got = self._prod[key] = self.id_of_coeffs(
                [mul(x, y) for x in ga for y in gb]
            )
        return got

    def power(self, a: int, n: int) -> int:
        """I^n, with I^0 = R."""
        if n == 0:
            return self.full_id
        key = (a, n)
        got = self._pow.get(key)
        if got is None:
            got = a
            for _ in range(n - 1):
                got = self.product(got, a)
            self._pow[key] = got
        return got

    def dm_exponent(self, cf: int, cg: int, cfg: int, cap: int) -> Optional[int]:
        """Least n in 1..cap with c(f)^n c(g) = c(f)^(n-1) c(fg), from the
        content ids of f, g and fg; None past cap."""
        key = (cf, cg, cfg, cap)
        if key not in self._dm:
            got = None
            for n in range(1, cap + 1):
                left = self.product(self.power(cf, n), cg)
                if left == self.product(self.power(cf, n - 1), cfg):
                    got = n
                    break
            self._dm[key] = got
        return self._dm[key]


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
    """{x : x^t in I for some 1 <= t <= |R|}, with power-cycle cutoff."""
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
    # minimal_generators raises if the set fails to close (corrupt tables)
    return _from_elements(ring, frozenset(result))


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
                f"{ring.descriptor}: {len(cache)} ideals exceed cap {count_cap}",
                len(cache),
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
                            f"{ring.descriptor}: ideal count exceeds cap {count_cap}",
                            len(known),
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
