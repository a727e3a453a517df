"""Finite commutative ring kernel.

Every ring is presented on the canonical index set 0..order-1 with
structured arithmetic per family:

* ``zmod:N``        residues mod N, index = residue;
* ``prod:A,B``      pairs, index = a * |B| + b (lexicographic encoding);
* ``trunc:p=P,vars=K,nil=E``
                    F_p[x_1..x_K] / m^E, elements are coefficient vectors
                    over the monomials of total degree < E listed in
                    graded-lex order; index = base-p digits over that list,
                    little-endian (digit i multiplies p^i);
* quotient rings    table rings on coset representatives (least index).

Up to TABLE_LIMIT (256) a ring builds its operation rows once as bytes,
one byte per element, with no ``add``/``mul`` call (``_tables``: slices
on zmod, translates of the factors' rows on a product and of earlier
rows on trunc; a table ring keeps the lists it is given). Every scan
reads the rows that ``verify_ring_axioms`` checked, and the check reads
byte rows as they are. Above the limit rows fill lazily and the axioms
go unchecked. The ideal generated by c is
``principal(c)``, the set Rc; c is a unit iff 1 is in Rc. Constructors
self-test and refuse orders above the configurable cap. An element is
named only by its index: ``display`` gives the form that reports print,
and no element literal is parsed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .errors import CapExceededError, RingConstructionError, SpecParseError

__all__ = [
    "DEFAULT_ORDER_CAP",
    "TABLE_LIMIT",
    "FiniteRing",
    "LazyRow",
    "ZmodRing",
    "ProductRing",
    "TruncatedLocalRing",
    "TableRing",
    "QuotientRing",
    "AxiomReport",
    "coset_minima",
    "grlex_key",
    "monomials_up_to",
    "make_zmod",
    "make_product",
    "make_truncated_local",
    "make_quotient",
    "prime_factors",
    "verify_ring_axioms",
    "parse_ring_spec",
]

DEFAULT_ORDER_CAP = 4096
TABLE_LIMIT = 256
TRIAL_DIVISION_LIMIT = 10**7

_VAR_LETTERS = ("x", "y", "z", "w")


def var_names(k: int) -> tuple[str, ...]:
    """Display names for k polynomial variables: x, y, z, w, then x1..xk."""
    if k <= len(_VAR_LETTERS):
        return _VAR_LETTERS[:k]
    return tuple(f"x{i + 1}" for i in range(k))


def take_digits(text: str, pos: int) -> tuple[Optional[int], int]:
    """(value, end) of the run of ASCII digits at text[pos:]; the value is
    None when there is no digit there. Only 0-9 count: ``str.isdigit``
    also accepts characters such as superscript two, which ``int`` rejects."""
    end = pos
    while end < len(text) and "0" <= text[end] <= "9":
        end += 1
    return (int(text[pos:end]) if end > pos else None), end


class LazyRow(dict):
    """Row a of the table of a binary operation, row[b] = op(a, b), each
    entry computed on first use."""

    __slots__ = ("op", "a")

    def __init__(self, op: Callable[[int, int], int], a: int):
        super().__init__()
        self.op = op
        self.a = a

    def __missing__(self, b: int) -> int:
        got = self[b] = self.op(self.a, b)
        return got


class FiniteRing:
    """A finite commutative unital ring on element indices 0..order-1.

    Subclasses implement ``add``, ``mul`` and ``display``.
    Instances are immutable after construction; the ``caches`` dict is
    internal memo space shared by the ideal and content machinery and
    never changes observable behaviour.
    """

    def __init__(self, order: int, descriptor: str, zero: int, one: int):
        if order < 2:
            raise RingConstructionError(f"ring order must be >= 2, got {order}")
        self.order = order
        self.descriptor = descriptor
        self.zero = zero
        self.one = one
        self._add_rows: Optional[list] = None
        self._mul_rows: Optional[list] = None
        self._units: Optional[frozenset[int]] = None
        self.caches: dict = {}

    # arithmetic hooks -------------------------------------------------

    def add(self, i: int, j: int) -> int:
        raise NotImplementedError

    def mul(self, i: int, j: int) -> int:
        raise NotImplementedError

    def _tables(self) -> tuple[list[bytes], list[bytes]]:
        """The full addition and multiplication rows as bytes, built without
        calling ``add`` or ``mul``; only for order <= TABLE_LIMIT."""
        raise NotImplementedError

    # derived structure ------------------------------------------------

    @property
    def elements(self) -> range:
        return range(self.order)

    def add_rows(self) -> list:
        """Rows of the addition table, row[a][b] = a + b: up to TABLE_LIMIT
        the full table, built once by ``_tables`` and kept (bytes, or a table
        ring's given lists); above it fresh rows filled on first use, never kept."""
        if self._add_rows is None:
            if self.order > TABLE_LIMIT:
                return [LazyRow(self.add, a) for a in range(self.order)]
            self._add_rows, self._mul_rows = self._tables()
        return self._add_rows

    def mul_rows(self) -> list:
        """Rows of the multiplication table, as for add_rows."""
        if self._mul_rows is None:
            if self.order > TABLE_LIMIT:
                return [LazyRow(self.mul, a) for a in range(self.order)]
            self._add_rows, self._mul_rows = self._tables()
        return self._mul_rows

    def principal(self, c: int) -> frozenset[int]:
        """The ideal generated by c. In a commutative ring with 1 it is
        Rc = {r * c}, so it is row c of the multiplication table; above
        TABLE_LIMIT, without kept rows, it is taken by method calls."""
        if self._mul_rows is None and self.order > TABLE_LIMIT:
            mul = self.mul
            return frozenset([mul(c, r) for r in range(self.order)])
        return frozenset(self.mul_rows()[c])

    def units(self) -> frozenset[int]:
        """Indices of invertible elements, by ``_is_unit``."""
        if self._units is None:
            self._units = frozenset(c for c in self.elements if self._is_unit(c))
        return self._units

    def _is_unit(self, c: int) -> bool:
        """c is a unit iff 1 lies in Rc."""
        return self.one in self.principal(c)

    # presentation -----------------------------------------------------

    def display(self, i: int) -> str:
        raise NotImplementedError

    def check_index(self, i: int) -> int:
        if not isinstance(i, int) or not 0 <= i < self.order:
            raise ValueError(f"element index {i!r} out of range for {self.descriptor}")
        return i

    def __repr__(self) -> str:
        return f"<FiniteRing {self.descriptor} order={self.order}>"


class ZmodRing(FiniteRing):
    """Integers modulo n; element index equals the residue."""

    def __init__(self, n: int):
        super().__init__(n, f"zmod:{n}", 0, 1)
        self.modulus = n

    def add(self, i: int, j: int) -> int:
        return (i + j) % self.modulus

    def mul(self, i: int, j: int) -> int:
        return (i * j) % self.modulus

    def _tables(self) -> tuple[list[bytes], list[bytes]]:
        """With R = bytes(range(n)): row a of + is R[a:] + R[:a], whose entry
        b is a + b for b < n - a and a + b - n after. With L = R * (n//2 + 1),
        L[k] = k mod n, so row 0 < a <= n/2 of * is L[0:a*n:a], whose entry
        b is L[ab] = ab mod n (ab <= n(n-1)/2); row 0 is zeros. Row n - a is
        row a reflected, row[:1] + row[:0:-1]: (n-a)b = a(n-b) mod n."""
        n = self.modulus
        R = bytes(range(n))
        L = R * (n // 2 + 1)
        mul = [bytes(n)] + [L[0 : a * n : a] for a in R[1 : n // 2 + 1]]
        mul += [row[:1] + row[:0:-1] for row in mul[n - len(mul) : 0 : -1]]
        return [R[a:] + R[:a] for a in R], mul

    def principal(self, c: int) -> frozenset[int]:
        """The multiples of gcd(c, n), which generates the same ideal as c."""
        return frozenset(range(0, self.modulus, math.gcd(c, self.modulus)))

    def _is_unit(self, c: int) -> bool:
        return math.gcd(c, self.modulus) == 1

    def display(self, i: int) -> str:
        return str(i)

class ProductRing(FiniteRing):
    """Direct product A x B with componentwise operations.

    Index encoding is lexicographic: index = a * |B| + b.
    """

    def __init__(self, left: FiniteRing, right: FiniteRing):
        self.left = left
        self.right = right
        order = left.order * right.order
        one = left.one * right.order + right.one
        super().__init__(order, f"prod:{left.descriptor},{right.descriptor}", 0, one)

    def encode(self, a: int, b: int) -> int:
        return a * self.right.order + b

    def decode(self, i: int) -> tuple[int, int]:
        return divmod(i, self.right.order)

    def add(self, i: int, j: int) -> int:
        a1, b1 = divmod(i, self.right.order)
        a2, b2 = divmod(j, self.right.order)
        return self.left.add(a1, a2) * self.right.order + self.right.add(b1, b2)

    def mul(self, i: int, j: int) -> int:
        a1, b1 = divmod(i, self.right.order)
        a2, b2 = divmod(j, self.right.order)
        return self.left.mul(a1, a2) * self.right.order + self.right.mul(b1, b2)

    def _tables(self) -> tuple[list, list]:
        """Row a*|B| + b of an operation holds (a op x)*|B| + (b op y) at
        x*|B| + y, the componentwise op in the lexicographic encoding. With
        shift[v] the bytes v*|B| + y at y < |B|, padded to 256, block x of
        that row is rr.translate(shift[lr[x]]) for rows lr = a, rr = b of the
        factors: a row joins |A| blocks, one translate per (rr, v). A factor
        entry out of range (only an unchecked table ring holds one) makes the
        entries integers, for the axiom scan to name."""
        A, B, L, R = self.left.order, self.right.order, self.left, self.right
        shift = [bytes(range(v * B, v * B + B)) + bytes(256 - B) for v in range(A)]
        tables = []
        for left, right in ((L.add_rows(), R.add_rows()), (L.mul_rows(), R.mul_rows())):
            try:  # bytes() raises ValueError outside 0..255
                lb, rb = [bytes(r) for r in left], [bytes(r) for r in right]
                if max(map(max, lb)) >= A or max(map(max, rb)) >= B:
                    raise ValueError
                blocks = [[rr.translate(s) for s in shift] for rr in rb]
                tables.append([b"".join(map(bl.__getitem__, lr)) for lr in lb for bl in blocks])
            except ValueError:
                tables.append([[x * B + y for x in lr for y in rr] for lr in left for rr in right])
        return tuple(tables)  # type: ignore[return-value]

    def display(self, i: int) -> str:
        a, b = divmod(i, self.right.order)
        return f"({self.left.display(a)},{self.right.display(b)})"

class TruncatedLocalRing(FiniteRing):
    """F_p[x_1..x_k] / m^e where m = (x_1, .., x_k), a finite local ring.

    Elements are F_p coefficient vectors over the monomials of total degree
    below e, listed in graded-lex order (by total degree, then ascending
    exponent tuple); index = sum(digit_i * p^i).
    """

    def __init__(self, p: int, k: int, e: int):
        monos = monomials_up_to(k, e - 1)
        order = p ** len(monos)
        super().__init__(order, f"trunc:p={p},vars={k},nil={e}", 0, 1)
        self.p = p
        self.monomials = monos
        mono_pos = {m: i for i, m in enumerate(monos)}
        # slot of the product of monomials i and j; -1 past the truncation
        self._posmap = [
            [mono_pos.get(tuple(map(sum, zip(mi, mj))), -1) for mj in monos] for mi in monos
        ]
        # product() runs the last slot fastest, so reversed it is little-endian
        self._digit_cache = [d[::-1] for d in itertools.product(range(p), repeat=len(monos))]
        self._names = var_names(k)

    def _tables(self) -> tuple[list[bytes], list[bytes]]:
        """The add and mul rows as bytes, built by ``bytes.translate``.

        With s = p^k and e_k the monomial at slot k, b -> b + e_k raises
        digit k of b by one mod p: ``step`` rotates each block of p*s
        indices by s. For a in [s, p*s), a + b = (a - s) + (b + e_k), so row
        a of + is step read through row a - s.

        Multiplication by a is F_p-linear, so its row is fixed by v_j =
        a*e_j: it maps c + d*p^j (c < p^j, d < p) to r[c] + d*v_j, r the row
        below p^j, so the row below p^(j+1) joins r read d = 0..p-1 times
        through the add row of v_j. The row of e_i has v_j = e_i*e_j, a
        monomial or 0 past the truncation (``_posmap``); a*e_j = e_j*a is
        entry a of that row."""
        p, n = self.p, self.order
        powers = [p**k for k in range(len(self.monomials))]
        R, pad = bytes(range(n)), bytes(256 - n)
        padded = [R + pad]  # the add rows, padded to translate through
        for s in powers:
            step = b"".join(R[o + s : o + p * s] + R[o : o + s] for o in range(0, n, p * s))
            for a in range(s, p * s):
                padded.append(step.translate(padded[a - s]) + pad)

        def linear(images) -> bytes:
            row = bytes(1)
            for v in images:
                reads = itertools.accumulate([padded[v]] * (p - 1), bytes.translate, initial=row)
                row = b"".join(reads)
            return row

        basis = [linear([powers[q] if q >= 0 else 0 for q in row]) for row in self._posmap]
        return [row[:n] for row in padded], [linear([r[a] for r in basis]) for a in range(n)]

    def encode(self, digits: Sequence[int]) -> int:
        idx = 0
        for d in reversed(digits):
            idx = idx * self.p + d
        return idx

    def add(self, i: int, j: int) -> int:
        p = self.p
        da, db = self._digit_cache[i], self._digit_cache[j]
        return self.encode([(a + b) % p for a, b in zip(da, db)])

    def mul(self, i: int, j: int) -> int:
        p = self.p
        da, db = self._digit_cache[i], self._digit_cache[j]
        posmap = self._posmap
        acc = [0] * len(da)
        for a, va in enumerate(da):
            if va:
                row = posmap[a]
                for b, vb in enumerate(db):
                    if vb:
                        pos = row[b]
                        if pos >= 0:
                            acc[pos] = (acc[pos] + va * vb) % p
        return self.encode(acc)

    def _is_unit(self, c: int) -> bool:
        """The ring is local and its maximal ideal, the nilpotent ideal
        (x_1, .., x_k), holds the elements with constant digit 0; every
        element outside it is a unit. The constant digit is index mod p."""
        return c % self.p != 0

    def _mono_str(self, mono: tuple[int, ...]) -> str:
        return "".join(v if e == 1 else f"{v}^{e}" for v, e in zip(self._names, mono) if e)

    def display(self, i: int) -> str:
        terms = []
        for pos, d in enumerate(self._digit_cache[i]):
            if d == 0:
                continue
            mono = self.monomials[pos]
            if sum(mono) == 0:
                terms.append(str(d))
            elif d == 1:
                terms.append(self._mono_str(mono))
            else:
                terms.append(f"{d}{self._mono_str(mono)}")
        return "+".join(terms) if terms else "0"

class TableRing(FiniteRing):
    """A ring given by explicit operation tables.

    Used for quotient rings and for test fixtures. The given tables, kept
    as lists, are its ``add_rows``/``mul_rows`` at any order. Unlike the
    structured constructors it performs no axiom self-test, so corrupted
    tables can be built and handed to verify_ring_axioms.
    """

    def __init__(
        self,
        add_rows: Sequence[Sequence[int]],
        mul_rows: Sequence[Sequence[int]],
        zero: int,
        one: int,
        descriptor: str,
        displays: Optional[Sequence[str]] = None,
    ):
        order = len(add_rows)
        super().__init__(order, descriptor, zero, one)
        self._add_rows = [list(row) for row in add_rows]
        self._mul_rows = [list(row) for row in mul_rows]
        rows = self._add_rows + self._mul_rows
        if len(rows) != 2 * order or any(len(r) != order for r in rows):
            raise RingConstructionError(
                f"operation tables must both be {order} x {order}"
            )
        if not (0 <= zero < order and 0 <= one < order):
            raise RingConstructionError(
                f"zero {zero} and one {one} must be indices 0..{order - 1}"
            )
        self._displays = list(displays) if displays is not None else [str(i) for i in range(order)]
        if len(self._displays) != order:
            raise RingConstructionError(
                f"{len(self._displays)} displays for {order} elements"
            )

    def add(self, i: int, j: int) -> int:
        return self._add_rows[i][j]

    def mul(self, i: int, j: int) -> int:
        return self._mul_rows[i][j]

    def display(self, i: int) -> str:
        return self._displays[i]


def coset_minima(ring: FiniteRing, ideal_elements) -> list[int]:
    """rep[x] = the least index of the coset x + I, for every x of the ring.

    The indices are walked in ascending order; the first one of a coset
    not yet assigned is its minimum, and assigns its whole coset, so the
    walk takes O(|R|) additions in all. Cosets of an additive subgroup are
    disjoint, so an element assigned twice means ideal_elements is not
    one, which raises RingConstructionError."""
    rep = [-1] * ring.order
    add = ring.add
    for x in range(ring.order):
        if rep[x] < 0:
            for i in ideal_elements:
                y = add(x, i)
                if rep[y] >= 0:
                    raise RingConstructionError(
                        "ideal element set is not an additive subgroup"
                    )
                rep[y] = x
    return rep


class QuotientRing(TableRing):
    """R/I as a table ring on least-index coset representatives."""

    def __init__(self, parent: FiniteRing, ideal_elements: frozenset[int], label: str):
        project_rep = coset_minima(parent, ideal_elements)
        reps = [x for x, rep in enumerate(project_rep) if rep == x]
        index_of = {rep: i for i, rep in enumerate(reps)}
        project = [index_of[rep] for rep in project_rep]
        A, M = parent.add_rows(), parent.mul_rows()
        displays = [parent.display(rep) for rep in reps]
        super().__init__(
            [[project[A[r][s]] for s in reps] for r in reps],
            [[project[M[r][s]] for s in reps] for r in reps],
            project[parent.zero],
            project[parent.one],
            f"quot:{parent.descriptor}/{label}",
            displays,
        )
        self.parent = parent
        self.reps = tuple(reps)
        self.project = tuple(project)


@dataclass(frozen=True)
class AxiomReport:
    """Outcome of verify_ring_axioms: pass, or the first violated axiom."""

    ok: bool
    checked: bool
    axiom: Optional[str] = None
    witness: Optional[tuple[int, ...]] = None


def verify_ring_axioms(ring: FiniteRing) -> AxiomReport:
    """Check the commutative ring axioms on the ring's own operation rows
    (``add_rows``/``mul_rows``) for order <= TABLE_LIMIT; larger rings
    report checked=False.

    Axioms are checked in a fixed documented order and the first violation
    is returned with its lexicographically least witness: index range,
    zero != one, additive commutativity, zero identity, additive inverses,
    additive associativity, multiplicative commutativity, one identity,
    multiplicative associativity, distributivity.

    The three cubic axioms are first checked only with their middle
    argument in an additive generating set G (``_additive_generators``),
    which costs O(|G|·n²) instead of O(n³): (x+g)+y = x+(g+y),
    (xg)y = x(gy) and x(g+y) = xg + xy for g in G and all x, y. If that
    pass finds nothing, every axiom holds; otherwise the full scan runs
    and names the first violation, so reports are those of the full scan.

    Why the pass is sound, given the quadratic axioms it checks first:

    * L = {a : (x+a)+y = x+(a+y) for all x, y} is closed under + (Light's
      associativity test: for a, b in L, (x+(a+b))+y = ((x+a)+b)+y =
      (x+a)+(b+y) = x+(a+(b+y)) = x+((a+b)+y)). L holds 0 and G, and
      every element is reached from 0 by adding generators, so L = R.
    * (R, +) is now a finite abelian group, so every element, 0 included,
      is a nonempty sum of generators (g added to itself ord(g) times is 0).
    * Fix x; E_x = {y : x(y+z) = xy + xz for all z} is closed under +:
      x((y+y')+z) = x(y+(y'+z)) = xy + (xy' + xz) = (xy + xy') + xz
      = x(y+y') + xz. E_x holds G, so E_x = R.
    * N = {a : (xa)y = x(ay) for all x, y} is closed under + by
      distributivity, both sides by commutativity: (x(a+b))y =
      (xa)y + (xb)y = x(ay) + x(by) = x((a+b)y). N holds G, so N = R.

    Each identity of the pass is an instance of an axiom, so a failure
    there is a real violation and the full scan finds one.

    Rows are compared as ``bytes``, one byte per element (n <= TABLE_LIMIT
    <= 256). ``bytes`` raises ValueError on an entry outside 0..255, and
    deleting the bytes 0..n-1 from the joined rows leaves nothing iff every
    entry is below n; if either fails, an entry loop names the closure
    violation. Past closure every byte x is below n, and ``translate`` maps
    x to T[x], with T[i] row i padded to 256 bytes, so B[j].translate(T[i])
    is [A[i][x] for x in A[j]] entry by entry; column i is the slice
    [i::n] of the joined rows. So each byte comparison is the entry-wise
    comparison of the rows, with the same first difference.
    """
    if ring.order > TABLE_LIMIT:
        return AxiomReport(ok=True, checked=False)
    report = _axiom_scan(ring, generated=True)
    return report if report.ok else _axiom_scan(ring, generated=False)


def _additive_generators(A: list, zero: int) -> list[int]:
    """A greedy additive generating set read off the addition rows A: each
    element not yet reached, in index order, becomes a generator, and the
    reached set (at first {zero}) is closed under x -> g + x for every
    generator g. Gives {1} on zmod, {1, |B|} on a product of two zmods
    and the monomial basis on truncated rings."""
    reached = [False] * len(A)
    reached[zero] = True
    gens: list[int] = []
    for c in range(len(A)):
        if reached[c]:
            continue
        gens.append(c)
        stack = [x for x, hit in enumerate(reached) if hit]
        while stack:
            x = stack.pop()
            for g in gens:
                y = A[g][x]
                if not reached[y]:
                    reached[y] = True
                    stack.append(y)
    return gens


def _first_diff(left: Sequence[int], right: Sequence[int]) -> int:
    return next(k for k, (a, b) in enumerate(zip(left, right)) if a != b)


def _axiom_scan(ring: FiniteRing, generated: bool) -> AxiomReport:
    """The lexicographic axiom scan of verify_ring_axioms on the byte rows
    B (+) and C (*), k running inside one row comparison; with
    generated=True the middle index j runs over ``_additive_generators``.
    ``bytes`` returns kept byte rows unchanged; a table ring's are converted."""
    n = ring.order
    rng = range(n)
    A, M = ring.add_rows(), ring.mul_rows()

    def fail(axiom: str, *witness: int) -> AxiomReport:
        return AxiomReport(False, True, axiom, witness)

    try:
        B, C = [bytes(r) for r in A], [bytes(r) for r in M]
        flat_a, flat_m = b"".join(B), b"".join(C)
        closed = not (flat_a + flat_m).translate(None, bytes(rng))
    except ValueError:  # an entry outside 0..255
        closed = False
    if not closed:  # the first entry outside 0..n-1, + before * at each (i, j)
        return next(fail(f"closure-{op}", i, j) for i, j in itertools.product(rng, rng)
                    for op, rows in (("add", A), ("mul", M)) if not 0 <= rows[i][j] < n)
    if ring.zero == ring.one:
        return fail("zero-ne-one")
    z, e, identity = ring.zero, ring.one, bytes(rng)
    for i, row in enumerate(B):
        if row != flat_a[i::n]:  # column i
            return fail("add-commutative", i, _first_diff(row, flat_a[i::n]))
    if B[z] != identity:
        return fail("zero-identity", _first_diff(B[z], identity))
    for i in rng:
        if z not in A[i]:
            return fail("additive-inverse", i)
    middles = _additive_generators(A, z) if generated else rng
    pad = bytes(256 - n)  # empty at n = 256, where row + pad is the row
    TA, TM = [row + pad for row in B], [row + pad for row in C]
    # (i + j) + k == i + (j + k)
    for i, j in itertools.product(rng, middles):
        left, right = B[A[i][j]], B[j].translate(TA[i])
        if left != right:
            return fail("add-associative", i, j, _first_diff(left, right))
    for i, row in enumerate(C):
        if row != flat_m[i::n]:
            return fail("mul-commutative", i, _first_diff(row, flat_m[i::n]))
    if C[e] != identity:
        return fail("one-identity", _first_diff(C[e], identity))
    # (i * j) * k == i * (j * k)
    for i, j in itertools.product(rng, middles):
        left, right = C[M[i][j]], C[j].translate(TM[i])
        if left != right:
            return fail("mul-associative", i, j, _first_diff(left, right))
    # i * (j + k) == i*j + i*k
    for i, j in itertools.product(rng, middles):
        left, right = B[j].translate(TM[i]), C[i].translate(TA[M[i][j]])
        if left != right:
            return fail("distributive", i, j, _first_diff(left, right))
    return AxiomReport(ok=True, checked=True)


def _self_check(ring: FiniteRing) -> FiniteRing:
    report = verify_ring_axioms(ring)
    if report.checked and not report.ok:
        raise RingConstructionError(
            f"{ring.descriptor}: axiom {report.axiom} violated at {report.witness}"
        )
    return ring


def make_zmod(n: int, order_cap: int = DEFAULT_ORDER_CAP) -> ZmodRing:
    """The ring of integers modulo n, for n >= 2."""
    if n < 2:
        raise RingConstructionError(f"zmod modulus must be >= 2, got {n}")
    if n > order_cap:
        raise RingConstructionError(f"order {n} exceeds cap {order_cap}")
    return _self_check(ZmodRing(n))  # type: ignore[return-value]


def make_product(left: FiniteRing, right: FiniteRing, order_cap: int = DEFAULT_ORDER_CAP) -> ProductRing:
    """Direct product of two rings with lexicographic index encoding."""
    if left.order * right.order > order_cap:
        raise RingConstructionError(
            f"order {left.order * right.order} exceeds cap {order_cap}"
        )
    return _self_check(ProductRing(left, right))  # type: ignore[return-value]


def prime_factors(m: int) -> tuple[int, ...]:
    """The prime factors of m >= 1 with multiplicity, ascending, by trial
    division with divisors below TRIAL_DIVISION_LIMIT. A cofactor left
    with no divisor below the limit is 1 or prime when it is below
    (TRIAL_DIVISION_LIMIT + 1)^2, so every m below 10**14 factors; a larger
    one could be composite and raises CapExceededError."""
    out, n = [], m
    for d in itertools.chain((2,), range(3, TRIAL_DIVISION_LIMIT, 2)):
        if d * d > n:
            break
        while n % d == 0:
            out.append(d)
            n //= d
    else:
        if n >= (TRIAL_DIVISION_LIMIT + 1) ** 2:
            raise CapExceededError(
                f"cannot factor {m}: trial division stops at {TRIAL_DIVISION_LIMIT}"
            )
    if n > 1:
        out.append(n)
    return tuple(out)


def grlex_key(exp: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """Graded-lex sort key: total degree first, then the exponent tuple."""
    return (sum(exp), exp)


def monomials_up_to(num_vars: int, max_deg: int) -> tuple[tuple[int, ...], ...]:
    """All exponent vectors of total degree <= max_deg, graded-lex sorted."""
    monos = itertools.product(range(max_deg + 1), repeat=num_vars)
    return tuple(sorted((m for m in monos if sum(m) <= max_deg), key=grlex_key))


def make_truncated_local(
    p: int, k: int, e: int, order_cap: int = DEFAULT_ORDER_CAP
) -> TruncatedLocalRing:
    """F_p[x_1..x_k]/m^e: the truncated polynomial local ring."""
    if k < 1:
        raise RingConstructionError(f"vars must be >= 1, got {k}")
    if e < 2:
        raise RingConstructionError(f"nil exponent must be >= 2, got {e}")
    count = len(monomials_up_to(k, e - 1))
    order = p**count
    if order > order_cap:
        raise RingConstructionError(f"order {order} exceeds cap {order_cap}")
    # after the cap, so p is small enough to factor
    if not (p >= 2 and prime_factors(p) == (p,)):
        raise RingConstructionError(f"p must be prime, got {p}")
    return _self_check(TruncatedLocalRing(p, k, e))  # type: ignore[return-value]


def make_quotient(parent: FiniteRing, ideal_elements, label: Optional[str] = None) -> QuotientRing:
    """R/I as a table ring; ideal_elements must be the full element set of I."""
    elements = frozenset(ideal_elements)
    if parent.zero not in elements:
        raise RingConstructionError("ideal element set must contain zero")
    if len(elements) == parent.order:
        raise RingConstructionError("cannot quotient by the whole ring (zero ring excluded)")
    if label is None:
        label = "gen:" + ",".join(str(e) for e in sorted(elements))
    return _self_check(QuotientRing(parent, elements, label))  # type: ignore[return-value]


# ---------------------------------------------------------------------------
# ring spec grammar


def _take_int(text: str, pos: int, full: str) -> tuple[int, int]:
    value, end = take_digits(text, pos)
    if value is None:
        raise SpecParseError("expected an integer", full, pos)
    return value, end


def _parse_spec(
    text: str, pos: int, full: str, order_cap: int
) -> tuple[Callable[[], FiniteRing], int]:
    """(builder of the ring, end position) of the spec at text[pos:]."""
    if text.startswith("zmod:", pos):
        n, pos = _take_int(text, pos + 5, full)
        return (lambda: make_zmod(n, order_cap)), pos
    if text.startswith("prod:", pos):
        left, pos = _parse_spec(text, pos + 5, full, order_cap)
        if pos >= len(text) or text[pos] != ",":
            raise SpecParseError("prod: expects two comma-separated specs", full, pos)
        right, pos = _parse_spec(text, pos + 1, full, order_cap)
        return (lambda: make_product(left(), right(), order_cap)), pos
    if text.startswith("trunc:", pos):
        pos += 6
        values = []
        for i, key in enumerate(("p=", "vars=", "nil=")):
            if i > 0:
                if pos >= len(text) or text[pos] != ",":
                    raise SpecParseError("trunc: expects p=,vars=,nil=", full, pos)
                pos += 1
            if not text.startswith(key, pos):
                raise SpecParseError(f"trunc: expected {key!r}", full, pos)
            value, pos = _take_int(text, pos + len(key), full)
            values.append(value)
        return (lambda: make_truncated_local(*values, order_cap)), pos
    raise SpecParseError("unknown ring spec (want zmod:/prod:/trunc:)", full, pos)


def parse_ring_spec(text: str, order_cap: int = DEFAULT_ORDER_CAP) -> FiniteRing:
    """Parse the exact, case-sensitive ring spec grammar.

    zmod:N | prod:<spec>,<spec> | trunc:p=P,vars=K,nil=E

    The whole spec is parsed before any ring is built, so malformed input
    is a parse error even where its numbers would not make a ring.
    """
    build, pos = _parse_spec(text, 0, text, order_cap)
    if pos != len(text):
        raise SpecParseError("trailing input after ring spec", text, pos)
    return build()
