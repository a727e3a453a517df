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

Full operation tables are materialized lazily for orders <= 256; larger
rings always run the structured fast path. Constructors self-test with
``verify_ring_axioms`` and refuse orders above the configurable cap.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .errors import RingConstructionError, SpecParseError

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
    "RingElement",
    "AxiomReport",
    "make_zmod",
    "make_product",
    "make_truncated_local",
    "make_quotient",
    "verify_ring_axioms",
    "parse_ring_spec",
]

DEFAULT_ORDER_CAP = 4096
TABLE_LIMIT = 256

_VAR_LETTERS = ("x", "y", "z", "w")


def var_names(k: int) -> tuple[str, ...]:
    """Display names for k polynomial variables: x, y, z, w, then x1..xk."""
    if k <= len(_VAR_LETTERS):
        return _VAR_LETTERS[:k]
    return tuple(f"x{i + 1}" for i in range(k))


def parse_var(names: Sequence[str], term: str, pos: int) -> tuple[int, int]:
    """(index into names, end position) of the variable at term[pos:]."""
    for idx, name in enumerate(names):
        if term.startswith(name, pos):
            # longest-match guard for x1/x10 style names
            end = pos + len(name)
            if name[-1].isdigit() and end < len(term) and term[end].isdigit():
                continue
            return idx, end
    raise SpecParseError(f"unknown variable at {term[pos:]!r} (names: {names})")


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

    Subclasses implement ``add``, ``mul``, ``neg``, ``display`` and
    ``parse_element``. Instances are immutable after construction; the
    ``caches`` dict is internal memo space shared by the ideal and content
    machinery and never changes observable behaviour.
    """

    def __init__(self, order: int, descriptor: str, zero: int, one: int):
        if order < 2:
            raise RingConstructionError(f"ring order must be >= 2, got {order}")
        self.order = order
        self.descriptor = descriptor
        self.zero = zero
        self.one = one
        self._add_table: Optional[list[list[int]]] = None
        self._mul_table: Optional[list[list[int]]] = None
        self._units: Optional[frozenset[int]] = None
        self.caches: dict = {}

    # arithmetic hooks -------------------------------------------------

    def add(self, i: int, j: int) -> int:
        raise NotImplementedError

    def mul(self, i: int, j: int) -> int:
        raise NotImplementedError

    def neg(self, i: int) -> int:
        raise NotImplementedError

    def sub(self, i: int, j: int) -> int:
        return self.add(i, self.neg(j))

    def power(self, i: int, t: int) -> int:
        if t < 0:
            raise ValueError("negative exponent")
        acc = self.one
        for _ in range(t):
            acc = self.mul(acc, i)
        return acc

    # derived structure ------------------------------------------------

    @property
    def elements(self) -> range:
        return range(self.order)

    def add_table(self) -> Optional[list[list[int]]]:
        """Full addition table, or None when the order exceeds TABLE_LIMIT."""
        if self._add_table is None and self.order <= TABLE_LIMIT:
            add = self.add
            n = self.order
            self._add_table = [[add(i, j) for j in range(n)] for i in range(n)]
        return self._add_table

    def mul_table(self) -> Optional[list[list[int]]]:
        """Full multiplication table, or None when over TABLE_LIMIT."""
        if self._mul_table is None and self.order <= TABLE_LIMIT:
            mul = self.mul
            n = self.order
            self._mul_table = [[mul(i, j) for j in range(n)] for i in range(n)]
        return self._mul_table

    def add_rows(self) -> list:
        """Rows of the addition table: the full table up to TABLE_LIMIT,
        else fresh rows filled on first use (never kept on the ring)."""
        table = self.add_table()
        if table is None:
            table = [LazyRow(self.add, a) for a in range(self.order)]
        return table

    def mul_rows(self) -> list:
        """Rows of the multiplication table, as for add_rows."""
        table = self.mul_table()
        if table is None:
            table = [LazyRow(self.mul, a) for a in range(self.order)]
        return table

    def units(self) -> frozenset[int]:
        """Indices of invertible elements (computed once, by scan)."""
        if self._units is None:
            one = self.one
            mul = self.mul
            found = set()
            for i in range(self.order):
                for j in range(self.order):
                    if mul(i, j) == one:
                        found.add(i)
                        break
            self._units = frozenset(found)
        return self._units

    def is_unit(self, i: int) -> bool:
        return i in self.units()

    # presentation -----------------------------------------------------

    def display(self, i: int) -> str:
        raise NotImplementedError

    def parse_element(self, text: str) -> int:
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

    def neg(self, i: int) -> int:
        return (-i) % self.modulus

    def display(self, i: int) -> str:
        return str(i)

    def parse_element(self, text: str) -> int:
        try:
            value = int(text, 10)
        except ValueError:
            raise SpecParseError(f"not a residue: {text!r}") from None
        if not 0 <= value < self.modulus:
            raise SpecParseError(f"residue {value} out of range for {self.descriptor}")
        return value


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

    def neg(self, i: int) -> int:
        a, b = divmod(i, self.right.order)
        return self.left.neg(a) * self.right.order + self.right.neg(b)

    def display(self, i: int) -> str:
        a, b = divmod(i, self.right.order)
        return f"({self.left.display(a)},{self.right.display(b)})"

    def parse_element(self, text: str) -> int:
        text = text.strip()
        if not (text.startswith("(") and text.endswith(")")):
            raise SpecParseError(f"product element must be a tuple: {text!r}")
        parts = split_top_level(text[1:-1])
        if len(parts) != 2:
            raise SpecParseError(f"product element needs two components: {text!r}")
        a = self.left.parse_element(parts[0])
        b = self.right.parse_element(parts[1])
        return self.encode(a, b)


class TruncatedLocalRing(FiniteRing):
    """F_p[x_1..x_k] / m^e where m = (x_1, .., x_k), a finite local ring.

    Elements are F_p coefficient vectors over the monomials of total degree
    below e, listed in graded-lex order (by total degree, then ascending
    exponent tuple); index = sum(digit_i * p^i).
    """

    def __init__(self, p: int, k: int, e: int):
        monos = _monomials_below(k, e)
        order = p ** len(monos)
        super().__init__(order, f"trunc:p={p},vars={k},nil={e}", 0, 1)
        self.p = p
        self.num_vars = k
        self.nil_exponent = e
        self.monomials = monos
        self._mono_pos = {m: i for i, m in enumerate(monos)}
        # product position matrix: -1 when the monomial product is truncated
        L = len(monos)
        posmap = [[-1] * L for _ in range(L)]
        for i, mi in enumerate(monos):
            for j, mj in enumerate(monos):
                s = tuple(a + b for a, b in zip(mi, mj))
                if sum(s) < e:
                    posmap[i][j] = self._mono_pos[s]
        self._posmap = posmap
        self._digit_cache: list[tuple[int, ...]] = []
        for idx in range(order):
            digits = []
            v = idx
            for _ in range(L):
                v, d = divmod(v, p)
                digits.append(d)
            self._digit_cache.append(tuple(digits))
        self._names = var_names(k)

    def digits(self, i: int) -> tuple[int, ...]:
        return self._digit_cache[i]

    def encode(self, digits: Sequence[int]) -> int:
        idx = 0
        for d in reversed(digits):
            idx = idx * self.p + d
        return idx

    def add(self, i: int, j: int) -> int:
        p = self.p
        da, db = self._digit_cache[i], self._digit_cache[j]
        return self.encode([(a + b) % p for a, b in zip(da, db)])

    def neg(self, i: int) -> int:
        p = self.p
        return self.encode([(-d) % p for d in self._digit_cache[i]])

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

    def _mono_str(self, mono: tuple[int, ...]) -> str:
        parts = []
        for name, exp in zip(self._names, mono):
            if exp == 1:
                parts.append(name)
            elif exp > 1:
                parts.append(f"{name}^{exp}")
        return "".join(parts)

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

    def parse_element(self, text: str) -> int:
        text = text.strip()
        if text == "0":
            return 0
        acc = [0] * len(self.monomials)
        for term in text.split("+"):
            coeff, mono = self._parse_term(term.strip())
            pos = self._mono_pos.get(mono)
            if pos is None:
                raise SpecParseError(f"monomial exceeds truncation in {term!r}")
            if acc[pos]:
                raise SpecParseError(f"duplicate monomial in {text!r}")
            acc[pos] = coeff
        return self.encode(acc)

    def _parse_term(self, term: str) -> tuple[int, tuple[int, ...]]:
        if not term:
            raise SpecParseError("empty term in element literal")
        pos = 0
        coeff = 1
        if term[0].isdigit():
            start = pos
            while pos < len(term) and term[pos].isdigit():
                pos += 1
            coeff = int(term[start:pos])
            if not 1 <= coeff < self.p:
                raise SpecParseError(f"coefficient {coeff} out of range in {term!r}")
            if pos == len(term):
                return coeff, (0,) * self.num_vars
        exps = [0] * self.num_vars
        while pos < len(term):
            var, pos = parse_var(self._names, term, pos)
            exp = 1
            if pos < len(term) and term[pos] == "^":
                pos += 1
                start = pos
                while pos < len(term) and term[pos].isdigit():
                    pos += 1
                if start == pos:
                    raise SpecParseError(f"missing exponent in {term!r}")
                exp = int(term[start:pos])
            if exps[var]:
                raise SpecParseError(f"repeated variable in {term!r}")
            exps[var] = exp
        return coeff, tuple(exps)


class TableRing(FiniteRing):
    """A ring given by explicit operation tables.

    Used for quotient rings and for test fixtures; unlike the structured
    constructors it performs no axiom self-test, so corrupted tables can be
    built and handed to verify_ring_axioms.
    """

    def __init__(
        self,
        add_table: Sequence[Sequence[int]],
        mul_table: Sequence[Sequence[int]],
        zero: int,
        one: int,
        descriptor: str,
        displays: Optional[Sequence[str]] = None,
    ):
        order = len(add_table)
        super().__init__(order, descriptor, zero, one)
        self._add_rows = [list(row) for row in add_table]
        self._mul_rows = [list(row) for row in mul_table]
        if any(len(r) != order for r in self._add_rows + self._mul_rows):
            raise RingConstructionError("operation tables must be square")
        self._displays = list(displays) if displays is not None else [str(i) for i in range(order)]
        self._parse_map = {s: i for i, s in enumerate(self._displays)}
        neg = [None] * order
        for i in range(order):
            for j in range(order):
                if self._add_rows[i][j] == zero:
                    neg[i] = j
                    break
        self._neg = neg

    def add(self, i: int, j: int) -> int:
        return self._add_rows[i][j]

    def mul(self, i: int, j: int) -> int:
        return self._mul_rows[i][j]

    def neg(self, i: int) -> int:
        n = self._neg[i]
        if n is None:
            raise RingConstructionError(f"element {i} has no additive inverse")
        return n

    def display(self, i: int) -> str:
        return self._displays[i]

    def parse_element(self, text: str) -> int:
        key = text.strip()
        if key not in self._parse_map:
            raise SpecParseError(f"unknown element {text!r} of {self.descriptor}")
        return self._parse_map[key]


class QuotientRing(TableRing):
    """R/I as a table ring on least-index coset representatives."""

    def __init__(self, parent: FiniteRing, ideal_elements: frozenset[int], label: str):
        reps_set = set()
        project_rep = [0] * parent.order
        ideal_sorted = sorted(ideal_elements)
        add = parent.add
        for x in range(parent.order):
            rep = min(add(x, i) for i in ideal_sorted)
            project_rep[x] = rep
            reps_set.add(rep)
        reps = sorted(reps_set)
        index_of = {rep: i for i, rep in enumerate(reps)}
        project = [index_of[project_rep[x]] for x in range(parent.order)]
        q = len(reps)
        add_table = [[project[add(reps[i], reps[j])] for j in range(q)] for i in range(q)]
        mul_table = [[project[parent.mul(reps[i], reps[j])] for j in range(q)] for i in range(q)]
        displays = [parent.display(rep) for rep in reps]
        super().__init__(
            add_table,
            mul_table,
            project[parent.zero],
            project[parent.one],
            f"quot:{parent.descriptor}/{label}",
            displays,
        )
        self.parent = parent
        self.ideal_elements = frozenset(ideal_elements)
        self.reps = tuple(reps)
        self.project = tuple(project)


@dataclass(frozen=True)
class RingElement:
    """Thin wrapper pairing a ring with an element index."""

    ring: FiniteRing
    index: int

    def __post_init__(self):
        self.ring.check_index(self.index)

    def _coerce(self, other) -> int:
        if isinstance(other, RingElement):
            if other.ring is not self.ring:
                raise ValueError("elements of different rings")
            return other.index
        return self.ring.check_index(other)

    def __add__(self, other) -> "RingElement":
        return RingElement(self.ring, self.ring.add(self.index, self._coerce(other)))

    def __mul__(self, other) -> "RingElement":
        return RingElement(self.ring, self.ring.mul(self.index, self._coerce(other)))

    def __neg__(self) -> "RingElement":
        return RingElement(self.ring, self.ring.neg(self.index))

    def display(self) -> str:
        return self.ring.display(self.index)

    def __repr__(self) -> str:
        return f"<{self.display()} in {self.ring.descriptor}>"


@dataclass(frozen=True)
class AxiomReport:
    """Outcome of verify_ring_axioms: pass, or the first violated axiom."""

    ok: bool
    checked: bool
    axiom: Optional[str] = None
    witness: Optional[tuple[int, ...]] = None


def verify_ring_axioms(ring: FiniteRing, limit: int = TABLE_LIMIT) -> AxiomReport:
    """Exhaustively check the commutative ring axioms for order <= limit.

    Axioms are checked in a fixed documented order and the first violation
    is returned: index range, zero != one, additive commutativity, zero
    identity, additive inverses, additive associativity, multiplicative
    commutativity, one identity, multiplicative associativity,
    distributivity. Larger rings report checked=False.
    """
    n = ring.order
    if n > limit:
        return AxiomReport(ok=True, checked=False)
    add = ring.add
    mul = ring.mul
    rng = range(n)
    A = [[add(i, j) for j in rng] for i in rng]
    M = [[mul(i, j) for j in rng] for i in rng]
    for i in rng:
        for j in rng:
            if not 0 <= A[i][j] < n:
                return AxiomReport(False, True, "closure-add", (i, j))
            if not 0 <= M[i][j] < n:
                return AxiomReport(False, True, "closure-mul", (i, j))
    if ring.zero == ring.one:
        return AxiomReport(False, True, "zero-ne-one", ())
    for i in rng:
        row = A[i]
        for j in rng:
            if row[j] != A[j][i]:
                return AxiomReport(False, True, "add-commutative", (i, j))
    z = ring.zero
    for i in rng:
        if A[z][i] != i:
            return AxiomReport(False, True, "zero-identity", (i,))
    for i in rng:
        if z not in A[i]:
            return AxiomReport(False, True, "additive-inverse", (i,))
    for i in rng:
        Ai = A[i]
        for j in rng:
            Aij = A[Ai[j]]
            Aj = A[j]
            for k in rng:
                if Aij[k] != Ai[Aj[k]]:
                    return AxiomReport(False, True, "add-associative", (i, j, k))
    for i in rng:
        row = M[i]
        for j in rng:
            if row[j] != M[j][i]:
                return AxiomReport(False, True, "mul-commutative", (i, j))
    e = ring.one
    for i in rng:
        if M[e][i] != i:
            return AxiomReport(False, True, "one-identity", (i,))
    for i in rng:
        Mi = M[i]
        for j in rng:
            Mij = M[Mi[j]]
            Mj = M[j]
            for k in rng:
                if Mij[k] != Mi[Mj[k]]:
                    return AxiomReport(False, True, "mul-associative", (i, j, k))
    for i in rng:
        Mi = M[i]
        for j in rng:
            Aj = A[j]
            Mimj = Mi[j]
            for k in rng:
                if Mi[Aj[k]] != A[Mimj][Mi[k]]:
                    return AxiomReport(False, True, "distributive", (i, j, k))
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


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def _monomials_below(k: int, e: int) -> tuple[tuple[int, ...], ...]:
    monos = [m for m in itertools.product(range(e), repeat=k) if sum(m) < e]
    monos.sort(key=lambda m: (sum(m), m))
    return tuple(monos)


def make_truncated_local(
    p: int, k: int, e: int, order_cap: int = DEFAULT_ORDER_CAP
) -> TruncatedLocalRing:
    """F_p[x_1..x_k]/m^e: the truncated polynomial local ring."""
    if not _is_prime(p):
        raise RingConstructionError(f"p must be prime, got {p}")
    if k < 1:
        raise RingConstructionError(f"vars must be >= 1, got {k}")
    if e < 2:
        raise RingConstructionError(f"nil exponent must be >= 2, got {e}")
    count = len(_monomials_below(k, e))
    order = p**count
    if order > order_cap:
        raise RingConstructionError(f"order {order} exceeds cap {order_cap}")
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


def split_top_level(text: str) -> list[str]:
    """Split on commas that are not nested inside parentheses."""
    parts = []
    depth = 0
    start = 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    parts.append(text[start:])
    return parts


def _take_int(text: str, pos: int, full: str) -> tuple[int, int]:
    start = pos
    while pos < len(text) and text[pos].isdigit():
        pos += 1
    if start == pos:
        raise SpecParseError("expected an integer", full, pos)
    return int(text[start:pos]), pos


def _parse_spec(text: str, pos: int, full: str, order_cap: int) -> tuple[FiniteRing, int]:
    if text.startswith("zmod:", pos):
        n, pos = _take_int(text, pos + 5, full)
        return make_zmod(n, order_cap), pos
    if text.startswith("prod:", pos):
        left, pos = _parse_spec(text, pos + 5, full, order_cap)
        if pos >= len(text) or text[pos] != ",":
            raise SpecParseError("prod: expects two comma-separated specs", full, pos)
        right, pos = _parse_spec(text, pos + 1, full, order_cap)
        return make_product(left, right, order_cap), pos
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
        return make_truncated_local(values[0], values[1], values[2], order_cap), pos
    raise SpecParseError("unknown ring spec (want zmod:/prod:/trunc:)", full, pos)


def parse_ring_spec(text: str, order_cap: int = DEFAULT_ORDER_CAP) -> FiniteRing:
    """Parse the exact, case-sensitive ring spec grammar.

    zmod:N | prod:<spec>,<spec> | trunc:p=P,vars=K,nil=E
    """
    ring, pos = _parse_spec(text, 0, text, order_cap)
    if pos != len(text):
        raise SpecParseError("trailing input after ring spec", text, pos)
    return ring
