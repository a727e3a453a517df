"""Sparse multivariate polynomials over a finite ring.

A polynomial in k variables is a finite map from exponent vectors in N^k to
nonzero coefficient indices, stored as a tuple of (exponent, coefficient)
pairs sorted in graded-lex order (total degree, then ascending exponent
tuple). Coefficients in literals are ring element indices; the literal
grammar is shared with the CLI:

    poly    := term ('+' term)*
    term    := INDEX | INDEX mono | mono        (bare mono means index one)
    mono    := var ('^' INT)? ('*' var ('^' INT)?)*
    var     := x | y | z | w                    (x1..xk when k > 4)

Examples over zmod:12 in one variable: "2+4x" is 2 + 4X; over two variables
"1+3x^2*y" is 1 + 3*X^2*Y.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from .absorbing import multiset_scan
from .errors import SpecParseError
from .rings import FiniteRing, LazyRow, grlex_key, take_digits, var_names

__all__ = [
    "Polynomial",
    "make_poly",
    "constant_poly",
    "poly_mul",
    "parse_poly",
    "display_mono",
    "display_poly",
]


@dataclass(frozen=True)
class Polynomial:
    """Immutable sparse polynomial; terms sorted in graded-lex order."""

    ring: FiniteRing
    num_vars: int
    terms: tuple[tuple[tuple[int, ...], int], ...]

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def coefficients(self) -> tuple[int, ...]:
        return tuple(coeff for _, coeff in self.terms)

    def as_dict(self) -> dict[tuple[int, ...], int]:
        return dict(self.terms)

    def __repr__(self) -> str:
        return f"<poly {display_poly(self)} over {self.ring.descriptor}>"


def make_poly(
    ring: FiniteRing, num_vars: int, mapping: Mapping[tuple[int, ...], int]
) -> Polynomial:
    """Build a polynomial from an exponent->coefficient mapping."""
    if num_vars < 1:
        raise ValueError("polynomials need at least one variable")
    cleaned = {}
    for exp, coeff in mapping.items():
        exp = tuple(exp)
        if len(exp) != num_vars or any(e < 0 for e in exp):
            raise ValueError(f"bad exponent vector {exp!r}")
        ring.check_index(coeff)
        if coeff != ring.zero:
            cleaned[exp] = coeff
    terms = tuple(sorted(cleaned.items(), key=lambda item: grlex_key(item[0])))
    return Polynomial(ring, num_vars, terms)


def constant_poly(ring: FiniteRing, coeff: int, num_vars: int = 1) -> Polynomial:
    return make_poly(ring, num_vars, {(0,) * num_vars: coeff})


def _poly_dict_mul(ring: FiniteRing, a: dict, b: dict) -> dict:
    """Sparse product of exponent->coefficient dicts; zero terms dropped."""
    add = ring.add
    mul = ring.mul
    zero = ring.zero
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            p = mul(ca, cb)
            if p == zero:
                continue
            exp = tuple(x + y for x, y in zip(ea, eb))
            s = add(out.get(exp, zero), p)
            if s == zero:
                out.pop(exp, None)
            else:
                out[exp] = s
    return out


def poly_mul(a: Polynomial, b: Polynomial) -> Polynomial:
    if a.ring is not b.ring or a.num_vars != b.num_vars:
        raise ValueError("polynomials from different rings or variable counts")
    product = _poly_dict_mul(a.ring, a.as_dict(), b.as_dict())
    return make_poly(a.ring, a.num_vars, product)


# ---------------------------------------------------------------------------
# literal syntax


def display_mono(exp: tuple[int, ...]) -> str:
    """Literal form of a monomial, e.g. x^2*y; "" for the constant one."""
    names = var_names(len(exp))
    return "*".join(
        name if e == 1 else f"{name}^{e}" for name, e in zip(names, exp) if e > 0
    )


def display_poly(f: Polynomial) -> str:
    """Literal form with coefficient indices; round-trips via parse_poly."""
    if f.is_zero:
        return "0"
    parts = []
    for exp, coeff in f.terms:
        mono = display_mono(exp)
        if not mono:
            parts.append(str(coeff))
        elif coeff == f.ring.one:
            parts.append(mono)
        else:
            parts.append(f"{coeff}{mono}")
    return "+".join(parts)


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


def parse_poly(ring: FiniteRing, num_vars: int, text: str) -> Polynomial:
    """Parse the polynomial literal grammar (see module docstring)."""
    names = var_names(num_vars)
    text = text.strip()
    if not text:
        raise SpecParseError("empty polynomial literal")
    if text == "0":
        return make_poly(ring, num_vars, {})
    add = ring.add
    zero = ring.zero
    acc: dict[tuple[int, ...], int] = {}
    for raw_term in text.split("+"):
        term = raw_term.strip()
        if not term:
            raise SpecParseError(f"empty term in {text!r}")
        coeff, exp = _parse_term(ring, names, term)
        s = add(acc.get(exp, zero), coeff)
        if s == zero:
            acc.pop(exp, None)
        else:
            acc[exp] = s
    return make_poly(ring, num_vars, acc)


def _parse_term(
    ring: FiniteRing, names: tuple[str, ...], term: str
) -> tuple[int, tuple[int, ...]]:
    coeff, pos = take_digits(term, 0)
    if coeff is not None:
        ring.check_index(coeff)
    exps = [0] * len(names)
    expect_star = False
    while pos < len(term):
        if expect_star:
            if term[pos] != "*":
                raise SpecParseError(f"expected '*' between variables in {term!r}")
            pos += 1
        var_idx, pos = parse_var(names, term, pos)
        exp = 1
        if pos < len(term) and term[pos] == "^":
            exp, pos = take_digits(term, pos + 1)
            if exp is None:
                raise SpecParseError(f"missing exponent in {term!r}")
            if exp < 1:
                raise SpecParseError(f"exponent must be >= 1 in {term!r}")
        if exps[var_idx]:
            raise SpecParseError(f"repeated variable in {term!r}")
        exps[var_idx] = exp
        expect_star = True
    if coeff is None:
        if not any(exps):
            raise SpecParseError(f"cannot parse term {term!r}")
        coeff = ring.one
    return coeff, tuple(exps)


# ---------------------------------------------------------------------------
# residue polynomials


def _residue_table(rep, zero, one, mul, convolve, unit_rows=()):
    """(reduce, one, table, inside, low, scan): polynomials as ids of the
    unit classes {u*f : u in U} of their images f in (R/I)[X], for
    ``absorbing.multiset_scan`` and ``absorbing.violates``.

    rep[c] is the residue of the coefficient c: over a finite ring the
    least index of its coset c + I (``rings.coset_minima``, as in
    ``QuotientRing``), over the integers c mod m. zero, one and mul(a, b)
    are 0, 1 and ab on coefficients; unit_rows are the rows row[c] = u*c
    of the u in U, () for the trivial group. reduce keys a class by its
    lex-least image, trailing zero residues dropped. table[a][b] is the id
    of the class of a*b, one ``convolve`` call and one reduction on first
    use, then memoized; inside holds the id of the zero class.

    u(c + I) = uc + I, so scaling commutes with taking residues and takes
    only 0 to 0: f lies in I[X] exactly when its class is the zero class,
    and class(u*a * v*b) = class(ab) makes table well defined. The images
    in a class have their zero residues where f has, so lex order is first
    decided at f's leading nonzero residue c: the minimum is taken over
    the units taking c to the least residue of its orbit, memoized per c.

    low[i] is the lowest nonzero residue of class i (the zero residue for
    the zero class), and scan(cands, n) runs multiset_scan over class ids
    with the lowest-term zero test. Graded-lex slot order is a monomial
    order, so if f and g have lowest terms a*s and b*t, fg has ab at st
    and every other pair of terms lands higher: ab != 0 in R/I puts fg
    outside I[X] with no convolution. This reads one coefficient; it is
    not Gauss's lemma, c(fg) = c(f)c(g). It is unit-invariant (uv*ab = 0
    iff ab = 0), so it holds for class ids. scan convolves p only with the
    candidates whose low annihilates low[p]. By induction a product of
    candidates has the product of their lows as lowest coefficient while
    that is nonzero; if 0 is outside the multiplicative closure of their
    lows, no product lies in I[X], so the walk cuts nothing and finds no
    hit: found None, every (n+1)-multiset a leaf, none inside."""
    zero_residue = rep[zero]
    ids: dict[tuple, int] = {}
    polys: list[tuple] = []
    low: list = []
    lead_rows: dict[int, list] = {}

    def reduce(coeffs) -> int:
        image = [rep[c] for c in coeffs]
        while image and image[-1] == zero_residue:
            image.pop()
        key = tuple(image)
        if unit_rows and key:
            lead = next(c for c in key if c != zero_residue)
            if lead not in lead_rows:
                least = min(rep[r[lead]] for r in unit_rows)
                lead_rows[lead] = [
                    r for r in unit_rows if rep[r[lead]] == least
                ]
            key = min(tuple([rep[r[c]] for c in key]) for r in lead_rows[lead])
        got = ids.get(key)
        if got is None:
            got = ids[key] = len(polys)
            polys.append(key)
            low.append(next((c for c in key if c != zero_residue), zero_residue))
        return got

    def product(a: int, b: int) -> int:
        return reduce(convolve(polys[a], polys[b]))

    # times[a][b]: the residue of ab, for residues a and b
    times = LazyRow(lambda _, a: LazyRow(lambda a, b: rep[mul(a, b)], a), None)

    def scan(cands: Sequence[int], n: int):
        lows = [low[c] for c in cands]
        gens = set(lows)
        closure, todo = set(gens), list(gens)
        while todo and zero_residue not in closure:
            row = times[todo.pop()]
            grown = {row[b] for b in gens} - closure
            closure |= grown
            todo += grown
        if zero_residue not in closure:
            return None, math.comb(len(cands) + n, n + 1), 0
        hints = LazyRow(lambda _, a: [
            ci for ci, b in enumerate(lows) if times[a][b] == zero_residue
        ], None)
        return multiset_scan(
            cands, one_id, table, inside, n, lambda p: hints[low[p]]
        )

    table = LazyRow(lambda _, a: LazyRow(product, a), None)
    one_id, inside = reduce((one,)), frozenset({reduce(())})
    return reduce, one_id, table, inside, low, scan
