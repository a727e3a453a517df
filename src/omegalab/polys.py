"""Sparse multivariate polynomials over a finite ring, and content ideals.

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

import itertools
from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import SpecParseError
from .ideals import Ideal, ideal_from_generators
from .rings import FiniteRing, parse_var, take_digits, var_names

__all__ = [
    "Polynomial",
    "make_poly",
    "constant_poly",
    "poly_add",
    "poly_mul",
    "poly_neg",
    "scalar_mul",
    "content",
    "monomials_up_to",
    "grlex_key",
    "parse_poly",
    "display_mono",
    "display_poly",
]


def grlex_key(exp: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """Graded-lex sort key: total degree first, then the exponent tuple."""
    return (sum(exp), exp)


@dataclass(frozen=True)
class Polynomial:
    """Immutable sparse polynomial; terms sorted in graded-lex order."""

    ring: FiniteRing
    num_vars: int
    terms: tuple[tuple[tuple[int, ...], int], ...]

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def total_degree(self) -> int:
        """Max total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(exp) for exp, _ in self.terms)

    def coefficients(self) -> tuple[int, ...]:
        return tuple(coeff for _, coeff in self.terms)

    def coefficient(self, exp: tuple[int, ...]) -> int:
        for e, c in self.terms:
            if e == exp:
                return c
        return self.ring.zero

    def as_dict(self) -> dict[tuple[int, ...], int]:
        return dict(self.terms)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        return poly_add(self, other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        return poly_mul(self, other)

    def __neg__(self) -> "Polynomial":
        return poly_neg(self)

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


def _same_space(a: Polynomial, b: Polynomial) -> None:
    if a.ring is not b.ring or a.num_vars != b.num_vars:
        raise ValueError("polynomials from different rings or variable counts")


def poly_add(a: Polynomial, b: Polynomial) -> Polynomial:
    _same_space(a, b)
    add = a.ring.add
    acc = dict(a.terms)
    zero = a.ring.zero
    for exp, coeff in b.terms:
        s = add(acc.get(exp, zero), coeff)
        if s == zero:
            acc.pop(exp, None)
        else:
            acc[exp] = s
    return make_poly(a.ring, a.num_vars, acc)


def poly_neg(a: Polynomial) -> Polynomial:
    neg = a.ring.neg
    return make_poly(a.ring, a.num_vars, {exp: neg(c) for exp, c in a.terms})


def scalar_mul(r: int, a: Polynomial) -> Polynomial:
    mul = a.ring.mul
    acc: dict[tuple[int, ...], int] = {}
    zero = a.ring.zero
    for exp, coeff in a.terms:
        p = mul(r, coeff)
        if p != zero:
            acc[exp] = p
    return make_poly(a.ring, a.num_vars, acc)


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
    _same_space(a, b)
    product = _poly_dict_mul(a.ring, a.as_dict(), b.as_dict())
    return make_poly(a.ring, a.num_vars, product)


def poly_product(polys: Iterable[Polynomial], ring: FiniteRing, num_vars: int) -> Polynomial:
    result = constant_poly(ring, ring.one, num_vars)
    for p in polys:
        result = poly_mul(result, p)
    return result


def content(f: Polynomial) -> Ideal:
    """The ideal generated by the coefficients of f."""
    return ideal_from_generators(f.ring, f.coefficients())


def monomials_up_to(num_vars: int, max_deg: int) -> tuple[tuple[int, ...], ...]:
    """All exponent vectors of total degree <= max_deg, graded-lex sorted."""
    monos = [
        m
        for m in itertools.product(range(max_deg + 1), repeat=num_vars)
        if sum(m) <= max_deg
    ]
    monos.sort(key=grlex_key)
    return tuple(monos)


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
