"""Absorbing degrees and content arithmetic over the integers.

The residue ideal mZ inside Z has absorbing degree Omega(m), the number of
prime factors of m counted with multiplicity; the prime factorization is
itself the canonical lower witness. This module computes that degree by
trial division and searches bounded boxes of integer polynomials for
violations of the absorbing property of mZ[X].

The polynomial search is an independent route: products are expanded
honestly with integer coefficient arithmetic, never shortcut through the
content identity they are meant to test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations_with_replacement
from typing import Optional, Sequence

from .content_checks import DEFAULT_BUDGET, plan_sweep

__all__ = [
    "INT_LIMIT",
    "IntPolynomial",
    "int_poly",
    "IntOmegaResult",
    "omega_int",
    "IntConjectureReport",
    "conjecture_check_int",
]

INT_LIMIT = 2**63 - 1


@dataclass(frozen=True)
class IntPolynomial:
    """Sparse univariate integer polynomial; terms sorted by degree."""

    terms: tuple[tuple[int, int], ...]

    def coefficients(self) -> tuple[int, ...]:
        return tuple(c for _, c in self.terms)

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        acc: dict[int, int] = {}
        for da, ca in self.terms:
            for db, cb in other.terms:
                acc[da + db] = acc.get(da + db, 0) + ca * cb
        return IntPolynomial(
            tuple(sorted((d, c) for d, c in acc.items() if c != 0))
        )

    def display(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for d, c in self.terms:
            if d == 0:
                parts.append(str(c))
            else:
                mono = "X" if d == 1 else f"X^{d}"
                if c == 1:
                    parts.append(mono)
                elif c == -1:
                    parts.append(f"-{mono}")
                else:
                    parts.append(f"{c}{mono}")
        return "+".join(parts).replace("+-", "-")

    def __repr__(self) -> str:
        return f"<{self.display()}>"


def int_poly(coeffs: Sequence[int]) -> IntPolynomial:
    """Polynomial from its coefficient list, constant term first."""
    return IntPolynomial(
        tuple((d, c) for d, c in enumerate(coeffs) if c != 0)
    )


@dataclass(frozen=True)
class IntOmegaResult:
    """Absorbing degree of mZ in Z with its prime-multiset witness."""

    modulus: int
    value: int
    factors: tuple[int, ...]


def _factor(m: int) -> tuple[int, ...]:
    out = []
    while m % 2 == 0:
        out.append(2)
        m //= 2
    d = 3
    while d * d <= m:
        while m % d == 0:
            out.append(d)
            m //= d
        d += 2
    if m > 1:
        out.append(m)
    return tuple(out)


def omega_int(m: int) -> IntOmegaResult:
    """Absorbing degree of the ideal mZ inside Z.

    m = 1 gives 0 (the improper ideal), m = 0 gives 1 (the zero ideal is
    prime), and otherwise the value is the number of prime factors of m
    counted with multiplicity. tests/test_integers.py checks it against the
    exhaustive scan of the zero ideal of Z/m for every m in 2..60.
    """
    if m < 0:
        raise ValueError("modulus must be nonnegative")
    if m > INT_LIMIT:
        raise ValueError(f"modulus exceeds the supported limit {INT_LIMIT}")
    if m == 1:
        return IntOmegaResult(1, 0, ())
    if m == 0:
        return IntOmegaResult(0, 1, ())
    factors = _factor(m)
    return IntOmegaResult(m, len(factors), factors)


@dataclass(frozen=True)
class IntConjectureReport:
    """Bounded search for violations of the absorbing property of mZ[X].

    The target: every (n+1)-tuple of polynomials whose product has all
    coefficients divisible by m must contain an n-subproduct with the same
    property, where n = Omega(m). witness_valid re-verifies the prime
    factorization as a tuple of constant polynomials. checked counts the
    qualifying tuples (product actually in mZ[X]) whose subproducts were
    examined; drawn counts raw draws in sampled mode.
    """

    modulus: int
    omega: IntOmegaResult
    max_deg: int
    height: int
    witness_valid: bool
    violation: Optional[tuple[IntPolynomial, ...]]
    mode: str
    checked: int
    drawn: int
    seed: Optional[int] = None


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


def _product(polys: Sequence[IntPolynomial]) -> IntPolynomial:
    if not polys:
        return int_poly((1,))
    out = polys[0]
    for p in polys[1:]:
        out = out * p
    return out


def _violates(polys: Sequence[IntPolynomial], full: IntPolynomial, m: int) -> bool:
    """Whether full, the product of polys, lies in mZ[X] while no product
    omitting one factor does."""
    return _in_mzx(full, m) and not any(
        _in_mzx(_product(polys[:t] + polys[t + 1:]), m)
        for t in range(len(polys))
    )


def _split_draws(
    rng: random.Random, factors: tuple[int, ...], parts: int, height: int
) -> Optional[list[int]]:
    """Random split of the prime multiset into the given number of groups,
    each group product staying within the height bound. None if a draw
    lands outside the bound (caller retries or falls back)."""
    values = [1] * parts
    for p in factors:
        slot = rng.randrange(parts)
        values[slot] *= p
    if any(v > height for v in values):
        return None
    return values


def conjecture_check_int(
    m: int,
    max_deg: int = 1,
    height: int = 2,
    sample: int = 1000,
    seed: int = 0,
    budget: int = DEFAULT_BUDGET,
) -> IntConjectureReport:
    """Exhaustive box sweep when it fits the budget, else seeded sampling.

    Sampling alternates uniform draws over the coefficient box (rejecting
    tuples whose product misses mZ[X]) with constructed draws that scale a
    random tuple by a random split of the prime factorization, so that
    qualifying tuples are actually exercised.
    """
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
