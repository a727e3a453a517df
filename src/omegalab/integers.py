"""Absorbing degrees and content arithmetic over the integers.

The residue ideal mZ inside Z has absorbing degree Omega(m), the number of
prime factors of m counted with multiplicity; the prime factorization is
itself the canonical lower witness. This module computes that degree by
trial division and searches bounded boxes of integer polynomials for
violations of the absorbing property of mZ[X].

The polynomial search is an independent route: products are expanded
honestly with integer coefficient arithmetic, never shortcut through the
content identity they are meant to test. They are expanded in (Z/m)[X],
coefficients reduced mod m, which decides membership in mZ[X] exactly
(the proof sketch is on ``conjecture_check_int``). The report's drawn
counts the raw draws in sampled mode and the multisets walked in
exhaustive mode.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Optional, Sequence

from .absorbing import violates
from .content_checks import DEFAULT_BUDGET, _residue_table, plan_sweep
from .rings import LazyRow

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
    examined; drawn counts raw draws in sampled mode and the multisets
    walked in exhaustive mode.
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


def _convolve(fa: Sequence[int], fb: Sequence[int]) -> list[int]:
    """Product of two coefficient tuples, constant term first; fb, the
    candidate factor in the walk, is the shorter one there."""
    if not fa or not fb:
        return []
    out = [0] * (len(fa) + len(fb) - 1)
    for i, b in enumerate(fb):
        if b:
            for j, a in enumerate(fa, i):
                out[j] += a * b
    return out


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


def _mod_table(m: int):
    """(reduce, one, table, inside) for (Z/m)[X]: the residue table of
    ``content_checks._residue_table`` with c -> c mod m and ``_convolve``."""
    return _residue_table(LazyRow(lambda _, c: c % m, None), 0, 1, _convolve)


def _walk(
    cands: Sequence[int], one: int, table, inside, n: int
) -> tuple[Optional[tuple[int, ...]], int, int]:
    """First violating (n+1)-multiset of candidate ids, as positions, with
    checked and drawn; one, table and inside as for absorbing.violates.

    The multisets are walked in ``combinations_with_replacement`` order as
    a prefix tree: the product of the first t factors is kept, so each
    multiset costs one table lookup, and violates runs only on the
    multisets whose product is inside. drawn counts the multisets walked
    and checked those with their product inside, both up to and including
    the violation. Unlike absorbing.multiset_scan, no prefix whose product
    is inside is cut: every completion of it still counts as checked."""
    count = len(cands)
    chosen = [0] * (n + 1)
    checked = drawn = 0

    def rec(start: int, depth: int, acc: int) -> Optional[tuple[int, ...]]:
        # chosen[:depth] multiplies to acc; the next factor runs over
        # cands[start:]
        nonlocal checked, drawn
        row = table[acc]
        if depth == n:
            hits = [ci for ci in range(start, count) if row[cands[ci]] in inside]
            for ci in hits:
                checked += 1
                chosen[n] = ci
                if violates([cands[c] for c in chosen], one, table, inside):
                    drawn += ci - start + 1
                    return tuple(chosen)
            drawn += count - start
            return None
        for ci in range(start, count):
            chosen[depth] = ci
            found = rec(ci, depth + 1, row[cands[ci]])
            if found is not None:
                return found
        return None

    found = rec(0, 0, one)
    return found, checked, drawn


def conjecture_check_int(
    m: int,
    max_deg: int = 1,
    height: int = 2,
    sample: int = 1000,
    seed: int = 0,
    budget: int = DEFAULT_BUDGET,
) -> IntConjectureReport:
    """Exhaustive box sweep when it fits the budget, else seeded sampling.

    The exhaustive sweep walks every multiset of box polynomials outside
    mZ[X] (the k-tuples of ``combinations_with_replacement``, in its
    order) as a prefix tree, so each multiset costs one product. Sampling
    alternates uniform draws over the coefficient box (rejecting tuples
    whose product misses mZ[X]) with constructed draws that scale a random
    tuple by a random split of the prime factorization, so that qualifying
    tuples are actually exercised.

    Every product is taken in (Z/m)[X] (``content_checks._residue_table``
    with c -> c mod m): reduction mod m is a ring homomorphism
    pi: Z[X] -> (Z/m)[X] with kernel mZ[X], so p lies in mZ[X] exactly when
    pi(p) = 0, and pi(ab) = pi(pi(a)*pi(b)). Each membership question gets
    the answer the integer product would give, so drawn, checked, the mode,
    the seed and the witness tuple are those of expanding every product in
    Z[X]. Residue polynomials are interned as ids and their products
    memoized for the call.
    """
    if m < 2:
        raise ValueError("conjecture check needs a modulus m >= 2")
    if max_deg < 0 or height < 1:
        raise ValueError("need max_deg >= 0 and height >= 1")
    base = omega_int(m)
    n = base.value
    k = n + 1
    reduce, one, table, inside = _mod_table(m)

    witness = [reduce((p,)) for p in base.factors]
    witness_valid = violates(witness, one, table, inside)

    span = range(-height, height + 1)
    box_size = len(span) ** (max_deg + 1)
    sweep = plan_sweep(box_size**k, budget, sample, seed)

    def report(violation, checked, drawn) -> IntConjectureReport:
        if violation is not None:
            violation = tuple(int_poly(coeffs) for coeffs in violation)
        return IntConjectureReport(
            m, base, max_deg, height, witness_valid, violation, sweep.mode,
            checked, drawn, sweep.seed,
        )

    if sweep.exhaustive:
        # polynomials in mZ[X] cannot appear in a violation: any
        # subproduct containing one lands in mZ[X]
        box = []
        cands = []
        for coeffs in itertools.product(span, repeat=max_deg + 1):
            cid = reduce(coeffs)
            if cid not in inside:
                box.append(coeffs)
                cands.append(cid)
        found, checked, drawn = _walk(cands, one, table, inside, n)
        if found is not None:
            found = [box[c] for c in found]
        return report(found, checked, drawn)

    checked = drawn = 0
    rng = random.Random(sweep.seed)

    def draw_uniform() -> list[list[int]]:
        return [
            [rng.randrange(len(span)) - height for _ in range(max_deg + 1)]
            for _ in range(k)
        ]

    def draw_constructed() -> Optional[list[list[int]]]:
        values = _split_draws(rng, base.factors, k, height)
        if values is None:
            return None
        out = []
        for v in values:
            bound = height // v
            coeffs = [v * (rng.randrange(2 * bound + 1) - bound) for _ in range(max_deg + 1)]
            if all(c == 0 for c in coeffs):
                coeffs[rng.randrange(max_deg + 1)] = v
            out.append(coeffs)
        return out

    for i in range(sample):
        drawn += 1
        tup = draw_uniform() if i % 2 == 0 else draw_constructed()
        if tup is None:
            continue
        ids = [reduce(coeffs) for coeffs in tup]
        if any(cid in inside for cid in ids):
            continue
        full = one
        for cid in ids:
            full = table[full][cid]
        if full not in inside:
            continue
        checked += 1
        if violates(ids, one, table, inside):
            return report(tup, checked, drawn)
    return report(None, checked, drawn)
