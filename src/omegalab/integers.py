"""Absorbing degrees and content arithmetic over the integers.

The residue ideal mZ inside Z has absorbing degree Omega(m), the number of
prime factors of m counted with multiplicity; the prime factorization is
itself the canonical lower witness. This module computes that degree by
trial division (``rings.prime_factors``, divisors below 10**7: every m
below 10**14 factors, and a larger m whose cofactor could be composite
raises CapExceededError) and searches bounded boxes of integer
polynomials for violations of the absorbing property of mZ[X].

The polynomial search is an independent route: products are expanded
honestly with integer coefficient arithmetic, never shortcut through the
content identity they are meant to test. They are expanded in (Z/m)[X],
coefficients reduced mod m, which decides membership in mZ[X] exactly
(the proof sketch is on ``conjecture_check_int``). The report's drawn
counts the raw draws in sampled mode; in exhaustive mode it counts the
multisets up to the first violation in ``combinations_with_replacement``
order, the rank of that violation (``absorbing.multiset_rank``) in the
pruned ``absorbing.multiset_scan`` walk.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Optional, Sequence

from .absorbing import multiset_rank, multiset_scan, violates
from .content_checks import DEFAULT_BUDGET, plan_sweep, uniform_draws
from .polys import _residue_table
from .rings import LazyRow, prime_factors

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


def omega_int(m: int) -> IntOmegaResult:
    """Absorbing degree of the ideal mZ inside Z.

    m = 1 gives 0 (the improper ideal), m = 0 gives 1 (the zero ideal is
    prime), and otherwise the value is the number of prime factors of m
    counted with multiplicity (CapExceededError where trial division stops
    short, ``rings.prime_factors``). tests/test_integers.py checks it
    against the exhaustive scan of the zero ideal of Z/m, m in 2..60.
    """
    if m < 0:
        raise ValueError("modulus must be nonnegative")
    if m > INT_LIMIT:
        raise ValueError(f"modulus exceeds the supported limit {INT_LIMIT}")
    if m == 1:
        return IntOmegaResult(1, 0, ())
    if m == 0:
        return IntOmegaResult(0, 1, ())
    factors = prime_factors(m)
    return IntOmegaResult(m, len(factors), factors)


@dataclass(frozen=True)
class IntConjectureReport:
    """Bounded search for violations of the absorbing property of mZ[X].

    The target: every (n+1)-tuple of polynomials whose product has all
    coefficients divisible by m must contain an n-subproduct with the same
    property, where n = Omega(m). witness_valid re-verifies the prime
    factorization as a tuple of constant polynomials. checked counts the
    qualifying tuples (product actually in mZ[X]) whose subproducts were
    examined; drawn counts raw draws in sampled mode and, in exhaustive
    mode, the multisets up to and including the violation (all of them
    when there is none) in ``combinations_with_replacement`` order.
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
    """Product of two coefficient tuples, constant term first; fb, mostly
    a candidate factor in the scan, is the shorter one there."""
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
    ``polys._residue_table`` with c -> c mod m, ``_convolve`` and
    the trivial group, so ids are plain residues."""
    return _residue_table(LazyRow(lambda _, c: c % m, None), 0, 1, _convolve)


def conjecture_check_int(
    m: int,
    max_deg: int = 1,
    height: int = 2,
    sample: int = 1000,
    seed: int = 0,
    budget: int = DEFAULT_BUDGET,
) -> IntConjectureReport:
    """Exhaustive box sweep when it fits the budget, else seeded sampling.

    The exhaustive sweep runs ``absorbing.multiset_scan`` over the box
    polynomials outside mZ[X] and reports the counts of the walk that
    prunes nothing. drawn, the multisets up to and including the first
    violation in ``combinations_with_replacement`` order, is its lex rank
    (``absorbing.multiset_rank``). checked, those of them with product in
    mZ[X], is drawn - leaves + inside_leaves. Each multiset up to the
    violation either has a prefix of 1..n factors in mZ[X] or is a leaf
    the scan tried. The scan cut the first kind: its product lies in
    mZ[X], and it cannot violate, since omitting a factor outside the
    prefix leaves an n-subproduct in mZ[X]. So drawn - leaves multisets
    were cut, all of them qualify, and the violation, a leaf, is the one
    the scan finds.

    Sampling alternates uniform draws over the coefficient box (rejecting
    tuples whose product misses mZ[X]) with constructed draws that scale a
    random tuple by a random split of the prime factorization, so that
    qualifying tuples are actually exercised.

    Every product is taken in (Z/m)[X] (``polys._residue_table``
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
        found, leaves, inside_leaves = multiset_scan(cands, one, table, inside, n)
        drawn = multiset_rank(found, len(cands), n)
        if found is not None:
            found = [box[c] for c in found]
        return report(found, drawn - leaves + inside_leaves, drawn)

    checked = drawn = 0
    rng = random.Random(sweep.seed)

    def draw_uniform() -> list[list[int]]:
        return [
            [v - height for v in uniform_draws(rng.getrandbits, len(span), max_deg + 1)]
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
