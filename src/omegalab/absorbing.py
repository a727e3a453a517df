"""Absorbing degrees of ideals.

An ideal I of R is n-absorbing when every product of n+1 elements that lands
in I already has an n-element subproduct in I; omega(I) is the least such n,
with omega(R) = 0 by convention. The strong variant quantifies over ideal
tuples instead of element tuples.

One scanner, ``multiset_scan``, decides the definition wherever it is read:
over ring elements here, over the ideal lattice for the strong variant,
over bounded polynomials of R[X], held as residues in (R/I)[X], in
content_checks, and over bounded polynomials of Z[X], held in (Z/m)[X],
in integers. It enumerates non-decreasing tuples (multisets) in index
order with four sound prunings, each of which removes no violation:

* elements of I are skipped (any tuple containing one has an n-subproduct
  containing it, which then lies in I);
* units are skipped (if the full product lies in I, multiplying by the unit's
  inverse puts the subproduct omitting it in I);
* the element scan keeps one element per principal ideal, the least
  generator of Rx (associates are interchangeable: if Rx = Ry then
  ax in I <=> a*Rx <= I <=> a*Ry <= I <=> ay in I, so swapping a factor
  for another generator of its principal ideal changes no membership of any
  subproduct; and replacing every factor of a violating multiset by its
  class minimum, then sorting, gives a violating multiset that is
  componentwise, hence lexicographically, no larger, so the least
  violation uses only class minima);
* a prefix whose partial product lies in I is cut (every completion has an
  n-subproduct containing the whole prefix).

The callers apply the first three when they choose the candidates; the
scan applies the fourth. The first violation found is therefore the
lexicographically least violating multiset. Beside it the scan counts the
leaves it tried (last factors of uncut prefixes) and those among them
whose product lies in I; the integer leg reads its report counts off
these two and the rank of the violation in the walk (``multiset_rank``,
which also counts the content pair searches). The pruning-free reference
scan that tests compare against lives in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .ideals import (
    DEFAULT_LATTICE_CAP,
    Ideal,
    all_ideals,
    ideal_space,
)
from .rings import FiniteRing, LazyRow

__all__ = [
    "DEFAULT_CAP",
    "AbsorbingCheck",
    "OmegaResult",
    "is_n_absorbing",
    "multiset_scan",
    "multiset_rank",
    "violates",
    "omega",
    "is_strongly_n_absorbing",
    "strong_omega",
    "AgreementRow",
    "AgreementReport",
    "omega_agreement_table",
]

DEFAULT_CAP = 6


@dataclass(frozen=True)
class AbsorbingCheck:
    """Outcome of one n-absorbing scan."""

    holds: bool
    violation: Optional[tuple] = None


@dataclass(frozen=True)
class OmegaResult:
    """Absorbing degree: value=n for an exact answer, None past the cap.

    For value >= 2 the lower_witness is a violating value-tuple showing that
    (value-1)-absorbing fails; for a capped result it shows cap-absorbing
    fails. value 0 happens only for the improper ideal R.
    """

    value: Optional[int]
    cap: int
    lower_witness: Optional[tuple] = None

    @property
    def is_exact(self) -> bool:
        return self.value is not None

    def describe(self) -> str:
        if self.value is None:
            return f"exceeds-cap({self.cap})"
        return str(self.value)


def _check_args(ideal: Ideal, n: int) -> None:
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not ideal.is_proper:
        raise ValueError("n-absorbing is defined for proper ideals only")


def multiset_scan(
    candidates: Sequence, one, table, inside, n: int
) -> tuple[Optional[tuple[int, ...]], int, int]:
    """First violating (n+1)-multiset over candidates, the leaves tried,
    and the leaves tried whose product lies in I.

    table[a][b] is the product of a and b, where a is a partial product and
    b a candidate or a partial product; one is the empty product, and
    ``p in inside`` tests whether p lies in the ideal I. Partial products
    must be hashable. A multiset whose product lies in I violates when none
    of its n-subproducts does. Multisets are walked as non-decreasing
    position tuples in lex order and a prefix whose product lies in I is
    cut, so the first violation is the lexicographically least. Returns
    (candidate positions or None, number of (n+1)-th factors tried, number
    of those whose product lies in I).

    The last factor is decided by hit masks: H(p), memoized per p and
    filled downward from the least start asked, has bit ci set when
    p*candidates[ci] lies in I. With q_t the product of the n chosen
    factors but the t-th, c >= start completes a violation exactly when
    prefix*c lies in I and no q_t*c does (prefix, which omits c, is outside
    by the cut): the bits of H(prefix) & ~H(q_0) & ... & ~H(q_(n-1)).
    leaves counts the factors up to the lowest, as trying each did, and
    inside_leaves the bits of H(prefix) among them.
    """
    count = len(candidates)
    chosen = [0] * (n + 1)
    prefix = [one] * (n + 1)  # prefix[t] = product of the first t chosen
    hits: dict = {}  # p -> (low, H(p) over the positions >= low)
    leaves = inside_leaves = 0

    def mask(p, start: int) -> int:
        # H(p) >> start
        low, bits = hits.get(p, (count, 0))
        if start < low:
            row = table[p]
            for ci in range(start, low):
                if row[candidates[ci]] in inside:
                    bits |= 1 << ci
            hits[p] = (start, bits)
        return bits >> start

    def rec(start: int, depth: int) -> Optional[tuple[int, ...]]:
        nonlocal leaves, inside_leaves
        if depth == n:
            full = found = mask(prefix[n], start)
            t, suffix = n - 1, one  # suffix: product of chosen[t+1:n]
            while found and t >= 0:
                found &= ~mask(table[prefix[t]][suffix], start)
                suffix = table[suffix][candidates[chosen[t]]]
                t -= 1
            if not found:
                leaves += count - start
                inside_leaves += full.bit_count()
                return None
            low = found & -found
            chosen[n] = start + low.bit_length() - 1
            leaves += chosen[n] - start + 1
            inside_leaves += (full & (2 * low - 1)).bit_count()
            return tuple(chosen)
        row = table[prefix[depth]]
        for ci in range(start, count):
            p = row[candidates[ci]]
            if p not in inside:
                chosen[depth] = ci
                prefix[depth + 1] = p
                found = rec(ci, depth + 1)
                if found is not None:
                    return found
        return None

    return rec(0, 0), leaves, inside_leaves


def multiset_rank(found: Optional[Sequence[int]], count: int, n: int) -> int:
    """1-based rank of found among the (n+1)-multisets of count positions
    in lex (``combinations_with_replacement``) order, the walk order of
    multiset_scan; their number when found is None.

    A multiset before found agrees with it on the first t positions and is
    smaller at position t. With c_(-1) = 0 and k_t = n - t, the
    non-decreasing tails of k_t + 1 positions that start at c or later
    number C(count - c + k_t, k_t + 1), so position t adds
    C(count - c_(t-1) + k_t, k_t + 1) - C(count - c_t + k_t, k_t + 1)."""
    if found is None:
        return math.comb(count + n, n + 1)
    rank, prev = 1, 0
    for t, c in enumerate(found):
        k = n - t
        rank += math.comb(count - prev + k, k + 1) - math.comb(count - c + k, k + 1)
        prev = c
    return rank


def violates(factors: Sequence, one, table, inside) -> bool:
    """Whether the product of factors lies in I while no product omitting
    one factor does; one, table and inside as for multiset_scan."""

    def product(fs: Sequence):
        acc = one
        for f in fs:
            acc = table[acc][f]
        return acc

    return product(factors) in inside and not any(
        product(factors[:t] + factors[t + 1:]) in inside
        for t in range(len(factors))
    )


def is_n_absorbing(ideal: Ideal, n: int) -> AbsorbingCheck:
    """Scan for a violating (n+1)-element multiset; I must be proper. The
    candidates are the least generators of the principal ideals that are
    neither R nor inside I (one element per associate class)."""
    _check_args(ideal, n)
    ring = ideal.ring
    members = ideal.elements
    space = ideal_space(ring)
    # the units are the generators of R, and Rx lies in I iff x does
    candidates = [
        x for i, x in space.principal_reps().items()
        if i != space.full_id and x not in members
    ]
    found = multiset_scan(candidates, ring.one, ring.mul_rows(), members, n)[0]
    if found is None:
        return AbsorbingCheck(holds=True)
    return AbsorbingCheck(
        holds=False, violation=tuple(candidates[i] for i in found)
    )


def _degree(
    ideal: Ideal, cap: int, check: Callable[[int], AbsorbingCheck]
) -> OmegaResult:
    """Least n <= cap with check(n).holds; 0 iff I = R; None past cap."""
    if not ideal.is_proper:
        return OmegaResult(0, cap)
    witness: Optional[tuple] = None
    for n in range(1, cap + 1):
        result = check(n)
        if result.holds:
            return OmegaResult(n, cap, witness)
        witness = result.violation
    return OmegaResult(None, cap, witness)


def omega(ideal: Ideal, cap: int = DEFAULT_CAP) -> OmegaResult:
    """Least n such that I is n-absorbing; 0 iff I = R; None past cap."""
    return _degree(ideal, cap, lambda n: is_n_absorbing(ideal, n))


# ---------------------------------------------------------------------------
# strong variant over the ideal lattice


def is_strongly_n_absorbing(
    ideal: Ideal, n: int, lattice_cap: int = DEFAULT_LATTICE_CAP
) -> AbsorbingCheck:
    """Scan ideal multisets: I1..I(n+1) with product inside I but no
    n-subproduct inside I. Ideals contained in I and the full ring are
    skipped (mirrors of the element prunings, equally sound)."""
    _check_args(ideal, n)
    ring = ideal.ring
    lattice = all_ideals(ring, lattice_cap)
    space = ideal_space(ring)
    ids = [space.intern(iv.elements) for iv in lattice]
    inside = frozenset(i for i, iv in zip(ids, lattice) if iv <= ideal)
    # candidates keep their lattice order, so the first violation found is
    # the lexicographically least in lattice positions
    positions = [
        p for p, i in enumerate(ids) if i not in inside and i != space.full_id
    ]
    # rows of the registry's product over ideal ids, filled on first use
    table = LazyRow(lambda _, a: LazyRow(space.product, a), None)
    found = multiset_scan(
        [ids[p] for p in positions], space.full_id, table, inside, n
    )[0]
    if found is None:
        return AbsorbingCheck(holds=True)
    return AbsorbingCheck(
        holds=False, violation=tuple(lattice[positions[i]] for i in found)
    )


def strong_omega(
    ideal: Ideal, cap: int = DEFAULT_CAP, lattice_cap: int = DEFAULT_LATTICE_CAP
) -> OmegaResult:
    """Least n such that I is strongly n-absorbing; same conventions."""
    return _degree(
        ideal, cap, lambda n: is_strongly_n_absorbing(ideal, n, lattice_cap)
    )


# ---------------------------------------------------------------------------
# omega vs strong omega agreement


@dataclass(frozen=True)
class AgreementRow:
    ideal: Ideal
    omega: OmegaResult
    strong: OmegaResult

    @property
    def agree(self) -> Optional[bool]:
        """True/False when both sides are exact, None when either capped."""
        if self.omega.value is None or self.strong.value is None:
            return None
        return self.omega.value == self.strong.value


@dataclass(frozen=True)
class AgreementReport:
    ring: FiniteRing
    cap: int
    rows: tuple[AgreementRow, ...]

    @property
    def counterexamples(self) -> tuple[AgreementRow, ...]:
        return tuple(row for row in self.rows if row.agree is False)

    @property
    def capped(self) -> tuple[AgreementRow, ...]:
        return tuple(row for row in self.rows if row.agree is None)


def omega_agreement_table(
    ring: FiniteRing,
    cap: int = DEFAULT_CAP,
    lattice_cap: int = DEFAULT_LATTICE_CAP,
) -> AgreementReport:
    """omega vs strong_omega for every proper ideal, in canonical order.

    A row with agree=False is a counterexample to the identity of the two
    absorbing degrees; it is reported, never raised.
    """
    rows = []
    for ideal in all_ideals(ring, lattice_cap):
        if not ideal.is_proper:
            continue
        rows.append(
            AgreementRow(
                ideal=ideal,
                omega=omega(ideal, cap),
                strong=strong_omega(ideal, cap, lattice_cap),
            )
        )
    return AgreementReport(ring=ring, cap=cap, rows=tuple(rows))
