"""Absorbing degrees: pruned scan vs reference, strong variant, quotients."""

import pytest
from oracles import reference_is_n_absorbing

from omegalab.absorbing import (
    is_n_absorbing,
    is_strongly_n_absorbing,
    multiset_scan,
    omega,
    omega_agreement_table,
    strong_omega,
)
from omegalab.errors import LatticeOverflowError
from omegalab.ideals import (
    all_ideals,
    ideal_from_generators,
    parse_ideal_spec,
    quotient_by,
)
from omegalab.rings import make_product, make_truncated_local, make_zmod


def _zero(ring):
    return ideal_from_generators(ring, ())


def test_omega_prime_modulus_is_one():
    for p in (2, 3, 5, 7, 11):
        result = omega(_zero(make_zmod(p)))
        assert result.value == 1
        assert result.lower_witness is None


def test_omega_frozen_values():
    r4 = omega(_zero(make_zmod(4)))
    assert r4.value == 2
    assert r4.lower_witness == (2, 2)
    r8 = omega(_zero(make_zmod(8)))
    assert r8.value == 3
    assert r8.lower_witness == (2, 2, 2)
    r12 = omega(_zero(make_zmod(12)))
    assert r12.value == 3
    assert r12.lower_witness == (2, 2, 3)


def test_omega_witness_is_genuine():
    # the lower witness must be an (n)-tuple whose product is in I while
    # no (n-1)-subproduct is
    ring = make_zmod(12)
    res = omega(_zero(ring))
    w = res.lower_witness
    prod = 1
    for x in w:
        prod = ring.mul(prod, x)
    assert prod == 0
    for omit in range(len(w)):
        sub = 1
        for t, x in enumerate(w):
            if t != omit:
                sub = ring.mul(sub, x)
        assert sub != 0


def test_omega_improper_is_zero():
    whole = ideal_from_generators(make_zmod(6), (1,))
    assert omega(whole).value == 0


def test_is_n_absorbing_argument_guards():
    zero = _zero(make_zmod(4))
    with pytest.raises(ValueError):
        is_n_absorbing(zero, 0)
    whole = ideal_from_generators(make_zmod(4), (1,))
    with pytest.raises(ValueError):
        is_n_absorbing(whole, 1)


def test_absorbing_is_monotone():
    # n-absorbing implies (n+1)-absorbing
    for ring in (make_zmod(12), make_zmod(16)):
        for ideal in all_ideals(ring):
            if not ideal.is_proper:
                continue
            held = False
            for n in range(1, 6):
                holds = is_n_absorbing(ideal, n) is None
                if held:
                    assert holds
                held = held or holds


def test_pruned_scan_matches_reference():
    # the pruned scan must return the reference's lexicographically least
    # violating multiset, not only the same verdict
    rings = [
        make_zmod(8),
        make_zmod(12),
        make_truncated_local(2, 2, 2),
        make_product(make_zmod(2), make_zmod(4)),
    ]
    for ring in rings:
        for ideal in all_ideals(ring):
            if not ideal.is_proper:
                continue
            for n in range(1, 5):
                fast = is_n_absorbing(ideal, n)
                slow = reference_is_n_absorbing(ideal, n)
                assert fast == slow, (ring.descriptor, ideal.generators, n)


class _CountedRow(list):
    """A row of a multiplication table that counts the entries read."""

    reads = 0

    def __getitem__(self, b):
        _CountedRow.reads += 1
        return list.__getitem__(self, b)


@pytest.mark.parametrize(
    "m, leaves, inside_leaves, reads", [(16, 0, 0, 17), (24, 71, 42, 225)]
)
def test_multiset_scan_cuts_prefixes_inside(m, leaves, inside_leaves, reads):
    # the prefix cut, pinned by the products the scan reads: the zero
    # ideal of Z/m at n = 4 over the element scan's candidates, the proper
    # divisors of m. Without the cut Z/16 reads 70 products at 21 leaves
    # and Z/24 529 at 252; the verdict and drawn - leaves + inside_leaves
    # (223 on Z/24) do not tell the two apart.
    ring = make_zmod(m)
    cands = [x for x in range(2, m) if m % x == 0]
    rows = [_CountedRow(r) for r in ring.mul_rows()]
    _CountedRow.reads = 0
    got = multiset_scan(cands, ring.one, rows, frozenset({0}), 4)
    assert (got, _CountedRow.reads) == ((None, leaves, inside_leaves), reads)


def test_scan_above_table_limit_matches_reference():
    # rings above TABLE_LIMIT have no multiplication table; the scan fills
    # its products lazily and must still agree with the reference
    for m in (289, 323):
        zero = _zero(make_zmod(m))
        fast = is_n_absorbing(zero, 1)
        assert fast == reference_is_n_absorbing(zero, 1)
        assert fast == (17, 17 if m == 289 else 19)
    assert omega(_zero(make_zmod(289))).value == 2


def test_strong_omega_frozen():
    res = strong_omega(_zero(make_zmod(4)))
    assert res.value == 2
    assert [iv.generators for iv in res.lower_witness] == [(2,), (2,)]


def test_strong_omega_lists_the_lattice_without_a_scan():
    # (2) is prime in Z/30, so its bound N = 1 decides the degree with no
    # scan; the 8 ideals of Z/30 must still overflow a lattice cap of 3
    two = parse_ideal_spec(make_zmod(30), "gen:2")
    with pytest.raises(LatticeOverflowError):
        strong_omega(two, 6, lattice_cap=3)
    assert strong_omega(two).value == 1


def test_strongly_absorbing_implies_absorbing():
    # a violation of plain n-absorbing gives principal ideals violating the
    # strong form, so strong n-absorbing is at least as hard to satisfy
    for ring in (make_zmod(12), make_product(make_zmod(2), make_zmod(2))):
        for ideal in all_ideals(ring):
            if not ideal.is_proper:
                continue
            for n in range(1, 4):
                if is_strongly_n_absorbing(ideal, n) is None:
                    assert is_n_absorbing(ideal, n) is None


def test_agreement_table_small_rings():
    for spec_ring in (make_zmod(24), make_truncated_local(2, 2, 2)):
        report = omega_agreement_table(spec_ring)
        assert report.counterexamples == ()
        assert report.capped == ()
        assert all(row.agree is True for row in report.rows)


def test_omega_respects_cap():
    capped = omega(_zero(make_zmod(64)), cap=2)
    assert capped.value is None
    assert not capped.is_exact
    assert capped.describe() == "exceeds-cap(2)"
    # witness shows cap-absorbing already fails
    assert len(capped.lower_witness) == 3


def test_omega_transfers_to_quotient():
    # for J contained in I, the degree of I/J in R/J equals the degree of I
    ring = make_zmod(12)
    j = ideal_from_generators(ring, (6,))
    q = quotient_by(j)
    for gens in ((6,), (3,), (2,)):
        ideal = ideal_from_generators(ring, gens)
        assert j.elements <= ideal.elements
        image = ideal_from_generators(q, {q.project[g] for g in gens})
        assert omega(image).value == omega(ideal).value
