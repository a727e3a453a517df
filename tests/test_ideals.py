"""Ideal lattice: closure, arithmetic, radicals, primes, enumeration."""

import itertools

import pytest

from oracles import generic_closure, is_prime

from omegalab.errors import LatticeOverflowError, SpecParseError
from omegalab.ideals import (
    all_ideals,
    closure_elements,
    ideal_display,
    ideal_from_generators,
    ideal_radical,
    ideal_space,
    ideal_spec,
    is_radical_ideal,
    minimal_generators,
    parse_ideal_spec,
)
from omegalab.rings import make_product, make_truncated_local, make_zmod

Z12 = make_zmod(12)


def test_closure_single_generator():
    ideal = ideal_from_generators(Z12, (8,))
    assert sorted(ideal.elements) == [0, 4, 8]
    # given generators are kept as written
    assert ideal.generators == (8,)
    assert minimal_generators(Z12, ideal.elements) == (4,)


def test_closure_fast_path_matches_generic():
    rings = [Z12, make_product(make_zmod(4), make_zmod(3)),
             make_truncated_local(2, 2, 2)]
    for ring in rings:
        for r in range(ring.order):
            gens = (r,)
            assert closure_elements(ring, gens) == generic_closure(ring, gens)
        # a couple of two-generator sets
        for gens in [(2, 3), (0, 1)]:
            if max(gens) < ring.order:
                assert closure_elements(ring, gens) == generic_closure(ring, gens)


def test_all_ideals_z12_canonical_order():
    ideals = all_ideals(Z12)
    assert [i.generators for i in ideals] == [(), (6,), (4,), (3,), (2,), (1,)]
    # sorted by size, smallest first
    sizes = [len(i.elements) for i in ideals]
    assert sizes == sorted(sizes)


def test_ideal_count_is_divisor_count():
    # ideals of Z/m are dZ/mZ for d | m
    def divisors(m):
        return sum(1 for d in range(1, m + 1) if m % d == 0)

    for m in (8, 12, 30):
        assert len(all_ideals(make_zmod(m))) == divisors(m)


def test_ideal_count_truncated_rings():
    assert len(all_ideals(make_truncated_local(2, 2, 2))) == 6
    assert len(all_ideals(make_truncated_local(2, 2, 3))) == 27


def test_ideal_sum_product_intersect():
    space = ideal_space(Z12)
    # (4) + (6) = (2): the ideal generated by both generators
    assert sorted(space.set_of(space.id_of_coeffs((4, 6)))) == [0, 2, 4, 6, 8, 10]
    i2, i3 = space.principal_id(2), space.principal_id(3)
    assert sorted(space.set_of(space.products[i2][i3])) == [0, 6]
    assert sorted(space.set_of(i2) & space.set_of(i3)) == [0, 6]


def test_product_contained_in_intersection():
    space = ideal_space(Z12)
    ideals = all_ideals(Z12)
    for a, b in itertools.product(ideals, repeat=2):
        prod = space.products[space.intern(a.elements)][space.intern(b.elements)]
        assert space.set_of(prod) <= a.elements & b.elements


def test_power_elements():
    space = ideal_space(Z12)
    i2 = space.principal_id(2)
    assert space.set_of(space.power(i2, 2)) == frozenset({0, 4, 8})
    assert space.power(i2, 1) == i2
    # zeroth power is the whole ring
    assert space.set_of(space.power(i2, 0)) == frozenset(range(12))


def test_radical():
    i4 = ideal_from_generators(Z12, (4,))
    assert ideal_radical(i4).generators == (2,)
    zero = ideal_from_generators(Z12, ())
    assert sorted(ideal_radical(zero).elements) == [0, 6]
    assert is_radical_ideal(ideal_from_generators(Z12, (6,)))
    assert is_radical_ideal(ideal_from_generators(Z12, (2,)))
    assert not is_radical_ideal(i4)
    assert not is_radical_ideal(zero)


def test_primes_of_z12():
    primes = [i.generators for i in all_ideals(Z12) if i.is_proper and is_prime(i)]
    assert primes == [(3,), (2,)]


def test_prime_iff_omega_one():
    from omegalab.absorbing import omega

    for ring in (Z12, make_truncated_local(2, 2, 2)):
        for ideal in all_ideals(ring):
            if not ideal.is_proper:
                continue
            assert is_prime(ideal) == (omega(ideal).value == 1)


def test_lattice_overflow():
    with pytest.raises(LatticeOverflowError):
        all_ideals(make_zmod(30), count_cap=3)


def test_ideal_spec_roundtrip():
    zero = parse_ideal_spec(Z12, "gen:none")
    assert zero.elements == frozenset({0})
    assert ideal_spec(zero) == "gen:none"
    i4 = parse_ideal_spec(Z12, "gen:4")
    assert sorted(i4.elements) == [0, 4, 8]
    assert ideal_spec(i4) == "gen:4"
    whole = parse_ideal_spec(Z12, "gen:2,3")
    assert not whole.is_proper
    with pytest.raises(SpecParseError):
        parse_ideal_spec(Z12, "gen:q")
    with pytest.raises(SpecParseError):
        parse_ideal_spec(Z12, "ideal:4")


def test_ideal_display():
    assert ideal_display(ideal_from_generators(Z12, (4,))) == "(4)"
    assert ideal_display(ideal_from_generators(Z12, ())) == "(0)"
