"""The ideal registry against reference routes: the worklist closure
``generic_closure``, pairwise sums, the closure of all element products,
repeated products, a double-loop unit scan, and the pairwise-sum lattice
BFS that the registry replaced (kept here as the oracle). The references
close ideals with ``generic_closure``, never through the registry or
``FiniteRing.principal``."""

import functools
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omegalab import cli
from omegalab.absorbing import is_strongly_n_absorbing
from omegalab.content_checks import content_space
from omegalab.ideals import (
    Ideal,
    all_ideals,
    closure_elements,
    generic_closure,
    ideal_space,
    ideal_sum,
    parse_ideal_spec,
    power_elements,
    product_elements,
)
from omegalab.rings import make_zmod, parse_ring_spec

FAMILY = (
    [f"zmod:{m}" for m in range(2, 61)]
    + [
        "prod:zmod:2,zmod:2",
        "prod:zmod:2,zmod:4",
        "prod:zmod:4,zmod:4",
        "prod:zmod:2,zmod:8",
        "prod:zmod:3,zmod:9",
        "prod:zmod:4,zmod:9",
        "prod:zmod:6,zmod:10",
        "prod:zmod:8,zmod:8",
    ]
    + [
        f"trunc:p={p},vars={k},nil={e}"
        for p, k, e in [
            (2, 1, 2), (2, 1, 3), (2, 1, 4), (2, 1, 5), (2, 1, 6),
            (2, 2, 2), (2, 2, 3), (2, 3, 2), (3, 1, 2), (3, 1, 3),
            (3, 2, 2), (5, 1, 2), (7, 1, 2),
        ]
    ]
)

ring_of = functools.cache(parse_ring_spec)
# the same examples on every run, like the rest of the suite
examples = functools.partial(
    settings, deadline=None, derandomize=True, database=None
)


@st.composite
def ring_and_ideals(draw, count):
    """A ring of the family and count ideals, each generated by drawn
    elements (closed by ``generic_closure``, not by the registry)."""
    ring = ring_of(draw(st.sampled_from(FAMILY)))
    element = st.integers(0, ring.order - 1)
    ideals = []
    for _ in range(count):
        gens = tuple(draw(st.lists(element, max_size=3)))
        ideals.append(Ideal(ring, gens, generic_closure(ring, gens)))
    return ring, ideals


def _reference_product(ring, a, b):
    mul = ring.mul
    return generic_closure(ring, {mul(x, y) for x in a for y in b})


def _oracle_lattice(ring):
    """Pairwise-sum BFS over principal ideals, sorted like all_ideals."""
    principal = {}
    for e in range(ring.order):
        principal.setdefault(generic_closure(ring, (e,)), e)
    zero = frozenset({ring.zero})
    known = {zero}
    frontier = [zero]
    add = ring.add
    while frontier:
        new_frontier = []
        for current in frontier:
            for els in principal:
                if els <= current:
                    continue
                combined = frozenset(add(x, y) for x in current for y in els)
                if combined not in known:
                    known.add(combined)
                    new_frontier.append(combined)
        frontier = new_frontier
    return sorted(known, key=lambda els: (len(els), tuple(sorted(els))))


@functools.cache
def _reference_units(ring):
    one, mul = ring.one, ring.mul
    return frozenset(
        x for x in range(ring.order)
        if any(mul(x, y) == one for y in range(ring.order))
    )


@pytest.mark.parametrize(
    "specs",
    # the family, then the zmod and product overrides of principal above
    # TABLE_LIMIT, where no table row is kept
    [FAMILY, ["zmod:300"], ["prod:zmod:16,zmod:17"]],
    ids=["family", "zmod:300", "prod:zmod:16,zmod:17"],
)
@examples(max_examples=40)
@given(data=st.data())
def test_closure_principal_units_match_references(specs, data):
    ring = ring_of(data.draw(st.sampled_from(specs)))
    gens = data.draw(st.lists(st.integers(0, ring.order - 1), max_size=3))
    assert closure_elements(ring, gens) == generic_closure(ring, gens)
    for c in gens:
        assert ring.principal(c) == generic_closure(ring, (c,))
    assert ring.units() == _reference_units(ring)


def test_principal_by_method_calls_above_table_limit():
    # a truncated ring above TABLE_LIMIT has no override and no kept rows;
    # fixed elements, since each worklist closure here takes about 0.5 s
    ring = ring_of("trunc:p=17,vars=1,nil=2")
    for text in ("0", "1", "x", "3x", "2+5x"):
        c = ring.parse_element(text)
        assert ring.principal(c) == generic_closure(ring, (c,)), text
    assert ring.units() == _reference_units(ring)


@examples(max_examples=150)
@given(ring_and_ideals(2))
def test_registry_sum_matches_pairwise_sums(drawn):
    ring, (a, b) = drawn
    add = ring.add
    expected = frozenset(add(x, y) for x in a.elements for y in b.elements)
    assert ideal_sum(a, b).elements == expected
    space = ideal_space(ring)
    ida, idb = space.intern(a.elements), space.intern(b.elements)
    assert space.set_of(space.sum(ida, idb)) == expected
    assert space.sum(ida, idb) == space.sum(idb, ida)


@examples(max_examples=150)
@given(ring_and_ideals(2))
def test_registry_product_matches_element_products(drawn):
    ring, (a, b) = drawn
    expected = _reference_product(ring, a.elements, b.elements)
    assert product_elements(ring, a.elements, b.elements) == expected
    assert product_elements(ring, b.elements, a.elements) == expected


@examples(max_examples=100)
@given(ring_and_ideals(1))
def test_registry_power_matches_repeated_product(drawn):
    ring, (a,) = drawn
    expected = frozenset(range(ring.order))
    for n in range(6):
        assert power_elements(ring, a.elements, n) == expected, n
        expected = _reference_product(ring, expected, a.elements)


def test_lattice_matches_pairwise_sum_oracle():
    for spec in FAMILY:
        # a fresh ring, so the lattice is built from a cold registry
        ring = parse_ring_spec(spec)
        got = [ideal.elements for ideal in all_ideals(ring)]
        assert got == _oracle_lattice(ring), spec


def _reference_strong_violation(ideal, n):
    """Pruning-free strong scan: the first non-decreasing (n+1)-tuple of
    lattice positions whose product lies in I while no n-subproduct does,
    with every product taken by _reference_product."""
    ring = ideal.ring
    lattice = all_ideals(ring)

    def inside(sets):
        acc = frozenset(range(ring.order))
        for els in sets:
            acc = _reference_product(ring, acc, els)
        return acc <= ideal.elements

    for combo in itertools.combinations_with_replacement(lattice, n + 1):
        sets = [iv.elements for iv in combo]
        if inside(sets) and not any(
            inside(sets[:t] + sets[t + 1:]) for t in range(n + 1)
        ):
            return combo
    return None


def test_strong_scan_matches_reference_witnesses():
    for spec in ("zmod:12", "prod:zmod:2,zmod:4", "prod:zmod:4,zmod:4",
                 "trunc:p=2,vars=2,nil=2"):
        ring = parse_ring_spec(spec)
        for ideal in all_ideals(ring):
            if not ideal.is_proper:
                continue
            for n in (1, 2, 3):
                got = is_strongly_n_absorbing(ideal, n).violation
                assert got == _reference_strong_violation(ideal, n), (spec, n)


def test_memo_layout_one_registry_one_id():
    ring = make_zmod(12)
    bounds = cli.Bounds(max_deg=1)
    six = parse_ideal_spec(ring, "gen:6")
    cli.COMMANDS["conjecture1"](ring, None, bounds, 0, ())
    cli.COMMANDS["dm"](ring, None, bounds, 0, ())
    cli.COMMANDS["certify"](ring, six, bounds, 0, ("2+2x", "3x"))
    cli.COMMANDS["poly-omega"](ring, six, bounds, 0, ())
    assert set(ring.caches) == {"ideal_space", "all_ideals"}

    space = ideal_space(ring)
    assert content_space(ring) is space
    lattice = all_ideals(ring)
    ids = [space.intern(ideal.elements) for ideal in lattice]
    # the content lookup of each ideal's generators gives its lattice id
    for ideal, cid in zip(lattice, ids):
        assert space.id_of_coeffs(ideal.generators) == cid
        assert space.id_of_ideal(ideal) == cid
    # the strong scan multiplies lattice ids through the same registry
    seen = []
    product = space.product

    def recorded(a, b):
        got = product(a, b)
        seen.append((a, b, got))
        return got

    space.product = recorded
    assert not is_strongly_n_absorbing(lattice[0], 1).holds
    assert seen and set(x for t in seen for x in t) <= set(ids)
