"""The ideal registry against the reference routes of ``oracles``: the
worklist closure ``generic_closure``, pairwise sums, I + (c) for associate
generators c, the closure of all element products, repeated products, a
double-loop unit scan, the pairwise-sum lattice BFS that the registry
replaced and a pruning-free strong scan."""

import functools

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from oracles import (
    generic_closure,
    oracle_lattice,
    reference_ideal_radical,
    reference_product,
    reference_strong_violation,
    reference_units,
)

from omegalab import cli
from omegalab.absorbing import is_strongly_n_absorbing
from omegalab.content_checks import dm_exponent_table
from omegalab.ideals import (
    Ideal,
    all_ideals,
    closure_elements,
    ideal_radical,
    ideal_space,
    parse_ideal_spec,
    quotient_by,
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


@pytest.mark.parametrize(
    "specs",
    # the family, then principal above TABLE_LIMIT, where no table row is
    # kept: the zmod override and, on the product, the method-call branch
    # of FiniteRing.principal
    [FAMILY, ["zmod:300"], ["prod:zmod:16,zmod:17"]],
    ids=["family", "zmod:300", "prod:zmod:16,zmod:17"],
)
def test_closure_principal_units_match_references(specs):
    # the units do not depend on the draw: check every ring once
    for spec in specs:
        ring = ring_of(spec)
        assert ring.units() == reference_units(ring), spec

    # a fixed seed, so the draws do not move when the file changes
    @seed(0)
    @examples(max_examples=40)
    @given(data=st.data())
    def closure_and_principal_match(data):
        ring = ring_of(data.draw(st.sampled_from(specs)))
        gens = data.draw(st.lists(st.integers(0, ring.order - 1), max_size=3))
        assert closure_elements(ring, gens) == generic_closure(ring, gens)
        for c in gens:
            assert ring.principal(c) == generic_closure(ring, (c,))

    closure_and_principal_match()


def test_principal_by_method_calls_above_table_limit():
    # a truncated ring above TABLE_LIMIT has no override and no kept rows;
    # fixed elements, since each worklist closure here takes about 0.5 s
    ring = ring_of("trunc:p=17,vars=1,nil=2")
    # index d0 + 17*d1 is d0 + d1*x: 0, 1, x, 3x, 2+5x
    for c in (0, 1, 17, 51, 87):
        assert ring.principal(c) == generic_closure(ring, (c,)), c
    assert ring.units() == reference_units(ring)


@functools.cache
def content_ring(spec: str):
    """A ring of the family, zmod:300 (lazy rows above TABLE_LIMIT), or
    "quotient", a table ring: trunc:p=2,vars=2,nil=3 modulo (y^2)."""
    if spec == "quotient":
        parent = ring_of("trunc:p=2,vars=2,nil=3")
        return quotient_by(parse_ideal_spec(parent, "gen:8"))
    return ring_of(spec)


@examples(max_examples=300)
@given(st.sampled_from(FAMILY + ["zmod:300", "quotient"]), st.data())
def test_content_fold_matches_worklist_closure(spec, data):
    # the fold against the worklist closure, on a registry warmed by the
    # earlier examples; the coefficients come unsorted, and again reversed
    # with a zero and a repeat mixed in
    ring = content_ring(spec)
    coeffs = data.draw(st.lists(st.integers(0, ring.order - 1), max_size=5))
    space = ideal_space(ring)
    expected = space.intern(generic_closure(ring, coeffs))
    assert space.id_of_coeffs(coeffs) == expected
    mixed = coeffs[::-1] + [ring.zero] + coeffs[:1]
    assert space.id_of_coeffs(mixed) == expected


def test_radical_table_matches_reference():
    for spec in FAMILY:
        ring = ring_of(spec)
        for ideal in all_ideals(ring):
            if ideal.is_proper:
                got = ideal_radical(ideal).elements
                assert got == reference_ideal_radical(ideal), (spec, ideal)


@examples(max_examples=150)
@given(ring_and_ideals(2))
def test_registry_sum_matches_pairwise_sums(drawn):
    ring, (a, b) = drawn
    add = ring.add
    expected = frozenset(add(x, y) for x in a.elements for y in b.elements)
    # I + J is I extended by each generator of J
    space = ideal_space(ring)
    total = space.intern(a.elements)
    for g in b.generators:
        total = space.extend(total, g)
    assert space.set_of(total) == expected
    assert space.id_of_coeffs(a.generators + b.generators) == total


@examples(max_examples=150)
@given(ring_and_ideals(1), st.data())
def test_extend_depends_only_on_principal_ideal(drawn, data):
    # c and uc generate one principal ideal for every unit u
    ring, (a,) = drawn
    c = data.draw(st.integers(0, ring.order - 1))
    u = data.draw(st.sampled_from(sorted(reference_units(ring))))
    associate = ring.mul(u, c)
    space = ideal_space(ring)
    ida = space.intern(a.elements)
    got = space.extend(ida, associate)
    assert space.extend(ida, c) == got
    assert space.set_of(got) == generic_closure(ring, a.generators + (c,))


def test_extend_memo_keyed_by_principal_ideal():
    # config B of the campaign: most of the 300 elements reach extend
    ring = make_zmod(300)
    dm_exponent_table(ring, 1, 1, sample=1000)
    space = ideal_space(ring)
    # the filled entries of the per-ideal rows of I + (c)
    keys = [
        (i, pid)
        for i, row in enumerate(space._sums)
        for pid, got in enumerate(row)
        if got is not None
    ]
    principals = set(space.principal_reps())
    assert {pid for _, pid in keys} <= principals
    assert len(keys) <= len(all_ideals(ring)) * len(principals)


@examples(max_examples=150)
@given(ring_and_ideals(2))
def test_registry_product_matches_element_products(drawn):
    ring, (a, b) = drawn
    expected = reference_product(ring, a.elements, b.elements)
    space = ideal_space(ring)
    ida, idb = space.intern(a.elements), space.intern(b.elements)
    assert space.set_of(space.product(ida, idb)) == expected
    assert space.product(idb, ida) == space.product(ida, idb)


@examples(max_examples=100)
@given(ring_and_ideals(1))
def test_registry_power_matches_repeated_product(drawn):
    ring, (a,) = drawn
    space = ideal_space(ring)
    ida = space.intern(a.elements)
    expected = frozenset(range(ring.order))
    for n in range(6):
        assert space.set_of(space.power(ida, n)) == expected, n
        expected = reference_product(ring, expected, a.elements)


def test_lattice_matches_pairwise_sum_oracle():
    for spec in FAMILY:
        # a fresh ring, so the lattice is built from a cold registry
        ring = parse_ring_spec(spec)
        got = [ideal.elements for ideal in all_ideals(ring)]
        assert got == oracle_lattice(ring), spec


def test_strong_scan_matches_reference_witnesses():
    for spec in ("zmod:12", "prod:zmod:2,zmod:4", "prod:zmod:4,zmod:4",
                 "trunc:p=2,vars=2,nil=2"):
        ring = parse_ring_spec(spec)
        for ideal in all_ideals(ring):
            if not ideal.is_proper:
                continue
            for n in (1, 2, 3):
                got = is_strongly_n_absorbing(ideal, n).violation
                assert got == reference_strong_violation(ideal, n), (spec, n)


def test_memo_layout_one_registry_one_id():
    ring = make_zmod(12)
    bounds = cli.Bounds(max_deg=1)
    six = parse_ideal_spec(ring, "gen:6")
    cli.COMMANDS["conjecture1"].run(ring, None, bounds, 0, ())
    cli.COMMANDS["dm"].run(ring, None, bounds, 0, ())
    cli.COMMANDS["certify"].run(ring, six, bounds, 0, ("2+2x", "3x"))
    cli.COMMANDS["poly-omega"].run(ring, six, bounds, 0, ())
    assert set(ring.caches) == {"ideal_space", "all_ideals"}

    space = ideal_space(ring)
    lattice = all_ideals(ring)
    ids = [space.intern(ideal.elements) for ideal in lattice]
    # the content lookup of each ideal's generators gives its lattice id
    for ideal, cid in zip(lattice, ids):
        assert space.id_of_coeffs(ideal.generators) == cid
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
