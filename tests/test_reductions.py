"""The exact reductions against the unreduced references of ``oracles``:
the element scan over one element per principal ideal, and the exhaustive
DM table and certify sweep over one pair per pair of unit orbits, weighted
by the orbit sizes. Witnesses and every count must be those of the full
walk. Last, the axiom check over an additive generating set against the
full lexicographic axiom scan."""

import functools
import math

from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import (
    reference_certify_sweep,
    reference_dm_table,
    reference_is_n_absorbing,
)

from omegalab.absorbing import is_n_absorbing, omega
from omegalab.content_checks import (
    DEFAULT_BUDGET,
    certify_pair_sweep,
    dm_exponent_table,
)
from omegalab.ideals import all_ideals, ideal_from_generators, quotient_by
from omegalab.rings import (
    AxiomReport,
    TableRing,
    _additive_generators,
    _axiom_scan,
    parse_ring_spec,
    verify_ring_axioms,
)

ring_of = functools.cache(parse_ring_spec)
examples = functools.partial(
    settings, deadline=None, derandomize=True, database=None
)

# large unit groups (zmod:48, prod:zmod:4,zmod:9, trunc:p=3,vars=1,nil=3)
# give large associate classes
ABSORB_FAMILY = [f"zmod:{m}" for m in range(2, 25)] + [
    "zmod:36", "zmod:48", "prod:zmod:2,zmod:4", "prod:zmod:4,zmod:9",
    "trunc:p=2,vars=2,nil=2", "trunc:p=2,vars=1,nil=4",
    "trunc:p=3,vars=1,nil=3",
]
# the reference walks every (n+1)-multiset of elements
MULTISET_LIMIT = 30_000


@examples(max_examples=30)
@given(st.sampled_from(ABSORB_FAMILY))
def test_element_scan_matches_reference_witnesses(spec):
    ring = ring_of(spec)
    for ideal in all_ideals(ring):
        if not ideal.is_proper:
            continue
        for n in range(1, omega(ideal).value + 1):
            if math.comb(ring.order + n, n + 1) > MULTISET_LIMIT:
                break
            got = is_n_absorbing(ideal, n)
            assert got == reference_is_n_absorbing(ideal, n), (
                spec, ideal.generators, n
            )


@functools.cache
def cube_quotient():
    """F_2[x,y]/(x^2, y^2), order 16: f = x + yX has c(f)^2 = (xy) but
    f^2 = 0, so the pair (f, f) has DM exponent 2."""
    cube = ring_of("trunc:p=2,vars=2,nil=3")
    return quotient_by(ideal_from_generators(cube, (8, 32)))  # y^2, x^2


CONTENT_FAMILY = [f"zmod:{m}" for m in range(2, 13)] + [
    "prod:zmod:2,zmod:2", "prod:zmod:2,zmod:3", "prod:zmod:2,zmod:4",
    "trunc:p=2,vars=1,nil=2", "trunc:p=2,vars=1,nil=3",
    "trunc:p=2,vars=2,nil=2", "trunc:p=3,vars=1,nil=2",
    "trunc:p=2,vars=2,nil=3", "cube-quotient",
]
# the reference walks order**(2 * slots) pairs
PAIR_LIMIT = 65_536


@st.composite
def sweep_shapes(draw):
    """(ring, num_vars, max_deg) with a reference walk within PAIR_LIMIT."""
    spec = draw(st.sampled_from(CONTENT_FAMILY))
    ring = cube_quotient() if spec == "cube-quotient" else ring_of(spec)
    num_vars = draw(st.integers(1, 2))
    max_deg = draw(st.integers(0, 2))
    slots = math.comb(num_vars + max_deg, max_deg)
    assume(ring.order ** (2 * slots) <= PAIR_LIMIT)
    return ring, num_vars, max_deg


# budget 0 samples: the draws are read one by one, with weight 1
budgets = st.sampled_from([DEFAULT_BUDGET, 0])


@examples(max_examples=40)
@given(sweep_shapes(), st.sampled_from([1, 6]), budgets)
def test_dm_table_matches_reference(shape, cap, budget):
    ring, num_vars, max_deg = shape
    args = (ring, num_vars, max_deg, cap, budget, 500, 3)
    assert dm_exponent_table(*args) == reference_dm_table(*args)


def test_exponent_two_sweeps_match_reference():
    # the one ring of the family where exponent 2 occurs, pinned outright:
    # the DM witness, the cap count and the first failing certify pair
    ring = cube_quotient()
    table = dm_exponent_table(ring, 1, 1)
    assert table.max_exponent == 2
    assert table == reference_dm_table(ring, 1, 1)
    capped = dm_exponent_table(ring, 1, 1, cap=1)
    assert capped.cap_exceeded > 0
    assert capped == reference_dm_table(ring, 1, 1, cap=1)
    zero = ideal_from_generators(ring, ())
    sweep = certify_pair_sweep(zero, 1, 1)
    assert sweep.witness is not None
    assert sweep == reference_certify_sweep(zero, 1, 1)


@examples(max_examples=40)
@given(sweep_shapes(), budgets, st.data())
def test_certify_sweep_matches_reference(shape, budget, data):
    ring, num_vars, max_deg = shape
    proper = [i for i in all_ideals(ring) if i.is_proper]
    ideal = data.draw(st.sampled_from(proper))
    args = (ideal, num_vars, max_deg, 8, budget, 500, 3)
    assert certify_pair_sweep(*args) == reference_certify_sweep(*args)


AXIOM_FAMILY = [
    "zmod:2", "zmod:3", "zmod:4", "zmod:6", "zmod:9", "zmod:12", "zmod:16",
    "prod:zmod:2,zmod:2", "prod:zmod:2,zmod:3", "prod:zmod:2,zmod:4",
    "prod:zmod:4,zmod:4", "trunc:p=2,vars=1,nil=3", "trunc:p=2,vars=1,nil=4",
    "trunc:p=2,vars=2,nil=2", "trunc:p=3,vars=1,nil=2", "cube-quotient",
]


@st.composite
def corrupted_rings(draw):
    """A table ring of order <= 16 from the family with one or two entries
    of its tables overwritten, each alone or with its mirror entry."""
    spec = draw(st.sampled_from(AXIOM_FAMILY))
    base = cube_quotient() if spec == "cube-quotient" else ring_of(spec)
    last = base.order - 1
    tables = [[list(r) for r in base.add_rows()], [list(r) for r in base.mul_rows()]]
    for _ in range(draw(st.integers(1, 2))):
        table = tables[draw(st.integers(0, 1))]
        i, j, value = draw(st.tuples(*[st.integers(0, last)] * 3))
        table[i][j] = value
        if draw(st.booleans()):
            table[j][i] = value
    return TableRing(*tables, base.zero, base.one, f"corrupt:{spec}")


@examples(max_examples=400)
@given(corrupted_rings())
def test_axiom_check_matches_full_scan(ring):
    assert verify_ring_axioms(ring) == _axiom_scan(ring, generated=False)


def test_additive_generators_per_family():
    def gens(spec):
        return _additive_generators(ring_of(spec).add_rows(), 0)

    assert gens("zmod:12") == [1]
    assert gens("prod:zmod:4,zmod:6") == [1, 6]
    # the monomials 1, y, x, y^2, xy, x^2 at digits 0..5
    assert gens("trunc:p=2,vars=2,nil=3") == [1, 2, 4, 8, 16, 32]
    assert gens("trunc:p=3,vars=1,nil=3") == [1, 3, 9]


# every ring the absorb benchmark builds, and prod:zmod:16,zmod:16
BUILT_RINGS = (
    [f"zmod:{m}" for m in range(2, 65)] + ["zmod:128", "zmod:256"]
    + [
        f"prod:zmod:{a},zmod:{b}"
        for a, b in ((2, 2), (2, 4), (4, 4), (4, 9), (2, 27), (4, 8), (8, 9), (16, 16))
    ]
    + [
        f"trunc:p={p},vars={k},nil={e}"
        for p, k, e in (
            (2, 1, 2), (2, 1, 3), (2, 1, 4), (2, 2, 2), (2, 2, 3),
            (3, 1, 2), (3, 1, 3), (3, 2, 2), (5, 1, 2),
        )
    ]
)


def test_generating_set_pass_decides_real_rings():
    # the full scan runs only after the pass fails, so on a real ring it
    # must never run
    for spec in BUILT_RINGS:
        ring = parse_ring_spec(spec)
        assert _axiom_scan(ring, generated=True) == AxiomReport(ok=True, checked=True), spec
        assert verify_ring_axioms(ring) == AxiomReport(ok=True, checked=True), spec
