"""The exact reductions against the unreduced references of ``oracles``:
the element scan over one element per principal ideal, and the exhaustive
DM table and certify sweep over one pair per pair of unit orbits, weighted
by the orbit sizes, and the pair searches deciding each unordered pair of
unit orbits once. Witnesses and every count must be those of the full
walk. The poly-omega scan over residue polynomials and the row kernel
against the sparse dict-product scan, the residue table's found path
against the element scan, the hit-mask multiset scan against the
per-candidate scan on element, lattice and residue-class tables, and the
kernel itself against ``poly_mul``. The
integer leg over (Z/m)[X] against the loop that expands every product in
Z[X], its found path included. Last, the axiom check over an additive
generating set against the full lexicographic axiom scan, and the
truncated rings' tables built by digit arithmetic against the tables of
their ``add`` and ``mul``."""

import functools
import itertools
import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import (
    _box_polys,
    _in_mzx,
    _product,
    _violates,
    reference_certify_sweep,
    reference_conjecture_check_int,
    reference_dm_table,
    reference_is_n_absorbing,
    reference_multiset_scan,
    reference_pair_search,
    reference_poly_omega,
)

from omegalab.absorbing import is_n_absorbing, multiset_rank, multiset_scan, omega
from omegalab.content_checks import (
    DEFAULT_BUDGET,
    _admissible_sweep,
    _convolver,
    armendariz_search,
    certify_pair_sweep,
    dm_exponent_table,
    gaussian_search,
    verify_poly_omega,
)
from omegalab.ideals import (
    all_ideals,
    ideal_from_generators,
    ideal_space,
    quotient_by,
)
from omegalab.integers import _mod_table, conjecture_check_int, omega_int
from omegalab.polys import _residue_table, display_poly, make_poly, poly_mul
from omegalab.rings import (
    TABLE_LIMIT,
    AxiomReport,
    LazyRow,
    TableRing,
    _additive_generators,
    _axiom_scan,
    _full_table,
    coset_minima,
    monomials_up_to,
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


# the reference search lists order**slots polynomials and walks their
# admissible pairs one by one
SEARCH_LIMIT = 2048
SEARCHES = {"gaussian": gaussian_search, "armendariz": armendariz_search}


@examples(max_examples=60)
@given(
    st.sampled_from(CONTENT_FAMILY),
    st.integers(1, 2),
    st.integers(1, 2),
    st.sampled_from(sorted(SEARCHES)),
    budgets,
)
def test_pair_search_matches_reference(spec, num_vars, max_deg, kind, budget):
    # found, witness, checked, mode and seed of the orbit-memoized walk
    # against the walk that decides every pair on its own
    ring = cube_quotient() if spec == "cube-quotient" else ring_of(spec)
    assume(ring.order ** math.comb(num_vars + max_deg, max_deg) <= SEARCH_LIMIT)
    args = (ring, num_vars, max_deg, budget, 500, 3)
    got = SEARCHES[kind](*args)
    assert got == reference_pair_search(*args[:3], kind, *args[3:])
    assert got.mode == ("exhaustive" if budget else "sampled:500")


@pytest.mark.parametrize("kind", sorted(SEARCHES))
@pytest.mark.parametrize("num_vars, max_deg", [(1, 1), (1, 2), (2, 1)])
def test_found_searches_match_reference(kind, num_vars, max_deg):
    # the shapes where both searches find a pair on the cube quotient, at
    # the 532nd or 4,564th admissible pair: the property's draws rarely
    # reach a found walk
    ring = cube_quotient()
    got = SEARCHES[kind](ring, num_vars, max_deg)
    assert got.found
    assert got == reference_pair_search(ring, num_vars, max_deg, kind)


def test_cube_search_matches_reference():
    # the paper's non-Gaussian ring, pinned outright: the first failing
    # pair is (2+4x, 2+4x), the 33,232nd admissible pair of the walk
    ring = ring_of("trunc:p=2,vars=2,nil=3")
    got = gaussian_search(ring, 1, 1)
    assert got == reference_pair_search(ring, 1, 1, "gaussian")
    assert (got.found, got.checked, got.mode) == (True, 33232, "exhaustive")
    assert [display_poly(f) for f in got.witness] == ["2+4x", "2+4x"]


# a budget that fits the small scans (larger ones sample) and one that
# always samples; zmod:300, above TABLE_LIMIT, always samples and reads
# lazy rows
POLY_BUDGETS = [20_000, 0]


@examples(max_examples=50)
@given(
    st.sampled_from(CONTENT_FAMILY + ["zmod:300"]),
    st.integers(1, 2),
    st.integers(1, 2),
    st.sampled_from(POLY_BUDGETS),
)
def test_poly_omega_matches_dict_reference(spec, num_vars, max_deg, budget):
    ring = cube_quotient() if spec == "cube-quotient" else ring_of(spec)
    if ring.order > 256:
        budget = 0
    for ideal in all_ideals(ring):
        if not ideal.is_proper:
            continue
        args = (ideal, max_deg, num_vars, 6, budget, 100, 5)
        got = verify_poly_omega(*args)
        assert got == reference_poly_omega(*args), (spec, ideal.generators)
        if budget == 0:
            assert got.mode.startswith(("sampled", "skipped"))


@pytest.mark.parametrize(
    "spec, gens, witness",
    [
        ("zmod:12", (), (2, 2, 3)),
        ("zmod:18", (9,), (3, 3)),
        ("trunc:p=2,vars=2,nil=2", (2,), (4, 4)),
    ],
)
def test_residue_scan_finds_element_witness(spec, gens, witness):
    """The found path of the residue table, which no bounded poly-omega
    input reaches: at max_deg 0 and n = omega(I) - 1, the scan over the
    element scan's candidates as reduced constants returns the witness of
    is_n_absorbing(I, n)."""
    ring = ring_of(spec)
    ideal = ideal_from_generators(ring, gens)
    n = omega(ideal).value - 1
    space = ideal_space(ring)
    cands = [
        x for i, x in space.principal_reps().items()
        if i != space.full_id and x not in ideal.elements
    ]
    _, convolve = _convolver(ring, 1, 0, n + 1)
    reduce, one, table, inside = _residue_table(
        coset_minima(ring, ideal.elements), ring.zero, ring.one, convolve
    )
    found = multiset_scan([reduce((x,)) for x in cands], one, table, inside, n)[0]
    assert found is not None
    got = tuple(cands[i] for i in found)
    assert got == is_n_absorbing(ideal, n).violation == witness


# rings whose multiset scans the reference walks in about a second in all
SCAN_FAMILY = [f"zmod:{m}" for m in range(2, 19)] + [
    "prod:zmod:2,zmod:4", "prod:zmod:2,zmod:6", "trunc:p=2,vars=2,nil=2",
    "trunc:p=2,vars=1,nil=3", "trunc:p=3,vars=1,nil=2",
]


def scan_inputs(ideal, kind: str, n: int):
    """(candidates, one, table, inside) as the element scan, the strong
    scan or poly-omega at degree 1 (unit classes of residue polynomials
    over the admissible polynomials) give them to multiset_scan."""
    ring = ideal.ring
    members = ideal.elements
    space = ideal_space(ring)
    if kind == "element":
        cands = [
            x for i, x in space.principal_reps().items()
            if i != space.full_id and x not in members
        ]
        return cands, ring.one, ring.mul_rows(), members
    if kind == "lattice":
        ids = [space.intern(iv.elements) for iv in all_ideals(ring)]
        inside = frozenset(i for i in ids if space.set_of(i) <= members)
        cands = [i for i in ids if i not in inside and i != space.full_id]
        table = LazyRow(lambda _, a: LazyRow(space.product, a), None)
        return cands, space.full_id, table, inside
    slots, convolve = _convolver(ring, 1, 1, n + 1)
    adm, _ = _admissible_sweep(
        ring, slots, members, lambda a: 0, DEFAULT_BUDGET, 0, 0
    )
    rows = ring.mul_rows()
    reduce, one, table, inside = _residue_table(
        coset_minima(ring, members), ring.zero, ring.one, convolve,
        [rows[u] for u in ring.units()],
    )
    return [reduce(coeffs) for coeffs, _ in adm], one, table, inside


@examples(max_examples=40)
@given(st.sampled_from(SCAN_FAMILY))
def test_multiset_scan_matches_reference(spec):
    """The hit-mask scan against the per-candidate leaf scan, in the first
    violation, the leaves tried and those of them whose product lies in I,
    for n = 1 up to omega(I), where the
    reference element scan first finds nothing; below omega(I) the class
    scan finds a violation too, so the found path is compared."""
    ring = ring_of(spec)
    for ideal in all_ideals(ring):
        if not ideal.is_proper:
            continue
        for n in itertools.count(1):
            want = {}
            for kind in ("element", "lattice", "class"):
                args = (*scan_inputs(ideal, kind, n), n)
                want[kind] = reference_multiset_scan(*args)
                assert multiset_scan(*args) == want[kind], (
                    spec, kind, ideal.generators, n
                )
            assert (want["class"][0] is None) == (want["element"][0] is None)
            if want["element"][0] is None:
                break


# the largest reference walk the integer-leg property runs: multisets in
# exhaustive mode, draws in sampled mode
INT_WALK_LIMIT = 5000
SMOOTH_MODULI = [2, 3, 4, 6, 8, 9, 12, 16, 18, 24, 27, 32, 36, 48, 54]


@st.composite
def int_cases(draw):
    """(m, max_deg, height, sample, seed, budget); budget 0 forces the
    sampled mode. Exhaustive cases whose walk exceeds INT_WALK_LIMIT
    multisets are skipped."""
    # half the moduli have every prime factor <= 3, so the box holds
    # tuples whose product lies in mZ[X]
    m = draw(st.sampled_from(SMOOTH_MODULI) | st.sampled_from(range(2, 61)))
    max_deg = draw(st.sampled_from([0, 1, 2]))
    height = draw(st.sampled_from([1, 2, 3]))
    sample = draw(st.sampled_from([1, 50, 500]))
    seed = draw(st.integers(0, 99))
    budget = draw(st.sampled_from([DEFAULT_BUDGET, 0]))
    box = (2 * height + 1) ** (max_deg + 1)
    k = omega_int(m).value + 1
    if budget and box**k <= budget:
        assume(math.comb(box + k - 1, k) <= INT_WALK_LIMIT)
    return m, max_deg, height, sample, seed, budget


@examples(max_examples=150)
@given(int_cases())
def test_int_leg_matches_expanding_reference(case):
    # every report field: checked, drawn, mode, seed, witness_valid and
    # the violation
    assert conjecture_check_int(*case) == reference_conjecture_check_int(*case)


@pytest.mark.parametrize(
    "m, checked, drawn", [(4, 696, 2600), (8, 2250, 17550), (16, 6072, 98280)]
)
def test_int_leg_exhaustive_counts(m, checked, drawn):
    report = conjecture_check_int(m, max_deg=1, height=2)
    assert report.mode == "exhaustive"
    assert (report.checked, report.drawn) == (checked, drawn)
    assert report.violation is None and report.witness_valid


@pytest.mark.parametrize(
    "m, witness, checked, drawn",
    [(12, (-3, -2, -2), 1, 7), (18, (-3, -3, -2), 1, 2), (8, (-2, -2, -2), 1, 22)],
)
def test_int_walk_finds_constant_witness(m, witness, checked, drawn):
    """The found path of the integer leg's counts, which no input of
    conjecture_check_int reaches (Z is a PID, so the degree identity
    holds): over the constants of height 3 and n = Omega(m) - 1 factors,
    multiset_scan with drawn = multiset_rank(found) and checked = drawn -
    leaves + inside_leaves gives the violation, checked and drawn of the
    expanding loop over ``combinations_with_replacement``."""
    n = omega_int(m).value - 1
    consts = [c for c in range(-3, 4) if c % m]
    reduce, one, table, inside = _mod_table(m)
    found, leaves, inside_leaves = multiset_scan(
        [reduce((c,)) for c in consts], one, table, inside, n
    )
    assert found is not None
    drawn = multiset_rank(found, len(consts), n)
    got = (tuple(consts[i] for i in found), drawn - leaves + inside_leaves, drawn)

    polys = _box_polys(0, 3, m)
    ref_checked = ref_drawn = 0
    for combo in itertools.combinations_with_replacement(range(len(polys)), n + 1):
        ref_drawn += 1
        tup = [polys[i] for i in combo]
        full = _product(tup)
        if _in_mzx(full, m):
            ref_checked += 1
            if _violates(tup, full, m):
                break
    expected = (tuple(p.coefficients()[0] for p in tup), ref_checked, ref_drawn)
    assert got == expected == (witness, checked, drawn)


def test_lex_rank_matches_enumeration_order():
    """multiset_rank is the 1-based position of a multiset in the order of
    ``combinations_with_replacement`` (every multiset of up to 8 positions
    and 4 factors), and None ranks as the last."""
    for count in range(1, 9):
        for n in range(4):
            combos = itertools.combinations_with_replacement(range(count), n + 1)
            for rank, combo in enumerate(combos, 1):
                assert multiset_rank(combo, count, n) == rank, (combo, count)
            assert multiset_rank(None, count, n) == rank


KERNEL_RINGS = [
    "zmod:6", "zmod:12", "prod:zmod:2,zmod:4", "trunc:p=2,vars=2,nil=2",
    "trunc:p=3,vars=1,nil=2", "zmod:300",
]


@st.composite
def kernel_inputs(draw):
    """(ring, num_vars, max_deg, factors, a, b): a partial product of k
    factors over the slots up to k*max_deg and a candidate over the slots
    up to max_deg, in either order."""
    ring = ring_of(draw(st.sampled_from(KERNEL_RINGS)))
    num_vars = draw(st.integers(1, 2))
    max_deg = draw(st.integers(0, 2))
    factors = draw(st.integers(2, 4))
    k = draw(st.integers(1, factors - 1))
    coeff = st.integers(0, ring.order - 1)

    def over(deg):
        length = len(monomials_up_to(num_vars, deg))
        return draw(st.lists(coeff, min_size=length, max_size=length))

    a, b = over(k * max_deg), over(max_deg)
    if draw(st.booleans()):
        a, b = b, a
    return ring, num_vars, max_deg, factors, a, b


@examples(max_examples=150)
@given(kernel_inputs())
def test_kernel_matches_poly_mul(inputs):
    ring, num_vars, max_deg, factors, a, b = inputs
    _, convolve = _convolver(ring, num_vars, max_deg, factors)
    prod_slots = monomials_up_to(num_vars, factors * max_deg)

    def poly(coeffs):
        return make_poly(ring, num_vars, dict(zip(prod_slots, coeffs)))

    got = convolve(a, b)
    assert len(got) == len(prod_slots)
    assert poly(got) == poly_mul(poly(a), poly(b))


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


def test_trunc_digit_tables_match_methods():
    # the kept rows of every trunc ring of the axiom family and the absorb
    # list, built by digit arithmetic, against the tables of add and mul
    specs = {s for s in AXIOM_FAMILY + BUILT_RINGS if s.startswith("trunc:")}
    for spec in sorted(specs):
        ring = parse_ring_spec(spec)
        assert ring.order <= TABLE_LIMIT
        assert ring.add_rows() == _full_table(ring.add, ring.order), spec
        assert ring.mul_rows() == _full_table(ring.mul, ring.order), spec
