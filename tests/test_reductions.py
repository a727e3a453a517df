"""The exact reductions against the unreduced references of ``oracles``:
the element scan over one element per principal ideal, and the exhaustive
DM table and certify sweep over one pair per pair of unit orbits, weighted
by the orbit sizes, and the pair searches deciding each unordered pair of
unit orbits once. Witnesses and every count must be those of the full
walk. The Gaussian certificate against a brute-force degree-1 content
law, and the sweeps that read it against the orbit walk they skip.
omega and strong omega, one scan at the local-factor bound, against the
degree walk over the reference scans, and the published
bounds (Choi-Walker, Anderson-Badawi) as oracles on the same rings. The
poly-omega scan over residue polynomials and the row kernel
against the sparse dict-product scan, the residue table's found path
against the element scan, the hit-mask multiset scan against the
per-candidate scan on element, lattice and residue-class tables, and the
kernel itself against ``poly_mul``. The
integer leg over (Z/m)[X] against the loop that expands every product in
Z[X], its found path included. Last, the axiom check over an additive
generating set against the full lexicographic axiom scan and the
entry-by-entry reference ``reference_axiom_report``, and the kept
rows of every family, built without a method call, against the tables of
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
    method_table,
    reference_axiom_report,
    reference_certify_sweep,
    reference_conjecture_check_int,
    reference_dm_table,
    reference_ideal_radical,
    reference_is_n_absorbing,
    reference_multiset_scan,
    reference_pair_search,
    reference_poly_omega,
    reference_product,
    reference_strong_violation,
)

from omegalab import absorbing, polys
from omegalab.absorbing import (
    DEFAULT_CAP,
    OmegaResult,
    is_n_absorbing,
    is_strongly_n_absorbing,
    multiset_rank,
    multiset_scan,
    omega,
    strong_omega,
)
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
    IdealSpace,
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
    ProductRing,
    TableRing,
    TruncatedLocalRing,
    ZmodRing,
    _additive_generators,
    _axiom_scan,
    coset_minima,
    make_product,
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


# ---------------------------------------------------------------------------
# the local-factor bound that decides omega and strong omega

TRUNC_PRODUCTS = [
    "prod:trunc:p=2,vars=1,nil=2,trunc:p=3,vars=1,nil=2",
    "prod:trunc:p=2,vars=1,nil=3,trunc:p=2,vars=1,nil=2",
    "prod:trunc:p=2,vars=2,nil=2,trunc:p=2,vars=1,nil=2",
]
# the reference strong walk takes every ideal product by closure
STRONG_LIMIT = 400


@functools.cache
def bound_family() -> tuple:
    """The absorb family, the quotients of its rings by their nonzero
    proper ideals, and products of trunc rings."""
    rings = [ring_of(spec) for spec in ABSORB_FAMILY + TRUNC_PRODUCTS]
    quotients = [
        quotient_by(ideal)
        for ring in rings[:len(ABSORB_FAMILY)]
        for ideal in all_ideals(ring)
        if ideal.is_proper and not ideal.is_zero
    ]
    return tuple(rings + quotients)


def proper_ideals(ring):
    return [ideal for ideal in all_ideals(ring) if ideal.is_proper]


def degree_walk(violation, cap: int = DEFAULT_CAP) -> OmegaResult:
    """The least n <= cap with no violation(n), walked from n = 1; the
    witness is the violation at n - 1, or at the cap past it."""
    witness = None
    for n in range(1, cap + 1):
        found = violation(n)
        if found is None:
            return OmegaResult(n, cap, witness)
        witness = found
    return OmegaResult(None, cap, witness)


def reference_walk(ideal, violation, size: int, limit: int):
    """The degree walk over a pruning-free reference scan, as
    ``degree_walk`` makes it; None once a step would try more than limit
    multisets of size candidates."""
    witness = None
    for n in range(1, DEFAULT_CAP + 1):
        if math.comb(size + n, n + 1) > limit:
            return None
        found = violation(ideal, n)
        if found is None:
            return OmegaResult(n, DEFAULT_CAP, witness)
        witness = found
    return OmegaResult(None, DEFAULT_CAP, witness)


def test_factors_recombine():
    # the primitive idempotents are orthogonal, sum to 1, and each m_i is
    # R e_i ∩ nil(R), nil(R) being the radical of (0) by walked powers
    for ring in bound_family():
        mul, add = ring.mul, ring.add
        space = ideal_space(ring)
        factors = space.factors()
        nil = reference_ideal_radical(ideal_from_generators(ring, ()))
        total = ring.zero
        for e, m in factors:
            assert mul(e, e) == e != ring.zero, ring.descriptor
            assert all(mul(e, f) == ring.zero for f, _ in factors if f != e)
            assert space.set_of(m) == {mul(r, e) for r in ring.elements} & nil
            total = add(total, e)
        assert total == ring.one, ring.descriptor


def test_bound_scan_matches_the_degree_walk():
    # omega and strong_omega give the walk's record on every ideal of the
    # family, the walk running over the library scans: an N one too large
    # or too small moves the value, and the one scan gives the witness
    for ring in bound_family():
        for ideal in proper_ideals(ring):
            assert omega(ideal) == degree_walk(
                lambda n: is_n_absorbing(ideal, n)
            ), (ring.descriptor, ideal.generators)
            assert strong_omega(ideal) == degree_walk(
                lambda n: is_strongly_n_absorbing(ideal, n)
            ), (ring.descriptor, ideal.generators)


@examples(max_examples=20)
@given(st.data())
def test_bound_scan_matches_reference_walk(data):
    """omega and strong_omega against the walk over the reference scans,
    value and witness, as far as the walks stay within their limits."""
    ring = data.draw(st.sampled_from(bound_family()))
    lattice = len(all_ideals(ring))
    for ideal in proper_ideals(ring):
        want = reference_walk(
            ideal, reference_is_n_absorbing, ring.order, MULTISET_LIMIT
        )
        if want is not None:
            assert omega(ideal) == want, (ring.descriptor, ideal.generators)
        want = reference_walk(
            ideal, reference_strong_violation, lattice, STRONG_LIMIT
        )
        if want is not None:
            assert strong_omega(ideal) == want, (ring.descriptor, ideal.generators)


def test_bound_past_cap_gives_the_walks_cap_record():
    # zmod:128 has N = 7 > cap 6: the scan at the cap finds the witness
    zero = ideal_from_generators(ring_of("zmod:128"), ())
    assert absorbing._local_bound(zero) == 7
    got = omega(zero)
    assert got == degree_walk(lambda n: is_n_absorbing(zero, n))
    assert got == OmegaResult(None, DEFAULT_CAP, (2,) * 7)
    assert strong_omega(zero) == degree_walk(
        lambda n: is_strongly_n_absorbing(zero, n)
    )


def test_radical_oracles():
    # Choi-Walker: rad(I)^omega(I) lies in I, with the radical, the
    # products and the powers all taken by the references; and
    # Anderson-Badawi: omega(rad I) <= omega(I)
    for ring in bound_family():
        for ideal in proper_ideals(ring):
            rad = reference_ideal_radical(ideal)
            power = frozenset(ring.elements)
            degree = omega(ideal).value
            for _ in range(degree):
                power = reference_product(ring, power, rad)
            assert power <= ideal.elements, (ring.descriptor, ideal.generators)
            assert omega(ideal_from_generators(ring, rad)).value <= degree


def test_anderson_badawi_product_degree():
    # Anderson-Badawi: omega(I1 x I2) = omega(I1) + omega(I2), so
    # omega(I1 x R2) = omega(I1), over every pair of factor ideals
    for spec in [s for s in ABSORB_FAMILY if s.startswith("prod:")] + TRUNC_PRODUCTS:
        ring = ring_of(spec)
        for i1 in all_ideals(ring.left):
            for i2 in all_ideals(ring.right):
                ideal = ideal_from_generators(
                    ring, [ring.encode(a, b) for a in i1.elements for b in i2.elements]
                )
                if ideal.is_proper:
                    assert omega(ideal).value == (
                        omega(i1).value + omega(i2).value
                    ), (spec, i1.generators, i2.generators)


def test_zmod_is_gaussian_and_armendariz(monkeypatch):
    # Z/n is a principal ideal ring, so Gaussian, c(fg) = c(f)c(g), and
    # every DM exponent is 1; it is Armendariz (Rege and Chhawchharia,
    # 1997). The DM table is also taken with the certificate bypassed,
    # multiplying every pair of unit orbits
    for m in range(2, 31):
        ring = parse_ring_spec(f"zmod:{m}")
        assert not gaussian_search(ring, 1, 1).found, m
        assert not armendariz_search(ring, 1, 1).found, m
        table = dm_exponent_table(ring, 1, 1)
        assert table.histogram == ((1, m**4),), m
        ring.caches.clear()
        with monkeypatch.context() as patch:
            patch.setattr(IdealSpace, "gaussian", lambda self: False)
            assert dm_exponent_table(ring, 1, 1) == table, m


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


@pytest.mark.parametrize("num_vars, max_deg", [(1, 1), (1, 2), (2, 1)])
def test_principal_prune_matches_reference_on_uncertified_rings(num_vars, max_deg):
    # the exhaustive searches skip the unit orbits with a principal
    # content on every ring of the family not certified Gaussian; found,
    # witness and checked against the walk that decides every pair
    rings = [cube_quotient() if s == "cube-quotient" else ring_of(s) for s in CONTENT_FAMILY]
    uncertified = [ring for ring in rings if not ideal_space(ring).gaussian()]
    assert len(uncertified) == 2
    for ring in uncertified:
        for kind, search in SEARCHES.items():
            got = search(ring, num_vars, max_deg)
            assert got == reference_pair_search(ring, num_vars, max_deg, kind)


def test_cube_search_matches_reference():
    # the paper's non-Gaussian ring, pinned outright: the first failing
    # pair is (2+4x, 2+4x), the 33,232nd admissible pair of the walk
    ring = ring_of("trunc:p=2,vars=2,nil=3")
    got = gaussian_search(ring, 1, 1)
    assert got == reference_pair_search(ring, 1, 1, "gaussian")
    assert (got.found, got.checked, got.mode) == (True, 33232, "exhaustive")
    assert [display_poly(f) for f in got.witness] == ["2+4x", "2+4x"]


# ---------------------------------------------------------------------------
# the Gaussian certificate and the sweeps that read it


@pytest.mark.parametrize(
    "spec, certified",
    [
        ("zmod:4", True),
        ("zmod:360", True),
        ("prod:zmod:4,zmod:9", True),
        ("trunc:p=2,vars=1,nil=4", True),  # a chain ring, m = (x)
        ("trunc:p=3,vars=2,nil=2", True),  # m^2 = 0, m not principal
        ("trunc:p=2,vars=2,nil=3", False),  # the cube
        ("prod:zmod:2,cube-quotient", False),
    ],
)
def test_gaussian_certificate_verdicts(spec, certified):
    if spec == "prod:zmod:2,cube-quotient":
        ring = make_product(ring_of("zmod:2"), cube_quotient())
    else:
        ring = ring_of(spec)
    assert ideal_space(ring).gaussian() is certified


def test_gaussian_certificate_implies_the_degree_one_content_law():
    # c(fg) = c(f)c(g) for f = a + bx, g = c + dx on every certified ring
    # of the bound family and among the cube's quotients. c(fg) =
    # (ac, ad + bc, bd) lies in c(f)c(g) = (ac, ad, bc, bd), so the law is
    # ad in c(fg). A unit u scales c(uf) = c(f) and c(uf*g) = c(fg), so
    # one f per class {uf} and unordered pairs of them cover every pair
    cube = ring_of("trunc:p=2,vars=2,nil=3")
    quotients = [quotient_by(i) for i in proper_ideals(cube) if not i.is_zero]
    certified = 0
    for ring in bound_family() + tuple(quotients):
        space = ideal_space(ring)
        if not space.gaussian():
            continue
        certified += 1
        mul, add = ring.mul_rows(), ring.add_rows()
        units = [mul[u] for u in ring.elements if ring.one in mul[u]]
        reps = {}
        for f in itertools.product(ring.elements, repeat=2):
            reps.setdefault(frozenset((u[f[0]], u[f[1]]) for u in units), f)
        for (a, b), (c, d) in itertools.combinations_with_replacement(reps.values(), 2):
            cfg = space.id_of_coeffs((mul[a][c], add[mul[a][d]][mul[b][c]], mul[b][d]))
            assert mul[a][d] in space.set_of(cfg), (ring.descriptor, a, b, c, d)
    assert certified == 116


def _sweep_records(ring, num_vars: int, max_deg: int, budget: int) -> tuple:
    args = (budget, 500, 3)
    return (
        dm_exponent_table(ring, num_vars, max_deg, DEFAULT_CAP, *args),
        [
            certify_pair_sweep(ideal, num_vars, max_deg, 8, *args)
            for ideal in proper_ideals(ring)
        ],
        gaussian_search(ring, num_vars, max_deg, *args),
        armendariz_search(ring, num_vars, max_deg, *args),
    )


@pytest.mark.parametrize(
    "spec", [s for s in CONTENT_FAMILY if s not in ("trunc:p=2,vars=2,nil=3", "cube-quotient")]
)
def test_certified_sweeps_equal_the_orbit_walk(monkeypatch, spec):
    # the class scan, the sampled reads of the product table and the
    # counting searches give the records of the orbit walk and the
    # product kernel, which the bypass of the certificate runs
    ring = ring_of(spec)
    space = ideal_space(ring)
    assert space.gaussian()
    shapes = [(1, 1, DEFAULT_BUDGET), (1, 1, 0)]
    if ring.order <= 8:
        shapes += [(1, 2, DEFAULT_BUDGET), (2, 1, DEFAULT_BUDGET)]
    for shape in shapes:
        space.pair_groups.clear()
        with monkeypatch.context() as patch:
            patch.setattr(IdealSpace, "gaussian", lambda self: False)
            want = _sweep_records(ring, *shape)
        space.pair_groups.clear()
        assert _sweep_records(ring, *shape) == want, shape


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


def test_poly_omega_lowest_term_cuts_match_dict_reference(monkeypatch):
    """Every proper ideal of the content family, in one variable at
    degrees 1 and 2 and in two at degree 1, against the dict reference at
    the budget of 20,000 tuples. Of the exhaustive runs, 74 are decided by
    the lowest-term cut (prime ideals, whose R/I is a domain, among them)
    and 26 walk the hinted scan."""
    walks = 0
    scan = polys.multiset_scan

    def counted(*args):
        nonlocal walks
        walks += 1
        return scan(*args)

    monkeypatch.setattr(polys, "multiset_scan", counted)
    decided = 0
    for spec in CONTENT_FAMILY:
        ring = cube_quotient() if spec == "cube-quotient" else ring_of(spec)
        for ideal in all_ideals(ring):
            if not ideal.is_proper:
                continue
            for num_vars, max_deg in [(1, 1), (1, 2), (2, 1)]:
                before = walks
                args = (ideal, max_deg, num_vars, 6, 20_000, 100, 5)
                got = verify_poly_omega(*args)
                assert got == reference_poly_omega(*args), (spec, ideal.generators)
                decided += got.mode == "exhaustive" and walks == before
    assert (decided, walks) == (74, 26)


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
    reduce, _, _, _, _, scan = _residue_table(
        coset_minima(ring, ideal.elements), ring.zero, ring.one, ring.mul,
        convolve,
    )
    found = scan([reduce((x,)) for x in cands], n)[0]
    assert found is not None
    got = tuple(cands[i] for i in found)
    assert got == is_n_absorbing(ideal, n) == witness


# rings whose multiset scans the reference walks in about a second in all
SCAN_FAMILY = [f"zmod:{m}" for m in range(2, 19)] + [
    "prod:zmod:2,zmod:4", "prod:zmod:2,zmod:6", "trunc:p=2,vars=2,nil=2",
    "trunc:p=2,vars=1,nil=3", "trunc:p=3,vars=1,nil=2",
]


def scan_inputs(ideal, kind: str, n: int):
    """(candidates, one, table, inside, scan) as the element scan, the
    strong scan or poly-omega at degree 1 (unit classes of residue
    polynomials over the admissible polynomials) give them to
    multiset_scan; scan is the residue table's cut and hinted scan over
    them, None for the first two."""
    ring = ideal.ring
    members = ideal.elements
    space = ideal_space(ring)
    if kind == "element":
        cands = [
            x for i, x in space.principal_reps().items()
            if i != space.full_id and x not in members
        ]
        return cands, ring.one, ring.mul_rows(), members, None
    if kind == "lattice":
        ids = [space.intern(iv.elements) for iv in all_ideals(ring)]
        inside = frozenset(i for i in ids if space.set_of(i) <= members)
        cands = [i for i in ids if i not in inside and i != space.full_id]
        return cands, space.full_id, space.products, inside, None
    slots, convolve = _convolver(ring, 1, 1, n + 1)
    adm, _ = _admissible_sweep(
        ring, slots, members, lambda a: 0, DEFAULT_BUDGET, 0, 0
    )
    rows = ring.mul_rows()
    reduce, one, table, inside, _, scan = _residue_table(
        coset_minima(ring, members), ring.zero, ring.one, ring.mul, convolve,
        [rows[u] for u in ring.units()],
    )
    return [reduce(coeffs) for coeffs, _ in adm], one, table, inside, scan


@examples(max_examples=40)
@given(st.sampled_from(SCAN_FAMILY))
def test_multiset_scan_matches_reference(spec):
    """The hit-mask scan against the per-candidate leaf scan, in the first
    violation, the leaves tried and those of them whose product lies in I,
    for n = 1 up to omega(I), where the
    reference element scan first finds nothing; below omega(I) the class
    scan finds a violation too, so the found path is compared. Over the
    classes the residue table's scan, with its lowest-term cut and hints,
    gives the same three values."""
    ring = ring_of(spec)
    for ideal in all_ideals(ring):
        if not ideal.is_proper:
            continue
        for n in itertools.count(1):
            want = {}
            for kind in ("element", "lattice", "class"):
                *args, scan = scan_inputs(ideal, kind, n)
                want[kind] = reference_multiset_scan(*args, n)
                assert multiset_scan(*args, n) == want[kind], (
                    spec, kind, ideal.generators, n
                )
                if scan is not None:
                    assert scan(args[0], n) == want[kind], (
                        spec, ideal.generators, n
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


# the exhaustive grid of the lowest-term cross-check: every run of
# m in 2..60 and 210, heights 1-3 and max_deg 0-2 that fits the budget
INT_GRID = [
    (m, max_deg, height)
    for m in [*range(2, 61), 210]
    for height in (1, 2, 3)
    for max_deg in (0, 1, 2)
    if (2 * height + 1) ** ((max_deg + 1) * (omega_int(m).value + 1))
    <= DEFAULT_BUDGET
]
# the largest walks compared: the expanding reference walks about 130,000
# multisets in 0.7 s over the grid runs up to 3,000 each, the unhinted
# multiset_scan 0.9 s over those up to 10,000; over the whole grid they
# would take about 150 s and 27 s, and the lowest-term cut 0.5 s
INT_GRID_REFERENCE_LIMIT = 3000
INT_GRID_SCAN_LIMIT = 10000


def test_int_leg_lowest_term_cuts_match_the_walks():
    """The lowest-term cut and hints of the exhaustive integer leg on the
    grid: the report equals the expanding reference's where its walk is
    within INT_GRID_REFERENCE_LIMIT multisets, and else the one read off
    the unhinted multiset_scan of the same candidates where that walk is
    within INT_GRID_SCAN_LIMIT. The larger runs are named out of reach by
    their number; test_int_leg_exhaustive_counts and the integer tests
    pin zmod:16, zmod:12 and zmod:210 at height 2 and degree 1."""
    compared = {"reference": 0, "scan": 0, "out of reach": 0}
    for m, max_deg, height in INT_GRID:
        n = omega_int(m).value
        reduce, one, table, inside, _, _ = _mod_table(m)
        span = range(-height, height + 1)
        cands = [reduce(c) for c in itertools.product(span, repeat=max_deg + 1)]
        cands = [c for c in cands if c not in inside]
        walk = math.comb(len(cands) + n, n + 1)
        got = conjecture_check_int(m, max_deg, height)
        assert got.mode == "exhaustive" and got.violation is None
        if walk <= INT_GRID_REFERENCE_LIMIT:
            compared["reference"] += 1
            assert got == reference_conjecture_check_int(m, max_deg, height)
        elif walk <= INT_GRID_SCAN_LIMIT:
            compared["scan"] += 1
            found, leaves, inside_leaves = multiset_scan(
                cands, one, table, inside, n
            )
            assert found is None
            assert (got.checked, got.drawn) == (walk - leaves + inside_leaves, walk)
        else:
            compared["out of reach"] += 1
    assert compared == {"reference": 312, "scan": 38, "out of reach": 103}


@pytest.mark.parametrize("m", [300, 360])
def test_int_leg_sampled_matches_reference(m):
    """Seeded sampled runs, whose uniform draws skip the table products
    when their lowest coefficients multiply to a unit mod m."""
    for seed, (max_deg, height) in itertools.product(range(3), [(1, 2), (2, 3)]):
        got = conjecture_check_int(m, max_deg, height, 500, seed)
        assert got.mode == "sampled:500"
        assert got == reference_conjecture_check_int(m, max_deg, height, 500, seed)


@st.composite
def lowest_term_pairs(draw):
    """(ring, ideal, f, g) with f and g nonzero in (R/I)[X], in one or two
    variables over the content family."""
    spec = draw(st.sampled_from(CONTENT_FAMILY))
    ring = cube_quotient() if spec == "cube-quotient" else ring_of(spec)
    ideal = draw(st.sampled_from([i for i in all_ideals(ring) if i.is_proper]))
    num_vars = draw(st.integers(1, 2))
    slots = monomials_up_to(num_vars, 2)
    coeff = st.integers(0, ring.order - 1)
    f, g = (
        draw(st.lists(coeff, min_size=len(slots), max_size=len(slots)).filter(
            lambda t: not ideal.elements.issuperset(t)))
        for _ in range(2)
    )
    return ring, ideal, make_poly(ring, num_vars, dict(zip(slots, f))), \
        make_poly(ring, num_vars, dict(zip(slots, g)))


@examples(max_examples=200)
@given(lowest_term_pairs())
def test_lowest_terms_multiply(pair):
    """In (R/I)[X] the coefficient of fg at lowest(f)*lowest(g) is a*b,
    for f and g with lowest nonzero residues a and b at lowest(f) and
    lowest(g) in graded-lex order: the lowest-term zero test that
    ``polys._residue_table`` cuts by."""
    ring, ideal, f, g = pair
    rep = coset_minima(ring, ideal.elements)

    def lowest(h):
        return next((e, c) for e, c in h.terms if rep[c] != rep[ring.zero])

    (ef, a), (eg, b) = lowest(f), lowest(g)
    at = tuple(x + y for x, y in zip(ef, eg))
    fg = poly_mul(f, g).as_dict()
    assert rep[fg.get(at, ring.zero)] == rep[ring.mul(a, b)]
    if rep[ring.mul(a, b)] != rep[ring.zero]:
        assert not ideal.elements.issuperset(fg.values())


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
    the residue table's scan (hinted multiset_scan) with drawn = multiset_rank(found) and checked = drawn -
    leaves + inside_leaves gives the violation, checked and drawn of the
    expanding loop over ``combinations_with_replacement``."""
    n = omega_int(m).value - 1
    consts = [c for c in range(-3, 4) if c % m]
    reduce, _, _, _, _, scan = _mod_table(m)
    found, leaves, inside_leaves = scan([reduce((c,)) for c in consts], n)
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
    of its tables overwritten, each alone or with its mirror entry, by a
    value in -1..order: the ends lie outside the ring."""
    spec = draw(st.sampled_from(AXIOM_FAMILY))
    base = cube_quotient() if spec == "cube-quotient" else ring_of(spec)
    last = base.order - 1
    tables = [[list(r) for r in base.add_rows()], [list(r) for r in base.mul_rows()]]
    for _ in range(draw(st.integers(1, 2))):
        table = tables[draw(st.integers(0, 1))]
        i, j = draw(st.tuples(*[st.integers(0, last)] * 2))
        value = draw(st.integers(-1, base.order))
        table[i][j] = value
        if draw(st.booleans()):
            table[j][i] = value
    return TableRing(*tables, base.zero, base.one, f"corrupt:{spec}")


@examples(max_examples=400)
@given(corrupted_rings())
def test_axiom_check_matches_full_scan(ring):
    # the byte-row check, its full scan and the entry-by-entry reference
    report = verify_ring_axioms(ring)
    assert report == _axiom_scan(ring, generated=False) == reference_axiom_report(ring)


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


def test_axiom_check_matches_reference_on_real_rings():
    # every ring of order <= 64 that the absorb benchmark builds passes
    # the entry-by-entry reference and the byte-row check alike
    small = [ring_of(s) for s in BUILT_RINGS if ring_of(s).order <= 64]
    assert len(small) == 78
    for ring in small:
        report = reference_axiom_report(ring)
        assert report == verify_ring_axioms(ring) == AxiomReport(ok=True, checked=True), ring


def test_kept_rows_match_methods():
    # the kept rows of every zmod, prod and trunc ring of the axiom family
    # and the absorb list, and of nested products, each built by its
    # family's _tables, against the tables of add and mul
    specs = {s for s in AXIOM_FAMILY + BUILT_RINGS if s != "cube-quotient"} | {
        "prod:trunc:p=2,vars=2,nil=2,zmod:4",
        "prod:prod:zmod:2,zmod:2,zmod:3",
    }
    for spec in sorted(specs):
        ring = parse_ring_spec(spec)
        assert ring.order <= TABLE_LIMIT
        assert ring.add_rows() == method_table(ring.add, ring.order), spec
        assert ring.mul_rows() == method_table(ring.mul, ring.order), spec


def test_kept_rows_make_no_method_calls(monkeypatch):
    # building a ring fills its rows and checks them without one call of
    # a family's add or mul
    calls = []

    def counted(method):
        def call(self, i, j):
            calls.append((method.__qualname__, i, j))
            return method(self, i, j)
        return call

    for cls in (ZmodRing, ProductRing, TruncatedLocalRing):
        monkeypatch.setattr(cls, "add", counted(cls.add))
        monkeypatch.setattr(cls, "mul", counted(cls.mul))
    for spec in ("zmod:256", "prod:zmod:16,zmod:16", "trunc:p=2,vars=2,nil=3"):
        ring = parse_ring_spec(spec)
        assert len(ring.add_rows()) == len(ring.mul_rows()) == ring.order
    assert calls == []
    assert ring.add(3, 5) == 6  # the patch counts
    assert calls == [("TruncatedLocalRing.add", 3, 5)]
