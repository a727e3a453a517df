"""Content machinery: peeling exponents, multiplicativity searches,
principal-content factorization, radical certificates, degree transfer."""

import functools
import itertools
import random

import pytest
from oracles import (
    generic_closure,
    reference_certify_sweep,
    reference_class_groups,
    reference_dm_table,
    reference_product,
    reference_tuples,
)
from quotients import (
    content_ids,
    gaussian_iff_armendariz_quotients,
    lift_poly,
    project_poly,
)

from omegalab import content_checks
from omegalab.content_checks import (
    armendariz_search,
    bezout_factor,
    certify_content_product,
    certify_pair_sweep,
    dm_exponent_table,
    gaussian_search,
    plan_sweep,
    uniform_draws,
    verify_poly_omega,
)
from omegalab.errors import UnsupportedRingError
from omegalab.ideals import (
    IdealSpace,
    all_ideals,
    ideal_from_generators,
    ideal_space,
    is_radical_ideal,
    parse_ideal_spec,
    quotient_by,
)
from omegalab.polys import (
    display_poly,
    make_poly,
    parse_poly,
    poly_mul,
)
from omegalab.rings import (
    LazyRow,
    make_product,
    make_truncated_local,
    make_zmod,
    monomials_up_to,
    parse_ring_spec,
)

Z4 = make_zmod(4)
Z6 = make_zmod(6)
Z12 = make_zmod(12)
M2 = make_truncated_local(2, 2, 2)
M3 = make_truncated_local(2, 2, 3)


def _content_law(f, g):
    """c(fg) and c(f)c(g) as element sets, from the ring's registry."""
    space = ideal_space(f.ring)
    cf, cg, cfg = (
        space.id_of_coeffs(p.coefficients()) for p in (f, g, poly_mul(f, g))
    )
    return space.set_of(cfg), space.set_of(space.products[cf][cg])


# ---------------------------------------------------------------------------
# content space


def test_content_space_matches_ideal_arithmetic():
    # references by the worklist closure, independent of the registry
    space = ideal_space(Z12)
    a = generic_closure(Z12, (4,))
    b = generic_closure(Z12, (6,))
    ida, idb = space.intern(a), space.intern(b)
    assert space.set_of(space.products[ida][idb]) == reference_product(Z12, a, b)
    assert space.set_of(space.power(ida, 2)) == reference_product(Z12, a, a)
    assert space.set_of(space.power(ida, 0)) == frozenset(range(12))


def test_content_space_interning():
    space = ideal_space(Z12)
    # same coefficient multiset, same id
    assert space.id_of_coeffs((4,)) == space.id_of_coeffs((8, 4))
    assert space.id_of_coeffs(()) == space.zero_id
    assert space.id_of_coeffs((5,)) == space.full_id


# ---------------------------------------------------------------------------
# peeling exponents


def dm_exponent(f, g, cap=content_checks.DEFAULT_CAP):
    """Least n >= 1 with c(f)^n c(g) = c(f)^(n-1) c(fg); None past cap."""
    space, cf, cg, cfg = content_ids(f, g)
    return space.dm_exponent(cf, cg, cfg, cap)


def test_dm_exponent_examples():
    f = parse_poly(Z4, 1, "2+2x")
    g = parse_poly(Z4, 1, "1+3x")
    assert dm_exponent(f, g) == 1
    w = parse_poly(M3, 1, "2+4x")
    assert dm_exponent(w, w) == 2
    assert dm_exponent(w, w, cap=1) is None


def test_dm_exponent_zero_inputs():
    zero = parse_poly(Z4, 1, "0")
    assert dm_exponent(zero, zero) == 1
    assert dm_exponent(zero, parse_poly(Z4, 1, "1+x")) == 1


def test_dm_table_z4_deg1():
    table = dm_exponent_table(Z4, num_vars=1, max_deg=1)
    assert table.mode == "exhaustive"
    assert table.checked == 256
    assert table.histogram == ((1, 256),)
    assert table.max_exponent == 1
    assert table.bound_holds is True
    assert table.cap_exceeded == 0


def test_dm_table_z6_deg1_all_exponent_one():
    # squarefree modulus: content is multiplicative for every pair
    table = dm_exponent_table(Z6, num_vars=1, max_deg=1)
    assert table.histogram == ((1, 1296),)
    assert table.bound_holds is True


def test_dm_table_bound_flag_multivariate_is_na():
    table = dm_exponent_table(Z4, num_vars=2, max_deg=1)
    assert table.bound_holds is None


def test_dm_table_sampled_over_local_cube():
    # 64^4 ordered pairs exceed the default budget, so this exercises the
    # sampled path; the exponent-2 pair itself is pinned by
    # test_dm_exponent_examples
    table = dm_exponent_table(M3, num_vars=1, max_deg=1, cap=6, sample=2000,
                              seed=9)
    assert table.mode == "sampled:2000"
    assert table.seed == 9
    assert table.bound_holds is True
    assert table.max_exponent <= 2


@pytest.mark.parametrize("order", [2, 3, 4, 255, 256, 257, 300, 360, 4096])
def test_uniform_draws_match_randrange(order):
    # the draw loop against randrange, value by value and in the state it
    # leaves behind, across calls of several lengths
    mine, theirs = random.Random(order), random.Random(order)
    for length in (1, 2, 3, 7, 500):
        got = uniform_draws(mine.getrandbits, order, length)
        assert got == tuple(theirs.randrange(order) for _ in range(length))
    assert mine.getstate() == theirs.getstate()


@pytest.mark.parametrize("order", [2, 255, 256, 300, 4096])
@pytest.mark.parametrize("arity", [1, 2, 3])
def test_sampled_tuples_match_randrange_draws(order, arity):
    # one uniform_draws call per chunk against one randrange per value,
    # draw for draw, over more than two chunks and for a consumer that
    # stops early, mid-chunk
    sample = 2 * content_checks._CHUNK + 3
    sweep = plan_sweep(None, 0, sample, order + arity)
    for length in range(1, 7):
        got = list(sweep.tuples(order, length, arity))
        assert len(got) == sample
        assert got == list(reference_tuples(sweep, order, length, arity))
        early = itertools.islice(sweep.tuples(order, length, arity), 1500)
        assert list(early) == got[:1500]


def _cube_quotient():
    """F_2[x,y]/(x^2, y^2), order 16: not certified Gaussian, so its
    exhaustive sweeps take the unit-orbit walk."""
    return quotient_by(parse_ideal_spec(M3, "gen:8,32"))


@functools.cache
def _pair_table_case(spec: str):
    """(ring, ideals, DM reference, certify references) at degree 1: the
    cube quotient on (0), (xy) and (x, y), or a ring on its proper radical
    ideals. Kept for the module; a test clears ring.caches for a cold
    registry, which the references do not read again."""
    if spec == "cube-quotient":
        ring = _cube_quotient()
        ideals = [parse_ideal_spec(ring, t) for t in ("gen:none", "gen:8", "gen:2,4")]
    else:
        ring = parse_ring_spec(spec)
        ideals = [i for i in all_ideals(ring) if i.is_proper and is_radical_ideal(i)]
    return (
        ring, ideals, reference_dm_table(ring, 1, 1),
        [reference_certify_sweep(ideal, 1, 1) for ideal in ideals],
    )


def _counted(monkeypatch, name: str) -> list[int]:
    """Counts the calls of content_checks.<name> in a one-item list."""
    calls = [0]
    real = getattr(content_checks, name)

    def counted(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(content_checks, name, counted)
    return calls


def _shared_table_case(spec: str, first: str):
    """The DM table and the certify sweep on each ideal of the case, in
    either order, on a cold registry, checked against the references;
    returns the ring."""
    ring, ideals, want_table, want_sweeps = _pair_table_case(spec)
    ring.caches.clear()

    def certify():
        return [certify_pair_sweep(ideal, 1, 1) for ideal in ideals]

    if first == "dm":
        table, sweeps = dm_exponent_table(ring, 1, 1), certify()
    else:
        sweeps = certify()
        table = dm_exponent_table(ring, 1, 1)
    assert table.mode == "exhaustive"
    assert table == want_table
    assert [s.mode for s in sweeps] == ["exhaustive"] * len(ideals)
    assert sweeps == want_sweeps
    return ring


@pytest.mark.parametrize("first", ["dm", "certify"])
def test_pair_table_walked_once_per_ring(monkeypatch, first):
    # on a ring not certified Gaussian, the DM table and certify on (0),
    # (xy) and (x, y) read one exhaustive grouped table: the unit orbits
    # are listed, and the orbit pairs walked, once
    orbits = _counted(monkeypatch, "_unit_orbits")
    ring = _shared_table_case("cube-quotient", first)
    assert not ideal_space(ring).gaussian()
    assert orbits[0] == 1


@pytest.mark.parametrize("first", ["dm", "certify"])
def test_class_scan_once_per_certified_ring(monkeypatch, first):
    # zmod:18 is certified Gaussian: the DM table and certify on its three
    # radical ideals read one class table, which multiplies nothing
    scans = _counted(monkeypatch, "_class_table")
    orbits = _counted(monkeypatch, "_unit_orbits")
    kernels = _counted(monkeypatch, "_convolver")
    ring = _shared_table_case("zmod:18", first)
    assert ideal_space(ring).gaussian()
    assert len(_pair_table_case("zmod:18")[1]) == 3
    assert (scans[0], orbits[0], kernels[0]) == (1, 0, 0)


def _unit_orbit(ring, f) -> frozenset:
    """{u*f : u a unit}, by method calls."""
    return frozenset(
        tuple(ring.mul(u, c) for c in f) for u in ring.units()
    )


def test_pair_table_multiplies_each_unordered_orbit_pair_once(monkeypatch):
    # K orbit representatives give K(K+1)/2 products, not K^2, and the
    # kept groups list their first pairs in the walk's order
    products = 0
    convolver = content_checks._convolver

    def counted_convolver(*args):
        slots, convolve = convolver(*args)

        def counted(fa, fb):
            nonlocal products
            products += 1
            return convolve(fa, fb)

        return slots, counted

    monkeypatch.setattr(content_checks, "_convolver", counted_convolver)
    ring = _cube_quotient()
    table = dm_exponent_table(ring, 1, 1)
    assert table.mode == "exhaustive"
    assert table.checked == 16**4
    orbits = {_unit_orbit(ring, f) for f in itertools.product(range(16), repeat=2)}
    count = len(orbits)
    assert products == count * (count + 1) // 2
    firsts = [pair for _, pair in ideal_space(ring).pair_groups[1, 1].values()]
    assert all(a < b for a, b in zip(firsts, firsts[1:]))
    assert sum(w for w, _ in ideal_space(ring).pair_groups[1, 1].values()) == 16**4


@pytest.mark.parametrize(
    "spec", ["zmod:12", "prod:zmod:2,zmod:4", "trunc:p=2,vars=2,nil=2"]
)
def test_class_groups_are_the_groups_of_the_ordered_walk(spec):
    # on certified rings (Z/12 and Z/2 x Z/4 principal, F_2[x,y]/(x,y)^2
    # with m^2 = 0) the class pairs are the groups of the walk over every
    # ordered pair: the same keys, weights and first pairs, in its order
    ring = parse_ring_spec(spec)
    space = ideal_space(ring)
    assert space.gaussian()
    assert dm_exponent_table(ring, 1, 1).mode == "exhaustive"
    slots, convolve = content_checks._convolver(ring, 1, 1)
    tuples = list(itertools.product(range(ring.order), repeat=len(slots)))
    walk = {}
    for f in tuples:
        for g in tuples:
            deg_g = 0 if g[1] == ring.zero else 1
            cfg = space.id_of_coeffs(convolve(f, g))
            key = (space.id_of_coeffs(f), space.id_of_coeffs(g), cfg, deg_g)
            walk.setdefault(key, [0, (f, g)])[0] += 1
    assert list(space.pair_groups[1, 1].items()) == list(walk.items())


# the benchmark's content rings, the cube and an uncertified product
CLASS_TABLE_RINGS = [f"zmod:{m}" for m in range(2, 17)] + [
    "prod:zmod:2,zmod:2", "prod:zmod:2,zmod:3", "prod:zmod:2,zmod:4",
    "prod:zmod:3,zmod:3", "trunc:p=2,vars=1,nil=2", "trunc:p=2,vars=1,nil=3",
    "trunc:p=2,vars=2,nil=2", "trunc:p=3,vars=1,nil=2",
    "trunc:p=2,vars=2,nil=3", "prod:zmod:2,trunc:p=2,vars=2,nil=2",
]


@pytest.mark.parametrize("spec", CLASS_TABLE_RINGS)
def test_class_table_equals_the_tuple_pass(spec):
    # the slot-by-slot table gives the classes of one lookup per tuple:
    # the same keys, counts and first tuples, in the same order.
    # The reference reads every tuple, so shapes above 3e5 tuples are left
    # out: of these rings, only the cube at (1, 3), 64^4 tuples
    for num_vars, max_deg in [(1, 1), (1, 2), (2, 1), (1, 3)]:
        ring = parse_ring_spec(spec)
        if ring.order ** len(monomials_up_to(num_vars, max_deg)) > 300_000:
            continue
        got = content_checks._class_table(ring, num_vars, max_deg)
        want = reference_class_groups(ring, num_vars, max_deg)
        assert [list(t.items()) for t in got] == [list(t.items()) for t in want]


def test_pair_groups_keep_the_first_pair_of_the_ordered_walk():
    # on Z/2 x F_2[x,y]/(x^2, y^2) the fold over pairs i <= j opens a group
    # by a mirrored rank j*K + i before a smaller direct rank arrives; the
    # groups must still list the first pair of each key in the walk over
    # all K^2 ordered representative pairs, in that order
    quotient = quotient_by(parse_ideal_spec(M3, "gen:8,32"))
    ring = make_product(make_zmod(2), quotient)
    assert ring.order == 32
    assert dm_exponent_table(ring, 1, 1).mode == "exhaustive"
    space = ideal_space(ring)
    slots, convolve = content_checks._convolver(ring, 1, 1)
    firsts = {}  # orbit -> its lex-least tuple, in lex order
    for f in itertools.product(range(ring.order), repeat=len(slots)):
        firsts.setdefault(_unit_orbit(ring, f), f)
    reps = list(firsts.values())
    assert len(reps) == 208
    ids = [space.id_of_coeffs(f) for f in reps]
    walk = {}
    for f, cf in zip(reps, ids):
        for g, cg in zip(reps, ids):
            deg_g = 0 if g[1] == ring.zero else 1
            key = (cf, cg, space.id_of_coeffs(convolve(f, g)), deg_g)
            walk.setdefault(key, (f, g))
    groups = space.pair_groups[1, 1]
    assert list(walk.items()) == [(key, pair) for key, (_, pair) in groups.items()]


def test_clean_search_counts_every_admissible_pair():
    # over Z/32 at degree 2 the a = 16^3 - 1 admissible polynomials are the
    # nonzero ones with even coefficients; a clean exhaustive search counts
    # all a(a+1)/2 unordered pairs of them without walking them
    out = gaussian_search(make_zmod(32), 1, 2)
    assert (out.found, out.mode, out.checked) == (False, "exhaustive", 8386560)
    assert out.checked == 4095 * 4096 // 2


def test_cube_search_decides_each_unordered_orbit_pair_once(monkeypatch):
    # the walk still counts its 33,232 pairs up to the witness, but the
    # predicate runs once per unordered pair of unit orbits among them
    # whose contents are both non-principal: the 4,441 orbit pairs of the
    # unpruned walk shrink to the witness's one
    calls = 0
    predicate = content_checks._gaussian_violation

    def counted(*args):
        nonlocal calls
        calls += 1
        return predicate(*args)

    monkeypatch.setattr(content_checks, "_gaussian_violation", counted)
    ring = make_truncated_local(2, 2, 3)
    space = ideal_space(ring)
    lookups = _lookups(monkeypatch, space)
    out = gaussian_search(ring, 1, 1)
    assert (out.found, out.checked) == (True, 33232)
    assert [display_poly(p) for p in out.witness] == ["2+4x", "2+4x"]
    # the walk reads tuples lazily and stops at the witness, (2, 4): 133
    # of the 4,096 tuples, where a full listing looked up all of them
    assert lookups[0] < 200
    adm = [
        f for f in itertools.product(range(ring.order), repeat=2)
        if space.id_of_coeffs(f) not in (space.zero_id, space.full_id)
    ]
    orbit = {f: _unit_orbit(ring, f) for f in adm}
    walked = itertools.islice(itertools.combinations_with_replacement(adm, 2), 33232)
    orbit_pairs = {frozenset((orbit[f], orbit[g])) for f, g in walked}
    assert len(orbit_pairs) == 4441
    principal = space.principal_reps()
    decided = {
        pair for pair in orbit_pairs
        if all(space.id_of_coeffs(min(o)) not in principal for o in pair)
    }
    assert calls == len(decided) == 1


# ---------------------------------------------------------------------------
# multiplicativity searches


def test_gaussian_search_clean_rings():
    for ring in (Z4, make_zmod(8)):
        out = gaussian_search(ring, num_vars=1, max_deg=2)
        assert not out.found
        assert out.mode == "exhaustive"
        assert out.witness is None


def test_gaussian_search_local_cube_counterexample():
    out = gaussian_search(M3, num_vars=1, max_deg=1)
    assert out.found
    assert out.mode == "exhaustive"
    assert out.checked == 33232
    f, g = out.witness
    assert display_poly(f) == "2+4x"
    assert display_poly(g) == "2+4x"
    # the witness is a genuine multiplicativity failure
    cfg, product = _content_law(f, g)
    assert cfg != product


def test_gaussian_search_sampled_mode():
    out = gaussian_search(M3, num_vars=1, max_deg=1, budget=100,
                          sample=3000, seed=3)
    assert out.mode == "sampled:3000"
    assert out.seed == 3
    assert out.found
    f, g = out.witness
    cfg, product = _content_law(f, g)
    assert cfg != product


def test_gaussian_search_budget_counts_pairs():
    # 360^2 single polynomials fit the default budget, but their ~1.1e9
    # unordered admissible pairs do not, so the search must sample
    out = gaussian_search(make_zmod(360), sample=500, seed=1)
    assert out.mode == "sampled:500"
    assert out.seed == 1


def test_sampled_certify_on_a_certified_ring_fills_no_lazy_rows(monkeypatch):
    # zmod:360 is above TABLE_LIMIT, where every mul_rows()/add_rows() read
    # makes fresh LazyRows; once the registry holds the draws' contents
    # and products, the certified sweeps fill no row at all, while the
    # product kernel of the bypass refills its rows on every call
    ring = make_zmod(360)
    assert ideal_space(ring).gaussian()
    radical = [i for i in all_ideals(ring) if i.is_proper and is_radical_ideal(i)]
    assert len(radical) == 7

    def sweeps():
        return [certify_pair_sweep(i, 1, 1, sample=1000, seed=5) for i in radical]

    first = sweeps()
    assert {s.mode for s in first} == {"sampled:1000"}
    misses = 0
    missing = LazyRow.__missing__

    def counted(row, b):
        nonlocal misses
        misses += 1
        return missing(row, b)

    monkeypatch.setattr(LazyRow, "__missing__", counted)
    assert sweeps() == first
    assert misses == 0
    with monkeypatch.context() as patch:
        patch.setattr(IdealSpace, "gaussian", lambda self: False)
        assert sweeps() == first
    assert misses > 0


def _lookups(monkeypatch, space) -> list[int]:
    """[content-id lookups so far, lookups made before the first seeded
    draw or None]: counts the calls of space.id_of_coeffs and notes the
    count at the first ``uniform_draws`` call."""
    counts = [0, None]
    lookup, draws = space.id_of_coeffs, content_checks.uniform_draws

    def counted(coeffs):
        counts[0] += 1
        return lookup(coeffs)

    def first_draw(*args):
        if counts[1] is None:
            counts[1] = counts[0]
        return draws(*args)

    monkeypatch.setattr(space, "id_of_coeffs", counted)
    monkeypatch.setattr(content_checks, "uniform_draws", first_draw)
    return counts


def test_pair_search_sizes_its_sweep_before_any_lookup(monkeypatch):
    # the class table counts the 46,655 admissible polynomials of zmod:360
    # without a lookup, so the search knows it samples before it reads a
    # tuple; listing them until a(a+1)/2 passed the budget took 12,284
    # lookups before the first draw and 12,990 in all. The 500 draws make
    # the 706 left; the certificate's own products are looked up first
    ring = make_zmod(360)
    space = ideal_space(ring)
    assert space.gaussian()
    lookups = _lookups(monkeypatch, space)
    out = gaussian_search(ring, 1, 1, sample=500, seed=1)
    assert (out.found, out.checked, out.mode) == (False, 76, "sampled:500")
    assert lookups == [706, 0]


def test_poly_omega_sizes_its_sweep_before_any_lookup(monkeypatch):
    # omega((2)) = 1 on zmod:360, so the scan walks pairs of admissible
    # polynomials, a^2 of them, over the budget: the class table counts
    # them with no lookup, where listing them until a^2 passed the budget
    # took 28,866 lookups before the first draw. The draws make the rest
    ring = make_zmod(360)
    ideal = ideal_from_generators(ring, (2,))
    lookups = _lookups(monkeypatch, ideal_space(ring))
    report = verify_poly_omega(ideal, max_deg=1, sample=500, seed=0)
    assert (report.mode, report.checked, report.violation) == ("sampled:500", 1, None)
    assert lookups == [540, 0]


def test_armendariz_search_clean_rings():
    out = armendariz_search(M2, num_vars=1, max_deg=1)
    assert not out.found
    f9 = make_truncated_local(3, 1, 2)
    out9 = armendariz_search(f9, num_vars=1, max_deg=2)
    assert not out9.found
    assert out9.mode == "exhaustive"


def test_armendariz_search_local_cube_clean_at_deg1():
    # the cube ring fails Gaussian yet stays Armendariz at this degree
    out = armendariz_search(M3, num_vars=1, max_deg=1)
    assert not out.found
    assert out.checked == 523776


def test_armendariz_witness_is_annihilating_when_found():
    # Z/4 quotient of the cube ring by (x^2, y^2) has Armendariz failures;
    # reuse the quotient report to grab one and sanity check it
    report = gaussian_iff_armendariz_quotients(M3, max_deg=1)
    found = [(ideal, out) for ideal, out in report.rows if out.found]
    assert found
    _, out = found[0]
    f, g = out.witness
    assert poly_mul(f, g).is_zero
    _, product = _content_law(f, g)
    assert product != frozenset({f.ring.zero})


# ---------------------------------------------------------------------------
# principal-content factorization


def test_bezout_z4_worked_example():
    g = parse_poly(Z4, 1, "2+2x")
    fact = bezout_factor(g)
    assert fact.b == 2
    assert fact.r == (1, 1)
    assert fact.s == (1, 0)
    assert fact.d == 1
    assert display_poly(fact.unit_part) == "1+x"
    assert fact.fresh_exponent == (2,)


def test_bezout_z12_worked_example():
    g = parse_poly(Z12, 1, "4+8x")
    fact = bezout_factor(g)
    assert fact.b == 4
    assert fact.r == (1, 2)
    assert fact.s == (1, 0)
    assert display_poly(fact.unit_part) == "1+2x"


def _check_factorization(g, fact):
    ring = g.ring
    scaled = poly_mul(fact.unit_part,
                      make_poly(ring, g.num_vars, {(0,) * g.num_vars: fact.b}))
    assert scaled.terms == g.terms
    space = ideal_space(ring)
    assert space.id_of_coeffs(fact.unit_part.coefficients()) == space.full_id


def test_bezout_exhaustive_z12_deg1():
    slots = monomials_up_to(1, 1)
    for coeffs in itertools.product(range(12), repeat=2):
        if coeffs == (0, 0):
            continue
        g = make_poly(Z12, 1, {slots[i]: c for i, c in enumerate(coeffs) if c})
        _check_factorization(g, bezout_factor(g))


def test_bezout_unit_content_input():
    g = parse_poly(Z4, 1, "1+2x")
    fact = bezout_factor(g)
    assert fact.b in Z4.units()
    _check_factorization(g, fact)


def test_bezout_product_ring_with_vanishing_column():
    ring = make_product(Z4, make_zmod(9))
    g = make_poly(ring, 1, {(0,): ring.encode(2, 0), (1,): ring.encode(2, 0)})
    fact = bezout_factor(g)
    assert ring.decode(fact.b) == (2, 0)
    _check_factorization(g, fact)


def test_bezout_rejections():
    with pytest.raises(ValueError):
        bezout_factor(make_poly(Z12, 1, {}))
    with pytest.raises(UnsupportedRingError):
        bezout_factor(parse_poly(M3, 1, "2"))


# ---------------------------------------------------------------------------
# radical certificates


def test_certify_worked_examples():
    z30 = make_zmod(30)
    i6 = ideal_from_generators(z30, (6,))
    cert = certify_content_product(
        i6, [parse_poly(z30, 1, "2"), parse_poly(z30, 1, "3x")]
    )
    assert cert.exponents == (1,)
    assert cert.chain_containment and cert.final_containment
    assert cert.ideal_radical

    zero6 = ideal_from_generators(Z6, ())
    cert2 = certify_content_product(
        zero6, [parse_poly(Z6, 1, "2x"), parse_poly(Z6, 1, "3+3x")]
    )
    assert cert2.exponents == (1,)
    assert cert2.final_containment


def test_certify_three_factors():
    z30 = make_zmod(30)
    zero = ideal_from_generators(z30, ())
    fs = [parse_poly(z30, 1, t) for t in ("2x", "3x", "5")]
    cert = certify_content_product(zero, fs)
    assert cert.exponents == (1, 1)
    assert cert.chain_containment and cert.final_containment


def test_certify_multiplies_each_suffix_once(monkeypatch):
    """m factors take m - 1 products: the suffix products, whose content
    ids give every c(f_i g) of the peeling exponents."""
    calls = []

    def counted(f, g):
        calls.append((f, g))
        return poly_mul(f, g)

    monkeypatch.setattr(content_checks, "poly_mul", counted)
    z30 = make_zmod(30)
    fs = [parse_poly(z30, 1, t) for t in ("2x", "3x", "5")]
    cert = certify_content_product(ideal_from_generators(z30, ()), fs)
    assert cert.exponents == (1, 1)
    assert len(calls) == 2


def test_certify_requires_qualifying_product():
    zero = ideal_from_generators(Z4, ())
    ones = [parse_poly(Z4, 1, "1")] * 2
    with pytest.raises(ValueError):
        certify_content_product(zero, ones)


def test_certify_sweep_frozen_counts():
    zero6 = ideal_from_generators(Z6, ())
    sweep = certify_pair_sweep(zero6, max_deg=1)
    assert sweep.mode == "exhaustive"
    assert sweep.pairs == 1296
    assert sweep.qualifying == 119
    assert sweep.max_exponent == 1
    assert sweep.exp_bound_holds and sweep.chain_holds and sweep.final_holds
    assert sweep.witness is None


def test_certify_sweep_agrees_with_direct_certificates():
    # re-enumerate the qualifying pairs by hand and check the interned
    # sweep numbers against direct certificate calls
    zero6 = ideal_from_generators(Z6, ())
    slots = monomials_up_to(1, 1)
    polys = [
        make_poly(Z6, 1, {slots[i]: c for i, c in enumerate(coeffs) if c})
        for coeffs in itertools.product(range(6), repeat=2)
    ]
    qualifying = 0
    max_exp = 0
    for f in polys:
        for g in polys:
            if any(c != 0 for c in poly_mul(f, g).coefficients()):
                continue
            qualifying += 1
            cert = certify_content_product(zero6, [f, g])
            assert cert.chain_containment and cert.final_containment
            max_exp = max(max_exp, max(cert.exponents))
    sweep = certify_pair_sweep(zero6, max_deg=1)
    assert sweep.qualifying == qualifying
    assert sweep.max_exponent == max_exp


# ---------------------------------------------------------------------------
# degree transfer to the polynomial ring


def test_poly_omega_frozen_z4():
    report = verify_poly_omega(ideal_from_generators(Z4, ()), max_deg=1)
    assert report.omega_base.value == 2
    assert report.lower_witness_valid is True
    assert report.violation is None
    assert report.mode == "exhaustive"
    # every depth-1 prefix already lies in (0)[X], so the scan prunes all
    # branches without visiting a single leaf
    assert report.checked == 0


def test_poly_omega_frozen_z12():
    report = verify_poly_omega(ideal_from_generators(Z12, ()), max_deg=1)
    assert report.omega_base.value == 3
    assert report.lower_witness_valid is True
    assert report.violation is None
    assert report.mode == "exhaustive"
    assert report.checked == 102028


def test_poly_omega_frozen_z18_gen9():
    # the slowest poly-omega record of the benchmark campaign
    report = verify_poly_omega(ideal_from_generators(make_zmod(18), (9,)), max_deg=1)
    assert report.omega_base.value == 2
    assert report.lower_witness_valid is True
    assert report.violation is None
    assert report.mode == "exhaustive"
    assert report.checked == 172971


@pytest.mark.parametrize(
    "m, gens, products", [(18, (9,), 390), (12, (), 1423)]
)
def test_poly_omega_residue_products(monkeypatch, m, gens, products):
    # the residue products one scan computes, counted at the row kernel
    # (1148 and 1777 before the lowest-term hints skipped the products
    # whose lowest coefficient is a nonzero residue); the frozen tests
    # above pin checked for the same two inputs
    calls = 0
    make_kernel = content_checks._convolver

    def counting_convolver(*args):
        slots, convolve = make_kernel(*args)

        def counted(fa, fb):
            nonlocal calls
            calls += 1
            return convolve(fa, fb)

        return slots, counted

    monkeypatch.setattr(content_checks, "_convolver", counting_convolver)
    ideal = ideal_from_generators(make_zmod(m), gens)
    assert verify_poly_omega(ideal, max_deg=1).mode == "exhaustive"
    assert calls == products


def test_poly_omega_draws_stop_at_first_inadmissible(monkeypatch):
    # the content lookups of five sampled scans: the draws up to their
    # first inadmissible factor (40,816 lookups when every factor of a draw
    # was looked up), and the square of (6), the maximal ideal of the local
    # factor Z/9 = R*10, which omega's local bound reads from the
    # registry's product table. The class table decides to sample with no
    # lookup; listing the admissible tuples to decide took 163 per scan
    ring = make_zmod(18)
    space = ideal_space(ring)
    lookups = 0
    lookup = space.id_of_coeffs

    def counted(coeffs):
        nonlocal lookups
        lookups += 1
        return lookup(coeffs)

    monkeypatch.setattr(space, "id_of_coeffs", counted)
    zero = ideal_from_generators(ring, ())
    checked = [verify_poly_omega(zero, sample=2000, seed=s).checked for s in range(5)]
    assert checked == [24, 27, 22, 28, 28]
    assert lookups == 14726


def test_poly_omega_prime_ideal():
    report = verify_poly_omega(ideal_from_generators(Z6, (2,)), max_deg=1)
    assert report.omega_base.value == 1
    assert report.lower_witness_valid is True
    assert report.violation is None


def test_poly_omega_sampled_mode():
    report = verify_poly_omega(ideal_from_generators(Z12, ()), max_deg=1,
                               budget=100, sample=400, seed=1)
    assert report.mode == "sampled:400"
    assert report.seed == 1
    assert report.violation is None


def test_poly_omega_capped_base():
    report = verify_poly_omega(ideal_from_generators(make_zmod(128), ()),
                               max_deg=1)
    assert report.mode == "skipped:omega-cap"
    assert report.omega_base.value is None
    assert report.violation is None


# ---------------------------------------------------------------------------
# Gaussian vs Armendariz quotient transfer


def test_quotient_agreement_z4():
    report = gaussian_iff_armendariz_quotients(Z4, max_deg=1)
    assert report.agree is True
    assert not report.gaussian.found
    assert all(not out.found for _, out in report.rows)
    assert report.forward_verified is None
    assert report.backward_verified is None


def test_quotient_agreement_local_cube():
    report = gaussian_iff_armendariz_quotients(M3, max_deg=1)
    assert report.agree is True
    assert report.gaussian.found
    assert any(out.found for _, out in report.rows)
    assert report.forward_verified is True
    assert report.backward_verified is True


def test_project_lift_roundtrip():
    q = quotient_by(ideal_from_generators(Z12, (4,)))
    f = parse_poly(Z12, 1, "2+7x")
    down = project_poly(q, f)
    assert display_poly(down) == "2+3x"
    up = lift_poly(q, down)
    assert display_poly(up) == "2+3x"
    assert up.ring is Z12


def test_content_subset_property_random_pairs():
    import random

    rng = random.Random(11)
    slots = monomials_up_to(2, 1)
    for _ in range(100):
        f = make_poly(Z12, 2, {s: rng.randrange(12) for s in slots})
        g = make_poly(Z12, 2, {s: rng.randrange(12) for s in slots})
        cfg, product = _content_law(f, g)
        assert cfg <= product
