"""Ring kernel: structured arithmetic, axiom scan, quotients, spec grammar."""

import pytest
from oracles import reference_axiom_report

from omegalab.errors import RingConstructionError, SpecParseError
from omegalab.rings import (
    TABLE_LIMIT,
    AxiomReport,
    TableRing,
    _axiom_scan,
    make_product,
    make_quotient,
    make_truncated_local,
    make_zmod,
    parse_ring_spec,
    verify_ring_axioms,
)


def test_zmod_basics():
    ring = make_zmod(12)
    assert ring.order == 12
    assert ring.descriptor == "zmod:12"
    assert ring.add(7, 8) == 3
    assert ring.mul(7, 8) == 8
    assert ring.zero == 0 and ring.one == 1


def test_zmod_modulus_floor():
    with pytest.raises(RingConstructionError):
        make_zmod(1)
    with pytest.raises(RingConstructionError):
        make_zmod(0)


def test_units_match_gcd():
    ring = make_zmod(12)
    assert ring.units() == frozenset({1, 5, 7, 11})


def test_product_encoding_roundtrip():
    ring = make_product(make_zmod(4), make_zmod(3))
    for i in range(ring.order):
        a, b = ring.decode(i)
        assert ring.encode(a, b) == i
    # componentwise arithmetic
    x = ring.encode(3, 2)
    y = ring.encode(2, 2)
    assert ring.decode(ring.add(x, y)) == (1, 1)
    assert ring.decode(ring.mul(x, y)) == (2, 1)


def test_crt_isomorphism_z4xz3_z12():
    # the unique unital map Z/12 -> Z/4 x Z/3 sends k to k * 1 and is a
    # ring isomorphism; checking it pins the product encoding against zmod
    prod = make_product(make_zmod(4), make_zmod(3))
    z12 = make_zmod(12)
    image = [prod.zero] * 12
    for k in range(1, 12):
        image[k] = prod.add(image[k - 1], prod.one)
    assert len(set(image)) == 12
    for a in range(12):
        for b in range(12):
            assert image[z12.add(a, b)] == prod.add(image[a], image[b])
            assert image[z12.mul(a, b)] == prod.mul(image[a], image[b])


def test_truncated_local_nilpotency():
    # F_2[x,y]/m^2: any product of two variables dies; graded-lex order
    # lists 1, y, x, so y is digit 1 (index 2) and x digit 2 (index 4)
    m2 = make_truncated_local(2, 2, 2)
    assert m2.order == 8
    x, y = 4, 2
    assert (m2.display(x), m2.display(y)) == ("x", "y")
    assert m2.mul(x, y) == m2.zero
    assert m2.mul(x, x) == m2.zero
    # in m^3 the products survive one more level
    m3 = make_truncated_local(2, 2, 3)
    assert m3.order == 64
    assert (m3.display(x), m3.display(y)) == ("x", "y")
    xy = m3.mul(x, y)
    assert xy != m3.zero
    assert m3.mul(xy, x) == m3.zero


def _read_back(ring):
    """Display -> index over the whole ring; report witnesses name elements
    by their display, so every display must read back to its one element."""
    table = {ring.display(i): i for i in range(ring.order)}
    assert len(table) == ring.order, ring.descriptor
    return table


def test_display_injective_per_family():
    z12 = make_zmod(12)
    for ring in (z12, make_quotient(z12, frozenset({0, 4, 8}))):
        _read_back(ring)


def test_truncated_display_parse_roundtrip():
    cube = make_truncated_local(2, 2, 3)
    for ring in (make_truncated_local(3, 1, 2), cube):
        table = _read_back(ring)
        for i in range(ring.order):
            assert table[ring.display(i)] == i
    assert [cube.display(i) for i in (0, 1, 6, 7)] == ["0", "1", "y+x", "1+y+x"]


def test_product_element_display_parse():
    ring = make_product(make_zmod(4), make_zmod(3))
    i = ring.encode(1, 2)
    assert ring.display(i) == "(1,2)"
    assert _read_back(ring)["(1,2)"] == i


def test_truncated_constructor_guards():
    with pytest.raises(RingConstructionError):
        make_truncated_local(4, 1, 2)  # p must be prime
    with pytest.raises(RingConstructionError):
        make_truncated_local(2, 0, 2)
    with pytest.raises(RingConstructionError):
        make_truncated_local(2, 1, 1)


def test_axiom_scan_passes_on_real_rings():
    for ring in (make_zmod(6), make_product(make_zmod(2), make_zmod(2)),
                 make_truncated_local(2, 1, 3)):
        report = verify_ring_axioms(ring)
        assert report.ok and report.checked
        assert report.axiom is None


def test_axiom_scan_large_ring_unchecked():
    report = verify_ring_axioms(make_zmod(1000))
    assert report.ok and not report.checked


def _z4_tables():
    z4 = make_zmod(4)
    add = [[z4.add(i, j) for j in range(4)] for i in range(4)]
    mul = [[z4.mul(i, j) for j in range(4)] for i in range(4)]
    return add, mul


def test_axiom_scan_reports_first_violation():
    add, mul = _z4_tables()
    mul[1][2] = 3  # breaks symmetry, caught before associativity
    bad = TableRing(add, mul, 0, 1, "bad:mul")
    report = verify_ring_axioms(bad)
    assert not report.ok
    assert report.axiom == "mul-commutative"
    assert report.witness == (1, 2)


@pytest.mark.parametrize(
    "value, left, message",
    [
        # 5 lies outside Z/4: (2,0)*(3,0) would be index 5*2 + 0 = 10
        (5, True, "prod:bad,zmod:2: axiom closure-mul violated at (4, 6)"),
        # 3 lies in Z/4 but (2*2)*3 = 0 while 2*(2*3) = 2*3 = 3
        (3, True, "prod:bad,zmod:2: axiom mul-associative violated at (4, 4, 6)"),
        # on the right, (1,2)*(1,3) would be index 1*4 + 5 = 9; 5 fits a
        # byte, so only the range check keeps it from a translate's padding
        (5, False, "prod:zmod:2,bad: axiom closure-mul violated at (6, 7)"),
    ],
)
def test_product_over_a_corrupted_factor_fails_cleanly(value, left, message):
    # the product's rows are built from the factor's rows; an entry out of
    # range must not escape as IndexError, and the report is the scan's
    add, mul = _z4_tables()
    mul[2][3] = mul[3][2] = value
    bad, two = TableRing(add, mul, 0, 1, "bad"), make_zmod(2)
    with pytest.raises(RingConstructionError) as err:
        make_product(bad, two) if left else make_product(two, bad)
    assert str(err.value) == message


def test_axiom_scan_zero_identity():
    add, mul = _z4_tables()
    # symmetric corruption so commutativity still holds
    add[0][1] = 2
    add[1][0] = 2
    bad = TableRing(add, mul, 0, 1, "bad:add")
    report = verify_ring_axioms(bad)
    assert not report.ok
    assert report.axiom == "zero-identity"
    assert report.witness == (1,)


@pytest.mark.parametrize(
    "overwrites, axiom, witness",
    [
        # -1 would index the last row, the order would raise IndexError
        ([("add", 1, 2, -1)], "closure-add", (1, 2)),
        ([("mul", 2, 3, 4)], "closure-mul", (2, 3)),
        # entries are checked in (i, j) order, the add entry before the mul
        ([("add", 2, 0, 4), ("mul", 1, 3, -1)], "closure-mul", (1, 3)),
    ],
)
def test_axiom_scan_closure(overwrites, axiom, witness):
    tables = dict(zip(("add", "mul"), _z4_tables()))
    for table, i, j, value in overwrites:
        tables[table][i][j] = value
    report = verify_ring_axioms(TableRing(tables["add"], tables["mul"], 0, 1, "bad"))
    assert (report.ok, report.axiom, report.witness) == (False, axiom, witness)


def _zmod_tables(n):
    ring = make_zmod(n)
    return [list(r) for r in ring.add_rows()], [list(r) for r in ring.mul_rows()]


def test_table_limit_fits_one_byte_per_element():
    # the axiom scan holds rows as bytes; a larger limit needs a new row type
    assert TABLE_LIMIT <= 256


@pytest.mark.parametrize(
    "n, table, value, axiom",
    [
        # bytes() raises on 256 and on -1
        (256, "mul", 256, "closure-mul"),
        (256, "mul", -1, "closure-mul"),
        # 250 fits a byte; only the range check rejects it
        (200, "add", 250, "closure-add"),
    ],
)
def test_axiom_scan_closure_at_the_byte_bounds(n, table, value, axiom):
    tables = dict(zip(("add", "mul"), _zmod_tables(n)))
    tables[table][3][7] = value
    ring = TableRing(tables["add"], tables["mul"], 0, 1, "bad")
    report = verify_ring_axioms(ring)
    assert report == reference_axiom_report(ring)
    assert (report.ok, report.axiom, report.witness) == (False, axiom, (3, 7))


def test_axiom_scan_symmetric_swap_at_256():
    # swapping 5 + 10 and 5 + 20 on both sides of the diagonal keeps + closed,
    # commutative, with identity 0 and inverses; the generator pass over
    # {1} finds the broken associativity, the full scan its least witness
    add, mul = _zmod_tables(256)
    add[5][10] = add[10][5] = 25
    add[5][20] = add[20][5] = 15
    ring = TableRing(add, mul, 0, 1, "bad:swap")
    assert _axiom_scan(ring, generated=True) == AxiomReport(
        False, True, "add-associative", (4, 1, 10)
    )
    report = verify_ring_axioms(ring)
    assert report == AxiomReport(False, True, "add-associative", (1, 4, 10))
    assert report == reference_axiom_report(ring)


def test_axiom_scan_zero_ne_one():
    report = verify_ring_axioms(TableRing(*_z4_tables(), 0, 0, "bad:one"))
    assert (report.ok, report.axiom, report.witness) == (False, "zero-ne-one", ())


def test_axiom_scan_additive_inverse():
    # 1 + 3 = 3 + 1 = 2 leaves no 0 in rows 1 and 3, and + commutative
    # with 0 its identity
    add, mul = _z4_tables()
    add[1][3] = add[3][1] = 2
    report = verify_ring_axioms(TableRing(add, mul, 0, 1, "bad:add"))
    assert (report.ok, report.axiom, report.witness) == (False, "additive-inverse", (1,))


def test_axiom_scan_one_identity():
    # the tables of Z/4 with 3 named as one: 3 * 1 = 3
    report = verify_ring_axioms(TableRing(*_z4_tables(), 0, 3, "bad:one"))
    assert (report.ok, report.axiom, report.witness) == (False, "one-identity", (1,))


def test_axiom_scan_add_associative_alone():
    # 1+1 = 2+2 = 0 keeps every other axiom: multiplication by 2 swaps
    # 1 and 2, which respects the new sums
    add, mul = _zmod_tables(3)
    add[1][1] = add[2][2] = 0
    report = verify_ring_axioms(TableRing(add, mul, 0, 1, "bad:add"))
    assert (report.ok, report.axiom, report.witness) == (
        False, "add-associative", (1, 1, 2)
    )  # (1+1)+2 = 2, 1+(1+2) = 1


def test_axiom_scan_add_associative_before_distributive():
    add, mul = _z4_tables()
    add[1][1] = 0
    bad = TableRing(add, mul, 0, 1, "bad:add")
    # distributivity breaks too: 3*(1+1) = 0 but 3*1 + 3*1 = 2
    assert bad.mul(3, bad.add(1, 1)) != bad.add(bad.mul(3, 1), bad.mul(3, 1))
    report = verify_ring_axioms(bad)
    assert (report.ok, report.axiom, report.witness) == (
        False, "add-associative", (1, 1, 2)
    )


def test_axiom_scan_mul_associative():
    # F_2[x,y]/(x,y)^2 with x*x redefined as 1, extended bilinearly: still
    # commutative, unital and distributive, but (y*x)*x = 0 and
    # y*(x*x) = y. Every identity holds with middle argument 1 or y, so
    # the check needs the last additive generator, x.
    base = make_truncated_local(2, 2, 2)
    y, x = 2, 4
    mul = [list(r) for r in base.mul_rows()]
    for a in range(8):
        for b in range(8):
            if a & x and b & x:
                mul[a][b] ^= 1
    bad = TableRing(base.add_rows(), mul, 0, 1, "bad:mul")
    assert bad.mul(x, x) == 1 and bad.mul(y, x) == 0
    report = verify_ring_axioms(bad)
    assert (report.ok, report.axiom, report.witness) == (
        False, "mul-associative", (y, x, x)
    )


def test_axiom_scan_distributive():
    # 2*2 = 2 keeps multiplication associative: 2*(1+1) = 2, 2*1 + 2*1 = 0
    add, mul = _z4_tables()
    mul[2][2] = 2
    report = verify_ring_axioms(TableRing(add, mul, 0, 1, "bad:mul"))
    assert (report.ok, report.axiom, report.witness) == (
        False, "distributive", (2, 1, 1)
    )


def test_table_ring_rejects_tables_of_the_wrong_size():
    # a table with too few rows used to build, and verification then
    # raised IndexError instead of reporting
    add, mul = _z4_tables()
    with pytest.raises(RingConstructionError):
        TableRing(add, mul[:3], 0, 1, "bad:short-mul")
    with pytest.raises(RingConstructionError):
        TableRing(add, mul + [mul[0]], 0, 1, "bad:long-mul")
    with pytest.raises(RingConstructionError):
        TableRing(add, [row[:3] for row in mul], 0, 1, "bad:narrow-mul")


@pytest.mark.parametrize("zero, one", [(4, 1), (0, 4), (-1, 1)])
def test_table_ring_rejects_zero_or_one_outside_the_ring(zero, one):
    # zero=4 and one=4 made verification raise IndexError, and zero=-1
    # was read as row 3 and reported as zero-identity
    with pytest.raises(RingConstructionError):
        TableRing(*_z4_tables(), zero, one, "bad:range")


@pytest.mark.parametrize("displays", [["0"], ["0", "1", "2"]])
def test_table_ring_rejects_displays_of_the_wrong_length(displays):
    # one display for F_2 used to build and pass verification, and
    # ideal_display over all_ideals then raised IndexError
    with pytest.raises(RingConstructionError):
        TableRing([[0, 1], [1, 0]], [[0, 0], [0, 1]], 0, 1, "t2", displays=displays)


def test_order_cap_enforced():
    with pytest.raises(RingConstructionError):
        make_zmod(5000)
    with pytest.raises(RingConstructionError):
        parse_ring_spec("zmod:9999")
    assert parse_ring_spec("zmod:9999", order_cap=10000).order == 9999
    with pytest.raises(RingConstructionError):
        make_product(make_zmod(100), make_zmod(100))


def test_quotient_z12_by_4_is_z4():
    parent = make_zmod(12)
    q = make_quotient(parent, frozenset({0, 4, 8}), label="gen:4")
    assert q.order == 4
    assert q.reps == (0, 1, 2, 3)
    assert q.descriptor == "quot:zmod:12/gen:4"
    z4 = make_zmod(4)
    for i in range(4):
        for j in range(4):
            assert q.add(i, j) == z4.add(i, j)
            assert q.mul(i, j) == z4.mul(i, j)
    # projection respects the parent arithmetic
    for x in range(12):
        for y in range(12):
            assert q.project[parent.add(x, y)] == q.add(q.project[x], q.project[y])


def test_quotient_guards():
    parent = make_zmod(6)
    with pytest.raises(RingConstructionError):
        make_quotient(parent, frozenset({2, 4}))  # missing zero
    with pytest.raises(RingConstructionError):
        make_quotient(parent, frozenset(range(6)))  # whole ring


def test_quotient_rejects_non_subgroup():
    # 2 + 2 = 4 is missing, so the cosets of {0, 2} overlap
    with pytest.raises(RingConstructionError, match="additive subgroup"):
        make_quotient(make_zmod(6), frozenset({0, 2}))


def test_ring_spec_roundtrip():
    for spec in (
        "zmod:12",
        "prod:zmod:4,zmod:9",
        "prod:zmod:4,prod:zmod:2,zmod:3",
        "trunc:p=2,vars=2,nil=3",
        "trunc:p=3,vars=1,nil=2",
    ):
        ring = parse_ring_spec(spec)
        assert ring.descriptor == spec
        assert parse_ring_spec(ring.descriptor).descriptor == spec


def test_ring_spec_errors():
    for bad in ("zmod:", "prod:zmod:4", "zmod:12extra", "trunc:p=2,vars=1",
                "ring:5", ""):
        with pytest.raises(SpecParseError):
            parse_ring_spec(bad)
