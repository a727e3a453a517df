import itertools

import pytest

from omegalab.errors import SpecParseError
from omegalab.ideals import ideal_space
from omegalab.polys import (
    display_poly,
    make_poly,
    parse_poly,
    poly_mul,
)
from omegalab.rings import make_truncated_local, make_zmod, monomials_up_to

Z4 = make_zmod(4)
Z6 = make_zmod(6)
Z12 = make_zmod(12)


def test_unit_square_over_z4():
    f = parse_poly(Z4, 1, "1+2x")
    assert display_poly(poly_mul(f, f)) == "1"


def test_zero_divisor_product_over_z6():
    f = parse_poly(Z6, 1, "2x")
    g = parse_poly(Z6, 1, "3x")
    assert poly_mul(f, g).is_zero


def test_high_degree_sparse_square():
    """poly_mul costs the product of the term counts, whatever the degree.
    The dense row kernel, ``content_checks._convolver``, would keep a
    position table over the 3,321 monomials of degree <= 80 in two
    variables: 11 million entries for this one square."""
    f = parse_poly(Z12, 2, "x^20*y^20+1")
    square = poly_mul(f, f)
    assert square.terms == (((0, 0), 1), ((20, 20), 2), ((40, 40), 1))


def test_multivariate_mul_char2():
    z2 = make_zmod(2)
    f = parse_poly(z2, 2, "x+y")
    sq = poly_mul(f, f)
    assert display_poly(sq) == "y^2+x^2"


def test_graded_lex_term_order():
    f = parse_poly(Z12, 2, "3x^2+1+2y")
    assert [exp for exp, _ in f.terms] == [(0, 0), (0, 1), (2, 0)]
    assert display_poly(f) == "1+2y+3x^2"


def test_display_parse_roundtrip():
    cases = [
        (Z12, 1, "2+4x"),
        (Z12, 1, "x"),
        (Z12, 1, "11x^3"),
        (Z12, 2, "1+3x^2*y"),
        (make_zmod(5), 2, "4+x*y^2+2y"),
        (Z4, 1, "0"),
    ]
    for ring, nv, text in cases:
        f = parse_poly(ring, nv, text)
        assert parse_poly(ring, nv, display_poly(f)).terms == f.terms


def test_display_suppresses_unit_coefficient():
    f = make_poly(Z12, 1, {(1,): 1, (0,): 1})
    assert display_poly(f) == "1+x"


def test_parse_collects_repeated_monomials():
    # literal addition is ring addition, so terms may cancel
    f = parse_poly(Z4, 1, "2x+2x")
    assert f.is_zero
    g = parse_poly(Z4, 1, "1+3")
    assert display_poly(g) == "0"


def test_parse_errors():
    for bad in ("", "x+", "q", "x*x", "x^0", "2*", "x^"):
        with pytest.raises(SpecParseError):
            parse_poly(Z4, 1, bad)
    with pytest.raises(ValueError):
        parse_poly(Z4, 1, "7")  # coefficient index out of range


def test_cross_ring_operations_rejected():
    f = parse_poly(Z4, 1, "1+2x")
    g = parse_poly(Z6, 1, "1+2x")
    with pytest.raises(ValueError):
        poly_mul(f, g)
    h = parse_poly(Z4, 2, "x+y")
    with pytest.raises(ValueError):
        poly_mul(f, h)


def test_monomials_up_to():
    assert monomials_up_to(2, 2) == (
        (0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)
    )
    assert monomials_up_to(1, 3) == ((0,), (1,), (2,), (3,))


def test_content_ideal():
    space = ideal_space(Z12)
    for text, want in (("2+4x", [0, 2, 4, 6, 8, 10]), ("0", [0])):
        cid = space.id_of_coeffs(parse_poly(Z12, 1, text).coefficients())
        assert sorted(space.set_of(cid)) == want


def test_content_subset_property_exhaustive_small():
    # c(fg) always lands inside c(f)c(g)
    slots = monomials_up_to(1, 1)
    for ring in (Z4, Z6):
        space = ideal_space(ring)
        polys = [
            make_poly(ring, 1, {slots[i]: c for i, c in enumerate(coeffs) if c})
            for coeffs in itertools.product(range(ring.order), repeat=2)
        ]
        for f in polys:
            cf = space.id_of_coeffs(f.coefficients())
            for g in polys:
                cg = space.id_of_coeffs(g.coefficients())
                cfg = space.id_of_coeffs(poly_mul(f, g).coefficients())
                assert space.set_of(cfg) <= space.set_of(space.products[cf][cg])


def test_content_inclusion_strict_over_local_cube():
    # over F_2[a,b]/m^3 the containment c(fg) <= c(f)c(g) is strict for the
    # pair with linear-form coefficients, so the ring is not Gaussian
    ring = make_truncated_local(2, 2, 3)
    f = parse_poly(ring, 1, "2+4x")
    space = ideal_space(ring)
    cf = space.id_of_coeffs(f.coefficients())
    cfg = space.id_of_coeffs(poly_mul(f, f).coefficients())
    assert space.set_of(cfg) < space.set_of(space.products[cf][cf])
