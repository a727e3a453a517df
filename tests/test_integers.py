"""Integer-coefficient leg: factor-count degrees, contents, box scans."""

import time

import pytest
from oracles import content_int, gauss_lemma_check, int_poly_mul

from omegalab import integers
from omegalab.absorbing import omega, violates
from omegalab.errors import CapExceededError
from omegalab.ideals import ideal_from_generators
from omegalab.integers import (
    IntPolynomial,
    conjecture_check_int,
    int_poly,
    omega_int,
)
from omegalab.rings import make_zmod


def test_omega_int_values():
    assert omega_int(12).value == 3
    assert omega_int(12).factors == (2, 2, 3)
    assert omega_int(30).value == 3
    assert omega_int(30).factors == (2, 3, 5)
    assert omega_int(7).value == 1
    assert omega_int(7).factors == (7,)
    # conventions: Z/1 is the zero ring, (0) improper; Z/0 = Z, (0) prime
    assert omega_int(1).value == 0
    assert omega_int(0).value == 1
    assert omega_int(2**10).value == 10


def test_omega_int_fails_fast_past_the_trial_division_bound():
    # 2**63 - 25, the largest prime below INT_LIMIT, needs divisors up to
    # 3 * 10**9; trial division stops at 10**7 and says so
    start = time.perf_counter()
    with pytest.raises(CapExceededError, match=str(2**63 - 25)):
        omega_int(2**63 - 25)
    assert time.perf_counter() - start < 1
    # a prime just above 10**14, a pure power and the README example
    assert omega_int(10**14 + 31).value == 1
    assert omega_int(2**62).factors == (2,) * 62
    assert omega_int(720).factors == (2, 2, 2, 2, 3, 3, 5)


def test_omega_int_oracle_crosscheck():
    # omega of mZ equals omega of the zero ideal of Z/m, found by the scan
    for m in range(2, 61):
        value = omega_int(m).value
        scan = omega(ideal_from_generators(make_zmod(m), ()), cap=value)
        assert scan.value == value, m


def test_int_poly_construction_and_display():
    f = int_poly([4, 2])
    assert f.display() == "4+2X"
    assert f.coefficients() == (4, 2)
    assert int_poly([0]).display() == "0"
    assert int_poly([1, -3]).display() == "1-3X"
    assert int_poly([0, 1, 0, -1]).display() == "X-X^3"


def test_int_poly_arithmetic():
    f = int_poly([1, 1])
    g = int_poly([1, -1])
    assert int_poly_mul(f, g).coefficients() == (1, -1)
    assert int_poly_mul(f, g) == int_poly([1, 0, -1])
    zero = int_poly([])
    assert int_poly_mul(f, zero).terms == ()


def test_content_int():
    assert content_int(int_poly([6, 10, 15])) == 1
    assert content_int(int_poly([4, 8])) == 4
    assert content_int(int_poly([-6, 9])) == 3
    assert content_int(int_poly([])) == 0


def test_gauss_lemma_examples():
    assert gauss_lemma_check(int_poly([6, 10]), int_poly([15, 21]))
    assert gauss_lemma_check(int_poly([0]), int_poly([3, 5]))


def test_gauss_lemma_random_pairs():
    import random

    rng = random.Random(17)
    for _ in range(200):
        f = int_poly([rng.randint(-9, 9) for _ in range(rng.randint(1, 4))])
        g = int_poly([rng.randint(-9, 9) for _ in range(rng.randint(1, 4))])
        assert gauss_lemma_check(f, g)


def test_conjecture_check_exhaustive_m4():
    report = conjecture_check_int(4, max_deg=1, height=2)
    assert report.mode == "exhaustive"
    assert report.checked == 696
    assert report.violation is None
    assert report.witness_valid is True
    assert report.omega.value == 2


@pytest.mark.parametrize("m, drawn", [(12, 17550), (210, 98280)])
def test_exhaustive_scan_decided_by_the_lowest_terms(monkeypatch, m, drawn):
    # the height-2 box has lowest coefficients +-1 and +-2, whose products
    # never vanish mod 12 or mod 210: no product of box polynomials lies
    # in mZ[X], the walk is decided without a product, and the only
    # convolutions are those of the prime-factor witness check
    calls = 0
    convolve = integers._convolve

    def counted(fa, fb):
        nonlocal calls
        calls += 1
        return convolve(fa, fb)

    monkeypatch.setattr(integers, "_convolve", counted)
    reduce, one, table, inside, _, _ = integers._mod_table(m)
    assert violates([reduce((p,)) for p in omega_int(m).factors], one, table, inside)
    witness_calls, calls = calls, 0
    report = conjecture_check_int(m, max_deg=1, height=2)
    assert (report.mode, report.checked, report.drawn) == ("exhaustive", 0, drawn)
    assert report.violation is None and report.witness_valid
    assert calls == witness_calls


def test_conjecture_witness_is_the_prime_tuple():
    # the lower witness is the constant tuple of prime factors: product m
    # lies in mZ[X] while every proper subproduct stays outside
    report = conjecture_check_int(12, max_deg=1, height=2, sample=50, seed=0)
    assert report.witness_valid is True
    assert report.omega.factors == (2, 2, 3)


def test_conjecture_check_sampled_mode():
    report = conjecture_check_int(12, max_deg=2, height=3, sample=300, seed=5)
    assert report.mode == "sampled:300"
    assert report.seed == 5
    assert report.drawn == 300
    assert report.checked <= report.drawn
    assert report.violation is None


def test_conjecture_check_guards():
    with pytest.raises(ValueError):
        conjecture_check_int(1)
    with pytest.raises(ValueError):
        conjecture_check_int(0)


def test_int_polynomial_term_invariants():
    # terms are sorted by degree and never carry zero coefficients
    f = int_poly([0, 3, 0, 7])
    assert f.terms == ((1, 3), (3, 7))
    assert isinstance(f, IntPolynomial)
