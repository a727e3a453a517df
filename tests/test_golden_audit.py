"""Golden campaign A (``bench/expected/campaign.json``, read only) audited
by the reference routines of ``oracles``, never the library's sweeps.

Each record is derived again from its ring spec: the ideals come from the
pairwise-sum lattice ``oracle_lattice`` and are named by greedy minimal
generators over ``generic_closure``; absorbing degrees from
``reference_is_n_absorbing`` and ``reference_strong_violation``; the
content sweeps from ``reference_pair_search``, ``reference_dm_table``,
``reference_certify_sweep`` and ``reference_poly_omega``; the integer leg
from ``reference_conjecture_check_int``. Result strings and witnesses are
compared, every witness is re-verified by element arithmetic over
``method_table`` rows, and each error record is matched against the error
its runner raises. A record that disagrees is a finding, never a re-pin."""

import functools
import importlib.util
import itertools
import json
import sys
from pathlib import Path

import pytest
from oracles import (
    generic_closure,
    method_table,
    oracle_lattice,
    reference_certify_sweep,
    reference_conjecture_check_int,
    reference_dm_table,
    reference_ideal_radical,
    reference_is_n_absorbing,
    reference_pair_search,
    reference_poly_omega,
    reference_product,
    reference_strong_violation,
)

from omegalab import cli
from omegalab.content_checks import bezout_factor
from omegalab.ideals import Ideal
from omegalab.polys import display_poly, make_poly
from omegalab.rings import ProductRing, ZmodRing, monomials_up_to, parse_ring_spec

ROOT = Path(__file__).resolve().parent.parent


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", ROOT / "bench" / "workloads.py"
    )
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _load_workloads()
CONFIG = WORKLOADS.CAMPAIGN_CONFIGS["A"]
SEED = WORKLOADS.campaign_seeds(WORKLOADS.DEFAULT_SEED)["A"]
BOUNDS = cli.Bounds(**CONFIG["bounds"])
EXPECTED = json.loads((ROOT / "bench" / "expected" / "campaign.json").read_text())[
    "campaign A"
]["records"]

# records whose reference walk alone takes about a second: the multiset
# scan of ``reference_poly_omega`` over this many leaves
OUT_OF_REACH = {
    "zmod:12 gen:none poly-omega": "102,028 leaves, about 0.9 s",
    "zmod:18 gen:6 poly-omega": "100,878 leaves, about 1.0 s",
    "zmod:18 gen:9 poly-omega": "172,971 leaves, about 0.7 s",
}

# the five errors of campaign A: checks whose runner rejects the ring
ERRORS = {
    "int-conjecture": "ValueError: int-conjecture needs a zmod ring spec as its modulus",
    "bezout": "UnsupportedRingError: principal-content factorization needs zmod or "
              "products of zmod, got {spec}",
}


def _greedy_spec(ring, els: frozenset) -> str:
    """gen:... by the least generators, scanned in ascending order."""
    gens: list[int] = []
    for x in sorted(els):
        if x not in generic_closure(ring, gens):
            gens.append(x)
    return "gen:" + (",".join(map(str, gens)) or "none")


def _product_in(mul, members, xs) -> bool:
    acc = xs[0]
    for x in xs[1:]:
        acc = mul[acc][x]
    return acc in members


def _degree(ideal: Ideal, absorbing) -> tuple[int, object]:
    """(least n with no violation, the violation at n - 1)."""
    n = 1
    while absorbing(ideal, n) is not None:
        n += 1
    return n, absorbing(ideal, n - 1) if n > 1 else None


def _big_omega(m: int) -> tuple[int, ...]:
    factors, p = [], 2
    while m > 1:
        while m % p == 0:
            factors.append(p)
            m //= p
        p += 1
    return tuple(factors)


def _coefficients_of_product(add, mul, f, g) -> list[int]:
    """The coefficients of fg, by the operation tables."""
    out: dict = {}
    for (ea, a), (eb, b) in itertools.product(f.terms, g.terms):
        exp = tuple(x + y for x, y in zip(ea, eb))
        out[exp] = add[out.get(exp, 0)][mul[a][b]]
    return list(out.values())


def _dm_exponent(ring, cf, cg, cfg) -> int:
    """Least n with c(f)^n c(g) = c(f)^(n-1) c(fg), by set products."""
    product = functools.partial(reference_product, ring)
    n, power = 1, frozenset(range(ring.order))  # power = c(f)^(n-1)
    while product(product(power, cf), cg) != product(power, cfg):
        n, power = n + 1, product(power, cf)
    return n


def _bezout_invariants(ring, add, mul, num_vars: int, max_deg: int) -> int:
    """The nonzero polynomials within the bounds, each factored g = g' b
    with the factorization re-verified: g' b is g, c(g') = R, (b) = c(g)."""
    slots = monomials_up_to(num_vars, max_deg)
    full = frozenset(range(ring.order))
    checked = 0
    for coeffs in itertools.product(range(ring.order), repeat=len(slots)):
        if not any(coeffs):
            continue
        g = make_poly(ring, num_vars, dict(zip(slots, coeffs)))
        fact = bezout_factor(g)
        scaled = {e: mul[c][fact.b] for e, c in fact.unit_part.terms}
        assert {e: c for e, c in scaled.items() if c} == dict(g.terms)
        assert generic_closure(ring, fact.unit_part.coefficients()) == full
        assert generic_closure(ring, (fact.b,)) == generic_closure(ring, coeffs)
        checked += 1
    return checked


def _audit(spec: str) -> dict[str, list]:
    """The records of one ring of campaign A, derived by the references,
    keyed as the benchmark keys them; out-of-reach records are left out."""
    ring = parse_ring_spec(spec)
    add, mul = (method_table(op, ring.order) for op in (ring.add, ring.mul))
    b = BOUNDS
    seed = functools.partial(cli._derive_seed, SEED, spec)
    proper = [
        Ideal(ring, (), els) for els in oracle_lattice(ring) if len(els) < ring.order
    ]
    out: dict[str, list] = {}

    # omega-table on (0): the element witness re-verified
    zero = proper[0]
    n, witness = _degree(zero, reference_is_n_absorbing)
    assert n >= 2 and _product_in(mul, zero.elements, witness)
    assert not any(_product_in(mul, zero.elements, witness[:t] + witness[t + 1:])
                   for t in range(n))
    result = f"omega={n}"
    if isinstance(ring, ZmodRing):
        arith = len(_big_omega(ring.modulus))
        result += f" arithmetic={arith} agree={'yes' if arith == n else 'NO'}"
    shown = "(" + ",".join(ring.display(x) for x in witness) + ")"
    out[f"{spec} gen:none omega-table"] = ["exact", "pass", result, shown]

    # conjecture1: omega against the strong degree on every proper ideal
    omegas = {i.elements: _degree(i, reference_is_n_absorbing)[0] for i in proper}
    agree = sum(omegas[i.elements] == _degree(i, reference_strong_violation)[0] for i in proper)
    out[f"{spec} - conjecture1"] = [
        "exact", "pass", f"rows={len(proper)} agree={agree} capped=0", None
    ]

    for kind in ("gaussian", "armendariz"):
        got = reference_pair_search(ring, b.vars, b.max_deg, kind, b.budget, b.sample,
                                    seed(kind))
        assert not got.found
        out[f"{spec} - {kind}"] = [got.mode, "pass", f"found=no checked={got.checked}", None]

    # dm-bound: the witness pair's exponent is the maximum, by set products
    table = reference_dm_table(ring, b.vars, b.max_deg, b.cap, b.budget, b.sample,
                               seed("dm-bound"))
    f, g = table.witness
    cf, cg, cfg = (generic_closure(ring, c) for c in (
        f.coefficients(), g.coefficients(), _coefficients_of_product(add, mul, f, g)))
    assert _dm_exponent(ring, cf, cg, cfg) == table.max_exponent
    hist = ",".join(f"{e}:{c}" for e, c in table.histogram)
    bound = {True: "ok", False: "violated", None: "n/a"}[table.bound_holds]
    out[f"{spec} - dm-bound"] = [
        table.mode, "pass",
        f"max={table.max_exponent} bound={bound} hist={hist} "
        f"cap_exceeded={table.cap_exceeded} checked={table.checked}",
        f"f={display_poly(f)}; g={display_poly(g)}",
    ]

    for ideal in proper:
        name = _greedy_spec(ring, ideal.elements)
        key = f"{spec} {name} poly-omega"
        if key not in OUT_OF_REACH:
            got = reference_poly_omega(ideal, b.max_deg, b.vars, b.cap, b.budget,
                                       b.sample, seed("poly-omega", name))
            # the oracle reads its base degree from the library's omega
            assert got.violation is None and got.omega_base.value == omegas[ideal.elements]
            valid = {True: "valid", False: "INVALID", None: "n/a"}[got.lower_witness_valid]
            out[key] = [got.mode, "pass", f"omega={got.omega_base.value} witness={valid} "
                        f"violation=none checked={got.checked}", None]
        if reference_ideal_radical(ideal) == ideal.elements:
            got = reference_certify_sweep(ideal, b.vars, b.max_deg,
                                          max(b.cap, b.max_deg + 2), b.budget, b.sample,
                                          seed("certify-radical", name))
            ok = {True: "ok", False: "FAIL"}
            out[f"{spec} {name} certify-radical"] = [
                got.mode, "pass",
                f"pairs={got.pairs} qualifying={got.qualifying} "
                f"max_exponent={got.max_exponent} "
                f"exp_bound={'ok' if got.exp_bound_holds else 'violated'} "
                f"chain={ok[got.chain_holds]} final={ok[got.final_holds]}",
                None,
            ]

    if isinstance(ring, ZmodRing):
        m = ring.modulus
        got = reference_conjecture_check_int(m, b.max_deg, b.height, b.sample,
                                             seed("int-conjecture"), b.budget)
        assert got.violation is None and got.omega.factors == _big_omega(m)
        out[f"{spec} - int-conjecture"] = [
            got.mode, "pass",
            f"omega={got.omega.value} factors=({','.join(map(str, got.omega.factors))}) "
            f"witness={'valid' if got.witness_valid else 'INVALID'} violation=none "
            f"checked={got.checked} drawn={got.drawn}",
            None,
        ]
    if isinstance(ring, (ZmodRing, ProductRing)):  # products of zmod here
        checked = _bezout_invariants(ring, add, mul, b.vars, b.max_deg)
        out[f"{spec} - bezout"] = ["exhaustive", "pass", f"checked={checked} invariants=ok",
                                   None]
    for name, message in ERRORS.items():
        key = f"{spec} - {name}"
        if key in out:
            continue
        with pytest.raises(Exception) as err:
            cli.CHECKS[name].run(ring, None, b, seed(name), ())
        text = f"{type(err.value).__name__}: {err.value}"
        assert text == message.format(spec=spec)
        out[key] = ["error", "error", f"error={text}", None]
    return out


@pytest.mark.parametrize("spec", CONFIG["rings"])
def test_campaign_a_records_match_the_references(spec):
    derived = _audit(spec)
    pinned = {k: v for k, v in EXPECTED.items() if k.split(" ")[0] == spec}
    assert sorted(derived) == sorted(k for k in pinned if k not in OUT_OF_REACH)
    for key, record in derived.items():
        assert pinned[key] == record, key


def test_campaign_a_is_covered():
    # every record is audited or named out of reach, and the count is 66
    # with 5 errors
    assert set(OUT_OF_REACH) <= set(EXPECTED)
    assert {k.split(" ")[0] for k in EXPECTED} == set(CONFIG["rings"])
    assert len(EXPECTED) == 66
    assert sum(r[0] == "error" for r in EXPECTED.values()) == 5
