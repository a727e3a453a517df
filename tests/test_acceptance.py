"""Acceptance gate: ten criteria, exact outcomes, full stated scale.

Each test computes one criterion end to end, emits a single pass/fail line
into the terminal summary (see conftest), and then asserts. The scales and
budgets here are the contract; do not shrink them to make a red test green.
"""

import itertools
import json
import random

from conftest import record_acceptance
from oracles import gauss_lemma_check

from omegalab.absorbing import omega, omega_agreement_table
from omegalab.cli import main as cli_main
from omegalab.content_checks import (
    armendariz_search,
    bezout_factor,
    certify_pair_sweep,
    dm_exponent_table,
    gaussian_iff_armendariz_quotients,
    gaussian_search,
    verify_poly_omega,
)
from omegalab.ideals import all_ideals, ideal_from_generators, is_radical_ideal
from omegalab.integers import conjecture_check_int, int_poly, omega_int
from omegalab.polys import content, display_poly, make_poly, monomials_up_to, poly_mul
from omegalab.rings import make_zmod, parse_ring_spec


def _check(number: int, title: str, fn) -> None:
    try:
        ok, detail = fn()
    except Exception as exc:  # the line must appear even on a blowup
        ok, detail = False, f"error: {type(exc).__name__}: {exc}"
    verdict = "PASS" if ok else "FAIL"
    record_acceptance(f"criterion {number:2d} [{verdict}] {title}: {detail}")
    assert ok, f"criterion {number} {title}: {detail}"


def test_criterion_01_omega_table_vs_arithmetic():
    def run():
        worst = 0
        for m in range(2, 61):
            ring = make_zmod(m)
            scan = omega(ideal_from_generators(ring, ()), cap=6)
            arith = omega_int(m)
            if not scan.is_exact or scan.value != arith.value:
                return False, f"mismatch at m={m}: scan={scan.describe()} arithmetic={arith.value}"
            worst = max(worst, scan.value)
        return True, f"59 moduli agree, max omega {worst}"

    _check(1, "omega table vs arithmetic oracle", run)


def test_criterion_02_omega_equals_strong_omega():
    def run():
        specs = [f"zmod:{m}" for m in range(2, 31)]
        specs += ["prod:zmod:4,zmod:9", "prod:zmod:2,zmod:2"]
        specs += [
            "trunc:p=2,vars=1,nil=2",
            "trunc:p=2,vars=1,nil=3",
            "trunc:p=2,vars=2,nil=2",
            "trunc:p=2,vars=2,nil=3",
            "trunc:p=3,vars=1,nil=2",
        ]
        rows = 0
        for spec in specs:
            report = omega_agreement_table(parse_ring_spec(spec))
            if report.counterexamples:
                row = report.counterexamples[0]
                return False, (
                    f"{spec} ideal {row.ideal.generators}: "
                    f"omega={row.omega.describe()} strong={row.strong.describe()}"
                )
            if report.capped:
                return False, f"{spec}: {len(report.capped)} rows hit the cap"
            rows += len(report.rows)
        return True, f"{len(specs)} rings, {rows} proper ideals, all agree"

    _check(2, "omega equals strong omega across the family", run)


def test_criterion_03_content_peeling_bound():
    def run():
        t4 = dm_exponent_table(make_zmod(4), num_vars=1, max_deg=3)
        if t4.mode != "exhaustive" or t4.bound_holds is not True:
            return False, f"zmod:4 mode={t4.mode} bound={t4.bound_holds}"
        if t4.histogram != ((1, 65536),):
            return False, f"zmod:4 exponent not identically 1: {t4.histogram}"
        t6 = dm_exponent_table(make_zmod(6), num_vars=1, max_deg=3)
        if t6.mode != "exhaustive" or t6.bound_holds is not True:
            return False, f"zmod:6 mode={t6.mode} bound={t6.bound_holds}"
        if t6.cap_exceeded:
            return False, f"zmod:6 cap exceeded on {t6.cap_exceeded} pairs"
        return True, (
            f"zmod:4 identically 1 over {t4.checked} pairs; "
            f"zmod:6 max {t6.max_exponent} over {t6.checked} pairs"
        )

    _check(3, "peeling exponent bounded by deg(g)+1", run)


def test_criterion_04_gaussian_fixtures():
    def run():
        clean = ["zmod:4", "zmod:8", "zmod:12", "trunc:p=2,vars=2,nil=2"]
        for spec in clean:
            out = gaussian_search(parse_ring_spec(spec), num_vars=1, max_deg=2)
            if out.mode != "exhaustive":
                return False, f"{spec}: expected exhaustive, got {out.mode}"
            if out.found:
                f, g = out.witness
                return False, f"{spec}: unexpected pair {display_poly(f)} | {display_poly(g)}"
        cube = parse_ring_spec("trunc:p=2,vars=2,nil=3")
        hit = gaussian_search(cube, num_vars=1, max_deg=1)
        if not hit.found:
            return False, "cube ring: detector missed the known pair"
        f, g = hit.witness
        if (display_poly(f), display_poly(g)) != ("2+4x", "2+4x"):
            return False, f"cube ring: wrong first witness {display_poly(f)} | {display_poly(g)}"
        return True, "4 clean rings exhaustively clear; cube witness 2+4x squared"

    _check(4, "content multiplicativity fixtures", run)


def test_criterion_05_principal_content_factorization():
    def run():
        z12 = make_zmod(12)
        slots = monomials_up_to(1, 2)
        count = 0
        for coeffs in itertools.product(range(12), repeat=3):
            if coeffs == (0, 0, 0):
                continue
            g = make_poly(z12, 1, {slots[i]: c for i, c in enumerate(coeffs) if c})
            fact = bezout_factor(g)
            scaled = poly_mul(
                fact.unit_part, make_poly(z12, 1, {(0,): fact.b})
            )
            if scaled.terms != g.terms:
                return False, f"zmod:12 reconstruction failed for {display_poly(g)}"
            if content(fact.unit_part).elements != frozenset(range(12)):
                return False, f"zmod:12 content not full for {display_poly(g)}"
            count += 1
        big = make_zmod(360)
        rng = random.Random(360)
        full = frozenset(range(360))
        for _ in range(1000):
            coeffs = [rng.randrange(360) for _ in range(rng.randrange(1, 4))]
            if all(c == 0 for c in coeffs):
                coeffs[0] = 1
            g = make_poly(big, 1, {(i,): c for i, c in enumerate(coeffs) if c})
            fact = bezout_factor(g)
            scaled = poly_mul(
                fact.unit_part, make_poly(big, 1, {(0,): fact.b})
            )
            if scaled.terms != g.terms or content(fact.unit_part).elements != full:
                return False, f"zmod:360 invariant failed for {display_poly(g)}"
        return True, f"{count} polynomials over zmod:12, 1000 seeded over zmod:360"

    _check(5, "principal-content factorization", run)


def test_criterion_06_radical_peeling_certificates():
    def run():
        z30 = make_zmod(30)
        ideals = [
            i for i in all_ideals(z30) if i.is_proper and is_radical_ideal(i)
        ]
        total = 0
        for ideal in ideals:
            sweep = certify_pair_sweep(ideal, num_vars=1, max_deg=1)
            if sweep.mode != "exhaustive":
                return False, f"{ideal.generators}: expected exhaustive, got {sweep.mode}"
            if not (sweep.exp_bound_holds and sweep.chain_holds and sweep.final_holds):
                return False, (
                    f"{ideal.generators}: exp={sweep.exp_bound_holds} "
                    f"chain={sweep.chain_holds} final={sweep.final_holds}"
                )
            total += sweep.qualifying
        return True, f"{len(ideals)} radical ideals, {total} qualifying pairs certified"

    _check(6, "radical-ideal peeling certificates over zmod:30", run)


def test_criterion_07_degree_transfer_harness():
    def run():
        specs = ["zmod:4", "zmod:6", "zmod:12", "trunc:p=2,vars=2,nil=2"]
        rows = 0
        for spec in specs:
            ring = parse_ring_spec(spec)
            for ideal in all_ideals(ring):
                if not ideal.is_proper:
                    continue
                report = verify_poly_omega(
                    ideal, max_deg=1, sample=100000, seed=7
                )
                if report.violation is not None:
                    return False, f"{spec} {ideal.generators}: violation found"
                if report.lower_witness_valid is not True:
                    return False, f"{spec} {ideal.generators}: witness invalid"
                if report.mode.startswith("sampled") and report.seed is None:
                    return False, f"{spec} {ideal.generators}: sampled without seed"
                rows += 1
        return True, f"{rows} proper ideals, no violations, witnesses valid"

    _check(7, "absorbing degree transfers to the polynomial ring", run)


def test_criterion_08_integer_leg():
    def run():
        for m in (4, 8, 12, 30):
            report = conjecture_check_int(
                m, max_deg=2, height=5, sample=10000, seed=m
            )
            if not report.witness_valid:
                return False, f"m={m}: prime-factor witness rejected"
            if report.violation is not None:
                return False, f"m={m}: violation {report.violation}"
            if report.mode.startswith("sampled") and report.drawn != 10000:
                return False, f"m={m}: drew {report.drawn} of 10000"
        rng = random.Random(88)
        for i in range(10000):
            f = int_poly([rng.randint(-50, 50) for _ in range(rng.randint(1, 5))])
            g = int_poly([rng.randint(-50, 50) for _ in range(rng.randint(1, 5))])
            if not gauss_lemma_check(f, g):
                return False, f"gauss lemma failed at pair {i}: {f!r} {g!r}"
        return True, "4 moduli validated, 10000 content-product pairs clean"

    _check(8, "integer coefficients: witness and box search", run)


def test_criterion_09_armendariz_fixtures():
    def run():
        for spec in ("trunc:p=2,vars=2,nil=2", "trunc:p=3,vars=1,nil=2"):
            out = armendariz_search(parse_ring_spec(spec), num_vars=1, max_deg=2)
            if out.mode != "exhaustive":
                return False, f"{spec}: expected exhaustive, got {out.mode}"
            if out.found:
                return False, f"{spec}: unexpected annihilating pair"
        for spec in ("zmod:4", "trunc:p=2,vars=2,nil=3"):
            report = gaussian_iff_armendariz_quotients(
                parse_ring_spec(spec), max_deg=1
            )
            if report.agree is not True:
                return False, f"{spec}: verdicts disagree"
            if report.gaussian.found:
                if report.forward_verified is not True:
                    return False, f"{spec}: forward construction unverified"
                if report.backward_verified is not True:
                    return False, f"{spec}: backward construction unverified"
        return True, "2 rings exhaustively clean; both quotient reports agree"

    _check(9, "annihilator fixtures and quotient transfer", run)


def test_criterion_10_campaign_determinism(tmp_path):
    def run():
        config = {
            "rings": ["zmod:6", "zmod:4"],
            "checks": [
                "omega-table", "conjecture1", "gaussian", "armendariz",
                "dm-bound", "poly-omega", "bezout", "certify-radical",
                "int-conjecture",
            ],
            "bounds": {"max_deg": 1, "sample": 200},
            "seed": 42,
            "jobs": 1,
        }
        cfg = tmp_path / "campaign.json"
        cfg.write_text(json.dumps(config))
        out1 = tmp_path / "jobs1.json"
        out8 = tmp_path / "jobs8.json"
        code1 = cli_main(
            ["campaign", "--config", str(cfg), "--jobs", "1", "--out", str(out1)]
        )
        code8 = cli_main(
            ["campaign", "--config", str(cfg), "--jobs", "8", "--out", str(out8)]
        )
        if (code1, code8) != (0, 0):
            return False, f"exit codes {code1}/{code8}"
        b1, b8 = out1.read_bytes(), out8.read_bytes()
        if b1 != b8:
            return False, "reports differ between jobs=1 and jobs=8"
        return True, f"byte-identical reports ({len(b1)} bytes, exit 0)"

    _check(10, "campaign reports are deterministic across jobs", run)
