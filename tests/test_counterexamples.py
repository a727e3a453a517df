"""The counterexample paths of poly-omega and the integer leg.

By the transfer theorem no true input makes ``verify_poly_omega`` or
``conjecture_check_int`` find a violation, so these tests lower the degree
that both the library and ``oracles`` read by one. I is not
(omega - 1)-absorbing, so the scans then find an omega-tuple whose product
lies in I[X] (or mZ[X]) with no smaller subproduct there. Each witness
must equal the oracle's, re-verify on its own, and reach the CLI as a
``counterexample`` record with exit code 2."""

import dataclasses
import json

import oracles
import pytest
from oracles import (
    _IdealX,
    _PolyTable,
    _product,
    _violates,
    reference_conjecture_check_int,
    reference_poly_omega,
)

from omegalab import absorbing, cli, content_checks, integers
from omegalab.content_checks import (
    DEFAULT_BUDGET,
    DEFAULT_CAP,
    DEFAULT_SAMPLE,
    verify_poly_omega,
)
from omegalab.ideals import parse_ideal_spec
from omegalab.integers import conjecture_check_int
from omegalab.polys import display_poly
from omegalab.rings import parse_ring_spec


@pytest.fixture
def lowered(monkeypatch):
    """omega and omega_int, as the library and the oracles read them, one
    below the true degree."""

    def lower(true):
        def degree(*args):
            got = true(*args)
            return dataclasses.replace(got, value=got.value - 1)

        return degree

    omega, omega_int = lower(absorbing.omega), lower(integers.omega_int)
    for module in (content_checks, oracles):
        monkeypatch.setattr(module, "omega", omega)
    for module in (integers, oracles):
        monkeypatch.setattr(module, "omega_int", omega_int)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    return code, json.loads(capsys.readouterr().out)["records"][0]


@pytest.mark.parametrize(
    "spec, ideal_text, max_deg, budget, mode",
    [
        ("zmod:4", "gen:none", 1, DEFAULT_BUDGET, "exhaustive"),
        ("zmod:4", "gen:none", 1, 0, "sampled:10000"),
        # 256^3 coefficient tuples are over the default budget
        ("zmod:256", "gen:4", 2, DEFAULT_BUDGET, "sampled:10000"),
    ],
)
def test_poly_omega_counterexample(
    lowered, capsys, spec, ideal_text, max_deg, budget, mode
):
    ideal = parse_ideal_spec(parse_ring_spec(spec), ideal_text)
    args = (ideal, max_deg, 1, DEFAULT_CAP, budget, DEFAULT_SAMPLE, 0)
    report = verify_poly_omega(*args)
    assert report == reference_poly_omega(*args)
    assert report.mode == mode
    witness = report.violation
    assert witness is not None
    assert len(witness) == report.omega_base.value + 1
    ring = ideal.ring
    assert absorbing.violates(
        [dict(p.terms) for p in witness], {(0,): ring.one}, _PolyTable(ring),
        _IdealX(ideal.elements),
    )
    if budget == DEFAULT_BUDGET:
        code, rec = run_cli(
            capsys, "poly-omega", "--ring", spec, "--ideal", ideal_text,
            "--max-deg", str(max_deg),
        )
        assert code == 2
        assert (rec["mode"], rec["status"]) == (mode, "counterexample")
        assert "violation=found" in rec["result"]
        assert rec["witness"] == "; ".join(display_poly(p) for p in witness)


@pytest.mark.parametrize(
    "m, max_deg, budget, mode",
    [
        (8, 1, DEFAULT_BUDGET, "exhaustive"),
        (8, 1, 0, "sampled:1000"),
        # (5^4)^3 box tuples are over the default budget
        (8, 3, DEFAULT_BUDGET, "sampled:1000"),
    ],
)
def test_int_counterexample(lowered, capsys, m, max_deg, budget, mode):
    args = (m, max_deg, 2, 1000, 0, budget)
    report = conjecture_check_int(*args)
    assert report == reference_conjecture_check_int(*args)
    assert report.mode == mode
    witness = report.violation
    assert witness is not None
    assert len(witness) == report.omega.value + 1
    # expanded in Z[X]: the product lies in mZ[X], no omission of one does
    assert _violates(list(witness), _product(list(witness)), m)
    if budget == DEFAULT_BUDGET:
        code, rec = run_cli(
            capsys, "int", "--ring", f"zmod:{m}", "--max-deg", str(max_deg)
        )
        assert code == 2
        assert (rec["mode"], rec["status"]) == (mode, "counterexample")
        assert "violation=found" in rec["result"]
        assert rec["witness"] == "; ".join(p.display() for p in witness)
