"""The quotient transfer report that acceptance criterion 9 runs: the
bounded content-multiplicativity search on R against the bounded
annihilator search on every proper quotient R/I, with both transfer
constructions re-verified (Anderson and Camillo, "Armendariz rings and
Gaussian rings", Comm. Algebra 26, 1998). It drives the library's
``gaussian_search`` and ``armendariz_search``; no report of the package
reads it."""

from dataclasses import dataclass
from typing import Optional

from omegalab.content_checks import (
    DEFAULT_BUDGET,
    DEFAULT_SAMPLE,
    SearchOutcome,
    armendariz_search,
    gaussian_search,
)
from omegalab.ideals import (
    DEFAULT_LATTICE_CAP,
    Ideal,
    all_ideals,
    ideal_space,
    quotient_by,
)
from omegalab.polys import Polynomial, make_poly, poly_mul
from omegalab.rings import FiniteRing, QuotientRing


def content_ids(f: Polynomial, g: Polynomial):
    """(space, c(f), c(g), c(fg)) with the contents as ids of f's ring."""
    space = ideal_space(f.ring)
    cf = space.id_of_coeffs(f.coefficients())
    cg = space.id_of_coeffs(g.coefficients())
    cfg = space.id_of_coeffs(poly_mul(f, g).coefficients())
    return space, cf, cg, cfg


def project_poly(quotient: QuotientRing, f: Polynomial) -> Polynomial:
    """Image of a parent-ring polynomial in the quotient ring."""
    if f.ring is not quotient.parent:
        raise ValueError("polynomial does not live in the quotient's parent")
    project = quotient.project
    return make_poly(
        quotient, f.num_vars, {exp: project[c] for exp, c in f.terms}
    )


def lift_poly(quotient: QuotientRing, f: Polynomial) -> Polynomial:
    """Representative lift of a quotient-ring polynomial to the parent."""
    if f.ring is not quotient:
        raise ValueError("polynomial does not live in the quotient ring")
    reps = quotient.reps
    return make_poly(
        quotient.parent, f.num_vars, {exp: reps[c] for exp, c in f.terms}
    )


@dataclass(frozen=True)
class QuotientAgreementReport:
    """Bounded two-way transfer between content multiplicativity on R and
    the annihilator-content condition on every proper quotient R/I.

    forward_verified: a multiplicativity counterexample (f, g) on R was
    re-verified to project to an annihilating violation over R/c(fg).
    backward_verified: the first quotient violation found was lifted and
    re-verified as a multiplicativity counterexample on R. agree summarizes
    that the bounded verdicts match in both directions.
    """

    ring: FiniteRing
    num_vars: int
    max_deg: int
    gaussian: SearchOutcome
    rows: tuple[tuple[Ideal, SearchOutcome], ...]
    forward_verified: Optional[bool]
    backward_verified: Optional[bool]

    @property
    def agree(self) -> bool:
        any_found = any(out.found for _, out in self.rows)
        if self.gaussian.found != any_found:
            return False
        if self.forward_verified is False or self.backward_verified is False:
            return False
        return True


def gaussian_iff_armendariz_quotients(
    ring: FiniteRing,
    num_vars: int = 1,
    max_deg: int = 1,
    budget: int = DEFAULT_BUDGET,
    sample: int = DEFAULT_SAMPLE,
    seed: int = 0,
    lattice_cap: int = DEFAULT_LATTICE_CAP,
) -> QuotientAgreementReport:
    """Run the multiplicativity search on R and the annihilator search on
    R/I for every proper ideal I; verify the two transfer constructions."""
    g_out = gaussian_search(ring, num_vars, max_deg, budget, sample, seed)
    rows: list[tuple[Ideal, SearchOutcome]] = []
    quotients: dict[frozenset[int], QuotientRing] = {}
    for ideal in all_ideals(ring, lattice_cap):
        if not ideal.is_proper:
            continue
        q = quotient_by(ideal)
        quotients[ideal.elements] = q
        rows.append(
            (ideal, armendariz_search(q, num_vars, max_deg, budget, sample, seed))
        )

    forward: Optional[bool] = None
    if g_out.found:
        f, g = g_out.witness
        space, _, _, cfg = content_ids(f, g)
        prod_content = space.set_of(cfg)
        q = quotients.get(prod_content)
        forward = False
        if q is not None:
            fq = project_poly(q, f)
            gq = project_poly(q, g)
            space, cf, cg, cfg = content_ids(fq, gq)
            image_zero = cfg == space.zero_id
            nonzero = space.products[cf][cg] != space.zero_id
            row_found = any(
                out.found for ideal, out in rows if ideal.elements == prod_content
            )
            forward = image_zero and nonzero and row_found

    backward: Optional[bool] = None
    for ideal, out in rows:
        if out.found:
            q = quotients[ideal.elements]
            fq, gq = out.witness
            fr = lift_poly(q, fq)
            gr = lift_poly(q, gq)
            space, cf, cg, cfg = content_ids(fr, gr)
            backward = cfg != space.products[cf][cg] and g_out.found
            break

    return QuotientAgreementReport(
        ring=ring,
        num_vars=num_vars,
        max_deg=max_deg,
        gaussian=g_out,
        rows=tuple(rows),
        forward_verified=forward,
        backward_verified=backward,
    )
