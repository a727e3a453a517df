"""omegalab: exact absorbing-degree and content-ideal computations on
finite commutative rings, their polynomial extensions, and the integers.

The public surface re-exports the main entry points of each layer: ring
construction and parsing, the ideal lattice, absorbing-degree scans,
polynomial content checks, the integer leg, and the CLI main.
``poly_add``, ``poly_product``, ``scalar_mul``, ``ideal_sum`` and
``ideal_intersect`` are public helpers kept for library users and tests;
no check calls them.
"""

__version__ = "0.1.0"

from .absorbing import (
    AbsorbingCheck,
    AgreementReport,
    AgreementRow,
    DEFAULT_CAP,
    OmegaResult,
    is_n_absorbing,
    is_strongly_n_absorbing,
    omega,
    omega_agreement_table,
    strong_omega,
)
from .content_checks import (
    BezoutFactorization,
    CertifySweep,
    ContainmentCertificate,
    DmTable,
    PolyOmegaReport,
    QuotientAgreementReport,
    SearchOutcome,
    armendariz_search,
    bezout_factor,
    certify_content_product,
    certify_pair_sweep,
    content_subset_property,
    dm_exponent,
    dm_exponent_table,
    gaussian_iff_armendariz_quotients,
    gaussian_search,
    lift_poly,
    project_poly,
    verify_poly_omega,
)
from .errors import (
    CapExceededError,
    LatticeOverflowError,
    RingConstructionError,
    SpecParseError,
    UnsupportedRingError,
)
from .ideals import (
    DEFAULT_LATTICE_CAP,
    Ideal,
    all_ideals,
    ideal_display,
    ideal_from_generators,
    ideal_intersect,
    ideal_product,
    ideal_radical,
    ideal_spec,
    ideal_sum,
    is_prime,
    is_radical_ideal,
    parse_ideal_spec,
    quotient_by,
    quotient_image,
)
from .integers import (
    IntConjectureReport,
    IntOmegaResult,
    IntPolynomial,
    conjecture_check_int,
    content_int,
    gauss_lemma_check,
    int_poly,
    omega_int,
)
from .polys import (
    Polynomial,
    constant_poly,
    content,
    display_poly,
    make_poly,
    monomials_up_to,
    parse_poly,
    poly_add,
    poly_mul,
    poly_product,
)
from .rings import (
    AxiomReport,
    FiniteRing,
    ProductRing,
    QuotientRing,
    RingElement,
    TableRing,
    TruncatedLocalRing,
    ZmodRing,
    make_product,
    make_quotient,
    make_truncated_local,
    make_zmod,
    parse_ring_spec,
    verify_ring_axioms,
)

__all__ = [name for name in dir() if not name.startswith("_")]
