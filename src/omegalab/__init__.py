"""omegalab: exact absorbing-degree and content-ideal computations on
finite commutative rings, their polynomial extensions, and the integers.

The public surface re-exports the entry points that the checks and
campaigns run, layer by layer: ring construction and spec parsing, the
ideal lattice, absorbing-degree scans, polynomial content checks and the
integer leg. Ring elements are named only by their index.
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
    ideal_radical,
    ideal_spec,
    is_radical_ideal,
    parse_ideal_spec,
    quotient_by,
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
    poly_mul,
)
from .rings import (
    AxiomReport,
    FiniteRing,
    ProductRing,
    QuotientRing,
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
