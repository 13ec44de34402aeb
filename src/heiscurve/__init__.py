"""Exact arithmetic for Heisenberg-group covers of the projective line.

Subpackages:

* heisenberg -- the finite group of 3x3 unitriangular matrices mod n
* words      -- freely reduced words in rank-2 free groups and the lifting
                criterion for the degree-6 symmetry endomorphisms
* covers     -- Riemann-Hurwitz genus bookkeeping, signatures, audits
* quadfield  -- exact arithmetic in imaginary quadratic fields
* elliptic   -- curves over Q(sqrt d): 3-torsion, 3-isogenies, j-invariants
* errors     -- HeiscurveError, the base of every mathematical error
* cli        -- the `heiscurve` command-line tool
"""

from types import ModuleType as _ModuleType

from .covers import (
    GroupAxiomFailure,
    PointClass,
    RamificationData,
    Verdict,
    audit_signature_claims,
    b3,
    b4,
    build_fermat_aut,
    cover_ramification,
    fermat_genus,
    heisenberg_genus,
    m_bound,
    modular_aut_order,
    ramification_defect,
    rh_genus,
    signature_consistency,
    stabilizer_generator,
)
from .elliptic import (
    Classification,
    Cubic,
    Curve,
    Point,
    aut0_order,
    classify_pair,
    derive_isogenous_curves,
    division_poly_3,
    fermat_cubic_weierstrass,
    hessian,
    j_invariant,
    point_add,
    scalar_mul,
    three_torsion,
    velu3,
    velu3_map,
)
from .errors import HeiscurveError
from .heisenberg import HeisenbergElement, commutator, enumerate_group
from .quadfield import FieldMismatch, QuadNum, find_field_roots, zeta3
from .words import (
    Endo,
    S3_ENDOS,
    Word,
    commutator_conjugacy_witness,
    eval_in_abelianization,
    eval_in_heisenberg,
    in_abelianized_kernel,
    in_heisenberg_kernel,
    lifts_to_heisenberg_cover,
)

# the public classes, functions and S3_ENDOS; not the submodules
__all__ = [name for name in dir() if not name.startswith("_")
           and not isinstance(globals()[name], _ModuleType)]
__version__ = "0.1.0"
