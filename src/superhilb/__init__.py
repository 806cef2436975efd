"""Exact supercommutative algebra and Hilbert-scheme chart computations
for (1|1)-supercurves, with a Cech-level splitness checker."""

from .charts import (
    Ambient,
    Atlas,
    IdealOnChart,
    SuperChart,
    TransitionMap,
    atlas_from_text,
    atlas_to_text,
    canonicalize,
    compose_rules,
    hilb11_atlas,
    hilb21_atlas,
    invert_transition,
    pi_v_atlas,
    product_ideal,
    transport_point,
    verify_cocycle,
)
from .errors import (
    CertificateError,
    ChartMismatch,
    DuplicateVariable,
    ExponentOverflow,
    ExprSyntaxError,
    HigherOrderTerms,
    InvertibleOddVariable,
    NegativePowerOfNonInvertible,
    NonMonicDivisor,
    NotAUnit,
    NotCanonicalizable,
    NumberTooLong,
    ParityMismatch,
    RankOrderViolation,
    ShapeMismatch,
    SingularReduction,
    SuperAlgebraError,
    TooManyUnknowns,
    UnknownVariable,
)
from .ideals import (
    BasisVector,
    CanonicalIdeal,
    CoordinateChange,
    RawIdeal,
    canonical_pair,
    kernel_witnesses,
    membership,
    raw_to_canonical,
    reduce_to_basis,
    stratification_generators,
    super_divmod,
)
from .localized import LocalizedPoly, substitute_localized
from .matrix import SuperMatrix, left_inverse, matmul, reduce_mod_odd
from .obstruction import (
    CechCochain1,
    LaurentSystem,
    SplitVerdict,
    build_coboundary_system,
    build_full_coboundary_system,
    extract_obstruction,
    is_coboundary,
    solve_laurent_system,
    split_check_11,
    wedge2_degrees,
)
from .parser import (
    RingDecl,
    parse_localized,
    parse_poly,
    parse_ring,
    pretty,
    pretty_localized,
)
from .ring import (
    Parity,
    ParityClass,
    SuperMonomial,
    SuperPoly,
    VarSymbol,
    even,
    invert,
    odd,
)

__all__ = [name for name in dir() if not name.startswith("_")]
