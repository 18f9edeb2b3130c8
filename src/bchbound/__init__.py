"""Cyclic and BCH codes over finite fields: BCH bounds via the discrete
Fourier (Mattson-Solomon) spectrum, exact minimum distances, and
constructions whose distance provably meets the maximum BCH bound."""

from .bounds import (
    ApparentDistanceReport,
    Certificate,
    apparent_distance_vec,
    certify_equality,
    code_apparent_distance,
)
from .codes import (
    CyclicCode,
    bch_code,
    bose_distance,
    code_from_defining_set,
)
from .errors import BchboundError
from .forge import (
    ConstructionRecord,
    congruence_construct,
    construct_from_divisor,
    construct_from_quotient,
    extend_to_bch,
    find_shift,
    primitive_family,
)
from .galois import FieldSpec, RootOfUnity, build_field, nth_root, root_from_x
from .modring import coset_closure, cyclotomic_cosets
from .polyring import Poly, QuotientPoly, factor_xn, minimal_polynomial
from .spectral import Spectrum, dft, idft, indicator_spectrum, is_rational
from .wtdist import DistanceResult, min_distance

__version__ = "1.0.0"

__all__ = [
    "ApparentDistanceReport", "BchboundError", "Certificate",
    "ConstructionRecord", "CyclicCode", "DistanceResult", "FieldSpec",
    "Poly", "QuotientPoly", "RootOfUnity", "Spectrum",
    "apparent_distance_vec", "bch_code", "bose_distance", "build_field",
    "certify_equality", "code_apparent_distance", "code_from_defining_set",
    "congruence_construct", "construct_from_divisor",
    "construct_from_quotient", "coset_closure",
    "cyclotomic_cosets", "dft", "extend_to_bch", "factor_xn", "find_shift",
    "idft", "indicator_spectrum", "is_rational",
    "min_distance", "minimal_polynomial", "nth_root", "primitive_family",
    "root_from_x",
]
