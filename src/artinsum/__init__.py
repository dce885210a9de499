"""Exact computer algebra for Artinian local algebras over QQ and GF(p).

Construct fibre products, connected sums, and apolar algebras; compute
socles, Hilbert functions, associated graded rings, and minimal free
resolutions; decompose Gorenstein algebras as connected sums with
presentation-level verification.
"""

from .decompose import (DecompositionReport, certify_indecomposable, check_split,
                        h2_bound_check, split_witness, structure_decompose)
from .errors import ArtinsumError
from .fields import GF, QQ
from .graded import associated_graded, classify, gls_split, iarrobino, is_gls
from .grobner import IdealPresentation, buchberger, normal_form
from .parse import parse_polynomial, parse_presentation, print_presentation
from .poly import Grevlex, Polynomial, PolyRing
from .quotient import ArtinAlgebra, Subspace, algebra_from_text, build_algebra
from .resolution import (BettiData, betti_numbers, mu_direct, mu_from_betti,
                         verify_cs_series, verify_fp_series, verify_mu_formulas,
                         verify_socle_quotient)
from .series import SeriesTrunc
from .sums import (apolar_algebra, apolar_sum_check, connected_sum, fibre_product,
                   modulo_socle, socle_generator)

__version__ = "0.1.0"

__all__ = [
    "ArtinAlgebra", "ArtinsumError", "BettiData", "DecompositionReport",
    "GF", "Grevlex", "IdealPresentation", "Polynomial",
    "PolyRing", "QQ", "SeriesTrunc", "Subspace", "algebra_from_text",
    "apolar_algebra", "apolar_sum_check", "associated_graded", "betti_numbers",
    "buchberger", "build_algebra", "certify_indecomposable", "check_split",
    "classify", "connected_sum", "fibre_product", "gls_split",
    "h2_bound_check", "iarrobino", "is_gls", "modulo_socle", "mu_direct",
    "mu_from_betti", "normal_form", "parse_polynomial", "parse_presentation",
    "print_presentation", "socle_generator", "split_witness",
    "structure_decompose", "verify_cs_series", "verify_fp_series",
    "verify_mu_formulas", "verify_socle_quotient",
]
