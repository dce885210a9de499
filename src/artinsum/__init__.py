"""Exact computer algebra for Artinian local algebras over QQ and GF(p).

Construct fibre products, connected sums, and apolar algebras; compute
socles, Hilbert functions, associated graded rings, and minimal free
resolutions; decompose Gorenstein algebras as connected sums with
presentation-level verification.

Importing the package loads none of its submodules: each public name is
imported from its submodule on its first use (PEP 562) and then kept here.
"""

from importlib import import_module

__version__ = "0.1.0"

# each public name and the submodule that defines it
_SUBMODULE = {name: module for module, names in {
    "decompose": "DecompositionReport certify_indecomposable check_split h2_bound_check "
                 "split_witness structure_decompose",
    "errors": "ArtinsumError",
    "fields": "GF QQ",
    "graded": "associated_graded classify gls_split iarrobino is_gls",
    "grobner": "IdealPresentation buchberger normal_form",
    "parse": "parse_polynomial parse_presentation print_presentation",
    "poly": "Grevlex Polynomial PolyRing",
    "quotient": "ArtinAlgebra Subspace algebra_from_text build_algebra",
    "resolution": "BettiData betti_numbers mu_direct mu_from_betti verify_cs_series "
                  "verify_fp_series verify_mu_formulas verify_socle_quotient",
    "series": "SeriesTrunc",
    "sums": "apolar_algebra apolar_sum_check connected_sum fibre_product modulo_socle "
            "socle_generator",
}.items() for name in names.split()}

__all__ = sorted(_SUBMODULE)


def __getattr__(name):
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_SUBMODULE[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
