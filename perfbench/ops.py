"""The three workloads: what one op runs, what it prepares untimed, how it is checked.

Every op parses its own text and builds its own algebras, so no
``ArtinAlgebra`` or ``IdealPresentation`` (and none of their Groebner,
normal-form or Betti caches) outlives the op.  Library functions are looked
up on the ``artinsum`` package at call time, so the traced run sees the
wrapped versions.  The checks follow from how each input was constructed,
not from stored outputs.
"""

from dataclasses import dataclass

import artinsum
from artinsum import GF, QQ, PolyRing

from inputs import GF_P, POINCARE_TRUNCATION

GF101 = GF(GF_P)


def _algebra(field, names, text, prefix):
    F = artinsum.parse_polynomial(text, PolyRing(field, names))
    return artinsum.apolar_algebra(F, [f"{prefix}{i + 1}" for i in range(len(names))])


def _factors(op):
    (f_names, f_text), (g_names, g_text) = op.duals
    return _algebra(GF101, f_names, f_text, "Y"), _algebra(GF101, g_names, g_text, "Z")


def _factor_checks(op, R, S):
    return ((R.edim, S.edim) == tuple(op.expect["edims"])
            and (R.loewy_length, S.loewy_length) == tuple(op.expect["degrees"])
            and R.is_gorenstein() and S.is_gorenstein())


# -- sums: apolar algebras, connected sum, fibre product over GF(101) ---------

def sums_run(op, prepared):
    R, S = _factors(op)
    Q = artinsum.connected_sum(R, S).algebra
    P = artinsum.fibre_product(R, S).algebra
    return R, S, Q, P


def sums_check(op, result):
    R, S, Q, P = result
    return (_factor_checks(op, R, S)
            and Q.is_gorenstein()
            and Q.length == R.length + S.length - 2
            and Q.edim == R.edim + S.edim
            and P.length == R.length + S.length - 1
            and P.edim == R.edim + S.edim
            and P.type == R.type + S.type
            and artinsum.h2_bound_check(R, S, Q))


# -- poincare: the series identities on prebuilt R, S, Q, P -------------------

def poincare_prepare(op):
    R, S = _factors(op)
    return R, S, artinsum.connected_sum(R, S).algebra, artinsum.fibre_product(R, S).algebra


def poincare_run(op, prepared):
    R, S, Q, P = prepared
    return (artinsum.verify_cs_series(R, S, Q, POINCARE_TRUNCATION),
            artinsum.verify_fp_series(R, S, P, POINCARE_TRUNCATION))


def poincare_check(op, result):
    cs, fp = result
    return cs.holds and fp.holds


# -- decompose_qq: the CLI decompose flow over QQ ---------------------------------

def decompose_run(op, prepared):
    ((names, text),) = op.duals
    Q = _algebra(QQ, names, text, "X")
    certs = artinsum.certify_indecomposable(Q)
    if certs:
        return Q, "indecomposable-certified", certs, None
    if Q.loewy_length < 3:
        return Q, "inconclusive", certs, None
    report = artinsum.structure_decompose(Q)
    return Q, report.status, report.certificates, report


def decompose_check(op, result):
    Q, status, certs, report = result
    expect = op.expect
    if status != expect["status"] or Q.length != expect["length"]:
        return False
    if status == "indecomposable-certified":
        return expect["certificate"] in [c.name for c in certs]
    lengths = sorted(A.length for A in report.components)
    return (not report.trivial
            and report.verified_identities
            and all(flag for _, flag in report.verified_identities)
            and sum(lengths) == Q.length + 2
            and lengths == expect["component_lengths"])


@dataclass(frozen=True)
class Workload:
    run: object
    check: object
    prepare: object = None


WORKLOADS = {
    "sums": Workload(sums_run, sums_check),
    "poincare": Workload(poincare_run, poincare_check, poincare_prepare),
    "decompose_qq": Workload(decompose_run, decompose_check),
}
