"""Artinian quotient construction, invariants, and annihilator machinery."""

import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from artinsum import (GF, QQ, PolyRing, algebra_from_text, apolar_algebra,
                      associated_graded, build_algebra, connected_sum, fibre_product,
                      gls_split, iarrobino, linalg,
                      modulo_socle, parse_polynomial, parse_presentation, structure_decompose)
from artinsum.errors import (ArtinsumError, NotAnIdealError, NotLocalError,
                             NotZeroDimensionalError, ResourceGuardError, UnitIdealError)
from artinsum.grobner import IdealPresentation, normal_form
from artinsum import _kernels, quotient
from artinsum.quotient import (ArtinAlgebra, kernel_algebra, quotient_algebra,
                               square_zero_algebra, subalgebra)
from artinsum.sums import _apolar_classes

from corpus import pair_corpus, random_dual_poly, random_gorenstein
import oracles
from oracles import (algebra_ideal, annihilator_reference, build_algebra_reference,
                     classes_matrix, dense_struct, echelon_reference, left_kernel_reference,
                     mat_mul, matrix, modulo_socle_reference, monomial_vector,
                     monomial_vector_reference, mult_matrix, multiply,
                     normal_form_table_reference, one_vector, prepared,
                     quotient_algebra_reference, residue_field_algebra, space_rows,
                     sparse_row, sparse_rows, subalgebra_reference, times_reference,
                     typed_table, var_matrices, var_tables_reference, vec_mult_matrix_row,
                     vector, vector_by_products_reference, vector_reference, zeros)

# GF(1048573) is the largest prime below MAX_PRIME
FIELDS = [GF(101), GF(1048573), QQ]


STRETCHED = "field QQ; vars Y Z; ideal Y*Z, Z^2-Y^3"


def test_monomial_quotient():
    A = algebra_from_text("field QQ; vars Y; ideal Y^3")
    assert A.basis == ((0,), (1,), (2,))
    assert A.length == 3


def test_stretched_basis():
    A = algebra_from_text(STRETCHED)
    assert A.length == 5
    assert set(A.basis) == {(0, 0), (1, 0), (0, 1), (2, 0), (0, 2)}


def test_square_zero():
    A = algebra_from_text("field QQ; vars Y Z; ideal Y^2, Z^2, Y*Z")
    assert A.length == 3


def test_length_cross_check():
    # length of the sum of two cubics: 3 + 3 - 2
    A = algebra_from_text("field QQ; vars Y Z; ideal Y*Z, Y^2-Z^2")
    assert A.length == 4


def test_socle_examples():
    A = algebra_from_text("field QQ; vars Y; ideal Y^3")
    assert [str(p) for p in A.socle().lifts()] == ["Y^2"]
    B = algebra_from_text("field QQ; vars Y Z; ideal Y^2, Z^2, Y*Z")
    assert B.type == 2
    assert {str(p) for p in B.socle().lifts()} == {"Y", "Z"}
    C = algebra_from_text(STRETCHED)
    assert C.type == 1
    # y*z = 0 but z*z = y^3 is nonzero, so z is not in the socle
    z = C.element_row(C.ring.var(1))
    assert not C.socle().contains(z)
    assert C.socle().contains(C.element_row(C.ring.var(1) ** 2))


def test_loewy_edim_type_gorenstein():
    A = algebra_from_text("field QQ; vars Y; ideal Y^3")
    assert (A.loewy_length, A.edim, A.type, A.is_gorenstein()) == (2, 1, 1, True)
    B = algebra_from_text(STRETCHED)
    assert (B.loewy_length, B.edim, B.type, B.is_gorenstein()) == (3, 2, 1, True)
    C = algebra_from_text("field QQ; vars Y Z; ideal Y^2, Z^2, Y*Z")
    assert (C.loewy_length, C.edim, C.type, C.is_gorenstein()) == (1, 2, 2, False)


def test_hilbert_functions():
    assert algebra_from_text(STRETCHED).hilbert_function() == (1, 2, 1, 1)
    big = algebra_from_text(
        "field QQ; vars Y1 Y2 Z; ideal Y1*Z, Y2*Z, Y1^2*Y2, Y2^2, Y1^4-Z^4")
    assert big.hilbert_function() == (1, 3, 3, 2, 1)
    assert big.length == 10
    small = algebra_from_text("field QQ; vars Y Z; ideal Y^2, Z^2, Y*Z")
    assert small.hilbert_function() == (1, 2)


def test_hilbert_invariants():
    for text in [STRETCHED, "field QQ; vars Y; ideal Y^4",
                 "field GF(101); vars Y Z; ideal Y^2-Z^3, Y*Z^2"]:
        A = algebra_from_text(text)
        H = A.hilbert_function()
        assert sum(H) == A.length
        assert H[0] == 1
        assert H[1] == A.edim
        assert H[A.loewy_length] >= 1


def test_annihilator_examples():
    A = algebra_from_text(STRETCHED)
    ann2 = A.annihilator(A.power(2).basis.values())
    assert ann2.dim == 3 and ann2.is_ideal()
    lifts = {str(p) for p in ann2.lifts()}
    assert lifts == {"Z", "Y^2", "Z^2"}   # z, y^2, and y^3 = z^2
    z = A.element_row(A.ring.var(1))
    annz = A.annihilator([z])
    assert annz.is_ideal() and annz.dim == 3
    assert {str(p) for p in annz.lifts()} == {"Y", "Y^2", "Z^2"}
    one = A.element_row(A.ring.one)
    ann1 = A.annihilator([one])
    assert ann1.dim == 0
    # no elements annihilate nothing: the annihilator is all of A
    assert A.annihilator([]).dim == A.length


def test_minimal_generators():
    A = algebra_from_text(STRETCHED)
    mu, _ = A.minimal_generators(A.power(1))
    assert mu == 2
    z = A.element_row(A.ring.var(1))
    J = A.ideal_span([z])
    mu_j, reps = A.minimal_generators(J)
    assert mu_j == 1
    # the representatives are monic dict rows: here z itself
    assert [A.lift(row) for row in reps] == [A.ring.var(1)]
    B = algebra_from_text("field QQ; vars Y Z; ideal Y^2, Z^2, Y*Z")
    mu_soc, _ = B.minimal_generators(B.socle())
    assert mu_soc == 2


def test_minimal_generators_rejects_non_ideal():
    A = algebra_from_text(STRETCHED)
    y2 = A.element_row(A.ring.var(0) ** 2)
    # span{y^2} alone is not an ideal here (misses y^3)
    W = A.subspace([y2])
    assert not W.is_ideal()
    with pytest.raises(NotAnIdealError):
        A.minimal_generators(W)


def test_gorenstein_duality_random_ideals():
    rng = random.Random(5)
    A = algebra_from_text("field GF(101); vars Y Z; ideal Y*Z, Z^2-Y^3")
    for _ in range(20):
        values = [rng.randrange(101) for _ in range(A.length)]
        row = {k: x for k, x in enumerate(values) if k and x}  # stay inside m
        if not row:
            continue
        W = A.ideal_span([row])
        ann = A.annihilator(W.basis.values())
        assert ann.dim == A.length - W.dim
        again = A.annihilator(ann.basis.values())
        assert again == W


def test_multiplication_oracle():
    A = algebra_from_text(STRETCHED)
    gb = list(A.gb)
    for i, bi in enumerate(A.basis):
        for j, bj in enumerate(A.basis):
            prod = A.ring.monomial(bi, 1) * A.ring.monomial(bj, 1)
            expected = normal_form(prod, gb)
            ei = np.zeros(A.length, dtype=object)
            ei[:] = [A.field.zero] * A.length
            ei[i] = A.field.one
            got = A.lift(sparse_row(A.field, multiply(A, ei, vector(A, A.ring.monomial(bj, 1)))))
            assert got == expected


def test_minimalization_linear_relation():
    A = algebra_from_text("field QQ; vars Y Z; ideal Y-Z^2, Z^3")
    assert A.ring.names == ("Z",)
    assert A.length == 3
    assert A.edim == 1


def test_minimalization_preserves_invariants():
    # Y + Z^2 + Z^3 can be eliminated; quotient is k[Z]/(Z^4)
    A = algebra_from_text("field QQ; vars Y Z; ideal Y+Z^2+Z^3, Z^4")
    assert A.length == 4
    B = algebra_from_text("field QQ; vars Z; ideal Z^4")
    assert A.hilbert_function() == B.hilbert_function()
    # classes can still be taken of polynomials in the original ring
    ring, _ = parse_presentation("field QQ; vars Y Z; ideal Y")
    y = ring.var(0)
    lifted = A.lift(A.element_row(y))
    assert lifted == parse_polynomial("-Z^2-Z^3", A.ring)
    # format_polynomial lists terms decreasing under the ring's order
    assert str(lifted) == "-Z^3 - Z^2"


def test_nilpotency_bound_taken_once_per_presentation():
    # two linear eliminations (X and Y) leave k[Z]/(Z^5)
    A = algebra_from_text("field QQ; vars X Y Z; ideal Y - Z^2, X - Z^3, Z^5")
    assert (A.ring.names, A.length) == (("Z",), 5)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_prepared_products_match_plain_products(field):
    # the dense reference products: a prepared right factor gives the plain product
    R, S = pair_corpus(3, max_edim=2, max_ll=3, field=field)[2]
    algebras = [residue_field_algebra(field), R, connected_sum(R, S).algebra]
    rng = random.Random(41)
    for A in algebras:
        lam = A.length
        vecs = [zeros(field, lam), one_vector(A)]
        vecs += [matrix(field, [[field.coerce(rng.randint(-4, 4)) for _ in range(lam)]])[0]
                 for _ in range(3)]
        flat = dense_struct(A).reshape(lam, lam * lam)
        for v in vecs:
            assert np.array_equal(mult_matrix(A, v), mat_mul(field, v, flat).reshape(lam, lam))
            assert np.array_equal(mat_mul(field, v, prepared(field, flat)), mat_mul(field, v, flat))
            for i, mx in enumerate(var_matrices(A)):
                assert np.array_equal(vec_mult_matrix_row(A, v, i), mat_mul(field, v, mx))
    assert mult_matrix(algebras[0], one_vector(algebras[0])).tolist() == [[1]]


def test_qq_polynomials_from_arrays_hold_fractions():
    # the echelons behind these hold ints wherever an entry is integral
    text = (Path(__file__).resolve().parent / "golden" / "nonminimal_qq.txt").read_text()
    A = algebra_from_text(text)
    assert A.reduction is not None
    polys = list(A.gb) + list(A.reduction[1])
    polys += A.socle().lifts() + A.power(1).lifts()
    R, S = pair_corpus(3, max_edim=2, max_ll=3, field=QQ)[2]
    Q = connected_sum(R, S).algebra
    polys += list(Q.gb) + list(modulo_socle(Q).gb) + Q.power(2).lifts()
    coefficients = [c for p in polys for c in p.terms.values()]
    assert any(c.denominator == 1 for c in coefficients)
    assert all(type(c) is Fraction for c in coefficients)


def test_qq_structure_tables_hold_an_int_exactly_where_integral():
    # parsed algebras, minimal and not, corpus algebras and their sums; a
    # unit of 2/3 puts non-integral scalars into the connected sum's table
    golden = Path(__file__).resolve().parent / "golden"
    names = ("qq_left.txt", "qq_right.txt", "hidden_sum.txt", "hidden_sum_edim2.txt",
             "nonminimal_qq.txt")
    algebras = [algebra_from_text((golden / name).read_text()) for name in names]
    algebras += [fibre_product(*algebras[:2]).algebra,
                 connected_sum(*algebras[:2], unit=Fraction(2, 3)).algebra]
    for R, S in pair_corpus(3, max_edim=2, max_ll=3, field=QQ):
        algebras += [R, S, fibre_product(R, S).algebra, connected_sum(R, S).algebra]
    types = set()
    for A in algebras:
        scalars = [c for entry in A.struct_table for _, _, c in entry]
        assert all(type(c) is (int if c.denominator == 1 else Fraction) for c in scalars), A
        types.update(map(type, scalars))
    assert types == {int, Fraction}


def test_unit_ideal_rejected():
    with pytest.raises(UnitIdealError):
        algebra_from_text("field QQ; vars Y; ideal Y, Y-1")


def test_not_zero_dimensional_rejected():
    with pytest.raises(NotZeroDimensionalError):
        algebra_from_text("field QQ; vars Y Z; ideal Y*Z")


def test_not_local_rejected():
    with pytest.raises(NotLocalError):
        algebra_from_text("field QQ; vars Y; ideal Y^2-Y")


def test_zero_variable_algebra():
    k = residue_field_algebra(QQ)
    assert k.length == 1
    assert k.loewy_length == 0
    assert k.is_gorenstein()


# -- minimal presentations against the substitution-loop reference ----------

HAND_INPUTS = [
    "vars X Y Z; ideal Y - Z^2, X - Z^3, Z^5",
    "vars Y Z; ideal Y + Z^2 + Z^3, Z^4",
    "vars A B C D; ideal B - C + 1/2*A^2 - D*C, D - 3*A*C + B^2, A^2 - 2/5*C^2, A*C^2, C^3",
    "vars X Y Z; ideal X - Y - Z^2, Y^2 - X*Z, Z^3",
    "vars X Y Z; ideal X, Y, Z^3",
    "vars Y; ideal Y^2 - Y",
    "vars Y Z; ideal Y^2 - Y, Z^2",
    "vars Y; ideal Y^2 - 2*Y + 1",
    "vars Y Z; ideal Y*Z",
    "vars Y; ideal Y, Y - 1",
]


def _hide(A, extra, coeff, perm):
    """A's ideal with `extra` adjoined variables T - h, under an invertible linear change.

    Each h has linear and quadratic parts in the variables before its T.
    The change sends variable v to x[perm[v]] plus a combination of the
    x[perm[j]] with j < v, so it is invertible whatever `coeff()` returns;
    the coefficients are Fractions read in A's field.
    """
    ring = PolyRing(A.field, A.ring.names + tuple(f"T{k + 1}" for k in range(extra)))
    n = ring.nvars
    gens = [g.rename_into(ring) for g in A.gb]
    for k in range(extra):
        before = A.ring.nvars + k
        h = ring.poly({m: coeff() for d in (1, 2) for m in ring.monomials_of_degree(d)
                       if not any(m[before:])})
        gens.append(ring.var(before) - h)
    images = []
    for v in range(n):
        image = ring.var(perm[v])
        for j in range(v):
            image = image + ring.var(perm[j]).scale(A.field.coerce(coeff()))
        images.append(image)
    return IdealPresentation(ring, [g.compose(ring, images) for g in gens])


def _assert_same_algebra(pres, probes):
    fresh = IdealPresentation(pres.ring, list(pres.generators))
    try:
        expected = build_algebra_reference(pres)
    except ArtinsumError as exc:
        with pytest.raises(ArtinsumError) as info:
            build_algebra(fresh)
        assert type(info.value) is type(exc)
        return
    got = build_algebra(fresh)
    assert got.ring == expected.ring and got.original_ring == pres.ring
    assert (got.reduction is None) == (expected.reduction is None)
    assert got.gb == expected.gb
    assert got.basis == expected.basis
    assert typed_table(got.struct_table) == typed_table(expected.struct_table)
    for f in probes:
        assert got.element_row(f) == expected.element_row(f)


def _probes(rng, ring, count=3):
    monos = [m for d in range(4) for m in ring.monomials_of_degree(d)]
    return [ring.poly({monos[rng.randrange(len(monos))]: Fraction(rng.randint(-5, 5),
                                                                   rng.randint(1, 3))
                       for _ in range(4)}) for _ in range(count)]


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_minimal_presentation_matches_reference_on_hand_inputs(field):
    rng = random.Random(4)
    for text in HAND_INPUTS:
        ring, gens = parse_presentation(f"field {field}; {text}")
        _assert_same_algebra(IdealPresentation(ring, gens), _probes(rng, ring))


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_minimal_presentation_matches_reference_on_seeded_inputs(field):
    rng = random.Random(17)

    def coeff():
        return Fraction(rng.randint(-3, 3), rng.randint(1, 2))

    for edim, loewy, extra in ((1, 3, 1), (2, 2, 2), (2, 3, 1), (1, 4, 2), (2, 3, 2),
                               (1, 2, 2), (2, 2, 1), (2, 4, 1)):
        A = random_gorenstein(rng, edim, loewy, "Y", field)
        perm = list(range(edim + extra))
        rng.shuffle(perm)
        pres = _hide(A, extra, coeff, perm)
        _assert_same_algebra(pres, _probes(rng, pres.ring))


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_minimal_presentation_matches_reference_on_hypothesis_inputs(data):
    field = data.draw(st.sampled_from(FIELDS))
    edim, loewy = data.draw(st.sampled_from([(1, 2), (1, 3), (2, 2), (2, 3)]))
    seed = data.draw(st.integers(0, 2 ** 16))
    A = random_gorenstein(random.Random(seed), edim, loewy, "Y", field)
    numerator = st.integers(-3, 3)
    denominator = st.integers(1, 2)

    def coeff():
        return Fraction(data.draw(numerator), data.draw(denominator))

    extra = data.draw(st.integers(1, 2))
    perm = data.draw(st.permutations(range(edim + extra)))
    pres = _hide(A, extra, coeff, perm)
    _assert_same_algebra(pres, _probes(random.Random(seed), pres.ring))


# -- derived algebras read off the echelon, against normal forms and Buchberger

def _assert_same_quotient(got, expected):
    assert got.ring == expected.ring and got.original_ring == expected.original_ring
    assert got.gb == expected.gb
    assert got.basis == expected.basis
    assert typed_table(got.struct_table) == typed_table(expected.struct_table)
    assert typed_table(got.struct_table) == typed_table(normal_form_table_reference(got))
    assert got.reduction == expected.reduction


def _assert_tensor_and_classes(A, probes):
    # the table gathered from the echelon's classes is the readout of the
    # normal-form tensor, scalar types included, and classes taken as
    # products of variable matrices are normal forms
    assert A.basis == tuple(algebra_ideal(A).standard_monomials())
    assert typed_table(A.struct_table) == typed_table(normal_form_table_reference(A))
    for f in probes:
        assert np.array_equal(vector(A, f), vector_reference(A, f))


def _derived_from(R, S):
    """Algebras built from R and S without parsed text: the sum, gr, Q0 and subalgebras."""
    Q = connected_sum(R, S).algebra
    out = [R, S, Q, associated_graded(Q), iarrobino(Q)[1]]
    names = Q.ring.names
    out.append(subalgebra(Q, PolyRing(Q.field, names[:1]), [Q.ring.var(0)]))
    # a coordinate change that keeps m: every variable plus the last one squared
    last = Q.ring.var(len(names) - 1)
    images = [Q.ring.var(i) + last * last for i in range(len(names))]
    out.append(subalgebra(Q, Q.ring, images))
    return Q, out


def _random_extras(rng, A, count=2):
    """Random elements of the maximal ideal of A, some with a linear part."""
    monos = [m for d in range(1, 3) for m in A.ring.monomials_of_degree(d)]
    return [A.ring.poly({monos[rng.randrange(len(monos))]: rng.randint(-4, 4)
                         for _ in range(3)}) for _ in range(count)]


def _assert_quotients_match(rng, A):
    _assert_same_quotient(modulo_socle(A), modulo_socle_reference(A))
    extras = _random_extras(rng, A)
    _assert_same_quotient(quotient_algebra(A, extras), quotient_algebra_reference(A, extras))
    for quotient in (quotient_algebra, quotient_algebra_reference):
        with pytest.raises(UnitIdealError):
            quotient(A, [A.ring.one + extras[0]])


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_echelon_tensors_and_classes_match_normal_forms_on_seeded_pairs(field):
    rng = random.Random(23)
    for R, S in pair_corpus(3, seed=9, max_edim=2, max_ll=3, min_ll=2, field=field):
        _, algebras = _derived_from(R, S)
        for A in algebras:
            _assert_tensor_and_classes(A, _probes(rng, A.ring))


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_quotients_match_buchberger_on_seeded_algebras(field):
    rng = random.Random(29)
    for R, S in pair_corpus(3, seed=19, max_edim=2, max_ll=3, min_ll=2, field=field):
        Q, algebras = _derived_from(R, S)
        for A in (R, Q, algebras[3]):
            _assert_quotients_match(rng, A)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_structure_tables_equal_the_normal_form_readout_on_every_construction(field):
    # each way an algebra is made, from the parsed golden presentations: the
    # table equals the readout of the normal-form tensor, in order and with
    # equal scalar types
    golden = Path(__file__).resolve().parent / "golden"
    R, S, N, H = (algebra_from_text((golden / name).read_text().replace("field QQ",
                                                                        f"field {field}"))
                  for name in ("qq_left.txt", "qq_right.txt", "nonminimal_qq.txt",
                               "hidden_sum.txt"))
    assert N.reduction is not None and H.reduction is None
    split = gls_split(associated_graded(H))
    dual = PolyRing(field, ("w1", "w2"))
    F = parse_polynomial("1/2*w1^3 + w1*w2^2 - 2/3*w2^3", dual)
    algebras = [R, S, N, H, apolar_algebra(F), fibre_product(R, S).algebra,
                connected_sum(R, S, unit=Fraction(2, 3)).algebra, modulo_socle(R),
                quotient_algebra(N, _random_extras(random.Random(5), N)),
                associated_graded(H), iarrobino(H)[1], split.gorenstein_part,
                split.square_zero_part]
    for A in algebras:
        assert typed_table(A.struct_table) == typed_table(normal_form_table_reference(A))


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_non_minimal_kernel_presentation_takes_variable_classes_from_its_basis(field):
    # F depends on w1 + 2*w2 and w3 only, so Ann(F) holds the linear form
    # 2*X1 - X2: X1 is the lead of a linear basis element and not standard
    dual = PolyRing(field, ("w1", "w2", "w3"))
    u = dual.var(0) + dual.var(1).scale(2)
    F = u ** 3 + u * dual.var(2) ** 2 + dual.var(2) ** 3
    ops = PolyRing(field, ("X1", "X2", "X3"))
    monos, classes = _apolar_classes(F, ops)
    rows = left_kernel_reference(field, classes_matrix(field, classes))
    # the kernel's echelon read on all three variables, without eliminating X1
    cols = sorted(range(len(monos)), key=lambda j: ops.order.key(monos[j]), reverse=True)
    gb, basis, classes = quotient._read_echelon(
        ops, dict(enumerate(monos[j] for j in cols)),
        _kernels.basis(sparse_rows(field, rows[:, cols]), field.char))
    assert (1, 0, 0) not in basis
    A = quotient._table_algebra(ops, gb, basis, classes)
    _assert_tensor_and_classes(A, _probes(random.Random(3), ops) + ops.gens())
    minimal = apolar_algebra(F, ops.names)
    assert minimal.ring.names == ("X2", "X3")
    assert np.array_equal(vector(minimal, ops.var(0)), vector_reference(minimal, ops.var(0)))


@pytest.mark.parametrize("text, shapes", [
    ("w1^3 + 3*w1^2*w2 + 3*w1*w2^2 + w2^3", [1, 11]),  # (w1 + w2)^3
    ("w1^3 + w2^3", [])])
def test_kernel_algebra_echelons_its_rows_once(monkeypatch, text, shapes):
    # the left kernel of the classes is the reduced echelon basis, so past
    # the classes' own echelon nothing is echeloned without linear forms;
    # with them, the linear parts' echelon and one echelon of all rows in
    # the elimination order, whose rows led by kept monomials are the kept
    # ideal's echelon and are not echeloned again; `shapes` holds the row
    # counts of the echelons past the first
    recorded, recording = [], [True]
    echelon, table = _kernels.echelon, quotient._table_algebra

    def recording_echelon(rows, p, reduced=False):
        rows = list(rows)
        if recording[0]:
            recorded.append(len(rows))
        return echelon(rows, p, reduced)

    def table_algebra(*args):
        recording[0] = False
        return table(*args)

    dual, ops = PolyRing(QQ, ("w1", "w2")), PolyRing(QQ, ("X1", "X2"))
    monos, classes = _apolar_classes(parse_polynomial(text, dual), ops)
    monkeypatch.setattr(_kernels, "echelon", recording_echelon)
    monkeypatch.setattr(quotient, "_table_algebra", table_algebra)
    kernel_algebra(ops, monos, classes)
    assert recorded == [len({c for row in classes for c in row}), *shapes]


def test_kernel_algebra_guards_its_monomial_count(monkeypatch):
    # the classes are dict rows, one per monomial: the echelon guard is on their count
    ring = PolyRing(QQ, ("X", "Y"))
    monkeypatch.setattr(linalg, "MAX_ECHELON_DIM", 5)
    with pytest.raises(ResourceGuardError) as info:
        square_zero_algebra(ring)
    err = info.value
    assert (err.guard, err.limit, err.value) == ("max_echelon_dim", 5, 6)
    monkeypatch.setattr(linalg, "MAX_ECHELON_DIM", 6)
    assert square_zero_algebra(ring).hilbert_function() == (1, 2)


@st.composite
def _apolar_pairs(draw):
    field = draw(st.sampled_from(FIELDS))
    factors = []
    for prefix in ("Y", "Z"):
        nvars = draw(st.integers(1, 2))
        degree = draw(st.integers(2, 3))
        dual = PolyRing(field, tuple(f"w{prefix}{i}" for i in range(nvars)))
        monos = [m for d in range(1, degree + 1) for m in dual.monomials_of_degree(d)]
        terms = draw(st.dictionaries(st.sampled_from(monos), st.integers(-5, 5), max_size=4))
        terms[draw(st.sampled_from(dual.monomials_of_degree(degree)))] = draw(st.integers(1, 5))
        factors.append(apolar_algebra(dual.poly(terms), tuple(f"{prefix}{i + 1}"
                                                              for i in range(nvars))))
    return factors


@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_apolar_pairs(), st.integers(0, 2 ** 16))
def test_derived_algebras_match_normal_forms_and_buchberger_on_hypothesis_pairs(pair, seed):
    rng = random.Random(seed)
    Q, algebras = _derived_from(*pair)
    for A in algebras:
        _assert_tensor_and_classes(A, _probes(rng, A.ring, count=2))
    _assert_quotients_match(rng, Q)


# -- apolar algebras of forms in fewer linear forms than dual variables -------

def _form_in_fewer_linear_forms(G, nvars, coeffs, perm):
    """G(l_1, .., l_k) in `nvars` > k dual variables, with independent linear forms.

    l_i is w_perm[i] plus coeffs[i][j] * w_perm[k + j], so F depends on k
    linear forms only and Ann(F) holds nvars - k independent linear forms.
    """
    k = G.ring.nvars
    dual = PolyRing(G.ring.field, tuple(f"w{i + 1}" for i in range(nvars)))
    forms = [dual.var(perm[i]) + sum((dual.var(perm[k + j]).scale(c)
                                      for j, c in enumerate(coeffs[i])), dual.zero)
             for i in range(k)]
    return G.compose(dual, forms)


def _assert_apolar_matches_reference(F, probes):
    got = apolar_algebra(F)
    ops = got.original_ring
    monos, classes = _apolar_classes(F, ops)
    rows = left_kernel_reference(ops.field, classes_matrix(ops.field, classes))
    kernel = [ops.poly(dict(zip(monos, row))) for row in rows.tolist()]
    expected = build_algebra_reference(IdealPresentation(ops, kernel))
    assert got.ring == expected.ring and got.ring.nvars < ops.nvars
    assert got.gb == expected.gb
    assert got.basis == expected.basis
    assert typed_table(got.struct_table) == typed_table(expected.struct_table)
    # one step to the kept ring: each variable goes to the lift of its class
    ring, images = got.reduction
    assert ring == expected.ring
    assert images == [expected.lift(sparse_row(ops.field, vector_reference(expected, x)))
                      for x in ops.gens()]
    for f in probes + ops.gens():
        assert np.array_equal(vector(got, f), vector_reference(expected, f))


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_apolar_algebra_of_a_form_in_fewer_linear_forms_matches_reference(field):
    rng = random.Random(41)
    for nvars, k, degree in ((2, 1, 3), (3, 1, 4), (3, 2, 3), (3, 2, 2)):
        G = random_dual_poly(rng, PolyRing(field, tuple(f"u{i + 1}" for i in range(k))), degree)
        coeffs = [[rng.randint(-3, 3) for _ in range(nvars - k)] for _ in range(k)]
        perm = rng.sample(range(nvars), nvars)
        F = _form_in_fewer_linear_forms(G, nvars, coeffs, perm)
        ops = PolyRing(field, tuple(f"X{i + 1}" for i in range(nvars)))
        _assert_apolar_matches_reference(F, _probes(rng, ops))


@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_apolar_algebra_of_a_form_in_fewer_linear_forms_matches_reference_on_hypothesis_inputs(
        data):
    field = data.draw(st.sampled_from(FIELDS))
    nvars = data.draw(st.integers(2, 3))
    k = data.draw(st.integers(1, nvars - 1))
    degree = data.draw(st.integers(2, 3))
    ring = PolyRing(field, tuple(f"u{i + 1}" for i in range(k)))
    monos = [m for d in range(1, degree + 1) for m in ring.monomials_of_degree(d)]
    terms = data.draw(st.dictionaries(st.sampled_from(monos), st.integers(-3, 3), max_size=3))
    terms[data.draw(st.sampled_from(ring.monomials_of_degree(degree)))] = data.draw(
        st.integers(1, 3))
    coeffs = [[data.draw(st.integers(-3, 3)) for _ in range(nvars - k)] for _ in range(k)]
    perm = data.draw(st.permutations(range(nvars)))
    F = _form_in_fewer_linear_forms(ring.poly(terms), nvars, coeffs, perm)
    seed = data.draw(st.integers(0, 2 ** 16))
    ops = PolyRing(field, tuple(f"X{i + 1}" for i in range(nvars)))
    _assert_apolar_matches_reference(F, _probes(random.Random(seed), ops))


# -- m*W on dict rows against the dense products ------------------------------

def _assert_m_times_matches_dense_products(A, W):
    products = [mat_mul(A.field, space_rows(W), mx) for mx in var_matrices(A)]
    rows, pivots = echelon_reference(A.field, np.vstack([zeros(A.field, (0, A.length)),
                                                         *products]))
    got = A.m_times(W)
    assert list(got.basis) == pivots.tolist()
    assert space_rows(got).dtype == rows.dtype and np.array_equal(space_rows(got), rows)


def _non_minimal_table_algebra(monkeypatch, field):
    """nonminimal_qq.txt over `field`, as `build_algebra` builds it before minimising.

    B and D lead linear elements of its reduced basis, so their classes,
    and their products, come from linear tails.
    """
    text = (Path(__file__).resolve().parent / "golden" / "nonminimal_qq.txt").read_text()
    monkeypatch.setattr(quotient, "subalgebra", lambda A, ring, images: A)
    A = build_algebra(*parse_presentation(text.replace("field QQ", f"field {field}")))
    assert A.ring.nvars == 4 and A.hilbert_function()[1] == 2
    return A


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_m_times_matches_dense_products_on_seeded_algebras(monkeypatch, field):
    algebras = [residue_field_algebra(field)]
    for R, S in pair_corpus(3, seed=31, max_edim=3, max_ll=4, min_ll=2, field=field):
        algebras += [R, S, connected_sum(R, S).algebra]
    algebras.append(_non_minimal_table_algebra(monkeypatch, field))
    for A in algebras:
        for W in (*A.filtration, A.annihilator(A.power(2).basis.values())):
            _assert_m_times_matches_dense_products(A, W)


@lru_cache(maxsize=None)
def _m_times_corpus(field):
    R, S = pair_corpus(1, seed=37, max_edim=3, max_ll=4, min_ll=2, field=field)[0]
    return R, connected_sum(R, S).algebra


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_m_times_matches_dense_products_on_hypothesis_subspaces(data):
    field = data.draw(st.sampled_from(FIELDS))
    A = _m_times_corpus(field)[data.draw(st.integers(0, 1))]
    count = data.draw(st.integers(0, 3))
    entries = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 3))
    rows = [[field.coerce(x) for x in data.draw(st.lists(entries, min_size=A.length,
                                                          max_size=A.length))]
            for _ in range(count)]
    _assert_m_times_matches_dense_products(
        A, A.subspace(sparse_rows(field, matrix(field, rows, width=A.length))))


# -- one product pass per row against the per-variable reference ---------------

def _product_multiset(rows):
    return Counter(tuple(sorted(row.items())) for row in rows)


def _assert_times_matches_per_variable_reference(A, rows, order):
    lam, p = A.length, A.field.char
    got = list(quotient._times(rows, A.times_table, lam, p, order))
    want = [prod for row in rows for table in var_tables_reference(A)
            if (prod := times_reference(row, table, lam, p, order))]
    assert all(got), "a product row is empty"
    assert _product_multiset(got) == _product_multiset(want)


def _random_rows(rng, field, blocks, lam):
    """Single-entry rows, rows inside one block and rows across blocks, nonzero entries."""
    def scalar():
        if field == QQ:
            return field.coerce(Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3)))
        return rng.randrange(1, field.p)
    width = blocks * lam
    rows = [{c: scalar()} for c in rng.sample(range(width), min(width, 4))]
    for _ in range(4):
        base = rng.randrange(blocks) * lam
        rows.append({base + j: scalar() for j in rng.sample(range(lam), rng.randint(1, lam))})
        rows.append({c: scalar() for c in rng.sample(range(width), rng.randint(1, width))})
    return rows


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_times_matches_the_per_variable_products_on_seeded_algebras(monkeypatch, field):
    rng = random.Random(43)
    algebras = [residue_field_algebra(field)]
    for R, S in pair_corpus(3, seed=31, max_edim=3, max_ll=4, min_ll=2, field=field):
        algebras += [R, S, connected_sum(R, S).algebra, fibre_product(R, S).algebra]
    algebras.append(_non_minimal_table_algebra(monkeypatch, field))
    for A in algebras:
        lam = A.length
        for W in A.filtration:
            _assert_times_matches_per_variable_reference(A, list(W.basis.values()), range(lam))
        for blocks in (1, 3):
            order = rng.sample(range(blocks * lam), blocks * lam)
            rows = _random_rows(rng, field, blocks, lam)
            _assert_times_matches_per_variable_reference(A, rows, order)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_times_matches_the_per_variable_products_on_hypothesis_rows(data):
    field = data.draw(st.sampled_from(FIELDS))
    A = _m_times_corpus(field)[data.draw(st.integers(0, 1))]
    lam = A.length
    blocks = data.draw(st.integers(1, 3))
    if field == QQ:
        scalars = st.builds(Fraction, st.integers(1, 5) | st.integers(-5, -1), st.integers(1, 3))
    else:
        scalars = st.integers(1, field.p - 1)
    entries = st.dictionaries(st.integers(0, blocks * lam - 1), scalars, min_size=1, max_size=6)
    rows = data.draw(st.lists(entries, max_size=6))
    order = data.draw(st.permutations(range(blocks * lam)))
    _assert_times_matches_per_variable_reference(A, rows, order)


# -- classes and products by elements on dict rows against the dense products --

def _table_matrix(A, table, count):
    """A product table written out: row l, block v holds e_l times element v."""
    out = zeros(A.field, (A.length, count * A.length))
    for l, entry in enumerate(table):
        for v, j, c in entry:
            out[l, v * A.length + j] = c
    return out


def _assert_same_rows(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape and np.array_equal(got, want)


def _assert_classes_match_dense_products(A, probes):
    for m in quotient._monomials_up_to(A.ring, A.loewy_length + 1):
        _assert_same_rows(monomial_vector(A, m), monomial_vector_reference(A, m))
    for f in probes:
        _assert_same_rows(vector(A, f), vector_by_products_reference(A, f))


def _assert_element_products_match_dense_products(A, elements):
    rows = sparse_rows(A.field, matrix(A.field, elements, width=A.length))
    got = _table_matrix(A, A.product_table(rows), len(rows))
    want = np.hstack([zeros(A.field, (A.length, 0)),
                      *(mult_matrix(A, np.asarray(v)) for v in elements)])
    _assert_same_rows(got, want)
    for W in (A.power(1), A.power(2), A.socle()):
        # the span of W times the elements, and the annihilator of the elements
        products = [mat_mul(A.field, space_rows(W), mult_matrix(A, np.asarray(v)))
                    for v in elements]
        span, pivots = echelon_reference(A.field, np.vstack([zeros(A.field, (0, A.length)),
                                                             *products]))
        product = A.span_times(W, A.product_table(rows))
        assert list(product.basis) == pivots.tolist()
        _assert_same_rows(space_rows(product), span)
    ann, pivots = annihilator_reference(A, elements)
    got = A.annihilator(rows)
    assert list(got.basis) == pivots.tolist()
    _assert_same_rows(space_rows(got), ann)


def _random_elements(rng, A, count=3):
    """The zero element, 1, a multiple of one basis element and random elements."""
    field = A.field
    single = zeros(field, A.length)
    single[rng.randrange(A.length)] = field.coerce(Fraction(-3, 2))
    vecs = [zeros(field, A.length), one_vector(A), single]
    vecs += [matrix(field, [[field.coerce(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
                                    for _ in range(A.length)]])[0] for _ in range(count)]
    return vecs


def _product_corpus(monkeypatch, field):
    algebras = [residue_field_algebra(field), _non_minimal_table_algebra(monkeypatch, field)]
    for R, S in pair_corpus(2, seed=53, max_edim=3, max_ll=4, min_ll=2, field=field):
        Q, derived = _derived_from(R, S)
        algebras += [*derived, fibre_product(R, S).algebra]
    return algebras


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_classes_and_vectors_match_the_dense_products_on_seeded_algebras(monkeypatch, field):
    rng = random.Random(59)
    for A in _product_corpus(monkeypatch, field):
        _assert_classes_match_dense_products(A, _probes(rng, A.original_ring))


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_element_products_and_annihilators_match_the_dense_products_on_seeded_algebras(
        monkeypatch, field):
    rng = random.Random(61)
    for A in _product_corpus(monkeypatch, field):
        vecs = _random_elements(rng, A)
        for elements in ([], vecs[:1], vecs[1:2], vecs[2:3], vecs[3:], vecs):
            _assert_element_products_match_dense_products(A, elements)
        # the socle is the annihilator of the variables' classes
        ann, pivots = echelon_reference(A.field, left_kernel_reference(
            A.field, np.hstack([zeros(A.field, (A.length, 0)), *var_matrices(A)])))
        assert list(A.socle().basis) == pivots.tolist()
        _assert_same_rows(space_rows(A.socle()), ann)


def _assert_subalgebra_matches_dense_classes(Q, ring, images):
    got, want = subalgebra(Q, ring, images), subalgebra_reference(Q, ring, images)
    assert got.same_presentation(want) and got.basis == want.basis
    assert typed_table(got.struct_table) == typed_table(want.struct_table)
    assert got.reduction == want.reduction


def _subalgebra_images(rng, Q):
    """Images of a subset of the variables, each one variable plus a random quadric."""
    names = Q.ring.names
    keep = sorted(rng.sample(range(len(names)), rng.randint(1, len(names))))
    quadrics = Q.ring.monomials_of_degree(2)
    images = [Q.ring.var(i) + Q.ring.poly({rng.choice(quadrics): rng.randint(-3, 3)})
              for i in keep]
    return PolyRing(Q.field, [names[i] for i in keep]), images


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_subalgebras_match_the_dense_classes_on_seeded_algebras(field):
    rng = random.Random(67)
    for R, S in pair_corpus(3, seed=71, max_edim=3, max_ll=4, min_ll=2, field=field):
        Q = connected_sum(R, S).algebra
        for _ in range(3):
            _assert_subalgebra_matches_dense_classes(Q, *_subalgebra_images(rng, Q))
        # a coordinate change that keeps m, and a variable that becomes dependent
        last = Q.ring.var(Q.ring.nvars - 1)
        _assert_subalgebra_matches_dense_classes(
            Q, Q.ring, [Q.ring.var(i) + last * last for i in range(Q.ring.nvars)])
        _assert_subalgebra_matches_dense_classes(
            Q, PolyRing(field, ("U", "V")), [Q.ring.var(0), Q.ring.var(0) * Q.ring.var(0)])


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_classes_products_and_subalgebras_match_the_dense_products_on_hypothesis_inputs(data):
    field = data.draw(st.sampled_from(FIELDS))
    A = _m_times_corpus(field)[data.draw(st.integers(0, 1))]
    entries = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 3))
    count = data.draw(st.integers(0, 3))
    elements = [matrix(field, [[field.coerce(x) for x in data.draw(
        st.lists(entries, min_size=A.length, max_size=A.length))]])[0] for _ in range(count)]
    _assert_element_products_match_dense_products(A, elements)
    rng = random.Random(data.draw(st.integers(0, 2 ** 16)))
    _assert_classes_match_dense_products(A, _probes(rng, A.ring, count=2))
    _assert_subalgebra_matches_dense_classes(A, *_subalgebra_images(rng, A))


def test_structure_decompose_makes_no_dense_product(monkeypatch):
    # the decompose flow multiplies on dict rows only (`quotient._times`, whose
    # tables `product_table` reads off the tensor), and its elements are dict
    # rows: the dense reference products and dense writers, put back where
    # the library kept them, are never called
    calls = Counter()

    def counting(name, function):
        def wrapped(*args):
            calls[name] += 1
            return function(*args)
        return wrapped

    for name in ("mat_mul", "prepared", "zeros", "matrix", "dense", "sparse_rows"):
        monkeypatch.setattr(linalg, name, counting(name, getattr(oracles, name)), raising=False)
    for name in ("mult_matrix", "multiply", "vec_mult_matrix_row", "vector",
                 "monomial_vector", "one_vector"):
        monkeypatch.setattr(ArtinAlgebra, name, counting(name, getattr(oracles, name)),
                            raising=False)
    monkeypatch.setattr(quotient, "_times", counting("_times", quotient._times))
    golden = Path(__file__).resolve().parent / "golden"
    for name in ("hidden_sum_edim2.txt", "hidden_sum_gf1048573.txt"):
        report = structure_decompose(algebra_from_text((golden / name).read_text()))
        assert report.status == "decomposed" and not report.trivial
    assert calls.pop("_times") > 0
    assert not calls

