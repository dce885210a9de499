"""Artinian quotient construction, invariants, and annihilator machinery."""

import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from artinsum import (GF, QQ, PolyRing, algebra_from_text, apolar_algebra,
                      associated_graded, build_algebra, connected_sum, fibre_product,
                      gls_split, iarrobino, is_gls, linalg,
                      modulo_socle, parse_polynomial, parse_presentation, structure_decompose)
from artinsum.errors import (ArtinsumError, NotAnIdealError, NotLocalError,
                             NotZeroDimensionalError, ParseError, ResourceGuardError,
                             UnitIdealError)
from artinsum.grobner import IdealPresentation, normal_form
from artinsum import _kernels, graded, quotient, sums
from artinsum.quotient import ArtinAlgebra, kernel_algebra, quotient_algebra, subalgebra
from artinsum.sums import _apolar_classes

from corpus import pair_corpus, random_dual_poly, random_gorenstein
import oracles
from oracles import (algebra_ideal, annihilator_reference, build_algebra_reference,
                     classes_matrix, dense_struct, echelon_reference, left_kernel_reference,
                     ideal_span_reference, mat_mul, matrix, modulo_socle_reference,
                     is_canonical_row, monomial_vector,
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


def test_repr_names_the_ring_and_length_and_builds_no_basis():
    A = algebra_from_text(STRETCHED)
    assert repr(A) == "<algebra QQ[Y, Z], dim 5>"
    assert "gb" not in vars(A)


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


def test_not_local_rejected(monkeypatch):
    messages = []
    for ideal in ("Y^2-Y", "Y^2-1"):
        with pytest.raises(NotLocalError) as got:
            algebra_from_text(f"field QQ; vars Y; ideal {ideal}")
        messages.append(str(got.value))
    assert messages[1] == "the quotient is not local: m^1 stopped shrinking at dimension 2"
    # the m*W loop stops at the same power with the same message
    monkeypatch.setattr(ArtinAlgebra, "_build_filtration", _reference_filtration)
    for ideal, message in zip(("Y^2-Y", "Y^2-1"), messages):
        with pytest.raises(NotLocalError) as want:
            algebra_from_text(f"field QQ; vars Y; ideal {ideal}")
        assert str(want.value) == message


def _reference_filtration(A):
    A.filtration = oracles.filtration_reference(A)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_filtration_matches_the_m_times_reference(field):
    golden = Path(__file__).resolve().parent / "golden"
    algebras = [algebra_from_text((golden / name).read_text().replace("field QQ", f"field {field}"))
                for name in ("hidden_sum.txt", "hidden_sum_edim2.txt", "nonminimal_qq.txt",
                             "ci_qq.txt")]
    for R, S in pair_corpus(3, seed=41, min_ll=2, field=field):
        Q = connected_sum(R, S).algebra
        algebras += [R, S, fibre_product(R, S).algebra, Q, associated_graded(Q),
                     iarrobino(Q)[1], modulo_socle(Q)]
    assert sum(not all(g.is_homogeneous() for g in A.gb) for A in algebras) >= 6
    for A in algebras:
        want = oracles.filtration_reference(A)
        assert [list(W.basis.items()) for W in A.filtration] == \
            [list(W.basis.items()) for W in want]


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_same_presentation_agrees_with_comparing_reduced_bases(field):
    golden = Path(__file__).resolve().parent / "golden"
    algebras = []
    for path in sorted(golden.glob("*.txt")):
        text = path.read_text().replace("field QQ;", f"field {field};")
        if f"field {field};" not in text:
            continue
        try:
            A = algebra_from_text(text)
        except (ParseError, NotLocalError):
            # the goldens of rejected input: four parse errors and a non-local ideal
            continue
        algebras += [A, associated_graded(A)]
    for R, S in pair_corpus(3, seed=97, max_edim=2, max_ll=3, min_ll=2, field=field):
        # connected sums that differ only in their unit share a ring and a basis
        sums = [connected_sum(R, S, unit=unit).algebra for unit in (1, 2, 3)]
        algebras += [R, S, fibre_product(R, S).algebra, *sums, modulo_socle(sums[0])]
    # each again, from its reduced basis by Buchberger: equal, and another object
    algebras += [build_algebra(A.ring, list(A.gb)) for A in algebras]
    seen = Counter()
    for A, B in product(algebras, repeat=2):
        same = (A.ring, A.gb) == (B.ring, B.gb)
        assert A.same_presentation(B) == same
        seen[same, A.ring == B.ring and A.basis == B.basis] += 1
    # each with itself, and each with its rebuilt twin both ways
    assert seen[True, True] >= 2 * len(algebras)
    assert seen[False, True] >= 3 * 6


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
    try:
        expected = build_algebra_reference(pres)
    except ArtinsumError as exc:
        with pytest.raises(ArtinsumError) as info:
            build_algebra(pres.ring, list(pres.generators))
        assert type(info.value) is type(exc)
        return
    got = build_algebra(pres.ring, list(pres.generators))
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


# presentations whose reduced basis has a linear element x_v - l
LINEAR_LEADS = [
    "vars X Y Z; ideal X - 2*Y, Y^3, Z^2 - Y^2, Y*Z",
    "vars X Y Z; ideal Y - 3*Z, X^3, Z^2 - X^2, X*Z",
    "vars X Y Z W; ideal W - 3*Z + 5*Y, X^3, Z^2 - X^2, X*Z, Y - 2*X - Z^2",
    "vars X Y Z; ideal X - Y - Z, Y^2, Z^2",
]


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_linear_leads_match_reference(field):
    rng = random.Random(8)
    for text in LINEAR_LEADS:
        ring, gens = parse_presentation(f"field {field}; {text}")
        pres = IdealPresentation(ring, gens)
        assert any(g.total_degree() == 1 for g in pres.groebner_basis())
        _assert_same_algebra(pres, _probes(rng, ring))


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


def _quotient_by(A, polys):
    """A modulo the ideal the polynomials generate, passed to `quotient_algebra` for each degree."""
    J = A.ideal_span([A.element_row(f) for f in polys])
    return quotient_algebra(A, [J] * (A.loewy_length + 2))


def _assert_quotients_match(rng, A):
    _assert_same_quotient(modulo_socle(A), modulo_socle_reference(A))
    extras = _random_extras(rng, A)
    _assert_same_quotient(_quotient_by(A, extras), quotient_algebra_reference(A, extras))
    for quotient in (_quotient_by, quotient_algebra_reference):
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
                _quotient_by(N, _random_extras(random.Random(5), N)),
                associated_graded(H), iarrobino(H)[1], split.gorenstein_part,
                split.square_zero_part]
    for A in algebras:
        assert typed_table(A.struct_table) == typed_table(normal_form_table_reference(A))


@pytest.mark.parametrize("text, shapes", [
    ("w1^3 + 3*w1^2*w2 + 3*w1*w2^2 + w2^3", [1, 10, 10]),  # (w1 + w2)^3
    ("w1^3 + w2^3", [])])
def test_kernel_algebra_echelons_its_rows_once(monkeypatch, text, shapes):
    # the left kernel of the classes is the reduced echelon basis, so past
    # the classes' own echelon nothing is echeloned without linear forms;
    # with them, X1 - X2 eliminates X1: the linear parts' echelon, the left
    # kernel of the classes of the kept monomials 1, X2, ..., X2^4 (the
    # call on the kept ring) and that of the standard monomials' classes
    # followed by X1's, which gives its image; no kernel row is echeloned
    # again.  `shapes` holds the row counts of the echelons past the first;
    # both algebras are graded, so their constructors echelon nothing
    recorded, echelon = [], _kernels.echelon

    def recording_echelon(rows, p, reduced=False):
        rows = list(rows)
        recorded.append(len(rows))
        return echelon(rows, p, reduced)

    dual, ops = PolyRing(QQ, ("w1", "w2")), PolyRing(QQ, ("X1", "X2"))
    monos, classes = _apolar_classes(parse_polynomial(text, dual), ops)
    monkeypatch.setattr(_kernels, "echelon", recording_echelon)
    kernel_algebra(ops, sum(monos[-1]), classes)
    assert recorded == [len({c for row in classes for c in row}), *shapes]


def test_kernel_algebra_guards_its_monomial_count(monkeypatch):
    # the classes are dict rows, one per monomial: the echelon guard is on their count
    # the classes of k[X, Y]/m^2: 1, Y and X are independent, and the quadrics are 0
    ring = PolyRing(QQ, ("X", "Y"))
    classes = [{0: 1}, {1: 1}, {2: 1}, {}, {}, {}]
    monkeypatch.setattr(quotient, "MAX_ECHELON_DIM", 5)
    with pytest.raises(ResourceGuardError) as info:
        kernel_algebra(ring, 2, classes)
    err = info.value
    assert (err.guard, err.limit, err.value) == ("max_echelon_dim", 5, 6)
    monkeypatch.setattr(quotient, "MAX_ECHELON_DIM", 6)
    assert kernel_algebra(ring, 2, classes).hilbert_function() == (1, 2)


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


def _nonminimal_algebra(field):
    """nonminimal_qq.txt over `field`: four variables given, two of them minimally generating m.

    Its reduced basis is not homogeneous, and its classes of polynomials in
    the given ring go through one substitution.
    """
    text = (Path(__file__).resolve().parent / "golden" / "nonminimal_qq.txt").read_text()
    A = build_algebra(*parse_presentation(text.replace("field QQ", f"field {field}")))
    assert A.original_ring.nvars == 4 and A.ring.nvars == A.hilbert_function()[1] == 2
    return A


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_m_times_matches_dense_products_on_seeded_algebras(field):
    algebras = [residue_field_algebra(field)]
    for R, S in pair_corpus(3, seed=31, max_edim=3, max_ll=4, min_ll=2, field=field):
        algebras += [R, S, connected_sum(R, S).algebra]
    algebras.append(_nonminimal_algebra(field))
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
    before = [dict(row) for row in rows]
    got = list(quotient._times(rows, A.times_table, lam, p, order))
    assert rows == before, "a caller row changed"
    want = [prod for row in rows for table in var_tables_reference(A)
            if (prod := times_reference(row, table, lam, p, order))]
    assert all(got), "a product row is empty"
    assert all(is_canonical_row(prod, p) for prod in got)
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


@pytest.mark.parametrize("field", [GF(7), *FIELDS], ids=repr)
def test_times_matches_the_per_variable_products_on_seeded_algebras(field):
    # over GF(7) most products c*s are past p, and many sums cancel
    rng = random.Random(43)
    algebras = [residue_field_algebra(field)]
    for R, S in pair_corpus(3, seed=31, max_edim=3, max_ll=4, min_ll=2, field=field):
        algebras += [R, S, connected_sum(R, S).algebra, fibre_product(R, S).algebra]
    algebras.append(_nonminimal_algebra(field))
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
    field = data.draw(st.sampled_from([GF(7), *FIELDS]))
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


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_one_entry_products_are_canonical(field):
    # e_0 * x_0 = e_2 and e_1 * x_0 = s*e_2, on a three-element table
    p = field.char
    s, c = (2, Fraction(3, 4)) if not p else (p - 2, p - 1)
    table = [[(0, 2, 1)], [(0, 2, s)], []]
    # two entries that meet at one column and cancel give no product, and an
    # echelon of them has no pivot
    cancel = {0: (-s * c) % p if p else -s * c, 1: c}
    assert list(quotient._times([cancel], table, 3, p, range(3))) == []
    assert _kernels.echelon(quotient._times([cancel], table, 3, p, range(3)), p) == {}
    assert quotient._canonical({4: 0}, p) == {} and quotient._canonical({4: p}, p) == {}
    (got,) = quotient._times([{1: c}], table, 3, p, range(3))
    if p:
        # c*s = (p-1)*(p-2) is past p, and written reduced
        assert got == {2: 2} and type(got[2]) is int
        assert quotient._canonical({4: 3 * p + 5}, p) == {4: 5}
    else:
        # 2 * 3/4 = 3/2 stays a Fraction; an integral Fraction is written as an int
        assert got == {2: Fraction(3, 2)}
        (got,) = quotient._times([{1: Fraction(3, 2)}], table, 3, p, range(3))
        assert got == {2: 3} and type(got[2]) is int
        one = quotient._canonical({4: Fraction(-6, 3)}, p)
        assert one == {4: -2} and type(one[4]) is int
    # the one-entry row is written as a new dict
    row = {4: 7}
    assert quotient._canonical(row, p) is not row


# -- one-entry rows take their products straight off the table -----------------

def _product_tables(rng, A):
    """`times_table` and the product tables of random elements, each with its element count."""
    elements = sparse_rows(A.field, matrix(A.field, _random_elements(rng, A), width=A.length))
    return [(A.times_table, A.ring.nvars), (A.product_table(elements), len(elements)),
            (A.product_table(elements[2:3]), 1)]


def _assert_grouped_by_element(table, count):
    # `_times` reads a one-entry row's products off one entry, a group per element
    for entry in table:
        elements = [v for v, _, _ in entry]
        assert elements == sorted(elements) and set(elements) <= set(range(count))
        for v in set(elements):
            columns = [j for w, j, _ in entry if w == v]
            assert len(columns) == len(set(columns))


def _assert_one_entry_products_match_reference(A, table, count, row, order):
    lam, p = A.length, A.field.char
    before = dict(row)
    got = list(quotient._times([row], table, lam, p, order))
    assert row == before, "the caller's row changed"
    per_element = [[[(j, s) for w, j, s in entry if w == v] for entry in table]
                   for v in range(count)]
    want = [prod for entries in per_element
            if (prod := times_reference(row, entries, lam, p, order))]
    assert got == want
    assert all(prod and is_canonical_row(prod, p) for prod in got)


def _one_entry_scalars(rng, field):
    if field == QQ:
        return [Fraction(rng.choice([-3, -1, 2, 5]), rng.randint(2, 4)), Fraction(6, 3),
                Fraction(-7), 1]
    return [1, field.p - 1, rng.randrange(2, field.p)]


@pytest.mark.parametrize("field", [GF(7), *FIELDS], ids=repr)
def test_product_tables_list_their_entries_grouped_by_element(field):
    rng = random.Random(97)
    for A in _product_corpus(field):
        for table, count in _product_tables(rng, A):
            _assert_grouped_by_element(table, count)


@pytest.mark.parametrize("field", [GF(7), *FIELDS], ids=repr)
def test_one_entry_products_match_the_reference_on_seeded_algebras(monkeypatch, field):
    # coefficients other than 1, Fractions over QQ, one and three blocks, both
    # kinds of table and a renaming of the columns; a one-entry row's products
    # are read off the table, so none is accumulated and finished
    rng = random.Random(101)
    cases = [(A, _product_tables(rng, A)) for A in _product_corpus(field)]

    def finished(row, p):
        raise AssertionError("a one-entry row's product went through _finished")

    monkeypatch.setattr(quotient, "_finished", finished)
    for A, tables in cases:
        lam = A.length
        for table, count in tables:
            for blocks in (1, 3):
                order = rng.sample(range(blocks * lam), blocks * lam)
                for col in rng.sample(range(blocks * lam), min(blocks * lam, 6)):
                    for c in _one_entry_scalars(rng, field):
                        _assert_one_entry_products_match_reference(
                            A, table, count, {col: field.coerce(c) if field == QQ else c},
                            order)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_one_entry_products_match_the_reference_on_hypothesis_rows(data):
    field = data.draw(st.sampled_from([GF(7), *FIELDS]))
    A = _m_times_corpus(field)[data.draw(st.integers(0, 1))]
    lam = A.length
    rng = random.Random(data.draw(st.integers(0, 2 ** 16)))
    table, count = data.draw(st.sampled_from(_product_tables(rng, A)))
    blocks = data.draw(st.integers(1, 3))
    if field == QQ:
        scalar = st.builds(Fraction, st.integers(1, 9) | st.integers(-9, -1), st.integers(1, 4))
    else:
        scalar = st.integers(1, field.p - 1)
    row = {data.draw(st.integers(0, blocks * lam - 1)): data.draw(scalar)}
    order = data.draw(st.permutations(range(blocks * lam)))
    _assert_grouped_by_element(table, count)
    _assert_one_entry_products_match_reference(A, table, count, row, order)


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
    for m in quotient._monomial_table(A.ring.nvars, A.loewy_length + 1).monos:
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
        product = A.span_times(W.basis.values(), A.product_table(rows))
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


def _product_corpus(field):
    algebras = [residue_field_algebra(field), _nonminimal_algebra(field)]
    for R, S in pair_corpus(2, seed=53, max_edim=3, max_ll=4, min_ll=2, field=field):
        Q, derived = _derived_from(R, S)
        algebras += [*derived, fibre_product(R, S).algebra]
    return algebras


def _random_dual_poly_with_every_draw_kept(rng, ring, degree):
    """`corpus.random_dual_poly` as it read before it skipped vanishing coefficients."""
    terms = {}
    for d in range(2, degree + 1):
        for mono in ring.monomials_of_degree(d):
            if rng.random() < 0.6:
                c = rng.randrange(0, 101)
                if c:
                    terms[mono] = c
    top = ring.monomials_of_degree(degree)
    if not any(sum(m) == degree and m in terms for m in top):
        terms[top[rng.randrange(len(top))]] = rng.randrange(1, 101)
    return ring.poly(terms)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_random_dual_polynomials_draw_as_before_where_no_coefficient_vanishes(field):
    for nvars, degree in ((1, 2), (2, 3), (2, 5), (3, 4)):
        ring = PolyRing(field, tuple(f"w{i + 1}" for i in range(nvars)))
        for seed in range(40):
            got, want = random.Random(seed), random.Random(seed)
            assert (random_dual_poly(got, ring, degree)
                    == _random_dual_poly_with_every_draw_kept(want, ring, degree))
            assert got.getstate() == want.getstate()


def test_random_dual_polynomials_keep_a_top_term_over_a_small_prime():
    for nvars, degree in ((1, 2), (2, 3), (3, 4)):
        ring = PolyRing(GF(7), tuple(f"w{i + 1}" for i in range(nvars)))
        rng = random.Random(83)
        for _ in range(60):
            assert random_dual_poly(rng, ring, degree).total_degree() == degree


@pytest.mark.parametrize("field", [GF(7), *FIELDS], ids=repr)
def test_classes_and_vectors_match_the_dense_products_on_seeded_algebras(field):
    rng = random.Random(59)
    for A in _product_corpus(field):
        _assert_classes_match_dense_products(A, _probes(rng, A.original_ring))


@pytest.mark.parametrize("field", [GF(7), *FIELDS], ids=repr)
def test_element_products_and_annihilators_match_the_dense_products_on_seeded_algebras(field):
    rng = random.Random(61)
    for A in _product_corpus(field):
        vecs = _random_elements(rng, A)
        for elements in ([], vecs[:1], vecs[1:2], vecs[2:3], vecs[3:], vecs):
            _assert_element_products_match_dense_products(A, elements)
        # the socle is the annihilator of the variables' classes
        ann, pivots = echelon_reference(A.field, left_kernel_reference(
            A.field, np.hstack([zeros(A.field, (A.length, 0)), *var_matrices(A)])))
        assert list(A.socle().basis) == pivots.tolist()
        _assert_same_rows(space_rows(A.socle()), ann)


@pytest.mark.parametrize("field", [GF(7), *FIELDS], ids=repr)
def test_forward_pass_classes_match_the_recursive_and_dense_classes(monkeypatch, field):
    assert not hasattr(quotient, "_class_row")
    for A in _product_corpus(field):
        # one degree past the list, where every class is zero
        monos = quotient._monomial_table(A.ring.nvars, A.loewy_length + 2).monos
        got = [A.monomial_row(m) for m in monos]
        assert got == oracles.monomial_rows_reference(A, monos)
        assert all(is_canonical_row(row, field.char) for row in got)
        assert not any(row for m, row in zip(monos, got) if sum(m) > A.loewy_length)
        for m in monos:
            _assert_same_rows(monomial_vector(A, m), monomial_vector_reference(A, m))
    handed = []
    original = quotient.kernel_algebra

    def recording(ring, degree, classes):
        handed.append(classes)
        return original(ring, degree, classes)

    rng = random.Random(89)
    for R, S in pair_corpus(2, seed=71, max_edim=3, max_ll=4, min_ll=2, field=field):
        Q = connected_sum(R, S).algebra
        for ring, images in (_subalgebra_images(rng, Q), (Q.ring, Q.ring.gens())):
            handed.clear()
            monkeypatch.setattr(quotient, "kernel_algebra", recording)
            got = subalgebra(Q, ring, images)
            monkeypatch.undo()
            assert handed == [oracles.subalgebra_classes_reference(Q, ring, images)]
            want = subalgebra_reference(Q, ring, images)
            assert got.same_presentation(want) and got.basis == want.basis


@pytest.mark.parametrize("field", [GF(7), *FIELDS], ids=repr)
def test_quotients_read_their_classes_in_one_forward_pass(monkeypatch, field):
    # quotient_algebra forms each class up to s with one product, from its
    # predecessor's, and gives degree s+1 class 0: the residues it hands
    # kernel_algebra, for gr(A), Q0, A/soc A and the gls_split quotients, are
    # the memoised recursion's, and the classes it keeps on A too
    records = []
    times, kernel = quotient._times, quotient.kernel_algebra
    original = quotient.quotient_algebra

    def counting(*args):
        if records and records[-1]["residues"] is None:
            records[-1]["products"] += 1
        return times(*args)

    def recording_quotient(A, targets):
        records.append({"A": A, "targets": targets, "held": len(A._classes),
                        "products": 0, "residues": None})
        return original(A, targets)

    def recording_kernel(ring, degree, classes):
        if records and records[-1]["residues"] is None:
            records[-1]["residues"] = classes
        return kernel(ring, degree, classes)

    for module, name, patch in ((quotient, "_times", counting),
                                (quotient, "kernel_algebra", recording_kernel),
                                (graded, "quotient_algebra", recording_quotient),
                                (sums, "quotient_algebra", recording_quotient)):
        monkeypatch.setattr(module, name, patch)
    corpus = _product_corpus(field)
    made = len(records)
    splits = socles = grs = 0
    for A in corpus:
        if A.is_gorenstein() and A.length > 1:
            modulo_socle(A)
            socles += 1
        # a graded algebra is its own gr, and a gr is built once
        grs += not A.homogeneous and A._graded is None
        G = associated_graded(A)
        if G.loewy_length >= 2 and is_gls(G)[0]:
            gls_split(G)
            splits += 1
    monkeypatch.undo()
    assert splits and grs and len(records) - made == socles + grs + splits
    for record in records:
        A = record["A"]
        want, memo = oracles.quotient_residues_reference(A, record["targets"])
        assert record["residues"] == want
        assert all(is_canonical_row(row, field.char) for row in record["residues"])
        monos = quotient._monomial_table(A.ring.nvars, A.loewy_length).monos
        assert set(monos) <= set(A._classes)
        assert all(A._classes[m] == memo[m] for m in monos)
    # each class formed is one product; one pass forms every class its algebra lacked
    assert all(r["products"] == len(r["A"]._classes) - r["held"] for r in records)
    assert any(r["products"] for r in records)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_a_class_read_on_its_own_forms_only_its_predecessor_chain(monkeypatch, field):
    # s = 8 and 495 monomials up to degree s in four variables.  The parsed
    # algebra holds the class of every product of two basis elements; read
    # into classes that hold only 1, one read forms the classes on its
    # chain, at most s products, and no other
    A = algebra_from_text(f"field {field}; vars x1 x2 x3 x4; ideal x1^2, x2^2, x3^2, x4^6")
    s, lam, p = A.loewy_length, A.length, field.char
    assert s == 8 and len(quotient._monomial_table(4, s).monos) == 495
    classes = {(0,) * 4: {0: 1}}
    products = []
    times = quotient._times

    def counting(*args):
        products.append(args)
        return times(*args)

    def read(mono):
        return quotient._monomial_class(classes, mono, A._variable_tables, lam, p)

    monkeypatch.setattr(quotient, "_times", counting)
    row = read((1, 1, 1, 5))
    assert row == {lam - 1: 1}
    assert len(classes) <= s + 1 and len(products) <= s
    count = len(products)
    assert A.monomial_row((1, 1, 1, 5)) == row and len(products) == count
    # a read whose chain is formed already makes no product
    assert read((0, 1, 1, 5)) == oracles.monomial_rows_reference(A, [(0, 1, 1, 5)])[0]
    assert len(products) == count
    # reads in a shuffled order give the reference classes, one product per class
    monos = list(quotient._monomial_table(4, s).monos)
    random.Random(107).shuffle(monos)
    assert [read(m) for m in monos] == oracles.monomial_rows_reference(A, monos)
    assert len(products) == len(classes) - 1 <= 495 - 1


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



# -- the ideal of elements in one product pass, against the grown span ---------

def _assert_ideal_span_matches_reference(A, rows):
    got = A.ideal_span(rows)
    assert got == ideal_span_reference(A, rows)
    assert got.is_ideal() and all(got.contains(row) for row in rows)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_ideal_span_matches_the_grown_span_on_seeded_rows(field):
    rng = random.Random(61)
    algebras = [residue_field_algebra(field), _nonminimal_algebra(field)]
    for R, S in pair_corpus(3, seed=31, max_edim=3, max_ll=4, min_ll=2, field=field):
        algebras += [R, S, connected_sum(R, S).algebra, fibre_product(R, S).algebra]
    for A in algebras:
        cases = [[], [{0: field.one}], list(A.socle().basis.values())]
        cases += [list(W.basis.values())[:2] for W in A.filtration]
        cases += [_random_rows(rng, field, 1, A.length)[k:k + 2] for k in range(0, 12, 3)]
        for rows in cases:
            _assert_ideal_span_matches_reference(A, rows)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_ideal_span_matches_the_grown_span_on_hypothesis_rows(data):
    field = data.draw(st.sampled_from(FIELDS))
    A = _m_times_corpus(field)[data.draw(st.integers(0, 1))]
    entries = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 3))
    rows = [{k: field.coerce(x) for k, x in data.draw(
        st.dictionaries(st.integers(0, A.length - 1), entries, max_size=A.length)).items()}
        for _ in range(data.draw(st.integers(0, 3)))]
    _assert_ideal_span_matches_reference(A, rows)


# -- over QQ an entry is an int exactly where it is integral --------------------

def _assert_ints_where_integral(rows):
    for row in rows:
        for x in row.values():
            assert type(x) is int or (type(x) is Fraction and x.denominator != 1), row


def test_qq_rows_hold_an_int_exactly_where_an_entry_is_integral():
    golden = Path(__file__).resolve().parent / "golden"
    algebras = [algebra_from_text((golden / name).read_text())
                for name in ("hidden_sum.txt", "hidden_sum_edim2.txt", "qq_left.txt",
                             "qq_right.txt", "nonminimal_qq.txt", "ci_qq.txt")]
    for R, S in pair_corpus(3, seed=31, max_edim=3, max_ll=4, min_ll=2, field=QQ):
        algebras += [R, S, connected_sum(R, S, unit=Fraction(2, 3)).algebra]
    rng = random.Random(67)
    for A in algebras:
        lam = A.length
        monos = [m for d in range(A.loewy_length + 2) for m in A.ring.monomials_of_degree(d)]
        _assert_ints_where_integral(A.monomial_row(m) for m in monos)
        _assert_ints_where_integral(A.element_row(f) for f in _probes(rng, A.original_ring))
        elements = [A.element_row(f) for f in _probes(rng, A.ring)]
        _assert_ints_where_integral(quotient._times(elements, A.times_table, lam, 0, range(lam)))
        for table in (A.times_table, A.product_table(elements), A.struct_table):
            _assert_ints_where_integral([{(v, j): c} for entry in table for v, j, c in entry])
        for W in (*A.filtration, A.socle(), A.subspace(elements)):
            _assert_ints_where_integral(A.m_times(W).basis.values())
