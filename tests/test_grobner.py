"""Groebner engine: golden bases, normal forms, kernel presentations, zero-dimensionality."""

import pickle
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from artinsum import (GF, QQ, IdealPresentation, Polynomial, PolyRing, algebra_from_text,
                      apolar_algebra, associated_graded, fibre_product, gls_split, grobner,
                      iarrobino, modulo_socle, normal_form, parse_presentation)
from artinsum.cli import main
from artinsum.decompose import check_split
from artinsum.errors import ArtinsumError, ResourceGuardError, UnitIdealError
from artinsum.grobner import buchberger, s_polynomial
from artinsum.quotient import _monomial_table, build_algebra, kernel_algebra, subalgebra
from artinsum.sums import _apolar_classes, connected_sum

from corpus import (GOLDEN, dual_polynomials, golden_texts, pair_corpus, random_apolar_ideal,
                    random_dual_poly)
from oracles import (Block, algebra_ideal, buchberger_reference,
                     build_algebra_reference, connected_sum_ideal, contract_reference,
                     classes_matrix, cross_products_outside_reference,
                     fibre_product_reference, gls_split_reference, ideal_member,
                     left_kernel_reference, right_kernel_reference, same_ideal, sparse_rows,
                     standard_monomials_reference, subring_quotient_dimension, support_vars)

# GF(1048573) is the largest prime below MAX_PRIME
FIELDS = [GF(101), GF(1048573), QQ]


def ideal_of(text):
    ring, gens = parse_presentation(text)
    return IdealPresentation(ring, gens)


def algebra_of(I):
    return build_algebra(I.ring, list(I.generators))


def test_principal_monomial_ideal():
    I = ideal_of("field QQ; vars X; ideal X")
    assert [str(g) for g in I.groebner_basis()] == ["X"]


def test_hand_run_basis():
    # one S-polynomial (Z^3) completes the basis; verified by membership both ways
    I = ideal_of("field QQ; vars Y Z; ideal Y*Z, Z^2-Y^3")
    gb = I.groebner_basis()
    assert sorted(str(g) for g in gb) == ["Y*Z", "Y^3 - Z^2", "Z^3"]
    basis_ideal = IdealPresentation(I.ring, list(gb))
    assert same_ideal(I, basis_ideal)


def test_elimination_golden_case():
    I = ideal_of("field QQ; vars Y1 Z1 Z2; ideal Y1*Z1-Z2^2, Y1^2, Z1^2")
    gb = buchberger_reference(list(I.generators), Block((0,), (1, 2)))
    in_back = [g for g in gb if 0 not in support_vars(g)]
    assert sorted(str(g) for g in in_back) == ["Z1*Z2^2", "Z1^2", "Z2^4"]


def test_normal_form_membership():
    I = ideal_of("field QQ; vars Y Z; ideal Y*Z, Z^2-Y^3")
    ring = I.ring
    y, z = ring.gens()
    f = (y ** 2) * (y * z) + z.scale(3) * (z * z - y ** 3)
    assert I.normal_form(f).is_zero()


def test_normal_form_explicit_cofactors():
    # Y^4 = Y*(Y^3 - Z^2) + Z*(Y*Z), checked by expansion
    ring, _ = parse_presentation("field QQ; vars Y Z; ideal Y*Z")
    y, z = ring.gens()
    expansion = y * (y ** 3 - z ** 2) + z * (y * z)
    assert expansion == y ** 4
    I = ideal_of("field QQ; vars Y Z; ideal Y*Z, Z^2-Y^3")
    assert I.normal_form(y ** 4).is_zero()


def test_normal_form_standard_monomial():
    I = ideal_of("field QQ; vars Y Z; ideal Y*Z, Z^2-Y^3")
    ring = I.ring
    z = ring.var(1)
    assert I.normal_form(z * z) == z * z


def _subalgebra_on(Q, keep):
    """The subalgebra of Q on the kept variable names, in Q's variable order."""
    keep = sorted(keep, key=Q.ring.index.get)
    return subalgebra(Q, PolyRing(Q.field, keep), [Q.ring.var(Q.ring.index[n]) for n in keep])


def test_contract_golden():
    Q = algebra_of(ideal_of("field QQ; vars Y1 Z1 Z2; ideal Y1*Z1-Z2^2, Y1^2, Z1^2"))
    C = _subalgebra_on(Q, ["Z1", "Z2"])
    assert sorted(str(g) for g in C.gb) == ["Z1*Z2^2", "Z1^2", "Z2^4"]


def test_contract_derived():
    I = ideal_of("field QQ; vars Y Z; ideal Y*Z, Y^3-Z^2")
    C = _subalgebra_on(algebra_of(I), ["Y"])
    assert [str(g) for g in C.gb] == ["Y^4"]
    # minimality: Y^3 is not in the ideal
    assert not I.contains(I.ring.var(0) ** 3)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_contract_caches_the_reduced_basis(field):
    # the basis `subalgebra` caches without a Buchberger run is the one the
    # block-order elimination gives, and a Buchberger run would keep it
    rng = random.Random(13)
    ideals = [random_apolar_ideal(rng, edim, degree, prefix, field)
              for edim, degree, prefix in ((2, 3, "Y"), (3, 2, "U"), (2, 4, "Z"))]
    ideals.append(connected_sum_ideal(algebra_of(ideals[0]), algebra_of(ideals[2])))
    for I in ideals:
        Q = algebra_of(I)
        names = I.ring.names
        keeps = [names[:1], names[1:], names[::2], names[-2:], names]
        for keep in keeps:
            basis = _subalgebra_on(Q, keep).gb
            reference = contract_reference(I, list(keep)).groebner_basis()
            assert basis == reference
            assert basis == tuple(buchberger(list(reference)))


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_split_components_match_the_contraction_reference(field):
    for R, S in pair_corpus(4, max_edim=2, max_ll=3, field=field):
        result = connected_sum(R, S)
        if result.trivial:
            continue
        Q = result.algebra
        check = check_split(Q, (R.ring.names, S.ring.names))
        assert check.ok
        for component, names in ((check.left, R.ring.names), (check.right, S.ring.names)):
            assert component.ring.names == names
            assert (component.gb
                    == contract_reference(algebra_ideal(Q), list(names)).groebner_basis())


def test_zero_dimensionality():
    assert ideal_of("field QQ; vars Y Z; ideal Y^2, Z^2, Y*Z").is_zero_dimensional()
    assert not ideal_of("field QQ; vars Y Z; ideal Y*Z").is_zero_dimensional()
    assert ideal_of(
        "field QQ; vars Y1 Z1 Z2; ideal Y1*Z1-Z2^2, Y1^2, Z1^2").is_zero_dimensional()


def test_buchberger_fixed_point_and_idempotence():
    I = ideal_of("field GF(101); vars Y1 Z1 Z2; ideal Y1*Z1-Z2^2, Y1^2+Z1*Z2, Z1^3")
    gb = I.groebner_basis()
    for i in range(len(gb)):
        for j in range(i + 1, len(gb)):
            s = s_polynomial(gb[i], gb[j])
            assert normal_form(s, list(gb)).is_zero()
    again = IdealPresentation(I.ring, list(gb)).groebner_basis()
    assert again == gb


def test_membership_oracle_random_cofactors():
    rng = random.Random(11)
    I = ideal_of("field GF(101); vars Y Z; ideal Y*Z, Z^2-Y^3")
    ring = I.ring
    monos = [m for d in range(3) for m in ring.monomials_of_degree(d)]
    for _ in range(25):
        f = ring.zero
        for g in I.generators:
            mono = monos[rng.randrange(len(monos))]
            f = f + g.mul_term(mono, rng.randrange(101))
        assert I.normal_form(f).is_zero()


def test_contraction_soundness_and_completeness():
    rng = random.Random(23)
    ring = PolyRing(GF(101), ("Y", "Z1", "Z2"))
    for _ in range(8):
        gens = [ring.var(0) ** 2, ring.var(1) ** 2, ring.var(2) ** 3]
        mixer = ring.zero
        for d in (2, 3):
            for m in ring.monomials_of_degree(d):
                c = rng.randrange(101)
                if c and rng.random() < 0.4:
                    mixer = mixer + ring.monomial(m, c)
        if not mixer.is_zero():
            gens.append(mixer)
        I = IdealPresentation(ring, gens)
        if not I.is_zero_dimensional() or I.is_unit_ideal():
            continue
        keep = ["Z1", "Z2"]
        A = algebra_of(I)
        C = _subalgebra_on(A, keep)
        # soundness: every basis element lies in I and only uses kept vars
        for g in C.gb:
            assert I.contains(g.rename_into(ring))
        # completeness: standard-monomial count equals the subalgebra dimension
        assert len(algebra_ideal(C).standard_monomials()) == subring_quotient_dimension(A, keep)


def test_degree_guard_trips(monkeypatch):
    I = ideal_of("field QQ; vars Y Z; ideal Y*Z, Z^2-Y^3")
    monkeypatch.setattr(grobner, "MAX_DEGREE", 2)
    with pytest.raises(ResourceGuardError) as info:
        I.groebner_basis()
    assert (info.value.guard, info.value.limit, info.value.value) == ("max_degree", 2, 3)
    assert str(info.value) == "intermediate polynomial degree 3 exceeds the max_degree guard of 2"


def test_degree_guard_trips_on_a_new_basis_element(monkeypatch):
    # both inputs have degree 3; the reduced basis gains Y^4 - X^2
    text = "field QQ; vars X Y; ideal X^2*Y - Y^2, X*Y^2 - X^2"
    monkeypatch.setattr(grobner, "MAX_DEGREE", 3)
    with pytest.raises(ResourceGuardError) as info:
        ideal_of(text).groebner_basis()
    assert (info.value.guard, info.value.limit, info.value.value) == ("max_degree", 3, 4)
    assert "intermediate polynomial degree 4" in str(info.value)
    with pytest.raises(ResourceGuardError) as ref:
        buchberger_reference(list(ideal_of(text).generators), ideal_of(text).ring.order)
    assert ref.value.value == 4
    monkeypatch.setattr(grobner, "MAX_DEGREE", 4)
    assert ideal_of(text).groebner_basis()


def test_degree_guard_trips_inside_a_reduction(monkeypatch):
    # X -> Y carries X^6 through X^5*Y, of degree 6, to Y^6
    ring = PolyRing(QQ, ("X", "Y"))
    x, y = ring.gens()
    monkeypatch.setattr(grobner, "MAX_DEGREE", 5)
    with pytest.raises(ResourceGuardError) as info:
        normal_form(x ** 6, [x - y])
    assert (info.value.guard, info.value.limit, info.value.value) == ("max_degree", 5, 6)
    assert str(info.value) == "reduction term degree 6 exceeds the max_degree guard of 5"
    monkeypatch.setattr(grobner, "MAX_DEGREE", 6)
    assert normal_form(x ** 6, [x - y]) == y ** 6


def test_build_algebra_runs_buchberger_once_per_presentation(monkeypatch):
    # one reduced basis is cached per presentation, and every normal form
    # and standard monomial is read off it; a non-minimal input is made
    # minimal by linear algebra, not by a second Buchberger run
    calls = []
    run = grobner.buchberger

    def counting(generators):
        calls.append(len(generators))
        return run(generators)

    monkeypatch.setattr(grobner, "buchberger", counting)
    for text in ("field QQ; vars Y Z; ideal Y*Z, Z^2-Y^3",
                 "field GF(101); vars A B C; ideal A - B*C, B^3, C^2, B*C - A^2"):
        calls.clear()
        build_algebra(*parse_presentation(text))
        assert len(calls) == 1


def test_resource_guard_error_survives_pickling():
    err = ResourceGuardError("max_degree", 5, 6, "reduction term degree")
    back = pickle.loads(pickle.dumps(err))
    assert (back.guard, back.limit, back.value, str(back)) == (
        err.guard, err.limit, err.value, str(err))


def test_cli_exit_code_for_a_tripped_guard(tmp_path, monkeypatch, capsys):
    path = tmp_path / "a.txt"
    path.write_text("field QQ; vars Y Z; ideal Y*Z, Z^2-Y^3")
    monkeypatch.setattr(grobner, "MAX_DEGREE", 2)
    assert main(["analyze", str(path)]) == 7
    assert "exceeds the max_degree guard of 2" in capsys.readouterr().err


# -- the heap-driven Buchberger against the pair-rescanning reference --------

def _random_poly(rng, ring, degree, terms=4, low=0):
    monos = [m for d in range(low, degree + 1) for m in ring.monomials_of_degree(d)]
    return ring.poly({monos[rng.randrange(len(monos))]: rng.randint(-9, 9)
                      for _ in range(terms)})


def _assert_matches_reference(gens, probes):
    fast = buchberger(gens)
    assert fast == buchberger_reference(gens, gens[0].ring.order)
    for basis in (fast, [g for g in gens if not g.is_zero()]):
        leads = [g.leading() for g in basis]
        for f in probes:
            assert normal_form(f, basis, leads=leads) == normal_form(f, basis)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_buchberger_matches_reference_on_apolar_ideals(field):
    rng = random.Random(31)
    ideals = [random_apolar_ideal(rng, edim, degree, prefix, field)
              for edim, degree, prefix in ((1, 3, "U"), (2, 2, "Y"), (2, 3, "Z"), (2, 4, "W"))]
    for I in ideals:
        probes = [_random_poly(rng, I.ring, 4) for _ in range(3)]
        _assert_matches_reference(list(I.generators), probes)
    # the connected-sum ideal on the factors' bases, the cross products and
    # the socle difference, which are not a Groebner basis
    R, S = algebra_of(ideals[1]), algebra_of(ideals[2])
    Q = connected_sum(R, S).algebra
    probes = [_random_poly(rng, Q.ring, 3) for _ in range(3)]
    _assert_matches_reference(list(connected_sum_ideal(R, S).generators), probes)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_buchberger_matches_reference_on_seeded_generators(field):
    rng = random.Random(8)
    for nvars in (2, 3, 3, 2, 3, 3):
        ring = PolyRing(field, tuple(f"V{i}" for i in range(nvars)))
        gens = [ring.var(i) ** rng.randint(3, 5) for i in range(nvars)]
        gens += [_random_poly(rng, ring, 3, low=2) for _ in range(rng.randint(1, 3))]
        probes = [_random_poly(rng, ring, 5) for _ in range(3)]
        _assert_matches_reference(gens, probes)


@st.composite
def generator_sets(draw):
    field = draw(st.sampled_from(FIELDS))
    nvars = draw(st.integers(1, 3))
    ring = PolyRing(field, tuple(f"V{i}" for i in range(nvars)))
    exponent = st.tuples(*[st.integers(0, 3)] * nvars)
    poly = st.dictionaries(exponent, st.integers(-5, 5), max_size=4).map(ring.poly)
    gens = [ring.var(i) ** draw(st.integers(1, 4)) for i in range(nvars)]
    gens += draw(st.lists(poly, min_size=1, max_size=3))
    probes = draw(st.lists(poly, min_size=1, max_size=2))
    return gens, probes


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(generator_sets())
def test_buchberger_matches_reference_on_hypothesis_inputs(case):
    gens, probes = case
    with mock.patch.object(grobner, "MAX_DEGREE", 12):
        _assert_matches_reference(gens, probes)


# -- standard monomials: the order-ideal walk against the box enumeration ----

def _assert_walk_matches_box(pres):
    walk = pres.standard_monomials()
    assert walk == standard_monomials_reference(pres)
    return walk


@pytest.mark.parametrize("field", [QQ, GF(7), GF(1048573)], ids=repr)
def test_standard_monomials_walk_matches_box_on_corpus_bases(field):
    # the factors, their connected sum and their fibre product: the sums'
    # bases lead with the cross products, which are not pure powers
    for R, S in pair_corpus(3, seed=5, max_edim=2, max_ll=4, field=field):
        for A in (R, S, connected_sum(R, S).algebra, fibre_product(R, S).algebra):
            assert tuple(_assert_walk_matches_box(algebra_ideal(A))) == A.basis


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(generator_sets())
def test_standard_monomials_walk_matches_box_on_hypothesis_inputs(case):
    gens, _ = case
    with mock.patch.object(grobner, "MAX_DEGREE", 12):
        _assert_walk_matches_box(IdealPresentation(gens[0].ring, gens))


def test_standard_monomials_walk_matches_box_on_edge_ideals():
    point = PolyRing(QQ, ())
    ring = PolyRing(QQ, ("X", "Y"))
    x, y = ring.gens()
    # X^40, Y^40, X*Y: a box of 1,600 points around 79 standard monomials
    skewed = [(0, 0)] + [m for d in range(1, 40) for m in ((0, d), (d, 0))]
    for pres, expected in [(IdealPresentation(point, []), [()]),
                           (IdealPresentation(point, [point.one]), []),
                           (IdealPresentation(ring, [x * y]), None),
                           (IdealPresentation(ring, [x ** 40, y ** 40, x * y]), skewed)]:
        assert _assert_walk_matches_box(pres) == expected


@pytest.mark.parametrize("names", [("X",), ("X", "Y"), ("X", "Y", "Z")])
def test_the_unit_ideal_is_zero_dimensional_with_no_standard_monomial(names):
    # the one leading monomial 1 = x^0 is a pure power of every variable
    ring = PolyRing(QQ, names)
    x, y = ring.var(0), ring.var(len(names) - 1)
    gens = [x, y - ring.one, x + y]
    pres = IdealPresentation(ring, gens)
    assert pres.groebner_basis() == (ring.one,) and pres.is_unit_ideal()
    assert pres.is_zero_dimensional() and pres.standard_monomials() == []
    assert standard_monomials_reference(pres) == []
    with pytest.raises(UnitIdealError):
        build_algebra(ring, gens)


def test_ideal_membership_oracle_is_two_sided():
    ring, gens = parse_presentation("field QQ; vars Y Z; ideal Y*Z, Z^2-Y^3")
    y, z = ring.gens()
    assert ideal_member(z ** 3, gens)
    assert not ideal_member(z ** 2, gens)


# -- kernel presentations against Buchberger on the same rows ----------------

def _rows_as_polynomials(ring, monos, rows):
    return [Polynomial(ring, {m: c for m, c in zip(monos, r.tolist()) if c}) for r in rows]


def _assert_kernel_presentation_matches(ring, monos, classes):
    # the reference makes the ideal minimal by substitution when the kernel
    # has linear parts, and is Buchberger's reduced basis otherwise
    A = kernel_algebra(ring, sum(monos[-1]), classes)
    rows = left_kernel_reference(ring.field, classes_matrix(ring.field, classes))
    expected = build_algebra_reference(
        IdealPresentation(ring, _rows_as_polynomials(ring, monos, rows)))
    assert A.same_presentation(expected)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_kernel_presentation_matches_buchberger_on_apolar_kernels(field):
    rng = random.Random(41)
    for edim, degree in ((1, 4), (2, 2), (2, 3), (2, 4), (3, 2), (3, 3)):
        dual = PolyRing(field, tuple(f"w{i}" for i in range(edim)))
        ops = PolyRing(field, tuple(f"X{i}" for i in range(edim)))
        F = random_dual_poly(rng, dual, degree)
        _assert_kernel_presentation_matches(ops, *_apolar_classes(F, ops))


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(dual_polynomials(FIELDS))
def test_kernel_presentation_matches_buchberger_on_hypothesis_apolar_kernels(F):
    ops = PolyRing(F.ring.field, tuple(f"X{i}" for i in range(F.ring.nvars)))
    _assert_kernel_presentation_matches(ops, *_apolar_classes(F, ops))


@pytest.mark.parametrize("field, kind", [(GF(101), int), (QQ, Fraction)], ids=repr)
def test_apolar_presentation_holds_field_scalars(field, kind):
    # canonical int in [0, p) over GF(p) and Fraction over QQ, as in fields.py
    dual = PolyRing(field, ("w1", "w2"))
    F = dual.poly({(3, 0): 3, (1, 2): -7, (0, 2): 5})
    coefficients = [c for g in apolar_algebra(F).gb for c in g.terms.values()]
    assert coefficients and all(type(c) is kind for c in coefficients)
    if kind is int:
        assert all(0 < c < field.p for c in coefficients)


def test_kernel_presentation_needs_the_top_power_of_m():
    # classes, as dict rows, whose left kernel is spanned by the given rows
    field = GF(101)
    ring = PolyRing(field, ("X", "Y"))
    monos = _monomial_table(ring.nvars, 2).monos
    top = [m for m in monos if sum(m) == 2 and m != (1, 1)]
    rows = np.array([[int(m == t) for m in monos] for t in top], dtype=np.int64)
    with pytest.raises(ArtinsumError) as info:
        kernel_algebra(ring, 2, sparse_rows(field, right_kernel_reference(field, rows).T))
    assert "m^2 inside the ideal" in str(info.value)
    assert "X*Y" in str(info.value)
    rows = np.vstack([rows, [int(m == (1, 1)) for m in monos]])
    A = kernel_algebra(ring, 2, sparse_rows(field, right_kernel_reference(field, rows).T))
    assert [str(g) for g in A.gb] == ["Y^2", "X*Y", "X^2"]


# -- the cross products of a coordinate split against ideal membership -------

def _bipartitions(names):
    for mask in range(1, 2 ** len(names) - 1):
        yield ([n for i, n in enumerate(names) if mask >> i & 1],
               [n for i, n in enumerate(names) if not mask >> i & 1])


def _assert_cross_products_match_reference(Q):
    for left, right in _bipartitions(Q.ring.names):
        expected = cross_products_outside_reference(Q, left, right)
        reasons = [r for r in check_split(Q, (left, right)).reasons
                   if r.startswith("cross products outside the ideal: ")]
        assert reasons == (["cross products outside the ideal: " + ", ".join(expected)]
                           if expected else [])


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_split_cross_products_match_ideal_membership(field):
    rng = random.Random(43)
    for R, S in pair_corpus(3, seed=2, max_edim=2, max_ll=3, min_ll=2, field=field):
        Q = connected_sum(R, S).algebra
        _assert_cross_products_match_reference(Q)
        # a unitriangular change of coordinates moves some cross products out
        images = [Q.ring.var(v) + sum((Q.ring.var(j).scale(rng.randint(-2, 2))
                                       for j in range(v)), Q.ring.zero)
                  for v in range(Q.ring.nvars)]
        _assert_cross_products_match_reference(subalgebra(Q, Q.ring, images))


@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(dual_polynomials(FIELDS))
def test_split_cross_products_match_ideal_membership_on_hypothesis_inputs(F):
    A = apolar_algebra(F, tuple(f"X{i}" for i in range(F.ring.nvars)))
    if A.is_gorenstein() and A.edim >= 2:
        _assert_cross_products_match_reference(A)


# -- the reduced basis read off the classes against Buchberger -----------------

def _assert_basis_read_off_the_classes(A, reference=None):
    # a reduced basis is its own Buchberger fixed point, and it is the one
    # of A's ideal when it vanishes in A and leaves A's basis standard, as
    # the ideal it spans then lies in A's and has A's codimension
    n = A.ring.nvars
    assert all(tuple(int(i == v) for i in range(n)) in A.basis_index for v in range(n))
    pres = IdealPresentation(A.ring, list(A.gb))
    assert A.gb == pres.groebner_basis()
    assert tuple(pres.standard_monomials()) == A.basis
    assert not any(A.element_row(g) for g in A.gb)
    if reference is not None:
        assert A.gb == tuple(reference)


def _assert_derived_bases(R, S):
    """R, S, their fibre product and connected sum, and gr, Q0 and Q/soc Q of the sum."""
    _assert_basis_read_off_the_classes(R)
    _assert_basis_read_off_the_classes(S)
    _assert_basis_read_off_the_classes(fibre_product(R, S).algebra,
                                       fibre_product_reference(R, S).gb)
    result = connected_sum(R, S)
    if result.trivial:
        return
    Q = result.algebra
    _assert_basis_read_off_the_classes(Q, connected_sum_ideal(R, S).groebner_basis())
    _assert_basis_read_off_the_classes(associated_graded(Q))
    _assert_basis_read_off_the_classes(iarrobino(Q)[1])
    _assert_basis_read_off_the_classes(
        modulo_socle(Q), IdealPresentation(Q.ring, [*Q.gb, *Q.socle().lifts()]).groebner_basis())


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_reduced_bases_read_off_the_classes_match_buchberger(field):
    texts = list(golden_texts(field))
    assert any("vars A B C D" in text for text in texts)
    for text in texts:
        ring, gens = parse_presentation(text)
        A = build_algebra(ring, gens)
        _assert_basis_read_off_the_classes(
            A, build_algebra_reference(IdealPresentation(ring, gens)).gb)
        if A.ring == ring:
            _assert_basis_read_off_the_classes(A, IdealPresentation(ring, gens).groebner_basis())
        if A.is_gorenstein() and A.loewy_length >= 2:
            _assert_basis_read_off_the_classes(associated_graded(A))
            _assert_basis_read_off_the_classes(modulo_socle(A))
    G = associated_graded(algebra_from_text(
        (GOLDEN / "hidden_sum.txt").read_text().replace("field QQ", f"field {field}")))
    split, reference = gls_split(G), gls_split_reference(G)
    _assert_basis_read_off_the_classes(split.gorenstein_part, reference.gorenstein_part.gb)
    _assert_basis_read_off_the_classes(split.square_zero_part, reference.square_zero_part.gb)
    for R, S in pair_corpus(3, seed=47, max_edim=2, max_ll=3, min_ll=2, field=field):
        _assert_derived_bases(R, S)
        Q = connected_sum(R, S).algebra
        check = check_split(Q, (R.ring.names, S.ring.names))
        for component, names in ((check.left, R.ring.names), (check.right, S.ring.names)):
            _assert_basis_read_off_the_classes(
                component, contract_reference(algebra_ideal(Q), list(names)).groebner_basis())


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(FIELDS).flatmap(
    lambda field: st.tuples(dual_polynomials([field]), dual_polynomials([field]))))
def test_reduced_bases_read_off_the_classes_match_buchberger_on_hypothesis_pairs(duals):
    F, G = duals
    R = apolar_algebra(F, tuple(f"Y{i + 1}" for i in range(F.ring.nvars)))
    S = apolar_algebra(G, tuple(f"Z{i + 1}" for i in range(G.ring.nvars)))
    _assert_derived_bases(R, S)
