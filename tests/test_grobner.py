"""Groebner engine: golden bases, normal forms, kernel presentations, zero-dimensionality."""

import pickle
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from artinsum import (GF, QQ, Grevlex, IdealPresentation, Polynomial, PolyRing,
                      apolar_algebra, normal_form, parse_presentation)
from artinsum.cli import main
from artinsum.decompose import check_split
from artinsum.errors import ArtinsumError, ResourceGuardError
from artinsum.grobner import buchberger, s_polynomial
from artinsum.quotient import build_algebra, kernel_algebra, subalgebra
from artinsum.sums import _apolar_classes, connected_sum

from corpus import pair_corpus, random_apolar_ideal, random_dual_poly
from oracles import (Block, Lex, algebra_ideal, buchberger_reference,
                     build_algebra_reference, connected_sum_ideal, contract_reference,
                     classes_matrix, cross_products_outside_reference, ideal_member,
                     left_kernel_reference, right_kernel_reference, same_ideal, sparse_rows,
                     subring_quotient_dimension, support_vars)

# GF(1048573) is the largest prime below MAX_PRIME
FIELDS = [GF(101), GF(1048573), QQ]


def ideal_of(text):
    ring, gens = parse_presentation(text)
    return IdealPresentation(ring, gens)


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
    order = Block((0,), (1, 2))
    gb = I.groebner_basis(order)
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
    Q = build_algebra(ideal_of("field QQ; vars Y1 Z1 Z2; ideal Y1*Z1-Z2^2, Y1^2, Z1^2"))
    C = _subalgebra_on(Q, ["Z1", "Z2"])
    assert sorted(str(g) for g in C.gb) == ["Z1*Z2^2", "Z1^2", "Z2^4"]


def test_contract_derived():
    I = ideal_of("field QQ; vars Y Z; ideal Y*Z, Y^3-Z^2")
    C = _subalgebra_on(build_algebra(I), ["Y"])
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
    ideals.append(connected_sum_ideal(build_algebra(ideals[0]), build_algebra(ideals[2])))
    for I in ideals:
        Q = build_algebra(I)
        names = I.ring.names
        keeps = [names[:1], names[1:], names[::2], names[-2:], names]
        for keep in keeps:
            basis = _subalgebra_on(Q, keep).gb
            reference = contract_reference(I, list(keep)).groebner_basis()
            assert basis == reference
            assert basis == tuple(buchberger(list(reference), Grevlex(len(keep))))


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
    order = I.ring.order
    for i in range(len(gb)):
        for j in range(i + 1, len(gb)):
            s = s_polynomial(gb[i], gb[j], order)
            assert normal_form(s, list(gb), order).is_zero()
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
        A = build_algebra(I)
        C = _subalgebra_on(A, keep)
        # soundness: every basis element lies in I and only uses kept vars
        for g in C.gb:
            assert I.contains(g.rename_into(ring))
        # completeness: standard-monomial count equals the subalgebra dimension
        assert len(algebra_ideal(C).standard_monomials()) == subring_quotient_dimension(A, keep)


def test_degree_guard_trips():
    I = ideal_of("field QQ; vars Y Z; ideal Y*Z, Z^2-Y^3")
    with pytest.raises(ResourceGuardError) as info:
        I.groebner_basis(max_degree=2)
    assert (info.value.guard, info.value.limit, info.value.value) == ("max_degree", 2, 3)
    assert str(info.value) == "intermediate polynomial degree 3 exceeds the max_degree guard of 2"


def test_degree_guard_trips_on_a_new_basis_element():
    # both inputs have degree 3; the reduced basis gains Y^4 - X^2
    text = "field QQ; vars X Y; ideal X^2*Y - Y^2, X*Y^2 - X^2"
    with pytest.raises(ResourceGuardError) as info:
        ideal_of(text).groebner_basis(max_degree=3)
    assert (info.value.guard, info.value.limit, info.value.value) == ("max_degree", 3, 4)
    assert "intermediate polynomial degree 4" in str(info.value)
    with pytest.raises(ResourceGuardError) as ref:
        buchberger_reference(list(ideal_of(text).generators), Grevlex(2), 3)
    assert ref.value.value == 4
    assert ideal_of(text).groebner_basis(max_degree=4)


def test_degree_guard_trips_inside_a_reduction():
    # under Lex, X -> Y^3 raises the degree: X^2 -> X*Y^3 -> Y^6
    ring = PolyRing(QQ, ("X", "Y"))
    x, y = ring.gens()
    with pytest.raises(ResourceGuardError) as info:
        normal_form(x ** 2, [x - y ** 3], Lex(2), max_degree=5)
    assert (info.value.guard, info.value.limit, info.value.value) == ("max_degree", 5, 6)
    assert str(info.value) == "reduction term degree 6 exceeds the max_degree guard of 5"
    assert normal_form(x ** 2, [x - y ** 3], Lex(2), max_degree=6) == y ** 6


def test_resource_guard_error_survives_pickling():
    err = ResourceGuardError("max_degree", 5, 6, "reduction term degree")
    back = pickle.loads(pickle.dumps(err))
    assert (back.guard, back.limit, back.value, str(back)) == (
        err.guard, err.limit, err.value, str(err))


def test_cli_exit_code_for_a_tripped_guard(tmp_path, monkeypatch, capsys):
    path = tmp_path / "a.txt"
    path.write_text("field QQ; vars Y Z; ideal Y*Z, Z^2-Y^3")
    monkeypatch.setenv("ARTINSUM_MAX_DEGREE", "2")
    assert main(["analyze", str(path)]) == 7
    assert "exceeds the max_degree guard of 2" in capsys.readouterr().err


# -- the heap-driven Buchberger against the pair-rescanning reference --------

def _orders(nvars):
    front = max(1, nvars // 2)
    return [Grevlex(nvars), Lex(nvars), Block(range(front), range(front, nvars))]


def _random_poly(rng, ring, degree, terms=4, low=0):
    monos = [m for d in range(low, degree + 1) for m in ring.monomials_of_degree(d)]
    return ring.poly({monos[rng.randrange(len(monos))]: rng.randint(-9, 9)
                      for _ in range(terms)})


def _assert_matches_reference(gens, order, probes, max_degree=None):
    fast = buchberger(gens, order, max_degree)
    assert fast == buchberger_reference(gens, order, max_degree)
    for basis in (fast, [g for g in gens if not g.is_zero()]):
        leads = [g.leading(order) for g in basis]
        for f in probes:
            assert (normal_form(f, basis, order, max_degree, leads=leads)
                    == normal_form(f, basis, order, max_degree))


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_buchberger_matches_reference_on_apolar_ideals(field):
    rng = random.Random(31)
    ideals = [random_apolar_ideal(rng, edim, degree, prefix, field)
              for edim, degree, prefix in ((1, 3, "U"), (2, 2, "Y"), (2, 3, "Z"), (2, 4, "W"))]
    for I in ideals:
        probes = [_random_poly(rng, I.ring, 4) for _ in range(3)]
        for order in _orders(I.ring.nvars):
            _assert_matches_reference(list(I.generators), order, probes)
    # the connected-sum ideal, also under a block order: `check_split` no
    # longer eliminates, but `groebner_basis` still takes any term order
    # on the factors' bases, the cross products and the socle difference,
    # which are not a Groebner basis
    R, S = build_algebra(ideals[1]), build_algebra(ideals[2])
    Q = connected_sum(R, S).algebra
    probes = [_random_poly(rng, Q.ring, 3) for _ in range(3)]
    for order in (Grevlex(4), Block((0, 1), (2, 3))):
        _assert_matches_reference(list(connected_sum_ideal(R, S).generators), order, probes)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_buchberger_matches_reference_on_seeded_generators(field):
    rng = random.Random(8)
    for nvars in (2, 3, 3, 2, 3, 3):
        ring = PolyRing(field, tuple(f"V{i}" for i in range(nvars)))
        gens = [ring.var(i) ** rng.randint(3, 5) for i in range(nvars)]
        gens += [_random_poly(rng, ring, 3, low=2) for _ in range(rng.randint(1, 3))]
        probes = [_random_poly(rng, ring, 5) for _ in range(3)]
        for order in _orders(nvars):
            _assert_matches_reference(gens, order, probes)


@st.composite
def generator_sets(draw):
    field = draw(st.sampled_from(FIELDS))
    nvars = draw(st.integers(1, 3))
    ring = PolyRing(field, tuple(f"V{i}" for i in range(nvars)))
    exponent = st.tuples(*[st.integers(0, 3)] * nvars)
    poly = st.dictionaries(exponent, st.integers(-5, 5), max_size=4).map(ring.poly)
    gens = [ring.var(i) ** draw(st.integers(1, 4)) for i in range(nvars)]
    gens += draw(st.lists(poly, min_size=1, max_size=3))
    order = draw(st.sampled_from(_orders(nvars)))
    probes = draw(st.lists(poly, min_size=1, max_size=2))
    return gens, order, probes


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(generator_sets())
def test_buchberger_matches_reference_on_hypothesis_inputs(case):
    gens, order, probes = case
    _assert_matches_reference(gens, order, probes, max_degree=12)


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
    A = kernel_algebra(ring, monos, classes)
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


@st.composite
def dual_polynomials(draw):
    field = draw(st.sampled_from(FIELDS))
    nvars = draw(st.integers(1, 3))
    ring = PolyRing(field, tuple(f"w{i}" for i in range(nvars)))
    exponent = st.tuples(*[st.integers(0, 3)] * nvars).filter(lambda m: 0 < sum(m) <= 4)
    F = draw(st.dictionaries(exponent, st.integers(-5, 5), min_size=1, max_size=4)
             .map(ring.poly).filter(lambda p: not p.is_zero()))
    return F


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(dual_polynomials())
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
    monos = [m for d in range(3) for m in ring.monomials_of_degree(d)]
    top = [m for m in monos if sum(m) == 2 and m != (1, 1)]
    rows = np.array([[int(m == t) for m in monos] for t in top], dtype=np.int64)
    with pytest.raises(ArtinsumError) as info:
        kernel_algebra(ring, monos, sparse_rows(field, right_kernel_reference(field, rows).T))
    assert "m^2 inside the ideal" in str(info.value)
    assert "X*Y" in str(info.value)
    rows = np.vstack([rows, [int(m == (1, 1)) for m in monos]])
    A = kernel_algebra(ring, monos, sparse_rows(field, right_kernel_reference(field, rows).T))
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
@given(dual_polynomials())
def test_split_cross_products_match_ideal_membership_on_hypothesis_inputs(F):
    A = apolar_algebra(F, tuple(f"X{i}" for i in range(F.ring.nvars)))
    if A.is_gorenstein() and A.edim >= 2:
        _assert_cross_products_match_reference(A)
