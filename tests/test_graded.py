"""Associated graded rings, linear-socle splitting, the filtration quotient, classifiers."""

import random
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from artinsum import (GF, QQ, PolyRing, algebra_from_text, apolar_algebra,
                      associated_graded, classify, connected_sum, fibre_product,
                      gls_split, iarrobino, is_gls, parse_polynomial, structure_decompose)
from artinsum import graded, quotient
from artinsum.errors import ArtinsumError, PreconditionError
from artinsum.graded import (compressed_hilbert, interior_socle_dimension, linear_socle_rows,
                             socle_by_degree)
from artinsum.grobner import IdealPresentation, buchberger
from artinsum.quotient import presentation_in_coordinates, quotient_algebra

from corpus import golden_texts, pair_corpus, random_gorenstein, random_pair
from oracles import (build_algebra_reference, dense, degreewise_generators_reference,
                     graded_from_homogeneous, gls_split_reference, initial_form_generators,
                     normal_form_table_reference, residue_field_algebra,
                     socle_by_degree_reference, typed_table)

STRETCHED = "field QQ; vars Y Z; ideal Y*Z, Z^2-Y^3"


def gb_strings(graded):
    return sorted(str(g) for g in graded.gb)


def test_initial_forms_of_stretched_example():
    A = algebra_from_text(STRETCHED)
    G = associated_graded(A)
    assert gb_strings(G) == ["Y*Z", "Y^4", "Z^2"]
    assert G.hilbert_function() == A.hilbert_function() == (1, 2, 1, 1)


def test_graded_input_is_fixed_point():
    A = algebra_from_text("field QQ; vars Y; ideal Y^3")
    G = associated_graded(A)
    assert G.same_presentation(A)
    assert G.length == A.length
    assert associated_graded(G) is G


def test_gr_of_sum_with_unequal_loewy_lengths_splits():
    # factors with Loewy lengths 4 and 2: gr(Q) = gr(R) x_k gr(S/soc S)
    R = algebra_from_text("field QQ; vars Y1 Y2; ideal Y1^2*Y2, Y1^3-Y2^2")
    S = algebra_from_text("field QQ; vars Z; ideal Z^3")
    Q = connected_sum(R, S).algebra
    G = associated_graded(Q)
    gr_r = associated_graded(R)
    s_mod_socle = algebra_from_text("field QQ; vars Z; ideal Z^2")
    fp = fibre_product(gr_r, s_mod_socle).algebra
    assert G.same_presentation(fp)


def test_graded_socle_degrees():
    A = algebra_from_text(STRETCHED)
    G = associated_graded(A)
    socle = socle_by_degree(G)
    assert {d: len(r) for d, r in socle.items()} == {1: 1, 3: 1}
    # dict rows over all of G's basis: Z in degree 1, Y^3 in degree 3
    assert [G.lift(row) for d in (1, 3) for row in socle[d]] == [
        G.ring.var(1), G.ring.var(0) ** 3]
    assert interior_socle_dimension(G) == 1

    B = associated_graded(algebra_from_text("field QQ; vars Y; ideal Y^3"))
    assert {d: len(r) for d, r in socle_by_degree(B).items()} == {2: 1}
    assert linear_socle_rows(B) == []

    big = associated_graded(algebra_from_text(
        "field QQ; vars Y1 Y2 Z; ideal Y1*Z, Y2*Z, Y1^2*Y2, Y2^2, Y1^4-Z^4"))
    assert big.type == 2
    assert interior_socle_dimension(big) == 2  # one in degree 2, one in degree 4


def test_is_gls_examples():
    G = associated_graded(algebra_from_text(STRETCHED))
    flag, witness = is_gls(G)
    assert flag
    assert witness == [{1: 1}]  # the class of Z, a dict row over the variables

    H = associated_graded(algebra_from_text("field QQ; vars Y Z; ideal Y^2, Y*Z, Z^3"))
    flag, witness = is_gls(H)
    assert flag and len(witness) == 1

    flat = associated_graded(algebra_from_text("field QQ; vars Y Z; ideal Y^2, Y*Z, Z^2"))
    with pytest.raises(PreconditionError):
        is_gls(flat)  # Loewy length 1 is outside the contract


def test_graded_readers_reject_a_non_graded_algebra():
    A = algebra_from_text(STRETCHED)  # Z^2 - Y^3 is not homogeneous
    for reader in (is_gls, gls_split, socle_by_degree, linear_socle_rows,
                   interior_socle_dimension):
        with pytest.raises(ArtinsumError, match="non-homogeneous"):
            reader(A)


def test_homogeneity_is_read_off_the_products_without_a_reduced_basis():
    algebras = [algebra_from_text(STRETCHED)]
    for R, S in pair_corpus(3, seed=31, max_edim=3, max_ll=4, min_ll=2):
        algebras += [R, connected_sum(R, S).algebra]
    for A in algebras:
        G = associated_graded(A)
        socle_by_degree(G)
        is_gls(G)
        assert "gb" not in G.__dict__
        # the products raise degree by one exactly when the reduced basis is
        # made of forms
        for B in (A, G):
            homogeneous = all(g.is_homogeneous() for g in B.gb)
            try:
                graded._homogeneous(B)
            except ArtinsumError:
                assert not homogeneous
            else:
                assert homogeneous
    assert not all(g.is_homogeneous() for g in algebras[0].gb)


def test_gls_split_stretched():
    G = associated_graded(algebra_from_text(STRETCHED))
    split = gls_split(G)
    assert [str(g) for g in split.gorenstein_part.gb] == ["Y^4"]
    assert split.square_zero_part.edim == 1
    assert split.eliminated == ("Z",)
    assert split.gorenstein_part.loewy_length == G.loewy_length


def test_gls_split_gorenstein_input_is_trivial():
    G = associated_graded(algebra_from_text("field QQ; vars Y; ideal Y^4"))
    split = gls_split(G)
    assert split.gorenstein_part.same_presentation(G)
    assert split.square_zero_part.edim == 0
    assert split.square_zero_part.length == 1


def test_gls_split_short_ring():
    # H = (1, h, n, 1) short: the Gorenstein part has embedding dimension n
    k = GF(101)
    dual = PolyRing(k, ("w1", "w2"))
    R = apolar_algebra(parse_polynomial("w1^3 + w2^3 + w1*w2^2", dual), ("Y1", "Y2"))
    assert R.hilbert_function() == (1, 2, 2, 1)
    S = apolar_algebra(parse_polynomial("u1^2+u2^2", PolyRing(k, ("u1", "u2"))),
                       ("Z1", "Z2"))
    Q = connected_sum(R, S).algebra
    H = Q.hilbert_function()
    assert len(H) == 4 and H[2] >= 2 and H[3] == 1  # short
    G = associated_graded(Q)
    split = gls_split(G)
    assert split.gorenstein_part.edim == H[2]


def _fibre_presentation(a_part, b_part):
    P = fibre_product(a_part, b_part).algebra
    return IdealPresentation(P.ring, list(P.gb))


def test_gls_three_way_equivalences():
    # (i) interior socle dim 1; (ii) G = A x_k B after straightening the
    # witness coordinates; (iii) the projection kills nothing in degrees >= 2
    instances = [
        algebra_from_text(STRETCHED),
        algebra_from_text("field QQ; vars Y Z; ideal Y*Z, Y^4-Z^2"),
    ]
    rng = random.Random(17)
    for _ in range(3):
        R, S = random_pair(rng, max_edim=2, max_ll=4, min_ll=2)
        if R.loewy_length >= 3 and S.loewy_length == 2:
            instances.append(connected_sum(R, S).algebra)
    for Q in instances:
        G = associated_graded(Q)
        flag, witness = is_gls(G)
        if not flag:
            continue
        split = gls_split(G)
        A, B = split.gorenstein_part, split.square_zero_part
        # (iii): dimensions drop only in degree one
        ha, hg = A.hilbert_function(), G.hilbert_function()
        n = len(split.witness_forms)
        assert hg[1] == ha[1] + n
        assert all(hg[i] == (ha[i] if i < len(ha) else 0) for i in range(2, len(hg)))
        # (ii): straighten coordinates so the witnesses become the pivots
        ring = G.ring
        images = [ring.var(i) for i in range(ring.nvars)]
        for name, expr in split.substitution.items():
            idx = ring.index[name]
            images[idx] = ring.var(idx) + expr.rename_into(ring)
        moved = [g.compose(ring, images) for g in G.gb]
        ordered = PolyRing(ring.field, A.ring.names + B.ring.names)
        moved_ideal = IdealPresentation(
            ordered, [g.rename_into(ordered) for g in moved])
        assert moved_ideal == _fibre_presentation(A, B)


def test_iarrobino_values():
    A = algebra_from_text(STRETCHED)
    data, q0 = iarrobino(A)
    assert q0.hilbert_function() == (1, 1, 1, 1)
    assert data.dim == 1
    # C is spanned by Z in degree one: a dict row over the degree-1
    # standard monomials of gr(A), Z before Y
    assert data.components == {1: [{0: 1}]} and data.forms == [A.ring.var(1)]

    k = GF(101)
    R = apolar_algebra(parse_polynomial("w1^3 + w2^3 + w1*w2^2", PolyRing(k, ("w1", "w2"))),
                       ("Y1", "Y2"))
    S = apolar_algebra(parse_polynomial("u1^2", PolyRing(k, ("u1",))), ("Z1",))
    Q = connected_sum(R, S).algebra
    assert Q.hilbert_function() == (1, 3, 2, 1)
    _, q0_short = iarrobino(Q)
    assert q0_short.hilbert_function() == (1, 2, 2, 1)

    graded_gor = algebra_from_text("field QQ; vars Y; ideal Y^4")
    data, q0 = iarrobino(graded_gor)
    assert data.dim == 0
    assert q0.same_presentation(associated_graded(graded_gor))


@pytest.mark.parametrize("field", [GF(101), GF(1048573), QQ], ids=repr)
def test_degreewise_presentations_match_buchberger(field):
    # gr(A) and Q0, each presented by one kernel, against Buchberger on the
    # generators they were built from before: the initial forms degree by
    # degree, and for Q0 those joined by the forms of the filtration ideal.
    # Q0 is compared as an algebra: when the filtration ideal has linear
    # forms, both routes present it on fewer variables
    algebras = []
    for R, S in pair_corpus(3, max_edim=2, max_ll=4, field=field):
        algebras += [R, S]
        result = connected_sum(R, S)
        if not result.trivial:
            algebras.append(result.algebra)
    for A in algebras:
        G = associated_graded(A)
        assert G.gb == tuple(buchberger(initial_form_generators(A)))
        data, q0 = iarrobino(A)
        reference = graded_from_homogeneous(A.ring, list(G.gb) + data.forms)
        assert q0.same_presentation(reference)
        # the components are dict rows over each degree's standard monomials,
        # one per form
        assert data.dim == len(data.forms)
        pieces = {d: [m for m in G.basis if sum(m) == d] for d in data.components}
        assert data.forms == [G.ring.poly({pieces[d][k]: c for k, c in row.items()})
                              for d, rows in data.components.items() for row in rows]


@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_degreewise_algebras_match_the_per_degree_preimage_route_on_hidden_sums(data):
    # gr(A) and Q0 from one matrix of residues against the forms taken one
    # degree at a time as preimages, presented by Buchberger and substitution;
    # a unitriangular change of coordinates with quadratic terms keeps the
    # presentation of A from being graded.  The sums have edim at most 3 and
    # are kept off Loewy length 4 with edim 3, where the reference takes
    # seconds per example over QQ
    field = data.draw(st.sampled_from([GF(101), GF(1048573), QQ]))
    edim = data.draw(st.integers(1, 2))
    rng = random.Random(data.draw(st.integers(0, 2 ** 16)))
    R = random_gorenstein(rng, edim, data.draw(st.integers(2, 5 - edim)), "Y", field)
    S = random_gorenstein(rng, 1, data.draw(st.integers(2, 4)), "Z", field)
    Q = connected_sum(R, S).algebra
    ring = Q.ring

    def coeff():
        return data.draw(st.integers(-3, 3))

    images = [ring.var(v) + sum((ring.var(j).scale(coeff()) for j in range(v)), ring.zero)
              + (ring.var(data.draw(st.integers(0, ring.nvars - 1))) ** 2).scale(coeff())
              for v in range(ring.nvars)]
    A = presentation_in_coordinates(Q, ring, [Q.element_row(f) for f in images])
    s = A.loewy_length
    q0_targets = [A.annihilator(A.power(s - i).basis.values()).intersect(A.power(i))
                  .add(A.power(i + 1)) for i in range(s + 1)] + [A.power(s + 2)]
    gr_targets = [A.power(d + 1) for d in range(s + 2)]
    for got, targets in ((associated_graded(A), gr_targets), (iarrobino(A)[1], q0_targets)):
        expected = build_algebra_reference(
            IdealPresentation(ring, degreewise_generators_reference(A, targets)))
        assert got.same_presentation(expected)
        assert got.basis == expected.basis
        assert typed_table(got.struct_table) == typed_table(expected.struct_table)


def test_classify_patterns():
    st = classify(algebra_from_text(STRETCHED))
    assert (st.short, st.stretched, st.compressed) == (False, True, False)
    ci = classify(algebra_from_text("field QQ; vars X1 X2 X3; ideal X1^2, X2^2, X3^2"))
    assert (ci.short, ci.stretched, ci.compressed) == (True, False, True)
    hyp = classify(algebra_from_text("field QQ; vars Y; ideal Y^3"))
    assert (hyp.short, hyp.stretched, hyp.compressed) == (False, True, True)


def test_compressed_hilbert_values():
    assert compressed_hilbert(2, 3) == (1, 2, 2, 1)
    assert compressed_hilbert(3, 4) == (1, 3, 6, 3, 1)


@pytest.mark.parametrize("field", [QQ, GF(101), GF(1048573)], ids=repr)
def test_a_graded_algebra_is_its_own_associated_graded_ring(field):
    # differential against the quotient by the powers of m, which presents
    # a graded algebra as it is
    algebras = [algebra_from_text(text) for text in golden_texts(field)]
    for R, S in pair_corpus(4, seed=61, max_edim=3, max_ll=4, min_ll=2, field=field):
        Q = connected_sum(R, S).algebra
        G = associated_graded(Q)
        algebras += [R, S, Q, fibre_product(R, S).algebra, G, iarrobino(Q)[1]]
        if G.loewy_length >= 2 and is_gls(G)[0]:
            split = gls_split(G)
            algebras += [split.gorenstein_part, split.square_zero_part]
    graded_ones = [A for A in algebras if A.homogeneous]
    assert len(graded_ones) >= 12 and len(graded_ones) < len(algebras)
    for A in graded_ones:
        assert associated_graded(A) is A
        old = quotient_algebra(A, [A.power(d + 1) for d in range(A.loewy_length + 2)])
        assert old.same_presentation(A) and old.hilbert_function() == A.hilbert_function()


def test_gr_of_fibre_product_is_fibre_of_gr():
    pairs = [(algebra_from_text("field QQ; vars Y; ideal Y^3"),
              algebra_from_text("field QQ; vars Z1 Z2; ideal Z1^2, Z2^2"))]
    rng = random.Random(29)
    pairs.append(random_pair(rng, max_edim=2, max_ll=3))
    for R, S in pairs:
        P = fibre_product(R, S).algebra
        rhs = fibre_product(associated_graded(R), associated_graded(S)).algebra
        assert associated_graded(P).same_presentation(rhs)


def test_associated_graded_is_built_once_per_algebra(monkeypatch):
    # the quotients that `graded` asks for, by algebra and by asking function
    built, callers = Counter(), Counter()
    original = graded.quotient_algebra

    def counting(A, targets):
        caller = sys._getframe(1).f_code.co_name
        built[A, caller] += 1
        callers[caller] += 1
        return original(A, targets)

    monkeypatch.setattr(graded, "quotient_algebra", counting)
    text = (Path(__file__).resolve().parent / "golden" / "hidden_sum.txt").read_text()
    Q = algebra_from_text(text)
    report = structure_decompose(Q)
    assert report.status == "decomposed"
    gr_built = Counter({A: n for (A, caller), n in built.items() if caller == "associated_graded"})
    # Q and the split algebra; the left component is graded, its own gr
    R = report.components[0]
    assert gr_built[Q] == 1 and len(gr_built) == 2 and set(gr_built.values()) == {1}
    assert R.homogeneous and R not in gr_built and associated_graded(R) is R
    # and the Gorenstein part of gr of the split algebra, once
    assert callers == Counter(associated_graded=2, gls_split=1)
    assert associated_graded(Q) is associated_graded(Q)


def test_gls_split_presents_each_part_by_one_kernel(monkeypatch):
    calls = Counter()
    for name in ("kernel_algebra", "subalgebra"):
        def counting(*args, _name=name, _original=getattr(quotient, name)):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(quotient, name, counting)
    text = (Path(__file__).resolve().parent / "golden" / "hidden_sum.txt").read_text()
    G = associated_graded(algebra_from_text(text))
    calls.clear()
    split = gls_split(G)
    assert split.eliminated and split.gorenstein_part.edim < G.edim
    # the quotient by the witness forms, which eliminates them and presents
    # the rest by one call on the kept variables; the square-zero part is
    # assembled directly, not as a kernel
    assert calls == Counter(kernel_algebra=2)


# -- the linear-socle split by linear algebra against the Buchberger route ---

def _hidden(Q, coeff):
    """Q presented on unitriangular linear combinations of its variables."""
    ring = Q.ring
    images = [ring.var(v) + sum((ring.var(j).scale(coeff()) for j in range(v)), ring.zero)
              for v in range(ring.nvars)]
    return presentation_in_coordinates(Q, ring, [Q.element_row(f) for f in images])


def _assert_same_graded(got, expected):
    assert got.ring == expected.ring
    assert got.gb == expected.gb
    assert got.basis == expected.basis
    assert typed_table(got.struct_table) == typed_table(expected.struct_table)
    assert typed_table(got.struct_table) == typed_table(normal_form_table_reference(got))


def _assert_socle_matches_reference(G):
    got, expected = socle_by_degree(G), socle_by_degree_reference(G)
    assert list(got) == list(expected)
    for d, rows in expected.items():
        written = dense(G.field, got[d], G.length)
        assert written.dtype == rows.dtype and np.array_equal(written, rows)


@pytest.mark.parametrize("field", [GF(101), GF(1048573), QQ], ids=repr)
def test_graded_socle_matches_reference_on_seeded_algebras(field):
    algebras = [residue_field_algebra(field)]
    for R, S in pair_corpus(6, seed=3, max_edim=2, max_ll=4, field=field):
        algebras += [R, S, connected_sum(R, S).algebra, fibre_product(R, S).algebra]
    for A in algebras:
        _assert_socle_matches_reference(associated_graded(A))


def _assert_split_matches_reference(G):
    _assert_socle_matches_reference(G)
    got, expected = gls_split(G), gls_split_reference(G)
    _assert_same_graded(got.gorenstein_part, expected.gorenstein_part)
    _assert_same_graded(got.square_zero_part, expected.square_zero_part)
    assert got.witness_forms == expected.witness_forms
    assert got.eliminated == expected.eliminated
    assert got.substitution == expected.substitution


@pytest.mark.parametrize("field", [GF(101), GF(1048573), QQ], ids=repr)
def test_gls_split_matches_reference_on_seeded_sums(field):
    rng = random.Random(37)
    instances = []
    for R, S in pair_corpus(8, seed=3, max_edim=2, max_ll=4, min_ll=2, field=field):
        result = connected_sum(R, S)
        if not result.trivial:
            instances.append(result.algebra)
    checked = 0
    for Q in instances:
        for A in (Q, _hidden(Q, lambda: rng.randint(-3, 3))):
            G = associated_graded(A)
            if G.loewy_length >= 2 and is_gls(G)[0]:
                _assert_split_matches_reference(G)
                checked += bool(G.type > 1)
    assert checked


@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_gls_split_matches_reference_on_hypothesis_sums(data):
    # R graded Gorenstein of socle degree 3, S of Loewy length 2: gr(R # S) is
    # Gorenstein up to the linear socle of S, here in hidden coordinates
    field = data.draw(st.sampled_from([GF(101), GF(1048573), QQ]))
    nvars, n = data.draw(st.integers(1, 2)), data.draw(st.integers(1, 2))
    dual = PolyRing(field, tuple(f"w{i}" for i in range(nvars)))
    forms = dual.monomials_of_degree(3)
    terms = data.draw(st.dictionaries(st.sampled_from(forms), st.integers(-3, 3), max_size=3))
    terms[data.draw(st.sampled_from(forms))] = data.draw(st.integers(1, 3))
    R = apolar_algebra(dual.poly(terms), tuple(f"Y{i + 1}" for i in range(nvars)))
    squares = PolyRing(field, tuple(f"v{j}" for j in range(n)))
    S = apolar_algebra(squares.poly({tuple(2 * (i == j) for i in range(n)):
                                     data.draw(st.integers(1, 4)) for j in range(n)}),
                       tuple(f"Z{j + 1}" for j in range(n)))
    Q = connected_sum(R, S).algebra
    G = associated_graded(_hidden(Q, lambda: data.draw(st.integers(-3, 3))))
    assert is_gls(G)[0] and G.type == n + 1
    _assert_split_matches_reference(G)
