"""Independent oracles used to pin derived expected values.

These deliberately avoid the code paths they check: ideal membership is
certified by finding explicit cofactors with bounded-degree linear algebra,
and elimination is cross-checked by ranking normal-form images of subring
monomials, never by block orders.
"""

import numpy as np

from artinsum import linalg


def ideal_member(f, gens, max_degree=12):
    """Certify f in <gens> by exhibiting cofactors of bounded degree.

    Sound in both directions only up to the bound: returns True with an
    explicit certificate, or False when no cofactor combination of total
    degree <= max_degree exists.
    """
    ring = f.ring
    field = ring.field
    if f.is_zero():
        return True
    for cap in range(f.total_degree(), max_degree + 1):
        products = []
        for g in gens:
            top = cap - min(sum(m) for m in g.terms)
            for d in range(0, max(top, -1) + 1):
                for mono in ring.monomials_of_degree(d):
                    products.append(g.mul_term(mono, field.one))
        monos = sorted({m for p in products for m in p.terms} | set(f.terms))
        col = {m: j for j, m in enumerate(monos)}
        mat = linalg.zeros(field, (len(products), len(monos)))
        for i, p in enumerate(products):
            for m, c in p.terms.items():
                mat[i, col[m]] = c
        target = linalg.zeros(field, len(monos))
        for m, c in f.terms.items():
            target[col[m]] = c
        rows, pivots = linalg.echelon(field, mat)
        if linalg.in_row_space(field, target, rows, pivots):
            return True
    return False


def same_ideal(ideal_a, ideal_b, max_degree=12):
    """Mutual membership of generators, certified independently of Buchberger."""
    gens_a = list(ideal_a.generators)
    gens_b = list(ideal_b.generators)
    return (all(ideal_member(g, gens_a, max_degree) for g in gens_b)
            and all(ideal_member(g, gens_b, max_degree) for g in gens_a))


def subring_quotient_dimension(algebra, keep_names):
    """dim of the subalgebra generated by the kept variables, degree by degree.

    Equals the length of k[kept]/(I intersect k[kept]); stabilization of the
    normal-form image span certifies completeness without any elimination
    order.
    """
    ring = algebra.ring
    keep_idx = [ring.index[n] for n in keep_names]
    span_rows = linalg.matrix(algebra.field, [algebra.one_vector()], width=algebra.length)
    span, pivots = linalg.echelon(algebra.field, span_rows)
    frontier = [algebra.one_vector()]
    while True:
        new_frontier = []
        for v in frontier:
            for i in keep_idx:
                w = algebra.vec_mult_matrix_row(v, i)
                if not linalg.in_row_space(algebra.field, w, span, pivots):
                    span, pivots = linalg.echelon(
                        algebra.field, np.vstack([span, w.reshape(1, -1)]))
                    new_frontier.append(w)
        if not new_frontier:
            return span.shape[0]
        frontier = new_frontier


def complement_rows_reference(field, rows, base_rows, base_pivots):
    """Monic residues of `rows` extending the base: the per-vector loop.

    Reduces each row against the span accumulated so far and re-echelons
    the whole span after every kept row; `linalg.complement_rows` must give
    the same arrays in the same order.
    """
    out = []
    acc_rows, acc_piv = base_rows, base_pivots
    for w in rows:
        res = linalg.reduce_row(field, w, acc_rows, acc_piv)
        if np.any(res != field.zero):
            lead = next(i for i, c in enumerate(res) if c != field.zero)
            inv = field.inv(res[lead])
            res = np.asarray([field.mul(inv, c) for c in res], dtype=res.dtype)
            out.append(res)
            acc_rows, acc_piv = linalg.echelon(field, np.vstack([acc_rows, res.reshape(1, -1)]))
    return out
