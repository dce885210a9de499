"""Independent oracles used to pin derived expected values.

These deliberately avoid the code paths they check: ideal membership is
certified by finding explicit cofactors with bounded-degree linear algebra,
and subalgebras are cross-checked by ranking normal-form images of subring
monomials.  The `*_reference` functions keep the earlier, slower forms of
routines that were made fast, for differential tests: Gauss-Jordan on
Fractions, the per-column kernel loop, the per-vector complement loop, the
pair-rescanning Buchberger, the substitution loop that made presentations
minimal, the resolution loop that took Betti numbers by row reduction
against m times the kernel, the block-order elimination that contracted
an ideal to the ring on a subset of its variables, and the fibre products
and connected sums built by Buchberger and normal forms from their
generator lists.
"""

from fractions import Fraction

import numpy as np

from artinsum import linalg
from artinsum.errors import (ArtinsumError, NotLocalError, NotZeroDimensionalError,
                             UnitIdealError)
from artinsum.grobner import (IdealPresentation, _check_degree, degree_guard, normal_form,
                              s_polynomial)
from artinsum.poly import (Block, Polynomial, PolyRing, mono_coprime, mono_deg, mono_div,
                           mono_lcm)
from artinsum.quotient import ArtinAlgebra, build_algebra
from artinsum.resolution import _module_times_element, _unit_entry
from artinsum.sums import (_combined_ring, _embed, _fibre_generators, _validate_socle,
                           socle_generator)


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


def rref_fraction_reference(a):
    """Gauss-Jordan on Fractions, in place; returns (rank, pivot column array).

    `linalg.rref` over QQ must give the same matrix and pivots.
    """
    m, n = a.shape
    pivots = []
    r = 0
    for c in range(n):
        pr = next((i for i in range(r, m) if a[i, c] != 0), None)
        if pr is None:
            continue
        if pr != r:
            a[[r, pr]] = a[[pr, r]]
        inv = Fraction(1) / a[r, c]
        if inv != 1:
            a[r, c:] = a[r, c:] * inv
        for i in range(m):
            f = a[i, c]
            if i != r and f != 0:
                a[i, c:] = a[i, c:] - f * a[r, c:]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return r, np.asarray(pivots, dtype=np.int64)


def right_kernel_reference(field, a):
    """Rows spanning {v : a @ v = 0}, filled entry by entry from the rref."""
    a = np.asarray(a)
    m, n = a.shape
    r, pivots = linalg.rref(field, a)
    pivset = set(int(c) for c in pivots)
    free = [c for c in range(n) if c not in pivset]
    basis = linalg.zeros(field, (len(free), n))
    one = field.one
    for k, c in enumerate(free):
        basis[k, c] = one
        for row_idx, pc in enumerate(pivots):
            v = r[row_idx, c]
            if v != field.zero:
                basis[k, int(pc)] = field.neg(v)
    return basis


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


def _minimalize_reference(basis, order):
    kept = []
    for f in sorted(basis, key=lambda h: order.key(h.leading(order)[0])):
        lm = f.leading(order)[0]
        if all(mono_div(lm, g.leading(order)[0]) is None for g in kept):
            kept.append(f)
    return kept


def _interreduce_reference(basis, order, cap):
    out = []
    for i, f in enumerate(basis):
        others = basis[:i] + basis[i + 1:]
        r = normal_form(f, others, order, cap)
        if not r.is_zero():
            out.append(r.monic(order))
    return sorted(out, key=lambda h: order.key(h.leading(order)[0]))


def buchberger_reference(generators, order, max_degree=None):
    """The reduced Groebner basis by rescanning every pending pair at each step.

    Recomputes leading terms wherever it needs them and picks the next pair
    with `min` over the pending set; `grobner.buchberger` must return the
    same basis.
    """
    cap = max_degree if max_degree is not None else degree_guard()
    gens = [g for g in generators if not g.is_zero()]
    if not gens:
        return []
    basis = []
    for g in gens:
        _check_degree(g, cap)
        basis.append(g.monic(order))
    pairs = {(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))}

    def pair_key(p):
        lcm = mono_lcm(basis[p[0]].leading(order)[0], basis[p[1]].leading(order)[0])
        return (mono_deg(lcm), order.key(lcm), p)

    while pairs:
        i, j = min(pairs, key=pair_key)
        pairs.discard((i, j))
        lm_i = basis[i].leading(order)[0]
        lm_j = basis[j].leading(order)[0]
        if mono_coprime(lm_i, lm_j):
            continue
        lcm = mono_lcm(lm_i, lm_j)
        # chain criterion: an element whose lead divides the lcm, with both
        # companion pairs already handled, makes this pair redundant
        skip = False
        for k in range(len(basis)):
            if k in (i, j):
                continue
            if mono_div(lcm, basis[k].leading(order)[0]) is not None:
                a, b = (min(i, k), max(i, k)), (min(j, k), max(j, k))
                if a not in pairs and b not in pairs:
                    skip = True
                    break
        if skip:
            continue
        s = s_polynomial(basis[i], basis[j], order)
        r = normal_form(s, basis, order, cap)
        if not r.is_zero():
            _check_degree(r, cap)
            basis.append(r.monic(order))
            new = len(basis) - 1
            pairs.update((k, new) for k in range(new))
    return _interreduce_reference(_minimalize_reference(basis, order), order, cap)


def contract_reference(pres, keep):
    """Generators of the contraction to the subring on the kept variables.

    `keep` is a list of variable names or indices; the elimination runs
    under a block order with the dropped variables in front.
    `quotient.subalgebra` must give the same reduced basis.
    """
    ring = pres.ring
    keep_idx = []
    for v in keep:
        keep_idx.append(ring.index[v] if isinstance(v, str) else int(v))
    keep_idx = sorted(set(keep_idx))
    drop_idx = [i for i in range(ring.nvars) if i not in set(keep_idx)]
    sub = PolyRing(ring.field, [ring.names[i] for i in keep_idx])
    if not keep_idx:
        gens = [sub.one] if pres.is_unit_ideal() else []
        return IdealPresentation(sub, gens)
    order = Block(drop_idx, keep_idx) if drop_idx else ring.order
    gb = pres.groebner_basis(order)
    drop = set(drop_idx)
    index_map = {old: new for new, old in enumerate(keep_idx)}
    kept = []
    for g in gb:
        if g.support_vars() & drop:
            continue
        kept.append(g.rename_into(sub, [index_map.get(i, 0) for i in range(ring.nvars)]))
    result = IdealPresentation(sub, kept)
    # on monomials in the kept variables the block order is the subring's
    # grevlex, so by the elimination theorem the kept elements already
    # are its reduced basis, monic and in ascending order
    result._gb_cache[sub.order] = tuple(kept)
    return result


def initial_form_generators(A):
    """Homogeneous generators of the ideal of gr(A), degree by degree up to s + 1.

    Degree d contributes the forms whose image in A lies in m^(d+1); the
    reduced basis of these by `buchberger` must be the presentation of
    `graded.associated_graded`.
    """
    ring = A.ring
    gens = []
    for d in range(1, A.loewy_length + 2):
        monos = ring.monomials_of_degree(d)
        images = linalg.matrix(A.field, [A._nf_monomial_vector(m) for m in monos],
                               width=A.length)
        rows = linalg.preimage_rows(A.field, images, A.power(d + 1).rows)
        gens.extend(Polynomial(ring, {m: c for m, c in zip(monos, r) if c != A.field.zero})
                    for r in rows)
    return gens


# ---------------------------------------------------------------------------
# minimal presentations by substitution

def _linear_coefficients(poly):
    out = {}
    for m, c in poly.terms.items():
        if mono_deg(m) == 1:
            out[m.index(1)] = c
    return out


def _truncate(poly, cap):
    return Polynomial(poly.ring, {m: c for m, c in poly.terms.items() if mono_deg(m) < cap})


def _nilpotency_bound(pres, length):
    """Smallest per-variable nilpotency exponents; fails when not local."""
    ring = pres.ring
    bounds = []
    for i in range(ring.nvars):
        power = ring.var(i)
        t = None
        for k in range(1, length + 2):
            if k > 1:
                power = pres.normal_form(power * ring.var(i))
            else:
                power = pres.normal_form(power)
            if power.is_zero():
                t = k
                break
        if t is None:
            raise NotLocalError(
                f"variable {ring.names[i]} is not nilpotent; the quotient is not local")
        bounds.append(t)
    return bounds


def _eliminate_variable(pres, gb, idx, coeff, bound_n):
    """Substitute away variable idx using a basis element with linear part."""
    ring = pres.ring
    fld = ring.field
    g = next(h for h in gb if _linear_coefficients(h).get(idx) == coeff)
    x = ring.var(idx)
    h = g - x.scale(coeff)
    neg_inv = fld.neg(fld.inv(coeff))
    phi = ring.zero
    for _ in range(bound_n + 2):
        nxt = _truncate(h.substitute({idx: phi}).scale(neg_inv), bound_n)
        if nxt == phi:
            break
        phi = nxt
    else:
        raise ArtinsumError("linear elimination did not stabilize")
    if idx in phi.support_vars():
        raise ArtinsumError("linear elimination left the variable in its own image")
    if not pres.contains(x - phi):
        raise ArtinsumError("linear elimination produced an inconsistent substitution")
    sub = PolyRing(fld, [n for i, n in enumerate(ring.names) if i != idx])
    images = []
    pos = 0
    for i in range(ring.nvars):
        if i == idx:
            images.append(sub.zero)  # placeholder, patched below
        else:
            images.append(sub.var(pos))
            pos += 1
    # phi never mentions the eliminated variable, so the placeholder is inert
    images[idx] = phi.compose(sub, images)
    new_gens = [f.compose(sub, images) for f in gb]
    return IdealPresentation(sub, new_gens), images


def minimalize_presentation(pres, bounds=None):
    """Eliminate linear relations until the ideal sits inside the square of m.

    Returns (minimal presentation, steps); each step is (target ring, images)
    mapping the previous ring onto the next one.  `bounds` may carry the
    `_nilpotency_bound` of `pres` when the caller has it already.
    """
    steps = []
    while True:
        gb = pres.groebner_basis()
        std = pres.standard_monomials()
        target = None
        for g in gb:
            lin = _linear_coefficients(g)
            if lin:
                idx = min(lin)
                target = (idx, lin[idx])
                break
        if target is None:
            return pres, steps
        if bounds is None:
            bounds = _nilpotency_bound(pres, len(std))
        bound_n = sum(t - 1 for t in bounds) + 1
        new_pres, images = _eliminate_variable(pres, gb, target[0], target[1], bound_n)
        new_std = new_pres.standard_monomials()
        if new_std is None or len(new_std) != len(std):
            raise ArtinsumError("linear elimination changed the quotient dimension")
        steps.append((new_pres.ring, images))
        pres, bounds = new_pres, None


def build_algebra_reference(pres):
    """The algebra of `pres`, made minimal by one substitution fixed point per variable.

    `quotient.build_algebra` must give the same ring, reduced basis,
    standard basis, structure tensor and classes, or the same error class.
    """
    if pres.is_unit_ideal():
        raise UnitIdealError("1 lies in the ideal")
    if not pres.is_zero_dimensional():
        raise NotZeroDimensionalError("quotient is infinite-dimensional")
    bounds = _nilpotency_bound(pres, len(pres.standard_monomials()))
    minimal, steps = minimalize_presentation(pres, bounds)
    return ArtinAlgebra(minimal, pres.ring, steps)


def differential_matrix_reference(A, gens, prev_rank):
    """The k-linear matrix of d: free module on `gens` -> A^prev_rank, one product per generator."""
    lam = A.length
    struct = A.struct.reshape(lam, lam * lam)
    out = linalg.zeros(A.field, (len(gens) * lam, prev_rank * lam))
    for r, g in enumerate(gens):
        cube = linalg.mat_mul(A.field, g.reshape(prev_rank, lam), struct)
        cube = cube.reshape(prev_rank, lam, lam)
        # cube[t, k, j] = coefficient of e_j in (block t of g) * e_k
        out[r * lam: (r + 1) * lam, :] = cube.transpose(1, 0, 2).reshape(lam, prev_rank * lam)
    return out


def betti_numbers_reference(A, truncation):
    """beta_0..beta_truncation by complements against m times the re-echeloned kernel.

    Reads and writes no cache; `resolution.betti_numbers` must give the
    same tuple.
    """
    betti = [1]
    kernel_rows = A.power(1).rows
    prev_rank = 1
    for step in range(1, truncation + 1):
        if A.ring.nvars:
            stacked = np.vstack([_module_times_element(A.field, kernel_rows, mx)
                                 for mx in A.var_matrices])
        else:
            stacked = kernel_rows[:0]
        mk, mk_piv = linalg.echelon(A.field, stacked)
        gens = linalg.complement_rows(A.field, kernel_rows, mk, mk_piv)
        betti.append(len(gens))
        if step == truncation:
            break
        if not gens:
            betti.extend([0] * (truncation - step))
            break
        if _unit_entry(A, np.vstack(gens)):
            raise ArtinsumError("differential has a unit entry; resolution not minimal")
        diff = differential_matrix_reference(A, gens, prev_rank)
        kernel = linalg.left_kernel(A.field, diff)
        if diff.shape[0] - kernel.shape[0] != kernel_rows.shape[0]:
            raise ArtinsumError("resolution is not exact at the previous step")
        kernel_rows = linalg.echelon(A.field, kernel)[0]
        prev_rank = len(gens)
    return tuple(betti)


def fibre_product_reference(R, S):
    """R x_k S by `build_algebra` on the factors' generators and the cross products."""
    big = _combined_ring(R, S)
    return build_algebra(big, _fibre_generators(R, S, big))


def connected_sum_reference(R, S, unit=1, socle_left=None, socle_right=None):
    """R # S by `build_algebra` on the fibre product's generators and the socle difference."""
    big = _combined_ring(R, S)
    delta_r = socle_generator(R) if socle_left is None else _validate_socle(R, socle_left, "left")
    delta_s = socle_generator(S) if socle_right is None else _validate_socle(S, socle_right, "right")
    h = _embed(delta_r, big, 0) - _embed(delta_s, big, R.ring.nvars).scale(unit)
    return build_algebra(big, _fibre_generators(R, S, big) + [h])
