"""Seeded benchmark inputs, emitted as text only.

Every workload is a fixed mix of input shapes; the seed draws the
coefficients (and, for ``decompose_qq``, the hidden linear change of the
dual variables).  Nothing here imports the library under test: the program
only ever receives the strings built below.  All coefficients are drawn with
every monomial present, so a shape's cost barely depends on the seed.
"""

import hashlib
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement

GF_P = 101

# (edim of F, degree of F, edim of G, degree of G, copies per pass).  Factor
# edim <= 2 and socle degree 2..5; edim-3 factors of degree 4 are left out
# because one such apolar algebra costs more than a whole pass.  Each mix is
# laid out so that, over two passes, the median and the tail rank each fall
# inside one class of shapes, a few places from its edges, so neither
# jumps between classes from seed to seed.  Here the median falls among the
# (2, 3, 2, 2) ops and the tail among the (2, 3, 2, 3) ops: shapes whose
# cost varies little with the coefficients, unlike (2, 2, 2, 2) or
# (2, 4, 2, 2), whose costs spread over a factor 1.6.
SUMS_MIX = (
    (1, 2, 1, 3, 1), (1, 3, 1, 3, 1), (1, 4, 1, 5, 1), (1, 5, 1, 4, 1),
    (2, 2, 1, 2, 1), (2, 2, 1, 3, 1), (1, 5, 2, 2, 1), (2, 2, 2, 2, 1),
    (2, 3, 2, 2, 5),
    (2, 3, 2, 3, 6),
    (2, 4, 2, 3, 1), (2, 5, 1, 3, 1),
)

# Same layout; the connected sum Q has edim <= 3.  Truncation 5 costs
# ~0.03-0.1 s on an edim-2 sum and ~0.9-1.2 s on an edim-3 sum; an edim-4
# sum costs ~30 s per op.  Three of the costliest edim-2 sums keep that
# case in the mix.  Both the median and the tail fall among the edim-3
# sums of a quadric pair with a cubic, below the costlier edim-3 sums; a
# quadric pair with a quadric costs ~20% less and would open a gap there.
# Percentiles of ops of ~0.1 s would be too noisy on a shared core.
POINCARE_MIX = (
    (1, 3, 1, 5, 1), (1, 4, 1, 4, 1), (1, 5, 1, 5, 1),
    (2, 2, 1, 3, 4), (1, 3, 2, 2, 3),
    (2, 3, 1, 2, 1), (2, 2, 1, 4, 1),
)
POINCARE_TRUNCATION = 5

# ("sum", s): F(u) of degree s plus b*v^2, a connected sum of k[x]/x^(s+1)
# and k[y]/y^3, hidden by a linear change of (u, v).  ("quartic", 4): a
# generic binary quartic, certified by H(2) = 3.  ("ci", 3): a product of
# three independent linear forms, a complete intersection of edim 3.  The
# last two are not connected sums and stop at the certificate step.  Both
# the median and the tail fall among the degree-4 sums.
DECOMPOSE_MIX = (
    ("sum", 3, 2), ("sum", 4, 8),
    ("quartic", 4, 2), ("ci", 3, 1),
)

PASS_SECONDS = 12.0
"""Seconds of ``--seconds`` per pass over a mix.  One pass costs 8-11 s of
CPU on a contended core of the machine that defined the benchmark, at that
commit.  ``--seconds`` is turned into a fixed pass count, so the work a run
does never depends on the speed of the program under test."""


@dataclass(frozen=True)
class OpInput:
    """One op's generated text plus what its construction guarantees."""

    kind: str
    duals: tuple          # ((dual variable names, polynomial text), ...)
    expect: dict


def monomials(nvars, degree):
    out = []
    for combo in combinations_with_replacement(range(nvars), degree):
        exps = [0] * nvars
        for i in combo:
            exps[i] += 1
        out.append(tuple(exps))
    return out


def poly_text(terms, names):
    """Text of an {exponents: int} mapping, in the parser's grammar."""
    pieces = []
    for exps in sorted(terms, key=lambda m: (-sum(m), m)):
        c = terms[exps]
        if c == 0:
            continue
        factors = "*".join(f"{names[i]}^{e}" if e > 1 else names[i]
                           for i, e in enumerate(exps) if e)
        body = f"{abs(c)}*{factors}" if factors else str(abs(c))
        pieces.append(("-" if c < 0 else "+", body))
    if not pieces:
        raise ValueError("empty polynomial")
    text = ("-" if pieces[0][0] == "-" else "") + pieces[0][1]
    for sign, body in pieces[1:]:
        text += f" {sign} {body}"
    return text


def _rank_mod_p(rows):
    rows = [list(r) for r in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c] % GF_P), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][c], GF_P - 2, GF_P)
        for i in range(len(rows)):
            if i != rank and rows[i][c] % GF_P:
                f = rows[i][c] * inv
                rows[i] = [(x - f * y) % GF_P for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _top_partials_independent(terms, nvars, degree):
    """Whether the first partials of the degree-`degree` part are independent mod p.

    When they are, the apolar algebra has embedding dimension ``nvars``, as
    the checks expect; a random binary quadratic fails with probability 1/p.
    """
    lower = monomials(nvars, degree - 1)
    rows = []
    for i in range(nvars):
        row = []
        for m in lower:
            up = tuple(e + (k == i) for k, e in enumerate(m))
            row.append(terms[up] * up[i])
        rows.append(row)
    return _rank_mod_p(rows) == nvars


def _dual_gf(rng, names, degree):
    """Every monomial of degree 2..degree with a nonzero coefficient mod p."""
    while True:
        terms = {m: rng.randrange(1, GF_P)
                 for d in range(2, degree + 1) for m in monomials(len(names), d)}
        if _top_partials_independent(terms, len(names), degree):
            return terms


def _small(rng, lo=-3, hi=3):
    while True:
        c = rng.randint(lo, hi)
        if c:
            return c


def _det(rows):
    a = [[Fraction(x) for x in r] for r in rows]
    n = len(a)
    det = Fraction(1)
    for c in range(n):
        p = next((i for i in range(c, n) if a[i][c] != 0), None)
        if p is None:
            return Fraction(0)
        if p != c:
            a[c], a[p] = a[p], a[c]
            det = -det
        det *= a[c][c]
        for i in range(c + 1, n):
            f = a[i][c] / a[c][c]
            a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return det


def _invertible(rng, n):
    # no zero entries: a sparse change would leave the text, and the cost of
    # its Fraction arithmetic, much smaller than a dense one
    while True:
        rows = [[_small(rng, -2, 2) for _ in range(n)] for _ in range(n)]
        if _det(rows) != 0:
            return rows


def _mul(p, q):
    out = {}
    for a, ca in p.items():
        for b, cb in q.items():
            k = tuple(x + y for x, y in zip(a, b))
            out[k] = out.get(k, 0) + ca * cb
    return {k: v for k, v in out.items() if v}


def _substitute(terms, forms, nvars):
    """Replace old variable i by the linear form forms[i] in the new variables."""
    out = {}
    for exps, c in terms.items():
        prod = {(0,) * nvars: c}
        for i, e in enumerate(exps):
            for _ in range(e):
                prod = _mul(prod, forms[i])
        for k, v in prod.items():
            out[k] = out.get(k, 0) + v
    return {k: v for k, v in out.items() if v}


def _linear_form(coeffs):
    n = len(coeffs)
    return {tuple(int(j == i) for j in range(n)): c for i, c in enumerate(coeffs) if c}


def _sum_pair_ops(rng, mix, tag):
    ops = []
    for e1, d1, e2, d2, copies in mix:
        for _ in range(copies):
            f_names = tuple(f"u{i + 1}" for i in range(e1))
            g_names = tuple(f"v{i + 1}" for i in range(e2))
            f = poly_text(_dual_gf(rng, f_names, d1), f_names)
            g = poly_text(_dual_gf(rng, g_names, d2), g_names)
            expect = {"edims": (e1, e2), "degrees": (d1, d2)}
            ops.append(OpInput(tag, ((f_names, f), (g_names, g)), expect))
    return ops


def _decompose_ops(rng):
    ops = []
    names2 = ("w1", "w2")
    names3 = ("w1", "w2", "w3")
    for kind, degree, copies in DECOMPOSE_MIX:
        for _ in range(copies):
            if kind == "sum":
                terms = {(k, 0): _small(rng) for k in range(2, degree + 1)}
                terms[(0, 2)] = _small(rng)
                rows = _invertible(rng, 2)
                hidden = _substitute(terms, [_linear_form(r) for r in rows], 2)
                expect = {"status": "decomposed", "length": degree + 2,
                          "component_lengths": sorted((degree + 1, 3))}
                ops.append(OpInput(kind, ((names2, poly_text(hidden, names2)),), expect))
            elif kind == "quartic":
                # H(2) is the rank of the 3x3 catalecticant, whose entries
                # are the coefficients of u^(4-k) v^k divided by C(4, k);
                # rank 3 gives H(2) = 3, the HILBERT2 bound for edim 2
                while True:
                    coeffs = [_small(rng) for _ in range(5)]
                    cat = [[Fraction(coeffs[i + j], (1, 4, 6, 4, 1)[i + j]) for j in range(3)]
                           for i in range(3)]
                    if _det(cat) != 0:
                        break
                terms = {(4 - k, k): c for k, c in enumerate(coeffs)}
                expect = {"status": "indecomposable-certified", "certificate": "HILBERT2",
                          "length": 9}
                ops.append(OpInput(kind, ((names2, poly_text(terms, names2)),), expect))
            else:
                rows = _invertible(rng, 3)
                prod = {(0, 0, 0): 1}
                for r in rows:
                    prod = _mul(prod, _linear_form(r))
                expect = {"status": "indecomposable-certified",
                          "certificate": "COMPLETE_INTERSECTION", "length": 8}
                ops.append(OpInput(kind, ((names3, poly_text(prod, names3)),), expect))
    return ops


def passes_for(seconds):
    return max(1, round(seconds / PASS_SECONDS))


def generate(workload, seed, seconds):
    """The shuffled op list of a run: ``passes_for`` copies of the mix."""
    rng = random.Random(f"{workload}:{seed}")
    ops = []
    for _ in range(passes_for(seconds)):
        if workload == "sums":
            ops += _sum_pair_ops(rng, SUMS_MIX, "sums")
        elif workload == "poincare":
            ops += _sum_pair_ops(rng, POINCARE_MIX, "poincare")
        elif workload == "decompose_qq":
            ops += _decompose_ops(rng)
        else:
            raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(ops)
    return ops


def digest(ops):
    """sha256 of the generated text, so two commits can be shown to run the same inputs."""
    h = hashlib.sha256()
    for op in ops:
        h.update(op.kind.encode())
        for names, text in op.duals:
            h.update((" ".join(names) + "|" + text + "\n").encode())
    return h.hexdigest()
