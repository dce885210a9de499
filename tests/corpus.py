"""Seeded random Gorenstein algebras, built by apolarity, over GF(101) by default.

A random dual polynomial with a nonzero top-degree part yields a Gorenstein
algebra with socle degree equal to its degree; retries pin the embedding
dimension.  Everything is deterministic for a fixed Random seed.
`dual_polynomials` draws small dual polynomials for hypothesis, and
`golden_texts` reads the golden presentations that parse.
"""

import random
from pathlib import Path

from hypothesis import strategies as st

from artinsum import GF, PolyRing, apolar_algebra

from oracles import algebra_ideal

FIELD = GF(101)

GOLDEN = Path(__file__).resolve().parent / "golden"
# the golden inputs that are rejected: four parse errors and a non-local ideal
REJECTED = {"zero_denominator_gf5.txt", "superscript_digit_qq.txt", "not_local_linear_qq.txt",
            "dangling_times_qq.txt", "error_after_tab_and_comment_qq.txt"}


def random_dual_poly(rng, ring, degree):
    """Random polynomial with a guaranteed nonzero degree-`degree` part.

    The coefficients are integers drawn from [0, 101), read in the ring's
    field; one that vanishes there is skipped, and the forced top term is
    drawn again until it does not vanish.  Over QQ or GF(p) with p >= 101 no
    drawn integer but 0 vanishes, so the draws are those of a plain
    nonzero test.
    """
    p = ring.field.char
    terms = {}
    for d in range(2, degree + 1):
        for mono in ring.monomials_of_degree(d):
            if rng.random() < 0.6:
                c = rng.randrange(0, 101)
                if c and (not p or c % p):
                    terms[mono] = c
    top = ring.monomials_of_degree(degree)
    if not any(sum(m) == degree and m in terms for m in top):
        # the coefficient is drawn before the monomial, which keeps seeded draws as they were
        c = rng.randrange(1, 101)
        while p and not c % p:
            c = rng.randrange(1, 101)
        terms[top[rng.randrange(len(top))]] = c
    return ring.poly(terms)


def random_gorenstein(rng, edim, loewy, prefix, field=FIELD):
    """A Gorenstein algebra with the requested edim and Loewy length."""
    names = tuple(f"{prefix}{i + 1}" for i in range(edim))
    if loewy == 1:
        if edim != 1:
            raise ValueError("Loewy length 1 forces embedding dimension 1")
        ring = PolyRing(field, names)
        return apolar_algebra(ring.var(0), names)
    dual = PolyRing(field, tuple(f"w{prefix}{i + 1}" for i in range(edim)))
    for _ in range(200):
        F = random_dual_poly(rng, dual, loewy)
        A = apolar_algebra(F, names)
        if A.edim == edim and A.loewy_length == loewy:
            return A
    raise RuntimeError("could not hit the requested invariants")


def random_apolar_ideal(rng, edim, degree, prefix, field=FIELD):
    """The defining ideal of the apolar algebra of a random dual polynomial."""
    names = tuple(f"{prefix}{i + 1}" for i in range(edim))
    dual = PolyRing(field, tuple(f"w{n}" for n in names))
    return algebra_ideal(apolar_algebra(random_dual_poly(rng, dual, degree), names))


def random_pair(rng, max_edim=2, max_ll=4, min_ll=1, field=FIELD):
    """A disjoint-variable Gorenstein pair for sum experiments."""
    m = rng.randint(1, max_edim)
    lr = rng.randint(max(min_ll, 2 if m > 1 else min_ll), max_ll)
    n = rng.randint(1, max_edim)
    ls = rng.randint(max(min_ll, 2 if n > 1 else min_ll), max_ll)
    R = random_gorenstein(rng, m, lr, "Y", field)
    S = random_gorenstein(rng, n, ls, "Z", field)
    return R, S


def pair_corpus(count, seed=20260810, **kwargs):
    rng = random.Random(seed)
    return [random_pair(rng, **kwargs) for _ in range(count)]


@st.composite
def dual_polynomials(draw, fields):
    """A nonzero polynomial over one of `fields` in 1 to 3 variables, of degree at most 4."""
    field = draw(st.sampled_from(fields))
    nvars = draw(st.integers(1, 3))
    ring = PolyRing(field, tuple(f"w{i}" for i in range(nvars)))
    exponent = st.tuples(*[st.integers(0, 3)] * nvars).filter(lambda m: 0 < sum(m) <= 4)
    return draw(st.dictionaries(exponent, st.integers(-5, 5), min_size=1, max_size=4)
                .map(ring.poly).filter(lambda p: not p.is_zero()))


def golden_texts(field):
    """The parsed goldens over `field`: the QQ ones read over it, the others over their own."""
    for path in sorted(GOLDEN.glob("*.txt")):
        text = path.read_text()
        if path.name in REJECTED:
            continue
        if "field QQ" in text:
            yield text.replace("field QQ", f"field {field}")
        elif f"field {field}" in text:
            yield text
