"""The dense adapter of the row-reduction kernel, and its guard.

Elements and subspaces are dict rows everywhere in the library (see
`_kernels`); only `rref` takes a numpy array: dtype int64 with entries
reduced mod p over a prime field, dtype object over QQ.  `_checked` is the
way in for such an array: it enforces the dimension guard
(`quotient.MAX_ECHELON_DIM`, which `quotient._checked_table` reads too) and
reduces entries mod p.  No module of the library imports this one, and
`rref` has no caller: it is kept because the benchmark's set-up probe and
its span tracer name it, with `is_prime_field`.  A QQ matrix it returns is
canonical: an entry is an `int` exactly when it is integral, and a
`Fraction` otherwise.  numpy is imported when `rref` or `_checked` is
called, so importing the library does not load it.

No product of matrices is formed in the library: products in an algebra
run on dict rows against its sparse product tables (`quotient._times`), in
Python integers, so no int64 product can overflow.  `fields.MAX_PRIME`
stays at 2**20 all the same; raising it is a change of its own, with
goldens at a larger prime.
"""

from . import _kernels, quotient
from .errors import ResourceGuardError
from .fields import PrimeField


def is_prime_field(field):
    return isinstance(field, PrimeField)


def _checked(field, a):
    """`a` as a 2-D int64 array reduced mod p, or an object array over QQ, within the guard."""
    import numpy as np

    a = np.asarray(a)
    if a.ndim != 2:
        raise ValueError("matrix expected")
    size = max(a.shape, default=0)
    if size > quotient.MAX_ECHELON_DIM:
        raise ResourceGuardError("max_echelon_dim", quotient.MAX_ECHELON_DIM, size,
                                 "matrix dimension")
    if is_prime_field(field):
        return np.asarray(a, dtype=np.int64) % field.p
    return np.asarray(a, dtype=object)


def rref(field, a):
    """Reduced row echelon form: returns (R, pivot column array)."""
    import numpy as np

    a = np.array(_checked(field, a))
    return a, _kernels.rref_mod(a, field.char)[1]
