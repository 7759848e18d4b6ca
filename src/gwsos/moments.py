"""Monomial bases in graded lexicographic order and moment-vector utilities.

A moment vector indexed by this basis represents the values of a linear
functional on polynomials in the coupling entries, truncated at a fixed
total degree.  Monomials are ordered first by total degree, then
lexicographically with earlier variables dominating, so for two variables
and degree two the order is 1, x1, x2, x1^2, x1*x2, x2^2.
"""

from __future__ import annotations

import functools
import math

import numpy as np

MAX_BASIS_SIZE = 10 ** 6


def basis_size(nvars: int, maxdeg: int) -> int:
    """Number of monomials in ``nvars`` variables of degree <= ``maxdeg``."""
    return math.comb(nvars + maxdeg, maxdeg)


def _compositions_desc(total, parts):
    # all length-`parts` tuples of nonnegative ints summing to `total`,
    # first coordinate descending, which yields lex order within a degree
    if parts == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in _compositions_desc(total - first, parts - 1):
            yield (first,) + rest


class MonomialBasis:
    """All monomials in ``nvars`` variables up to total degree ``maxdeg``.

    Exponent tuples are stored as rows of a read-only uint8 array in graded
    lexicographic order.  Instances are cached; use :func:`get_basis`.
    """

    def __init__(self, nvars: int, maxdeg: int):
        if nvars < 1:
            raise ValueError("need at least one variable")
        if maxdeg < 0:
            raise ValueError("maximum degree must be nonnegative")
        size = basis_size(nvars, maxdeg)
        if size > MAX_BASIS_SIZE:
            raise ValueError(
                f"basis with {size} monomials exceeds the size cap "
                f"{MAX_BASIS_SIZE}; reduce the instance or the level")
        self.nvars = nvars
        self.maxdeg = maxdeg
        rows = []
        for d in range(maxdeg + 1):
            rows.extend(_compositions_desc(d, nvars))
        self.exponents = np.array(rows, dtype=np.uint8)
        self.exponents.setflags(write=False)
        self.degrees = self.exponents.sum(axis=1).astype(np.int64)
        self._lookup = {row.tobytes(): i
                        for i, row in enumerate(self.exponents)}

    def __len__(self) -> int:
        return len(self.exponents)

    def index_rows(self, exponents: np.ndarray) -> np.ndarray:
        """Vectorized index lookup for an (k, nvars) array of exponents."""
        exps = np.ascontiguousarray(exponents, dtype=np.uint8)
        lookup = self._lookup
        return np.fromiter((lookup[row.tobytes()] for row in exps),
                           dtype=np.int64, count=len(exps))


@functools.lru_cache(maxsize=64)
def get_basis(nvars: int, maxdeg: int) -> MonomialBasis:
    return MonomialBasis(nvars, maxdeg)


def point_moments(basis: MonomialBasis, point: np.ndarray) -> np.ndarray:
    """Moment vector of the Dirac measure at ``point``: y_g = point^g."""
    pt = np.asarray(point, dtype=float)
    if pt.shape != (basis.nvars,):
        raise ValueError(f"point has shape {pt.shape}, expected "
                         f"({basis.nvars},)")
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = pt[None, :] ** basis.exponents.astype(np.int64)
    return logs.prod(axis=1)

