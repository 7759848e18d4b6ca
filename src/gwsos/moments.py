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


def _graded_exponents(nvars, maxdeg):
    """Exponent rows of all monomials up to ``maxdeg`` in graded lex order.

    A monomial of degree d is a sorted d-tuple of variables, and sorted
    tuples in lex order are the exponent rows in descending lex order.
    Each degree is the one below with every tuple, in order, extended by
    each variable from its last one on; the empty tuple's last is 0.
    """
    rows = [np.zeros((1, nvars), dtype=np.uint8)]
    last = np.zeros(1, dtype=np.int64)
    for _ in range(maxdeg):
        count = nvars - last
        parent = np.repeat(np.arange(len(last)), count)
        first = np.cumsum(count) - count
        last = last[parent] + np.arange(len(parent)) - first[parent]
        new = rows[-1][parent]
        new[np.arange(len(new)), last] += 1
        rows.append(new)
    return np.concatenate(rows)


class MonomialBasis:
    """All monomials in ``nvars`` variables up to total degree ``maxdeg``.

    Exponent tuples are stored as rows of a read-only uint8 array in graded
    lexicographic order.  Instances are cached; use :func:`get_basis`.
    """

    def __init__(self, nvars: int, maxdeg: int):
        if nvars < 1:
            raise ValueError("need at least one variable")
        if not 0 <= maxdeg <= 255:
            raise ValueError("maximum degree must lie in [0, 255]: exponents "
                             "are stored as uint8")
        size = basis_size(nvars, maxdeg)
        if size > MAX_BASIS_SIZE:
            raise ValueError(
                f"basis with {size} monomials exceeds the size cap "
                f"{MAX_BASIS_SIZE}; reduce the instance or the level")
        self.nvars = nvars
        self.maxdeg = maxdeg
        self.exponents = _graded_exponents(nvars, maxdeg)
        self.exponents.setflags(write=False)
        self.degrees = self.exponents.sum(axis=1, dtype=np.int64)
        # _rank_table[c, s]: monomials of degree < s in the nvars - c
        # variables from c on, flattened; see index_rows
        self._rank_table = np.array(
            [basis_size(nvars - c, s - 1) if s else 0
             for c in range(nvars) for s in range(maxdeg + 1)],
            dtype=np.int64)
        self._rank_offsets = np.arange(nvars) * (maxdeg + 1)

    def __len__(self) -> int:
        return len(self.exponents)

    def index_rows(self, exponents: np.ndarray) -> np.ndarray:
        """Positions of the exponent rows of an (..., nvars) array.

        The rank of a row a in the combinatorial number system: with s_c
        the degree of a from variable c on, the monomials of degree < s_0
        come first, and for each c >= 1 those of degree s_0 that agree
        with a before c - 1 and exceed it at c - 1 come before a, which
        are as many as the monomials of degree < s_c in the variables
        from c on.  A row outside the basis raises KeyError.
        """
        exps = np.asarray(exponents, dtype=np.int64).reshape(-1, self.nvars)
        suffix = exps[:, ::-1].cumsum(axis=1)[:, ::-1]
        if len(exps) and (exps.min() < 0 or suffix[:, 0].max() > self.maxdeg):
            bad = (exps < 0).any(axis=1) | (suffix[:, 0] > self.maxdeg)
            raise KeyError(f"monomial {exps[np.argmax(bad)].tolist()} is not "
                           f"in the basis of degree <= {self.maxdeg}")
        return self._rank_table[self._rank_offsets + suffix].sum(axis=1)


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

