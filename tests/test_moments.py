import math

import numpy as np
import pytest

from gwsos import moments as mom


class TestBasis:
    def test_size_formula(self):
        for nvars in (1, 2, 4, 6):
            for deg in (0, 1, 2, 3):
                basis = mom.get_basis(nvars, deg)
                assert len(basis) == math.comb(nvars + deg, deg)

    def test_graded_lex_order_two_vars(self):
        basis = mom.MonomialBasis(2, 2)
        want = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
        assert [tuple(r) for r in basis.exponents] == want

    def test_degrees_nondecreasing(self):
        basis = mom.get_basis(4, 3)
        assert (np.diff(basis.degrees) >= 0).all()

    def test_index_inverts_exponents(self):
        basis = mom.get_basis(4, 2)
        order = np.random.default_rng(0).permutation(len(basis))
        assert np.array_equal(basis.index_rows(basis.exponents[order]), order)

    def test_index_rows_vectorized(self):
        basis = mom.get_basis(3, 2)
        got = basis.index_rows(basis.exponents)
        assert np.array_equal(got, np.arange(len(basis)))

    @pytest.mark.parametrize("nvars,maxdeg", [(2, 2), (9, 4), (12, 4),
                                              (64, 2)])
    def test_rank_is_position(self, nvars, maxdeg):
        basis = mom.get_basis(nvars, maxdeg)
        assert np.array_equal(basis.index_rows(basis.exponents),
                              np.arange(len(basis)))
        # int64 rows, as callers build them, give the same ranks
        rows = basis.exponents[::-7].astype(np.int64)
        assert np.array_equal(basis.index_rows(rows),
                              np.arange(len(basis))[::-7])

    @pytest.mark.parametrize("nvars,maxdeg", [(1, 3), (3, 4), (4, 3)])
    def test_order_matches_recursive_enumeration(self, nvars, maxdeg):
        def desc(total, parts):
            # tuples summing to total, first coordinate descending
            if parts == 1:
                yield (total,)
                return
            for first in range(total, -1, -1):
                for rest in desc(total - first, parts - 1):
                    yield (first,) + rest
        want = [row for d in range(maxdeg + 1) for row in desc(d, nvars)]
        basis = mom.MonomialBasis(nvars, maxdeg)
        assert [tuple(r) for r in basis.exponents] == want

    def test_out_of_range_monomial_raises(self):
        basis = mom.get_basis(2, 2)
        with pytest.raises(KeyError):
            basis.index_rows(np.array([[3, 0]]))
        for row in ([-1, 1], [1, -1], [256, 0]):
            with pytest.raises(KeyError):
                basis.index_rows(np.array([[0, 0], row]))

    def test_size_cap_enforced(self):
        with pytest.raises(ValueError, match="cap"):
            mom.MonomialBasis(100, 6)

    def test_caching(self):
        assert mom.get_basis(3, 2) is mom.get_basis(3, 2)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            mom.MonomialBasis(0, 2)
        with pytest.raises(ValueError):
            mom.MonomialBasis(2, -1)
        with pytest.raises(ValueError, match="uint8"):
            mom.MonomialBasis(1, 256)


class TestMomentVectors:
    def test_point_moments_are_monomial_values(self):
        basis = mom.get_basis(3, 2)
        pt = np.array([0.5, 2.0, 0.0])
        y = mom.point_moments(basis, pt)
        for g, exp in enumerate(basis.exponents):
            assert y[g] == pytest.approx(np.prod(pt ** exp), abs=1e-15)

    def test_point_moments_shape_check(self):
        basis = mom.get_basis(3, 2)
        with pytest.raises(ValueError):
            mom.point_moments(basis, np.ones(2))

