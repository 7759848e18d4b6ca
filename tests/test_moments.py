import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
        for i, exp in enumerate(basis.exponents):
            assert basis.index(exp) == i

    def test_index_rows_vectorized(self):
        basis = mom.get_basis(3, 2)
        got = basis.index_rows(basis.exponents)
        assert np.array_equal(got, np.arange(len(basis)))

    def test_out_of_range_monomial_raises(self):
        basis = mom.get_basis(2, 2)
        with pytest.raises(KeyError):
            basis.index((3, 0))

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


class TestIndexTable:
    def test_moment_matrix_of_point_is_rank_one(self, rng):
        basis = mom.get_basis(2, 2)
        rows = basis.exponents[basis.degrees <= 1].astype(np.int64)
        table = mom.index_table(basis, rows)
        pt = rng.uniform(0, 1, size=2)
        M = mom.point_moments(basis, pt)[table]
        v = np.array([1.0, pt[0], pt[1]])
        assert np.allclose(M, np.outer(v, v), atol=1e-14)

    def test_shift_multiplies_monomials(self):
        basis = mom.get_basis(2, 2)
        rows = np.array([[0, 0]], dtype=np.int64)
        table = mom.index_table(basis, rows, shift=(1, 1))
        assert table[0, 0] == basis.index((1, 1))

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10 ** 6))
    def test_mixture_moment_matrix_psd(self, seed):
        # moment matrices of true measures are positive semidefinite
        r = np.random.default_rng(seed)
        basis = mom.get_basis(2, 2)
        rows = basis.exponents[basis.degrees <= 1].astype(np.int64)
        table = mom.index_table(basis, rows)
        pts = r.uniform(0, 1, size=(3, 2))
        masses = r.dirichlet(np.ones(3))
        y = sum(m * mom.point_moments(basis, p) for m, p in zip(masses, pts))
        M = y[table]
        assert np.linalg.eigvalsh(M)[0] >= -1e-12
