import numpy as np
import pytest

from optlaws.numerics import ROW_BLOCK, is_symmetric, row_product


class TestRowProduct:
    COUNTS = (1, 2, 5, 31, 32, 33, 70)

    @pytest.mark.parametrize("dim", range(1, 41))
    def test_rows_do_not_depend_on_row_count_or_offset(self, dim):
        rng = np.random.default_rng(dim)
        M = rng.standard_normal((dim, dim))
        x = rng.standard_normal((40 + max(self.COUNTS), dim))
        alone = np.stack([row_product(row, M) for row in x])
        for count in self.COUNTS:
            for offset in range(40):
                got = row_product(x[offset:offset + count], M)
                assert got.tobytes() == alone[offset:offset + count].tobytes(), (count, offset)

    def test_is_the_matrix_product(self):
        rng = np.random.default_rng(0)
        x, M = rng.standard_normal((2 * ROW_BLOCK + 3, 7)), rng.standard_normal((7, 5))
        np.testing.assert_allclose(row_product(x, M), x @ M, rtol=1e-14, atol=1e-14)
        assert row_product(x[:0], M).shape == (0, 5)

    def test_stacked_matrices_broadcast_as_matmul(self):
        rng = np.random.default_rng(1)
        x, M = rng.standard_normal((3, 45, 19)), rng.standard_normal((3, 19, 16))
        got = row_product(x, M)
        assert got.shape == (3, 45, 16)
        for i in range(3):
            assert got[i].tobytes() == row_product(x[i], M[i]).tobytes()
        np.testing.assert_allclose(got, x @ M, rtol=1e-13, atol=1e-13)


class TestIsSymmetric:
    @pytest.mark.parametrize("M", [
        [[2.0, 1.0], [1.0, 3.0]],
        [[2.0, 1.0 + 1e-13], [1.0, 3.0]],  # within 1e-12 of max|M|
        [[np.inf, 0.0], [0.0, 1.0]],  # equal to its transpose
        np.zeros((0, 0)),
        np.zeros((2, 2)),
    ])
    def test_accepts(self, M):
        assert is_symmetric(M)

    @pytest.mark.parametrize("M", [
        [[2.0, 1.0 + 5e-6], [1.0, 3.0]],  # inside numpy's default allclose rtol
        [[1e-13, 1e-13], [0.0, 1e-13]],  # no absolute floor
        [[1.0, np.nan], [np.nan, 1.0]],
    ])
    def test_refuses(self, M):
        assert not is_symmetric(M)

    def test_a_stack_passes_only_when_every_matrix_does(self):
        big = np.array([[1e6, 0.0], [0.0, 1.0]])
        small = np.array([[1.0, 1e-9], [0.0, 1.0]])  # within 1e-12 of big's entries only
        assert is_symmetric(big + small)
        assert not is_symmetric(np.stack([big, small]))
        assert is_symmetric(np.stack([big, big.T]))
