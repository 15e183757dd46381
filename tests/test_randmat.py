import numpy as np
import pytest

from optlaws.sde import bernstein_rhs, random_matrix_checks


class TestTraceConcentration:
    def test_zero_covariance_never_deviates(self):
        rep = random_matrix_checks(np.zeros((4, 4)), D=8, N=4, n_trials=50,
                                   t_grid=[0.1, 1.0], seed=0)
        assert rep.deviation_freq == (0.0, 0.0)
        assert rep.mean_lambda_max == 0.0

    def test_frequencies_below_bernstein(self):
        rep = random_matrix_checks(np.eye(16), D=16, N=16, n_trials=1500,
                                   t_grid=np.linspace(1.0, 8.0, 8), seed=1)
        for freq, rhs in zip(rep.deviation_freq, rep.bernstein):
            assert freq <= rhs

    def test_bernstein_rhs_decreasing_in_d(self):
        # concentration tightens monotonically as the sample count grows
        sigma = np.eye(8)
        for t in (0.5, 1.0, 2.0):
            vals = [bernstein_rhs(t, sigma, D) for D in (8, 32, 128)]
            assert vals[0] > vals[1] > vals[2]

    def test_empirical_tightening_in_d(self):
        t_grid = [1.0]
        freqs = [
            random_matrix_checks(np.eye(8), D=d, N=8, n_trials=2000,
                                 t_grid=t_grid, seed=2).deviation_freq[0]
            for d in (8, 32, 128)
        ]
        assert freqs[0] >= freqs[1] >= freqs[2]


class TestEigenvalueReport:
    def test_candidate_bounds_reported(self):
        rep = random_matrix_checks(2.0 * np.eye(8), D=32, N=8, n_trials=200, seed=3)
        assert rep.bound_one_plus_sqrt_DN == pytest.approx((1 + 2.0) * 2.0, rel=1e-12)
        assert rep.bound_mp_edge == pytest.approx((1 + 0.5) ** 2 * 2.0, rel=1e-12)
        assert rep.residual == rep.mean_lambda_max - rep.bound_one_plus_sqrt_DN
        assert rep.mean_lambda_max > 0.0

    def test_mp_edge_tracks_isotropic_top_eigenvalue(self):
        # with D >> N the top eigenvalue concentrates near the MP edge
        rep = random_matrix_checks(np.eye(4), D=4096, N=4, n_trials=100, seed=4)
        edge = (1 + np.sqrt(4 / 4096)) ** 2
        assert rep.mean_lambda_max == pytest.approx(edge, rel=0.05)

    def test_deterministic_given_seed(self):
        a = random_matrix_checks(np.eye(6), D=12, N=6, n_trials=300, seed=5)
        b = random_matrix_checks(np.eye(6), D=12, N=6, n_trials=300, seed=5)
        assert a == b

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            random_matrix_checks(np.eye(4), D=8, N=5, n_trials=10)

    @pytest.mark.parametrize("n_trials", [0, -1])
    def test_no_trials_rejected(self, n_trials):
        # 0 gave NaN frequencies, -1 numpy's negative-dimensions error
        with pytest.raises(ValueError, match=f"^n_trials must be at least 1, got {n_trials}$"):
            random_matrix_checks(np.eye(4), D=8, N=4, n_trials=n_trials)
