import math

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad

from uprop import prob
from uprop.errors import ShapeError
from uprop.prob import DistVector, interval95, kl, nll, squash_sigma


def kl_by_quadrature(mu_p, s_p, mu_q, s_q):
    """Numerical integration of p(x) log(p(x)/q(x))."""
    p = stats.norm(mu_p, s_p)
    q = stats.norm(mu_q, s_q)

    def integrand(x):
        return p.pdf(x) * (p.logpdf(x) - q.logpdf(x))

    lo = mu_p - 12 * s_p
    hi = mu_p + 12 * s_p
    val, _ = quad(integrand, lo, hi, limit=200)
    return val


class TestSquash:
    def test_softplus_closed_form_at_zero(self):
        got = squash_sigma(0.0, 1e-12)
        assert got == pytest.approx(math.log(2.0), abs=1e-9)

    def test_underflow_hits_floor(self):
        assert squash_sigma(-40.0, 1e-3) == pytest.approx(1e-3, abs=1e-9)

    def test_monotone(self):
        rng = np.random.default_rng(0)
        raws = np.sort(rng.normal(scale=5.0, size=50))
        outs = squash_sigma(raws, 1e-3)
        assert np.all(np.diff(outs) > 0)

    def test_output_at_least_floor_and_slope_below_one(self):
        floor = 1e-3
        rng = np.random.default_rng(1)
        for raw in rng.normal(scale=10.0, size=100):
            out = squash_sigma(raw, floor)
            assert out >= floor
            eps = 1e-6
            slope = (squash_sigma(raw + eps, floor) - squash_sigma(raw - eps, floor)) / (2 * eps)
            assert 0.0 < slope < 1.0


class TestDistVector:
    def test_wire_layout_round_trip(self):
        d = DistVector(mu=np.array([1.0, 2.0]), sigma=np.array([0.0, 3.0]))
        flat = d.flat()
        np.testing.assert_array_equal(flat, [1.0, 2.0, 0.0, 3.0])
        back = DistVector(mu=flat[:2], sigma=flat[2:])
        np.testing.assert_array_equal(back.mu, d.mu)
        np.testing.assert_array_equal(back.sigma, d.sigma)

    def test_flat_width_is_twice_dims(self):
        d = DistVector.standard(5)
        assert d.flat().shape == (10,)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            DistVector(mu=np.zeros(2), sigma=np.array([0.1, -0.1]))

    @pytest.mark.parametrize("mu, sigma, says", [
        ([0.0], [np.nan], "sigma"),
        ([0.0], [np.inf], "sigma"),
        ([np.nan], [1.0], "mu"),
        ([np.inf], [1.0], "mu"),
        ([-np.inf], [0.0], "mu"),
    ], ids=["sigma-nan", "sigma-inf", "mu-nan", "mu-inf", "mu-minus-inf"])
    def test_non_finite_entries_rejected(self, mu, sigma, says):
        with pytest.raises(ValueError, match=says):
            DistVector(mu=mu, sigma=sigma)

    @pytest.mark.parametrize("mu, sigma, says", [
        (np.zeros(2), np.ones(3), r"\(2,\) vs \(3,\)"),
        (np.zeros((2, 2)), np.ones((2, 2)), r"\(2, 2\) vs \(2, 2\)"),
    ], ids=["unequal", "2-D"])
    def test_shape_rejected(self, mu, sigma, says):
        with pytest.raises(ShapeError, match=says):
            DistVector(mu=mu, sigma=sigma)


class TestNll:
    def test_standard_normal_at_mean(self):
        d = DistVector(mu=np.zeros(1), sigma=np.ones(1))
        assert nll(d, np.zeros(1)) == pytest.approx(0.918939, abs=1e-6)

    def test_two_sigma_away(self):
        d = DistVector(mu=np.zeros(1), sigma=np.ones(1))
        assert nll(d, np.array([2.0])) == pytest.approx(2.918939, abs=1e-6)

    def test_additive_over_dimensions(self):
        rng = np.random.default_rng(2)
        mu = rng.normal(size=2)
        sigma = rng.uniform(0.5, 2.0, size=2)
        x = rng.normal(size=2)
        whole = nll(DistVector(mu=mu, sigma=sigma), x)
        parts = sum(
            nll(DistVector(mu=mu[i:i + 1], sigma=sigma[i:i + 1]), x[i:i + 1])
            for i in range(2))
        assert whole == pytest.approx(parts, rel=1e-12)

    def test_matches_scipy_logpdf_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            mu = rng.normal()
            sigma = rng.uniform(0.1, 3.0)
            x = rng.normal()
            got = nll(DistVector(mu=np.array([mu]), sigma=np.array([sigma])),
                      np.array([x]))
            assert got == pytest.approx(-stats.norm(mu, sigma).logpdf(x), abs=1e-6)

    def test_zero_sigma_is_domain_error(self):
        d = DistVector(mu=np.zeros(2), sigma=np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            nll(d, np.zeros(2))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            nll(DistVector.standard(2), np.zeros(3))


class TestKl:
    def test_identical_is_zero(self):
        p = DistVector(mu=np.array([1.0, -2.0]), sigma=np.array([0.5, 2.0]))
        assert kl(p, p) == 0.0

    def test_worked_value(self):
        p = DistVector(mu=np.zeros(1), sigma=np.ones(1))
        q = DistVector(mu=np.ones(1), sigma=np.full(1, 2.0))
        # closed form: ln 2 + (1 + 1)/8 - 1/2
        assert kl(p, q) == pytest.approx(0.443147, abs=1e-6)
        assert kl(p, q) == pytest.approx(kl_by_quadrature(0, 1, 1, 2), abs=1e-6)

    def test_asymmetry(self):
        p = DistVector(mu=np.zeros(1), sigma=np.ones(1))
        q = DistVector(mu=np.ones(1), sigma=np.full(1, 2.0))
        assert kl(q, p) == pytest.approx(kl_by_quadrature(1, 2, 0, 1), abs=1e-6)
        assert kl(p, q) != kl(q, p)

    def test_nonnegative_on_random_inputs(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            p = DistVector(mu=rng.normal(size=3), sigma=rng.uniform(0.1, 3.0, size=3))
            q = DistVector(mu=rng.normal(size=3), sigma=rng.uniform(0.1, 3.0, size=3))
            assert kl(p, q) >= 0.0

    def test_matches_quadrature_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            mu_p, mu_q = rng.normal(size=2)
            s_p, s_q = rng.uniform(0.2, 2.0, size=2)
            got = kl(DistVector(mu=np.array([mu_p]), sigma=np.array([s_p])),
                     DistVector(mu=np.array([mu_q]), sigma=np.array([s_q])))
            assert got == pytest.approx(kl_by_quadrature(mu_p, s_p, mu_q, s_q), abs=1e-6)

    def test_zero_scale_rejected(self):
        p = DistVector(mu=np.zeros(1), sigma=np.zeros(1))
        q = DistVector.standard(1)
        with pytest.raises(ValueError):
            kl(p, q)
        with pytest.raises(ValueError):
            kl(q, p)

    def test_dim_mismatch(self):
        with pytest.raises(ShapeError):
            kl(DistVector.standard(2), DistVector.standard(3))


class TestInterval95:
    def test_standard_normal(self):
        lower, upper = interval95(DistVector.standard(1))
        assert lower[0] == pytest.approx(-1.95996, abs=1e-5)
        assert upper[0] == pytest.approx(1.95996, abs=1e-5)

    def test_floor_scale_width(self):
        floor = 1e-3
        d = DistVector(mu=np.array([5.0]), sigma=np.array([floor]))
        lower, upper = interval95(d)
        assert upper[0] - lower[0] == pytest.approx(2 * 1.9599640 * floor, rel=1e-12)
        assert lower[0] < 5.0 < upper[0]

    def test_contains_mean(self):
        rng = np.random.default_rng(6)
        d = DistVector(mu=rng.normal(size=10), sigma=rng.uniform(0.01, 5.0, size=10))
        lower, upper = interval95(d)
        assert np.all(lower < d.mu) and np.all(d.mu < upper)

    def test_zero_scale_rejected(self):
        with pytest.raises(ValueError, match="strictly positive"):
            interval95(DistVector(mu=np.zeros(2), sigma=np.array([1.0, 0.0])))
