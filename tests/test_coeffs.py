import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import basis_exact, fitted_slope, psi_integrand, simpson, varphi_integrand
from unipc import (
    DomainError,
    SingularSystemError,
    g_vector,
    phi_vector,
    psi,
    solve_weights,
    varphi,
    varying_coefficient_matrix,
)
from unipc.coeffs import MAX_BASIS_K, basis_table, bh_value

E = math.e
# Frozen with a 40-digit mpmath evaluation of the closed forms.
VARPHI3_AT_HALF = 0.18977016560102516  # (e^h - h^2/2 - h - 1)/h^3 at h = 1/2
PSI3_AT_HALF = 0.1477547222989326      # (h^2/2 - h + 1 - e^{-h})/h^3 at h = 1/2
W1_B2_AT_03 = 0.4750374198232507       # (e^h - h - 1)/(h (e^h - 1)) at h = 0.3
W1_B1_AT_03 = 0.5539867508444789       # (e^h - h - 1)/h^2 at h = 0.3

# Step sizes for the accuracy test: a log grid over [1e-9, 20] plus h = 0.5 and
# each h = k + 1, where the upward recursion turns stable at level k (basis_table
# switches to it at h = 13), each on the point and one ulp either side.
SWITCHES = [0.5] + [k + 1.0 for k in range(MAX_BASIS_K + 1)]
ACCURACY_HS = sorted(set(np.geomspace(1e-9, 20.0, 41).tolist() + [
    float(x) for c in SWITCHES for x in (np.nextafter(c, 0.0), c, np.nextafter(c, np.inf))
]))


class TestBasisFunctions:
    @pytest.mark.parametrize("h", [0.05, 0.3, 1.0, 2.5])
    def test_varphi1_closed_form(self, h):
        assert varphi(1, h) == pytest.approx(math.expm1(h) / h, rel=1e-14)

    def test_varphi1_small_h_limit(self):
        assert varphi(1, 1e-12) == pytest.approx(1.0, abs=1e-10)

    def test_varphi2_at_one(self):
        assert varphi(2, 1.0) == pytest.approx(E - 2.0, abs=1e-14)

    def test_varphi3_quadrature(self):
        ref = simpson(varphi_integrand(3, 0.5), 0.0, 1.0, 10_000)
        assert abs(varphi(3, 0.5) - ref) < 1e-10
        assert varphi(3, 0.5) == pytest.approx(VARPHI3_AT_HALF, abs=1e-14)

    @pytest.mark.parametrize("h", [0.05, 0.3, 1.0, 2.5])
    def test_psi1_closed_form(self, h):
        assert psi(1, h) == pytest.approx(-math.expm1(-h) / h, rel=1e-14)

    def test_psi1_small_h_limit(self):
        assert psi(1, 1e-12) == pytest.approx(1.0, abs=1e-10)

    def test_psi2_at_one(self):
        assert psi(2, 1.0) == pytest.approx(1.0 / E, abs=1e-14)

    def test_psi3_quadrature(self):
        ref = simpson(psi_integrand(3, 0.5), 0.0, 1.0, 10_000)
        assert abs(psi(3, 0.5) - ref) < 1e-10
        assert psi(3, 0.5) == pytest.approx(PSI3_AT_HALF, abs=1e-14)

    @pytest.mark.parametrize("h", [0.1, 0.5, 1.0, 2.0])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_quadrature_agreement(self, k, h):
        assert abs(varphi(k, h) - simpson(varphi_integrand(k, h), 0, 1, 10_000)) < 1e-9
        assert abs(psi(k, h) - simpson(psi_integrand(k, h), 0, 1, 10_000)) < 1e-9

    @pytest.mark.parametrize("sign, prediction, scalar", [(1, "noise", varphi), (-1, "data", psi)],
                             ids=["varphi", "psi"])
    def test_round_off_accuracy_against_exact_series(self, sign, prediction, scalar):
        exact = np.array([basis_exact(h, MAX_BASIS_K, sign) for h in ACCURACY_HS])
        table = basis_table(np.array(ACCURACY_HS), MAX_BASIS_K, prediction)
        one = np.array([[scalar(k, h) for k in range(MAX_BASIS_K + 1)] for h in ACCURACY_HS])
        for got in (table, one):
            rel = np.abs(got / exact - 1.0)
            i, k = np.unravel_index(np.argmax(rel), rel.shape)
            assert rel[i, k] < 1e-13, f"k={k}, h={ACCURACY_HS[i]!r}: relative error {rel[i, k]:.2e}"

    def test_argument_errors(self):
        with pytest.raises(DomainError):
            varphi(13, 1.0)
        with pytest.raises(DomainError):
            varphi(-1, 1.0)
        with pytest.raises(DomainError):
            varphi(2, 0.0)
        with pytest.raises(DomainError):
            psi(2, -0.5)


class TestStackedVectors:
    def test_phi1_matches_varphi2(self):
        for h in (0.2, 0.7, 1.3):
            assert phi_vector(1, h)[0] == pytest.approx(h * varphi(2, h), rel=1e-14)
        assert phi_vector(1, 1.0)[0] == pytest.approx(E - 2.0, abs=1e-14)

    def test_phi_small_h_ratios(self):
        h = 1e-7
        phi = phi_vector(2, h)
        assert phi[0] / h == pytest.approx(0.5, abs=1e-6)
        assert phi[1] / h**2 == pytest.approx(1.0 / 3.0, abs=1e-6)

    def test_g1(self):
        h = 1e-7
        assert g_vector(1, h)[0] / h == pytest.approx(0.5, abs=1e-6)
        assert g_vector(1, 1.0)[0] == pytest.approx(1.0 / E, abs=1e-14)

    def test_g2_at_one(self):
        # g_2(1) = 2 psi_3(1) = 2 (1/2 - 1/e) = 1 - 2/e
        assert g_vector(2, 1.0)[1] == pytest.approx(1.0 - 2.0 / E, abs=1e-14)

    def test_range_checks(self):
        with pytest.raises(DomainError):
            phi_vector(10, 0.5)
        with pytest.raises(DomainError):
            g_vector(0, 0.5)


class TestSolveWeights:
    def test_order1_b2_closed_form(self):
        w = solve_weights(1, 0.3, [1.0], bh="b2").weights[0]
        assert w == pytest.approx(W1_B2_AT_03, abs=1e-14)

    def test_order1_b1_closed_form(self):
        w = solve_weights(1, 0.3, [1.0], bh="b1").weights[0]
        assert w == pytest.approx(W1_B1_AT_03, abs=1e-14)

    @pytest.mark.parametrize("bh", ["b1", "b2"])
    def test_order1_weight_near_half(self, bh):
        for h in np.geomspace(1e-3, 0.5, 10):
            w = solve_weights(1, float(h), [1.0], bh=bh).weights[0]
            assert abs(w - 0.5) <= h

    def test_half_a1_shortcut(self):
        system = solve_weights(1, 0.3, [1.0], bh="b2", half_a1=True)
        assert system.weights[0] == 0.5

    def test_order2_limit_weights(self):
        w = solve_weights(2, 1e-8, [-1.0, 1.0], bh="b1").weights
        # limit system: w1 + w2 = 1/2, -w1 + w2 = 1/3  ->  (1/12, 5/12)
        assert np.allclose(w, [1.0 / 12.0, 5.0 / 12.0], atol=1e-7)

    @pytest.mark.parametrize("prediction", ["noise", "data"])
    @pytest.mark.parametrize("bh", ["b1", "b2"])
    def test_exact_solve_residual(self, bh, prediction):
        system = solve_weights(2, 0.2, [-1.0, 1.0], bh=bh, prediction=prediction)
        assert system.residual() < 1e-13

    def test_singular_inputs(self):
        with pytest.raises(SingularSystemError):
            solve_weights(2, 0.2, [1.0, 1.0])
        with pytest.raises(SingularSystemError):
            solve_weights(2, 0.2, [0.0, 1.0])
        with pytest.raises(DomainError):
            solve_weights(2, 0.2, [1.0, -1.0])  # not increasing
        with pytest.raises(DomainError):
            solve_weights(10, 0.2, list(range(-9, 1)))
        with pytest.raises(DomainError):
            solve_weights(2, 0.2, [-1.0, 0.5, 1.0])  # length mismatch

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_residual_order_of_asymptotic_weights(self, p):
        """Weights built from the degree-p series truncation of the target
        satisfy the accuracy condition at O(h^{p+1}); the measured residual
        slope confirms the condition is testable, not vacuous."""
        r = np.array([-(p - m) for m in range(1, p)] + [1.0], dtype=float)
        V = np.vander(r, N=p, increasing=True).T
        hs = [2.0**-k for k in range(3, 10)]
        resids = []
        for h in hs:
            rhs_trunc = np.array([
                math.factorial(n) * sum(h**j / math.factorial(j + n + 1) for j in range(p - n + 1))
                for n in range(1, p + 1)
            ])
            w = np.linalg.solve(V, rhs_trunc)
            R = np.vander(r * h, N=p, increasing=True).T
            resids.append(float(np.sum(np.abs(R @ w * bh_value("b1", h) - phi_vector(p, h)))))
        assert fitted_slope(hs, resids) >= p + 0.6

    @settings(max_examples=100, deadline=None)
    @given(
        h=st.floats(min_value=0.01, max_value=2.0),
        offsets=st.lists(
            st.floats(min_value=-4.0, max_value=-0.05), min_size=0, max_size=4, unique=True
        ),
        bh=st.sampled_from(["b1", "b2"]),
        prediction=st.sampled_from(["noise", "data"]),
    )
    def test_exact_solve_property(self, h, offsets, bh, prediction):
        r = sorted(offsets) + [1.0]
        system = solve_weights(len(r), h, r, bh=bh, prediction=prediction)
        assert np.all(np.isfinite(system.weights))
        scale = max(1.0, float(np.max(np.abs(system.weights))))
        assert system.residual() < 1e-9 * scale


class TestVaryingCoefficients:
    def test_p1_identity(self):
        vcm = varying_coefficient_matrix(1, [1.0])
        assert vcm.A.shape == (1, 1) and vcm.A[0, 0] == pytest.approx(1.0)

    def test_p2_hand_inverse(self):
        vcm = varying_coefficient_matrix(2, [-1.0, 1.0])
        assert np.allclose(vcm.c_matrix(), [[1.0, 1.0], [-0.5, 0.5]], atol=1e-15)
        assert np.allclose(vcm.A, [[0.5, -1.0], [0.5, 1.0]], atol=1e-14)

    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
    def test_inverse_property(self, p):
        r = [-(p - m) for m in range(1, p)] + [1.0]
        vcm = varying_coefficient_matrix(p, r)
        assert np.max(np.abs(vcm.c_matrix() @ vcm.A - np.eye(p))) < 1e-12

    def test_range_and_singular_guards(self):
        with pytest.raises(DomainError):
            varying_coefficient_matrix(6, [-5, -4, -3, -2, -1, 1])
        with pytest.raises(SingularSystemError):
            varying_coefficient_matrix(2, [1.0, 1.0])
