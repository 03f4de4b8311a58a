import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import basis_exact, fitted_slope, psi_integrand, simpson, varphi_integrand
from unipc import DomainError, SingularSystemError, SolverConfig, ValidationError, psi, varphi
from unipc.coeffs import MAX_BASIS_K, basis_table, bh_value, update_rows

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


def stacked(p: int, h: float, prediction: str = "noise") -> np.ndarray:
    """phi_n(h) = h^n n! varphi_{n+1}(h) (g_n with psi for data), n = 1..p, from basis_table."""
    n = np.arange(1, p + 1)
    return h**n * np.array([math.factorial(k) for k in n]) * basis_table(h, p + 1, prediction)[2:]


def solved_row(r, h: float, bh: str = "b2", prediction: str = "noise", half_a1: bool = False):
    """One update_rows row over the offsets r (0 inserted for the node it starts from) at
    step size h: (offsets, u), u its coefficients on the model outputs (c over the scale)."""
    r = np.asarray(r, dtype=float)
    R = np.insert(r, int(np.sum(r < 0.0)), 0.0)
    nodes = (np.zeros(2), np.array([0.0, h]), np.ones(2))  # scale -sigma = -1, alpha = 1
    _, c = update_rows(nodes, [0], [1], R[None, :], bh=bh, prediction=prediction,
                       half_a1=half_a1)
    return R, c[0] * (-1.0 if prediction == "noise" else 1.0)


def solved_weights(r, h: float, bh: str = "b2", prediction: str = "noise",
                   half_a1: bool = False) -> np.ndarray:
    """The paper's weights w_m = u_m r_m / B(h) of that row, on its nonzero offsets."""
    R, u = solved_row(r, h, bh, prediction, half_a1)
    return (u * R / bh_value(bh, h))[R != 0.0]


def weight_residual(r, h: float, bh: str = "b2", prediction: str = "noise") -> float:
    """l1 norm of R_p(h) w B(h) - phi_p(h) (g_p for data), the target correctly rounded."""
    r = np.asarray(r, dtype=float)
    p, sign = len(r), 1 if prediction == "noise" else -1
    w = solved_weights(r, h, bh, prediction)
    exact = basis_exact(h, p + 1, sign)
    target = np.array([h**n * math.factorial(n) * exact[n + 1] for n in range(1, p + 1)])
    R = np.vander(r * h, N=p, increasing=True).T
    return float(np.sum(np.abs(R @ w * bh_value(bh, h) - target)))


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

    @pytest.mark.parametrize("h", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
    @pytest.mark.parametrize("call", [
        lambda h: varphi(1, h), lambda h: psi(1, h), lambda h: basis_table([0.5, h], 3),
    ], ids=["varphi", "psi", "basis_table"])
    def test_non_finite_h_rejected(self, call, h):
        # varphi(1, inf) returned NaN with a RuntimeWarning from the recursion
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="need finite h > 0"):
                call(h)

    @pytest.mark.parametrize("call", [
        lambda: varphi(True, 0.5), lambda: psi(False, 0.5), lambda: basis_table(0.5, True),
    ], ids=["varphi", "psi", "basis_table"])
    def test_bool_index_rejected(self, call):
        # a bool k was taken as 0 or 1: varphi(True, h) then indexed with it, a bare TypeError
        with pytest.raises(DomainError, match="basis index"):
            call()

    @pytest.mark.parametrize("call", [varphi, psi], ids=["varphi", "psi"])
    @pytest.mark.parametrize("h", [True, "0.5", np.array([0.5]), None, 10**400],
                             ids=["bool", "text", "one-element-array", "none", "10**400"])
    def test_h_must_be_a_real_number(self, call, h):
        # True and "0.5" were taken as 1.0 and 0.5; a one-element array raised a bare
        # IndexError and 10**400 an OverflowError
        with pytest.raises(ValidationError, match="h must be a real number"):
            call(1, h)

    @pytest.mark.parametrize("bh", ["b1", "b2"])
    @pytest.mark.parametrize("h", [None, "x", True, np.array(["x"])],
                             ids=["none", "text", "bool", "text-array"])
    def test_bh_value_h_must_be_real(self, bh, h):
        # b1 returned None and text unchanged; b2 raised a bare TypeError
        with pytest.raises(ValidationError, match=r"^h must be a real number, got "):
            bh_value(bh, h)

    def test_bh_value_takes_numbers_and_arrays(self):
        hs = np.array([0.25, 1.0])
        assert bh_value("b1", 0.5) == 0.5 and bh_value("b1", hs) is hs
        assert bh_value("b2", np.float64(0.5)) == math.expm1(0.5)
        assert np.array_equal(bh_value("b2", hs), np.expm1(hs))
        with pytest.raises(DomainError, match="unknown B\\(h\\) variant"):
            bh_value("b3", 0.5)


class TestStackedVectors:
    """phi_n and g_n, the right-hand sides of the weight conditions, as update rows see them."""

    def test_phi1_matches_varphi2(self):
        # phi_1 is the first moment sum_m u_m r_m of any row: h varphi_2(h)
        for h in (0.2, 0.7, 1.3):
            R, u = solved_row([-1.0, 1.0], h)
            assert float(np.sum(u * R)) == pytest.approx(h * varphi(2, h), rel=1e-14)
        assert stacked(1, 1.0)[0] == pytest.approx(E - 2.0, abs=1e-14)

    def test_phi_small_h_ratios(self):
        h = 1e-7
        phi = stacked(2, h)
        assert phi[0] / h == pytest.approx(0.5, abs=1e-6)
        assert phi[1] / h**2 == pytest.approx(1.0 / 3.0, abs=1e-6)

    def test_g1(self):
        h = 1e-7
        assert stacked(1, h, "data")[0] / h == pytest.approx(0.5, abs=1e-6)
        assert stacked(1, 1.0, "data")[0] == pytest.approx(1.0 / E, abs=1e-14)

    def test_g2_at_one(self):
        # g_2(1) = 2 psi_3(1) = 2 (1/2 - 1/e) = 1 - 2/e
        assert stacked(2, 1.0, "data")[1] == pytest.approx(1.0 - 2.0 / E, abs=1e-14)

    def test_range_checks(self):
        with pytest.raises(DomainError):
            basis_table(0.5, MAX_BASIS_K + 1)
        with pytest.raises(DomainError):
            basis_table(0.5, -1, "data")
        with pytest.raises(DomainError):
            basis_table([0.5, 0.0], 3)


class TestSolveWeights:
    def test_order1_b2_closed_form(self):
        w = solved_weights([1.0], 0.3, bh="b2")[0]
        assert w == pytest.approx(W1_B2_AT_03, abs=1e-14)

    def test_order1_b1_closed_form(self):
        w = solved_weights([1.0], 0.3, bh="b1")[0]
        assert w == pytest.approx(W1_B1_AT_03, abs=1e-14)

    @pytest.mark.parametrize("bh", ["b1", "b2"])
    def test_order1_weight_near_half(self, bh):
        for h in np.geomspace(1e-3, 0.5, 10):
            w = solved_weights([1.0], float(h), bh=bh)[0]
            assert abs(w - 0.5) <= h

    def test_half_a1_shortcut(self):
        for r in ([1.0], [-0.7]):  # a corrector's offset, or a second-order predictor's
            assert solved_weights(r, 0.3, bh="b2", half_a1=True)[0] == 0.5

    def test_order2_limit_weights(self):
        w = solved_weights([-1.0, 1.0], 1e-8, bh="b1")
        # limit system: w1 + w2 = 1/2, -w1 + w2 = 1/3  ->  (1/12, 5/12)
        assert np.allclose(w, [1.0 / 12.0, 5.0 / 12.0], atol=1e-7)

    @pytest.mark.parametrize("prediction", ["noise", "data"])
    @pytest.mark.parametrize("bh", ["b1", "b2"])
    def test_exact_solve_residual(self, bh, prediction):
        assert weight_residual([-1.0, 1.0], 0.2, bh=bh, prediction=prediction) < 1e-13

    def test_singular_inputs(self):
        with pytest.raises(SingularSystemError):
            solved_weights([1.0, 1.0], 0.2)
        with pytest.raises(SingularSystemError):
            solved_weights([0.0, 1.0], 0.2)
        with pytest.raises(SingularSystemError):
            solved_weights([1.0, -1.0], 0.2)  # not increasing

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
            resids.append(float(np.sum(np.abs(R @ w * bh_value("b1", h) - stacked(p, h)))))
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
        w = solved_weights(r, h, bh=bh, prediction=prediction)
        assert np.all(np.isfinite(w))
        scale = max(1.0, float(np.max(np.abs(w))))
        assert weight_residual(r, h, bh=bh, prediction=prediction) < 1e-9 * scale


class TestVaryingCoefficients:
    """The varying-coefficients weights w = C^{-1} v, C[n, m] = r_m^{n-1}/n! and
    v_n = varphi_{n+1}(h), are the solved b1 weights of the same offsets."""

    @staticmethod
    def c_inverse_weights(r, h: float) -> np.ndarray:
        p = len(r)
        C = np.array([[rm ** (n - 1) / math.factorial(n) for rm in r] for n in range(1, p + 1)])
        return np.linalg.inv(C) @ np.array([varphi(n + 1, h) for n in range(1, p + 1)])

    def test_p1_identity(self):
        # C = [[1]] for r = [1], so the one weight is v_1 = varphi_2(h)
        for h in (0.1, 0.5, 2.0):
            assert solved_weights([1.0], h, bh="b1")[0] == pytest.approx(varphi(2, h), rel=1e-14)

    def test_p2_hand_inverse(self):
        # r = [-1, 1]: C = [[1, 1], [-1/2, 1/2]], A = C^{-1} = [[1/2, -1], [1/2, 1]]
        h = 0.4
        want = np.array([[0.5, -1.0], [0.5, 1.0]]) @ [varphi(2, h), varphi(3, h)]
        assert np.allclose(solved_weights([-1.0, 1.0], h, bh="b1"), want, rtol=1e-14, atol=0)

    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
    def test_inverse_property(self, p):
        r = [-(p - m) for m in range(1, p)] + [1.0]
        for h in (0.05, 0.5, 1.5):
            want = self.c_inverse_weights(r, h)
            got = solved_weights(r, h, bh="b1")
            assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))

    def test_range_and_singular_guards(self):
        with pytest.raises(ValidationError):
            SolverConfig(order=6, varying_coefficients=True)
        with pytest.raises(SingularSystemError):
            solved_weights([1.0, 1.0], 0.5, bh="b1")
