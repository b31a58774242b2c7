import math

import numpy as np
import pytest
from scipy.linalg import expm

from cmtomo.errors import TruncationLeakageWarning
from cmtomo.marginals import evenodd_pointwise, fock_tomogram
from cmtomo.reconstruct import (
    CutoffError,
    DensityMatrix,
    ReconstructionCutoffs,
    fidelity,
    quadrature_matrices,
    reconstruct_single_mode,
)
from cmtomo.states import CoherentEven, CoherentOdd, Fock, fock_expansion

FAST = ReconstructionCutoffs(radial_nodes=96, angular_nodes=64)


class TestQuadratureMatrices:
    def test_dim2(self):
        Q, P = quadrature_matrices(2, 1.0)
        np.testing.assert_allclose(Q, [[0, 1 / math.sqrt(2)], [1 / math.sqrt(2), 0]], atol=1e-15)
        np.testing.assert_allclose(P, [[0, -1j / math.sqrt(2)], [1j / math.sqrt(2), 0]], atol=1e-15)

    @pytest.mark.parametrize("hbar", [1.0, 0.3, 7.0])
    def test_commutator_block(self, hbar):
        dim = 12
        Q, P = quadrature_matrices(dim, hbar)
        comm = Q @ P - P @ Q
        want = 1j * hbar * np.eye(dim)
        np.testing.assert_allclose(comm[: dim - 1, : dim - 1], want[: dim - 1, : dim - 1], atol=1e-12)

    def test_vacuum_q_variance(self):
        Q, _ = quadrature_matrices(6, 1.0)
        assert (Q @ Q)[0, 0].real == pytest.approx(0.5, rel=1e-14)

    def test_hermitian(self):
        Q, P = quadrature_matrices(9, 2.0)
        np.testing.assert_allclose(Q, Q.conj().T, atol=0)
        np.testing.assert_allclose(P, P.conj().T, atol=0)

    @pytest.mark.parametrize("hbar", [1.0, 0.5, 3.0])
    def test_rotation_is_phase_conjugation(self, hbar):
        # cos(t) Q + sin(t) P = D Q D^dagger with D = diag(e^{i t m})
        dim = 20
        Q, P = quadrature_matrices(dim, hbar)
        for theta in (0.0, 0.3, 1.7, math.pi, 4.9):
            D = np.diag(np.exp(1j * theta * np.arange(dim)))
            np.testing.assert_allclose(math.cos(theta) * Q + math.sin(theta) * P,
                                       D @ Q @ D.conj().T, rtol=0, atol=1e-13)


class TestEigenExponentials:
    def test_matches_pade_expm(self):
        # the radial-shared eigendecomposition must equal the Pade
        # scaling-and-squaring exponential of the same generator
        Q, P = quadrature_matrices(24, 1.0)
        for mu, nu in [(0.3, -1.2), (2.0, 0.7), (0.0, 1.0)]:
            lam, V = np.linalg.eigh(mu * Q + nu * P)
            U_eig = (V * np.exp(-1j * lam)) @ V.conj().T
            U_pade = expm(-1j * (mu * Q + nu * P))
            np.testing.assert_allclose(U_eig, U_pade, atol=1e-12)


class TestRoundTrip:
    def test_vacuum(self):
        rho = reconstruct_single_mode(
            lambda X, m, n: fock_tomogram(0, m, n, 1.0, X), 8, 1.0, FAST)
        assert rho.entries[0, 0].real >= 0.99
        assert np.all(np.abs(np.diag(rho.entries)[1:]) <= 0.01)
        assert rho.meta["pre_rescale_trace"] == pytest.approx(1.0, abs=0.01)

    def test_fock1(self):
        rho = reconstruct_single_mode(
            lambda X, m, n: fock_tomogram(1, m, n, 1.0, X), 8, 1.0, FAST)
        psi = fock_expansion(Fock(1), D=7)
        assert fidelity(rho, psi) >= 0.99
        ev = np.linalg.eigvalsh(rho.entries)
        assert ev.min() >= -1e-6

    def test_fock1_other_hbar(self):
        hbar = 0.5
        rho = reconstruct_single_mode(
            lambda X, m, n: fock_tomogram(1, m, n, hbar, X), 8, hbar, FAST)
        psi = fock_expansion(Fock(1), D=7)
        assert fidelity(rho, psi) >= 0.99
        assert rho.meta["pre_rescale_trace"] == pytest.approx(1.0, abs=0.01)

    def test_even_cat(self):
        alpha = 1.0
        rho = reconstruct_single_mode(
            lambda X, m, n: evenodd_pointwise(alpha, "even", m, n, 1.0, X), 16, 1.0, FAST)
        psi = fock_expansion(CoherentEven(alpha), D=15)
        assert fidelity(rho, psi) >= 0.98
        ev = np.linalg.eigvalsh(rho.entries)
        assert ev.min() >= -1e-6
        assert np.max(np.abs(rho.entries - rho.entries.conj().T)) < 1e-8

    def test_linearity(self):
        # the frame integral is linear in the tomogram

        def mix(X, m, n):
            return 0.5 * fock_tomogram(0, m, n, 1.0, X) + 0.5 * fock_tomogram(1, m, n, 1.0, X)

        rho_mix = reconstruct_single_mode(mix, 8, 1.0, FAST)
        rho_0 = reconstruct_single_mode(lambda X, m, n: fock_tomogram(0, m, n, 1.0, X), 8, 1.0, FAST)
        rho_1 = reconstruct_single_mode(lambda X, m, n: fock_tomogram(1, m, n, 1.0, X), 8, 1.0, FAST)
        pre = (rho_0.meta["pre_rescale_trace"] * rho_0.entries
               + rho_1.meta["pre_rescale_trace"] * rho_1.entries) / 2
        want = pre / np.trace(pre).real
        np.testing.assert_allclose(rho_mix.entries, want, atol=1e-4)

    def test_truncation_leakage_warning(self):
        # alpha = 2 populates levels past dim = 4
        with pytest.warns(TruncationLeakageWarning):
            rho = reconstruct_single_mode(
                lambda X, m, n: evenodd_pointwise(2.0, "even", m, n, 1.0, X), 4, 1.0, FAST)
        assert rho.meta["truncation_leakage"]


def per_angle_reference(tomogram, dim, hbar, cutoffs):
    """The frame integral with one eigendecomposition per angle and one
    tomogram call per (angle, radius) on the radius-scaled X grid."""
    K = 10.0 / math.sqrt(hbar)
    xi_max_sq = hbar * K * K / 2.0
    W = dim + int(math.ceil(xi_max_sq + 6.0 * math.sqrt(xi_max_sq)
                            + 2.0 * math.sqrt(dim * xi_max_sq))) + 8
    gl_nodes, gl_weights = np.polynomial.legendre.leggauss(cutoffs.radial_nodes)
    k_nodes = 0.5 * (gl_nodes + 1.0) * K
    k_weights = 0.5 * gl_weights * K
    d_theta = 2.0 * math.pi / cutoffs.angular_nodes
    Q, P = quadrature_matrices(W, hbar)
    sigma_unit = math.sqrt(hbar * (dim + 0.5))
    x_count = cutoffs.x_points
    while x_count < 32 * dim:
        x_count *= 2
    acc = np.zeros((W, W), dtype=complex)
    for j in range(cutoffs.angular_nodes):
        mu0, nu0 = math.cos(j * d_theta), math.sin(j * d_theta)
        lam, V = np.linalg.eigh(mu0 * Q + nu0 * P)
        g = np.zeros(W, dtype=complex)
        for k, weight in zip(k_nodes, k_weights):
            dx = 2.0 * cutoffs.x_sigmas * k * sigma_unit / x_count
            xs = (np.arange(x_count) - x_count / 2) * dx
            w = tomogram(xs, k * mu0, k * nu0)
            g += weight * d_theta * k * np.trapezoid(np.exp(1j * xs) * w, dx=dx) * np.exp(-1j * k * lam)
        acc += (V * g) @ V.conj().T
    rho = acc[:dim, :dim] * hbar / (2.0 * math.pi)
    rho = 0.5 * (rho + rho.conj().T)
    return rho / np.trace(rho).real, W


class TestOneEigendecomposition:
    SMALL = ReconstructionCutoffs(radial_nodes=24, angular_nodes=16)

    @pytest.mark.parametrize("mode", [Fock(1), CoherentOdd(0.6 + 0.8j)], ids=["fock1", "odd_complex"])
    def test_matches_per_angle_reference(self, mode):
        hbar, dim = 0.5, 6
        if isinstance(mode, Fock):
            def tomogram(X, m, n):
                return fock_tomogram(mode.n, m, n, hbar, X)
        else:
            def tomogram(X, m, n):
                return evenodd_pointwise(mode.alpha, mode.parity, m, n, hbar, X)
        want, W = per_angle_reference(tomogram, dim, hbar, self.SMALL)
        rho = reconstruct_single_mode(tomogram, dim, hbar, self.SMALL)
        assert rho.meta["working_dim"] == W
        assert np.max(np.abs(rho.entries - want)) <= 1e-12

    def test_one_tomogram_call_per_angle(self):
        calls = []

        def tomogram(X, m, n):
            calls.append((m, n))
            return fock_tomogram(1, m, n, 1.0, X)

        reconstruct_single_mode(tomogram, 8, 1.0, FAST)
        assert len(calls) == FAST.angular_nodes
        np.testing.assert_allclose(np.hypot(*np.transpose(calls)), 1.0, rtol=1e-15)


class TestCutoffValidation:
    # x_points first: a loop that doubles a nonpositive count never ends
    @pytest.mark.parametrize("field, value", [
        ("x_points", 0), ("x_points", -4), ("radial_nodes", 0), ("angular_nodes", 0),
        ("frame_radius", float("nan")), ("frame_radius", -1.0), ("x_sigmas", 0.0),
    ])
    def test_rejected(self, field, value):
        with pytest.raises(CutoffError) as exc:
            ReconstructionCutoffs(**{field: value})
        assert exc.value.field == field
        assert isinstance(exc.value, ValueError)

    def test_defaults_and_explicit_radius_accepted(self):
        assert ReconstructionCutoffs().frame_radius is None
        assert ReconstructionCutoffs(frame_radius=12.5).frame_radius == 12.5


class TestFidelity:
    def _pure(self, k, dim=4):
        m = np.zeros((dim, dim), complex)
        m[k, k] = 1.0
        return DensityMatrix(dim=dim, entries=m)

    def test_match(self):
        assert fidelity(self._pure(0), fock_expansion(Fock(0), D=3)) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert fidelity(self._pure(0), fock_expansion(Fock(1), D=3)) == pytest.approx(0.0)

    def test_mixed(self):
        m = np.zeros((4, 4), complex)
        m[0, 0] = 0.5
        m[1, 1] = 0.5
        rho = DensityMatrix(dim=4, entries=m)
        assert fidelity(rho, fock_expansion(Fock(0), D=3)) == pytest.approx(0.5)

    def test_validation(self):
        bad = np.zeros((3, 3), complex)
        bad[0, 1] = 1.0  # not Hermitian
        bad[0, 0] = 1.0
        with pytest.raises(Exception):
            DensityMatrix(dim=3, entries=bad)
