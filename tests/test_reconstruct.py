import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm

from cmtomo import reconstruct
from cmtomo.errors import GridSizeError, TruncationLeakageWarning
from cmtomo.marginals import evenodd_pointwise, fock_tomogram
from cmtomo.reconstruct import (
    CutoffError,
    DensityMatrix,
    ReconstructionCutoffs,
    fidelity,
    reconstruct_single_mode,
)
from cmtomo.report import quadrature_matrices
from cmtomo.specialfn import laguerre_gauss_levels
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
        # per_angle_reference's eigendecomposition must equal the Pade
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
    """The frame integral with one eigendecomposition per angle, in a
    working basis padded past the displacement reach of the cutoff, and
    one tomogram call per (angle, radius) on the radius-scaled X grid."""
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
    return rho / np.trace(rho).real


class TestFrameIdentities:
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
        want = per_angle_reference(tomogram, dim, hbar, self.SMALL)
        rho = reconstruct_single_mode(tomogram, dim, hbar, self.SMALL)
        assert rho.meta["working_dim"] == dim
        assert np.max(np.abs(rho.entries - want)) <= 1e-12

    def test_odd_x_count_matches_per_angle_reference(self):
        # an odd x_count puts no node at y = 0: the half grid starts at dy/2
        hbar, dim, alpha = 0.5, 6, 0.6 + 0.8j
        cutoffs = ReconstructionCutoffs(radial_nodes=24, angular_nodes=16, x_points=1001)

        def tomogram(X, m, n):
            return evenodd_pointwise(alpha, "odd", m, n, hbar, X)

        want = per_angle_reference(tomogram, dim, hbar, cutoffs)
        rho = reconstruct_single_mode(tomogram, dim, hbar, cutoffs)
        assert np.max(np.abs(rho.entries - want)) <= 1e-12

    def test_displaced_state_matches_per_angle_reference(self):
        # a coherent state's tomogram is not even in X, so the sine half of
        # the X integral, which vanishes for every parity eigenstate, enters
        hbar, dim, alpha = 0.5, 6, 0.4 - 0.3j
        q0, p0 = math.sqrt(2.0 * hbar) * alpha.real, math.sqrt(2.0 * hbar) * alpha.imag

        def tomogram(X, m, n):
            var = 0.5 * hbar * (m * m + n * n)
            return np.exp(-(X - m * q0 - n * p0) ** 2 / (2.0 * var)) / math.sqrt(2.0 * math.pi * var)

        want = per_angle_reference(tomogram, dim, hbar, self.SMALL)
        rho = reconstruct_single_mode(tomogram, dim, hbar, self.SMALL)
        assert np.max(np.abs(rho.entries - want)) <= 1e-12
        assert np.max(np.abs(rho.entries.imag)) > 0.05

    def test_one_tomogram_call_per_opposite_pair(self):
        # theta + pi is theta with X reversed: n/2 calls, each at an angle in
        # [0, pi), on an X grid closed under X -> -X
        calls = []

        def tomogram(X, m, n):
            calls.append((X, m, n))
            return fock_tomogram(1, m, n, 1.0, X)

        reconstruct_single_mode(tomogram, 8, 1.0, FAST)
        assert len(calls) == FAST.angular_nodes // 2
        angles = np.array([math.atan2(n, m) for _, m, n in calls])
        assert np.all((angles >= 0.0) & (angles < math.pi))
        np.testing.assert_allclose(angles, np.arange(len(calls)) * 2.0 * math.pi / FAST.angular_nodes,
                                   rtol=0, atol=1e-15)
        np.testing.assert_allclose(np.hypot(*np.transpose([(m, n) for _, m, n in calls])), 1.0, rtol=1e-15)
        for X, _, _ in calls:
            assert np.array_equal(X, -X[::-1])


class TestSharedTables:
    def test_one_gauss_legendre_rule_per_node_count(self, monkeypatch):
        built = []
        original = np.polynomial.legendre.leggauss

        def counting(count):
            built.append(count)
            return original(count)

        monkeypatch.setattr(np.polynomial.legendre, "leggauss", counting)
        reconstruct._gauss_legendre.cache_clear()

        def tomogram(X, m, n):
            return fock_tomogram(1, m, n, 1.0, X)

        first = reconstruct_single_mode(tomogram, 8, 1.0, FAST)
        second = reconstruct_single_mode(tomogram, 8, 1.0, FAST)
        assert built == [FAST.radial_nodes]
        assert first.entries.tobytes() == second.entries.tobytes()
        nodes, weights = reconstruct._gauss_legendre(FAST.radial_nodes)
        assert not nodes.flags.writeable and not weights.flags.writeable

    def test_exponential_count(self, monkeypatch):
        # outside the tomogram calls: the block-factored half-grid X table,
        # (count/P + P) per radial node with count = x_count/2 + 1 and
        # P = 16, the angular phases of the offsets d >= 0 at the angles in
        # [0, pi) and the Laguerre start scales, never x_count per node
        formed = []
        in_tomogram = []
        original = np.exp

        def counting(a, *args, **kwargs):
            if not in_tomogram:
                formed.append(np.size(a))
            return original(a, *args, **kwargs)

        def tomogram(X, m, n):
            in_tomogram.append(True)
            try:
                return fock_tomogram(1, m, n, 1.0, X)
            finally:
                in_tomogram.pop()

        monkeypatch.setattr(np, "exp", counting)
        dim = 8
        reconstruct_single_mode(tomogram, dim, 1.0, FAST)
        radial, half = FAST.radial_nodes, FAST.angular_nodes // 2
        count = FAST.x_points // 2 + 1
        x_table = (-(-count // 16) + 16) * radial
        assert sum(formed) == x_table + dim * half + dim * radial


class TestCutoffValidation:
    # x_points first: a loop that doubles a nonpositive count never ends
    @pytest.mark.parametrize("field, value", [
        ("x_points", 0), ("x_points", -4), ("radial_nodes", 0), ("angular_nodes", 0),
        ("angular_nodes", 1), ("angular_nodes", 7),
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

    @pytest.mark.parametrize("dim, want", [(2, 128), (64, 128), (65, 130), (200, 400)])
    def test_default_angular_nodes_from_dim(self, dim, want):
        assert ReconstructionCutoffs().angular_nodes is None
        assert reconstruct._job_sizes(dim, 1.0, ReconstructionCutoffs())[2] == want

    @pytest.mark.parametrize("dim", [2, 8, 40, 100])
    def test_aliasing_angular_nodes_rejected(self, dim):
        # n angular nodes alias offset d onto d +- n, and a dim x dim matrix
        # has offsets -(dim - 1)..dim - 1: the vacuum at dim 40 with 16 nodes
        # was off by 0.092 at (23, 39) with no leakage flag
        def tomogram(X, m, n):
            raise AssertionError("tomogram called")

        with pytest.raises(CutoffError, match=f"at least 2 dim - 1 = {2 * dim - 1}") as exc:
            reconstruct_single_mode(tomogram, dim, 1.0, ReconstructionCutoffs(angular_nodes=2 * dim - 2))
        assert exc.value.field == "angular_nodes"
        assert reconstruct._job_sizes(dim, 1.0, ReconstructionCutoffs(angular_nodes=2 * dim))[2] == 2 * dim


class TestJobSizeBounds:
    # every table of a job holds at most 2^22 entries and its X phases stay
    # within the 1e5 rad phase_table is tested to; each case sits on the
    # edge of the bound named in the match
    CAP = 2 ** 22

    def test_dim_edge_at_default_cutoffs(self):
        # x_count doubles from 1024 past 32 dim: 8192 up to dim 256, then
        # 16384, whose tomogram rows over the 2 dim angular nodes bind first
        _, x_count, angular = reconstruct._job_sizes(256, 1.0, ReconstructionCutoffs())
        assert (x_count, angular) == (8192, 512) and angular * x_count <= self.CAP
        with pytest.raises(GridSizeError, match="angular_nodes x x_count"):
            reconstruct._job_sizes(257, 1.0, ReconstructionCutoffs())

    def test_x_points_edge(self):
        # 160 radial nodes: the X phase table binds first
        _, x_count, _ = reconstruct._job_sizes(2, 1.0, ReconstructionCutoffs(x_points=self.CAP // 160))
        assert x_count * 160 <= self.CAP
        with pytest.raises(GridSizeError, match="x_count x radial_nodes"):
            reconstruct._job_sizes(2, 1.0, ReconstructionCutoffs(x_points=self.CAP // 160 + 1))

    def test_radial_nodes_edge(self):
        # the Gauss-Legendre rule diagonalizes a radial_nodes^2 companion matrix
        reconstruct._job_sizes(2, 1.0, ReconstructionCutoffs(radial_nodes=2048, x_points=1))
        with pytest.raises(GridSizeError, match=r"radial_nodes\^2"):
            reconstruct._job_sizes(2, 1.0, ReconstructionCutoffs(radial_nodes=2049, x_points=1))

    @pytest.mark.parametrize("dim, hbar, x_sigmas", [(2, 1.0, 10.0), (40, 0.3, 6.0)])
    def test_phase_edge(self, dim, hbar, x_sigmas):
        # the X grid's half-width x_sigmas sqrt(hbar (dim + 1/2)) times K
        radius = 1e5 / (x_sigmas * math.sqrt(hbar * (dim + 0.5)))
        K, _, _ = reconstruct._job_sizes(dim, hbar, ReconstructionCutoffs(
            frame_radius=radius * (1 - 1e-9), x_sigmas=x_sigmas, x_points=1))
        assert K == radius * (1 - 1e-9)
        with pytest.raises(GridSizeError, match="X phases would reach 100000"):
            reconstruct._job_sizes(dim, hbar, ReconstructionCutoffs(
                frame_radius=radius * (1 + 1e-9), x_sigmas=x_sigmas, x_points=1))

    def test_default_radius_far_inside_phase_bound(self):
        # 100 sqrt(dim + 1/2) rad at the defaults, whatever hbar is
        for dim, hbar in [(2, 1.0), (256, 1e-3), (256, 1e3)]:
            K, _, _ = reconstruct._job_sizes(dim, hbar, ReconstructionCutoffs())
            assert 10.0 * math.sqrt(hbar * (dim + 0.5)) * K == pytest.approx(100.0 * math.sqrt(dim + 0.5))

    @pytest.mark.parametrize("cutoffs, match", [
        (ReconstructionCutoffs(frame_radius=1e6), "X phases"),
        (ReconstructionCutoffs(frame_radius=1e300), "X phases"),
        (ReconstructionCutoffs(x_points=10 ** 14), "angular_nodes x x_count"),
        (ReconstructionCutoffs(radial_nodes=10 ** 5), "x_count x radial_nodes"),
    ], ids=["radius_1e6", "radius_1e300", "x_points_1e14", "radial_1e5"])
    def test_rejected_before_any_tomogram_call(self, cutoffs, match):
        # each of these ended in a memory error or an overflow traceback
        def tomogram(X, m, n):
            raise AssertionError("tomogram called")

        with pytest.raises(GridSizeError, match=f"reconstruction table {match}"):
            reconstruct_single_mode(tomogram, 8, 1.0, cutoffs)


def displacement_block(dim, k, hbar):
    """<m| e^{-ikQ} |n> for m, n < dim from the closed form: (-i)^|m-n|
    times the normalized Laguerre function of min(m, n), offset |m-n|."""
    block = np.zeros((dim, dim), dtype=complex)
    for n, f in enumerate(laguerre_gauss_levels(dim, np.array([0.5 * hbar * k * k]), dim)):
        d = np.arange(dim - n)
        block[n + d, n] = (-1j) ** d * f[:, 0]
        block[n, n + d] = block[n + d, n]
    return block


class TestDisplacementElements:
    @pytest.mark.parametrize("hbar", [1.0, 0.5, 3.0])
    @pytest.mark.parametrize("k", [0.05, 1.3, 4.0, 9.7])
    def test_matches_padded_expm(self, k, hbar):
        # the padded working basis, exponentiated by scipy and cropped: its
        # reach (sqrt(dim) + k sqrt(hbar/2))^2 stays far inside W = 240
        dim = 24
        want = expm(-1j * k * quadrature_matrices(240, hbar)[0])[:dim, :dim]
        np.testing.assert_allclose(displacement_block(dim, k, hbar), want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("k", [0.4, 2.0, 3.5])
    def test_unitary_where_not_truncated(self, k):
        # D(b)|n> for n < 20 and |b|^2 = k^2/2 <= 6.2 lies inside 80 levels
        dim, cols = 80, 20
        block = displacement_block(dim, k, 1.0)[:, :cols]
        np.testing.assert_allclose(block.conj().T @ block, np.eye(cols), rtol=0, atol=1e-13)

    def test_complex_symmetric(self):
        block = displacement_block(16, 2.3, 0.7)
        assert np.array_equal(block, block.T)


class TestClosedFormCost:
    def test_no_eigendecomposition(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("eigh called")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        rho = reconstruct_single_mode(lambda X, m, n: fock_tomogram(1, m, n, 1.0, X), 8, 1.0, FAST)
        assert fidelity(rho, fock_expansion(Fock(1), D=7)) >= 0.99

    def test_peak_memory_within_two_largest_tables(self):
        # every table is at most max(x_count, dim) x radial_nodes complex
        # entries; a dim^2 x radial_nodes table (4 times that here) or the
        # old dim^2 x W assembly would push the peak past two of them.
        # 128 radial nodes keep the 2 dim angular rows within that size
        dim, cutoffs = 128, ReconstructionCutoffs(radial_nodes=128, x_points=1)
        x_count = 32 * dim

        def vacuum(X, m, n):
            var = 0.5 * (m * m + n * n)
            return np.exp(-X * X / (2.0 * var)) / math.sqrt(2.0 * math.pi * var)

        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            rho = reconstruct_single_mode(vacuum, dim, 1.0, cutoffs)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        want = np.zeros((dim, dim))
        want[0, 0] = 1.0
        assert np.max(np.abs(rho.entries - want)) <= 1e-9
        assert peak <= 2 * 16 * max(x_count, dim) * cutoffs.radial_nodes


class TestCutoffCharFunction:
    # |characteristic function| at the outermost radial node, largest over
    # the angles: past 1e-4 the frame radius cuts off part of the state

    @pytest.mark.parametrize("mode, hbar, dim", [
        (Fock(1), 1.0, 8), (CoherentEven(1.0), 1.0, 16), (CoherentOdd(0.6 + 0.8j), 0.5, 12),
    ], ids=["fock1", "even1", "odd_complex"])
    def test_benchmark_shapes_not_flagged(self, mode, hbar, dim):
        rho = reconstruct_single_mode(self._tomogram(mode, hbar), dim, hbar)
        assert 0.0 < rho.meta["cutoff_char_function"] < 1e-5
        assert not rho.meta["truncation_leakage"]

    @pytest.mark.parametrize("mode, dim, low", [
        (Fock(20), 32, 0.05), (CoherentEven(3.0), 24, 0.1),
    ], ids=["fock20", "even3"])
    def test_too_small_radius_flagged(self, mode, dim, low):
        # the pre-rescale trace of both is within 5% of 1
        with pytest.warns(TruncationLeakageWarning, match="characteristic function") as record:
            rho = reconstruct_single_mode(self._tomogram(mode, 1.0), dim, 1.0)
        assert rho.meta["cutoff_char_function"] > low
        assert abs(rho.meta["pre_rescale_trace"] - 1.0) <= 0.05
        assert "trace" not in str(record[0].message)
        assert rho.meta["truncation_leakage"]

    def test_trace_test_named(self):
        # half the mass on level 3, outside dim = 2; the radius is ample
        def mix(X, m, n):
            return 0.5 * fock_tomogram(0, m, n, 1.0, X) + 0.5 * fock_tomogram(3, m, n, 1.0, X)

        with pytest.warns(TruncationLeakageWarning, match="trace") as record:
            rho = reconstruct_single_mode(mix, 2, 1.0, FAST)
        assert rho.meta["pre_rescale_trace"] == pytest.approx(0.5, abs=1e-6)
        assert rho.meta["cutoff_char_function"] < 1e-6
        assert "characteristic function" not in str(record[0].message)
        assert rho.meta["truncation_leakage"]

    def test_is_the_characteristic_function_at_the_outer_node(self):
        # the vacuum's is e^{-hbar k^2 / 4} at every angle
        hbar = 0.5
        rho = reconstruct_single_mode(self._tomogram(Fock(0), hbar), 8, hbar, FAST)
        k_outer = 0.5 * (reconstruct._gauss_legendre(FAST.radial_nodes)[0][-1] + 1.0) * 10.0 / math.sqrt(hbar)
        assert rho.meta["cutoff_char_function"] == pytest.approx(math.exp(-hbar * k_outer ** 2 / 4), rel=1e-9)

    @staticmethod
    def _tomogram(mode, hbar):
        if isinstance(mode, Fock):
            return lambda X, m, n: fock_tomogram(mode.n, m, n, hbar, X)
        return lambda X, m, n: evenodd_pointwise(mode.alpha, mode.parity, m, n, hbar, X)


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
