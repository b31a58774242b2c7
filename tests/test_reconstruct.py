import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm

from cmtomo import reconstruct
from cmtomo.errors import GridSizeError
from cmtomo.marginals import tomogram
from cmtomo.reconstruct import DensityMatrix, fidelity, reconstruct_single_mode
from cmtomo.report import quadrature_matrices
from cmtomo.specialfn import laguerre_gauss_levels
from cmtomo.states import CoherentEven, CoherentOdd, Fock, fock_expansion


def set_sizes(monkeypatch, **sizes):
    """Run every job at the derived sizes with the named ones replaced."""
    derived = reconstruct._job_sizes
    monkeypatch.setattr(reconstruct, "_job_sizes", lambda dim, hbar: derived(dim, hbar)._replace(**sizes))


def tomogram_of(mode, hbar):
    return lambda X, m, n: tomogram(mode, m, n, hbar, X)


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
            lambda X, m, n: tomogram(Fock(0), m, n, 1.0, X), 8, 1.0)
        assert rho.entries[0, 0].real >= 0.99
        assert np.all(np.abs(np.diag(rho.entries)[1:]) <= 0.01)
        assert rho.meta["pre_rescale_trace"] == pytest.approx(1.0, abs=0.01)

    def test_fock1(self):
        rho = reconstruct_single_mode(
            lambda X, m, n: tomogram(Fock(1), m, n, 1.0, X), 8, 1.0)
        psi = fock_expansion(Fock(1), D=7)
        assert fidelity(rho, psi) >= 0.99
        ev = np.linalg.eigvalsh(rho.entries)
        assert ev.min() >= -1e-6

    def test_fock1_other_hbar(self):
        hbar = 0.5
        rho = reconstruct_single_mode(
            lambda X, m, n: tomogram(Fock(1), m, n, hbar, X), 8, hbar)
        psi = fock_expansion(Fock(1), D=7)
        assert fidelity(rho, psi) >= 0.99
        assert rho.meta["pre_rescale_trace"] == pytest.approx(1.0, abs=0.01)

    def test_even_cat(self):
        alpha = 1.0
        rho = reconstruct_single_mode(
            lambda X, m, n: tomogram(CoherentEven(alpha), m, n, 1.0, X), 16, 1.0)
        psi = fock_expansion(CoherentEven(alpha), D=15)
        assert fidelity(rho, psi) >= 0.98
        ev = np.linalg.eigvalsh(rho.entries)
        assert ev.min() >= -1e-6
        assert np.max(np.abs(rho.entries - rho.entries.conj().T)) < 1e-8

    def test_linearity(self):
        # the frame integral is linear in the tomogram

        def mix(X, m, n):
            return 0.5 * tomogram(Fock(0), m, n, 1.0, X) + 0.5 * tomogram(Fock(1), m, n, 1.0, X)

        rho_mix = reconstruct_single_mode(mix, 8, 1.0)
        rho_0 = reconstruct_single_mode(lambda X, m, n: tomogram(Fock(0), m, n, 1.0, X), 8, 1.0)
        rho_1 = reconstruct_single_mode(lambda X, m, n: tomogram(Fock(1), m, n, 1.0, X), 8, 1.0)
        pre = (rho_0.meta["pre_rescale_trace"] * rho_0.entries
               + rho_1.meta["pre_rescale_trace"] * rho_1.entries) / 2
        want = pre / np.trace(pre).real
        np.testing.assert_allclose(rho_mix.entries, want, atol=1e-4)

    def test_truncation_leakage_flag(self):
        # alpha = 2 populates levels past dim = 4: a flag, not an error
        rho = reconstruct_single_mode(
            lambda X, m, n: tomogram(CoherentEven(2.0), m, n, 1.0, X), 4, 1.0)
        assert rho.meta["truncation_leakage"]


def per_angle_reference(tomogram, dim, hbar):
    """The frame integral with one eigendecomposition per angle, in a
    working basis padded past the displacement reach of the cutoff, and
    one tomogram call per (angle, radius) on the radius-scaled X grid,
    at the sizes reconstruct._job_sizes gives."""
    K, radial, angular, x_count = reconstruct._job_sizes(dim, hbar)
    xi_max_sq = hbar * K * K / 2.0
    W = dim + int(math.ceil(xi_max_sq + 6.0 * math.sqrt(xi_max_sq)
                            + 2.0 * math.sqrt(dim * xi_max_sq))) + 8
    gl_nodes, gl_weights = np.polynomial.legendre.leggauss(radial)
    k_nodes = 0.5 * (gl_nodes + 1.0) * K
    k_weights = 0.5 * gl_weights * K
    d_theta = 2.0 * math.pi / angular
    Q, P = quadrature_matrices(W, hbar)
    sigma_unit = math.sqrt(hbar * (dim + 0.5))
    acc = np.zeros((W, W), dtype=complex)
    for j in range(angular):
        mu0, nu0 = math.cos(j * d_theta), math.sin(j * d_theta)
        lam, V = np.linalg.eigh(mu0 * Q + nu0 * P)
        g = np.zeros(W, dtype=complex)
        for k, weight in zip(k_nodes, k_weights):
            dx = 2.0 * reconstruct._X_SIGMAS * k * sigma_unit / x_count
            xs = (np.arange(x_count) - x_count / 2) * dx
            w = tomogram(xs, k * mu0, k * nu0)
            g += weight * d_theta * k * np.trapezoid(np.exp(1j * xs) * w, dx=dx) * np.exp(-1j * k * lam)
        acc += (V * g) @ V.conj().T
    rho = acc[:dim, :dim] * hbar / (2.0 * math.pi)
    rho = 0.5 * (rho + rho.conj().T)
    return rho / np.trace(rho).real


class TestFrameIdentities:
    @pytest.fixture
    def small(self, monkeypatch):
        # the reference makes one eigendecomposition per angle and one
        # tomogram call per (angle, radius)
        set_sizes(monkeypatch, radial_nodes=24, angular_nodes=16)

    @pytest.mark.parametrize("mode", [Fock(1), CoherentOdd(0.6 + 0.8j)], ids=["fock1", "odd_complex"])
    def test_matches_per_angle_reference(self, small, mode):
        hbar, dim = 0.5, 6
        tomogram = tomogram_of(mode, hbar)
        want = per_angle_reference(tomogram, dim, hbar)
        rho = reconstruct_single_mode(tomogram, dim, hbar)
        assert rho.meta["working_dim"] == dim
        assert rho.meta["frame_radius"] == reconstruct._job_sizes(dim, hbar).frame_radius
        assert np.max(np.abs(rho.entries - want)) <= 1e-12

    def test_displaced_state_matches_per_angle_reference(self, small):
        # a coherent state's tomogram is not even in X, so the sine half of
        # the X integral, which vanishes for every parity eigenstate, enters
        hbar, dim, alpha = 0.5, 6, 0.4 - 0.3j
        q0, p0 = math.sqrt(2.0 * hbar) * alpha.real, math.sqrt(2.0 * hbar) * alpha.imag

        def tomogram(X, m, n):
            var = 0.5 * hbar * (m * m + n * n)
            return np.exp(-(X - m * q0 - n * p0) ** 2 / (2.0 * var)) / math.sqrt(2.0 * math.pi * var)

        want = per_angle_reference(tomogram, dim, hbar)
        rho = reconstruct_single_mode(tomogram, dim, hbar)
        assert np.max(np.abs(rho.entries - want)) <= 1e-12
        assert np.max(np.abs(rho.entries.imag)) > 0.05

    def test_one_tomogram_call_per_opposite_pair(self):
        # theta + pi is theta with X reversed: n/2 calls, each at an angle in
        # [0, pi), on an X grid closed under X -> -X
        calls = []

        def recorded(X, m, n):
            calls.append((X, m, n))
            return tomogram(Fock(1), m, n, 1.0, X)

        reconstruct_single_mode(recorded, 8, 1.0)
        angular = reconstruct._job_sizes(8, 1.0).angular_nodes
        assert len(calls) == angular // 2
        angles = np.array([math.atan2(n, m) for _, m, n in calls])
        assert np.all((angles >= 0.0) & (angles < math.pi))
        np.testing.assert_allclose(angles, np.arange(len(calls)) * 2.0 * math.pi / angular,
                                   rtol=0, atol=1e-15)
        np.testing.assert_allclose(np.hypot(*np.transpose([(m, n) for _, m, n in calls])), 1.0, rtol=1e-15)
        for X, _, _ in calls:
            assert np.array_equal(X, -X[::-1])

    def test_every_call_passes_one_x_grid(self):
        # cmd_reconstruct serves a number state's angles from one row per
        # frame radius, which holds only on one grid
        grids = []

        def recorded(X, m, n):
            grids.append(X.copy())
            return tomogram(CoherentOdd(0.6 + 0.8j), m, n, 0.5, X)

        reconstruct_single_mode(recorded, 12, 0.5)
        assert all(np.array_equal(X, grids[0]) for X in grids)


class TestSharedTables:
    def test_one_gauss_legendre_rule_per_node_count(self, monkeypatch):
        built = []
        original = np.polynomial.legendre.leggauss

        def counting(count):
            built.append(count)
            return original(count)

        monkeypatch.setattr(np.polynomial.legendre, "leggauss", counting)
        reconstruct._gauss_legendre.cache_clear()

        def fock1(X, m, n):
            return tomogram(Fock(1), m, n, 1.0, X)

        first = reconstruct_single_mode(fock1, 8, 1.0)
        second = reconstruct_single_mode(fock1, 8, 1.0)
        radial = reconstruct._job_sizes(8, 1.0).radial_nodes
        assert built == [radial]
        assert first.entries.tobytes() == second.entries.tobytes()
        nodes, weights = reconstruct._gauss_legendre(radial)
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

        def fock1(X, m, n):
            in_tomogram.append(True)
            try:
                return tomogram(Fock(1), m, n, 1.0, X)
            finally:
                in_tomogram.pop()

        radial, angular, x_count = 96, 64, 1024
        set_sizes(monkeypatch, radial_nodes=radial, angular_nodes=angular, x_count=x_count)
        monkeypatch.setattr(np, "exp", counting)
        dim = 8
        reconstruct_single_mode(fock1, dim, 1.0)
        half = angular // 2
        count = x_count // 2 + 1
        x_table = (-(-count // 16) + 16) * radial
        assert sum(formed) == x_table + dim * half + dim * radial


class TestJobSizeBounds:
    # every size follows from dim and hbar, and every table of a job holds
    # at most 2^22 entries
    CAP = 2 ** 22

    @pytest.mark.parametrize("dim, radial, angular, x_count", [
        (2, 160, 128, 1024), (16, 160, 128, 1024), (33, 160, 128, 2048),
        (54, 162, 128, 2048), (65, 195, 130, 4096), (256, 768, 512, 8192),
    ])
    @pytest.mark.parametrize("hbar", [1.0, 0.25, 1e3])
    def test_sizes_from_dim(self, dim, radial, angular, x_count, hbar):
        K = (2.0 * math.sqrt(2 * dim - 1) + 2.0 * math.sqrt(math.log(1e12))) / math.sqrt(hbar)
        sizes = reconstruct._job_sizes(dim, hbar)
        assert sizes[1:] == (radial, angular, x_count)
        assert sizes.frame_radius == pytest.approx(K, rel=1e-14)

    def test_dim_edge_at_default_cutoffs(self):
        # x_count doubles past 32 dim: 8192 up to dim 256, then 16384, whose
        # tomogram rows over dim angles in [0, pi) bind first
        _, _, angular, x_count = reconstruct._job_sizes(256, 1.0)
        assert (angular // 2) * (x_count + 1) == 256 * 8193 <= self.CAP
        with pytest.raises(GridSizeError, match="tomogram rows"):
            reconstruct._job_sizes(257, 1.0)

    def test_default_radius_far_inside_phase_bound(self):
        # the X grid's half-width 10 sqrt(hbar (dim + 1/2)) times K: hbar
        # cancels, and 8.9e3 rad at dim 256 is far inside the 1e5 rad
        # phase_table is tested to
        for dim in (2, 64, 256):
            phases = [10.0 * math.sqrt(hbar * (dim + 0.5)) * reconstruct._job_sizes(dim, hbar).frame_radius
                      for hbar in (1e-3, 1.0, 1e3)]
            assert max(phases) == pytest.approx(min(phases), rel=1e-13)
            assert max(phases) <= 9e3

    @pytest.mark.parametrize("dim", [257, 10 ** 9])
    def test_rejected_before_any_tomogram_call(self, dim):
        # at 10^9 the reach of level dim - 1 would raise past Fock's level
        # cap: the tables are checked first
        def tomogram(X, m, n):
            raise AssertionError("tomogram called")

        with pytest.raises(GridSizeError, match="reconstruction table tomogram rows"):
            reconstruct_single_mode(tomogram, dim, 1.0)


class TestDerivedCutoffs:
    # a frame radius of 10 / sqrt(hbar) whatever dim is gave fidelity 0.594
    # for Fock 20 at dim 24 and 0.322 for Fock 50 at dim 60

    @pytest.mark.parametrize("dim", [8, 12, 24, 48, 100])
    @pytest.mark.parametrize("hbar", [1.0, 0.25])
    def test_fock_levels_exact(self, dim, hbar):
        for n in (0, dim // 2, dim - 4):
            rho = reconstruct_single_mode(tomogram_of(Fock(n), hbar), dim, hbar)
            assert fidelity(rho, fock_expansion(Fock(n))) >= 1.0 - 1e-6, n
            assert not rho.meta["truncation_leakage"]

    @pytest.mark.parametrize("mode, dim", [
        (CoherentEven(3.0), 40), (CoherentOdd(5.0), 64), (CoherentEven(4.0 + 3.0j), 64),
        (CoherentOdd(3.0 - 4.0j), 64), (CoherentEven(-2.0 + 1.0j), 32), (CoherentOdd(0.6 + 0.8j), 12),
    ], ids=["even3", "odd5", "even4+3i", "odd3-4i", "even-2+i", "odd0.6+0.8i"])
    @pytest.mark.parametrize("hbar", [1.0, 0.25])
    def test_cats_exact(self, mode, dim, hbar):
        psi = fock_expansion(mode)
        assert np.sum(np.abs(psi.coefficients[:dim]) ** 2) >= 1.0 - 1e-9
        rho = reconstruct_single_mode(tomogram_of(mode, hbar), dim, hbar)
        assert fidelity(rho, psi) >= 1.0 - 1e-6
        assert not rho.meta["truncation_leakage"]

    def test_hbar_cancels(self):
        # K scales as 1/sqrt(hbar) and the X grid as sqrt(hbar): every
        # phase and Laguerre argument, and so the matrix, is the same
        mats = [reconstruct_single_mode(tomogram_of(CoherentOdd(1.5 - 0.5j), hbar), 12, hbar).entries
                for hbar in (1e-3, 1.0, 1e3)]
        assert np.max(np.abs(mats[0] - mats[1])) <= 1e-12
        assert np.max(np.abs(mats[2] - mats[1])) <= 1e-12


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
        rho = reconstruct_single_mode(lambda X, m, n: tomogram(Fock(1), m, n, 1.0, X), 8, 1.0)
        assert fidelity(rho, fock_expansion(Fock(1), D=7)) >= 0.99

    def test_peak_memory_within_two_largest_tables(self, monkeypatch):
        # every table is at most max(x_count, dim) x radial_nodes complex
        # entries; a dim^2 x radial_nodes table (4 times that here) or the
        # old dim^2 x W assembly would push the peak past two of them.
        # 128 radial nodes keep the 2 dim angular rows within that size, and
        # resolve the vacuum out to a frame radius of 10
        dim, radial = 128, 128
        set_sizes(monkeypatch, frame_radius=10.0, radial_nodes=radial)
        x_count = reconstruct._job_sizes(dim, 1.0).x_count
        assert x_count == 32 * dim

        def vacuum(X, m, n):
            var = 0.5 * (m * m + n * n)
            return np.exp(-X * X / (2.0 * var)) / math.sqrt(2.0 * math.pi * var)

        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            rho = reconstruct_single_mode(vacuum, dim, 1.0)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        want = np.zeros((dim, dim))
        want[0, 0] = 1.0
        assert np.max(np.abs(rho.entries - want)) <= 1e-9
        assert peak <= 2 * 16 * max(x_count, dim) * radial


class TestCutoffCharFunction:
    # |characteristic function| at the outermost radial node, largest over
    # the angles: past 1e-4 the frame radius cuts off part of the state

    @pytest.mark.parametrize("mode, hbar, dim", [
        (Fock(1), 1.0, 8), (CoherentEven(1.0), 1.0, 16), (CoherentOdd(0.6 + 0.8j), 0.5, 12),
    ], ids=["fock1", "even1", "odd_complex"])
    def test_benchmark_shapes_not_flagged(self, mode, hbar, dim):
        rho = reconstruct_single_mode(tomogram_of(mode, hbar), dim, hbar)
        assert 0.0 < rho.meta["cutoff_char_function"] < 1e-5
        assert not rho.meta["truncation_leakage"]

    @pytest.mark.parametrize("mode, dim", [(Fock(20), 32), (CoherentEven(3.0), 40)], ids=["fock20", "even3"])
    def test_derived_radius_not_flagged(self, mode, dim):
        # a frame radius of 10 whatever dim is cut both off (|characteristic
        # function| 0.11 and 0.28 there) with the pre-rescale trace within 5%
        rho = reconstruct_single_mode(tomogram_of(mode, 1.0), dim, 1.0)
        assert rho.meta["cutoff_char_function"] < 1e-12
        assert not rho.meta["truncation_leakage"]
        assert fidelity(rho, fock_expansion(mode)) >= 1.0 - 1e-6

    def test_characteristic_function_test_named(self):
        # 3% of the mass on level 40, outside dim = 8: the trace stays within
        # 5% of 1, but level 40 reaches past the frame radius of level 7
        def mix(X, m, n):
            return 0.97 * tomogram(Fock(0), m, n, 1.0, X) + 0.03 * tomogram(Fock(40), m, n, 1.0, X)

        rho = reconstruct_single_mode(mix, 8, 1.0)
        assert rho.meta["pre_rescale_trace"] == pytest.approx(0.97, abs=1e-6)
        assert rho.meta["cutoff_char_function"] > 1e-3
        assert rho.meta["truncation_leakage"]

    def test_trace_test_named(self):
        # half the mass on level 3, outside dim = 2; the radius is ample
        def mix(X, m, n):
            return 0.5 * tomogram(Fock(0), m, n, 1.0, X) + 0.5 * tomogram(Fock(3), m, n, 1.0, X)

        rho = reconstruct_single_mode(mix, 2, 1.0)
        assert rho.meta["pre_rescale_trace"] == pytest.approx(0.5, abs=1e-6)
        assert rho.meta["cutoff_char_function"] < 1e-6
        assert rho.meta["truncation_leakage"]

    def test_is_the_characteristic_function_at_the_outer_node(self, monkeypatch):
        # the vacuum's is e^{-hbar k^2 / 4} at every angle; a radius of
        # 10 / sqrt(hbar) keeps it at 1.4e-11, above rounding
        hbar = 0.5
        set_sizes(monkeypatch, frame_radius=10.0 / math.sqrt(hbar))
        rho = reconstruct_single_mode(tomogram_of(Fock(0), hbar), 8, hbar)
        radial = reconstruct._job_sizes(8, hbar).radial_nodes
        k_outer = 0.5 * (reconstruct._gauss_legendre(radial)[0][-1] + 1.0) * 10.0 / math.sqrt(hbar)
        assert rho.meta["cutoff_char_function"] == pytest.approx(math.exp(-hbar * k_outer ** 2 / 4), rel=1e-9)


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
