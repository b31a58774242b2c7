import cmath
import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from scipy.linalg import expm

from cmtomo import marginals, reconstruct
from cmtomo.errors import GridSizeError
from cmtomo.marginals import tomogram
from cmtomo.reconstruct import DensityMatrix, fidelity, reconstruct_single_mode
from cmtomo.report import quadrature_matrices
from cmtomo.specialfn import hermite_sq_density_factor, laguerre_gauss_levels
from cmtomo.states import CoherentEven, CoherentOdd, Fock, cat_weight, coherent_amplitudes, fock_expansion
from conftest import frame_at


def set_sizes(monkeypatch, **sizes):
    """Run every job at the derived sizes with the named ones replaced."""
    derived = reconstruct._job_sizes
    monkeypatch.setattr(reconstruct, "_job_sizes", lambda dim: derived(dim)._replace(**sizes))


def tomogram_of(mode):
    """The unit-scale tomogram the reconstruction takes."""
    return lambda X, m, n: tomogram(mode, m, n, X)


def tomogram_at(mode, hbar):
    """The tomogram at hbar: the closed form on the frame sqrt(hbar) (mu, nu)."""
    return lambda X, m, n: tomogram(mode, *frame_at(m, n, hbar), X)


def rescaled_to_unit(tomogram, hbar):
    """A tomogram w at hbar brought to unit scale: s w(s X), s = sqrt(hbar)."""
    s = math.sqrt(hbar)
    return lambda X, m, n: s * tomogram(s * X, m, n)


class TestQuadratureMatrices:
    def test_dim2(self):
        Q, P = quadrature_matrices(2)
        np.testing.assert_allclose(Q, [[0, 1 / math.sqrt(2)], [1 / math.sqrt(2), 0]], atol=1e-15)
        np.testing.assert_allclose(P, [[0, -1j / math.sqrt(2)], [1j / math.sqrt(2), 0]], atol=1e-15)

    @pytest.mark.parametrize("dim", [2, 12, 40])
    def test_commutator_block(self, dim):
        Q, P = quadrature_matrices(dim)
        comm = Q @ P - P @ Q
        want = 1j * np.eye(dim)
        np.testing.assert_allclose(comm[: dim - 1, : dim - 1], want[: dim - 1, : dim - 1], atol=1e-12)

    def test_vacuum_q_variance(self):
        Q, _ = quadrature_matrices(6)
        assert (Q @ Q)[0, 0].real == pytest.approx(0.5, rel=1e-14)

    def test_hermitian(self):
        Q, P = quadrature_matrices(9)
        np.testing.assert_allclose(Q, Q.conj().T, atol=0)
        np.testing.assert_allclose(P, P.conj().T, atol=0)

    @pytest.mark.parametrize("dim", [2, 20, 40])
    def test_rotation_is_phase_conjugation(self, dim):
        # cos(t) Q + sin(t) P = D Q D^dagger with D = diag(e^{i t m})
        Q, P = quadrature_matrices(dim)
        for theta in (0.0, 0.3, 1.7, math.pi, 4.9):
            D = np.diag(np.exp(1j * theta * np.arange(dim)))
            np.testing.assert_allclose(math.cos(theta) * Q + math.sin(theta) * P,
                                       D @ Q @ D.conj().T, rtol=0, atol=1e-13)


class TestEigenExponentials:
    def test_matches_pade_expm(self):
        # per_angle_reference's eigendecomposition must equal the Pade
        # scaling-and-squaring exponential of the same generator
        Q, P = quadrature_matrices(24)
        for mu, nu in [(0.3, -1.2), (2.0, 0.7), (0.0, 1.0)]:
            lam, V = np.linalg.eigh(mu * Q + nu * P)
            U_eig = (V * np.exp(-1j * lam)) @ V.conj().T
            U_pade = expm(-1j * (mu * Q + nu * P))
            np.testing.assert_allclose(U_eig, U_pade, atol=1e-12)


class TestRoundTrip:
    def test_vacuum(self):
        rho = reconstruct_single_mode(tomogram_of(Fock(0)), 8)
        assert rho.entries[0, 0].real >= 0.99
        assert np.all(np.abs(np.diag(rho.entries)[1:]) <= 0.01)
        assert rho.meta["pre_rescale_trace"] == pytest.approx(1.0, abs=0.01)

    def test_fock1(self):
        rho = reconstruct_single_mode(tomogram_of(Fock(1)), 8)
        psi = fock_expansion(Fock(1), D=7)
        assert fidelity(rho, psi) >= 0.99
        ev = np.linalg.eigvalsh(rho.entries)
        assert ev.min() >= -1e-6

    def test_fock1_other_hbar(self):
        # the tomogram at hbar = 0.5, brought to unit scale
        rho = reconstruct_single_mode(rescaled_to_unit(tomogram_at(Fock(1), 0.5), 0.5), 8)
        psi = fock_expansion(Fock(1), D=7)
        assert fidelity(rho, psi) >= 0.99
        assert rho.meta["pre_rescale_trace"] == pytest.approx(1.0, abs=0.01)

    def test_even_cat(self):
        alpha = 1.0
        rho = reconstruct_single_mode(tomogram_of(CoherentEven(alpha)), 16)
        psi = fock_expansion(CoherentEven(alpha), D=15)
        assert fidelity(rho, psi) >= 0.98
        ev = np.linalg.eigvalsh(rho.entries)
        assert ev.min() >= -1e-6
        assert np.max(np.abs(rho.entries - rho.entries.conj().T)) < 1e-8

    def test_linearity(self):
        # the frame integral is linear in the tomogram

        def mix(X, m, n):
            return 0.5 * tomogram(Fock(0), m, n, X) + 0.5 * tomogram(Fock(1), m, n, X)

        rho_mix = reconstruct_single_mode(mix, 8)
        rho_0 = reconstruct_single_mode(tomogram_of(Fock(0)), 8)
        rho_1 = reconstruct_single_mode(tomogram_of(Fock(1)), 8)
        pre = (rho_0.meta["pre_rescale_trace"] * rho_0.entries
               + rho_1.meta["pre_rescale_trace"] * rho_1.entries) / 2
        want = pre / np.trace(pre).real
        np.testing.assert_allclose(rho_mix.entries, want, atol=1e-4)

    def test_truncation_leakage_flag(self):
        # alpha = 2 populates levels past dim = 4: a flag, not an error
        rho = reconstruct_single_mode(tomogram_of(CoherentEven(2.0)), 4)
        assert rho.meta["truncation_leakage"]


def per_angle_reference(tomogram, dim, hbar):
    """The frame integral at hbar of the tomogram at hbar, with one
    eigendecomposition per angle, in a working basis padded past the
    displacement reach of the cutoff, and one tomogram call per (angle,
    radius) on the radius-scaled X grid, at the sizes
    reconstruct._job_sizes gives with the frame radius over sqrt(hbar)."""
    K, radial, angular, x_count = reconstruct._job_sizes(dim)
    K /= math.sqrt(hbar)
    xi_max_sq = hbar * K * K / 2.0
    W = dim + int(math.ceil(xi_max_sq + 6.0 * math.sqrt(xi_max_sq)
                            + 2.0 * math.sqrt(dim * xi_max_sq))) + 8
    gl_nodes, gl_weights = np.polynomial.legendre.leggauss(radial)
    k_nodes = 0.5 * (gl_nodes + 1.0) * K
    k_weights = 0.5 * gl_weights * K
    d_theta = 2.0 * math.pi / angular
    Q, P = (math.sqrt(hbar) * M for M in quadrature_matrices(W))
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
        # the reference integrates at hbar = 0.5, the reconstruction at 1
        dim = 6
        want = per_angle_reference(tomogram_at(mode, 0.5), dim, 0.5)
        rho = reconstruct_single_mode(tomogram_of(mode), dim)
        assert rho.meta["working_dim"] == dim
        assert rho.meta["frame_radius"] == reconstruct._job_sizes(dim).frame_radius
        assert np.max(np.abs(rho.entries - want)) <= 1e-12

    def test_displaced_state_matches_per_angle_reference(self, small):
        # the parity-invariant mixture (|a><a| + |-a><-a|) / 2 of two
        # coherent states: a Gaussian pair at +-<X>_a, even in X bit for
        # bit, whose even-offset entries are complex
        dim, alpha = 6, 0.4 - 0.3j

        def pair_at(hbar):
            q0, p0 = math.sqrt(2.0 * hbar) * alpha.real, math.sqrt(2.0 * hbar) * alpha.imag

            def tomogram(X, m, n):
                var = 0.5 * hbar * (m * m + n * n)
                centre = m * q0 + n * p0
                pair = np.exp(-(X - centre) ** 2 / (2.0 * var)) + np.exp(-(X + centre) ** 2 / (2.0 * var))
                return 0.5 * pair / np.sqrt(2.0 * math.pi * var)

            return tomogram

        want = per_angle_reference(pair_at(0.5), dim, 0.5)
        rho = reconstruct_single_mode(pair_at(1.0), dim)
        assert np.max(np.abs(rho.entries - want)) <= 1e-12
        assert np.max(np.abs(rho.entries.imag)) > 0.05

    @pytest.mark.parametrize("mode, dim", [(Fock(1), 8), (CoherentOdd(0.6 + 0.8j), 12)],
                             ids=["fock1", "odd_complex"])
    def test_one_tomogram_call_per_job(self, mode, dim):
        # rows are even and theta + pi is theta with X reversed: one call on
        # the half grid y >= 0 at the unit frames of the angles in [0, pi)
        calls = []

        def recorded(X, m, n):
            calls.append((X.copy(), m.copy(), n.copy()))
            return tomogram(mode, m, n, X)

        reconstruct_single_mode(recorded, dim)
        _, _, angular, x_count = reconstruct._job_sizes(dim)
        assert len(calls) == 1
        y, mu, nu = calls[0]
        assert y.shape == (x_count // 2 + 1,) and y[0] == 0.0
        np.testing.assert_allclose(np.diff(y), y[1], rtol=1e-12)
        assert y[-1] == pytest.approx(reconstruct._X_SIGMAS * math.sqrt(dim + 0.5), rel=1e-14)
        assert mu.shape == nu.shape == (angular // 2, 1)
        angles = np.arctan2(nu[:, 0], mu[:, 0])
        assert np.all((angles >= 0.0) & (angles < math.pi))
        np.testing.assert_allclose(angles, np.arange(angular // 2) * 2.0 * math.pi / angular,
                                   rtol=0, atol=1e-15)
        np.testing.assert_allclose(np.hypot(mu, nu), 1.0, rtol=1e-15)


def half_grid(dim):
    """The reconstruction's half grid y >= 0 at dim."""
    x_count = reconstruct._job_sizes(dim).x_count
    dy = 2.0 * reconstruct._X_SIGMAS * math.sqrt(dim + 0.5) / x_count
    return np.arange(x_count // 2 + 1) * dy


def half_circle(dim):
    """The unit frames (cos theta, sin theta) at the reconstruction's
    angles in [0, pi), as lists of floats."""
    angular = reconstruct._job_sizes(dim).angular_nodes
    thetas = [j * 2.0 * math.pi / angular for j in range(angular // 2)]
    return [math.cos(t) for t in thetas], [math.sin(t) for t in thetas]


def scalar_tomogram(mode, mu, nu, hbar, X):
    """The closed forms at one scalar frame, written as they were before
    marginals.tomogram took frame tables: the reference for its bytes."""
    if isinstance(mode, Fock):
        s = math.sqrt(hbar * (mu * mu + nu * nu))
        return hermite_sq_density_factor(mode.n, X / s) / s
    alpha = mode.alpha
    s = math.sqrt(hbar * (mu * mu + nu * nu))
    root_rho = math.sqrt(mu * mu + nu * nu)
    t = X / s
    u = math.sqrt(2.0) * (alpha.real * mu + alpha.imag * nu) / root_rho
    v = math.sqrt(2.0) * (alpha.imag * mu - alpha.real * nu) / root_rho
    trig = np.cos(v * t) if mode.sign > 0 else np.sin(v * t)
    n_sq = 1.0 / (2.0 * cat_weight(mode))
    vals = n_sq / (math.sqrt(math.pi) * s) * (np.exp(-(np.abs(t) - abs(u)) ** 2) * np.expm1(-2.0 * np.abs(u * t)) ** 2
                                              + 4.0 * np.exp(-(t * t + u * u)) * trig ** 2)
    return np.where(vals < np.finfo(float).tiny, 0.0, vals)


PARITY_MODES = [Fock(n) for n in (0, 1, 2, 7, 250, 1000)] + [
    kind(size * phase) for kind in (CoherentEven, CoherentOdd)
    for size in (1e-5, 1.0, 18.0) for phase in (1.0, complex(math.cos(0.7), math.sin(0.7)))]


class TestTomogramTables:
    # the reconstruction calls the tomogram once, on the half grid y >= 0,
    # at a table of frames: that rests on every row being even in X to
    # the bit, and on the table holding each frame's own row

    @pytest.mark.parametrize("mode", PARITY_MODES, ids=repr)
    def test_rows_even_bit_for_bit(self, mode):
        # |alpha| = 18 is about the reach of the 512-level cat expansion
        for hbar in (1e-200, 1.0, 1e200):
            y = math.sqrt(hbar) * half_grid(32)
            xs = np.concatenate([-y[:0:-1], y])
            for mu, nu in [(1.0, 0.0), (0.6, 0.8), (3.0, -4.0), (0.01, 0.02)]:
                vals = tomogram(mode, *frame_at(mu, nu, hbar), xs)
                assert np.max(vals) > 0.0
                assert vals.tobytes() == vals[::-1].tobytes(), (hbar, mu, nu)

    @pytest.mark.parametrize("mode, dim, stride", [
        (Fock(1), 8, 1), (CoherentEven(1.0), 16, 1), (CoherentOdd(0.6 + 0.8j), 12, 1), (Fock(250), 256, 8),
    ], ids=["fock1", "even1", "odd_complex", "fock250"])
    def test_table_is_the_per_frame_rows(self, mode, dim, stride):
        # fock 250 compares every 8th frame, covering every distinct scale
        y = half_grid(dim)
        mus, nus = half_circle(dim)
        table = tomogram(mode, np.array(mus)[:, None], np.array(nus)[:, None], y)
        frames = list(zip(mus, nus))[::stride]
        rows = np.array([tomogram(mode, m, n, y) for m, n in frames])
        assert table.shape == (len(mus), len(y))
        assert table[::stride].tobytes() == rows.tobytes()
        scales = {math.sqrt(m * m + n * n) for m, n in zip(mus, nus)}
        assert {math.sqrt(m * m + n * n) for m, n in frames} == scales

    @pytest.mark.parametrize("mode", PARITY_MODES, ids=repr)
    def test_scalar_frames_keep_their_bytes(self, mode):
        y = half_grid(8)
        for mu, nu in [(1.0, 0.0), (0.6, 0.8), (3.0, -4.0)]:
            assert tomogram(mode, mu, nu, y).tobytes() == scalar_tomogram(mode, mu, nu, 1.0, y).tobytes()
            assert tomogram(mode, mu, nu, 0.3) == float(scalar_tomogram(mode, mu, nu, 1.0, np.float64(0.3)))

    def test_cat_table_built_in_blocks(self):
        # dim 256 has 272 frame rows of 4097 nodes, 17 blocks of rows: each
        # row keeps the bytes of its own call, and every temporary holds a
        # block, not the table
        dim = 256
        mode = CoherentOdd(cmath.rect(math.sqrt(0.4 * dim), 0.93))
        y = half_grid(dim)
        mus, nus = half_circle(dim)
        tracemalloc.start()
        try:
            table = tomogram(mode, np.array(mus)[:, None], np.array(nus)[:, None], y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table.size > 16 * marginals._CAT_BLOCK_ENTRIES
        assert peak <= table.nbytes + 8 * 8 * marginals._CAT_BLOCK_ENTRIES
        rows = np.array([tomogram(mode, m, n, y) for m, n in zip(mus, nus)])
        assert table.tobytes() == rows.tobytes()

    def test_array_frames_reject_a_vanishing_frame(self):
        with pytest.raises(ValueError, match="cannot both vanish"):
            tomogram(CoherentEven(1.0), np.array([1.0, 0.0]), np.array([0.0, 0.0]), np.zeros(3))


class TestSharedTables:
    def test_one_gauss_legendre_rule_per_node_count(self, monkeypatch):
        built = []
        original = reconstruct._legendre_rule

        def counting(count):
            built.append(count)
            return original(count)

        monkeypatch.setattr(reconstruct, "_legendre_rule", counting)
        reconstruct._gauss_legendre.cache_clear()

        def fock1(X, m, n):
            return tomogram(Fock(1), m, n, X)

        first = reconstruct_single_mode(fock1, 8)
        second = reconstruct_single_mode(fock1, 8)
        radial = reconstruct._job_sizes(8).radial_nodes
        assert built == [radial]
        assert first.entries.tobytes() == second.entries.tobytes()
        nodes, weights = reconstruct._gauss_legendre(radial)
        assert not nodes.flags.writeable and not weights.flags.writeable

    def test_exponential_count(self, monkeypatch):
        # outside the tomogram call: np.exp forms the angular phases of the
        # even offsets d >= 0 at the angles in [0, pi) and the Laguerre start
        # scales of those even offsets; the block-factored half-grid X table
        # takes (count/P + P) cosines and as many sines per radial node, with
        # count = x_count/2 + 1 and P = 16, never x_count per node
        formed = {"exp": [], "cos": [], "sin": []}
        in_tomogram = []

        def counting(name, original):
            def call(a, *args, **kwargs):
                if not in_tomogram:
                    formed[name].append(np.size(a))
                return original(a, *args, **kwargs)
            return call

        def fock1(X, m, n):
            in_tomogram.append(True)
            try:
                return tomogram(Fock(1), m, n, X)
            finally:
                in_tomogram.pop()

        radial, angular, x_count = 96, 64, 1024
        set_sizes(monkeypatch, radial_nodes=radial, angular_nodes=angular, x_count=x_count)
        reconstruct._gauss_legendre(radial)
        for name in formed:
            monkeypatch.setattr(np, name, counting(name, getattr(np, name)))
        dim = 8
        reconstruct_single_mode(fock1, dim)
        half = angular // 2
        count = x_count // 2 + 1
        x_table = (-(-count // 16) + 16) * radial
        assert sum(formed["exp"]) == (dim + 1) // 2 * half + (dim + 1) // 2 * radial
        assert sum(formed["cos"]) == sum(formed["sin"]) == x_table


def refined_rule(count, nodes):
    """Each node refined by Newton's method on P_count at 40 digits from
    its double, and the weight 2 (1 - x^2) / (count P_{count-1}(x))^2
    there, both rounded to doubles."""
    def pair(x):
        prev, p = mp.mpf(1), x
        for j in range(1, count):
            prev, p = p, ((2 * j + 1) * x * p - j * prev) / (j + 1)
        return prev, p

    with mp.workdps(40):
        refined = []
        for x0 in nodes:
            x = mp.mpf(float(x0))
            for _ in range(2):
                prev, p = pair(x)
                x -= p * (1 - x * x) / (count * (prev - x * p))
            prev, _ = pair(x)
            refined.append((float(x), float(2 * (1 - x * x) / (count * prev) ** 2)))
    return np.array(refined).T


class TestRadialRule:
    # node counts across the radial rule's range, max(96, 3 dim + 32)
    @pytest.mark.parametrize("count", [160, 768, 1533])
    def test_matches_refined_values(self, count):
        nodes, weights = reconstruct._legendre_rule(count)
        assert np.all(nodes == -nodes[::-1]) and np.all(weights == weights[::-1])
        assert np.all(np.diff(nodes) > 0)
        # the nonnegative half: every node at 160, else the 8 nearest each
        # end and the centre and every 40th
        half = count // 2
        picked = np.arange(half, count) if count == 160 else np.unique(np.concatenate(
            (np.arange(half, half + 8), np.arange(count - 8, count), np.arange(half, count, 40))))
        want_nodes, want_weights = refined_rule(count, nodes[picked])
        assert np.all(np.abs(nodes[picked] - want_nodes) <= 2 * np.spacing(np.abs(want_nodes)))
        assert np.all(np.abs(weights[picked] / want_weights - 1.0) <= 1e-12)

    @pytest.mark.parametrize("count", [1, 2, 3, 160, 161, 768, 1533])
    def test_even_moments_exact(self, count):
        # x^(2k) for 2k <= 2 count - 1, the weight sum 2 at k = 0, within
        # a rounding of the powers that grows with 2k + 1
        nodes, weights = reconstruct._legendre_rule(count)
        for k in range(count):
            got = np.sum(weights * nodes ** (2 * k))
            assert abs(got * (2 * k + 1) / 2.0 - 1.0) <= 16 * (2 * k + 1) * np.finfo(float).eps, k


def whole_phase_table(dx, count, k):
    """e^{i j dx k} for j < count, as one coarse-times-fine complex table:
    the route the X integral took before it was built in blocks, kept as
    the reference."""
    fine_len = 1 << (count.bit_length() - 1) // 2
    blocks = -(-count // fine_len)
    coarse = np.exp(1j * np.outer(dx * (fine_len * np.arange(blocks)), k))
    fine = np.exp(1j * np.outer(dx * np.arange(fine_len), k))
    return (coarse[:, None, :] * fine[None, :, :]).reshape(blocks * fine_len, len(k))[:count]


class TestStreamedIntegral:
    @pytest.mark.parametrize("dim", [8, 64, 256])
    def test_blocks_equal_the_whole_table(self, dim):
        K, radial, _, _ = reconstruct._job_sizes(dim)
        k = 0.5 * (reconstruct._gauss_legendre(radial)[0] + 1.0) * K
        ys = half_grid(dim)
        count, dy = len(ys), ys[1]
        mu, nu = half_circle(dim)
        rows = tomogram(CoherentEven(math.sqrt(dim) / 3.0), np.array(mu)[:, None], np.array(nu)[:, None], ys)
        trap = np.full(count, 2.0 * dy)
        trap[[0, -1]] *= 0.5
        want = rows @ (trap[:, None] * whole_phase_table(dy, count, k).real)
        got = reconstruct._cosine_integrals(rows, dy, k)
        # each table entry within 4 eps (1 + |y k|) on either route, as the
        # cosine_blocks and former phase_table tests require, and each
        # product's sum within count eps of its sum of moduli
        bound = np.finfo(float).eps * (8.0 * (1.0 + ys[-1] * k) + 2.0 * count) * (np.abs(rows) @ trap)[:, None]
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= bound)


class TestJobSizeBounds:
    # every size follows from dim, and every table of a job holds at most
    # 2^22 entries
    CAP = 2 ** 22

    # each threshold of the radial rule, the angular sum and the X grid
    # from both sides
    @pytest.mark.parametrize("dim, radial, angular, x_count", [
        (2, 96, 36, 512), (8, 96, 48, 512), (12, 96, 56, 512), (16, 96, 64, 512), (17, 96, 66, 1024),
        (21, 96, 74, 1024), (22, 98, 76, 1024), (32, 128, 96, 1024), (33, 131, 98, 2048),
        (47, 173, 126, 2048), (48, 176, 128, 2048), (64, 224, 160, 2048), (65, 227, 162, 4096),
        (128, 416, 288, 4096), (129, 419, 290, 8192), (256, 800, 544, 8192), (257, 803, 546, 16384),
        (495, 1517, 1022, 16384), (496, 1520, 1022, 16384), (511, 1565, 1022, 16384),
    ])
    def test_sizes_from_dim(self, dim, radial, angular, x_count):
        K = 2.0 * math.sqrt(2 * dim - 1) + 2.0 * math.sqrt(math.log(1e12))
        sizes = reconstruct._job_sizes(dim)
        assert sizes[1:] == (radial, angular, x_count)
        assert sizes.frame_radius == pytest.approx(K, rel=1e-14)

    def test_dim_edge_at_default_cutoffs(self):
        # x_count doubles past 32 dim: 16384 from dim 257 to 512, where the
        # half-grid tomogram rows bind: 511 x 8193 fit, 512 x 8193 do not.
        # The X cosine table is never built whole, so it does not bind
        _, radial, angular, x_count = reconstruct._job_sizes(511)
        assert (angular // 2) * (x_count // 2 + 1) == 511 * 8193 <= self.CAP
        assert (angular // 2) * radial <= self.CAP
        assert (x_count // 2 + 1) * radial > self.CAP
        with pytest.raises(GridSizeError, match="tomogram rows"):
            reconstruct._job_sizes(512)

    def test_default_radius_far_inside_phase_bound(self):
        # the X grid's half-width 10 sqrt(dim + 1/2) times K: 1.7e4 rad at
        # dim 511 is far inside the 1e5 rad cosine_blocks is tested to
        phases = [10.0 * math.sqrt(dim + 0.5) * reconstruct._job_sizes(dim).frame_radius
                  for dim in (2, 64, 256, 511)]
        assert phases == sorted(phases)
        assert 8.8e3 <= phases[-2] <= 9e3
        assert 1.6e4 <= phases[-1] <= 1.8e4

    @pytest.mark.parametrize("dim, table", [(512, "tomogram rows"), (10 ** 9, "tomogram rows")],
                             ids=["512", "1000000000"])
    def test_rejected_before_any_tomogram_call(self, dim, table):
        # at 10^9 the reach of level dim - 1 would raise past Fock's level
        # cap: the tables are checked first
        def tomogram(X, m, n):
            raise AssertionError("tomogram called")

        with pytest.raises(GridSizeError, match=f"reconstruction table {table}"):
            reconstruct_single_mode(tomogram, dim)


class TestDerivedCutoffs:
    # a frame radius of 10 whatever dim is gave fidelity 0.594
    # for Fock 20 at dim 24 and 0.322 for Fock 50 at dim 60

    @pytest.mark.parametrize("dim", [8, 12, 24, 48, 100])
    def test_fock_levels_exact(self, dim):
        for n in (0, dim // 2, dim - 4):
            rho = reconstruct_single_mode(tomogram_of(Fock(n)), dim)
            assert fidelity(rho, fock_expansion(Fock(n))) >= 1.0 - 1e-6, n
            assert not rho.meta["truncation_leakage"]

    @pytest.mark.parametrize("mode, dim", [
        (CoherentEven(3.0), 40), (CoherentOdd(5.0), 64), (CoherentEven(4.0 + 3.0j), 64),
        (CoherentOdd(3.0 - 4.0j), 64), (CoherentEven(-2.0 + 1.0j), 32), (CoherentOdd(0.6 + 0.8j), 12),
    ], ids=["even3", "odd5", "even4+3i", "odd3-4i", "even-2+i", "odd0.6+0.8i"])
    def test_cats_exact(self, mode, dim):
        psi = fock_expansion(mode)
        assert np.sum(np.abs(psi.coefficients[:dim]) ** 2) >= 1.0 - 1e-9
        rho = reconstruct_single_mode(tomogram_of(mode), dim)
        assert fidelity(rho, psi) >= 1.0 - 1e-6
        assert not rho.meta["truncation_leakage"]

    def test_fock500_at_dim511(self):
        # the supported edge: dim 512 would build 512 x 8193 tomogram rows
        rho = reconstruct_single_mode(tomogram_of(Fock(500)), 511)
        assert abs(fidelity(rho, fock_expansion(Fock(500))) - 1.0) <= 1e-12
        assert not rho.meta["truncation_leakage"]

    def test_hbar_cancels(self):
        # the tomogram at any hbar, brought to unit scale, is the unit-scale
        # one up to rounding: so is the matrix
        mode = CoherentOdd(1.5 - 0.5j)
        want = reconstruct_single_mode(tomogram_of(mode), 12).entries
        for hbar in (1e-3, 1e3):
            got = reconstruct_single_mode(rescaled_to_unit(tomogram_at(mode, hbar), hbar), 12).entries
            assert np.max(np.abs(got - want)) <= 1e-12


def sweep_states(dim):
    """Fock 0, dim/2 and dim - 1, and even and odd cats with |alpha|^2 =
    dim/8, dim/4 and 0.4 dim at phases 0, 0.93 and 1.29 rad."""
    for n in sorted({0, dim // 2, dim - 1}):
        yield f"fock{n}", Fock(n)
    for share in (0.125, 0.25, 0.4):
        for phase in (0.0, 0.93, 1.29):
            alpha = cmath.rect(math.sqrt(share * dim), phase)
            yield f"even {share} dim at {phase}", CoherentEven(alpha)
            yield f"odd {share} dim at {phase}", CoherentOdd(alpha)


def unit_trace_block(mode, dim):
    """The state's dim x dim block in the level basis, scaled to unit
    trace as the reconstruction is."""
    if isinstance(mode, Fock):
        v = np.zeros(dim)
        v[mode.n] = 1.0
    else:
        v = coherent_amplitudes(mode.alpha, dim - 1)
        v[(1 if mode.sign > 0 else 0)::2] = 0.0
    block = np.outer(v, v.conj())
    return block / np.trace(block).real


def sweep_misses(dims):
    """(dim, state, largest entry error) of every sweep state whose
    reconstruction is off its unit-trace block by more than 1e-12."""
    misses = []
    for dim in dims:
        for name, mode in sweep_states(dim):
            rho = reconstruct_single_mode(tomogram_of(mode), dim)
            error = float(np.max(np.abs(rho.entries - unit_trace_block(mode, dim))))
            if error > 1e-12:
                misses.append((dim, name, error))
    return misses


class TestAccuracySweep:
    # every entry of every sweep state at dims 2-80 within 1e-12.  With
    # max(160, 3 dim) radial and max(128, 2 dim) angular nodes Fock dim - 1
    # at dims 51-62 missed by up to 5.1e-10, and the cats with |alpha|^2 =
    # 0.4 dim at dims 57-78 by up to 1.3e-10: their levels past dim
    # aliased onto the block through an angular sum with no nodes to spare
    @pytest.mark.parametrize("first, last", [(2, 24), (25, 40), (41, 52), (53, 62), (63, 71), (72, 80)])
    def test_every_entry_within_1e12(self, first, last):
        assert sweep_misses(range(first, last + 1)) == []

    # each margin of the rule bites: 3 dim radial nodes leave Fock 31 at
    # dim 32 off by 1.1e-4, and 2 dim angular nodes the 0.4 dim even cat
    # at dim 64 by 1.0e-10
    @pytest.mark.parametrize("dim, shortened, state", [
        (32, {"radial_nodes": 96}, "fock31"), (64, {"angular_nodes": 128}, "even 0.4 dim at 0.0"),
    ], ids=["radial", "angular"])
    def test_guard_flags_a_rule_without_margin(self, monkeypatch, dim, shortened, state):
        set_sizes(monkeypatch, **shortened)
        assert state in {name for _, name, _ in sweep_misses([dim])}


def displacement_block(dim, k):
    """<m| e^{-ikQ} |n> for m, n < dim from the closed form: (-i)^|m-n|
    times the normalized Laguerre function of min(m, n), offset |m-n|."""
    block = np.zeros((dim, dim), dtype=complex)
    for n, f in enumerate(laguerre_gauss_levels(dim, np.array([0.5 * k * k]), range(dim))):
        d = np.arange(dim - n)
        block[n + d, n] = (-1j) ** d * f[:, 0]
        block[n, n + d] = block[n + d, n]
    return block


class TestDisplacementElements:
    @pytest.mark.parametrize("k", [0.035, 0.05, 0.087, 0.92, 1.3, 2.25, 2.83, 4.0, 6.86, 6.93, 9.7, 16.8])
    def test_matches_padded_expm(self, k):
        # the padded working basis of W = 240 levels, exponentiated by
        # scipy and cropped
        dim = 24
        want = expm(-1j * k * quadrature_matrices(240)[0])[:dim, :dim]
        np.testing.assert_allclose(displacement_block(dim, k), want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("k", [0.4, 2.0, 3.5])
    def test_unitary_where_not_truncated(self, k):
        # D(b)|n> for n < 20 and |b|^2 = k^2/2 <= 6.2 lies inside 80 levels
        dim, cols = 80, 20
        block = displacement_block(dim, k)[:, :cols]
        np.testing.assert_allclose(block.conj().T @ block, np.eye(cols), rtol=0, atol=1e-13)

    def test_complex_symmetric(self):
        block = displacement_block(16, 1.9)
        assert np.array_equal(block, block.T)


class TestClosedFormCost:
    def test_no_eigendecomposition(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("eigh called")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        rho = reconstruct_single_mode(tomogram_of(Fock(1)), 8)
        assert fidelity(rho, fock_expansion(Fock(1), D=7)) >= 0.99

    def test_peak_memory_within_two_largest_tables(self, monkeypatch):
        # every table is at most max(x_count, dim) x radial_nodes complex
        # entries; a dim^2 x radial_nodes table (4 times that here) or the
        # old dim^2 x W assembly would push the peak past two of them.
        # 128 radial nodes keep the 2 dim angular rows within that size, and
        # resolve the vacuum out to a frame radius of 10
        dim, radial = 128, 128
        set_sizes(monkeypatch, frame_radius=10.0, radial_nodes=radial)
        x_count = reconstruct._job_sizes(dim).x_count
        assert x_count == 32 * dim

        def vacuum(X, m, n):
            var = 0.5 * (m * m + n * n)
            return np.exp(-X * X / (2.0 * var)) / np.sqrt(2.0 * math.pi * var)

        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            rho = reconstruct_single_mode(vacuum, dim)
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

    @pytest.mark.parametrize("mode, dim", [
        (Fock(1), 8), (CoherentEven(1.0), 16), (CoherentOdd(0.6 + 0.8j), 12),
    ], ids=["fock1", "even1", "odd_complex"])
    def test_benchmark_shapes_not_flagged(self, mode, dim):
        rho = reconstruct_single_mode(tomogram_of(mode), dim)
        assert 0.0 < rho.meta["cutoff_char_function"] < 1e-5
        assert not rho.meta["truncation_leakage"]

    @pytest.mark.parametrize("mode, dim", [(Fock(20), 32), (CoherentEven(3.0), 40)], ids=["fock20", "even3"])
    def test_derived_radius_not_flagged(self, mode, dim):
        # a frame radius of 10 whatever dim is cut both off (|characteristic
        # function| 0.11 and 0.28 there) with the pre-rescale trace within 5%
        rho = reconstruct_single_mode(tomogram_of(mode), dim)
        assert rho.meta["cutoff_char_function"] < 1e-12
        assert not rho.meta["truncation_leakage"]
        assert fidelity(rho, fock_expansion(mode)) >= 1.0 - 1e-6

    def test_characteristic_function_test_named(self):
        # 3% of the mass on level 40, outside dim = 8: the trace stays within
        # 5% of 1, but level 40 reaches past the frame radius of level 7
        def mix(X, m, n):
            return 0.97 * tomogram(Fock(0), m, n, X) + 0.03 * tomogram(Fock(40), m, n, X)

        rho = reconstruct_single_mode(mix, 8)
        assert rho.meta["pre_rescale_trace"] == pytest.approx(0.97, abs=1e-6)
        assert rho.meta["cutoff_char_function"] > 1e-3
        assert rho.meta["truncation_leakage"]

    def test_trace_test_named(self):
        # half the mass on level 3, outside dim = 2; the radius is ample
        def mix(X, m, n):
            return 0.5 * tomogram(Fock(0), m, n, X) + 0.5 * tomogram(Fock(3), m, n, X)

        rho = reconstruct_single_mode(mix, 2)
        assert rho.meta["pre_rescale_trace"] == pytest.approx(0.5, abs=1e-6)
        assert rho.meta["cutoff_char_function"] < 1e-6
        assert rho.meta["truncation_leakage"]

    def test_is_the_characteristic_function_at_the_outer_node(self, monkeypatch):
        # the vacuum's is e^{-k^2 / 4} at every angle; a radius of 10 keeps
        # it at 1.4e-11, above rounding
        set_sizes(monkeypatch, frame_radius=10.0)
        rho = reconstruct_single_mode(tomogram_of(Fock(0)), 8)
        radial = reconstruct._job_sizes(8).radial_nodes
        k_outer = 0.5 * (reconstruct._gauss_legendre(radial)[0][-1] + 1.0) * 10.0
        assert rho.meta["cutoff_char_function"] == pytest.approx(math.exp(-k_outer ** 2 / 4), rel=1e-9)


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
