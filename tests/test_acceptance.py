"""Acceptance suite: every release criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion with its runtime.  Every tolerance is pinned here; nothing is
deferred to later calibration.
"""

import math
import time

import numpy as np

from cmtomo.cli import main
from cmtomo.clt import hbar_scan, lyapunov_ratio, n_scan, per_mode_moments
from cmtomo.convolution import backend_agreement, cf_product, convolve_fft, marginals_for_system, sample_sum
from cmtomo.marginals import marginal_density, moments, oracle_marginal, tomogram, variance
from cmtomo.reconstruct import fidelity, reconstruct_single_mode
from cmtomo.report import DEFAULT_ALPHAS, DEFAULT_FRAMES, discrepancy_rows
from cmtomo.states import CoherentEven, CoherentOdd, Fock, SystemSpec, fock_expansion

SQRT_PI = math.sqrt(math.pi)


def report(criterion, ok, elapsed, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {criterion}: {status} ({elapsed:.1f} s) {detail}")


def system(modes, hbar, mu=None, nu=None):
    """A system of modes, on the frames mu, nu (default: each along x)."""
    return SystemSpec.from_modes(modes, mu or [1.0] * len(modes), nu or [0.0] * len(modes), hbar)


def test_criterion_1_fock_normalization_and_variance():
    t0 = time.time()
    worst_norm = 0.0
    worst_var = 0.0
    for n in (0, 1, 5, 20, 50):
        for rho in (0.5, 1.0, 2.0):
            mu = math.sqrt(rho)
            for hbar in (0.01, 1.0, 10.0):
                d = marginal_density(Fock(n), mu, 0.0, hbar)
                total = float(np.trapezoid(d.values, dx=d.grid.dx))
                m = moments(d)
                want = variance(Fock(n), mu, 0.0, hbar)
                worst_norm = max(worst_norm, abs(total - 1.0))
                worst_var = max(worst_var, abs(m.var - want) / want)
    elapsed = time.time() - t0
    ok = worst_norm < 1e-8 and worst_var < 1e-8 and elapsed < 10.0
    report(1, ok, elapsed, f"norm err {worst_norm:.2e}, var rel err {worst_var:.2e}")
    assert worst_norm < 1e-8
    assert worst_var < 1e-8
    assert elapsed < 10.0


def test_criterion_2_lyapunov_ratio_hbar_invariance():
    t0 = time.time()
    modes = (Fock(0), Fock(1), Fock(3), Fock(2), Fock(1), Fock(0), Fock(2), Fock(5))
    mu = [1.0, 0.6, 0.0, 0.8, 1.2, 0.9, -1.0, 0.7]
    nu = [0.0, 0.8, 1.0, -0.7, 0.3, 0.9, 0.5, -0.9]
    systems = [system(modes, h, mu, nu) for h in (10.0, 1.0, 0.01)]
    values = [lyapunov_ratio(per_mode_moments(s, marginals_for_system(s)), s.counts) for s in systems]
    spread = max(abs(v / values[1] - 1.0) for v in values)
    elapsed = time.time() - t0
    ok = spread < 1e-12
    report(2, ok, elapsed, f"relative spread {spread:.2e}")
    assert spread < 1e-12


def test_criterion_3_fixed_energy_clt_scan():
    t0 = time.time()
    reports = n_scan([1], [(1.0, 0.0)], E=10.0, N_list=[4, 8, 16, 32, 64], r=0.5, R=2.0)
    rate = [r.S_N * math.sqrt(r.N) for r in reports]
    rate_spread = max(rate) / min(rate) - 1.0
    bracket_ok = all(r.rE <= r.sigma2 <= r.RE for r in reports)
    ks_drop = reports[-1].ks < reports[0].ks / 3.0
    elapsed = time.time() - t0
    ok = rate_spread < 1e-6 and bracket_ok and ks_drop and elapsed < 60.0
    report(3, ok, elapsed,
           f"rate spread {rate_spread:.2e}, ks {reports[0].ks:.4f} -> {reports[-1].ks:.4f}")
    assert rate_spread < 1e-6
    assert bracket_ok
    assert ks_drop
    assert elapsed < 60.0


BACKEND_MATRIX = [
    system((Fock(0),) * 2, 1.0),
    system((Fock(0), Fock(1), Fock(2)), 1.0),
    system((Fock(1),) * 8, 0.5),
    system((Fock(3), Fock(0), Fock(2), Fock(5)), 1.0, [1.0, 0.6, 0.0, -0.8], [0.0, 0.8, 1.0, 0.6]),
    system((CoherentEven(1.0),), 1.0),
    system((CoherentOdd(1.0),), 1.0, [0.0], [1.0]),
    system((CoherentEven(2.0), CoherentOdd(1.5)), 1.0, [0.0, 1.0], [1.0, 0.0]),
    system((CoherentEven(1 + 0.5j),) * 4, 0.7),
    system((Fock(1), CoherentEven(1.0), CoherentOdd(0.8), Fock(0)), 1.0, [1.0, 0.6, 0.0, -0.8], [0.0, 0.8, 1.0, 0.6]),
    system((Fock(2), Fock(2), Fock(2), CoherentEven(0.5)), 2.0),
]


def test_criterion_4_backend_agreement():
    t0 = time.time()
    worst_tv = 0.0
    worst_ks = 0.0
    worst_mc_tv = 0.0
    for idx, sys_spec in enumerate(BACKEND_MATRIX):
        marg = marginals_for_system(sys_spec)
        cm = convolve_fft(marg, sys_spec.counts)
        cf = cf_product(marg, sys_spec.counts)
        counts = sample_sum(sys_spec, 10 ** 6, 1000 + idx, marg)
        agree = backend_agreement(cm, cf, counts)
        worst_tv = max(worst_tv, agree["tv_fft_cf"])
        worst_ks = max(worst_ks, agree["ks_fft_mc"])
        worst_mc_tv = max(worst_mc_tv, agree["tv_fft_mc"])
    elapsed = time.time() - t0
    ok = worst_tv < 1e-6 and worst_ks < 0.005 and worst_mc_tv < 0.01 and elapsed < 120.0
    report(4, ok, elapsed,
           f"worst TV {worst_tv:.2e}, worst KS {worst_ks:.4f}, worst MC TV {worst_mc_tv:.4f}")
    assert worst_tv < 1e-6
    assert worst_ks < 0.005
    assert worst_mc_tv < 0.01
    assert elapsed < 120.0


def test_criterion_5_classical_limit():
    t0 = time.time()
    reports = hbar_scan(system((Fock(1),) * 8, 1.0), [1.0, 0.1, 0.01, 0.001], epsilon=0.1)
    masses = [r.mass_in_epsilon for r in reports]
    monotone = all(b > a for a, b in zip(masses, masses[1:]))
    worst = max(abs(r.mass_in_epsilon - math.erf(0.1 / math.sqrt(2.0 * r.sigma2)))
                for r in reports)
    elapsed = time.time() - t0
    ok = monotone and worst < 0.02 and elapsed < 60.0
    report(5, ok, elapsed, f"mass {masses[0]:.4f} -> {masses[-1]:.4f}, worst erf gap {worst:.4f}")
    assert monotone
    assert worst < 0.02
    assert elapsed < 60.0


def test_criterion_6_cat_state_consistency():
    t0 = time.time()
    alphas = [m * p for m in (0.5, 1.0, 2.0)
              for p in (1.0, complex(math.cos(math.pi / 4), math.sin(math.pi / 4)))]
    frames = [(1.0, 0.0), (0.0, 1.0), (0.6, 0.8)]
    worst = 0.0
    for alpha in alphas:
        for mode in (CoherentEven(alpha), CoherentOdd(alpha)):
            for mu, nu in frames:
                d = marginal_density(mode, mu, nu, 1.0)
                o = oracle_marginal(mode, mu, nu, 1.0)
                worst = max(worst, float(np.max(np.abs(d.values - o.values))))
            # nu-axis frame: odd densities carry an exact node at the origin
            if mode.sign < 0:
                at_zero = float(tomogram(mode, 0.0, 1.0, 1.0, np.array([0.0]))[0])
                assert at_zero == 0.0
    vac = marginal_density(CoherentEven(0.0), 1.0, 0.0, 1.0)
    vac_err = float(np.max(np.abs(vac.values - tomogram(Fock(0), 1.0, 0.0, 1.0, vac.grid.xs))))
    elapsed = time.time() - t0
    ok = worst < 1e-6 and vac_err < 1e-10
    report(6, ok, elapsed, f"worst oracle gap {worst:.2e}, vacuum limit gap {vac_err:.2e}")
    assert worst < 1e-6
    assert vac_err < 1e-10


def test_criterion_7_homogeneity():
    t0 = time.time()
    densities = [
        lambda mu, nu, X: tomogram(Fock(3), mu, nu, 1.0, X),
        lambda mu, nu, X: tomogram(CoherentEven(1.0), mu, nu, 1.0, X),
    ]
    mu, nu = 0.8, -0.6
    X = np.linspace(-6.0, 6.0, 481)
    worst = 0.0
    for dens in densities:
        base = dens(mu, nu, X)
        for lam in (0.5, 2.0, -3.0):
            scaled = dens(lam * mu, lam * nu, lam * X)
            worst = max(worst, float(np.max(np.abs(scaled - base / abs(lam)))))
    elapsed = time.time() - t0
    ok = worst < 1e-9
    report(7, ok, elapsed, f"worst gap {worst:.2e}")
    assert worst < 1e-9


def test_criterion_8_reconstruction_round_trip():
    t0 = time.time()
    cases = [
        (lambda X, m, n: tomogram(Fock(0), m, n, 1.0, X), Fock(0), 8, 0.99),
        (lambda X, m, n: tomogram(Fock(1), m, n, 1.0, X), Fock(1), 8, 0.99),
        (lambda X, m, n: tomogram(CoherentEven(1.0), m, n, 1.0, X), CoherentEven(1.0), 16, 0.98),
    ]
    results = []
    for tomo, mode, dim, want in cases:
        rho = reconstruct_single_mode(tomo, dim, 1.0)
        psi = fock_expansion(mode, D=dim - 1)
        fid = fidelity(rho, psi)
        herm = float(np.max(np.abs(rho.entries - rho.entries.conj().T)))
        min_ev = float(np.linalg.eigvalsh(rho.entries).min())
        results.append((fid, want, herm, min_ev))
    elapsed = time.time() - t0
    ok = all(f >= w and h < 1e-8 and ev >= -1e-6 for f, w, h, ev in results) and elapsed < 300.0
    detail = ", ".join(f"fid {f:.5f} (>= {w}), min ev {ev:+.1e}" for f, w, _, ev in results)
    report(8, ok, elapsed, detail)
    for fid, want, herm, min_ev in results:
        assert fid >= want
        assert herm < 1e-8
        assert min_ev >= -1e-6
    assert elapsed < 300.0


def test_criterion_9_discrepancy_report_completeness():
    t0 = time.time()
    rows = discrepancy_rows(DEFAULT_ALPHAS, DEFAULT_FRAMES, 1.0)
    element_kinds = {"x_diag", "x_cross_re", "x_cross_im", "x2_diag", "x2_cross_re", "x2_cross_im"}
    for alpha in DEFAULT_ALPHAS:
        for mu, nu in DEFAULT_FRAMES:
            here = [r for r in rows if r.alpha == alpha and (r.mu, r.nu) == (mu, nu)]
            kinds = {r.quantity for r in here}
            assert element_kinds <= kinds, (alpha, mu, nu)
            assert "integral" in kinds and "variance" in kinds
            parities = {r.parity for r in here if r.quantity == "variance"}
            assert parities == ({"even"} if abs(alpha) == 0 else {"even", "odd"})
    for r in rows:
        assert math.isfinite(r.published_value)
        assert math.isfinite(r.oracle_value)
    zero_rows = [r for r in rows if abs(r.alpha) == 0]
    worst_zero = max(abs(r.published_value - r.oracle_value) for r in zero_rows)
    elapsed = time.time() - t0
    ok = worst_zero < 1e-8
    report(9, ok, elapsed, f"{len(rows)} rows, alpha=0 worst gap {worst_zero:.2e}")
    assert worst_zero < 1e-8


def test_criterion_10_determinism(tmp_path):
    t0 = time.time()
    scan_cfg = tmp_path / "scan.cfg"
    scan_cfg.write_text(
        "[scan]\nE = 10\nN_list = 4 8\nn_pattern = 1\nrho_pattern = 1.0\nr = 0.5\nR = 2\n")
    cm_cfg = tmp_path / "cm.cfg"
    cm_cfg.write_text("[system]\nmode = fock 1 x2\nmode = even 1.0 0.0\n[frame]\nmu = 1.0\nnu = 0.0\n")
    blobs = {}
    for tag, args in {
        "scan_run1": ["clt-scan", "--config", str(scan_cfg), "--seed", "42"],
        "scan_run2": ["clt-scan", "--config", str(scan_cfg), "--seed", "42"],
        "cm_run1": ["cm", "--config", str(cm_cfg), "--seed", "42", "--all-backends", "--mc-samples", "200000"],
        "cm_run2": ["cm", "--config", str(cm_cfg), "--seed", "42", "--all-backends", "--mc-samples", "200000"],
    }.items():
        out = tmp_path / f"{tag}.csv"
        assert main(args + ["--out", str(out)]) == 0
        blobs[tag] = out.read_bytes()
    same_scan = blobs["scan_run1"] == blobs["scan_run2"]
    same_cm = blobs["cm_run1"] == blobs["cm_run2"]
    elapsed = time.time() - t0
    ok = same_scan and same_cm
    report(10, ok, elapsed, f"scan identical {same_scan}, cm identical {same_cm}")
    assert same_scan
    assert same_cm
