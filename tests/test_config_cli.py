import contextlib
import io
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmtomo import cli, marginals
from cmtomo.cli import _FIELD, _fmt, _rows, main
from cmtomo.config import parse_config_text, parse_frame, parse_system
from cmtomo.errors import ConfigError, NormalizationMismatchWarning
from cmtomo.reconstruct import CutoffError, ReconstructionCutoffs
from cmtomo.states import CoherentEven, Fock


class TestConfigParser:
    def test_basic_sections(self):
        raw = parse_config_text("""
# comment
[system]
hbar = 0.5
mode = fock 2
mode = even 1.0 0.5
[frame]
mu = 1.0 0.6
nu = 0.0 0.8
r = 0.5
R = 2.0
""")
        sys = parse_system(raw)
        assert sys.hbar == 0.5
        assert sys.modes == (Fock(2), CoherentEven(1 + 0.5j))
        frame = parse_frame(raw, 2)
        assert frame.mu == (1.0, 0.6)
        assert frame.r == 0.5 and frame.R == 2.0

    def test_mode_repetition_suffix(self):
        raw = parse_config_text("[system]\nmode = fock 1 x8\n")
        assert parse_system(raw).modes == (Fock(1),) * 8

    def test_frame_broadcast(self):
        raw = parse_config_text("[system]\nmode = fock 0 x3\n[frame]\nmu = 1.0\nnu = 0.0\n")
        frame = parse_frame(raw, 3)
        assert frame.mu == (1.0, 1.0, 1.0)

    def test_line_precise_errors(self):
        with pytest.raises(ConfigError, match=":3:"):
            parse_system(parse_config_text("[system]\nhbar = 1\nmode = fock nope\n"))
        with pytest.raises(ConfigError, match=":1:"):
            parse_config_text("key = 1\n")
        with pytest.raises(ConfigError, match=":2:"):
            parse_config_text("[system]\nnot a pair\n")

    def test_bad_mode_kind(self):
        with pytest.raises(ConfigError, match="unknown mode kind"):
            parse_config_text("[system]\nmode = thermal 3\n").sections and parse_system(
                parse_config_text("[system]\nmode = thermal 3\n"))

    def test_odd_alpha_zero_rejected(self):
        raw = parse_config_text("[system]\nmode = odd 0 0\n")
        with pytest.raises(ConfigError):
            parse_system(raw)

    def test_frame_radius_out_of_bounds(self):
        raw = parse_config_text(
            "[system]\nmode = fock 0\n[frame]\nmu = 3.0\nnu = 0.0\nr = 0.5\nR = 2.0\n")
        with pytest.raises(ConfigError, match="frame"):
            parse_frame(raw, 1)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


VACUUM_CFG = "[system]\nhbar = 1.0\nmode = fock 0\n[frame]\nmu = 1.0\nnu = 0.0\n"
FOCK1_CFG = "[system]\nhbar = 1.0\nmode = fock 1\n[frame]\nmu = 1.0\nnu = 0.0\n"


def read_csv(path):
    header, columns, rows, footer = [], None, [], []
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                (footer if columns is not None else header).append(line[2:])
            elif columns is None:
                columns = line.split(",")
            else:
                rows.append(line.split(","))
    return header, columns, np.array([[float(v) for v in row] for row in rows]), footer


class TestCmdMarginal:
    def test_vacuum_csv(self, tmp_path):
        cfg = write(tmp_path, "c.cfg", VACUUM_CFG)
        out = str(tmp_path / "out.csv")
        assert main(["marginal", "--config", cfg, "--out", out]) == 0
        header, columns, data, _ = read_csv(out)
        assert columns == ["X", "density"]
        assert any(line.startswith("config sha256") for line in header)
        total = np.trapezoid(data[:, 1], data[:, 0])
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_fock1_shape(self, tmp_path):
        cfg = write(tmp_path, "c.cfg", FOCK1_CFG)
        out = str(tmp_path / "out.csv")
        assert main(["marginal", "--config", cfg, "--out", out]) == 0
        _, _, data, _ = read_csv(out)
        xs, dens = data[:, 0], data[:, 1]
        assert dens[np.argmin(np.abs(xs))] < 1e-8        # node at the origin
        peaks = (dens[1:-1] > dens[:-2]) & (dens[1:-1] > dens[2:]) & (dens[1:-1] > 0.1)
        assert peaks.sum() == 2                            # bimodal

    def test_odd_cat_rescale_header(self, tmp_path):
        cfg = write(tmp_path, "c.cfg", "[system]\nmode = odd 1.0 0.0\n[frame]\nmu = 1.0\nnu = 0.0\n")
        out = str(tmp_path / "out.csv")
        assert main(["marginal", "--config", cfg, "--out", out]) == 0
        header, _, _, _ = read_csv(out)
        assert any(line.startswith("rescale_factor") for line in header)
        assert any(line.startswith("pre_rescale_integral") for line in header)

    def test_multi_mode_rejected(self, tmp_path):
        cfg = write(tmp_path, "c.cfg", "[system]\nmode = fock 0 x2\n")
        assert main(["marginal", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 2

    @pytest.mark.parametrize("command", ["marginal", "reconstruct"])
    def test_multi_mode_error_names_mode_line(self, tmp_path, capsys, command):
        cfg = write(tmp_path, "c.cfg", "[system]\nhbar = 1\nmode = fock 0\nmode = fock 1\n")
        out = tmp_path / "o.csv"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        assert f"{cfg}:4: this command needs exactly one mode" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["marginal", "cm"])
    def test_tiny_odd_alpha_exit_two(self, tmp_path, capsys, command):
        # below ODD_ALPHA_MIN the odd closed form loses its departure from |1>
        # to rounding; 1e-9 used to divide by zero in the normalization
        cfg = write(tmp_path, "c.cfg", "[system]\nmode = odd 1e-9 0\n[frame]\nmu = 1.0\nnu = 0.0\n")
        out = tmp_path / "o.csv"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        assert f"{cfg}:2: invalid mode line: odd coherent states require |alpha| >= 1e-05" in capsys.readouterr().err
        assert not out.exists()

    def test_smallest_odd_alpha_tracks_fock1(self, tmp_path):
        cfg = write(tmp_path, "c.cfg", "[system]\nmode = odd 1e-5 0\n[frame]\nmu = 1.0\nnu = 0.0\n")
        out = str(tmp_path / "o.csv")
        assert main(["marginal", "--config", cfg, "--out", out]) == 0
        _, _, data, _ = read_csv(out)
        want = marginals.fock_tomogram(1, 1.0, 0.0, 1.0, data[:, 0])
        # the O(|alpha|^2) departure from |1> is 0.55e-10 of the peak
        assert np.max(np.abs(data[:, 1] - want)) <= 1e-10 * np.max(want)

    def test_even_cat_alpha_five(self, tmp_path):
        # e^z and e^{A} are combined before exponentiating, so a large
        # Re alpha no longer forms inf * 0
        cfg = write(tmp_path, "c.cfg", "[system]\nmode = even 5 0\n")
        out = str(tmp_path / "out.csv")
        assert main(["marginal", "--config", cfg, "--out", out]) == 0
        _, _, data, _ = read_csv(out)
        assert np.all(np.isfinite(data))
        assert np.trapezoid(data[:, 1], data[:, 0]) == pytest.approx(1.0, abs=1e-8)


class TestCmdCm:
    def test_two_vacua_peak(self, tmp_path):
        cfg = write(tmp_path, "c.cfg", "[system]\nmode = fock 0 x2\n[frame]\nmu = 1.0\nnu = 0.0\n")
        out = str(tmp_path / "out.csv")
        assert main(["cm", "--config", cfg, "--out", out]) == 0
        header, columns, data, _ = read_csv(out)
        mid = data[np.argmin(np.abs(data[:, 0])), 1]
        assert mid == pytest.approx(1 / math.sqrt(2 * math.pi), abs=1e-6)
        assert any(line.startswith("sigma2") for line in header)
        assert any(line.startswith("S_N") for line in header)

    def test_single_mode_equals_marginal(self, tmp_path):
        cfg = write(tmp_path, "c.cfg", FOCK1_CFG)
        m_out = str(tmp_path / "m.csv")
        c_out = str(tmp_path / "c.csv")
        assert main(["marginal", "--config", cfg, "--out", m_out]) == 0
        assert main(["cm", "--config", cfg, "--out", c_out]) == 0
        _, _, m_data, _ = read_csv(m_out)
        _, _, c_data, _ = read_csv(c_out)
        merged = np.interp(m_data[:, 0], c_data[:, 0], c_data[:, 1])
        np.testing.assert_allclose(merged, m_data[:, 1], atol=1e-9)

    def test_all_backends_footers(self, tmp_path):
        cfg = write(tmp_path, "c.cfg",
                    "[system]\nmode = fock 1 x2\nmode = even 1.0 0.0\n[frame]\nmu = 1.0\nnu = 0.0\n")
        out = str(tmp_path / "out.csv")
        assert main(["cm", "--config", cfg, "--out", out, "--all-backends",
                     "--seed", "11", "--mc-samples", "200000"]) == 0
        _, columns, data, footer = read_csv(out)
        assert columns == ["X", "density", "density_cf", "density_mc"]
        tv = [float(line.split()[1]) for line in footer if line.startswith("tv_fft_cf")]
        tv_mc = [float(line.split()[1]) for line in footer if line.startswith("tv_fft_mc")]
        ks = [float(line.split()[1]) for line in footer if line.startswith("ks_fft_mc")]
        assert tv and tv[0] < 0.01
        assert tv_mc and tv_mc[0] < 0.01
        assert ks and ks[0] < 0.01


    @pytest.mark.parametrize("samples", ["0", "-5"])
    def test_bad_mc_samples_exit_two(self, tmp_path, capsys, samples):
        cfg = write(tmp_path, "c.cfg", VACUUM_CFG)
        out = tmp_path / "cm.csv"
        assert main(["cm", "--config", cfg, "--out", str(out), "--all-backends",
                     "--mc-samples", samples]) == 2
        assert "config error: --mc-samples" in capsys.readouterr().err
        assert not out.exists()

    FRAME_CFG = "[system]\nmode = fock 0 x2\n[frame]\nmu = 1.0\nnu = 0.0\nr = 0.5\nR = 2.0\n"

    @pytest.mark.parametrize("key, value, line", [
        ("mu", "1 1 1", 4), ("nu", "0 0 0", 5), ("mu", "nan", 4), ("nu", "1 inf", 5),
        ("mu", "0", 5), ("nu", "1e200", 5), ("r", "2", 6), ("r", "-1", 6), ("R", "0.9", 7), ("R", "nan", 7),
    ])
    def test_bad_frame_exit_two(self, tmp_path, capsys, key, value, line):
        text = "\n".join(f"{key} = {value}" if row.startswith(f"{key} =") else row
                         for row in self.FRAME_CFG.splitlines()) + "\n"
        cfg = write(tmp_path, "c.cfg", text)
        out = tmp_path / "cm.csv"
        assert main(["cm", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{cfg}:{line}: " in err and "frame" in err.replace(cfg, "")
        assert not out.exists()


class TestCmdCltScan:
    CFG = "[scan]\nE = 10\nN_list = 4 8 16\nn_pattern = 1\nrho_pattern = 1.0\nr = 0.5\nR = 2\ntheta = 0\n"

    def test_scan_csv(self, tmp_path):
        cfg = write(tmp_path, "c.cfg", self.CFG)
        out = str(tmp_path / "scan.csv")
        assert main(["clt-scan", "--config", cfg, "--out", out]) == 0
        _, columns, data, _ = read_csv(out)
        assert columns == ["N", "hbar", "S_N", "sigma2", "rE", "RE", "ks", "tv"]
        s_n = data[:, 2]
        assert np.all(np.diff(s_n) < 0)
        for row in data:
            N, hbar, _, sigma2, rE, RE = row[0], row[1], row[2], row[3], row[4], row[5]
            assert rE <= sigma2 <= RE
            assert hbar == pytest.approx(10.0 / (N / 2 + N), rel=1e-12)

    @pytest.mark.parametrize("key, value, line", [
        ("N_list", "0 4", 3), ("N_list", "", 3), ("rho_pattern", "0", 5), ("rho_pattern", "-1", 5),
        ("E", "nan", 2), ("E", "-1", 2), ("theta", "nan", 8), ("theta", "inf", 8),
        ("r", "5", 6), ("r", "-1", 6), ("R", "0.9", 7), ("R", "nan", 7),
        ("n_pattern", "-1", 4), ("n_pattern", "1 -2", 4), ("n_pattern", "", 4),
    ])
    def test_bad_scan_value_exit_two(self, tmp_path, capsys, key, value, line):
        text = "\n".join(f"{key} = {value}" if row.startswith(f"{key} =") else row
                         for row in self.CFG.splitlines()) + "\n"
        cfg = write(tmp_path, "c.cfg", text)
        out = tmp_path / "scan.csv"
        assert main(["clt-scan", "--config", cfg, "--out", str(out)]) == 2
        assert f"{cfg}:{line}: {key}" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_scan_section(self, tmp_path):
        cfg = write(tmp_path, "c.cfg", VACUUM_CFG)
        assert main(["clt-scan", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 2


class TestCmdHbarScan:
    CFG = ("[system]\nmode = fock 1 x4\n[frame]\nmu = 1.0\nnu = 0.0\n"
           "[scan]\nhbar_list = 1 0.1 0.01\nepsilon = 0.1\n")

    def test_scan_csv(self, tmp_path):
        cfg = write(tmp_path, "c.cfg", self.CFG)
        out = str(tmp_path / "scan.csv")
        assert main(["hbar-scan", "--config", cfg, "--out", out]) == 0
        _, columns, data, _ = read_csv(out)
        assert columns == ["hbar", "sigma2", "mass_in_epsilon", "gaussian_predicted_mass"]
        assert np.all(np.diff(data[:, 2]) > 0)
        ratio = data[:, 1] / data[:, 0]
        np.testing.assert_allclose(ratio, ratio[0], rtol=1e-12)
        np.testing.assert_allclose(data[:, 2], data[:, 3], atol=0.02)

    @pytest.mark.parametrize("hbar_list", ["inf 1", "1 0", "1 -0.5", "1 1", ""])
    def test_bad_hbar_list_exit_two(self, tmp_path, capsys, hbar_list):
        cfg = write(tmp_path, "c.cfg", self.CFG.replace("hbar_list = 1 0.1 0.01", f"hbar_list = {hbar_list}"))
        out = tmp_path / "scan.csv"
        assert main(["hbar-scan", "--config", cfg, "--out", str(out)]) == 2
        assert f"{cfg}:7:" in capsys.readouterr().err
        assert not out.exists()


    @pytest.mark.parametrize("epsilon", ["-1", "0", "nan", "inf"])
    def test_bad_epsilon_exit_two(self, tmp_path, capsys, epsilon):
        cfg = write(tmp_path, "c.cfg", self.CFG.replace("epsilon = 0.1", f"epsilon = {epsilon}"))
        out = tmp_path / "scan.csv"
        assert main(["hbar-scan", "--config", cfg, "--out", str(out)]) == 2
        assert f"{cfg}:8: epsilon" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("epsilon", ["-1", "nan"])
    def test_bad_epsilon_flag_exit_two(self, tmp_path, capsys, epsilon):
        cfg = write(tmp_path, "c.cfg", self.CFG)
        out = tmp_path / "scan.csv"
        assert main(["hbar-scan", "--config", cfg, "--out", str(out), f"--epsilon={epsilon}"]) == 2
        assert "config error: --epsilon" in capsys.readouterr().err
        assert not out.exists()


class TestCmdReconstruct:
    def test_vacuum_roundtrip(self, tmp_path):
        cfg = write(tmp_path, "c.cfg", VACUUM_CFG +
                    "[reconstruct]\ndim = 8\nradial_nodes = 96\nangular_nodes = 64\n")
        out = str(tmp_path / "rho.txt")
        assert main(["reconstruct", "--config", cfg, "--out", out]) == 0
        text = open(out).read()
        fid = float([l for l in text.splitlines() if "fidelity" in l][0].split()[-1])
        assert fid >= 0.99
        assert "truncation_leakage no" in text

    def test_truncation_warning_flag_exit_zero(self, tmp_path):
        cfg = write(tmp_path, "c.cfg",
                    "[system]\nmode = even 2.0 0.0\n[frame]\nmu = 1.0\nnu = 0.0\n"
                    "[reconstruct]\ndim = 4\nradial_nodes = 64\nangular_nodes = 48\n")
        out = str(tmp_path / "rho.txt")
        assert main(["reconstruct", "--config", cfg, "--out", out]) == 0
        assert "truncation_leakage yes" in open(out).read()

    def test_dim_one_exit_two(self, tmp_path, capsys):
        cfg = write(tmp_path, "c.cfg", VACUUM_CFG + "[reconstruct]\ndim = 1\n")
        out = tmp_path / "rho.txt"
        assert main(["reconstruct", "--config", cfg, "--out", str(out)]) == 2
        assert f"{cfg}:8: reconstruct dim" in capsys.readouterr().err
        assert not out.exists()

    # each case is checked at the ReconstructionCutoffs level before the
    # CLI runs, so a validation regression fails here instead of hanging
    @pytest.mark.parametrize("key, value", [
        ("x_points", "0"), ("x_points", "-4"), ("radial_nodes", "0"), ("angular_nodes", "0"),
        ("frame_radius", "nan"), ("frame_radius", "-1"), ("x_sigmas", "0"),
    ])
    def test_bad_cutoff_exit_two(self, tmp_path, capsys, key, value):
        with pytest.raises(CutoffError):
            ReconstructionCutoffs(**{key: (float if key in ("frame_radius", "x_sigmas") else int)(value)})
        cfg = write(tmp_path, "c.cfg", VACUUM_CFG + f"[reconstruct]\ndim = 8\n{key} = {value}\n")
        out = tmp_path / "rho.txt"
        assert main(["reconstruct", "--config", cfg, "--out", str(out)]) == 2
        assert f"{cfg}:9: {key}" in capsys.readouterr().err
        assert not out.exists()


class TestCmdDiscrepancyReport:
    CFG = ("[report]\nalpha = 0 0\nalpha = 1 0\nalpha = 1 0.5\n"
           "frame = 1 0\nframe = 0.6 0.8\nhbar = 1.0\n")

    def test_report_complete_and_deterministic(self, tmp_path):
        cfg = write(tmp_path, "c.cfg", self.CFG)
        out1 = str(tmp_path / "r1.csv")
        out2 = str(tmp_path / "r2.csv")
        assert main(["discrepancy-report", "--config", cfg, "--out", out1]) == 0
        assert main(["discrepancy-report", "--config", cfg, "--out", out2]) == 0
        assert open(out1, "rb").read().replace(out1.encode(), b"") == \
            open(out2, "rb").read().replace(out2.encode(), b"")
        header, columns, _, _ = read_csv_report(out1)
        assert columns == ["quantity", "alpha_re", "alpha_im", "parity", "mu", "nu",
                           "hbar", "published_value", "oracle_value", "ratio"]

    def test_alpha_zero_rows_agree(self, tmp_path):
        cfg = write(tmp_path, "c.cfg", self.CFG)
        out = str(tmp_path / "r.csv")
        assert main(["discrepancy-report", "--config", cfg, "--out", out]) == 0
        rows = report_rows(out)
        zero_rows = [r for r in rows if float(r["alpha_re"]) == 0 and float(r["alpha_im"]) == 0]
        assert zero_rows
        for r in zero_rows:
            assert abs(float(r["published_value"]) - float(r["oracle_value"])) < 1e-8

    def test_odd_variance_rows_document_mismatch(self, tmp_path):
        cfg = write(tmp_path, "c.cfg", self.CFG)
        out = str(tmp_path / "r.csv")
        main(["discrepancy-report", "--config", cfg, "--out", out])
        rows = report_rows(out)
        odd_var = [r for r in rows if r["quantity"] == "variance" and r["parity"] == "odd"
                   and float(r["alpha_re"]) == 1 and float(r["alpha_im"]) == 0]
        assert odd_var and abs(float(odd_var[0]["ratio"]) - 1) > 0.05


    def test_tiny_alpha_exit_two(self, tmp_path, capsys):
        cfg = write(tmp_path, "c.cfg", "[report]\nalpha = 1e-12 0\nframe = 1 0\n")
        out = tmp_path / "r.csv"
        assert main(["discrepancy-report", "--config", cfg, "--out", str(out)]) == 2
        assert f"{cfg}:2: alpha must be 0 or of modulus at least 1e-05" in capsys.readouterr().err
        assert not out.exists()

    def test_only_normalization_warnings_are_silenced(self, tmp_path, monkeypatch):
        def noisy(alphas, frames, hbar):
            warnings.warn("pre-rescale integral off", NormalizationMismatchWarning)
            warnings.warn("something else", UserWarning)
            return []

        monkeypatch.setattr(cli, "discrepancy_rows", noisy)
        cfg = write(tmp_path, "c.cfg", self.CFG)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["discrepancy-report", "--config", cfg, "--out", str(tmp_path / "r.csv")]) == 0
        assert [str(w.message) for w in caught] == ["something else"]

    @pytest.mark.parametrize("hbar", ["0", "-1", "inf", "nan"])
    def test_bad_hbar_exit_two(self, tmp_path, capsys, hbar):
        cfg = write(tmp_path, "c.cfg", self.CFG.replace("hbar = 1.0", f"hbar = {hbar}"))
        out = tmp_path / "r.csv"
        assert main(["discrepancy-report", "--config", cfg, "--out", str(out)]) == 2
        assert f"{cfg}:7: hbar" in capsys.readouterr().err
        assert not out.exists()


def read_csv_report(path):
    header, columns, rows = [], None, []
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                header.append(line[2:])
            elif columns is None:
                columns = line.split(",")
            else:
                rows.append(line.split(","))
    return header, columns, rows, []


def report_rows(path):
    _, columns, rows, _ = read_csv_report(path)
    return [dict(zip(columns, row)) for row in rows]


class TestDeterminism:
    def test_byte_identical_runs_and_threads(self, tmp_path):
        # scans run on one thread; two runs of one config and seed agree byte for byte
        cfg = write(tmp_path, "c.cfg",
                    "[scan]\nE = 10\nN_list = 4 8\nn_pattern = 1\nrho_pattern = 1.0\nr = 0.5\nR = 2\n")
        outs = []
        for name in ("a.csv", "b.csv"):
            out = str(tmp_path / name)
            assert main(["clt-scan", "--config", cfg, "--out", out, "--seed", "42"]) == 0
            outs.append(open(out, "rb").read())
        assert outs[0] == outs[1]

    def test_mc_backend_deterministic(self, tmp_path):
        cfg = write(tmp_path, "c.cfg", "[system]\nmode = fock 1 x2\n[frame]\nmu = 1.0\nnu = 0.0\n")
        blobs = []
        for name in ("a.csv", "b.csv"):
            out = str(tmp_path / name)
            assert main(["cm", "--config", cfg, "--out", out, "--all-backends",
                         "--seed", "7", "--mc-samples", "100000"]) == 0
            blobs.append(open(out, "rb").read())
        assert blobs[0] == blobs[1]


class TestRowFormatting:
    EDGES = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1.7976931348623157e308,
             0.1, 1.0 / 3.0, 123456789.0, 1e16, 1e17, 1e-5]

    def test_field_template_equals_fmt(self):
        values = self.EDGES + np.random.default_rng(8).standard_normal(2000).tolist() + (
            10.0 ** np.random.default_rng(9).uniform(-320, 308, 2000)).tolist()
        for x in values:
            assert _FIELD % x == _fmt(x)

    def test_rows_equal_per_cell_fmt(self):
        rng = np.random.default_rng(10)
        cols = [np.array(self.EDGES), rng.standard_normal(len(self.EDGES)),
                rng.exponential(size=len(self.EDGES)) * 1e-300]
        want = [",".join(_fmt(col[i]) for col in cols) for i in range(len(self.EDGES))]
        assert _rows(*(col.tolist() for col in cols)) == want


class TestExitCodes:
    def test_missing_config(self, tmp_path):
        assert main(["marginal", "--config", str(tmp_path / "nope.cfg"),
                     "--out", str(tmp_path / "o.csv")]) == 2

    def test_no_out_path(self, tmp_path):
        cfg = write(tmp_path, "c.cfg", VACUUM_CFG)
        assert main(["marginal", "--config", cfg]) == 2

    def test_numerical_failure_exit_three(self, tmp_path):
        # frame radii five decades apart force the shared lattice past the
        # grid cap: a numerical failure, not a config error
        cfg = write(tmp_path, "c.cfg",
                    "[system]\nmode = fock 0 x2\n[frame]\nmu = 1e-4 10.0\nnu = 0 0\n"
                    "r = 1e-9\nR = 1000\n")
        assert main(["cm", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 3

    def test_out_from_run_section(self, tmp_path):
        out = tmp_path / "from_run.csv"
        cfg = write(tmp_path, "c.cfg", VACUUM_CFG + f"[run]\nout = {out}\n")
        assert main(["marginal", "--config", cfg]) == 0
        assert out.exists()

    def test_nonfinite_density_exit_three(self, tmp_path, monkeypatch):
        # a closed form that evaluates to nan on every node: the density
        # validator stops it before anything is written
        monkeypatch.setattr(marginals, "evenodd_pointwise",
                            lambda alpha, parity, mu, nu, hbar, X: np.full(np.shape(X), np.nan))
        out = tmp_path / "o.csv"
        cfg = write(tmp_path, "c.cfg", "[system]\nmode = even 1 0\n")
        assert main(["marginal", "--config", cfg, "--out", str(out)]) == 3
        assert not out.exists()

    def test_infinite_hbar_exit_two(self, tmp_path, capsys):
        cfg = write(tmp_path, "c.cfg", "[system]\nhbar = inf\nmode = fock 0\n[frame]\nmu = 1.0\nnu = 0.0\n")
        assert main(["cm", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 2
        assert f"{cfg}:2:" in capsys.readouterr().err


FRAME_DIRECTIONS = ((1.0, 0.0), (0.0, 1.0), (0.6, 0.8), (-0.8, 0.6))
NUMERIC_HEADER = ("rescale_factor", "pre_rescale_integral", "sigma2", "S_N", "clamped_mass")


@st.composite
def generated_configs(draw):
    """(command, config text, extra flags) for a `marginal` or `cm` run: Fock
    levels 0-40, even/odd cats with |alpha| from 1e-12 to 5, hbar from 1e-3
    to 1e3, 1-4 modes."""
    command = draw(st.sampled_from(["marginal", "cm"]))
    n_modes = 1 if command == "marginal" else draw(st.integers(1, 4))
    lines = ["[system]", f"hbar = {10.0 ** draw(st.floats(-3.0, 3.0))!r}"]
    for _ in range(n_modes):
        kind = draw(st.sampled_from(["fock", "even", "odd"]))
        if kind == "fock":
            lines.append(f"mode = fock {draw(st.integers(0, 40))}")
        else:
            size = 10.0 ** draw(st.floats(-12.0, math.log10(5.0)))
            angle = draw(st.floats(0.0, 2.0 * math.pi))
            lines.append(f"mode = {kind} {size * math.cos(angle)!r} {size * math.sin(angle)!r}")
    directions = [draw(st.sampled_from(FRAME_DIRECTIONS)) for _ in range(n_modes)]
    lines += ["[frame]", "mu = " + " ".join(repr(mu) for mu, _ in directions),
              "nu = " + " ".join(repr(nu) for _, nu in directions)]
    flags = ["--all-backends", "--mc-samples", "4096"] if command == "cm" and draw(st.booleans()) else []
    return command, "\n".join(lines) + "\n", flags


class TestGeneratedConfigs:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(case=generated_configs())
    def test_exit_code_and_finite_artifact(self, case):
        command, text, flags = case
        with tempfile.TemporaryDirectory() as tmp:
            cfg = write(Path(tmp), "c.cfg", text)
            out = Path(tmp) / "o.csv"
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main([command, "--config", cfg, "--out", str(out), *flags])
            assert code in (0, 2, 3), err.getvalue()
            assert "Traceback" not in err.getvalue()
            if code != 0:
                assert not out.exists()
                return
            header, _, data, footer = read_csv(out)
            assert np.all(np.isfinite(data))
            for line in header + footer:
                key, _, value = line.partition(" ")
                if key in NUMERIC_HEADER or key.startswith(("tv_", "ks_")):
                    assert math.isfinite(float(value)), line


def test_cli_import_loads_no_scipy():
    code = "import sys, cmtomo.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert done.stdout.strip() == "[]"
