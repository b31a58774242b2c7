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

from conftest import blas_threads

from cmtomo import _blas, cli, convolution, marginals
from cmtomo.cli import _FIELD, _fmt, _rows, main
from cmtomo.clt import summed_density
from cmtomo.config import SCALE_MAX, SCALE_MIN, RawConfig, parse_config_text, parse_frame, parse_system
from cmtomo.convolution import MC_MODE_DRAWS_MAX, MC_SAMPLES_MAX
from cmtomo.errors import ConfigError, NormalizationMismatchWarning, NumericalError
from cmtomo.states import ALPHA_MAX, N_MAX, CoherentEven, Fock, ModeGroup, SystemSpec


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
        assert sys.groups == (ModeGroup(Fock(2), 1.0, 0.0), ModeGroup(CoherentEven(1 + 0.5j), 0.6, 0.8))
        assert parse_frame(raw, sys) == (0.5, 2.0)

    def test_mode_repetition_suffix(self):
        raw = parse_config_text("[system]\nmode = fock 1 x8\n")
        assert parse_system(raw).groups == (ModeGroup(Fock(1), 1.0, 0.0, 8),)

    def test_frame_broadcast(self):
        raw = parse_config_text("[system]\nmode = fock 0 x3\nmode = fock 1\n[frame]\nmu = 0.6\nnu = 0.8\n")
        sys = parse_system(raw)
        assert sys.groups == (ModeGroup(Fock(0), 0.6, 0.8, 3), ModeGroup(Fock(1), 0.6, 0.8))
        assert parse_frame(raw, sys) == (0.5 * (0.6 * 0.6 + 0.8 * 0.8), 2.0 * (0.6 * 0.6 + 0.8 * 0.8))

    def test_per_mode_frames_split_and_merge_groups(self):
        # a per-mode direction list splits a line's group where the direction
        # changes; equal (mode, direction) pairs merge in first-appearance order
        raw = parse_config_text("[system]\nmode = fock 1 x3\nmode = fock 2\nmode = fock 1\n"
                                "[frame]\nmu = 1 0.6 1 1 1\nnu = 0 0.8 0 0 0\n")
        assert parse_system(raw).groups == (ModeGroup(Fock(1), 1.0, 0.0, 3), ModeGroup(Fock(1), 0.6, 0.8),
                                            ModeGroup(Fock(2), 1.0, 0.0))

    def test_frame_not_read_when_not_asked(self):
        raw = parse_config_text("[system]\nmode = fock 1 x2\n[frame]\nmu = 0 0 0\nnu = 1\n")
        assert parse_system(raw, frame=False).groups == (ModeGroup(Fock(1), 1.0, 0.0, 2),)

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
            parse_frame(raw, parse_system(raw))


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


def blas_threads_seen(monkeypatch, name):
    """The OpenBLAS thread counts that the calls of cli.<name> see, in order."""
    seen = []
    original = getattr(cli, name)

    def spy(*args, **kwargs):
        seen.append(blas_threads())
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, name, spy)
    return seen


def skip_without_openblas():
    before = blas_threads()
    if before is None:
        pytest.skip("no OpenBLAS is loaded in this process")
    return before


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
        want = marginals.tomogram(Fock(1), 1.0, 0.0, 1.0, data[:, 0])
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

    def test_no_clamped_mass_reads_zero(self, tmp_path):
        # the vacuum's density has no negative node: its clamped mass is
        # the empty sum, written 0, not -0
        cfg = write(tmp_path, "c.cfg", VACUUM_CFG)
        out = str(tmp_path / "out.csv")
        assert main(["cm", "--config", cfg, "--out", out]) == 0
        header, _, _, _ = read_csv(out)
        assert [line for line in header if line.startswith("clamped_mass")] == ["clamped_mass 0"]


    @pytest.mark.parametrize("samples", ["0", "-5", str(MC_SAMPLES_MAX + 1)])
    def test_bad_mc_samples_exit_two(self, tmp_path, capsys, monkeypatch, samples):
        def never(*args, **kwargs):
            raise AssertionError("sample_sum called with a rejected count")

        monkeypatch.setattr(cli, "sample_sum", never)
        cfg = write(tmp_path, "c.cfg", VACUUM_CFG)
        out = tmp_path / "cm.csv"
        assert main(["cm", "--config", cfg, "--out", str(out), "--all-backends",
                     "--mc-samples", samples]) == 2
        err = capsys.readouterr().err
        assert "config error: --mc-samples" in err
        assert int(samples) <= 0 or f"at most {MC_SAMPLES_MAX}" in err
        assert not out.exists()

    def test_mc_samples_at_bound_accepted(self, tmp_path, monkeypatch):
        # the bound itself reaches sample_sum; the stub draws a few samples in its place
        asked = []
        original = cli.sample_sum

        def few(sys_spec, n_samples, seed, marginals):
            asked.append(n_samples)
            return original(sys_spec, 1000, seed, marginals)

        monkeypatch.setattr(cli, "sample_sum", few)
        cfg = write(tmp_path, "c.cfg", VACUUM_CFG)
        assert main(["cm", "--config", cfg, "--out", str(tmp_path / "cm.csv"), "--all-backends",
                     "--mc-samples", str(MC_SAMPLES_MAX)]) == 0
        assert asked == [MC_SAMPLES_MAX]

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

    # epsilon is set only by [scan] epsilon: --epsilon is no option, valid value or not
    @pytest.mark.parametrize("epsilon", ["0.1", "nan"])
    def test_epsilon_flag_usage_error(self, tmp_path, capsys, epsilon):
        cfg = write(tmp_path, "c.cfg", self.CFG)
        out = tmp_path / "scan.csv"
        with pytest.raises(SystemExit) as exc:
            main(["hbar-scan", "--config", cfg, "--out", str(out), f"--epsilon={epsilon}"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --epsilon" in capsys.readouterr().err
        assert not out.exists()


class TestCmdReconstruct:
    def test_vacuum_roundtrip(self, tmp_path):
        cfg = write(tmp_path, "c.cfg", VACUUM_CFG + "[reconstruct]\ndim = 8\n")
        out = str(tmp_path / "rho.txt")
        assert main(["reconstruct", "--config", cfg, "--out", out]) == 0
        text = open(out).read()
        fid = float([l for l in text.splitlines() if "fidelity" in l][0].split()[-1])
        assert fid >= 0.99
        assert "truncation_leakage no" in text

    def test_truncation_warning_flag_exit_zero(self, tmp_path):
        cfg = write(tmp_path, "c.cfg",
                    "[system]\nmode = even 2.0 0.0\n[frame]\nmu = 1.0\nnu = 0.0\n"
                    "[reconstruct]\ndim = 4\n")
        out = str(tmp_path / "rho.txt")
        assert main(["reconstruct", "--config", cfg, "--out", out]) == 0
        assert "truncation_leakage yes" in open(out).read()

    def test_fock20_at_dim32_within_frame_radius(self, tmp_path):
        # a frame radius of 10 whatever dim is cut off Fock 20: fidelity 0.56
        # and truncation_leakage yes; the reach of level dim - 1 holds it
        cfg = write(tmp_path, "c.cfg", "[system]\nmode = fock 20\n[reconstruct]\ndim = 32\n")
        out = str(tmp_path / "rho.txt")
        assert main(["reconstruct", "--config", cfg, "--out", out]) == 0
        keyed = dict(l[2:].split(" ", 1) for l in open(out).read().splitlines() if l.startswith("# "))
        assert keyed["truncation_leakage"] == "no"
        assert float(keyed["cutoff_char_function"]) < 1e-12
        assert float(keyed["fidelity"]) >= 1.0 - 1e-6

    def test_rows_match_per_cell_form(self, tmp_path, monkeypatch):
        # one row template per line writes the bytes a _fmt call per cell did
        seen = []
        original = cli.reconstruct_single_mode

        def keep(*args):
            seen.append(original(*args))
            return seen[-1]

        monkeypatch.setattr(cli, "reconstruct_single_mode", keep)
        cfg = write(tmp_path, "c.cfg", "[system]\nhbar = 0.5\nmode = odd 0.6 0.8\n"
                    "[reconstruct]\ndim = 6\n")
        out = tmp_path / "rho.txt"
        assert main(["reconstruct", "--config", cfg, "--out", str(out)]) == 0
        text = out.read_text()
        head, _, body = text.partition("m,n,re,im\n")
        entries = seen[0].entries
        cells = [f"{m},{n},{_fmt(entries[m, n].real)},{_fmt(entries[m, n].imag)}"
                 for m in range(6) for n in range(6)]
        assert body == "\n".join(cells) + "\n"
        assert head.endswith("\n") and "# cutoff_char_function " in head

    def test_frame_section_not_read(self, tmp_path):
        # the frame integral covers every direction: a [frame], degenerate
        # or not, changes nothing but the config digest
        base = "[system]\nhbar = 0.5\nmode = odd 0.6 0.8\n[reconstruct]\ndim = 12\n"
        texts = [base, base + "[frame]\nmu = 0.6\nnu = 0.8\n", base + "[frame]\nmu = 0\nnu = 0\n"]
        artifacts = []
        for i, text in enumerate(texts):
            cfg = write(tmp_path, f"c{i}.cfg", text)
            out = tmp_path / f"rho{i}.txt"
            assert main(["reconstruct", "--config", cfg, "--out", str(out)]) == 0
            artifacts.append([l for l in out.read_text().splitlines() if not l.startswith("# config sha256")])
        assert artifacts[1] == artifacts[0] and artifacts[2] == artifacts[0]

    def test_dim_one_exit_two(self, tmp_path, capsys):
        cfg = write(tmp_path, "c.cfg", VACUUM_CFG + "[reconstruct]\ndim = 1\n")
        out = tmp_path / "rho.txt"
        assert main(["reconstruct", "--config", cfg, "--out", str(out)]) == 2
        assert f"{cfg}:8: reconstruct dim" in capsys.readouterr().err
        assert not out.exists()

    # every cutoff follows dim and hbar; a config that still sets one is
    # told so, not silently run at other sizes
    @pytest.mark.parametrize("key", ["frame_radius", "radial_nodes", "angular_nodes", "x_sigmas", "x_points"])
    def test_removed_cutoff_key_exit_two(self, tmp_path, capsys, key):
        cfg = write(tmp_path, "c.cfg", VACUUM_CFG + f"[reconstruct]\ndim = 8\n{key} = 64\n")
        out = tmp_path / "rho.txt"
        assert main(["reconstruct", "--config", cfg, "--out", str(out)]) == 2
        assert f"{cfg}:9: [reconstruct] takes only dim; {key} is not read" in capsys.readouterr().err
        assert not out.exists()

    # the tables are checked before the frame radius is formed: at dim 10^9
    # the reach of level dim - 1 would raise past Fock's level cap
    @pytest.mark.parametrize("dim", ["257", "1000000000"])
    def test_oversized_job_exit_three(self, tmp_path, capsys, dim):
        cfg = write(tmp_path, "c.cfg", VACUUM_CFG + f"[reconstruct]\ndim = {dim}\n")
        out = tmp_path / "rho.txt"
        assert main(["reconstruct", "--config", cfg, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "numerical failure: reconstruction table tomogram rows" in err and "Traceback" not in err
        assert not out.exists()

    # exit 2 is raised before reconstruct_single_mode, exit 3 inside it by its size checks
    @pytest.mark.parametrize("extra, code", [
        ("dim = 8\n", 0),
        ("dim = 8\nangular_nodes = 16\n", 2),
        ("dim = 257\n", 3),
    ], ids=["exit0", "exit2", "exit3"])
    def test_one_blas_thread_then_restored(self, tmp_path, monkeypatch, extra, code):
        before = skip_without_openblas()
        inside = blas_threads_seen(monkeypatch, "reconstruct_single_mode")
        cfg = write(tmp_path, "c.cfg", VACUUM_CFG + "[reconstruct]\n" + extra)
        assert main(["reconstruct", "--config", cfg, "--out", str(tmp_path / "rho.txt")]) == code
        assert inside == ([] if code == 2 else [1])
        assert blas_threads() == before


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


    # the report reads [report] only: [system] hbar = 0.5 used to exit 0 at
    # the default [report] hbar = 1
    @pytest.mark.parametrize("key, value", [("hbar", "0.5"), ("mode", "fock 1")])
    def test_system_key_exit_two(self, tmp_path, capsys, key, value):
        cfg = write(tmp_path, "c.cfg", f"[system]\n{key} = {value}\n" + self.CFG)
        out = tmp_path / "r.csv"
        assert main(["discrepancy-report", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{cfg}:2: discrepancy-report reads no [system] key; {key} is not read, set [report] hbar" in err
        assert not out.exists()

    def test_tiny_alpha_exit_two(self, tmp_path, capsys):
        cfg = write(tmp_path, "c.cfg", "[report]\nalpha = 1e-12 0\nframe = 1 0\n")
        out = tmp_path / "r.csv"
        assert main(["discrepancy-report", "--config", cfg, "--out", str(out)]) == 2
        assert f"{cfg}:2: alpha '1e-12 0': odd coherent states require |alpha| >= 1e-05" in capsys.readouterr().err
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

    # 1e-200 and 1e200 square to 0 and inf: the rule of parse_frame
    @pytest.mark.parametrize("frame", ["0 0", "1e-200 0", "1e200 0", "nan 0", "inf 0"])
    def test_degenerate_frame_exit_two(self, tmp_path, capsys, frame):
        cfg = write(tmp_path, "c.cfg", self.CFG.replace("frame = 0.6 0.8", f"frame = {frame}"))
        out = tmp_path / "r.csv"
        assert main(["discrepancy-report", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{cfg}:6: degenerate frame '{frame}'" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("hbar", ["0", "-1", "inf", "nan"])
    def test_bad_hbar_exit_two(self, tmp_path, capsys, hbar):
        cfg = write(tmp_path, "c.cfg", self.CFG.replace("hbar = 1.0", f"hbar = {hbar}"))
        out = tmp_path / "r.csv"
        assert main(["discrepancy-report", "--config", cfg, "--out", str(out)]) == 2
        assert f"{cfg}:7: hbar" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("hbar, code", [("1.0", 0), ("0", 2), ("1.0", 3)], ids=["exit0", "exit2", "exit3"])
    def test_one_blas_thread_then_restored(self, tmp_path, monkeypatch, hbar, code):
        before = skip_without_openblas()
        if code == 3:
            def failing(alphas, frames, hbar):
                raise NumericalError("report rows failed")

            monkeypatch.setattr(cli, "discrepancy_rows", failing)
        inside = blas_threads_seen(monkeypatch, "discrepancy_rows")
        cfg = write(tmp_path, "c.cfg", self.CFG.replace("hbar = 1.0", f"hbar = {hbar}"))
        assert main(["discrepancy-report", "--config", cfg, "--out", str(tmp_path / "r.csv")]) == code
        # hbar = 0 is rejected before the rows are formed
        assert inside == ([] if code == 2 else [1])
        assert blas_threads() == before


class TestBlasHold:
    """Commands that multiply matrices hold OpenBLAS to one thread; the rest leave it alone."""

    @pytest.mark.parametrize("command, name, text, flags", [
        ("clt-scan", "n_scan", TestCmdCltScan.CFG, []),
        ("hbar-scan", "hbar_scan", TestCmdHbarScan.CFG, []),
        ("marginal", "marginal_density", VACUUM_CFG, []),
        ("cm", "sample_sum", "[system]\nmode = fock 1 x2\n[frame]\nmu = 1.0\nnu = 0.0\n",
         ["--all-backends", "--mc-samples", "70000"]),
    ])
    def test_matrix_free_commands_keep_blas_threads(self, tmp_path, monkeypatch, command, name, text, flags):
        before = skip_without_openblas()
        inside = blas_threads_seen(monkeypatch, name)
        cfg = write(tmp_path, "c.cfg", text)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o.csv"), *flags]) == 0
        assert inside == [before]
        assert blas_threads() == before

    @pytest.mark.parametrize("command, text", [
        ("reconstruct", "[system]\nmode = even 1.0 0.0\n[reconstruct]\ndim = 16\n"),
        ("reconstruct", "[system]\nhbar = 0.5\nmode = odd 0.6 0.8\n[reconstruct]\ndim = 12\n"),
        ("discrepancy-report", TestCmdDiscrepancyReport.CFG),
    ])
    def test_artifact_bytes_without_the_hold(self, tmp_path, monkeypatch, command, text):
        cfg = write(tmp_path, "c.cfg", text)
        out = tmp_path / "o.csv"
        assert main([command, "--config", cfg, "--out", str(out)]) == 0
        held = out.read_bytes()
        monkeypatch.setattr(_blas, "_openblas", lambda: None)
        assert main([command, "--config", cfg, "--out", str(out)]) == 0
        assert out.read_bytes() == held


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
    def test_byte_identical_runs_and_threads(self, tmp_path, monkeypatch):
        # scans run on one thread; two runs of one config and seed agree byte for byte
        cfg = write(tmp_path, "c.cfg",
                    "[scan]\nE = 10\nN_list = 4 8\nn_pattern = 1\nrho_pattern = 1.0\nr = 0.5\nR = 2\n")
        outs = []
        for name in ("a.csv", "b.csv"):
            out = str(tmp_path / name)
            assert main(["clt-scan", "--config", cfg, "--out", out, "--seed", "42"]) == 0
            outs.append(open(out, "rb").read())
        assert outs[0] == outs[1]
        # the three-backend artifact is the same with one Monte-Carlo worker and with three
        cfg = write(tmp_path, "cm.cfg", "[system]\nmode = fock 1\nmode = even 1.0 0.5\n[frame]\n"
                                        "mu = 1.0 0.0\nnu = 0.0 1.0\n")
        blobs = []
        for cpus in (1, 3):
            monkeypatch.setattr(convolution.os, "sched_getaffinity", lambda pid, cpus=cpus: set(range(cpus)))
            out = str(tmp_path / f"cm{cpus}.csv")
            assert main(["cm", "--config", cfg, "--out", out, "--all-backends", "--seed", "42",
                         "--mc-samples", "200000"]) == 0
            blobs.append(open(out, "rb").read())
        assert blobs[0] == blobs[1]

    def test_mc_backend_deterministic(self, tmp_path):
        cfg = write(tmp_path, "c.cfg", "[system]\nmode = fock 1 x2\n[frame]\nmu = 1.0\nnu = 0.0\n")
        blobs = []
        for name in ("a.csv", "b.csv"):
            out = str(tmp_path / name)
            assert main(["cm", "--config", cfg, "--out", out, "--all-backends",
                         "--seed", "7", "--mc-samples", "100000"]) == 0
            blobs.append(open(out, "rb").read())
        assert blobs[0] == blobs[1]


class TestSettableSurface:
    """Every flag and every (section, key) pair a command reads; a new
    setting must change this test."""

    OPTIONS = ["-h", "--help", "--config", "--out", "--seed", "--all-backends", "--mc-samples"]
    EVERYTHING = ("[system]\nhbar = 1.0\nmode = fock 1\n[frame]\nmu = 1.0\nnu = 0.0\nr = 0.5\nR = 2.0\n"
                  "[scan]\nE = 10\nN_list = 4\nn_pattern = 1\nrho_pattern = 1.0\ntheta = 0\nr = 0.5\nR = 2\n"
                  "hbar_list = 1 0.1\nepsilon = 0.1\n[reconstruct]\ndim = 4\n"
                  "[report]\nalpha = 1 0\nframe = 1 0\nhbar = 1.0\n[run]\nseed = 3\nout = {out}\n")
    RUN = {("run", "out"), ("run", "seed")}
    SYSTEM = {("system", "mode"), ("system", "hbar")}
    FRAME = {("frame", "mu"), ("frame", "nu"), ("frame", "r"), ("frame", "R")}
    READS = {
        "marginal": RUN | SYSTEM | FRAME,
        "cm": RUN | SYSTEM | FRAME,
        "clt-scan": RUN | {("scan", key) for key in ("E", "N_list", "n_pattern", "rho_pattern", "theta", "r", "R")},
        "hbar-scan": RUN | SYSTEM | FRAME | {("scan", "hbar_list"), ("scan", "epsilon")},
        "reconstruct": RUN | SYSTEM | {("reconstruct", "dim")},
        "discrepancy-report": RUN | {("report", "alpha"), ("report", "frame"), ("report", "hbar")},
    }

    def test_flags_and_keys_read(self, tmp_path, monkeypatch):
        parser = cli.build_parser()
        assert [opt for action in parser._actions for opt in action.option_strings] == self.OPTIONS
        assert sorted(cli._COMMANDS) == sorted(self.READS)
        seen = set()
        for name in ("last", "all"):
            def spy(raw, section, key, original=getattr(RawConfig, name)):
                seen.add((section, key))
                return original(raw, section, key)

            monkeypatch.setattr(RawConfig, name, spy)
        out = tmp_path / "o.csv"
        cfg = write(tmp_path, "c.cfg", self.EVERYTHING.format(out=out))
        # discrepancy-report rejects every [system] key, so it reads the rest
        no_system = write(tmp_path, "r.cfg", self.EVERYTHING[self.EVERYTHING.index("[frame]"):].format(out=out))
        for command, want in self.READS.items():
            seen.clear()
            assert main([command, "--config", no_system if command == "discrepancy-report" else cfg]) == 0, command
            assert seen == want, command


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

    @pytest.mark.parametrize("command, flags", [("marginal", []), ("cm", ["--all-backends", "--mc-samples", "5000"])])
    def test_row_blocks_join_to_the_same_bytes(self, tmp_path, monkeypatch, command, flags):
        # rows written a few at a time, a partial block last, give the bytes
        # of one block holding every row
        cfg = write(tmp_path, "c.cfg", FOCK1_CFG)
        out = tmp_path / "o.csv"
        monkeypatch.setattr(cli, "_ROW_BLOCK", 2 ** 30)
        assert main([command, "--config", cfg, "--out", str(out), *flags]) == 0
        whole = out.read_bytes()
        rows = len([line for line in whole.splitlines() if not line.startswith(b"#")]) - 1
        assert rows > 7 and rows % 7
        monkeypatch.setattr(cli, "_ROW_BLOCK", 7)
        assert main([command, "--config", cfg, "--out", str(out), *flags]) == 0
        assert out.read_bytes() == whole

    def test_failed_block_leaves_old_artifact_and_no_temp_file(self, tmp_path, monkeypatch):
        cfg = write(tmp_path, "c.cfg", FOCK1_CFG)
        out = tmp_path / "o.csv"
        out.write_text("old\n")
        original = cli._rows
        calls = []

        def failing(*columns):
            calls.append(1)
            if len(calls) == 2:
                raise MemoryError("block")
            return original(*columns)

        monkeypatch.setattr(cli, "_rows", failing)
        monkeypatch.setattr(cli, "_ROW_BLOCK", 64)
        with pytest.raises(MemoryError, match="block"):
            main(["marginal", "--config", cfg, "--out", str(out)])
        assert out.read_text() == "old\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.cfg", "o.csv"]


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
        monkeypatch.setattr(marginals, "tomogram", lambda mode, mu, nu, hbar, X: np.full(np.shape(X), np.nan))
        out = tmp_path / "o.csv"
        cfg = write(tmp_path, "c.cfg", "[system]\nmode = even 1 0\n")
        assert main(["marginal", "--config", cfg, "--out", str(out)]) == 3
        assert not out.exists()

    @pytest.mark.parametrize("seed", ["abc", "1.5"])
    def test_bad_run_seed_exit_two(self, tmp_path, capsys, seed):
        # [run] seed goes through the integer reader: a bad value names its line
        cfg = write(tmp_path, "c.cfg", VACUUM_CFG + f"[run]\nseed = {seed}\n")
        out = tmp_path / "o.csv"
        assert main(["marginal", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{cfg}:8: 'seed' must be an integer" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("seed", [-1, 2 ** 64])
    def test_run_seed_out_of_range_exit_two(self, tmp_path, capsys, seed):
        cfg = write(tmp_path, "c.cfg", VACUUM_CFG + f"[run]\nseed = {seed}\n")
        out = tmp_path / "o.csv"
        assert main(["marginal", "--config", cfg, "--out", str(out)]) == 2
        assert f"{cfg}:8: seed must fit in 64 unsigned bits, got {seed}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("seed", [-1, 2 ** 64])
    def test_seed_flag_out_of_range_exit_two(self, tmp_path, capsys, seed):
        cfg = write(tmp_path, "c.cfg", VACUUM_CFG)
        out = tmp_path / "o.csv"
        assert main(["marginal", "--config", cfg, "--out", str(out), "--seed", str(seed)]) == 2
        assert f"--seed must fit in 64 unsigned bits, got {seed}" in capsys.readouterr().err
        assert not out.exists()

    def test_infinite_hbar_exit_two(self, tmp_path, capsys):
        cfg = write(tmp_path, "c.cfg", "[system]\nhbar = inf\nmode = fock 0\n[frame]\nmu = 1.0\nnu = 0.0\n")
        assert main(["cm", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 2
        assert f"{cfg}:2:" in capsys.readouterr().err


class TestSupportedRanges:
    # each of these ended in a traceback with exit 1
    @pytest.mark.parametrize("command, text", [
        ("discrepancy-report", "[report]\nalpha = inf 0\nframe = 1 0\n"),
        ("discrepancy-report", "[report]\nalpha = nan 0\nframe = 1 0\n"),
        ("discrepancy-report", "[report]\nalpha = 1e200 0\nframe = 1 0\n"),
        ("discrepancy-report", "[report]\nalpha = 1 0 0\nframe = 1 0\n"),
        ("marginal", "[system]\nmode = even 1e200 0\n"),
    ], ids=["report_inf", "report_nan", "report_1e200", "report_three_reals", "mode_even_1e200"])
    def test_bad_alpha_exit_two(self, tmp_path, capsys, command, text):
        cfg = write(tmp_path, "c.cfg", text)
        out = tmp_path / "o.csv"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        assert f"{cfg}:2: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["odd nan 0", "even 0 inf", "odd 1e5 1", "even 1.7e308 1.7e308"])
    def test_bad_alpha_mode_line_exit_two(self, tmp_path, capsys, mode):
        cfg = write(tmp_path, "c.cfg", f"[system]\nmode = fock 1\nmode = {mode}\n[frame]\nmu = 1\nnu = 0\n")
        assert main(["cm", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 2
        assert f"{cfg}:3: invalid mode line: " in capsys.readouterr().err

    def test_alpha_bound_edge(self, tmp_path):
        assert parse_system(parse_config_text(f"[system]\nmode = even {ALPHA_MAX!r} 0\n")).n_modes == 1
        with pytest.raises(ConfigError, match=":2: invalid mode line: cat states require"):
            parse_system(parse_config_text(f"[system]\nmode = odd 0 {ALPHA_MAX * (1 + 1e-15)!r}\n"))
        # in range, but no grid within the node cap resolves its fringes
        cfg = write(tmp_path, "c.cfg", f"[system]\nmode = even 0 {ALPHA_MAX!r}\n[frame]\nmu = 1\nnu = 0\n")
        assert main(["marginal", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 3

    def test_fock_level_edge(self, tmp_path, capsys):
        cfg = write(tmp_path, "c.cfg", "[system]\nmode = fock 1000\n")
        out = tmp_path / "o.csv"
        assert main(["marginal", "--config", cfg, "--out", str(out)]) == 0
        assert_finite_csv(out)
        cfg = write(tmp_path, "c.cfg", "[system]\nmode = fock 1001\n")
        assert main(["marginal", "--config", cfg, "--out", str(tmp_path / "p.csv")]) == 2
        assert f"{cfg}:2: invalid mode line: Fock level must be at most 1000" in capsys.readouterr().err

    def test_scan_level_edge(self, tmp_path, capsys):
        # S_N needs E|y|^3 of the level, which used to come out nan past n ~ 350
        cfg = write(tmp_path, "c.cfg", "[scan]\nE = 10\nN_list = 4\nn_pattern = 1000\n")
        out = tmp_path / "o.csv"
        assert main(["clt-scan", "--config", cfg, "--out", str(out)]) == 0
        assert_finite_csv(out)
        cfg = write(tmp_path, "c.cfg", "[scan]\nE = 10\nN_list = 4\nn_pattern = 0 1001\n")
        assert main(["clt-scan", "--config", cfg, "--out", str(tmp_path / "p.csv")]) == 2
        assert f"{cfg}:4: n_pattern" in capsys.readouterr().err

    @pytest.mark.parametrize("modes, line", [
        ("mode = fock 1 x99999999999999999999\n", 3), (f"mode = fock 1 x{N_MAX + 1}\n", 3),
        (f"mode = fock 1 x{N_MAX}\nmode = even 1 0\n", 4),
    ])
    def test_mode_count_above_bound_exit_two(self, tmp_path, capsys, modes, line):
        cfg = write(tmp_path, "c.cfg", "[system]\nhbar = 1\n" + modes + "[frame]\nmu = 1\nnu = 0\n")
        out = tmp_path / "o.csv"
        assert main(["cm", "--config", cfg, "--out", str(out)]) == 2
        assert f"{cfg}:{line}: the mode lines hold more than N_MAX = {N_MAX} modes" in capsys.readouterr().err
        assert not out.exists()

    def test_mode_count_at_bound_accepted(self):
        # one group, however many modes it holds
        sys_spec = parse_system(parse_config_text(f"[system]\nmode = fock 1 x{N_MAX}\n[frame]\nmu = 1\nnu = 0\n"))
        assert sys_spec.groups == (ModeGroup(Fock(1), 1.0, 0.0, N_MAX),)

    @pytest.mark.parametrize("n_list", [f"4 {N_MAX + 1}", "67108864"])
    def test_scan_n_above_bound_exit_two(self, tmp_path, capsys, n_list):
        cfg = write(tmp_path, "c.cfg", f"[scan]\nE = 10\nN_list = {n_list}\n")
        out = tmp_path / "o.csv"
        assert main(["clt-scan", "--config", cfg, "--out", str(out)]) == 2
        assert f"{cfg}:3: N_list entries must lie in 1..N_MAX = {N_MAX}" in capsys.readouterr().err
        assert not out.exists()

    def test_scan_n_at_bound_accepted(self, tmp_path, monkeypatch):
        asked = []

        def stub(levels, pairs, E, n_list, r, R):
            asked.extend(n_list)
            return []

        monkeypatch.setattr(cli, "n_scan", stub)
        cfg = write(tmp_path, "c.cfg", f"[scan]\nE = 10\nN_list = 4 {N_MAX}\n")
        assert main(["clt-scan", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 0
        assert asked == [4, N_MAX]

    # each of these used to write R = inf or RE = inf with exit 0
    @pytest.mark.parametrize("command, text, line", [
        ("cm", "[system]\nmode = fock 1\n[frame]\nmu = 1\nnu = 0\nR = inf\n", 6),
        ("hbar-scan", "[system]\nmode = fock 1\n[frame]\nmu = 1\nnu = 0\nR = inf\n[scan]\nhbar_list = 1 0.1\n", 6),
        ("clt-scan", "[scan]\nE = 10\nN_list = 4\nR = inf\n", 4),
        ("clt-scan", "[scan]\nE = 1e100\nN_list = 4\nR = 1e300\n", 4),
    ], ids=["cm", "hbar-scan", "clt-scan", "clt-scan-RE"])
    def test_non_finite_frame_bound_exit_two(self, tmp_path, capsys, command, text, line):
        cfg = write(tmp_path, "c.cfg", text)
        out = tmp_path / "o.csv"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{cfg}:{line}: R" in err and "finite" in err
        assert not out.exists()

    # a default bound that leaves the double range names the line that set
    # the radius it doubles or halves; these used to name line 0
    @pytest.mark.parametrize("command, text, line, bound", [
        ("clt-scan", "[scan]\nE = 1e-200\nrho_pattern = 1e308\n", 3, "R"),
        ("cm", "[system]\nhbar = 1e-200\nmode = fock 1\n[frame]\nmu = 1e154\n", 5, "R"),
        ("clt-scan", "[scan]\nE = 1e200\nN_list = 4\nrho_pattern = 5e-324\n", 4, "r"),
    ], ids=["clt-scan-R", "cm-R", "clt-scan-r"])
    def test_overflowing_default_bound_names_the_radius_line(self, tmp_path, capsys, command, text, line, bound):
        cfg = write(tmp_path, "c.cfg", text)
        out = tmp_path / "o.csv"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        assert f"{cfg}:{line}: {bound} must" in capsys.readouterr().err
        assert not out.exists()

    # str.isdigit accepts superscript digits, which int rejects: these
    # used to end in a traceback with exit 1
    @pytest.mark.parametrize("suffix", ["x\u00b2", "x\u00b9\u2070"], ids=["x2", "x10"])
    def test_unicode_count_suffix_exit_two(self, tmp_path, capsys, suffix):
        cfg = write(tmp_path, "c.cfg", f"[system]\nmode = fock 1 {suffix}\n[frame]\nmu = 1\nnu = 0\n")
        out = tmp_path / "o.csv"
        assert main(["cm", "--config", cfg, "--out", str(out)]) == 2
        assert f"{cfg}:2: " in capsys.readouterr().err
        assert not out.exists()

    # a fixed-energy point's sigma^2 lies between rho E for the least and
    # the greatest rho_pattern entry; 1/4 and 4 keep rho E exact at the edges
    SCAN_SCALE = "[scan]\nE = {E}\nN_list = {N}\nrho_pattern = {rho}\n"

    @pytest.mark.parametrize("E, rho", [(4 * SCALE_MIN, "0.25 1"), (SCALE_MAX / 4, "1 4")], ids=["min", "max"])
    def test_scan_scale_edges_run(self, tmp_path, capsys, E, rho):
        cfg = write(tmp_path, "c.cfg", self.SCAN_SCALE.format(E=repr(E), N=4, rho=rho))
        out = tmp_path / "o.csv"
        assert main(["clt-scan", "--config", cfg, "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        assert_finite_csv(out)

    @pytest.mark.parametrize("E, rho", [(4 * SCALE_MIN, "0.25"), (SCALE_MAX / 4, "4")], ids=["min", "max"])
    def test_scan_scale_edges_at_most_modes(self, tmp_path, capsys, E, rho):
        # a numerical failure is allowed at N_MAX modes, a traceback is not
        cfg = write(tmp_path, "c.cfg", self.SCAN_SCALE.format(E=repr(E), N=N_MAX, rho=rho))
        out = tmp_path / "o.csv"
        code = main(["clt-scan", "--config", cfg, "--out", str(out)])
        assert code in (0, 3)
        assert "Traceback" not in capsys.readouterr().err
        if code == 0:
            assert_finite_csv(out)
        else:
            assert not out.exists()

    # one step past each edge, and products that leave the double range:
    # these used to exit 1 (a grid of zero width) and 3 (non-finite density)
    @pytest.mark.parametrize("E, rho", [(4 * SCALE_MIN, "0.125 1"), (SCALE_MAX / 4, "1 8"),
                                        (1e-200, "1e-200"), (1e200, "1e200")],
                             ids=["below", "above", "underflow", "overflow"])
    def test_scan_scale_past_edges_exit_two(self, tmp_path, capsys, E, rho):
        cfg = write(tmp_path, "c.cfg", self.SCAN_SCALE.format(E=repr(E), N=4, rho=rho))
        out = tmp_path / "o.csv"
        assert main(["clt-scan", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{cfg}:4: rho_pattern entry" in err and "which must lie in [1e-200, 1e+200]" in err
        assert not out.exists()

    # (command, config with the value at {v}, line of the key, exit code at both edges)
    SCALE_KEYS = {
        "system-hbar-cm": ("cm", "[system]\nhbar = {v}\nmode = fock 1 x3\nmode = even 1 0.5\n[frame]\nmu = 1\nnu = 0\n", 2, 0),
        "system-hbar-marginal": ("marginal", "[system]\nhbar = {v}\nmode = odd 0.6 0.8\n", 2, 0),
        "system-hbar-reconstruct": ("reconstruct", "[system]\nhbar = {v}\nmode = odd 0.6 0.8\n[reconstruct]\ndim = 6\n", 2, 0),
        "system-hbar-hbar-scan": ("hbar-scan", "[system]\nhbar = {v}\nmode = fock 1 x4\n[frame]\nmu = 1\nnu = 0\n", 2, 0),
        "scan-hbar_list": ("hbar-scan", "[system]\nmode = fock 1 x4\n[frame]\nmu = 1\nnu = 0\n[scan]\nhbar_list = {v}\n", 7, 0),
        # the oracle's calibration anchors compare absolute values, which
        # fail at either edge (ROADMAP item 3)
        "report-hbar": ("discrepancy-report", "[report]\nhbar = {v}\n", 2, 3),
        "scan-E": ("clt-scan", "[scan]\nE = {v}\nN_list = 4 64\nn_pattern = 0 1\n", 2, 0),
    }

    @pytest.mark.parametrize("value", [SCALE_MIN, SCALE_MAX], ids=["min", "max"])
    @pytest.mark.parametrize("key", sorted(SCALE_KEYS))
    def test_scale_edges_run(self, tmp_path, capsys, key, value):
        command, text, _, code = self.SCALE_KEYS[key]
        cfg = write(tmp_path, "c.cfg", text.format(v=repr(value)))
        out = tmp_path / "o.csv"
        assert main([command, "--config", cfg, "--out", str(out)]) == code
        assert "Traceback" not in capsys.readouterr().err
        if code == 0:
            (assert_finite_report if command == "discrepancy-report" else assert_finite_csv)(out)
        else:
            assert not out.exists()

    @pytest.mark.parametrize("value", [SCALE_MIN / 10, SCALE_MAX * 10], ids=["below", "above"])
    @pytest.mark.parametrize("key", sorted(SCALE_KEYS))
    def test_scale_past_edges_exit_two(self, tmp_path, capsys, key, value):
        command, text, line, _ = self.SCALE_KEYS[key]
        cfg = write(tmp_path, "c.cfg", text.format(v=repr(value)))
        out = tmp_path / "o.csv"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        name = key.split("-")[1]
        assert f"{cfg}:{line}: {name} must lie in [1e-200, 1e+200], got {value!r}" in capsys.readouterr().err
        assert not out.exists()

    def test_hbar_list_entry_past_edge_exit_two(self, tmp_path, capsys):
        command, text, line, _ = self.SCALE_KEYS["scan-hbar_list"]
        cfg = write(tmp_path, "c.cfg", text.format(v="1e200 1 1e-201"))
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 2
        assert f"{cfg}:{line}: hbar_list must lie in [1e-200, 1e+200], got 1e-201" in capsys.readouterr().err

    def test_overflowing_s_n_exit_three(self, tmp_path, capsys):
        # the largest system the limits allow at the largest hbar: sum E|x|^3
        # (and (sum Var x)^1.5) pass the double range
        cfg = write(tmp_path, "c.cfg", f"[system]\nhbar = 1e200\nmode = fock 1000 x{N_MAX}\n[frame]\nmu = 1\nnu = 0\n")
        out = tmp_path / "o.csv"
        assert main(["cm", "--config", cfg, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "numerical failure: S_N" in err and "Traceback" not in err
        assert not out.exists()

    def test_overflowing_sigma2_rejected(self, tmp_path, capsys):
        # hbar in range on a wide frame: each variance is finite, their sum
        # is not.  The config rule on hbar (mu^2 + nu^2) rejects the frame
        # first; a library caller meets the numerical check
        cfg = write(tmp_path, "c.cfg", "[system]\nhbar = 1e200\nmode = fock 1 x2\n[frame]\nmu = 1e54\nnu = 0\n")
        out = tmp_path / "o.csv"
        assert main(["cm", "--config", cfg, "--out", str(out)]) == 2
        assert f"{cfg}:6: frame (mu, nu) = (1e+54, 0) at hbar = 1e+200" in capsys.readouterr().err
        assert not out.exists()
        with pytest.raises(NumericalError, match=r"sigma\^2 = sum Var x overflows"):
            summed_density(SystemSpec((ModeGroup(Fock(1), 1e54, 0.0, 2),), 1e200))

    # (command, config with hbar or hbar_list {h} and a first frame mu {m},
    # line of the later of mu and nu); the scale hbar (mu^2 + nu^2) must lie in
    # [SCALE_MIN, SCALE_MAX], and mu = 1/4, 1/2, 2, 4 keep it exact
    FRAME_SCALES = {
        "marginal": ("marginal", "[system]\nhbar = {h}\nmode = odd 0.6 0.8\n[frame]\nmu = {m}\n", 5),
        "cm": ("cm", "[system]\nhbar = {h}\nmode = fock 1 x3\nmode = even 1 0.5\n[frame]\nmu = {m} 1 1 1\nnu = 0\n", 7),
        "hbar-scan": ("hbar-scan", "[system]\nmode = fock 1 x4\n[frame]\nmu = {m} 1 1 1\nnu = 0\n[scan]\nhbar_list = {h}\n", 5),
    }

    @pytest.mark.parametrize("hbar, mu", [(4 * SCALE_MIN, 0.5), (SCALE_MAX / 4, 2.0)], ids=["min", "max"])
    @pytest.mark.parametrize("command", sorted(FRAME_SCALES))
    def test_frame_scale_edges_run(self, tmp_path, capsys, command, hbar, mu):
        _, text, _ = self.FRAME_SCALES[command]
        cfg = write(tmp_path, "c.cfg", text.format(h=repr(hbar), m=repr(mu)))
        out = tmp_path / "o.csv"
        assert main([command, "--config", cfg, "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        assert_finite_csv(out)

    # one step past each edge, and frames whose scale leaves the double range
    @pytest.mark.parametrize("hbar, mu", [(4 * SCALE_MIN, 0.25), (SCALE_MAX / 4, 4.0), (1e-200, 1e-100), (1e200, 1e100)],
                             ids=["below", "above", "underflow", "overflow"])
    @pytest.mark.parametrize("command", sorted(FRAME_SCALES))
    def test_frame_scale_past_edges_exit_two(self, tmp_path, capsys, command, hbar, mu):
        _, text, line = self.FRAME_SCALES[command]
        cfg = write(tmp_path, "c.cfg", text.format(h=repr(hbar), m=repr(mu)))
        out = tmp_path / "o.csv"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        scale = hbar * (mu * mu)
        assert (f"{cfg}:{line}: frame (mu, nu) = ({mu:g}, 0) at hbar = {hbar:g} has hbar (mu^2 + nu^2) = {scale:g}, "
                f"which must lie in [1e-200, 1e+200]") in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("hbar_list, code", [("2.5e199 4e-200", 0), ("2.5e199 2e-200", 2), ("5e199 4e-200", 2)],
                             ids=["edges", "least_on_narrowest", "greatest_on_widest"])
    def test_hbar_scan_checks_every_entry_on_every_frame(self, tmp_path, capsys, hbar_list, code):
        # the least hbar meets the narrowest frame (mu = 1/2), the greatest
        # the widest (mu = 2); [system] hbar is not what the scan runs at
        cfg = write(tmp_path, "c.cfg", "[system]\nhbar = 1e-200\nmode = fock 1 x4\n[frame]\nmu = 1 2 0.5 1\nnu = 0\n"
                                       f"[scan]\nhbar_list = {hbar_list}\n")
        out = tmp_path / "o.csv"
        assert main(["hbar-scan", "--config", cfg, "--out", str(out)]) == code
        err = capsys.readouterr().err
        if code == 0:
            assert err == ""
            assert_finite_csv(out)
        else:
            assert f"{cfg}:6: frame (mu, nu) = " in err and "which must lie in [1e-200, 1e+200]" in err
            assert not out.exists()

    @pytest.mark.parametrize("extra", [0, 1], ids=["at_bound", "past_bound"])
    def test_all_backends_mode_draws_bound(self, tmp_path, capsys, monkeypatch, extra):
        # 2^10 modes x 2^20 draws is the bound; one draw more exits 2 before
        # any marginal is built, naming both values
        reached = []

        def never(*args, **kwargs):
            raise AssertionError("sample_sum called past the mode-draw bound")

        def stop(sys_spec, n_samples, seed, marginals):
            reached.append(sys_spec.n_modes * n_samples)
            raise NumericalError("sampling stub")

        if extra:
            monkeypatch.setattr(cli, "summed_density", never)
        monkeypatch.setattr(cli, "sample_sum", never if extra else stop)
        cfg = write(tmp_path, "c.cfg", "[system]\nmode = fock 1 x1024\n[frame]\nmu = 1\nnu = 0\n")
        samples = 2 ** 20 + extra
        code = main(["cm", "--config", cfg, "--out", str(tmp_path / "o.csv"), "--all-backends",
                     "--mc-samples", str(samples)])
        err = capsys.readouterr().err
        if extra:
            assert code == 2
            assert f"{cfg}:2: --all-backends draws every mode: 1024 modes x --mc-samples {samples}" in err
            assert f"2^30 = {MC_MODE_DRAWS_MAX}" in err
        else:
            assert code == 3 and reached == [MC_MODE_DRAWS_MAX]

    def test_sample_sum_mode_draws_bound(self):
        sys_spec = parse_system(parse_config_text("[system]\nmode = fock 1 x1024\n"))
        with pytest.raises(ValueError, match="1024 modes x 1048577 samples exceed"):
            convolution.sample_sum(sys_spec, 2 ** 20 + 1, 0, [])


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


@st.composite
def generated_reconstruct_configs(draw):
    """A `reconstruct` config: Fock levels 0-8 or even/odd cats with |alpha|
    from 1e-12 to 2, hbar from 0.25 to 4, dim 2-16."""
    lines = ["[system]", f"hbar = {2.0 ** draw(st.floats(-2.0, 2.0))!r}"]
    kind = draw(st.sampled_from(["fock", "even", "odd"]))
    if kind == "fock":
        lines.append(f"mode = fock {draw(st.integers(0, 8))}")
    else:
        size = 10.0 ** draw(st.floats(-12.0, math.log10(2.0)))
        angle = draw(st.floats(0.0, 2.0 * math.pi))
        lines.append(f"mode = {kind} {size * math.cos(angle)!r} {size * math.sin(angle)!r}")
    lines += ["[reconstruct]", f"dim = {draw(st.integers(2, 16))}"]
    return "\n".join(lines) + "\n"


@st.composite
def generated_clt_scan_configs(draw):
    """A `clt-scan` config: 1-3 levels from 0 to 60, with level 1001 past
    the cap added in some draws; E log-uniform over [SCALE_MIN, SCALE_MAX];
    1-3 frame radii from 1/4 to 4, narrowed near the edges of E's range so
    that rho E stays inside it, at one angle; 1-3 values of N from 1 to 64."""
    levels = draw(st.lists(st.integers(0, 60), min_size=1, max_size=3))
    if draw(st.integers(0, 9)) == 9:
        levels.append(1001)
    E = 10.0 ** draw(st.floats(math.log10(SCALE_MIN), math.log10(SCALE_MAX)))
    low = max(-2.0, math.log2(SCALE_MIN) - math.log2(E))
    radii = draw(st.lists(st.floats(low, max(low, min(2.0, math.log2(SCALE_MAX) - math.log2(E)))),
                          min_size=1, max_size=3))
    n_list = draw(st.lists(st.sampled_from([1, 2, 3, 4, 8, 16, 32, 64]), min_size=1, max_size=3))
    lines = ["[scan]", f"E = {E!r}",
             "N_list = " + " ".join(map(str, n_list)),
             "n_pattern = " + " ".join(map(str, levels)),
             "rho_pattern = " + " ".join(repr(2.0 ** r) for r in radii),
             f"theta = {draw(st.floats(0.0, 2.0 * math.pi))!r}"]
    return "\n".join(lines) + "\n"


@st.composite
def generated_hbar_scan_configs(draw):
    """An `hbar-scan` config: 1-3 mode lines (Fock levels 0-20 or even/odd
    cats with |alpha| from 1e-12 to 3), each repeated 1-8 times, on frames
    from FRAME_DIRECTIONS; 1-4 hbar values log-uniform over [SCALE_MIN,
    SCALE_MAX], sorted decreasing; epsilon from 1e-3 to 1."""
    lines = ["[system]"]
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["fock", "even", "odd"]))
        count = draw(st.integers(1, 8))
        if kind == "fock":
            lines.append(f"mode = fock {draw(st.integers(0, 20))} x{count}")
        else:
            size = 10.0 ** draw(st.floats(-12.0, math.log10(3.0)))
            angle = draw(st.floats(0.0, 2.0 * math.pi))
            lines.append(f"mode = {kind} {size * math.cos(angle)!r} {size * math.sin(angle)!r} x{count}")
    mu, nu = draw(st.sampled_from(FRAME_DIRECTIONS))
    exponents = st.floats(math.log10(SCALE_MIN), math.log10(SCALE_MAX))
    hbars = sorted((10.0 ** e for e in draw(st.lists(exponents, min_size=1, max_size=4, unique=True))), reverse=True)
    lines += ["[frame]", f"mu = {mu!r}", f"nu = {nu!r}",
              "[scan]", "hbar_list = " + " ".join(repr(h) for h in hbars),
              f"epsilon = {10.0 ** draw(st.floats(-3.0, 0.0))!r}"]
    return "\n".join(lines) + "\n"


# alpha lines outside the supported range, next to in-range values
SPECIAL_ALPHAS = ("inf 0", "0 -inf", "nan 0", "0 nan", "1e200 0", "-1e200 1e200", "1e-12 0", "0 0")


@st.composite
def generated_report_configs(draw):
    """A `discrepancy-report` config: 1-3 alpha lines, each a special value
    (non-finite, huge, tiny, zero) one time in four, else |alpha| up to 3;
    1-2 frames; hbar from 0.25 to 4."""
    lines = ["[report]"]
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.integers(0, 3)) == 0:
            lines.append(f"alpha = {draw(st.sampled_from(SPECIAL_ALPHAS))}")
        else:
            size = draw(st.floats(0.0, 3.0))
            angle = draw(st.floats(0.0, 2.0 * math.pi))
            lines.append(f"alpha = {size * math.cos(angle)!r} {size * math.sin(angle)!r}")
    for mu, nu in draw(st.lists(st.sampled_from(FRAME_DIRECTIONS), min_size=1, max_size=2)):
        lines.append(f"frame = {mu!r} {nu!r}")
    lines.append(f"hbar = {2.0 ** draw(st.floats(-2.0, 2.0))!r}")
    return "\n".join(lines) + "\n"


def run_generated(command, text, flags, check_artifact):
    """Run one generated config: the exit code is 0, 2 or 3, nothing escapes
    as a traceback, and an artifact exists only on exit 0, where
    check_artifact(path) inspects it."""
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
        check_artifact(out)


def assert_finite_csv(out, numeric_header=NUMERIC_HEADER):
    header, _, data, footer = read_csv(out)
    assert np.all(np.isfinite(data))
    for line in header + footer:
        key, _, value = line.partition(" ")
        if key in numeric_header or key.startswith(("tv_", "ks_")):
            assert math.isfinite(float(value)), line


def assert_finite_report(out):
    for row in report_rows(out):
        oracle = float(row["oracle_value"])
        assert math.isfinite(float(row["published_value"])) and math.isfinite(oracle), row
        # the ratio is nan by design where the oracle value vanishes
        assert math.isfinite(float(row["ratio"])) or abs(oracle) < 1e-300, row


class TestGeneratedConfigs:
    @settings(max_examples=60)
    @given(case=generated_configs())
    def test_exit_code_and_finite_artifact(self, case):
        command, text, flags = case
        run_generated(command, text, flags, assert_finite_csv)

    @settings(max_examples=40)
    @given(text=generated_reconstruct_configs())
    def test_reconstruct_exit_code_and_finite_artifact(self, text):
        run_generated("reconstruct", text, [],
                      lambda out: assert_finite_csv(out, ("pre_rescale_trace", "fidelity")))

    @settings(max_examples=50)
    @given(text=generated_clt_scan_configs())
    def test_clt_scan_exit_code_and_finite_artifact(self, text):
        run_generated("clt-scan", text, [], assert_finite_csv)

    @settings(max_examples=50)
    @given(text=generated_hbar_scan_configs())
    def test_hbar_scan_exit_code_and_finite_artifact(self, text):
        run_generated("hbar-scan", text, [], assert_finite_csv)

    @settings(max_examples=30)
    @given(text=generated_report_configs())
    def test_report_exit_code_and_finite_artifact(self, text):
        run_generated("discrepancy-report", text, [], assert_finite_report)


def fresh_interpreter(code):
    """What `code` prints in a new interpreter that imports cmtomo from this checkout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    return done.stdout.strip()


def test_cli_import_loads_no_scipy():
    code = "import sys, cmtomo.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    assert fresh_interpreter(code) == "[]"


def test_cli_import_leaves_blas_discovery_for_first_use():
    # discovery reads /proc/self/maps; at import it would land in start-up time
    code = "import cmtomo.cli, cmtomo._blas as b; print(b._openblas.cache_info().currsize)"
    assert fresh_interpreter(code) == "0"
