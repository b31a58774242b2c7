import math

import numpy as np
import pytest

from cmtomo.config import RawConfig, _parse_mode
from cmtomo.errors import ConvergenceError
from cmtomo.states import (
    FOCK_LEVEL_MAX,
    ODD_ALPHA_MIN,
    CoherentEven,
    CoherentOdd,
    N_MAX,
    Fock,
    ModeGroup,
    SystemSpec,
    cat_weight,
    coherent_expansion,
    energy,
    fock_expansion,
    hbar_for_fixed_energy,
    mode_mean_occupation,
)


def on_x(modes):
    """A system of modes, each measured along x."""
    modes = tuple(modes)
    return SystemSpec.from_modes(modes, [1.0] * len(modes), [0.0] * len(modes))


def level_mean(exp):
    """sum_k k |c_k|^2 of a level expansion."""
    return float(np.sum(np.arange(exp.truncation + 1) * np.abs(exp.coefficients) ** 2))


class TestSpecs:
    def test_fock_rejects_negative(self):
        with pytest.raises(ValueError):
            Fock(-1)

    def test_odd_rejects_zero_amplitude(self):
        with pytest.raises(ValueError):
            CoherentOdd(0.0)

    def test_odd_rejects_amplitude_below_bound(self):
        assert CoherentOdd(ODD_ALPHA_MIN * 1j).alpha == ODD_ALPHA_MIN * 1j
        for alpha in (1e-12, 1e-9, 0.999 * ODD_ALPHA_MIN):
            with pytest.raises(ValueError, match="odd coherent states require"):
                CoherentOdd(alpha)

    @pytest.mark.parametrize("a", [1e-5, 0.3, 2.0])
    def test_odd_weight_has_no_cancellation(self, a):
        # 1 - e^{-2a^2} = 2a^2 (1 - a^2 + 2a^4/3 - ...); 1 - math.exp(-2e-10)
        # keeps about 6 digits
        a2 = a * a
        want = 2.0 * a2 * (1.0 - a2 + 2.0 * a2 * a2 / 3.0) if a < 1e-3 else 1.0 - math.exp(-2.0 * a2)
        assert cat_weight(CoherentOdd(a)) == pytest.approx(want, rel=1e-15 if a < 1e-3 else 1e-12)
        assert cat_weight(CoherentEven(a)) == 1.0 + math.exp(-2.0 * a2)

    def test_system_needs_modes(self):
        with pytest.raises(ValueError):
            SystemSpec(groups=())

    def test_system_takes_no_hbar(self):
        # hbar is a scalar beside the system, bounded where the config reads it
        with pytest.raises(TypeError):
            SystemSpec(groups=(ModeGroup(Fock(0), 1.0, 0.0),), hbar=0.0)

    @pytest.mark.parametrize("count", [0, -1, 1.5, "2"])
    def test_group_needs_positive_integer_count(self, count):
        with pytest.raises(ValueError, match="positive integer count"):
            ModeGroup(Fock(0), 1.0, 0.0, count)

    def test_from_modes_needs_equal_lengths(self):
        with pytest.raises(ValueError, match="same length"):
            SystemSpec.from_modes((Fock(1), Fock(1)), (1.0, 1.0), (0.0,))

    def test_equal_groups_merge_in_first_appearance_order(self):
        sys = SystemSpec((ModeGroup(Fock(1), 1.0, 0.0, 3), ModeGroup(Fock(2), 1, 0),
                          ModeGroup(Fock(1), 0.6, 0.8), ModeGroup(Fock(1), 1.0, 0.0, 2)))
        assert sys.groups == (ModeGroup(Fock(1), 1.0, 0.0, 5), ModeGroup(Fock(2), 1.0, 0.0),
                              ModeGroup(Fock(1), 0.6, 0.8))
        assert sys.counts == [5, 1, 1] and sys.n_modes == 7
        assert sys == SystemSpec(sys.groups)

    def test_mode_count_bound(self):
        assert SystemSpec((ModeGroup(Fock(0), 1.0, 0.0, N_MAX),)).n_modes == N_MAX
        with pytest.raises(ValueError, match="N_MAX"):
            SystemSpec((ModeGroup(Fock(0), 1.0, 0.0, N_MAX), ModeGroup(Fock(1), 1.0, 0.0)))

    def test_describe_writes_one_entry_per_group_in_group_order(self):
        sys = SystemSpec.from_modes((Fock(1), CoherentEven(0.5j), Fock(1)), (1.0, 0.0, 1.0), (0.0, 1.0, 0.0))
        assert sys.describe(0.5) == "hbar=0.5; fock 1 x2; even 0 0.5"
        assert sys.describe_frame(0.5, 2.0) == "mu=1 0; nu=0 1; r=0.5; R=2"

    @pytest.mark.parametrize("mode", [Fock(FOCK_LEVEL_MAX), CoherentOdd(-0.1 - 0.7j)])
    def test_headers_of_n_max_modes_are_short(self, mode):
        sys = SystemSpec((ModeGroup(mode, 0.6, 0.8, N_MAX - 1), ModeGroup(Fock(0), -0.6, 0.8)))
        assert sys.n_modes == N_MAX
        assert len(sys.describe(1e-5)) < 200
        assert len(sys.describe_frame(0.5, 2.0)) < 200

    @pytest.mark.parametrize("sys, hbar", [
        # a repeated group beside a single mode
        (SystemSpec((ModeGroup(Fock(1), 1.0, 0.0, 5), ModeGroup(Fock(3), 1.0, 0.0))), 1e-5),
        # per-mode frames that split one mode's copies into two groups
        (SystemSpec.from_modes((Fock(2), Fock(2), Fock(2), Fock(0)), (1.0, 0.6, 1.0, 0.1), (0.0, 0.8, 0.0, -3.0)),
         0.7),
        # cats, at every rounding of their parts, on a rotated frame
        (SystemSpec((ModeGroup(CoherentEven(0.1 + 0.2j), 0.3, -1.7, 3), ModeGroup(CoherentOdd(-1e-5), 0.1, 0.2),
                     ModeGroup(CoherentEven(complex(-0.0, 5.0)), 1 / 3, 2 / 3, N_MAX - 4))), 1 / 3),
    ])
    def test_header_round_trip(self, sys, hbar):
        # each mode entry parses as a config mode line, and pairs with the
        # mu and nu entries at its place
        hbar_text, *mode_lines = sys.describe(hbar).split("; ")
        mus, nus, r, big_r = sys.describe_frame(0.25, 4.0).split("; ")
        assert (r, big_r) == ("r=0.25", "R=4")
        raw = RawConfig(sections={}, source="<header>")
        groups = []
        for line, mu, nu in zip(mode_lines, mus.removeprefix("mu=").split(), nus.removeprefix("nu=").split(),
                                strict=True):
            mode, count = _parse_mode(raw, line, 0)
            groups.append(ModeGroup(mode, float(mu), float(nu), count))
        assert SystemSpec(tuple(groups)) == sys
        assert float(hbar_text.removeprefix("hbar=")) == hbar


class TestEnergy:
    def test_two_fock_modes(self):
        sys = on_x((Fock(0), Fock(1)))
        assert energy(sys, 1.0) == pytest.approx(2.0, rel=1e-15)

    def test_four_fock2_modes(self):
        sys = on_x((Fock(2),) * 4)
        assert energy(sys, 0.5) == pytest.approx(5.0, rel=1e-15)

    def test_even_cat_energy_against_closed_occupation(self):
        # <n> of the even superposition is |a|^2 tanh(|a|^2)
        alpha = 1.0
        sys = on_x((CoherentEven(alpha),))
        want = 1.0 * (0.5 + abs(alpha) ** 2 * math.tanh(abs(alpha) ** 2))
        assert energy(sys, 1.0) == pytest.approx(want, rel=1e-10)

    def test_energy_takes_hbar(self):
        sys = on_x((Fock(2),) * 4)
        assert energy(sys, 0.5) == 0.5 * energy(sys, 1.0)
        with pytest.raises(TypeError):
            energy(sys)

    def test_odd_cat_occupation_against_closed_form(self):
        # <n> of the odd superposition is |a|^2 coth(|a|^2)
        alpha = 1.3 + 0.4j
        a2 = abs(alpha) ** 2
        want = a2 / math.tanh(a2)
        assert mode_mean_occupation(CoherentOdd(alpha)) == pytest.approx(want, rel=1e-10)


class TestFixedEnergy:
    def test_vacuum_modes(self):
        assert hbar_for_fixed_energy(10.0, [ModeGroup(Fock(0), 1.0, 0.0, 4)]) == pytest.approx(5.0)

    def test_excited_modes(self):
        assert hbar_for_fixed_energy(10.0, [ModeGroup(Fock(1), 1.0, 0.0, 4)]) == pytest.approx(10.0 / 6.0)

    def test_hundred_vacuum_modes(self):
        assert hbar_for_fixed_energy(1.0, [ModeGroup(Fock(0), 1.0, 0.0, 100)]) == pytest.approx(0.02)

    def test_round_trip_is_exact(self):
        modes = (Fock(0), Fock(3), Fock(1), Fock(7))
        hbar = hbar_for_fixed_energy(3.7, on_x(modes).groups)
        assert energy(on_x(modes), hbar) == pytest.approx(3.7, rel=1e-15)

    def test_round_trip_with_cat_modes(self):
        modes = (Fock(2), CoherentEven(1.0), CoherentOdd(0.8 + 0.6j), Fock(0), CoherentEven(3 - 4j),
                 CoherentOdd(0.05), CoherentEven(0.0))
        hbar = hbar_for_fixed_energy(10.0, on_x(modes).groups)
        assert energy(on_x(modes), hbar) == pytest.approx(10.0, rel=0, abs=1e-12)

    @pytest.mark.parametrize("mode", [CoherentEven(1.3 + 0.4j), CoherentOdd(1.3 + 0.4j), CoherentOdd(0.05),
                                      CoherentEven(3.0)])
    def test_cat_occupation_matches_level_expansion(self, mode):
        assert mode_mean_occupation(mode) == pytest.approx(level_mean(fock_expansion(mode)), rel=1e-10)


class TestFockExpansion:
    def test_number_state_is_unit_vector(self):
        exp = fock_expansion(Fock(3), D=8)
        want = np.zeros(9)
        want[3] = 1.0
        np.testing.assert_allclose(exp.coefficients, want, atol=0)

    def test_even_cat_at_zero_is_vacuum(self):
        exp = fock_expansion(CoherentEven(0.0), D=8)
        assert exp.coefficients[0] == pytest.approx(1.0)
        assert np.all(exp.coefficients[1:] == 0)

    def test_odd_cat_amplitude_ratio_bigint_oracle(self):
        # |c_1|^2/|c_3|^2 = (3!/1!) / |alpha|^4 for the odd superposition
        exp = fock_expansion(CoherentOdd(1.0), D=30)
        got = abs(exp.coefficients[1]) ** 2 / abs(exp.coefficients[3]) ** 2
        want = math.factorial(3) / (math.factorial(1) * 1.0 ** 4)
        assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("mode", [
        Fock(5),
        CoherentEven(6.0),
        CoherentEven(3 + 4j),
        CoherentOdd(6.0 * 1j),
        CoherentOdd(0.05),
    ])
    def test_norm_is_one(self, mode):
        exp = fock_expansion(mode)
        assert np.linalg.norm(exp.coefficients) == pytest.approx(1.0, abs=1e-10)

    def test_parity_exact_zeros(self):
        even = fock_expansion(CoherentEven(1.7 + 0.2j))
        odd = fock_expansion(CoherentOdd(1.7 + 0.2j))
        assert np.all(even.coefficients[1::2] == 0)
        assert np.all(odd.coefficients[0::2] == 0)

    def test_cap_enforced(self, monkeypatch):
        with pytest.raises(ConvergenceError):
            fock_expansion(CoherentEven(30.0))
        # the cap is read at call time: |alpha| = 5 needs more than 64 levels
        assert fock_expansion(CoherentEven(5.0)).truncation > 64
        monkeypatch.setattr("cmtomo.states._TRUNCATION_CAP", 64)
        with pytest.raises(ConvergenceError, match="cap 64"):
            fock_expansion(CoherentEven(5.0))

    def test_explicit_truncation_checked(self):
        with pytest.raises(ConvergenceError):
            fock_expansion(CoherentEven(3.0), D=6)

    def test_coherent_expansion_mean_occupation(self):
        alpha = 1.2 - 0.7j
        exp = coherent_expansion(alpha, 60)
        assert level_mean(exp) == pytest.approx(abs(alpha) ** 2, rel=1e-10)
