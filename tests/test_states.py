import math

import numpy as np
import pytest

from cmtomo.errors import ConvergenceError
from cmtomo.states import (
    ODD_ALPHA_MIN,
    CoherentEven,
    CoherentOdd,
    Fock,
    FrameSpec,
    SystemSpec,
    cat_weight,
    coherent_expansion,
    energy,
    fock_expansion,
    hbar_for_fixed_energy,
    mode_mean_occupation,
)


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

    @pytest.mark.parametrize("a", [1e-9, 1e-5, 0.3, 2.0])
    def test_odd_weight_has_no_cancellation(self, a):
        # 1 - e^{-2a^2} = 2a^2 (1 - a^2 + 2a^4/3 - ...); 1 - math.exp(-2e-18) is 0
        a2 = a * a
        want = 2.0 * a2 * (1.0 - a2 + 2.0 * a2 * a2 / 3.0) if a < 1e-3 else 1.0 - math.exp(-2.0 * a2)
        assert cat_weight(a, "odd") == pytest.approx(want, rel=1e-15 if a < 1e-3 else 1e-12)
        assert cat_weight(a, "even") == 1.0 + math.exp(-2.0 * a2)

    def test_system_needs_modes(self):
        with pytest.raises(ValueError):
            SystemSpec(modes=(), hbar=1.0)

    def test_system_needs_positive_hbar(self):
        with pytest.raises(ValueError):
            SystemSpec(modes=(Fock(0),), hbar=0.0)

    def test_frame_radius_bounds(self):
        FrameSpec(mu=(1.0,), nu=(0.0,), r=0.5, R=2.0)
        with pytest.raises(ValueError):
            FrameSpec(mu=(2.0,), nu=(0.0,), r=0.5, R=2.0)
        with pytest.raises(ValueError):
            FrameSpec(mu=(1.0,), nu=(0.0,), r=2.0, R=0.5)
        with pytest.raises(ValueError):
            FrameSpec(mu=(1.0, 1.0), nu=(0.0,), r=0.5, R=2.0)


class TestEnergy:
    def test_two_fock_modes(self):
        sys = SystemSpec(modes=(Fock(0), Fock(1)), hbar=1.0)
        assert energy(sys) == pytest.approx(2.0, rel=1e-15)

    def test_four_fock2_modes(self):
        sys = SystemSpec(modes=(Fock(2),) * 4, hbar=0.5)
        assert energy(sys) == pytest.approx(5.0, rel=1e-15)

    def test_even_cat_energy_against_closed_occupation(self):
        # <n> of the even superposition is |a|^2 tanh(|a|^2)
        alpha = 1.0
        sys = SystemSpec(modes=(CoherentEven(alpha),), hbar=1.0)
        want = 1.0 * (0.5 + abs(alpha) ** 2 * math.tanh(abs(alpha) ** 2))
        assert energy(sys) == pytest.approx(want, rel=1e-10)

    def test_odd_cat_occupation_against_closed_form(self):
        # <n> of the odd superposition is |a|^2 coth(|a|^2)
        alpha = 1.3 + 0.4j
        a2 = abs(alpha) ** 2
        want = a2 / math.tanh(a2)
        assert mode_mean_occupation(CoherentOdd(alpha)) == pytest.approx(want, rel=1e-10)


class TestFixedEnergy:
    def test_vacuum_modes(self):
        assert hbar_for_fixed_energy(10.0, [Fock(0)] * 4) == pytest.approx(5.0)

    def test_excited_modes(self):
        assert hbar_for_fixed_energy(10.0, [Fock(1)] * 4) == pytest.approx(10.0 / 6.0)

    def test_hundred_vacuum_modes(self):
        assert hbar_for_fixed_energy(1.0, [Fock(0)] * 100) == pytest.approx(0.02)

    def test_round_trip_is_exact(self):
        modes = (Fock(0), Fock(3), Fock(1), Fock(7))
        hbar = hbar_for_fixed_energy(3.7, modes)
        assert energy(SystemSpec(modes=modes, hbar=hbar)) == pytest.approx(3.7, rel=1e-15)

    def test_round_trip_with_cat_modes(self):
        modes = (Fock(2), CoherentEven(1.0), CoherentOdd(0.8 + 0.6j), Fock(0), CoherentEven(3 - 4j),
                 CoherentOdd(0.05), CoherentEven(0.0))
        hbar = hbar_for_fixed_energy(10.0, modes)
        assert energy(SystemSpec(modes=modes, hbar=hbar)) == pytest.approx(10.0, rel=0, abs=1e-12)

    @pytest.mark.parametrize("mode", [CoherentEven(1.3 + 0.4j), CoherentOdd(1.3 + 0.4j), CoherentOdd(0.05),
                                      CoherentEven(3.0)])
    def test_cat_occupation_matches_level_expansion(self, mode):
        assert mode_mean_occupation(mode) == pytest.approx(fock_expansion(mode).mean_occupation(), rel=1e-10)


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

    def test_cap_enforced(self):
        with pytest.raises(ConvergenceError):
            fock_expansion(CoherentEven(30.0), cap=64)

    def test_explicit_truncation_checked(self):
        with pytest.raises(ConvergenceError):
            fock_expansion(CoherentEven(3.0), D=6)

    def test_coherent_expansion_mean_occupation(self):
        alpha = 1.2 - 0.7j
        exp = coherent_expansion(alpha, 60)
        assert exp.mean_occupation() == pytest.approx(abs(alpha) ** 2, rel=1e-10)
