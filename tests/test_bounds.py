import dataclasses
import math

import numpy as np
import pytest

from divlab import bounds
from divlab.bounds import ConstantsConfig


def cfg(**kw):
    return ConstantsConfig(**kw)


class TestDelta0:
    def test_reference_value(self):
        # d=1, te=1, lip=0: 2 / (330 e^2 2^{5/3})
        expected = 2.0 / (330.0 * math.e**2 * 2.0 ** (5.0 / 3.0))
        got = bounds.delta0(cfg(d=1, theta_minus=1.0, theta_plus=1.0, theta_lip=0.0))
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(2.58e-4, rel=2e-3)

    def test_doubling_period_doubles_radius_without_lip(self):
        c = cfg(theta_lip=0.0)
        assert bounds.delta0(c, G=2.0) == pytest.approx(2 * bounds.delta0(c, G=1.0), rel=1e-14)

    def test_monotone_in_ellipticity_contrast(self):
        vals = [bounds.delta0(cfg(theta_plus=tp)) for tp in (1.0, 2.0, 5.0, 20.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] > 0


class TestGradientConstant:
    def test_reference_value(self):
        assert bounds.c_gradient(1.0, 1.0, 1.0) == pytest.approx(1.0 / 18.0, rel=1e-14)

    def test_capped_by_energy_over_ellipticity(self):
        for r in np.linspace(0.01, 10, 40):
            for e in (0.5, 1.0, 7.0):
                assert bounds.c_gradient(r, e, 1.3) <= e / (2 * 1.3) + 1e-15

    def test_small_r_floor(self):
        # quadratic in r for r <= 1: r^2 E^2 / (2 t+ (8 t+ + E))
        for r in np.linspace(0.01, 1.0, 25):
            floor = 2.0**2 * r * r / (2 * 1.5 * (8 * 1.5 + 2.0))
            assert floor <= bounds.c_gradient(r, 2.0, 1.5) + 1e-15

    def test_quadratic_vanishing(self):
        v1 = bounds.c_gradient(1e-3, 1.0, 1.0)
        v2 = bounds.c_gradient(2e-3, 1.0, 1.0)
        assert v2 / v1 == pytest.approx(4.0, rel=1e-4)

    def test_positivity_validation(self):
        with pytest.raises(ValueError):
            bounds.c_gradient(0.0, 1.0, 1.0)


class TestUcpConstants:
    def test_function_constant_reference(self):
        # V = e_max = 1: delta^{N (1 + 1)} = 0.5^2
        c = cfg(delta=0.5, n_exponent=1.0, e_min=1.0, e_max=1.0)
        got = bounds.c_sfucp_family(c)
        assert got.function_constant == pytest.approx(0.25, rel=1e-14)

    def test_gradient_constant_reference(self):
        c = cfg(delta=0.5, n_exponent=1.0, e_min=1.0, e_max=1.0, theta_plus=1.0)
        got = bounds.c_sfucp_family(c)
        expected = (0.25 / 16.5) * 0.25**2
        assert got.gradient_constant == pytest.approx(expected, rel=1e-12)
        assert got.gradient_constant == pytest.approx(9.47e-4, rel=1e-3)

    def test_two_sided_delta_bracket(self):
        # C1 (d/2)^{2+X} <= grad const <= C2 (d/2)^X with X = N (1 + E+^{2/3}),
        # C1 = 2 E^2/(t+ (8 t+ + E)), C2 = E^2/(4 t+^2), valid for delta <= 1
        e_min, e_max, tp = 2.0, 5.0, 1.5
        x = 1.0 + e_max ** (2.0 / 3.0)
        c1 = 2 * e_min**2 / (tp * (8 * tp + e_min))
        c2 = e_min**2 / (4 * tp**2)
        for delta in np.linspace(0.02, 1.0, 20):
            got = bounds.c_sfucp_family(cfg(delta=delta, e_min=e_min, e_max=e_max,
                                            theta_plus=tp)).gradient_constant
            assert c1 * (delta / 2) ** (2 + x) <= got * (1 + 1e-12)
            assert got <= c2 * (delta / 2) ** x * (1 + 1e-12)

    def test_clamped_delta_uses_minimum(self):
        c = cfg(delta=0.4)
        raw = bounds.c_sfucp_family(c)
        clamped = bounds.c_sfucp_family(c, clamp_delta=True)
        assert raw.delta_effective == 0.4
        assert clamped.delta_effective == pytest.approx(raw.delta0)
        assert clamped.function_constant < raw.function_constant

    def test_monotone_in_delta_and_energy_floor(self):
        deltas = np.linspace(0.05, 0.5, 12)
        vals = [bounds.c_sfucp_family(cfg(delta=d, e_max=3.0)).gradient_constant
                for d in deltas]
        assert all(a <= b + 1e-18 for a, b in zip(vals, vals[1:]))
        es = np.linspace(0.1, 2.9, 12)
        vals = [bounds.c_sfucp_family(cfg(delta=0.3, e_min=e, e_max=3.0)).gradient_constant
                for e in es]
        assert all(a <= b + 1e-18 for a, b in zip(vals, vals[1:]))


class TestLiftingConstants:
    def test_zero_horizon_matches_ucp_gradient(self):
        c = cfg(delta=0.3, e_min=1.0, e_max=5.0, t_max=0.0, w_sup=123.0)
        # w_sup is irrelevant at T=0
        lift = bounds.c_evl_family(ConstantsConfig(**{**c.snapshot(), "w_sup": 0.0}))
        ucp = bounds.c_sfucp_family(c)
        assert lift.standard == pytest.approx(ucp.gradient_constant, rel=1e-14)

    def test_elementary_slope_reference(self):
        c = cfg(e_min=1.0, theta_plus=1.0, t_max=1.0, w_sup=1.0)
        assert bounds.c_evl_family(c).elementary_slope == pytest.approx(0.5, rel=1e-14)

    def test_bounded_w_is_half_radius_evaluation(self):
        c = cfg(delta=0.5, e_min=1.0, e_max=2.0, theta_plus=1.2, t_max=0.8, w_sup=1.7)
        tp_t = 1.2 + 0.8 * 1.7
        x = 1.0 + 2.0 ** (2.0 / 3.0)
        dh = 0.25
        expected = dh**2 * 1.0 / (2 * tp_t * (8 * tp_t + dh**2)) * (dh / 2) ** x
        assert bounds.c_evl_family(c).bounded_w == pytest.approx(expected, rel=1e-13)

    def test_low_energy_composition(self):
        # low-energy slope = half the double-ball constant times kappa-prime exponent part
        c = cfg(delta=0.4, e_min=0.01, e_max=0.02, theta_minus=1.0, theta_plus=2.0)
        low = bounds.kappa_family(c)
        pref = bounds.c_gradient(0.4, 0.01, 2.0)
        expected = 0.5 * pref * (0.2) ** (1.0 * (1.0 + 1.0))
        assert low.gradient_constant_low == pytest.approx(expected, rel=1e-13)


class TestKappaFamily:
    def test_kappa_prime_reference(self):
        c = cfg(delta=0.25, m_exponent=1.0, theta_minus=1.0)
        low = bounds.kappa_family(c)
        assert low.kappa_prime == pytest.approx(0.5 * 0.25**2, rel=1e-14)
        assert low.kappa == pytest.approx(0.5 * 0.125**2, rel=1e-14)

    def test_kappa_prime_capped(self):
        for d in np.linspace(0.01, 1.0, 15):
            assert bounds.kappa_family(cfg(delta=d)).kappa_prime <= 0.5 + 1e-15

    def test_neumann_reference_value(self):
        # d=3, a=b=c=1, theta_minus=1, delta=1/2, L=4:
        # 0.125 * [1/3 + log 2]^{-2} since min(sqrt(3), 2) = sqrt(3)
        c = cfg(d=3, delta=0.5, L=4.0, theta_minus=1.0)
        low = bounds.kappa_family(c)
        expected = 1.0 * 1.0 * 0.125 * (1.0 / 3.0 + math.log(2.0)) ** (-2.0)
        assert low.neumann_function_constant == pytest.approx(expected, rel=1e-12)
        assert low.neumann_function_constant == pytest.approx(0.1186, rel=1e-3)
        assert low.kappa_neumann == pytest.approx(1.0 * (0.25) ** 1, rel=1e-14)

    def test_neumann_composition(self):
        c = cfg(d=3, delta=0.4, L=8.0, e_min=0.05, e_max=0.1, theta_minus=1.0,
                theta_plus=2.0)
        low = bounds.kappa_family(c)
        half = bounds.kappa_family(ConstantsConfig(**{**c.snapshot(), "delta": 0.2}))
        grad = bounds.c_gradient(0.4, 0.05, 2.0)
        assert low.neumann_gradient_constant == pytest.approx(
            grad * half.neumann_function_constant, rel=1e-13)

    def test_low_dim_neumann_flagged(self):
        low = bounds.kappa_family(cfg(d=2, delta=0.3))
        assert not low.neumann_supported
        assert low.kappa_neumann is None


# d = 1-3, non-default exponent scales, and a lifting horizon with t_max * w_sup > 0
_FORMULA_CONFIGS = [
    dict(d=1, delta=0.3, e_min=1.0, e_max=30.0, theta_minus=0.5, theta_plus=1.5),
    dict(d=2, delta=0.45, e_min=0.005, e_max=0.0253, theta_plus=2.0, n_exponent=0.7,
         m_exponent=1.3),
    dict(d=3, delta=0.2, e_min=0.5, e_max=60.0, theta_minus=0.25, theta_plus=3.0, L=4.0,
         t_max=1.0, w_sup=2.0, n_exponent=2.5),
    dict(d=1, delta=0.4, e_min=2.0, e_max=5.0, theta_plus=1.2, t_max=0.8, w_sup=1.7,
         m_exponent=0.4),
    dict(d=2, delta=0.1, e_min=1.0, e_max=12.0, theta_minus=0.8, theta_plus=1.1, t_max=3.5,
         w_sup=1.0, n_exponent=1.5, m_exponent=2.0),
    dict(d=3, delta=0.35, e_min=0.05, e_max=0.1, theta_minus=1.0, theta_plus=2.0, L=8.0,
         t_max=0.5, w_sup=0.3, n_exponent=0.9, m_exponent=3.0),
]


@pytest.mark.parametrize("kw", _FORMULA_CONFIGS, ids=[f"cfg{i}" for i in range(6)])
def test_each_formula_keeps_its_bits(kw):
    """Each constant equals, bit for bit, the expression it had when every bound wrote out
    its own double-ball x (r/2)^exponent product and its own low-energy exponent."""
    c = cfg(**kw)
    dl, em, ep, tp = c.delta, c.e_min, c.e_max, c.theta_plus
    exp_e = c.n_exponent * (1.0 + ep ** (2.0 / 3.0))
    m_exp = c.m_exponent * (1.0 + c.theta_minus ** (-2.0 / 3.0))
    tp_t = tp + c.t_max * c.w_sup
    pref = bounds.c_gradient(dl, em, tp)
    dh = dl / 2.0
    ucp, lift, low = bounds.c_sfucp_family(c), bounds.c_evl_family(c), bounds.kappa_family(c)
    assert ucp.gradient_constant == pref * (dl / 2.0) ** exp_e
    assert lift.standard == bounds.c_gradient(dl, em, tp_t) * (dl / 2.0) ** exp_e
    assert lift.bounded_w == bounds.c_gradient(dh, em, tp_t) * (dh / 2.0) ** exp_e
    assert lift.elementary_slope == em / tp_t
    assert low.gradient_constant_low == 0.5 * pref * (dl / 2.0) ** m_exp
    assert low.kappa_prime == 0.5 * dl ** m_exp
    assert low.kappa == 0.5 * (dl / 2.0) ** m_exp
    if c.d >= 3:
        half = bounds.kappa_family(dataclasses.replace(c, delta=dh))
        assert low.neumann_gradient_constant == pref * half.neumann_function_constant


class TestWegnerConstant:
    def test_reference_value(self):
        c = cfg(d=1, weyl_constant=1.0)
        assert bounds.c_wegner(c, 0.01, 0.5) == pytest.approx(1000.0, rel=1e-12)

    def test_reciprocal_in_lifting_constant(self):
        c = cfg(d=1)
        assert bounds.c_wegner(c, 0.02, 0.5) == pytest.approx(
            0.5 * bounds.c_wegner(c, 0.01, 0.5), rel=1e-14)

    def test_dimension_multiplies_overlap(self):
        v1 = bounds.c_wegner(cfg(d=1), 0.1, 0.5)
        v2 = bounds.c_wegner(cfg(d=2), 0.1, 0.5)
        assert v2 / v1 == pytest.approx(2.5, rel=1e-14)


class TestConstantsConfig:
    def test_all_positive(self):
        c = cfg(d=3, delta=0.3, L=8.0)
        evl = bounds.c_evl_family(c)
        values = {"delta0": bounds.delta0(c),
                  "gradient_lower_bound": bounds.c_gradient(c.delta, c.e_min, c.theta_plus),
                  "wegner": bounds.c_wegner(c, evl.bounded_w, 0.6),
                  "wegner_lipschitz": bounds.c_wegner(c, evl.standard, 0.6)}
        low = bounds.kappa_family(c)
        assert low.neumann_supported
        for family in (bounds.c_sfucp_family(c), evl, low):
            values.update((f.name, getattr(family, f.name)) for f in dataclasses.fields(family)
                          if f.name != "neumann_supported")
        for name, value in values.items():
            assert value > 0, name

    def test_validation(self):
        with pytest.raises(ValueError):
            cfg(e_min=2.0, e_max=1.0)
        with pytest.raises(ValueError):
            cfg(theta_minus=-1.0)
        with pytest.raises(ValueError):
            cfg(n_exponent=0.0)
