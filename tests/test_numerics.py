import math

import numpy as np
import pytest

from negmass.errors import NonConvergenceError, NumericalError
from negmass.numerics import (_power_tail, dyadic_gauss, end_integral, gauss_panel,
                              limit_smallstep, richardson_decay, tail_integral)


def test_tail_integral_inverse_square():
    # int_2^inf dr/r^2 = 1/2
    assert tail_integral(lambda r: 1.0 / r ** 2, 2.0) == pytest.approx(0.5, rel=1e-10)


def test_tail_integral_needs_positive_start():
    with pytest.raises(NumericalError):
        tail_integral(lambda r: 1.0 / r ** 2, 0.0)


def test_tail_integral_log_tail():
    # int_a^inf ln r / r^2 dr = (1 + ln a)/a; the u = 1/r integrand -ln u is unbounded
    for a in (0.01, 2.0, 50.0):
        assert tail_integral(lambda r: np.log(r) / r ** 2, a) == pytest.approx(
            (1.0 + math.log(a)) / a, rel=1e-10)


def test_tail_integral_closes_a_power_tail_exactly():
    # the sliver below the last octave is int_0^u0 c u^-q du, not a rectangle
    assert tail_integral(lambda r: r ** -1.5, 1.0) == pytest.approx(2.0, rel=1e-12)
    assert tail_integral(lambda r: 1.0 / r, 1.0) == math.inf
    assert tail_integral(lambda r: -r ** -0.9, 1.0) == -math.inf


def test_end_integral_stops_at_its_inner_edge():
    # h is unusable below stop; _power_tail closes int_0^stop u^-0.5 du exactly
    def h(u):
        assert (u >= 1e-3).all()
        return u ** -0.5
    assert end_integral(h, 1.0, 1e-3) == pytest.approx(2.0, rel=1e-12)
    assert end_integral(lambda u: u ** -1.25, 1.0) == math.inf
    with pytest.raises(NumericalError):
        end_integral(h, 1.0, 0.6)


def test_power_tail_fits_two_end_values():
    u = (0.25, 0.5)
    assert _power_tail(u, (0.25 ** -0.5, 0.5 ** -0.5)) == pytest.approx(2.0 * 0.5)
    assert _power_tail(u, (0.0, 1.0)) == 0.0
    assert _power_tail(u, (4.0, 2.0)) == math.inf  # g = 1/u
    for bad in ((1.0, -1.0), (1.0, 0.0), (math.nan, 1.0), (1.0, math.inf)):
        with pytest.raises(NumericalError):
            _power_tail(u, bad)


def test_tail_integral_raises_when_orders_disagree():
    # sin(1/u) oscillates without bound toward u = 0: orders n and 2n cannot agree
    with pytest.raises(NonConvergenceError):
        tail_integral(lambda r: np.sin(r) / r ** 2, 1.0)


def test_gauss_panel_matches_closed_form():
    # int_0^2 e^{-x} sin 3x dx = (3 - e^{-2}(sin 6 + 3 cos 6))/10
    f = lambda x: np.exp(-x) * np.sin(3 * x)
    exact = (3.0 - math.exp(-2.0) * (math.sin(6.0) + 3.0 * math.cos(6.0))) / 10.0
    assert gauss_panel(f, 0.0, 2.0, 32) == pytest.approx(exact, abs=1e-12)
    assert type(gauss_panel(f, 0.0, 2.0, 32)) is float
    # (P, 1) ends: P panels in one call, each as its own float call gives it
    edges = np.linspace(0.0, 2.0, 5)
    sums = gauss_panel(f, edges[:-1, None], edges[1:, None], 32)
    assert sums.shape == (4,)
    assert sums.tolist() == pytest.approx(
        [gauss_panel(f, a, b, 32) for a, b in zip(edges[:-1], edges[1:])], rel=1e-15)
    assert sums.sum() == pytest.approx(exact, abs=1e-12)


def test_dyadic_gauss_boundary_layer():
    # integrand with width-1e-4 spikes at both endpoints
    eps = 1e-4

    def f(x):
        return 1.0 / (eps + (1.0 - np.abs(x)))

    exact = 2.0 * math.log((1.0 + eps) / eps)
    val = dyadic_gauss(f, -1.0, 1.0, inner=1e-7)
    assert val == pytest.approx(exact, rel=1e-9)


def test_richardson_decay_recovers_limit():
    f = lambda R: 5.0 - 3.0 / R + 0.7 / R ** 2 - 0.2 / R ** 3
    vals = [f(100.0 * 2 ** k) for k in range(4)]
    assert richardson_decay(vals) == pytest.approx(5.0, abs=1e-12)


def test_limit_smallstep_fractional_order():
    # mixed 2/3- and 1-order corrections: estimated-exponent elimination
    # beats the raw finest sample (error 1e-3) by two orders
    f = lambda e: -1.0 + 0.8 * e ** (2.0 / 3.0) + 0.1 * e
    vals = [f(1e-3 / 2 ** k) for k in range(4)]
    assert limit_smallstep(vals) == pytest.approx(-1.0, abs=1e-5)


def test_limit_smallstep_pure_power():
    f = lambda e: -1.0 + 0.8 * e ** (2.0 / 3.0)
    vals = [f(1e-3 / 2 ** k) for k in range(4)]
    assert limit_smallstep(vals) == pytest.approx(-1.0, abs=1e-9)


def test_limit_smallstep_divergence_marker():
    vals = [-(2.0 ** (1.25 * k)) for k in range(4)]  # grows by 2^1.25 each halving
    assert limit_smallstep(vals) == -math.inf


def test_limit_smallstep_slow_divergence():
    # grows only by 2^0.2 per halving: the factor-2 rule alone would miss it
    vals = [-(2.0 ** (0.2 * k)) for k in range(4)]
    assert limit_smallstep(vals) == -math.inf


def test_limit_smallstep_oscillation_raises():
    with pytest.raises(NonConvergenceError) as err:
        limit_smallstep([1.0, -1.0, 1.0, -1.0])
    assert len(err.value.samples) == 4

