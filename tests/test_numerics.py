import math

import numpy as np
import pytest

from negmass.errors import NonConvergenceError, NumericalError
from negmass.numerics import _power_tail, dyadic_gauss, gauss_panel, ladder_limit
from negmass.spherical import _PanelTable

# checked_panels' default test and _power_tail run through _PanelTable: octaves
# of r from 2^-64 to 2^64, halved until Gauss orders 24 and 48 agree, closed by
# a power below the first panel (head) and above the last, in u = 1/r (tail).
# Its acceptance predicate runs through imcf_flow (tests/test_imcf.py)


def tail(f, a):
    """int_a^inf f(r) dr: the table's panels above a and its tail."""
    table = _PanelTable(f, 0.0, checked=True)
    return float(table.tail - table.integral(a))


def test_tail_integral_inverse_square():
    # int_2^inf dr/r^2 = 1/2
    assert tail(lambda r: 1.0 / r ** 2, 2.0) == pytest.approx(0.5, rel=1e-10)


def test_tail_integral_log_tail():
    # int_a^inf ln r / r^2 dr = (1 + ln a)/a; in u = 1/r the tail's r^2 f = -ln u is unbounded
    for a in (0.01, 2.0, 50.0):
        assert tail(lambda r: np.log(r) / r ** 2, a) == pytest.approx(
            (1.0 + math.log(a)) / a, rel=1e-10)


def test_tail_integral_closes_a_power_tail_exactly():
    # the sliver above the last octave is int_0^u0 c u^-q du, not a rectangle
    assert tail(lambda r: r ** -1.5, 1.0) == pytest.approx(2.0, rel=1e-12)
    assert _PanelTable(lambda r: 1.0 / r, 0.0, checked=True).tail == math.inf
    assert _PanelTable(lambda r: -r ** -0.9, 0.0, checked=True).tail == -math.inf


def test_panel_table_closes_both_ends_exactly():
    # int_0^inf r^-1/2 / (1 + r) dr = pi: the head below 2^-64 is the power
    # r^-1/2 closed exactly (2^-31), and r^-5/4 gives an infinite head
    table = _PanelTable(lambda r: r ** -0.5 / (1.0 + r), 0.0, checked=True)
    assert table.head == pytest.approx(2.0 ** -31, rel=1e-12)
    assert table.head - table.F[0] + table.tail == pytest.approx(math.pi, rel=1e-12)
    assert _PanelTable(lambda r: r ** -1.25 / (1.0 + r), 0.0, checked=True).head == math.inf


def test_power_tail_fits_two_end_values():
    u = (0.25, 0.5)
    assert _power_tail(u, (0.25 ** -0.5, 0.5 ** -0.5)) == pytest.approx(2.0 * 0.5)
    assert _power_tail(u, (0.0, 1.0)) == 0.0
    assert _power_tail(u, (4.0, 2.0)) == math.inf  # g = 1/u
    for bad in ((1.0, -1.0), (1.0, 0.0), (math.nan, 1.0), (1.0, math.inf)):
        with pytest.raises(NumericalError):
            _power_tail(u, bad)


def test_tail_integral_raises_when_orders_disagree():
    # sin r turns about 2^k / 2pi times on the octave [2^k, 2^(k+1)]: toward
    # 2^64 orders 24 and 48 cannot agree on 4096 panels
    with pytest.raises(NonConvergenceError):
        tail(lambda r: np.sin(r) / r ** 2, 1.0)


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


def _noise(vals):
    """The floor ``regular_mass`` gives its ladders: 1e-12 of the largest sample."""
    return 1e-12 * max(abs(v) for v in vals)


def test_richardson_decay_recovers_limit():
    f = lambda R: 5.0 - 3.0 / R + 0.7 / R ** 2 - 0.2 / R ** 3
    vals = [f(100.0 * 2 ** k) for k in range(4)]
    assert ladder_limit(vals, _noise(vals), order=1) == pytest.approx(5.0, abs=1e-12)


def test_limit_smallstep_fractional_order():
    # mixed 2/3- and 1-order corrections: estimated-exponent elimination
    # beats the raw finest sample (error 1e-3) by two orders
    f = lambda e: -1.0 + 0.8 * e ** (2.0 / 3.0) + 0.1 * e
    vals = [f(1e-3 / 2 ** k) for k in range(4)]
    assert ladder_limit(vals, _noise(vals)) == pytest.approx(-1.0, abs=1e-5)


def test_limit_smallstep_pure_power():
    f = lambda e: -1.0 + 0.8 * e ** (2.0 / 3.0)
    vals = [f(1e-3 / 2 ** k) for k in range(4)]
    assert ladder_limit(vals, _noise(vals)) == pytest.approx(-1.0, abs=1e-9)


def test_limit_smallstep_divergence_marker():
    vals = [-(2.0 ** (1.25 * k)) for k in range(4)]  # grows by 2^1.25 each halving
    assert ladder_limit(vals, _noise(vals)) == -math.inf


def test_limit_smallstep_slow_divergence():
    # grows only by 2^0.2 per halving: the factor-2 rule alone would miss it
    vals = [-(2.0 ** (0.2 * k)) for k in range(4)]
    assert ladder_limit(vals, _noise(vals)) == -math.inf


def test_limit_smallstep_oscillation_raises():
    with pytest.raises(NonConvergenceError) as err:
        ladder_limit([1.0, -1.0, 1.0, -1.0], 1e-12)
    assert len(err.value.samples) == 4


def test_ladder_limit_rejects_nan():
    # a NaN step is neither settled nor steady
    for vals in ([1.0, math.nan, 1.0, 1.0], [math.nan] * 4):
        with pytest.raises(NonConvergenceError):
            ladder_limit(vals, 1e-12)
