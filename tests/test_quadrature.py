import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from walshmap.errors import NoConvergence
from walshmap.quadrature import (_CHEB_BLOCK, QuadConfig, _chebyshev_sum,
                                 integrate_chebyshev,
                                 integrate_segment_complex, integrate_tail)

import reference_values as ref


def test_config_validation():
    with pytest.raises(ValueError):
        QuadConfig(abs_tol=0.0)
    with pytest.raises(ValueError):
        QuadConfig(max_level=2)


# --- finite interval ----------------------------------------------------------

def test_chebyshev_weight_integrates_to_pi():
    v = integrate_chebyshev(lambda x: 1.0 / np.sqrt(1.0 - x * x), -1.0, 1.0)
    assert abs(v - math.pi) < 1e-12


def test_odd_integrand_vanishes():
    v = integrate_chebyshev(lambda x: x / np.sqrt(1.0 - x * x), -1.0, 1.0)
    assert abs(v) < 1e-12


def test_mass_integrand_two_interval_set():
    # density of the two-interval set over its right component gives m_2
    b = (-1.0, -0.3, 0.1, 1.0)
    z1 = ref.TWO_INTERVAL["z1"]

    def fd(x, d_lo, d_hi):
        absH = d_lo * d_hi * np.abs(x - b[0]) * np.abs(x - b[1])
        return (x - z1) / (math.pi * np.sqrt(absH))

    v = integrate_chebyshev(None, 0.1, 1.0, fd=fd)
    assert abs(v - ref.TWO_INTERVAL["m"][1]) < 1e-12


def test_doubling_estimate_bounds_actual_error():
    # Chebyshev moments with known closed forms
    exact = {0: math.pi, 2: math.pi / 2, 4: 3 * math.pi / 8,
             6: 5 * math.pi / 16, 8: 35 * math.pi / 128}
    for k, target in exact.items():
        v, est = integrate_chebyshev(
            lambda x, k=k: x ** k / np.sqrt(1.0 - x * x), -1.0, 1.0,
            with_estimate=True)
        assert abs(v - target) <= est + 2e-15


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(-2, 2), min_size=1, max_size=5),
       st.lists(st.floats(-2, 2), min_size=1, max_size=5),
       st.floats(-3, 3), st.floats(-3, 3))
def test_linearity(c1, c2, s, t):
    w = lambda x: 1.0 / np.sqrt(1.0 - x * x)
    f = lambda x: np.polynomial.polynomial.polyval(x, c1) * w(x)
    g = lambda x: np.polynomial.polynomial.polyval(x, c2) * w(x)
    combo = lambda x: (s * np.polynomial.polynomial.polyval(x, c1)
                       + t * np.polynomial.polynomial.polyval(x, c2)) * w(x)
    lhs = integrate_chebyshev(combo, -1.0, 1.0)
    rhs = s * integrate_chebyshev(f, -1.0, 1.0) + t * integrate_chebyshev(g, -1.0, 1.0)
    scale = 1.0 + abs(lhs) + abs(rhs)
    assert abs(lhs - rhs) < 10e-12 * scale


def test_chebyshev_no_convergence_on_discontinuity():
    cfg = QuadConfig(max_level=4)
    with pytest.raises(NoConvergence) as err:
        integrate_chebyshev(lambda x: np.sign(x - 0.123), -1.0, 1.0, cfg)
    assert err.value.best is not None
    assert err.value.estimate > 0


# --- vector-valued Chebyshev rule ----------------------------------------------

# components that stop after 32, 128 and 16384 nodes at LOOSE: the last one
# takes the rule past one node block
ROWS = (lambda x: np.cos(x) / np.sqrt(1.0 - x * x),
        lambda x: 1.0 / (1.0 + 100.0 * x * x),
        lambda x: np.sqrt(np.abs(x - 0.3)))
LOOSE = QuadConfig(abs_tol=1e-6, rel_tol=1e-6)


def test_vector_rule_matches_scalar_rule_per_component():
    nodes = []

    def block(x):
        nodes.append(x.size)
        return np.vstack([f(x) for f in ROWS])

    vec, err = integrate_chebyshev(block, -1.0, 1.0, LOOSE, with_estimate=True)
    assert vec.shape == err.shape == (len(ROWS),)
    assert max(nodes) == _CHEB_BLOCK and sum(nodes) > 4 * _CHEB_BLOCK
    for k, f in enumerate(ROWS):
        v, e = integrate_chebyshev(f, -1.0, 1.0, LOOSE, with_estimate=True)
        assert isinstance(v, float) and isinstance(e, float)
        np.testing.assert_array_max_ulp(vec[k], v, maxulp=2)
        np.testing.assert_array_max_ulp(err[k], e, maxulp=2)


def test_vector_rule_keeps_early_component_value():
    levels = []

    def block(x):
        levels.append(x.size)
        return np.vstack((ROWS[0](x), ROWS[2](x)))

    vec = integrate_chebyshev(block, -1.0, 1.0, LOOSE)
    early = integrate_chebyshev(ROWS[0], -1.0, 1.0, LOOSE)
    last = _chebyshev_sum(ROWS[0], None, 0.0, 1.0, 16384)
    assert sum(levels) == 32752  # the slow component ran to 16384 nodes
    assert vec[0] == early       # ... the fast one kept its 32-node value
    assert last != early


def test_vector_rule_no_convergence_carries_arrays():
    cfg = QuadConfig(max_level=4)
    with pytest.raises(NoConvergence) as err:
        integrate_chebyshev(lambda x: np.vstack((ROWS[0](x), np.sign(x - 0.123))),
                            -1.0, 1.0, cfg)
    best, estimate = err.value.best, err.value.estimate
    assert best.shape == estimate.shape == (2,)
    assert best[0] == integrate_chebyshev(ROWS[0], -1.0, 1.0, cfg)
    assert estimate[0] <= cfg.tolerance(best[0])
    assert estimate[1] > cfg.tolerance(best[1])
    assert "1 of 2 components" in str(err.value)


# --- semi-infinite tails -------------------------------------------------------

def test_tail_inverse_square():
    assert abs(integrate_tail(lambda x: 1.0 / x ** 2, 1.0, 1) - 1.0) < 1e-12


def test_tail_lorentzian_both_directions():
    f = lambda x: 1.0 / (x * x + 1.0)
    assert abs(integrate_tail(f, 0.0, 1) - math.pi / 2) < 1e-12
    assert abs(integrate_tail(f, 0.0, -1) - math.pi / 2) < 1e-12


def test_tail_endpoint_singularity():
    # int_2^inf dx / (sqrt(x-2) x^2) = pi*sqrt(2)/8 after x = 2 + u^2
    v = integrate_tail(None, 2.0, 1,
                       fd=lambda d: 1.0 / (np.sqrt(d) * (d + 2.0) ** 2))
    assert abs(v - math.pi * math.sqrt(2.0) / 8.0) < 1e-12


def test_tail_capacity_consistency():
    # tail formula for the two-interval set: capacity = exp(integral) when the
    # shift parameter sits one unit inside the last endpoint
    b = (-1.0, -0.3, 0.1, 1.0)
    z1 = ref.TWO_INTERVAL["z1"]
    offs = [1.0 - bj for bj in b]

    def fd(d):
        ratio = (d + (1.0 - z1)) / np.sqrt(
            d * (d + offs[0]) * (d + offs[1]) * (d + offs[2]))
        return 1.0 / (d + 1.0) - ratio

    v = integrate_tail(None, 1.0, 1, fd=fd)
    assert abs(math.exp(v) - ref.TWO_INTERVAL["capacity"]) < 1e-11


# --- complex segments ----------------------------------------------------------

def test_segment_constant():
    v = integrate_segment_complex(lambda z: np.ones_like(z), 0.0, 1.0 + 1.0j)
    assert abs(v - (1.0 + 1.0j)) < 1e-13


def test_segment_polynomial_antiderivative():
    v = integrate_segment_complex(lambda z: 2.0 * z, 1.0, 1.0j)
    assert abs(v - (-2.0)) < 1e-13


def brute_force_arccosh2(n):
    # z = 1 + u^2 turns the integrand into the smooth 2/sqrt(u^2 + 2);
    # a plain trapezoid then converges like h^2
    u = np.linspace(0.0, 1.0, n)
    return float(np.trapezoid(2.0 / np.sqrt(u * u + 2.0), u))


def test_segment_inverse_sqrt_start():
    f = lambda z: 1.0 / (np.sqrt(z - 1.0) * np.sqrt(z + 1.0))
    v = integrate_segment_complex(f, 1.0, 2.0, singular_at_start=True)
    assert abs(v - ref.ARCCOSH_2) < 1e-11
    assert abs(v.imag) < 1e-13
    # brute-force oracle converges to the same value as the grid refines
    errs = [abs(brute_force_arccosh2(n) - v.real) for n in (101, 10_001, 1_000_001)]
    assert errs[0] > errs[1] > errs[2]
    assert errs[-1] < 1e-10


def test_segment_orientation_antisymmetry():
    f = lambda z: np.exp(z) / (z + 3.0)
    a, b = 0.5 - 0.2j, -1.0 + 1.5j
    forward = integrate_segment_complex(f, a, b)
    backward = integrate_segment_complex(f, b, a)
    assert abs(forward + backward) < 1e-12


def test_segment_zero_length():
    assert integrate_segment_complex(lambda z: z, 1.0, 1.0) == 0j


# --- vector segment rule -------------------------------------------------------

# panels that stop at different orders: short and long, towards and away
# from the pole of 1/(z + 2), and one of zero length
STARTS = np.array([0.0, 0.5j, -1.0 + 0.2j, 1.5 - 1.5j, 0.3, 2.0])
ENDS = np.array([0.1, 3.0 + 0.5j, -1.9 + 0.1j, -1.5 + 1.5j, 0.3, 2.0 + 1e-3j])


def rational(z):
    return np.exp(z) / (z + 2.0)


def sqrt_start(offset, start):
    # 1/sqrt singularity at every panel's start, given the exact offset
    return np.cos(offset) / np.sqrt(offset)


@pytest.mark.parametrize("singular", [False, True])
def test_segment_batch_matches_scalar_calls(singular):
    kwargs = {"fd": sqrt_start} if singular else {}
    f = None if singular else rational
    vec, err = integrate_segment_complex(f, STARTS, ENDS, singular,
                                         with_estimate=True, **kwargs)
    assert vec.shape == err.shape == STARTS.shape
    for z0, z1, v, e in zip(STARTS, ENDS, vec, err):
        one, one_err = integrate_segment_complex(f, complex(z0), complex(z1), singular,
                                                 with_estimate=True, **kwargs)
        assert isinstance(one, complex) and isinstance(one_err, float)
        np.testing.assert_array_max_ulp([v.real, v.imag, e],
                                        [one.real, one.imag, one_err], maxulp=2)


def test_segment_batch_keeps_early_panel_value():
    rows = []

    def fd(offset, start):
        rows.append(offset.shape)
        return np.exp(offset) / (offset - 0.5 - 0.02j)

    # the short panel settles after 32 nodes, the one near the pole at 0.5
    # needs many more
    vec = integrate_segment_complex(None, 0.0, np.array([0.05, 1.0]), fd=fd)
    assert rows[:3] == [(2, 16), (2, 32), (1, 64)] and rows[-1] == (1, 1024)
    assert vec[0] == integrate_segment_complex(None, 0.0, 0.05, fd=fd)


def test_segment_zero_length_panels_give_zero():
    seen = []

    def f(z):
        seen.append(z.shape[0])
        return z

    vec = integrate_segment_complex(f, np.array([1.0, 0.0, 2j]),
                                    np.array([1.0, 1.0, 2j]))
    assert vec[0] == 0j and vec[2] == 0j
    assert abs(vec[1] - 0.5) < 1e-15
    assert set(seen) == {1}  # the integrand never sees an empty panel


def test_segment_no_convergence_carries_arrays():
    # rough where Im z varies: only the two slanted panels fail
    rough = lambda z: np.cos(1e6 * z.imag)
    z0 = np.array([[0.0, 1.0], [2.0, 3.0]])
    z1 = np.array([[1.0, 1.0 + 1j], [3.0, 3.5 + 1j]])
    with pytest.raises(NoConvergence) as err:
        integrate_segment_complex(rough, z0, z1)
    best, estimate = err.value.best, err.value.estimate
    assert best.shape == estimate.shape == (2, 2)
    assert best[0, 0] == integrate_segment_complex(rough, 0.0, 1.0) == 1.0
    assert best[1, 0] == integrate_segment_complex(rough, 2.0, 3.0) == 1.0
    cfg = QuadConfig()
    assert np.all(estimate[:, 0] <= cfg.tolerance(best[:, 0]))
    assert np.all(estimate[:, 1] > cfg.tolerance(best[:, 1]))
    # the message is the first failing panel's, as a call on it alone gives
    with pytest.raises(NoConvergence) as one:
        integrate_segment_complex(rough, 1.0, 1.0 + 1j)
    assert str(err.value) == str(one.value)
    assert str(err.value).startswith(
        "segment rule did not reach tolerance on [(1+0j), (1+1j)]")
