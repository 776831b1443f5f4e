import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from walshmap.errors import NoConvergence
from walshmap.quadrature import (_CHEB_BLOCK, QuadConfig, _bessel_j0_zeros,
                                 _chebyshev_sum, _gauss_legendre, _leggauss, _tail,
                                 integrate_chebyshev, integrate_segment_complex,
                                 integrate_tail)

import reference_values as ref
from scalar_oracles import gauss_legendre_reference


def test_config_validation():
    with pytest.raises(ValueError):
        QuadConfig(tol=0.0)
    with pytest.raises(ValueError):
        QuadConfig(max_level=2)
    # a failing tail rule would build a table of 8 * 2^level nodes
    with pytest.raises(ValueError, match=r"max_level must be in \[3, 20\], got 21"):
        QuadConfig(max_level=21)
    assert QuadConfig(max_level=20).max_level == 20


def test_tol_below_one_ulp_is_rejected_at_the_input():
    # 5e-17 failed late, as NoConvergence from the tail rule of the solve
    with pytest.raises(ValueError, match=r"tol must be at least 2\^-52 = 2\.220446049250313e-16, "
                                         r"got 5e-17"):
        QuadConfig(5e-17)
    with pytest.raises(ValueError, match="tol must be at least"):
        QuadConfig(float("nan"))
    assert QuadConfig(2.3e-16).tol == 2.3e-16


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


# --- the self-certified first level --------------------------------------------

# closed forms over the Chebyshev weight on [-1, 1]: pi J_0(1), pi / sqrt(101)
# and pi I_0(1), rounded from 30-digit mpmath values
CLOSED_FORMS = (
    (lambda x: np.cos(x) / np.sqrt(1.0 - x * x), 2.403939430634413),
    (lambda x: 1.0 / ((1.0 + 100.0 * x * x) * np.sqrt(1.0 - x * x)), 0.31260015268123315),
    (lambda x: np.exp(x) / np.sqrt(1.0 - x * x), 3.977463260506423),
)


@pytest.mark.parametrize("tol", [1e-6, 1e-10, 1e-12, 1e-14])
@pytest.mark.parametrize("k", range(len(CLOSED_FORMS)))
def test_closed_forms_within_tol_and_under_the_estimate(k, tol):
    f, exact = CLOSED_FORMS[k]
    v, est = integrate_chebyshev(f, -1.0, 1.0, QuadConfig(tol), with_estimate=True)
    assert abs(v - exact) <= tol
    # the estimate bounds the truncation error; the rounding of the sum and
    # of f, 2-4 ulp of these positive integrals at 32 nodes, comes on top
    assert abs(v - exact) <= est + 8.0 * np.finfo(float).eps * exact


def test_smooth_integrand_takes_exactly_32_nodes():
    nodes = []

    def f(x):
        nodes.append(x.size)
        return np.exp(x) / np.sqrt(1.0 - x * x)

    v, est = integrate_chebyshev(f, -1.0, 1.0, with_estimate=True)
    assert nodes == [32]
    assert est <= QuadConfig().tolerance(v)


@pytest.mark.parametrize("max_level", [4, 12])
def test_discontinuity_runs_to_max_level(max_level):
    nodes = []

    def f(x):
        nodes.append(x.size)
        return np.sign(x - 0.123)

    with pytest.raises(NoConvergence):
        integrate_chebyshev(f, -1.0, 1.0, QuadConfig(max_level=max_level))
    # 32, 64, ... and 16 * 2^max_level nodes, in blocks of at most 1024
    assert nodes[0] == 32 and sum(nodes) == 32 * (2 ** max_level - 1)
    assert max(nodes) == min(16 << max_level, _CHEB_BLOCK)


def test_tail_is_the_top_cosine_coefficients():
    # a_{n-j} = (2/n) sum_i h_i cos((n - j) t_i), j = 1 .. 4
    rng = np.random.default_rng(1)
    h = rng.standard_normal((5, 32))
    t = (np.arange(32) + 0.5) * (np.pi / 32)
    direct = np.max(np.abs(h @ np.cos(np.outer(32 - np.arange(1, 5), t)).T), axis=-1) / 16.0
    np.testing.assert_allclose(_tail(h), direct, rtol=1e-13)


def test_tail_of_each_row_is_its_own():
    # a row's certificate is the one a call on that row alone gives, as its
    # value is: each stops on its own, whatever block it came in
    rng = np.random.default_rng(2)
    for K, p in ((1, 1), (3, 8), (41, 8)):
        h = rng.standard_normal((K, p, 32)) * 10.0 ** rng.uniform(-5.0, 5.0, (K, p, 1))
        block = _tail(h)
        assert block.shape == (K, p)
        for q in range(p):
            assert np.array_equal(block[:, q], _tail(h[:, q]))
            for k in range(K):
                assert block[k, q] == _tail(h[k, q])


# --- vector-valued Chebyshev rule ----------------------------------------------

# components that stop after 32, 128 and 16384 nodes at LOOSE: the last one
# takes the rule past one node block
ROWS = (lambda x: np.cos(x) / np.sqrt(1.0 - x * x),
        lambda x: 1.0 / (1.0 + 100.0 * x * x),
        lambda x: np.sqrt(np.abs(x - 0.3)))
LOOSE = QuadConfig(tol=1e-6)


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
    assert sum(levels) == 32736  # the slow component ran from 32 to 16384 nodes
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


# --- arrays of intervals ---------------------------------------------------------

# sqrt|x - 0.3| needs 16384 nodes at LOOSE on [-1, 1], past one node block,
# and few on the intervals that do not contain 0.3
LO, HI = np.array([-1.0, 0.5, 0.31, -0.2]), np.array([1.0, 2.0, 0.9, 0.2])


def interval_rows(k):
    """An integrand of k rows (a plain one for k = 0) that records the node
    count and the interval indices of each call."""
    calls = []

    def f(x, *idx):
        calls.append((x.shape[-1],) + tuple(np.ravel(idx).tolist()))
        rows = (ROWS[2](x), np.exp(x), 1.0 / (1.0 + 100.0 * x * x))[:max(k, 1)]
        return np.stack(rows) if k else rows[0]

    return f, calls


@pytest.mark.parametrize("k", [0, 1, 3])
def test_interval_array_matches_scalar_calls(k):
    f, calls = interval_rows(k)
    vec, err = integrate_chebyshev(f, LO, HI, LOOSE, with_estimate=True)
    assert vec.shape == err.shape == (len(LO),) + ((k,) if k else ())
    # the early intervals are dropped once all their rows stopped; interval 0
    # runs alone to 16384 nodes, in blocks of 1024
    assert [c for c in calls if c[0] == 32] == [(32, 0, 1, 2, 3)]
    assert calls[-1] == (1024, 0) and sum(c[0] for c in calls if c[1:] == (0,)) > 16384
    for i in range(len(LO)):
        v, e = integrate_chebyshev(f, LO[i], HI[i], LOOSE, with_estimate=True)
        assert np.array_equal(vec[i], v) and np.array_equal(err[i], e)
        assert isinstance(v, float) if not k else v.shape == (k,)
        # a one-element array runs the path a scalar call runs
        one, one_err = integrate_chebyshev(f, LO[i:i + 1], HI[i:i + 1], LOOSE,
                                           with_estimate=True)
        assert np.array_equal(one[0], v) and np.array_equal(one_err[0], e)


@pytest.mark.parametrize("k", [0, 2])
def test_interval_array_no_convergence_carries_failures(k):
    # the cusp fails on intervals 0 and 3, which contain it; the rest,
    # smooth over the Chebyshev weight, converge
    cfg = QuadConfig(max_level=4)

    def fd(x, d_lo, d_hi, *idx):
        rows = (np.sqrt(np.abs(x - 0.123)), np.exp(x))[:max(k, 1)]
        return (np.stack(rows) if k else rows[0]) / np.sqrt(d_lo * d_hi)

    with pytest.raises(NoConvergence) as err:
        integrate_chebyshev(None, LO, HI, cfg, fd=fd)
    exc = err.value
    assert exc.best.shape == exc.estimate.shape == (len(LO),) + ((k,) if k else ())
    assert sorted(exc.failures) == [0, 3]
    assert str(exc) == str(exc.failures[0])
    for i in range(len(LO)):
        try:
            v = integrate_chebyshev(None, LO[i], HI[i], cfg, fd=fd)
        except NoConvergence as own:
            got = exc.failures[i]
            assert str(got) == str(own)
            assert np.array_equal(got.best, own.best)
            assert np.array_equal(got.estimate, own.estimate)
            assert type(got.best) is type(own.best)
            assert type(own.best) is type(own.estimate) is (np.ndarray if k else float)
            assert np.array_equal(exc.best[i], own.best)
            # the same interval as a one-element array fails alike
            with pytest.raises(NoConvergence) as one:
                integrate_chebyshev(None, LO[i:i + 1], HI[i:i + 1], cfg, fd=fd)
            assert str(one.value) == str(own)
            assert np.array_equal(one.value.best[0], own.best)
            assert np.array_equal(one.value.estimate[0], own.estimate)
        else:
            assert i not in exc.failures and np.array_equal(exc.best[i], v)


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


def test_tail_no_convergence_carries_floats():
    # cos does not decay: the nested trapezoid sums never settle
    with pytest.raises(NoConvergence) as err:
        integrate_tail(np.cos, 0.0, 1, QuadConfig(max_level=4))
    assert isinstance(err.value.best, float) and isinstance(err.value.estimate, float)
    assert err.value.estimate > QuadConfig().tolerance(err.value.best)
    assert str(err.value).startswith(
        "tanh-sinh tail rule did not reach tolerance at lo=0.0")


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


# tails that stop at different levels, in both directions: 1/x^2, a
# Lorentzian, a slow 1/x^1.55 decay and exp(-x)/sqrt(x) at the endpoint
TAIL_LO = np.array([1.0, 0.0, -2.0, 0.5])
TAIL_SIDE = np.array([1, -1, -1, 1])


def tail_rows(calls):
    """The distance integrand of each tail in TAIL_LO, a row per tail of
    the block; records the rows and indices of each call."""
    def fd(d, *idx):
        calls.append((d.shape, tuple(np.ravel(idx).tolist())))
        i = idx[0][:, None] if idx else np.arange(TAIL_LO.size)[:, None]
        x = np.abs(TAIL_LO[i] + TAIL_SIDE[i] * d)
        rows = (1.0 / (x * x + 1e-300), 1.0 / (x * x + 1.0),
                1.0 / (np.sqrt(d) * (d + 1.0) ** 1.05), np.exp(-d) / np.sqrt(d))
        return np.choose(np.broadcast_to(i, d.shape), rows)
    return fd


def test_tail_array_matches_scalar_calls():
    calls = []
    vec, err = integrate_tail(None, TAIL_LO, TAIL_SIDE, LOOSE, fd=tail_rows(calls),
                              with_estimate=True)
    assert vec.shape == err.shape == TAIL_LO.shape
    # one integrand call a level, over the tails still doubling
    assert calls == [((4, 17), (0, 1, 2, 3)), ((4, 16), (0, 1, 2, 3)),
                     ((3, 32), (0, 1, 3)), ((2, 64), (1, 3))]
    for i in range(TAIL_LO.size):
        def own(d, i=i):
            return tail_rows([])(d[None], np.array([i]))[0]
        v, e = integrate_tail(None, TAIL_LO[i], TAIL_SIDE[i], LOOSE, fd=own,
                              with_estimate=True)
        assert isinstance(v, float) and isinstance(e, float)
        assert vec[i] == v and err[i] == e
        # a one-element array runs the path a scalar call runs
        one, one_err = integrate_tail(None, TAIL_LO[i:i + 1], TAIL_SIDE[i:i + 1], LOOSE,
                                      fd=lambda d, idx, i=i: tail_rows([])(d, idx + i),
                                      with_estimate=True)
        assert one[0] == v and one_err[0] == e


def test_tail_array_of_plain_integrands():
    f = lambda x, idx: 1.0 / (x * x + 1.0)
    vec = integrate_tail(f, np.zeros(2), np.array([1, -1]))
    assert vec[0] == integrate_tail(lambda x: 1.0 / (x * x + 1.0), 0.0, 1)
    assert vec[1] == integrate_tail(lambda x: 1.0 / (x * x + 1.0), 0.0, -1)
    with pytest.raises(ValueError, match="direction"):
        integrate_tail(f, np.zeros(2), np.array([1, 0]))


def test_tail_array_no_convergence_carries_failures():
    # cos does not decay: tails 1 and 3 never settle, 0 and 2 decay
    cfg = QuadConfig(max_level=4)
    lo = np.array([1.0, 0.0, 2.0, 0.5])

    def f(x, idx=None):
        fail = np.isin(np.arange(lo.size), (1, 3))
        rows = 1.0 / (x * x)
        if idx is None:
            return rows
        return np.where(fail[idx, None], np.cos(x), rows)

    with pytest.raises(NoConvergence) as err:
        integrate_tail(f, lo, 1, cfg)
    exc = err.value
    assert exc.best.shape == exc.estimate.shape == lo.shape
    assert sorted(exc.failures) == [1, 3]
    assert str(exc) == str(exc.failures[1])
    for i in range(lo.size):
        plain = np.cos if i in (1, 3) else (lambda x: 1.0 / (x * x))
        try:
            v = integrate_tail(plain, float(lo[i]), 1, cfg)
        except NoConvergence as own:
            got = exc.failures[i]
            assert str(got) == str(own)
            assert got.best == own.best and got.estimate == own.estimate
            assert type(got.best) is type(own.best) is type(own.estimate) is float
            assert exc.best[i] == own.best
            # the same tail as a one-element array fails alike
            with pytest.raises(NoConvergence) as one:
                integrate_tail(lambda x, idx: plain(x), lo[i:i + 1], 1, cfg)
            assert str(one.value) == str(own)
            assert one.value.best[0] == own.best and one.value.estimate[0] == own.estimate
        else:
            assert i not in exc.failures and exc.best[i] == v


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


# --- Gauss-Legendre tables -----------------------------------------------------

# every order the segment rule reaches: 16 to 2048 nodes
SEGMENT_ORDERS = [16 << k for k in range(8)]


@pytest.mark.parametrize("n", SEGMENT_ORDERS + [129])
def test_gauss_legendre_rule_is_symmetric_and_sums_to_two(n):
    u, w = _gauss_legendre(n)
    assert u.shape == w.shape == (n,)
    assert np.all(np.diff(u) > 0) and -1.0 < u[0] and u[-1] < 1.0
    assert np.array_equal(u, -u[::-1]) and np.array_equal(w, w[::-1])
    if n % 2:  # an odd order's middle node
        assert u[n // 2] == 0.0
    assert abs(w.sum() - 2.0) <= 4 * np.finfo(float).eps
    s, ws = _leggauss(n)
    assert np.array_equal(s, 0.5 * (u + 1.0)) and np.array_equal(ws, w)


@pytest.mark.parametrize("n", [16, 32, 64])
def test_gauss_legendre_rule_integrates_even_powers(n):
    # exact up to degree 2n - 1
    u, w = _gauss_legendre(n)
    for j in range(n):
        assert abs(np.sum(w * u ** (2 * j)) - 2.0 / (2 * j + 1)) <= 1e-15


@pytest.mark.parametrize("n", sorted(ref.GAUSS_LEGENDRE))
def test_gauss_legendre_rule_against_40_digit_values(n):
    # numpy's leggauss misses the weights by 1.3e-12 at n = 64 and by
    # 6.3e-8 at n = 2048, at the outermost nodes
    u, w = _gauss_legendre(n)
    for k, x, weight in ref.GAUSS_LEGENDRE[n]:
        assert abs(u[n - k] - x) <= 2.3e-16
        assert abs(w[n - k] - weight) <= 1e-12 * weight


@pytest.mark.parametrize("n", [16, 32, 64])
def test_gauss_legendre_low_orders_keep_tricomis_start(n):
    u, w = _gauss_legendre(n)
    u_ref, w_ref = gauss_legendre_reference(n)
    assert np.array_equal(u, u_ref) and np.array_equal(w, w_ref)


@pytest.mark.parametrize("n", [128, 129, 256, 512, 1024, 2048])
def test_gauss_legendre_bessel_start_meets_three_passes(n):
    # one pass from the zeros of J_0 against three from Tricomi's start
    u, w = _gauss_legendre(n)
    u_ref, w_ref = gauss_legendre_reference(n)
    assert np.max(np.abs(u - u_ref)) <= 2.3e-16
    assert np.max(np.abs(w / w_ref - 1)) <= 1e-13


def test_bessel_j0_zeros_against_30_digit_values():
    j = _bessel_j0_zeros(1024)
    assert j.shape == (1024,) and np.all(np.diff(j) > 0)
    for k, zero in ref.BESSEL_J0_ZEROS.items():
        if k <= 20:  # the table
            assert j[k - 1] == zero
        else:  # McMahon's expansion
            assert abs(j[k - 1] - zero) <= 2 * np.spacing(zero)
    assert np.array_equal(_bessel_j0_zeros(3), j[:3])


def test_gauss_legendre_table_builds_no_square_array():
    # the companion matrix of order 2048 alone holds 33.5 MB
    _leggauss.cache_clear()
    tracemalloc.start()
    try:
        _leggauss(2048)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


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
        # a one-element array runs the path a scalar call runs
        arr, arr_err = integrate_segment_complex(f, np.array([z0]), np.array([z1]), singular,
                                                 with_estimate=True, **kwargs)
        assert arr[0] == one and arr_err[0] == one_err


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
    # each failed panel carries the error a call on it alone raises
    assert set(err.value.failures) == {1, 3}
    for i in (1, 3):
        with pytest.raises(NoConvergence) as own:
            integrate_segment_complex(rough, z0.flat[i], z1.flat[i])
        panel = err.value.failures[i]
        assert (str(panel), panel.best, panel.estimate) == (
            str(own.value), own.value.best, own.value.estimate)
        assert type(own.value.best) is complex and type(own.value.estimate) is float
        # the same panel as a one-element array fails alike
        with pytest.raises(NoConvergence) as one:
            integrate_segment_complex(rough, z0.flat[i:i + 1], z1.flat[i:i + 1])
        assert str(one.value) == str(own.value)
        assert (one.value.best[0], one.value.estimate[0]) == (
            own.value.best, own.value.estimate)
