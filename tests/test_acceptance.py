"""Acceptance battery: every release criterion as one named test.

Each test delegates to the corresponding named check of the verify module
(the same battery behind `walshmap verify`) and prints its one-line summary,
so `pytest -v tests/test_acceptance.py` reads as a per-criterion report.
"""

import time

import numpy as np
import pytest

from walshmap.verify import random_interval_set, run_checks


def run(name, **kwargs):
    result = run_checks([name], **kwargs)[0]
    print(f"[{name}] {'PASS' if result.passed else 'FAIL'}: {result.detail}")
    assert result.passed, f"{name}: {result.detail}"
    return result


def test_criterion_1_two_interval_regression():
    # nine published values within 5e-5, full pipeline under a second
    run("ex44")


def test_criterion_2_three_interval_regression():
    # published masses/capacity/centers within 5e-5; the centers' Newton of
    # solve and the paper's iteration (centers_general) agree to 1e-7; the
    # paper's iteration takes at most 4 outer steps
    run("ex55")


def test_criterion_3_cantor_capacities():
    # 11 significant digits on both capacity values; 2 and 3 outer steps of
    # the paper's iteration; under five seconds each
    run("cantor")


def test_criterion_4_closed_form_table():
    # the paper's iteration counts 1/4/4 within +-1 and closed-form centers
    # and masses reproduced below 1e-10 on the three analytic families
    run("table1")


def test_criterion_5_random_stress():
    # 100 seeded 5-interval and 100 seeded 10-interval sets: the paper's
    # iteration converges within 7 outer steps, full invariant battery,
    # combined under 60 s
    t0 = time.perf_counter()
    run("stress5")
    run("stress10")
    elapsed = time.perf_counter() - t0
    print(f"[stress] combined runtime {elapsed:.1f}s")
    assert elapsed < 60.0


def test_criterion_6_map_property_suite():
    # (a) closed-form single-interval map to 1e-10 at 100 points;
    # (b) Green identity below 1e-9 on 40x40 off-axis grids for both
    #     regression sets; (c) endpoint images equal the boundary abscissae
    #     to 1e-9; (d) strict monotonicity on every gap; (e) branch offsets
    #     match the mass partial sums to 1e-9
    run("map_suite")


def test_criterion_7_exponents_double_computation():
    # density-integral and contour-integral masses agree to 1e-8 on all
    # regression sets
    run("exponents_double")


def test_criterion_8_touching_interval_remark():
    # centers match the published (4-decimal truncated) digits and the
    # independently computed reference to 1e-10; the report flags that the
    # second center falls outside its component
    run("final_remark")


def test_random_interval_set_gives_up_on_unreachable_floor():
    # 30 components with every length >= 1e-2 on [-1, 1]: practically no
    # uniform draw qualifies, so the sampler must stop and say why
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match=r"30 intervals.*min_length 0\.01"):
        random_interval_set(np.random.default_rng(0), 30)
    assert time.perf_counter() - t0 < 1.0


def test_random_interval_set_draws_unchanged_by_the_cap():
    def unbounded(rng, ell, min_length=1e-2):
        while True:
            b = np.sort(rng.uniform(-1.0, 1.0, size=2 * ell))
            if np.min(np.diff(b)) >= min_length:
                return [[b[2 * j], b[2 * j + 1]] for j in range(ell)]

    for ell in (5, 10):
        capped, plain = np.random.default_rng(ell), np.random.default_rng(ell)
        for _ in range(20):
            assert random_interval_set(capped, ell) == unbounded(plain, ell)
