import math

import pytest
from hypothesis import given, strategies as st

from walshmap.api import solve
from walshmap.errors import DegenerateError, NotFinite, OverlapError
from walshmap.intervals import IntervalUnion, locate, parse_domain


def test_parse_two_intervals():
    E = parse_domain([[-1, -0.3], [0.1, 1]])
    assert E.ell == 2
    assert E.endpoints == (-1.0, -0.3, 0.1, 1.0)


def test_parse_single_interval():
    assert parse_domain([[-1, 1]]).ell == 1


def test_parse_sorts_pairs():
    E = parse_domain([[0.1, 1], [-1, -0.3]])
    assert E.endpoints == (-1.0, -0.3, 0.1, 1.0)


def test_overlapping_intervals_rejected():
    with pytest.raises(OverlapError):
        parse_domain([[0, 1], [0.5, 2]])


def test_touching_intervals_rejected():
    with pytest.raises(OverlapError):
        parse_domain([[0, 1], [1, 2]])


def test_degenerate_interval_rejected():
    with pytest.raises(DegenerateError):
        parse_domain([[1, 1]])
    with pytest.raises(DegenerateError):
        parse_domain([[2, 1]])


def test_empty_input_rejected():
    with pytest.raises(DegenerateError):
        parse_domain([])


def test_nonfinite_rejected():
    with pytest.raises(DegenerateError):
        IntervalUnion((0.0, math.inf))


def test_locate_examples():
    E = parse_domain([[-1, -0.3], [0.1, 1]])
    assert locate(E, 0.5) == locate(E, complex(0.5))
    assert locate(E, 0.5).kind == "inside" and locate(E, 0.5).index == 2
    assert locate(E, 0.0).kind == "gap" and locate(E, 0.0).index == 1
    assert locate(E, 1 + 2j).kind == "off_axis"
    assert locate(E, -5.0).index == 0
    assert locate(E, 5.0).index == E.ell


def test_locate_rejects_nan():
    E = parse_domain([[-1, -0.3], [0.1, 1]])
    for z in (math.nan, complex(0.5, math.nan)):
        with pytest.raises(NotFinite):
            locate(E, z)
    assert locate(E, math.inf).index == 2 and locate(E, -math.inf).index == 0


def test_every_endpoint_is_inside():
    E = parse_domain([[-1, -0.3], [0.1, 1]])
    for b in E.endpoints:
        assert locate(E, b).inside


def test_gap_structure():
    E = parse_domain([[-1, -0.3], [0.1, 1]])
    gaps = E.gaps
    assert [g.index for g in gaps] == [0, 1, 2]
    assert gaps[0].lower == -math.inf and gaps[0].upper == -1.0
    assert gaps[1].lower == -0.3 and gaps[1].upper == 0.1
    assert gaps[2].upper == math.inf
    with pytest.raises(IndexError):
        E.gap(3)


interval_lists = st.integers(1, 5).flatmap(
    lambda ell: st.lists(
        st.floats(-10, 10).filter(lambda v: v == v), min_size=2 * ell,
        max_size=2 * ell, unique=True))


@given(interval_lists)
def test_parse_idempotent_and_tiling(values):
    values = sorted(values)
    pairs = [[values[2 * j], values[2 * j + 1]] for j in range(len(values) // 2)]
    E = parse_domain(pairs)
    again = parse_domain(E.components)
    assert again == E
    # every real point lands in exactly one of {component, gap}
    for x in values + [v + 1e-3 for v in values] + [-1e9, 1e9]:
        loc = locate(E, x)
        assert (loc.kind == "inside") == E.contains(x)


@pytest.mark.parametrize("pairs", [[[-1.7e308, 1.7e308]], [[-1e308, 0.0], [1.0, 1e308]]])
def test_hull_wider_than_the_float_range_rejected(pairs):
    # the hull's width overflowed to inf, and IntervalUnion.unit raised an
    # untyped OverflowError from it
    with pytest.raises(DegenerateError,
                       match="hull width b_2l - b_1 = .* exceeds the float range"):
        parse_domain(pairs)
    with pytest.raises(DegenerateError, match="hull width"):
        solve(pairs)


def test_frame_and_unit_stay_finite_near_the_float_range():
    # b_1 + b_2l overflows; b_1 / 2 + b_2l / 2 does not
    E = parse_domain([[1e308, 1.5e308], [1.6e308, 1.7e308]])
    t, s = E.frame
    assert t == 1e308 / 2 + 1.7e308 / 2 and s == (1.7e308 - 1e308) / 2
    assert math.isfinite(t) and E.unit == 2.0 ** 1022
