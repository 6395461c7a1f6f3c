"""Frozen examples for the lattice operators.

Derived values here were computed with the brute-force oracles in
``oracles.py`` (unpruned box enumeration, per-point level-set scans) and
are asserted as exact rationals.
"""

import time
import tracemalloc
from fractions import Fraction as F
from itertools import product

import pytest

from taublab.errors import DomainError
from taublab.lattice import (
    HALO_MEMBER_LIMIT,
    HaloSet,
    IntBox,
    LatticeSet,
    eval_strong_max,
    exceeds,
    halo,
    halo_ratio,
    interval,
    interval_witness,
    lattice_set,
    one_sided_halo,
    one_sided_halo_ratio,
    one_sided_max,
    product_witness,
    strong_max_witness,
)


def members_1d(h: HaloSet) -> list[int]:
    return [p[0] for p in h.members.points]


class TestBoxes:
    def test_counts(self):
        assert IntBox(lo=(0,), hi=(0,)).lattice_count() == 1
        assert IntBox(lo=(-1, 0), hi=(1, 2)).lattice_count() == 9
        assert IntBox(lo=(-2,), hi=(3,)).lattice_count() == 6

    def test_malformed_box(self):
        with pytest.raises(DomainError):
            IntBox(lo=(1,), hi=(0,))
        with pytest.raises(DomainError):
            IntBox(lo=(0, 0), hi=(1,))


class TestLatticeSet:
    def test_dedup_and_order(self):
        E = lattice_set([3, 1, 1, 2])
        assert E.points == ((1,), (2,), (3,))

    def test_dimension_checks(self):
        with pytest.raises(DomainError):
            LatticeSet.from_points([(0,), (0, 1)])
        with pytest.raises(DomainError):
            LatticeSet.from_points([], dim=None)

    def test_translate_negate(self):
        E = lattice_set([0, 2])
        assert E.translate((5,)).points == ((5,), (7,))
        assert E.negate().points == ((-2,), (0,))

    def test_non_integer_coordinates_rejected(self):
        E = lattice_set([(0,), (5,)])
        with pytest.raises(DomainError):
            lattice_set([(0.5,), (2.9,)])
        with pytest.raises(DomainError):
            eval_strong_max(E, (0.7,))
        with pytest.raises(DomainError):
            (F(5),) in E
        assert (5,) in E and (True,) not in E

    def test_interval_refuses_non_integer_length(self):
        for k in (2.5, "3", F(3)):
            with pytest.raises(DomainError):
                interval(k)


class TestStrongMax:
    def test_point_in_set_gives_one(self):
        assert eval_strong_max(lattice_set([0]), (0,)) == 1

    def test_single_point_at_distance(self):
        # best box is {0,1,2}
        assert eval_strong_max(lattice_set([0]), (2,)) == F(1, 3)

    def test_block_at_distance(self):
        # best box is {0,...,4}
        assert eval_strong_max(lattice_set([0, 1, 2]), (4,)) == F(3, 5)

    def test_empty_set_rejected(self):
        with pytest.raises(DomainError):
            eval_strong_max(LatticeSet.from_points([], dim=1), (0,))

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            eval_strong_max(lattice_set([0]), (0, 0))

    def test_witness_tie_break_is_lex_smallest(self):
        # E = {0, 3}, m = 1: density 1/2 attained by [0,1] and [0,3]
        value, box = strong_max_witness(lattice_set([0, 3]), (1,))
        assert value == F(1, 2)
        assert (box.lo, box.hi) == ((0,), (1,))


class TestExceeds:
    def test_boundary_is_strict(self):
        assert not exceeds(lattice_set([0]), (1,), F(1, 2))
        assert exceeds(lattice_set([0]), (1,), F(1, 3))
        assert not exceeds(lattice_set([0, 1, 2]), (4,), F(3, 5))

    def test_alpha_domain(self):
        for bad in [F(0), F(1), F(5, 4)]:
            with pytest.raises(DomainError):
                exceeds(lattice_set([0]), (1,), bad)


class TestHalo:
    def test_pair_at_half(self):
        h = halo(lattice_set([0, 1]), F(1, 2))
        assert members_1d(h) == [-1, 0, 1, 2]

    def test_singleton_high_threshold(self):
        assert members_1d(halo(lattice_set([0]), F(2, 3))) == [0]

    def test_block_sixty(self):
        h = halo(interval(60), F(1, 2))
        ms = members_1d(h)
        assert ms == list(range(-59, 119))
        assert len(ms) == 178

    def test_members_contain_source(self):
        E = lattice_set([0, 4, 5])
        h = halo(E, F(3, 4))
        assert set(E.points) <= set(h.members.points)

    def test_members_inside_dilated_bbox(self):
        E = lattice_set([0, 7])
        alpha = F(1, 3)
        h = halo(E, alpha)
        dil = -(-len(E) * alpha.denominator // alpha.numerator)
        assert all(-dil <= p[0] <= 7 + dil for p in h.members.points)

    def test_ratios(self):
        assert halo_ratio(interval(60), F(1, 2)) == F(89, 30)
        assert halo_ratio(lattice_set([0]), F(2, 3)) == 1
        assert halo_ratio(lattice_set([0, 1]), F(1, 2)) == 2

    def test_empty_set_rejected(self):
        with pytest.raises(DomainError):
            halo(LatticeSet.from_points([], dim=1), F(1, 2))

    def test_ratios_at_tiny_alpha_count_without_building_the_halo(self):
        """interval(60) has about 6M halo points at 1/100000; the ratios are
        counted from the reaches, in memory that does not grow with them."""
        alpha = F(1, 100000)
        tracemalloc.start()
        try:
            two_sided = halo_ratio(interval(60), alpha)
            one_sided = one_sided_halo_ratio(interval(60), alpha)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert two_sided == F(5999969, 30)
        assert one_sided == F(5999999, 60)
        assert peak < 1 << 20

    def test_wide_span_costs_its_points_not_its_span(self):
        """Two points 10^9 apart: the 1-D kernels read the points and the gap
        length, never the span's cells."""
        E, alpha = lattice_set([0, 10**9]), F(1, 2)
        tracemalloc.start()
        try:
            halos = [halo(E, alpha), one_sided_halo(E, alpha)]
            ratios = [halo_ratio(E, alpha), one_sided_halo_ratio(E, alpha)]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(h.members == E for h in halos)
        assert ratios == [1, 1]
        assert peak < 1 << 20

    @pytest.mark.parametrize("points", [
        [(0, 0), (10**9, 0)],
        [(0, 0), (0, 10**9)],
        [(0, 0, 0), (0, 0, 10**9)],
        [(0, 0), (10**9, 0), (1, 1)],
        [(0, 0), (0, 10**9), (1, 1)],
    ])
    def test_wide_span_products_cost_their_points(self, points):
        """Two points 10^9 apart along one axis of the plane or of space form
        a product set, whose halo is built from 1-D scans of its coordinates.
        With (1, 1) added the set is no product: the planar kernel scans the
        bands between its rows, reading only the columns that meet them."""
        E, alpha = LatticeSet.from_points(points), F(1, 2)
        tracemalloc.start()
        try:
            start = time.perf_counter()
            h, ratio = halo(E, alpha), halo_ratio(E, alpha)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert h.members == E and ratio == 1
        assert peak < 1 << 20
        assert elapsed < 0.1

    def test_oversized_halo_refused_before_it_is_built(self):
        """interval(60) at 1/10^7 would have 1,199,999,938 halo members; the
        runs count them in well under a millisecond, and `halo` refuses above
        HALO_MEMBER_LIMIT before it builds one.  The ratio stays countable."""
        E, alpha = interval(60), F(1, 10**7)
        assert halo_ratio(E, alpha) * len(E) == 1_199_999_938 > HALO_MEMBER_LIMIT
        assert one_sided_halo_ratio(E, alpha) * len(E) == 599_999_999
        start = time.perf_counter()
        for build in (halo, one_sided_halo):
            with pytest.raises(DomainError, match="1199999938|599999999"):
                build(E, alpha)
        assert time.perf_counter() - start < 0.1

    def test_cube_product_halo(self):
        """The 3x3x3 cube at 1/2 has 171 halo members (pinned from the
        pointwise n-D walk); as a product it takes milliseconds."""
        cube = LatticeSet.from_points(list(product(range(3), repeat=3)))
        start = time.perf_counter()
        h = halo(cube, F(1, 2))
        elapsed = time.perf_counter() - start
        assert len(h.members) == 171 and h.ratio == F(19, 3)
        assert elapsed < 0.05


class TestOneSided:
    def test_window_covering_block(self):
        assert one_sided_max(interval(60), (-59,)) == F(60, 119)

    def test_no_forward_window_meets_set(self):
        assert one_sided_max(lattice_set([5]), (7,)) == 0

    def test_singleton(self):
        assert one_sided_max(lattice_set([0]), (0,)) == 1

    def test_dimension_restriction(self):
        E2 = LatticeSet.from_points([(0, 0)])
        with pytest.raises(DomainError):
            one_sided_max(E2, (0, 0))

    def test_halo_ratio_block(self):
        assert one_sided_halo_ratio(interval(60), F(1, 2)) == F(119, 60)

    def test_halo_ratio_singleton(self):
        # m = -1 reaches exactly 1/2, strictness excludes it
        assert one_sided_halo_ratio(lattice_set([0]), F(1, 2)) == 1

    @pytest.mark.parametrize("alpha", [F(1, 2), F(2, 3), F(3, 7)])
    def test_block_closed_form(self, alpha):
        # halo is [-d, k-1] with d the largest solution of k/(k+d) > alpha
        p, q = alpha.numerator, alpha.denominator
        for k in range(1, 65):
            num = k * (q - p)
            d = (num - 1) // p
            assert one_sided_halo_ratio(interval(k), alpha) == F(k + d, k)


class TestWitnessFamilies:
    def test_interval_witness_small(self):
        assert interval_witness(2, F(1, 2)).value == 2

    def test_interval_witness_sixty(self):
        est = interval_witness(60, F(1, 2))
        assert est.value == F(89, 30)
        assert est.witness == interval(60)

    def test_interval_witness_near_one(self):
        # alpha >= k/(k+1): no external point crosses the threshold
        assert interval_witness(3, F(4, 5)).value == 1

    def test_interval_witness_monotone_toward_ceiling(self):
        alpha = F(1, 2)
        values = [interval_witness(k, alpha).value for k in (2, 4, 8, 16, 32, 64)]
        assert all(a <= b for a, b in zip(values, values[1:]))
        assert all(v <= 2 / alpha - 1 for v in values)

    def test_product_trivial(self):
        E = product_witness(lattice_set([0]), lattice_set([0]))
        assert E.points == ((0, 0),)

    def test_product_lower_bound_and_exact_value(self):
        E = product_witness(interval(10), lattice_set([0]))
        v = eval_strong_max(E, (12, 1))
        assert v >= F(10, 13) * F(1, 2)
        assert v == F(5, 13)  # computed by unpruned box enumeration

    def test_product_halo_dominates_componentwise(self):
        E = product_witness(lattice_set([0, 1]), lattice_set([0, 1]))
        r2 = halo_ratio(E, F(1, 4))
        r1 = halo_ratio(lattice_set([0, 1]), F(1, 2))
        assert r2 >= r1 * r1
        assert r2 == 16  # 2-D enumeration, cross-checked against profiles

    def test_product_requires_1d_factors(self):
        with pytest.raises(DomainError):
            product_witness(product_witness(interval(2), interval(2)), interval(2))
