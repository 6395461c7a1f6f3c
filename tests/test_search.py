"""Search strategies: exactness on small spaces, certification, determinism."""

import os
import random
import time
import tracemalloc
from fractions import Fraction as F
from itertools import product
from pathlib import Path

import pytest

from taublab import ergodic, search
from taublab.errors import DomainError, InputFormatError
from taublab.formats import sweep_to_csv
from taublab.lattice import (
    LatticeSet,
    halo_ratio,
    interval,
    interval_witness,
    lattice_set,
    one_sided_halo_ratio,
    product_witness,
)
from taublab.search import (
    SearchConfig,
    anneal_search,
    exhaustive_search,
    family_search,
    holder_modulus,
    reference_sweep,
    run_strategy,
    solyanik_probe,
    sweep,
)

from oracles import brute_exhaustive_search, brute_symmetry_classes

DATA = Path(__file__).parent / "data"
# the least maximiser at 1/3 over the 4x4 window, found by the translation-only walk
WITNESS_4X4 = ((0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2), (1, 3),
               (2, 0), (2, 1), (2, 2), (3, 1))


class TestExhaustive:
    def test_window_four(self):
        # the full block {0,1,2,3} wins: halo [-3, 6], ratio 5/2
        est = exhaustive_search(((0, 3),), F(1, 2))
        assert est.value == F(5, 2)
        assert est.witness.points == ((0,), (1,), (2,), (3,))
        assert est.mode == "exact"

    def test_singleton_window(self):
        # a lone point keeps its neighbours below threshold only for alpha >= 1/2
        assert exhaustive_search(((0, 0),), F(1, 2)).value == 1
        assert exhaustive_search(((0, 0),), F(2, 3)).value == 1
        assert exhaustive_search(((0, 0),), F(3, 7)).value == 3

    def test_window_twelve(self):
        est = exhaustive_search(((0, 11),), F(1, 2))
        assert est.value == F(17, 6)
        assert est.value < 3
        assert est.value >= exhaustive_search(((0, 3),), F(1, 2)).value

    def test_canonicalization_fixes_minima(self):
        est = exhaustive_search(((2, 5),), F(1, 2))
        # witness reported in translation-normal form
        assert min(p[0] for p in est.witness.points) == 0
        assert est.value == F(5, 2)

    def test_non_integer_or_reversed_window_refused(self):
        for window in (((0, 3.9),), ((0.5, 3),), ((3, 0),), ((0,),), ((0, 1, 2),), ((0, "3"),), ()):
            with pytest.raises(DomainError):
                exhaustive_search(window, F(1, 2))
        for window in (((0, 3.9),), ((3, 0),), ((0,),), ((0, "3"),)):
            with pytest.raises(DomainError):
                SearchConfig(window=window)

    def test_oversized_window_refused(self):
        with pytest.raises(DomainError):
            exhaustive_search(((0, 24),), F(1, 2))
        with pytest.raises(DomainError):
            exhaustive_search(((0, 4), (0, 4)), F(1, 2))

    @pytest.mark.parametrize(
        "window,one_sided",
        [(((0, 5),), False), (((3, 10),), True),
         (((0, 1), (0, 3)), False), (((-1, 0), (2, 3)), False)],
    )
    def test_witness_is_lex_least_maximiser(self, window, one_sided):
        """Every nonempty subset of the window, moved so its per-axis minima
        are 0: the densest halo ratio, and among its sets the least points."""
        points = list(product(*(range(lo, hi + 1) for lo, hi in window)))
        ratio = one_sided_halo_ratio if one_sided else halo_ratio
        for alpha in (F(1, 3), F(1, 2), F(3, 5), F(4, 5)):
            ratios = {}
            for mask in range(1, 1 << len(points)):
                chosen = [p for i, p in enumerate(points) if mask >> i & 1]
                lows = [min(p[i] for p in chosen) for i in range(len(window))]
                E = LatticeSet.from_points(tuple(c - lo for c, lo in zip(p, lows)) for p in chosen)
                ratios[E.points] = ratio(E, alpha)
            best = max(ratios.values())
            est = exhaustive_search(window, alpha, one_sided=one_sided)
            assert est.value == best
            assert est.witness.points == min(k for k, v in ratios.items() if v == best)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_matches_translation_class_oracle(self, dim):
        """Symmetry classes give the value and witness of the walk over every
        translation class, on random windows: 1-D up to 12 points on both
        sides, 2-D up to 3x4 (the oracle takes ~0.5 s per 3x4 threshold)."""
        rng = random.Random(20261019 + dim)
        if dim == 1:
            cases = [((n,), one_sided) for n in range(1, 13) for one_sided in (False, True)]
        else:
            shapes = [(1, 3), (3, 1), (2, 2), (2, 3), (3, 2), (2, 4), (3, 3), (4, 3)]
            cases = [(shape, False) for shape in shapes]
        for extents, one_sided in cases:
            lows = [rng.randint(-5, 5) for _ in extents]
            window = tuple((lo, lo + e - 1) for lo, e in zip(lows, extents))
            alpha = F(rng.randint(1, 19), 20)
            est = exhaustive_search(window, alpha, one_sided=one_sided)
            value, witness = brute_exhaustive_search(window, alpha, one_sided)
            assert (est.value, est.witness.points) == (value, witness), (window, one_sided, alpha)

    def test_one_sided_search_keeps_mirror_images_apart(self, monkeypatch):
        """A reflection changes the one-sided ratio, so a one-sided search
        scores a set and its mirror image apart: one halo per translation
        class.  (Its maximisers are intervals, which are their own mirror
        images, so the value alone cannot show a wrongly merged pair.)"""
        E, mirror = lattice_set([0, 2, 3, 4, 5, 9, 10]), lattice_set([0, 1, 5, 6, 7, 8, 10])
        assert one_sided_halo_ratio(E, F(3, 5)) == F(11, 7)
        assert one_sided_halo_ratio(mirror, F(3, 5)) == F(10, 7)
        scored = []
        kernel = search._halo_1d
        monkeypatch.setattr(search, "_halo_1d", lambda pts, *args, **kwargs: scored.append(pts)
                            or kernel(pts, *args, **kwargs))
        est = exhaustive_search(((0, 10),), F(3, 5), one_sided=True)
        assert (est.value, est.witness.points) == brute_exhaustive_search(((0, 10),), F(3, 5), True)
        assert len(scored) == 1 << 10
        assert E.points in scored and mirror.points in scored

    @pytest.mark.parametrize("extents", [(12,), (3, 4), (4, 3), (2, 2, 2), (1, 3, 3)])
    def test_one_halo_per_symmetry_class(self, extents, monkeypatch):
        scored = []
        monkeypatch.setattr(search, "_kernel_runs",
                            lambda pts, p, q: scored.append(pts) or [((), 0, 0)])
        exhaustive_search(tuple((0, e - 1) for e in extents), F(1, 3))
        assert len(scored) == brute_symmetry_classes(extents)
        assert all(min(pt[i] for pt in pts) == 0 for pts in scored for i in range(len(extents)))

    def test_witness_is_least_member_of_its_class(self, monkeypatch):
        """With a kernel that is invariant under the symmetries and favours
        sets with no two points on a row or column, the diagonal pairs of a
        2x2 window win; the class is opened by the mask of {(0,1), (1,0)},
        but the witness is the least member, {(0,0), (1,1)}."""
        def kernel(pts, p, q):
            spread = all(len({pt[i] for pt in pts}) == len(pts) for i in range(2))
            return [((), 1, len(pts) ** 2 if spread else len(pts))]

        monkeypatch.setattr(search, "_kernel_runs", kernel)
        est = exhaustive_search(((0, 1), (5, 6)), F(1, 2))
        assert (est.value, est.witness.points) == (2, ((0, 0), (1, 1)))

    def test_ties_that_cannot_win_are_not_offered(self, monkeypatch):
        """The class walk skips a tie unless the window's first |S| points,
        the least sorted |S|-subset, lie below the best key, so it builds no
        witness for it; 1-D windows of 2..12 points on both sides and three
        planar windows, at k/24."""
        offers, first = [], []

        class Checked(search.LexMax):
            def offer(self, num, den, key):
                if num * self.den == self.num * den:
                    offers.append(tuple(first[:len(key)]) < self.key)
                super().offer(num, den, key)

        monkeypatch.setattr(search, "LexMax", Checked)
        monkeypatch.setattr(ergodic, "LexMax", Checked)
        cases = [((n,), one_sided) for n in range(2, 13) for one_sided in (False, True)]
        cases += [((2, 2), False), ((2, 3), False), ((3, 3), False)]
        for extents, one_sided in cases:
            first[:] = product(*map(range, extents))
            for k in range(1, 24):
                exhaustive_search(tuple((0, e - 1) for e in extents), F(k, 24), one_sided=one_sided)
        assert offers and all(offers)

    def test_square_window_of_sixteen(self):
        # 57856 translation classes, 7625 symmetry classes; the
        # translation-only walk took about 20 s
        est = exhaustive_search(((0, 3), (0, 3)), F(1, 3))
        assert est.value == F(125, 11)
        assert est.witness.points == WITNESS_4X4

    def test_one_sided_window_must_be_1d(self):
        with pytest.raises(DomainError):
            exhaustive_search(((0, 1), (0, 1)), F(1, 2), one_sided=True)

    @pytest.mark.parametrize("alpha", [F(1, 2), F(2, 3)])
    def test_dominates_families_inside_the_window(self, alpha):
        ex = exhaustive_search(((0, 11),), alpha)
        assert ex.value >= family_search("intervals", alpha, max_block=12).value


class TestFamilies:
    def test_intervals(self):
        est = family_search("intervals", F(1, 2), max_block=60)
        assert est.value == F(89, 30)
        assert est.witness == interval(60)

    def test_products_beat_the_1d_ceiling(self):
        est = family_search("products", F(1, 4), dim=2, max_block=12)
        assert est.value > 7

    def test_staircases(self):
        est = family_search("staircases", F(1, 16), dim=2, max_block=4)
        # one-point staircase dominates at this depth; the 4-step one gives 83
        assert est.value == 121
        four = LatticeSet.from_points([(i, i) for i in range(4)])
        assert halo_ratio(four, F(1, 16)) == 83

    @pytest.mark.parametrize("short, strategy, dim", [
        ("intervals", "interval-family", 1), ("boxes", "box-family", 2),
        ("products", "product-family", 2), ("staircases", "staircase-family", 2),
    ])
    def test_short_name_is_its_strategy(self, short, strategy, dim):
        by_short = family_search(short, F(1, 3), dim=dim, max_block=3)
        assert by_short.strategy == strategy
        assert by_short == family_search(strategy, F(1, 3), dim=dim, max_block=3)

    def test_family_shape_errors(self):
        with pytest.raises(DomainError):
            family_search("staircases", F(1, 2), dim=1)
        with pytest.raises(DomainError):
            family_search("intervals", F(1, 2), max_block=0)
        with pytest.raises(DomainError):
            family_search("nonsense", F(1, 2))
        with pytest.raises(DomainError):
            family_search("boxes", F(1, 2), dim=0)

    @pytest.mark.parametrize("family, dim, max_block", [
        ("box-family", 1, 12), ("box-family", 2, 6), ("box-family", 3, 3),
        ("product-family", 2, 4), ("product-family", 2, 10), ("interval-family", 1, 20),
    ])
    def test_matches_a_plain_loop_over_the_members(self, family, dim, max_block):
        """One ratio per sorted side tuple gives the value and witness that
        scoring every member does."""
        rng = random.Random(dim * 100 + max_block)
        for alpha in [F(1, 2), F(1, 9), F(5, 9), F(rng.randint(1, 19), 20)]:
            value, witness = -1, None
            for E in search._family_members(family, dim, max_block):
                r = halo_ratio(E, alpha)
                if r > value or (r == value and E.points < witness.points):
                    value, witness = r, E
            est = family_search(family, alpha, dim=dim, max_block=max_block)
            assert (est.value, est.witness) == (value, witness)
            assert (est.strategy, est.mode) == (family, "exact")

    def test_box_members_are_the_product_members(self):
        boxes = search._family_members("box-family", 2, 5)
        assert boxes == search._family_members("product-family", 2, 5)
        assert boxes == [product_witness(interval(k), interval(l))
                         for k in range(1, 6) for l in range(1, 6)]
        assert search._family_members("box-family", 3, 2)[-1] == LatticeSet.from_points(
            product(range(2), repeat=3))

    def test_one_ratio_per_sorted_side_tuple(self, monkeypatch):
        calls = []
        monkeypatch.setattr(search, "halo_ratio", lambda E, a: calls.append(E) or halo_ratio(E, a))
        family_search("products", F(5, 9), dim=2, max_block=10)
        assert len(calls) == 55
        calls.clear()
        family_search("boxes", F(1, 3), dim=3, max_block=3)
        assert len(calls) == 10

    def test_oversized_family_refused_before_building(self, monkeypatch):
        """A family's points are counted in closed form, (m(m+1)/2)^dim for
        boxes and m(m+1)/2 for intervals and staircases, and a family over
        HALO_MEMBER_LIMIT points is refused before any member is built."""
        for family, dim, max_block in [("box-family", 1, 5), ("box-family", 3, 3),
                                       ("product-family", 2, 4), ("staircase-family", 2, 7)]:
            members = search._family_members(family, dim, max_block)
            assert sum(map(len, members)) == (max_block * (max_block + 1) // 2) ** (
                dim if family != "staircase-family" else 1)
        monkeypatch.setattr(search, "LatticeSet", None)  # building a member would fail
        with pytest.raises(DomainError, match=str(1830**3)):
            family_search("boxes", F(1, 2), dim=3)
        monkeypatch.setattr(search, "HALO_MEMBER_LIMIT", 36)
        with pytest.raises(DomainError, match="216 points"):
            family_search("boxes", F(1, 2), dim=3, max_block=3)
        for family, dim, max_block, size in [("products", 2, 4, 100), ("intervals", 1, 9, 45),
                                             ("staircases", 2, 9, 45)]:
            with pytest.raises(DomainError, match=f" {size} points"):
                family_search(family, F(1, 2), dim=dim, max_block=max_block)
        monkeypatch.undo()
        monkeypatch.setattr(search, "HALO_MEMBER_LIMIT", 36)  # 36 points pass
        assert family_search("products", F(1, 2), dim=2, max_block=3).mode == "exact"
        assert family_search("intervals", F(1, 2), max_block=8).mode == "exact"

    @pytest.mark.parametrize("kwargs", [{"max_block": 2.5}, {"dim": 2.0}, {"max_block": "3"}])
    def test_family_refuses_non_integer_arguments(self, kwargs):
        with pytest.raises(DomainError):
            family_search("products", F(1, 2), **{"dim": 2, **kwargs})


class TestAnneal:
    def test_config_refuses_no_block_or_negative_budget(self):
        for bad in ({"max_block": 0}, {"budget": -1}):
            with pytest.raises(DomainError):
                SearchConfig(strategy="anneal", **bad)

    def test_config_refuses_non_integer_sizes(self):
        for bad in ({"budget": "3"}, {"budget": 2.0}, {"max_block": 2.5}, {"dim": "1"}):
            with pytest.raises(DomainError):
                SearchConfig(strategy="anneal", **bad)

    def test_config_refuses_non_integer_seeds(self):
        for bad in ({"rng_seed": "3"}, {"rng_seed": 1.5}, {"anneal_seed_block": 2.5},
                    {"anneal_seed_block": "2"}):
            with pytest.raises(DomainError):
                SearchConfig(strategy="anneal", **bad)
        assert SearchConfig(strategy="anneal", rng_seed=3, anneal_seed_block=None).rng_seed == 3

    def test_budget_zero_returns_seed(self):
        cfg = SearchConfig(
            dim=1, window=((0, 23),), strategy="anneal", rng_seed=1, budget=0,
            anneal_seed_block=8,
        )
        est = anneal_search(cfg, F(1, 2))
        assert est.value == interval_witness(8, F(1, 2)).value

    def test_seeded_run_dominates_exhaustive_twelve(self):
        cfg = SearchConfig(
            dim=1, window=((0, 23),), strategy="anneal", rng_seed=42, budget=10_000,
            max_block=24,
        )
        est = anneal_search(cfg, F(1, 2))
        assert est.value == F(35, 12)  # golden: seeded run settles on the full block
        assert est.value >= exhaustive_search(((0, 11),), F(1, 2)).value

    def test_dominates_population_seeds(self):
        cfg = SearchConfig(
            dim=1, window=((0, 15),), strategy="anneal", rng_seed=7, budget=200,
            max_block=16,
        )
        est = anneal_search(cfg, F(2, 3))
        assert est.value >= family_search("intervals", F(2, 3), max_block=16).value

    def test_planar_run_dominates_product_family(self):
        cfg = SearchConfig(
            dim=2, window=((0, 5), (0, 5)), strategy="anneal", rng_seed=7, budget=400,
            max_block=6,
        )
        est = anneal_search(cfg, F(9, 10))
        assert est.value >= family_search("products", F(9, 10), dim=2, max_block=6).value
        assert est.value == F(22, 21)  # golden: a non-product set edges past ratio 1

    @pytest.mark.parametrize("window", [((0, 10**12 - 1),), ((0, 10**6 - 1), (-10**6, -1))])
    def test_huge_window_is_not_listed(self, window):
        """Moves are drawn by index into the window, so a window of 10^12
        points costs what a small one does: well under a second and a megabyte."""
        cfg = SearchConfig(dim=len(window), window=window, strategy="anneal", rng_seed=5,
                           budget=10, max_block=3)
        tracemalloc.start()
        try:
            start = time.perf_counter()
            est = anneal_search(cfg, F(1, 2))
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 0.5 and peak < 1 << 20
        assert halo_ratio(est.witness, F(1, 2)) == est.value

    @pytest.mark.parametrize("window, alpha, value, witness", [
        (((0, 2), (0, 4)), F(3, 5), F(37, 11),
         ((0, 0), (0, 1), (0, 2), (0, 3), (0, 4), (1, 0), (1, 1), (1, 2), (1, 3), (1, 4), (2, 3))),
        (((-1, 3), (2, 4)), F(2, 3), F(31, 12),
         ((-1, 3), (-1, 4), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 2), (2, 3),
          (2, 4), (3, 3))),
    ])
    def test_draws_follow_row_major_order(self, window, alpha, value, witness):
        """Golden runs on windows that are not squares, recorded when every move
        indexed a list of the window's points in row-major order: a draw must
        still name the same point."""
        cfg = SearchConfig(dim=len(window), window=window, strategy="anneal", rng_seed=7,
                           budget=300, max_block=2)
        est = anneal_search(cfg, alpha)
        assert (est.value, est.witness.points) == (value, witness)

    def test_deterministic(self):
        cfg = SearchConfig(
            dim=1, window=((0, 15),), strategy="anneal", rng_seed=11, budget=400,
        )
        a = anneal_search(cfg, F(1, 2))
        b = anneal_search(cfg, F(1, 2))
        assert a == b

    def test_certified(self):
        cfg = SearchConfig(dim=1, window=((0, 15),), strategy="anneal", rng_seed=3, budget=300)
        est = anneal_search(cfg, F(3, 5))
        assert halo_ratio(est.witness, F(3, 5)) == est.value


class TestSweep:
    def grid(self):
        return [F(k, 10) for k in range(1, 10)]

    def test_envelope_monotone_and_below_ceiling(self):
        cfg = SearchConfig(dim=1, window=((0, 11),), strategy="interval-family", max_block=40)
        result = sweep(self.grid(), cfg)
        values = result.values()
        assert all(a >= b for a, b in zip(values, values[1:]))
        for alpha, est in result.entries:
            assert est.value <= 2 / alpha - 1

    def test_one_sided_envelope_below_ceiling(self):
        cfg = SearchConfig(
            dim=1, window=((0, 11),), strategy="interval-family", max_block=40,
            one_sided=True,
        )
        result = sweep(self.grid(), cfg)
        for alpha, est in result.entries:
            assert est.value <= 1 / alpha

    def test_single_point_grid_equals_single_search(self):
        cfg = SearchConfig(dim=1, window=((0, 7),), strategy="anneal", rng_seed=42,
                           budget=500, max_block=8)
        result = sweep([F(1, 2)], cfg)
        est = run_strategy(cfg, F(1, 2))
        assert result.entries[0][1].value == est.value

    def test_certificates_recompute(self):
        cfg = SearchConfig(dim=1, window=((0, 11),), strategy="interval-family", max_block=24)
        result = sweep([F(1, 4), F(1, 2), F(3, 4)], cfg)
        for alpha, est in result.entries:
            assert halo_ratio(est.witness, alpha) == est.value
        one = SearchConfig(dim=1, window=((0, 11),), strategy="interval-family",
                           max_block=24, one_sided=True)
        for alpha, est in sweep([F(1, 4), F(3, 4)], one).entries:
            assert one_sided_halo_ratio(est.witness, alpha) == est.value

    def test_grid_validation(self):
        cfg = SearchConfig()
        with pytest.raises(DomainError):
            sweep([], cfg)
        with pytest.raises(DomainError):
            sweep([F(1, 2), F(1, 2)], cfg)
        with pytest.raises(DomainError):
            sweep([F(1, 2), F(1, 4)], cfg)
        with pytest.raises(DomainError):
            sweep([F(1, 2), F(3, 2)], cfg)

    def test_golden_intervals_csv(self):
        cfg = SearchConfig(dim=1, window=((0, 11),), strategy="interval-family", max_block=40)
        got = sweep_to_csv(sweep(self.grid(), cfg))
        assert got == (DATA / "golden_sweep_intervals_1d.csv").read_text()

    def test_golden_one_sided_csv(self):
        cfg = SearchConfig(dim=1, window=((0, 11),), strategy="interval-family",
                           max_block=40, one_sided=True)
        got = sweep_to_csv(sweep(self.grid(), cfg))
        assert got == (DATA / "golden_sweep_one_sided_1d.csv").read_text()

    def test_golden_anneal_csv(self):
        cfg = SearchConfig(dim=1, window=((0, 7),), strategy="anneal", rng_seed=42,
                           budget=500, max_block=8)
        got = sweep_to_csv(sweep([F(1, 2)], cfg))
        assert got == (DATA / "golden_sweep_anneal_point.csv").read_text()

    def test_thread_env_does_not_change_bytes(self, monkeypatch):
        cfg = SearchConfig(dim=1, window=((0, 11),), strategy="interval-family", max_block=24)
        serial = sweep_to_csv(sweep(self.grid(), cfg))
        monkeypatch.setenv("TAUBLAB_THREADS", "4")
        threaded = sweep_to_csv(sweep(self.grid(), cfg))
        assert serial == threaded


class TestProbes:
    def exact_curve(self, grid):
        return reference_sweep([(a, 2 / a - 1) for a in grid])

    def test_modulus_on_exact_curve(self):
        report = holder_modulus(self.exact_curve([F(1, 4), F(1, 2), F(3, 4)]), F(1))
        assert report.max_quotient == 16
        assert report.argmax == (F(1, 4), F(1, 2))
        assert report.exploratory

    def test_modulus_constant_curve(self):
        flat = reference_sweep([(a, F(2)) for a in (F(1, 4), F(1, 2), F(3, 4))])
        assert holder_modulus(flat, F(1)).max_quotient == 0

    def test_modulus_fractional_exponent(self):
        report = holder_modulus(self.exact_curve([F(1, 4), F(1, 2), F(3, 4)]), F(1, 2))
        assert isinstance(report.max_quotient, float)

    def test_reference_sweep_refuses_float_values(self):
        with pytest.raises(DomainError):
            reference_sweep([(F(1, 4), 0.1), (F(1, 2), F(3))])
        exact = reference_sweep([(F(1, 4), F(1, 10)), (F(1, 2), 3)])
        assert [est.value for _, est in exact.entries] == [F(1, 10), F(3)]

    def test_reference_sweep_reads_strings_as_exact_rationals(self):
        with pytest.raises(InputFormatError):
            reference_sweep([(F(1, 4), "0.1"), (F(1, 2), F(3))])
        exact = reference_sweep([(F(1, 4), "1/10"), (F(1, 2), "3")])
        assert [est.value for _, est in exact.entries] == [F(1, 10), F(3)]

    def test_modulus_refuses_float_exponent(self):
        with pytest.raises(DomainError):
            holder_modulus(self.exact_curve([F(1, 4), F(1, 2), F(3, 4)]), 0.1)
        assert holder_modulus(self.exact_curve([F(1, 4), F(1, 2), F(3, 4)]), "1/10").exponent == F(1, 10)

    def test_modulus_needs_three_points(self):
        with pytest.raises(DomainError):
            holder_modulus(self.exact_curve([F(1, 4), F(1, 2)]), F(1))

    def test_probe_recovers_unit_exponent(self):
        grid = [F(90 + i, 100) for i in range(10)]
        report = solyanik_probe(self.exact_curve(grid))
        assert abs(report.fitted_exponent - 1) < 1e-9
        assert max(abs(r) for r in report.residuals) < 1e-9
        assert report.exploratory

    def test_probe_reads_tail_from_as_an_exact_rational(self):
        """On a grid of k/100 the tail past 7/10 holds 29 points; a float 0.7
        names a binary fraction below 7/10 and would take 30, so it is
        refused, and the string "7/10" is read as the rational."""
        curve = self.exact_curve([F(k, 100) for k in range(50, 100)])
        assert solyanik_probe(curve, F(7, 10)).points_used == 29
        assert solyanik_probe(curve, "7/10").points_used == 29
        with pytest.raises(DomainError):
            solyanik_probe(curve, 0.7)

    def test_probe_needs_tail_points(self):
        grid = [F(1, 4), F(1, 2), F(91, 100), F(92, 100)]
        with pytest.raises(DomainError):
            solyanik_probe(self.exact_curve(grid))
