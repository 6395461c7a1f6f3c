"""Invariant and oracle-equivalence tests for the lattice operators."""

import random
from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from taublab import lattice
from taublab.lattice import (
    LatticeSet,
    eval_strong_max,
    halo,
    halo_ratio,
    one_sided_halo,
    one_sided_halo_ratio,
    one_sided_max,
    product_witness,
    strong_max_witness,
)

from oracles import (brute_halo, brute_line_cover, brute_one_sided_halo, brute_one_sided_max,
                     brute_strong_max)

sets_1d = st.frozensets(st.integers(-6, 6), min_size=1, max_size=6).map(
    lambda xs: LatticeSet.from_points([(x,) for x in xs])
)
sets_2d = st.frozensets(
    st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=1, max_size=5
).map(LatticeSet.from_points)
alphas = st.fractions(min_value=F(1, 12), max_value=F(11, 12), max_denominator=12)


@given(sets_1d | sets_2d, st.data())
@settings(max_examples=60, deadline=None)
def test_range_and_attainment(E, data):
    point = tuple(
        data.draw(st.integers(-8, 8), label=f"coord{i}") for i in range(E.dim)
    )
    value = eval_strong_max(E, point)
    assert 0 <= value <= 1
    assert (value == 1) == (point in E)


@given(sets_1d | sets_2d, alphas, alphas)
@settings(max_examples=40, deadline=None)
def test_halo_nesting(E, a1, a2):
    lo, hi = min(a1, a2), max(a1, a2)
    if lo == hi:
        return
    assert set(halo(E, hi).members.points) <= set(halo(E, lo).members.points)


@given(sets_1d, alphas, st.integers(-20, 20))
@settings(max_examples=40, deadline=None)
def test_translation_equivariance(E, alpha, shift):
    moved = halo(E.translate((shift,)), alpha).members
    assert moved == halo(E, alpha).members.translate((shift,))


@given(sets_2d, alphas)
@settings(max_examples=25, deadline=None)
def test_reflection_equivariance(E, alpha):
    assert halo(E.negate(), alpha).members == halo(E, alpha).members.negate()


@given(sets_1d, alphas)
@settings(max_examples=50, deadline=None)
def test_one_dimensional_ceiling(E, alpha):
    assert halo_ratio(E, alpha) <= 2 / alpha - 1


@given(sets_1d, alphas)
@settings(max_examples=50, deadline=None)
def test_one_sided_ceiling(E, alpha):
    assert one_sided_halo_ratio(E, alpha) <= 1 / alpha


def all_nonempty_subsets(points):
    points = list(points)
    for mask in range(1, 1 << len(points)):
        yield [points[i] for i in range(len(points)) if mask >> i & 1]


def test_ceiling_exhaustive_small_window():
    for pts in all_nonempty_subsets(range(6)):
        E = LatticeSet.from_points([(x,) for x in pts])
        for alpha in (F(1, 4), F(1, 2), F(2, 3), F(3, 4)):
            assert halo_ratio(E, alpha) <= 2 / alpha - 1
            assert one_sided_halo_ratio(E, alpha) <= 1 / alpha


def test_oracle_equivalence_1d_exhaustive():
    """Pruned evaluation equals the unpruned brute force on every nonempty
    subset of {0..5} and every probe point in a dilated range."""
    for pts in all_nonempty_subsets(range(6)):
        E = LatticeSet.from_points([(x,) for x in pts])
        for m in range(-3, 9):
            assert eval_strong_max(E, (m,)) == brute_strong_max(E.points, (m,), pad=3)


def test_oracle_equivalence_2d_sampled():
    """Same check in the plane: exhaustive over a 2x3 window, seeded samples
    from the 6x6 window (the full 2^36 family is out of reach)."""
    window = [(x, y) for x in range(2) for y in range(3)]
    for pts in all_nonempty_subsets(window):
        E = LatticeSet.from_points(pts)
        for m in [(-1, -1), (0, 0), (2, 1), (1, 4), (-2, 3)]:
            assert eval_strong_max(E, m) == brute_strong_max(E.points, m, pad=2)
    rng = random.Random(20240817)
    pool = [(x, y) for x in range(6) for y in range(6)]
    for _ in range(25):
        E = LatticeSet.from_points(rng.sample(pool, rng.randint(1, 6)))
        m = (rng.randint(-3, 8), rng.randint(-3, 8))
        assert eval_strong_max(E, m) == brute_strong_max(E.points, m, pad=2)


def test_one_sided_matches_brute():
    rng = random.Random(5)
    for _ in range(40):
        xs = sorted(rng.sample(range(-6, 7), rng.randint(1, 5)))
        E = LatticeSet.from_points([(x,) for x in xs])
        m = rng.randint(-9, 9)
        assert one_sided_max(E, (m,)) == brute_one_sided_max(xs, m)


def test_halo_agrees_with_pointwise_eval_2d():
    """The 2-D level-set sweep must equal the membership test point by point
    (the membership test itself is oracle-checked above), on sets from a
    7 x 5 window and on sets whose rows and columns lie apart by gaps."""
    rng = random.Random(99)
    for i in range(60):
        if i < 30:
            pool = [(x, y) for x in range(-3, 4) for y in range(-2, 3)]
        else:
            pool = list(product(gapped_line(rng, rng.randint(2, 4)), gapped_line(rng, rng.randint(2, 4))))
        E = LatticeSet.from_points(rng.sample(pool, rng.randint(1, min(6, len(pool)))))
        alpha = F(rng.randint(1, 11), 12)
        got = set(halo(E, alpha).members.points)
        dil = -(-len(E) * alpha.denominator // alpha.numerator)
        bb = E.bounding_box()
        want = {
            m
            for m in product(
                *(range(bb.lo[i] - dil, bb.hi[i] + dil + 1) for i in range(2))
            )
            if eval_strong_max(E, m) > alpha
        }
        assert got == want


def test_halo_agrees_with_pointwise_eval_3d():
    E = LatticeSet.from_points([(0, 0, 0), (1, 0, 1), (0, 1, 1)])
    alpha = F(2, 3)
    got = set(halo(E, alpha).members.points)
    dil = -(-len(E) * alpha.denominator // alpha.numerator)
    want = {
        m
        for m in product(range(-dil, 2 + dil), repeat=3)
        if eval_strong_max(E, m) > alpha
    }
    assert got == want


def pointwise_halo(E, alpha):
    """The halo by evaluating the operator at every point of the bounding box
    dilated by ceil(#E / alpha), which holds every halo member."""
    dil = -(-len(E) * alpha.denominator // alpha.numerator)
    bb = E.bounding_box()
    box = product(*(range(bb.lo[i] - dil, bb.hi[i] + dil + 1) for i in range(E.dim)))
    return {m for m in box if eval_strong_max(E, m) > alpha}


def test_halo_agrees_with_pointwise_eval_1d():
    rng = random.Random(41)
    for _ in range(60):
        E = LatticeSet.from_points([(x,) for x in rng.sample(range(-5, 6), rng.randint(1, 6))])
        alpha = F(rng.randint(1, 11), 12)
        assert set(halo(E, alpha).members.points) == pointwise_halo(E, alpha)


def test_halo_agrees_with_pointwise_eval_2d_single_row_or_column():
    """Planar sets whose bounding box is one row or one column: the row band
    is a single row, or every band row holds one column."""
    rng = random.Random(43)
    for _ in range(40):
        xs = rng.sample(range(-4, 5), rng.randint(1, 5))
        at = rng.randint(-2, 2)
        pts = [(at, x) for x in xs] if rng.random() < 0.5 else [(x, at) for x in xs]
        E = LatticeSet.from_points(pts)
        alpha = F(rng.randint(1, 11), 12)
        assert set(halo(E, alpha).members.points) == pointwise_halo(E, alpha)


def gapped_line(rng, k):
    """k sorted coordinates, adjacent or apart by 1, 2 or 6 empty cells."""
    xs = [rng.randint(-3, 3)]
    for _ in range(k - 1):
        xs.append(xs[-1] + rng.choice((1, 1, 2, 3, 7)))
    return xs


def product_points(runs):
    return [pre + (c,) for pre, a, b in runs for c in range(a, b + 1)]


def test_product_kernel_matches_planar_kernel():
    """The product kernel against the row-band kernel, both called directly,
    on products of gapped 1-D sets: 1 x k, k x 1 and 1 x 1 among them, at
    thresholds k/20 and 1/q down to 1/30.  Single rows and single columns are
    products, so the halo never sends them to the row-band kernel: this test
    keeps its handling of them checked."""
    rng = random.Random(1111)
    for i in range(400):
        rows, cols = ((1, rng.randint(1, 5)), (rng.randint(1, 5), 1), (1, 1),
                      (rng.randint(2, 5), rng.randint(2, 5)))[i % 4]
        axes = [gapped_line(rng, rows), gapped_line(rng, cols)]
        E = LatticeSet.from_points(list(product(*axes)))
        alpha = F(rng.randint(1, 19), 20) if i % 2 else F(1, rng.randint(2, 30))
        p, q = alpha.numerator, alpha.denominator
        assert lattice._halo_product(axes, p, q) == lattice._halo_2d(E.points, p, q)


def test_product_kernel_matches_pointwise_halos_3d():
    """3-D products up to 3 x 3 x 2 with gaps, against the pointwise n-D walk
    (`exceeds` at every point of the pruned region); a gapped pair, whose
    recursion passes a gap on the first axis, against the brute-force halo.
    The brute force takes seconds per point pair in 3-D, so larger products
    are left to the pointwise walk."""
    rng = random.Random(1112)
    for _ in range(8):
        sizes = [rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 2)]
        rng.shuffle(sizes)
        axes = [gapped_line(rng, k) for k in sizes]
        E = LatticeSet.from_points(list(product(*axes)))
        alpha = F(rng.randint(9, 11), 12)
        p, q = alpha.numerator, alpha.denominator
        assert product_points(lattice._halo_product(axes, p, q)) == product_points(
            lattice._halo_nd(E, p, q))
    axes = [[0, 2], [0], [0]]
    assert product_points(lattice._halo_product(axes, 3, 4)) == brute_halo(
        list(product(*axes)), F(3, 4))


def test_sparse_lines_match_brute_halos():
    """The 1-D halos read only the points of E and the gaps between them.
    Each set has one gap of 5..40 cells among gaps of 1..3, at thresholds down
    to 1/10, so gaps are covered whole, only near their ends, or not at all."""
    rng = random.Random(1010)
    for _ in range(20):
        k = rng.randint(2, 8)
        gaps = [rng.randint(1, 3) for _ in range(k - 2)]
        gaps.insert(rng.randint(0, k - 2), rng.randint(5, 40 - 4 * (k - 2)))
        xs = [sum(gaps[:i]) for i in range(k)]
        alpha = F(1, rng.randint(2, 10)) if rng.random() < 0.5 else F(rng.randint(1, 9), 10)
        E = LatticeSet.from_points([(x,) for x in xs])
        assert list(halo(E, alpha).members.points) == brute_halo(E.points, alpha)
        assert [m for (m,) in one_sided_halo(E, alpha).members.points] == brute_one_sided_halo(xs, alpha)


def test_point_cover_matches_brute_line_cover():
    """The points-only line scan with a weight per point, as the planar
    kernel's bands give it, against every run summed: weights in
    (-penalty, 3q], gaps of 0..40 empty cells, two-sided and one-sided.
    Negative weights leave some points out of every run; the test counts
    that it met such lines."""
    rng = random.Random(1212)
    left_out = 0
    for i in range(400):
        q, penalty = rng.randint(1, 6), rng.randint(1, 8)
        xs = [rng.randint(-5, 5)]
        for _ in range(rng.randint(0, 5)):
            xs.append(xs[-1] + 1 + rng.choice((rng.randint(0, 3), rng.randint(0, 40))))
        ws = [rng.randint(1 - penalty, 3 * q) for _ in xs]
        two_sided = i % 2 == 0
        want = brute_line_cover(xs, ws, penalty, two_sided)
        got = lattice._point_cover(xs, ws, penalty, two_sided)
        assert all(a <= b for a, b in got)
        assert all(b + 1 < a for (_, b), (a, _) in zip(got, got[1:]))  # disjoint, not touching
        assert [c for a, b in got for c in range(a, b + 1)] == want
        left_out += not set(xs) <= set(want)
    assert left_out >= 50


def test_half_covered_gap():
    """At 1/4 the best run ending at 0 and the one starting at 7 are worth 3
    each against a gap of 6 empty cells: two cells at each end are covered."""
    E = LatticeSet.from_points([(0,), (7,)])
    h = halo(E, F(1, 4))
    assert [m for (m,) in h.members.points] == [-2, -1, 0, 1, 2, 5, 6, 7, 8, 9]
    assert h.ratio == halo_ratio(E, F(1, 4)) == 5
    assert [m for (m,) in one_sided_halo(E, F(1, 4)).members.points] == [-2, -1, 0, 5, 6, 7]


def test_ratios_count_the_halo_that_halo_builds():
    """halo_ratio and one_sided_halo_ratio count the kernels' runs without
    building points; each must equal the ratio of the halo built from them.
    The 1-D sets include wide spans and thresholds down to 1/1000, where the
    reaches beyond the span hold most of the halo; the 2-D sets include single
    rows and columns, and small thresholds whose boxes leave the row band."""
    rng = random.Random(808)
    cases = []
    for _ in range(80):
        width = rng.choice((3, 12, 60))
        xs = rng.sample(range(-width, width), rng.randint(1, 6))
        q = rng.choice((2, 12, 100, 1000))
        cases.append((LatticeSet.from_points([(x,) for x in xs]), F(rng.randint(1, q - 1), q)))
    for _ in range(60):
        if rng.random() < 0.3:
            xs, at = rng.sample(range(-4, 5), rng.randint(1, 4)), rng.randint(-2, 2)
            pts = [(at, x) for x in xs] if rng.random() < 0.5 else [(x, at) for x in xs]
        else:
            pool = [(x, y) for x in range(-3, 4) for y in range(-3, 4)]
            pts = rng.sample(pool, rng.randint(1, 5))
        q = rng.choice((12, 40))
        cases.append((LatticeSet.from_points(pts), F(rng.randint(1, q - 1), q)))
    for _ in range(12):
        pool = list(product(range(3), repeat=3))
        cases.append((LatticeSet.from_points(rng.sample(pool, rng.randint(1, 3))),
                      F(rng.randint(4, 11), 12)))
    for E, alpha in cases:
        assert halo_ratio(E, alpha) == halo(E, alpha).ratio
        if E.dim == 1:
            assert one_sided_halo_ratio(E, alpha) == one_sided_halo(E, alpha).ratio


def brute_lex_least_box(points, m):
    """Lex-least (lo, hi) among the densest boxes containing m whose faces sit
    at coordinates of E or of m, by listing every such box."""
    faces = [sorted({p[i] for p in points} | {m[i]}) for i in range(len(m))]
    boxes = {}
    for lo in product(*([c for c in f if c <= v] for f, v in zip(faces, m))):
        for hi in product(*([c for c in f if c >= v] for f, v in zip(faces, m))):
            vol = 1
            for a, b in zip(lo, hi):
                vol *= b - a + 1
            cnt = sum(all(a <= c <= b for a, c, b in zip(lo, p, hi)) for p in points)
            boxes[lo, hi] = F(cnt, vol)
    best = max(boxes.values())
    return best, min(key for key, v in boxes.items() if v == best)


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_witness_box_is_lex_least_maximiser(dim):
    rng = random.Random(40 + dim)
    for _ in range(100):
        E = LatticeSet.from_points(
            {tuple(rng.randint(-2, 2) for _ in range(dim)) for _ in range(rng.randint(1, 5))}
        )
        for _ in range(3):
            m = tuple(rng.randint(-3, 3) for _ in range(dim))
            value, box = strong_max_witness(E, m)
            assert (value, (box.lo, box.hi)) == brute_lex_least_box(E.points, m)


@given(sets_1d, sets_1d)
@settings(max_examples=25, deadline=None)
def test_product_value_factorizes(E1, E2):
    """Every planar box is a product of intervals, so the value at a product
    set is the product of the 1-D values."""
    E = product_witness(E1, E2)
    for m1, m2 in [(0, 0), (2, -1), (-3, 4)]:
        assert eval_strong_max(E, (m1, m2)) == eval_strong_max(E1, (m1,)) * eval_strong_max(
            E2, (m2,)
        )


@given(sets_1d, alphas)
@settings(max_examples=30, deadline=None)
def test_everything_is_exact_rational(E, alpha):
    value = eval_strong_max(E, (1,))
    ratio = halo_ratio(E, alpha)
    assert isinstance(value, F) and isinstance(ratio, F)
