"""Discrete strong and one-sided maximal operators on the integer lattice.

Everything here is exact.  Densities are counts divided by box volumes,
compared by integer cross-multiplication; level sets use strictly-greater
comparison against a rational threshold.  No float enters any decision.

The averaging windows of the strong operator are the lattice traces of open
axis-parallel rectangles containing the origin.  Anchored at a point m, those
traces are exactly the integer boxes [lo, hi] with lo <= m <= hi
coordinatewise, so all suprema below are finite maxima over integer boxes:

* a maximising box for the value at m can be taken with every face touching
  a coordinate of E or of m itself (pulling a face inward past empty slabs
  strictly increases density), and
* a point m can only belong to the level set {max > p/q} if some box B
  containing m satisfies q * #(E in B) > p * #B, which forces #B < #E * q/p
  and B to meet E; this gives explicit finite search regions for halos.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, prod

from .errors import DomainError
from .estimate import TauberianEstimate
from .rational import LexMax, require_alpha, require_integers

Point = tuple[int, ...]
# A halo is returned by its kernel as sorted disjoint runs along the last axis:
# (prefix, a, b) stands for the points prefix + (c,) with a <= c <= b.
Run = tuple[Point, int, int]

# `halo` and `one_sided_halo` count their runs first and refuse to build more
# members than this (a 1-D member costs about 90 bytes, so the limit is near a
# gigabyte); the ratio functions count without building, unlimited.
HALO_MEMBER_LIMIT = 10**7


def _as_point(coords) -> Point:
    pt = require_integers(coords, "lattice coordinates")
    if not pt:
        raise DomainError("a lattice point needs at least one coordinate")
    return pt


@dataclass(frozen=True)
class LatticeSet:
    """A finite subset of Z^dim, stored deduplicated in lexicographic order."""

    dim: int
    points: tuple[Point, ...]

    @classmethod
    def from_points(cls, points, dim: int | None = None) -> "LatticeSet":
        pts = sorted({_as_point(p) for p in points})
        if pts:
            d = len(pts[0])
            if any(len(p) != d for p in pts):
                raise DomainError("all points of a lattice set must share one dimension")
            if dim is not None and dim != d:
                raise DomainError(f"points have dimension {d}, expected {dim}")
            dim = d
        elif dim is None:
            raise DomainError("an empty lattice set needs an explicit dimension")
        if dim < 1:
            raise DomainError("lattice dimension must be >= 1")
        return cls(dim=dim, points=tuple(pts))

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __contains__(self, point) -> bool:
        pt = require_integers(point, "lattice coordinates")
        i = bisect_left(self.points, pt)
        return i < len(self.points) and self.points[i] == pt

    def bounding_box(self) -> "IntBox":
        if not self.points:
            raise DomainError("empty lattice set has no bounding box")
        lo = tuple(min(p[i] for p in self.points) for i in range(self.dim))
        hi = tuple(max(p[i] for p in self.points) for i in range(self.dim))
        return IntBox(lo=lo, hi=hi)

    def translate(self, vector) -> "LatticeSet":
        v = _as_point(vector)
        if len(v) != self.dim:
            raise DomainError("translation vector dimension mismatch")
        return LatticeSet(
            dim=self.dim,
            points=tuple(sorted(tuple(c + d for c, d in zip(p, v)) for p in self.points)),
        )

    def negate(self) -> "LatticeSet":
        return LatticeSet(
            dim=self.dim,
            points=tuple(sorted(tuple(-c for c in p) for p in self.points)),
        )


def lattice_set(points, dim: int | None = None) -> LatticeSet:
    """Convenience constructor; 1-D points may be given as bare integers."""
    pts = [(p,) if isinstance(p, int) else p for p in points]
    return LatticeSet.from_points(pts, dim=dim)


def interval(k: int) -> LatticeSet:
    """The 1-D block {0, ..., k-1}."""
    (k,) = require_integers((k,), "interval length")
    if k < 1:
        raise DomainError("interval length must be >= 1")
    return LatticeSet(dim=1, points=tuple((i,) for i in range(k)))


@dataclass(frozen=True)
class IntBox:
    """An axis-parallel integer box [lo, hi], inclusive on both ends."""

    lo: Point
    hi: Point

    def __post_init__(self):
        if len(self.lo) != len(self.hi):
            raise DomainError("box corners must share one dimension")
        if any(a > b for a, b in zip(self.lo, self.hi)):
            raise DomainError(f"box has lo > hi: {self.lo} > {self.hi}")

    @property
    def dim(self) -> int:
        return len(self.lo)

    def lattice_count(self) -> int:
        n = 1
        for a, b in zip(self.lo, self.hi):
            n *= b - a + 1
        return n


@dataclass(frozen=True)
class HaloSet:
    """The exact super-level set {m : strong max of the indicator > alpha}."""

    alpha: Fraction
    members: LatticeSet
    source: LatticeSet

    @property
    def ratio(self) -> Fraction:
        """#members / #source, the Tauberian ratio of the source at alpha."""
        return Fraction(len(self.members), len(self.source))


# ---------------------------------------------------------------------------
# Covered-segment engine.
#
# Given integer weights at the points of a line, and the uniform negative
# weight -penalty on every other cell, report which cells lie inside some
# contiguous run with strictly positive total.  Every lattice halo reads its
# lines this way: the 1-D halo and the one-sided halo, both through `_halo_1d`
# (q - p at each point of E), each axis of the product kernel `_halo_product`,
# and each band of rows of the planar kernel `_halo_2d` (q * count - p * height
# at each column that meets the band).  The span between the points may be far
# longer than the set, so the scan reads only the points and the gap lengths:
# O(#points), whatever the span.  Ergodic cycles weigh every cell, so both
# ergodic halos share one dense cyclic scan instead, `ergodic._covered_cyclic`.
# ---------------------------------------------------------------------------


def _point_cover(xs: list[int], ws: list[int], penalty: int,
                 two_sided: bool = True) -> list[tuple[int, int]]:
    """Sorted disjoint intervals of the cells lying in a run of positive total
    on the line with weight ws[i] at the sorted point xs[i] and -penalty
    elsewhere; one-sided (two_sided False), a cell counts only in a run
    starting at it.

    Requires every ws[i] > -penalty.  A positive run trimmed to start and end
    at points stays positive, so all follows from right[i], the best run
    starting at xs[i], and left[i], the best one ending there (0 one-sided).
    A gap after xs[i] costing g = penalty * (empty cells) is covered whole iff
    left[i] + right[i + 1] > g; otherwise only its cells d <= (left[i] - 1) //
    penalty right of xs[i] and e <= (right[i + 1] - 1) // penalty left of
    xs[i + 1], which leave a cell between them uncovered.  Under the
    precondition these reaches never pass the next point, and a chain of
    points joined by whole gaps whose best run is <= 0 gives the empty
    interval (x + 1, x), which is left out.  The outer reaches come from
    right[0] and left[-1] the same way.
    """
    gaps = [penalty * (y - x - 1) for x, y in zip(xs, xs[1:])]
    right, i, r = ws[:], len(gaps), ws[-1]
    for g in reversed(gaps):  # right[i] = ws[i] + max(right[i + 1] - gaps[i], 0)
        i -= 1
        if r > g:
            right[i] += r - g
        r = right[i]
    if two_sided:
        left, i, l = ws[:], 0, ws[0]
        for g in gaps:
            i += 1
            if l > g:
                left[i] += l - g
            l = left[i]
    else:
        left = [0] * len(xs)
    out = []
    a = xs[0] - (right[0] - 1) // penalty
    for x, y, g, l, r in zip(xs, xs[1:], gaps, left, right[1:]):
        if l + r <= g:
            b = x + max(l - 1, 0) // penalty
            if a <= b:
                out.append((a, b))
            a = y - (r - 1) // penalty
    b = xs[-1] + max(left[-1] - 1, 0) // penalty
    if a <= b:
        out.append((a, b))
    return out


def _merge_intervals(intervals: list[tuple[int, int]]) -> list[tuple[int, int]]:
    if not intervals:
        return []
    intervals = sorted(intervals)
    merged = [intervals[0]]
    for a, b in intervals[1:]:
        la, lb = merged[-1]
        if a <= lb + 1:
            if b > lb:
                merged[-1] = (la, b)
        else:
            merged.append((a, b))
    return merged


# ---------------------------------------------------------------------------
# Strong maximal operator: exact evaluation at a point.
# ---------------------------------------------------------------------------


def _check_operator_input(E: LatticeSet, m) -> Point:
    if len(E) == 0:
        raise DomainError("maximal operators need a nonempty set")
    pt = _as_point(m)
    if len(pt) != E.dim:
        raise DomainError(f"point has dimension {len(pt)}, set has dimension {E.dim}")
    return pt


def strong_max_witness(E: LatticeSet, m) -> tuple[Fraction, IntBox]:
    """Exact value of the strong maximal operator on the indicator of E at m,
    together with the lexicographically smallest maximising box.

    Box faces sit at coordinates of E or m.  Each face pair [a, b] on an outer
    axis keeps the slab of points with that coordinate in [a, b]; empty slabs
    are skipped, as the maximum density is positive.  On the last axis the
    slab's counts are read by bisecting its sorted coordinates.
    """
    pt = _check_operator_input(E, m)
    cand = [_axis_candidates({p[i] for p in E.points}, v) for i, v in enumerate(pt)]
    best = LexMax()

    def slabs(axis: int, pts, lo: Point, hi: Point, vol: int) -> None:
        los, his = cand[axis]
        if axis == E.dim - 1:
            xs = sorted(p[axis] for p in pts)
            for a in los:
                cl = bisect_left(xs, a)
                for b in his:
                    cnt, size = bisect_right(xs, b) - cl, vol * (b - a + 1)
                    if cnt * best.den >= best.num * size:  # only a tie or a win needs its key
                        best.offer(cnt, size, (lo + (a,), hi + (b,)))
            return
        pts = sorted(pts, key=lambda p: p[axis])
        coords = [p[axis] for p in pts]
        for a in los:
            cl = bisect_left(coords, a)
            for b in his:
                cr = bisect_right(coords, b)
                if cr > cl:
                    slabs(axis + 1, pts[cl:cr], lo + (a,), hi + (b,), vol * (b - a + 1))

    slabs(0, E.points, (), (), 1)
    lo, hi = best.key
    return best.value, IntBox(lo=lo, hi=hi)


def eval_strong_max(E: LatticeSet, m) -> Fraction:
    """sup over integer boxes containing m of #(E in box) / #box, exactly."""
    return strong_max_witness(E, m)[0]


def _axis_candidates(coords: set[int], v: int) -> tuple[list[int], list[int]]:
    los = sorted({c for c in coords if c <= v} | {v})
    his = sorted({c for c in coords if c >= v} | {v})
    return los, his


def exceeds(E: LatticeSet, m, alpha: Fraction) -> bool:
    """True iff the strong maximal value at m is strictly greater than alpha."""
    alpha = require_alpha(alpha)
    return eval_strong_max(E, m) > alpha


# ---------------------------------------------------------------------------
# Halos.
# ---------------------------------------------------------------------------


def _halo_runs(E: LatticeSet, alpha: Fraction) -> tuple[Fraction, list[Run]]:
    alpha = require_alpha(alpha)
    return alpha, _kernel_runs(E.points, alpha.numerator, alpha.denominator)


def _kernel_runs(points: tuple[Point, ...], p: int, q: int) -> list[Run]:
    """The halo's runs at p/q of a set's sorted points, by the kernel their shape selects."""
    if not points:
        raise DomainError("halo of an empty set is undefined")
    dim = len(points[0])
    if dim == 1:
        return _halo_1d(points, p, q)
    axes = [sorted({pt[i] for pt in points}) for i in range(dim)]
    if prod(map(len, axes)) == len(points):  # the product of its coordinate sets
        return _halo_product(axes, p, q)
    if dim == 2:
        return _halo_2d(points, p, q)
    return _halo_nd(LatticeSet(dim=dim, points=points), p, q)


def _halo_set(E: LatticeSet, alpha: Fraction, runs: list[Run]) -> HaloSet:
    size = sum(b - a + 1 for _, a, b in runs)
    if size > HALO_MEMBER_LIMIT:
        raise DomainError(f"refusing to build a halo of {size} points (limit {HALO_MEMBER_LIMIT}); "
                          "the halo ratio counts it without building it")
    points = tuple(pre + (c,) for pre, a, b in runs for c in range(a, b + 1))
    return HaloSet(alpha=alpha, members=LatticeSet(dim=E.dim, points=points), source=E)


def _runs_ratio(E: LatticeSet, runs: list[Run]) -> Fraction:
    return Fraction(sum(b - a + 1 for _, a, b in runs), len(E))


def halo(E: LatticeSet, alpha: Fraction) -> HaloSet:
    """Exact level set {m in Z^n : strong max of the indicator of E at m > alpha}.

    The members always contain E, and are contained in the bounding box of E
    dilated by ceil(#E / alpha) along every axis.  In 1-D only the points of
    E and the gaps between them are read, so the cost is O(#E) plus the
    members built, however long the span of E.

    On a product set E = X_1 x ... x X_n every box is a product of intervals,
    so the strong maximum factors into the 1-D maxima of the X_i, and the halo
    is built axis by axis from 1-D point scans (`_halo_product`).  A product
    of blocks of consecutive integers costs O(sum of #X_i) plus its members;
    gaps add a scan of the blocks of X_i per halo coordinate of an outer axis
    and a set-up quadratic in their number.  The span never enters.

    Any other planar set is scanned by bands of rows with both ends at rows
    of E (`_halo_2d`), each band's line reading only the columns that meet
    it, so the cost grows with the rows of E and never with the span.  Other
    sets of three or more dimensions are tested point by point over a
    hyperbolic neighbourhood of the bounding box (`_halo_nd`).

    A halo of more than HALO_MEMBER_LIMIT members is refused with a
    DomainError before any member is built.
    """
    return _halo_set(E, *_halo_runs(E, alpha))


def halo_ratio(E: LatticeSet, alpha: Fraction) -> Fraction:
    """#halo(E, alpha) / #E, the quantity whose supremum over E is the
    Tauberian constant at alpha; counted from the runs, no point is built."""
    return _runs_ratio(E, _halo_runs(E, alpha)[1])


def _halo_1d(points: tuple[Point, ...], p: int, q: int, two_sided: bool = True) -> list[Run]:
    xs = [x for (x,) in points]
    return [((), a, b) for a, b in _point_cover(xs, [q - p] * len(xs), p, two_sided)]


def _line_values(xs: list[int]):
    """The exact 1-D strong maximum of the sorted points xs, as a function of m
    giving (count, length) of a densest box around m.

    Growing a box over an adjacent point never lowers its density, so a
    densest box has each face at m or at the outer end of a block of
    consecutive points.  A box over a gap with both faces on points does not
    depend on m: the best one per gap is found once, in O(B^2) for B blocks.
    """
    cum = [0] + [i for i in range(1, len(xs)) if xs[i] != xs[i - 1] + 1] + [len(xs)]
    starts, ends = [xs[i] for i in cum[:-1]], [xs[i - 1] for i in cum[1:]]
    B = len(starts)  # block b is xs[cum[b]:cum[b + 1]]
    over_gap = [(0, 1)] * (B + 1)  # the densest box over the gap before block b
    for j in range(B - 1):
        bc, bl = 0, 1
        for k in range(B - 1, j, -1):
            c, l = cum[k + 1] - cum[j], ends[k] - starts[j] + 1
            if c * bl > bc * l:
                bc, bl = c, l
            if bc * over_gap[k][1] > over_gap[k][0] * bl:
                over_gap[k] = (bc, bl)

    def value(m: int) -> tuple[int, int]:
        b = bisect_left(ends, m)  # the blocks ending before m
        if b < B and starts[b] <= m:
            return 1, 1
        bc, bl = over_gap[b]
        faces = [(cum[b] - cum[j], m - starts[j] + 1) for j in range(b)]
        faces += [(cum[k + 1] - cum[b], ends[k] - m + 1) for k in range(b, B)]
        for c, l in faces:
            if c * bl > bc * l:
                bc, bl = c, l
        return bc, bl

    return value


def _halo_product(axes: list[list[int]], p: int, q: int) -> list[Run]:
    """Halo of the product axes[0] x ... x axes[-1] at p/q, one axis at a time.

    The strong maximum factors into the 1-D maxima M_i of the axes (Jessen,
    Marcinkiewicz & Zygmund), and each M_i is 1 on its axis.  So m_0 heads a
    member iff it lies in the 1-D halo of axes[0] at p/q, and the rest of the
    member is a member for the other axes at (p/q) / M_0(m_0) < 1.  Levels are
    memoised per threshold; rows go in increasing order, so runs are sorted.
    """
    values = [_line_values(xs) for xs in axes[:-1]]
    memo: dict[tuple[int, int, int], list[Run]] = {}

    def level(i: int, p: int, q: int) -> list[Run]:
        if (i, p, q) in memo:
            return memo[i, p, q]
        cover = _point_cover(axes[i], [q - p] * len(axes[i]), p)
        if i == len(values):
            out = [((), a, b) for a, b in cover]
        else:
            out = []
            for a, b in cover:
                for m in range(a, b + 1):
                    c, l = values[i](m)  # c / l > p / q, as m lies in the halo
                    g = gcd(p * l, q * c)
                    out += [((m,) + pre, s, t) for pre, s, t in level(i + 1, p * l // g, q * c // g)]
        memo[i, p, q] = out
        return out

    return level(0, p, q)


def _halo_2d(points: tuple[Point, ...], p: int, q: int) -> list[Run]:
    """Halo at p/q of the planar set E of sorted points, from line scans of bands of rows.

    A box that witnesses a member m shrinks to the hull of its points of E and
    m, so its rows are a band [a, b] with both ends rows of E, grown to take
    in m's row.  Its columns are then a positive run of the line with weight
    q * count - p * height at each column that meets the band, which
    `_point_cover` reads from the band's columns alone.  Rows inside the band
    take the runs at height b - a + 1; row a - t below it takes them at height
    b - a + 1 + t, for t short of the previous row of E, as a box reaching
    that row is dominated by the band starting there (the same height, counts
    at least as large).  Rows above b likewise.  Every count is at most #E and
    every box at least as tall as its band, so a band's loop stops once
    q * #E <= p * (b - a + 1).  The cost grows with the rows of E, never with
    the span.
    """
    rows: dict[int, list[int]] = {}
    for r, c in points:
        rows.setdefault(r, []).append(c)
    ys = list(rows)
    limit = q * len(points)
    cover: dict[int, list[tuple[int, int]]] = {}

    def runs(cols: list[int], counts: list[int], h: int) -> list[tuple[int, int]]:
        return _point_cover(cols, [q * n - p * h for n in counts], p * h)

    for i, a in enumerate(ys):
        counts: dict[int, int] = {}
        for j in range(i, len(ys)):
            b = ys[j]
            h = b - a + 1
            if p * h >= limit:
                break
            for c in rows[b]:
                counts[c] = counts.get(c, 0) + 1
            cols = sorted(counts)
            band = [counts[c] for c in cols]
            intervals = runs(cols, band, h)
            if not intervals:
                continue  # taller boxes over the same columns are no better
            for r in range(a, b + 1):
                cover.setdefault(r, []).extend(intervals)
            # the rows beyond each edge, short of the next row of E; past the
            # outer rows, no box of height limit / p or more is positive
            below = a - ys[i - 1] if i else limit
            above = ys[j + 1] - b if j + 1 < len(ys) else limit
            for edge, step, room in ((a, -1, below), (b, 1, above)):
                for t in range(1, room):
                    intervals = runs(cols, band, h + t)
                    if not intervals:
                        break
                    cover.setdefault(edge + step * t, []).extend(intervals)

    return [((row,), a, b) for row in sorted(cover) for a, b in _merge_intervals(cover[row])]


def _halo_nd(E: LatticeSet, p: int, q: int) -> list[Run]:
    """Halo of a set of three or more dimensions that is not a product: test
    every point of the pruned region, in lexicographic order; each member is
    a run of one point.  It is the only halo kernel that runs `exceeds`,
    which the benchmark's trace gate expects the lattice-halo workload to
    reach, so it stays until that gate moves (ROADMAP.md, item 1).

    A halo point at per-axis distances d_i from the bounding box needs a box
    with volume at least prod(d_i + 1) and at most #E * q / p lattice points,
    so the region {prod(d_i + 1) < #E * q / p} suffices.
    """
    bbox = E.bounding_box()
    budget = len(E) * q  # require prod(d_i + 1) * p < budget
    n = E.dim
    alpha = Fraction(p, q)
    runs = []

    def walk(axis: int, coords: list[int], partial: int):
        if axis == n:
            if exceeds(E, tuple(coords), alpha):
                runs.append((tuple(coords[:-1]), coords[-1], coords[-1]))
            return
        lo, hi = bbox.lo[axis], bbox.hi[axis]
        reach = budget // (p * partial)  # d + 1 <= reach
        for v in range(lo - reach, hi + reach + 1):
            d = max(lo - v, v - hi, 0)
            grown = partial * (d + 1)
            if grown * p >= budget:
                continue
            coords.append(v)
            walk(axis + 1, coords, grown)
            coords.pop()

    walk(0, [], 1)
    return runs


# ---------------------------------------------------------------------------
# One-sided (forward window) operator, dimension 1.
# ---------------------------------------------------------------------------


def _check_one_sided(E: LatticeSet):
    if E.dim != 1:
        raise DomainError("one-sided operators are defined on Z only")
    if len(E) == 0:
        raise DomainError("maximal operators need a nonempty set")


def one_sided_max(E: LatticeSet, m) -> Fraction:
    """sup over N >= 1 of #(E in [m, m+N-1]) / N; zero when no forward window
    meets E.  The maximum is attained with the window ending at a point of E."""
    _check_one_sided(E)
    (m0,) = _check_operator_input(E, m)
    xs = [pnt[0] for pnt in E.points]
    if m0 > xs[-1]:
        return Fraction(0)
    start = bisect_left(xs, m0)
    best_num, best_den = 0, 1
    for j in range(start, len(xs)):
        cnt = j - start + 1
        length = xs[j] - m0 + 1
        if cnt * best_den > best_num * length:
            best_num, best_den = cnt, length
    return Fraction(best_num, best_den)


def _one_sided_runs(E: LatticeSet, alpha: Fraction) -> tuple[Fraction, list[Run]]:
    alpha = require_alpha(alpha)
    _check_one_sided(E)
    return alpha, _halo_1d(E.points, alpha.numerator, alpha.denominator, two_sided=False)


def one_sided_halo(E: LatticeSet, alpha: Fraction) -> HaloSet:
    """Level set of the one-sided operator, computed exactly."""
    return _halo_set(E, *_one_sided_runs(E, alpha))


def one_sided_halo_ratio(E: LatticeSet, alpha: Fraction) -> Fraction:
    """#one_sided_halo(E, alpha) / #E, counted without building the halo."""
    return _runs_ratio(E, _one_sided_runs(E, alpha)[1])


# ---------------------------------------------------------------------------
# Structured witnesses.
# ---------------------------------------------------------------------------


def interval_witness(k: int, alpha: Fraction) -> TauberianEstimate:
    """The block {0, ..., k-1} with its exact halo ratio at alpha.

    Along suitable k -> infinity subsequences these ratios climb towards the
    one-dimensional ceiling 2/alpha - 1 and never exceed it.
    """
    alpha = require_alpha(alpha)
    E = interval(k)
    return TauberianEstimate(
        alpha=alpha,
        value=halo_ratio(E, alpha),
        witness=E,
        strategy="interval-family",
        mode="exact",
    )


def product_witness(E1: LatticeSet, E2: LatticeSet) -> LatticeSet:
    """Cartesian product of two 1-D sets, a 2-D witness family.

    Every 2-D box is a product of two intervals, so the strong maximal value
    of a product set factors into the two 1-D values; product witnesses are
    the natural probes for the planar constants, and their halos are built by
    the product kernel `_halo_product` from 1-D point scans.
    """
    if E1.dim != 1 or E2.dim != 1:
        raise DomainError("product witnesses take two 1-D sets")
    if len(E1) == 0 or len(E2) == 0:
        raise DomainError("product witnesses need nonempty factors")
    pts = [(a[0], b[0]) for a in E1.points for b in E2.points]
    return LatticeSet(dim=2, points=tuple(sorted(pts)))
