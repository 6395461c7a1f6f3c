"""Search strategies for certified Tauberian lower bounds, plus exploratory
smoothness probes.

Every strategy returns a :class:`TauberianEstimate` whose value is the halo
ratio its witness actually achieves, never an extrapolation.  ``mode`` is
"exact" when the strategy provably maximised over its stated candidate space
(an exhaustive window, a finite structured family) and "heuristic" for local
search.  The only upper bounds ever asserted anywhere are the two closed-form
one-dimensional ceilings, 2/alpha - 1 (two-sided) and 1/alpha (one-sided).
"""

from __future__ import annotations

import math
import random
import statistics
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product as _cartesian
from operator import mul

from .errors import DomainError
from .ergodic import _byte_tables, _class_walk, _gather
from .estimate import TauberianEstimate
from .lattice import _halo_1d, _kernel_runs
from .lattice import (
    HALO_MEMBER_LIMIT,
    LatticeSet,
    halo_ratio,
    interval,
    one_sided_halo_ratio,
)
from .rational import LexMax, require_alpha, require_integers, require_rational

EXHAUSTIVE_WINDOW_LIMIT = 24

STRATEGIES = ("exhaustive", "interval-family", "box-family", "product-family",
              "staircase-family", "anneal")
# short names accepted by family_search, each for its strategy name
_FAMILY_NAMES = {"intervals": "interval-family", "boxes": "box-family",
                 "products": "product-family", "staircases": "staircase-family"}
_BOX_FAMILIES = ("box-family", "product-family")


@dataclass(frozen=True)
class SearchConfig:
    dim: int = 1
    window: tuple[tuple[int, int], ...] = ((0, 11),)
    strategy: str = "interval-family"
    rng_seed: int = 0
    budget: int = 2000
    max_block: int = 60
    one_sided: bool = False
    anneal_seed_block: int | None = None

    def __post_init__(self):
        require_integers((self.dim, self.max_block, self.budget, self.rng_seed),
                         "dim, max_block, budget and rng_seed")
        if self.anneal_seed_block is not None:
            require_integers((self.anneal_seed_block,), "anneal seed block")
        if self.dim < 1:
            raise DomainError("dimension must be >= 1")
        if len(_require_window(self.window)) != self.dim:
            raise DomainError("window must give bounds for every axis")
        if self.max_block < 1 or self.budget < 0:
            raise DomainError("a search needs max_block >= 1 and budget >= 0")
        if self.strategy not in STRATEGIES:
            raise DomainError(f"unknown strategy {self.strategy!r}; choose from {STRATEGIES}")
        if self.one_sided and self.dim != 1:
            raise DomainError("one-sided searches are 1-D only")

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "window": [list(b) for b in self.window],
            "strategy": self.strategy,
            "rng_seed": self.rng_seed,
            "budget": self.budget,
            "max_block": self.max_block,
            "one_sided": self.one_sided,
            "anneal_seed_block": self.anneal_seed_block,
        }


def _require_window(window) -> tuple[tuple[int, int], ...]:
    """Integer (lo, hi) bounds with lo <= hi on each of at least one axis."""
    window = tuple(require_integers(bounds, "window bounds") for bounds in window)
    if not window or any(len(bounds) != 2 or bounds[0] > bounds[1] for bounds in window):
        raise DomainError("a window is one or more (lo, hi) pairs with lo <= hi")
    return window


def _ratio(E: LatticeSet, alpha: Fraction, one_sided: bool) -> Fraction:
    return one_sided_halo_ratio(E, alpha) if one_sided else halo_ratio(E, alpha)


def _offer(best: LexMax, value: Fraction, E: LatticeSet):
    """Offer a set's ratio, keyed by its points, so ties go to the
    lexicographically least witness."""
    best.offer(value.numerator, value.denominator, E.points)


def _estimate(alpha: Fraction, best: LexMax, dim: int, strategy: str, mode: str) -> TauberianEstimate:
    return TauberianEstimate(
        alpha=alpha,
        value=best.value,
        witness=LatticeSet(dim=dim, points=best.key),
        strategy=strategy,
        mode=mode,
    )


def exhaustive_search(window, alpha: Fraction, one_sided: bool = False) -> TauberianEstimate:
    """Exact maximum of the halo ratio over the window's nonempty subsets.

    The strong operator averages over all axis-parallel boxes, so a map of
    Z^n carrying boxes to boxes of the same volume (a translation, an axis
    reflection, a swap of two axes) keeps the two-sided ratio, and the class
    walk of the ergodic module scores one halo per symmetry class: canonical
    masks (per-axis minima 0) closed under the reflections and the swaps of
    axes of equal extent, each image moved back to the low corner.
    Reflections change one-sided ratios ({0,2,3,4,5,9,10} at 3/5 gives 11/7,
    its mirror image 10/7), so one-sided classes are translation classes.
    The witness is the least maximiser over all subsets.
    """
    alpha = require_alpha(alpha)
    extents = [hi - lo + 1 for lo, hi in _require_window(window)]
    k, dim = math.prod(extents), len(extents)
    if k > EXHAUSTIVE_WINDOW_LIMIT:
        raise DomainError(f"window has {k} points; exhaustive search refuses above "
                          f"{EXHAUSTIVE_WINDOW_LIMIT}")
    if one_sided and dim != 1:
        raise DomainError("one-sided operators are defined on Z only")
    # translated once; the product order is lexicographic, so is every subset
    points = list(_cartesian(*(range(e) for e in extents)))
    strides = [math.prod(extents[i + 1:]) for i in range(dim)]
    faces = [sum(1 << j for j, pt in enumerate(points) if pt[i] == 0) for i in range(dim)]
    # (point map, face and stride that move a reflection back to the low corner; -1, 0 for a swap)
    maps = [] if one_sided else [
        ([pt[:i] + (e - 1 - pt[i],) + pt[i + 1:] for pt in points], faces[i], strides[i])
        for i, e in enumerate(extents) if e > 1] + [
        ([pt[:i] + (pt[j],) + pt[i + 1:j] + (pt[i],) + pt[j + 1:] for pt in points], -1, 0)
        for i, j in combinations(range(dim), 2) if extents[i] == extents[j]]
    tuples = _byte_tables(k, (), lambda j: (points[j],))
    p, q = alpha.numerator, alpha.denominator

    def score(rep: int) -> tuple[int, int]:
        pts = _gather(tuples, rep, ())
        runs = _halo_1d(pts, p, q, two_sided=False) if one_sided else _kernel_runs(pts, p, q)
        return sum(b - a + 1 for _, a, b in runs), len(pts)

    bit_maps = [([sum(map(mul, pt, strides)) for pt in g], *rest) for g, *rest in maps]
    best = _class_walk(k, bit_maps, faces, tuples, score)
    return _estimate(alpha, best, dim, "exhaustive", "exact")


def _family_members(family: str, dim: int, max_block: int):
    if max_block < 1 or dim < 1:
        raise DomainError("family size bound and dimension must be >= 1")
    # blocks of sides 1..m hold m(m+1)/2 points in all, boxes that to the power dim
    size = (max_block * (max_block + 1) // 2) ** (dim if family in _BOX_FAMILIES else 1)
    if size > HALO_MEMBER_LIMIT:
        raise DomainError(f"refusing to build a {family} of {size} points (limit {HALO_MEMBER_LIMIT})")
    if family == "interval-family":
        if dim != 1:
            raise DomainError("the interval family is 1-D")
        return [interval(k) for k in range(1, max_block + 1)]
    if family == "product-family" and dim != 2:
        raise DomainError("the product family is 2-D")
    if family in _BOX_FAMILIES:  # planar products of blocks are boxes
        return [LatticeSet(dim=dim, points=tuple(_cartesian(*map(range, sides))))
                for sides in _cartesian(*(range(1, max_block + 1) for _ in range(dim)))]
    if family == "staircase-family":
        if dim != 2:
            raise DomainError("the staircase family is 2-D")
        return [
            LatticeSet.from_points([(i, i) for i in range(k)])
            for k in range(1, max_block + 1)
        ]
    raise DomainError(f"unknown family {family!r}")


def family_search(
    family: str,
    alpha: Fraction,
    dim: int = 1,
    max_block: int = 60,
    one_sided: bool = False,
) -> TauberianEstimate:
    """Best ratio over a structured witness family, certified by recomputation.

    A permutation of the axes carries boxes to boxes of the same volume, so it
    keeps the two-sided ratio: a box's ratio depends only on its sorted sides,
    and box and product families compute one per sorted side tuple.  Every
    member is still offered, so the witness is the least maximiser.
    """
    alpha = require_alpha(alpha)
    dim, max_block = require_integers((dim, max_block), "dim and max_block")
    family = _FAMILY_NAMES.get(family, family)
    members = _family_members(family, dim, max_block)
    best, ratios, boxes = LexMax(), {}, family in _BOX_FAMILIES
    for E in members:  # a box's last point is its sides less one
        key = tuple(sorted(E.points[-1])) if boxes else E.points
        if key not in ratios:
            ratios[key] = _ratio(E, alpha, one_sided)
        _offer(best, ratios[key], E)
    return _estimate(alpha, best, dim, family, "exact")


def _anneal_population(config: SearchConfig) -> list[LatticeSet]:
    extents = [hi - lo + 1 for lo, hi in config.window]
    cap = min(config.max_block, min(extents))
    if config.anneal_seed_block is not None:
        k = config.anneal_seed_block
        if k < 1 or k > min(extents):
            raise DomainError("anneal seed block does not fit the window")
        sizes = [k]
    else:
        sizes = list(range(1, cap + 1))
    lows = [lo for lo, _ in config.window]
    pop = []
    for k in sizes:
        pts = _cartesian(*(range(lo, lo + k) for lo in lows))
        pop.append(LatticeSet.from_points(pts))
    return pop


def anneal_search(config: SearchConfig, alpha: Fraction) -> TauberianEstimate:
    """Seeded annealing over add/remove-one-point moves inside the window.

    Ratio comparisons are exact rational; the temperature enters only the
    acceptance probability of a worsening move (geometric schedule).  The
    returned value is always the best ratio actually achieved.
    """
    alpha = require_alpha(alpha)
    rng = random.Random(config.rng_seed)
    extents = [hi - lo + 1 for lo, hi in config.window]
    strides = [math.prod(extents[i + 1:]) for i in range(config.dim)]
    axes = list(zip([lo for lo, _ in config.window], strides, extents))  # to unravel a draw
    population = _anneal_population(config)
    best = LexMax()
    evaluated: dict[tuple, Fraction] = {}

    def ratio_of(E: LatticeSet) -> Fraction:
        cached = evaluated.get(E.points)
        if cached is None:
            cached = _ratio(E, alpha, config.one_sided)
            evaluated[E.points] = cached
        return cached

    for E in population:
        _offer(best, ratio_of(E), E)
    current = LatticeSet(dim=config.dim, points=best.key)
    current_value = best.value
    temperature = 1.0
    for _ in range(config.budget):
        draw = rng.randrange(strides[0] * extents[0])  # a window point, in row-major order
        pt = tuple([lo + draw // stride % e for lo, stride, e in axes])
        pts = set(current.points)
        if pt in pts:
            if len(pts) == 1:
                temperature *= 0.999
                continue
            pts.remove(pt)
        else:
            pts.add(pt)
        candidate = LatticeSet(dim=config.dim, points=tuple(sorted(pts)))  # checked window points
        value = ratio_of(candidate)
        if value >= current_value:
            accept = True
        else:
            drop = float(current_value - value)
            accept = rng.random() < math.exp(-drop / max(temperature, 1e-9))
        if accept:
            current, current_value = candidate, value
            _offer(best, value, candidate)
        temperature *= 0.999
    return _estimate(alpha, best, config.dim, "anneal", "heuristic")


def run_strategy(config: SearchConfig, alpha: Fraction) -> TauberianEstimate:
    if config.strategy == "exhaustive":
        return exhaustive_search(config.window, alpha, one_sided=config.one_sided)
    if config.strategy == "anneal":
        return anneal_search(config, alpha)
    return family_search(
        config.strategy,
        alpha,
        dim=config.dim,
        max_block=config.max_block,
        one_sided=config.one_sided,
    )


@dataclass(frozen=True)
class SweepResult:
    entries: tuple[tuple[Fraction, TauberianEstimate], ...]
    config: SearchConfig

    def values(self) -> list[Fraction]:
        return [e.value for _, e in self.entries]

    def to_json_dict(self) -> dict:
        return {
            "config": self.config.to_json_dict(),
            "entries": [est.to_json_dict() for _, est in self.entries],
        }


def sweep(alpha_grid, config: SearchConfig) -> SweepResult:
    """Run the configured strategy on every grid level, then re-evaluate every
    witness found at every level so the reported envelope is the pointwise
    best over all witnesses.  Halo nesting makes each witness's ratio
    nonincreasing in alpha, hence so is the envelope."""
    grid = [require_alpha(a) for a in alpha_grid]
    if not grid:
        raise DomainError("threshold grid is empty")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise DomainError("threshold grid must be strictly increasing")
    raw = [run_strategy(config, a) for a in grid]
    witnesses: list[LatticeSet] = []
    seen = set()
    for est in raw:
        if est.witness is not None and est.witness.points not in seen:
            seen.add(est.witness.points)
            witnesses.append(est.witness)
    entries = []
    for alpha, base in zip(grid, raw):
        best = LexMax()
        _offer(best, base.value, base.witness)
        for w in witnesses:
            _offer(best, _ratio(w, alpha, config.one_sided), w)
        entries.append((alpha, _estimate(alpha, best, base.witness.dim, base.strategy, base.mode)))
    return SweepResult(entries=tuple(entries), config=config)


# ---------------------------------------------------------------------------
# Exploratory smoothness probes.  These report data about the lower-bound
# curve; they prove nothing about the true constants and say so.
# ---------------------------------------------------------------------------

PROBE_DISCLAIMER = (
    "exploratory probe of the lower-bound envelope; not a proof of any "
    "smoothness or decay property of the true constants"
)


@dataclass(frozen=True)
class ModulusReport:
    exponent: Fraction
    pairs_considered: int
    max_quotient: Fraction | float
    argmax: tuple[Fraction, Fraction] | None
    exploratory: bool = True
    note: str = PROBE_DISCLAIMER


def reference_sweep(curve) -> SweepResult:
    """Wrap an explicit (alpha, value) curve as a SweepResult, for probing
    closed-form references.  Witnesses are absent; mode is 'reference'."""
    entries = []
    for alpha, value in curve:
        alpha = require_alpha(alpha)
        value = require_rational(value, "reference value")
        entries.append(
            (alpha,
             TauberianEstimate(alpha=alpha, value=value, witness=None,
                               strategy="reference", mode="reference"))
        )
    return SweepResult(entries=tuple(entries), config=SearchConfig())


def holder_modulus(sweep_result: SweepResult, p: Fraction) -> ModulusReport:
    """Largest pairwise quotient |v_i - v_j| / |a_i - a_j|^p over the curve.

    Exact rational for integer p, float otherwise.
    """
    p = require_rational(p, "modulus exponent")
    points = [(a, est.value) for a, est in sweep_result.entries]
    if len(points) < 3:
        raise DomainError("modulus probe needs at least 3 grid points")
    if p <= 0:
        raise DomainError("modulus exponent must be positive")
    best = None
    arg = None
    count = 0
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            a1, v1 = points[i]
            a2, v2 = points[j]
            count += 1
            if p.denominator == 1:
                quotient: Fraction | float = abs(v1 - v2) / abs(a1 - a2) ** p.numerator
            else:
                quotient = float(abs(v1 - v2)) / float(abs(a1 - a2)) ** float(p)
            if best is None or quotient > best:
                best, arg = quotient, (a1, a2)
    return ModulusReport(exponent=p, pairs_considered=count, max_quotient=best, argmax=arg)


@dataclass(frozen=True)
class SolyanikReport:
    fitted_exponent: float
    intercept: float
    residuals: tuple[float, ...]
    points_used: int
    exploratory: bool = True
    note: str = PROBE_DISCLAIMER


def solyanik_probe(sweep_result: SweepResult, tail_from: Fraction = Fraction(9, 10)) -> SolyanikReport:
    """Least-squares slope of log(value - 1) against log(1/alpha - 1) on the
    grid tail near 1; the slope estimates the decay exponent of value -> 1."""
    tail_from = require_rational(tail_from, "tail threshold")
    pts = [
        (a, est.value)
        for a, est in sweep_result.entries
        if a > tail_from and est.value > 1
    ]
    if len(pts) < 4:
        raise DomainError(
            "decay probe needs at least 4 grid points past "
            f"{tail_from} with values above 1 (got {len(pts)})"
        )
    xs = [math.log(float(Fraction(1, 1) / a - 1)) for a, _ in pts]
    ys = [math.log(float(v - 1)) for _, v in pts]
    fit = statistics.linear_regression(xs, ys)
    residuals = tuple(y - (fit.intercept + fit.slope * x) for x, y in zip(xs, ys))
    return SolyanikReport(
        fitted_exponent=fit.slope,
        intercept=fit.intercept,
        residuals=residuals,
        points_used=len(pts),
    )
