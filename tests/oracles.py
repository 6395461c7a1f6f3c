"""Slow, obviously-correct reference implementations used only by tests.

These deliberately share no code with the package: plain nested loops over
every box in a dilated region, direct window scans along orbits, and bitmask
tower searches.  Expected values frozen into the test suite were computed
with these oracles.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations, product


def brute_strong_max(points, m, pad=None):
    """Max density over ALL integer boxes containing m whose corners lie in the
    bounding box of E union {m} dilated by `pad` on every axis."""
    pts = sorted({tuple(p) for p in points})
    n = len(pts[0])
    m = tuple(m)
    if pad is None:
        pad = len(pts) + 1
    lo = [min(min(p[i] for p in pts), m[i]) - pad for i in range(n)]
    hi = [max(max(p[i] for p in pts), m[i]) + pad for i in range(n)]
    best = Fraction(0)
    for corner_lo in product(*(range(lo[i], m[i] + 1) for i in range(n))):
        for corner_hi in product(*(range(m[i], hi[i] + 1) for i in range(n))):
            vol = 1
            for a, b in zip(corner_lo, corner_hi):
                vol *= b - a + 1
            cnt = sum(
                1 for p in pts if all(a <= c <= b for a, c, b in zip(corner_lo, p, corner_hi))
            )
            d = Fraction(cnt, vol)
            if d > best:
                best = d
    return best


def brute_halo(points, alpha):
    """Per-point brute force over the ceil(#E/alpha)-dilated bounding region."""
    pts = sorted({tuple(p) for p in points})
    n = len(pts[0])
    alpha = Fraction(alpha)
    dil = (len(pts) * alpha.denominator + alpha.numerator - 1) // alpha.numerator
    lo = [min(p[i] for p in pts) - dil for i in range(n)]
    hi = [max(p[i] for p in pts) + dil for i in range(n)]
    members = []
    for m in product(*(range(lo[i], hi[i] + 1) for i in range(n))):
        if brute_strong_max(pts, m, pad=1) > alpha:
            members.append(m)
    return sorted(members)


def brute_line_cover(xs, ws, penalty, two_sided=True):
    """Sorted cells of the line with weight ws[i] at xs[i] and -penalty
    elsewhere that lie in a run of positive total (one-sided: a run starting
    at the cell), by summing every run [s, e].  A run holds at most the sum R
    of the positive weights and loses penalty per empty cell, so no positive
    run reaches R // penalty + 1 cells past the outer points."""
    weight = dict(zip(xs, ws))
    reach = sum(w for w in ws if w > 0) // penalty + 1
    lo, hi = min(xs) - reach, max(xs) + reach
    covered = set()
    for s in range(lo, hi + 1):
        total, last = 0, None  # `last`: the furthest end of a positive run from s
        for e in range(s, hi + 1):
            total += weight.get(e, -penalty)
            if total > 0:
                last = e
        if last is not None:
            covered.update(range(s, last + 1) if two_sided else (s,))
    return sorted(covered)


def brute_cyclic_cover(w, two_sided=True):
    """Flags of the cells i of the cycle of weights w that lie in a run of
    positive total along the repeated cycle with both arms around i shorter
    than 2P (one-sided: a run starting at i, under 2P cells past it), by
    summing every such run."""
    P = len(w)
    back = range(2 * P) if two_sided else (0,)
    flags = []
    for i in range(P):
        flags.append(any(sum(w[j % P] for j in range(i - a, i + b + 1)) > 0
                         for a in back for b in range(2 * P)))
    return flags


def brute_one_sided_max(points, m):
    xs = sorted(p if isinstance(p, int) else p[0] for p in points)
    best = Fraction(0)
    horizon = xs[-1] - m + 2 if m <= xs[-1] else 1
    for n in range(1, horizon + 1):
        cnt = sum(1 for x in xs if m <= x <= m + n - 1)
        d = Fraction(cnt, n)
        if d > best:
            best = d
    return best


def brute_one_sided_halo(points, alpha):
    xs = sorted(p if isinstance(p, int) else p[0] for p in points)
    alpha = Fraction(alpha)
    dil = (len(xs) * alpha.denominator + alpha.numerator - 1) // alpha.numerator
    members = []
    for m in range(xs[0] - dil, xs[-1] + dil + 1):
        if brute_one_sided_max(xs, m) > alpha:
            members.append(m)
    return members


def brute_tower_index(perm):
    """Largest k such that some nonempty atom subset A has A, TA, ..., T^(k-1)A
    pairwise disjoint, by exhaustive bitmask search."""
    n = len(perm)
    best = 0
    for mask in range(1, 1 << n):
        images = [mask]
        while True:
            nxt = 0
            for i in range(n):
                if images[-1] >> i & 1:
                    nxt |= 1 << perm[i]
            union = 0
            ok = True
            for im in images:
                union |= im
            if union & nxt:
                break
            images.append(nxt)
        if len(images) > best:
            best = len(images)
    return best


def brute_ergodic_max(generators, atom, in_E, side):
    """Max window density along the orbit, windows [-a, b] per axis with
    0 <= a, b <= side, by direct enumeration.  `generators` are permutations
    as index lists, `in_E` a predicate on atoms."""
    n = len(generators)
    inverses = []
    for g in generators:
        inv = [0] * len(g)
        for i, j in enumerate(g):
            inv[j] = i
        inverses.append(inv)

    def shift(a, axis, power):
        g = generators[axis] if power > 0 else inverses[axis]
        for _ in range(abs(power)):
            a = g[a]
        return a

    best = Fraction(0)
    for los in product(*(range(-side, 1) for _ in range(n))):
        for his in product(*(range(0, side + 1) for _ in range(n))):
            vol = 1
            for a, b in zip(los, his):
                vol *= b - a + 1
            cnt = 0
            for offs in product(*(range(a, b + 1) for a, b in zip(los, his))):
                cell = atom
                for axis, power in enumerate(offs):
                    cell = shift(cell, axis, power)
                if in_E(cell):
                    cnt += 1
            d = Fraction(cnt, vol)
            if d > best:
                best = d
    return best


def brute_one_sided_ergodic_halo(perm, in_E, alpha):
    """Atoms with a forward window atom, T atom, ..., T^(N-1) atom of density
    above alpha, N from 1 to the period of the atom's cycle, by direct scan.
    `perm` is the transformation as an index list, `in_E` a predicate."""
    alpha = Fraction(alpha)
    members = []
    for atom in range(len(perm)):
        period, a = 1, perm[atom]
        while a != atom:
            a, period = perm[a], period + 1
        window = []
        for _ in range(period):
            window.append(a)
            a = perm[a]
            if Fraction(sum(1 for b in window if in_E(b)), len(window)) > alpha:
                members.append(atom)
                break
    return members


def brute_exact_tauberian(system, alpha, one_sided=False):
    """(value, witness) of the exact Tauberian constant by enumerating every
    nonempty atom subset: the largest halo measure over set measure, and the
    least sorted atom tuple among the subsets that attain it.

    Halos come from the package's own halo functions, which the window-scan
    oracles above check; only the enumeration is independent here."""
    from taublab.ergodic import MeasurableSet, ergodic_halo, one_sided_ergodic_halo

    halo = one_sided_ergodic_halo if one_sided else ergodic_halo
    n = len(system.masses)
    ratios = {}
    for mask in range(1, 1 << n):
        E = MeasurableSet.of(system, [a for a in range(n) if mask >> a & 1])
        halo_mass = sum((system.masses[a] for a in halo(system, E, alpha).atoms), Fraction(0))
        ratios[E.atoms] = halo_mass / sum((system.masses[a] for a in E.atoms), Fraction(0))
    best = max(ratios.values())
    return best, min(atoms for atoms, r in ratios.items() if r == best)


def brute_subset_classes(system):
    """Number of classes of nonempty atom subsets under the group the
    generators generate: every subset closed under the generators, in plain
    sets, named by its least sorted member."""
    n = len(system.masses)
    names = set()
    for mask in range(1, 1 << n):
        start = frozenset(a for a in range(n) if mask >> a & 1)
        orbit, todo = {start}, [start]
        while todo:
            subset = todo.pop()
            for g in system.generators:
                image = frozenset(g[a] for a in subset)
                if image not in orbit:
                    orbit.add(image)
                    todo.append(image)
        names.add(min(tuple(sorted(s)) for s in orbit))
    return len(names)


def brute_exhaustive_search(window, alpha, one_sided=False):
    """(value, witness points) of the exhaustive lattice search, by the walk
    over translation classes only: every subset of the window meeting each
    of its low faces, moved so its per-axis minima are 0, scored with a full
    halo ratio; ties go to the least sorted point tuple.

    Ratios come from the package's halo functions, which the oracles above
    check; only the enumeration and the tie rule are independent here."""
    from taublab.lattice import LatticeSet, halo_ratio, one_sided_halo_ratio

    ratio = one_sided_halo_ratio if one_sided else halo_ratio
    points = list(product(*(range(hi - lo + 1) for lo, hi in window)))
    faces = [sum(1 << j for j, p in enumerate(points) if p[i] == 0) for i in range(len(window))]
    ratios = {}
    for mask in range(1, 1 << len(points)):
        if all(mask & face for face in faces):
            chosen = tuple(p for j, p in enumerate(points) if mask >> j & 1)
            ratios[chosen] = ratio(LatticeSet(dim=len(window), points=chosen), Fraction(alpha))
    best = max(ratios.values())
    return best, min(pts for pts, r in ratios.items() if r == best)


def brute_symmetry_classes(extents):
    """Number of classes of nonempty subsets of the box {0..e-1} over the
    given extents under translations, axis reflections and permutations of
    axes of equal extent: the distinct least normal forms over all images."""
    d = len(extents)
    points = list(product(*(range(e) for e in extents)))
    perms = [s for s in permutations(range(d))
             if all(extents[s[i]] == extents[i] for i in range(d))]
    forms = set()
    for mask in range(1, 1 << len(points)):
        S = [p for j, p in enumerate(points) if mask >> j & 1]
        images = []
        for perm in perms:
            for signs in product((1, -1), repeat=d):
                T = [tuple(signs[i] * p[perm[i]] for i in range(d)) for p in S]
                lows = [min(t[i] for t in T) for i in range(d)]
                images.append(tuple(sorted(tuple(c - lo for c, lo in zip(t, lows)) for t in T)))
        forms.add(min(images))
    return len(forms)
