"""Finite atomic probability spaces with commuting measure-preserving actions.

A system is a finite set of atoms with positive rational masses summing to 1,
acted on by finitely many commuting mass-preserving permutations, one per
lattice direction.  On such a system every supremum in the ergodic maximal
operator is a finite maximum: along each direction the orbit of an atom is
periodic with some period Q, and a window longer than 2Q - 1 cells can be
shortened without decreasing the window density (split off a full period; the
density of the split-off block is the full-period average, which is itself
attained by a window of length exactly Q containing the origin).

The value at an atom is the lattice strong maximum at 0 of the orbit's
pattern {j : U^j atom in E} over one patch of periods: Calderon's
transference in finite form.  The halo at alpha = p/q is the union of the
windows W along the orbit of positive weight q * #(E in W) - p * #W (a halo
atom lies in its own witnessing window), and the same split keeps such a
window positive while it is cut to at most 2Q_i - 1 cells on each axis
around any atom it holds.  So the halo is found orbit by orbit, by covering
the period grid with short positive windows; on a cycle that is one dense
prefix-sum scan over copies of the cycle, for the two-sided operator and the
one-sided (forward window) one alike.  Halos, halo measures, Tauberian
ratios and their exhaustive suprema over all nonempty atom subsets are
computed exactly, with rational arithmetic end to end.

Each system lays out its cycles once, on first use, and every orbit walk (the
period grid of a halo, the patch of an evaluation, a power, a tower's
translates) reads that layout: one index per atom and generator.

Each generator commutes with the others and preserves mass, so it carries the
halo of E onto the halo of its image: the Tauberian ratio is constant on every
class of subsets under the group the generators generate.  The exhaustive
supremum therefore computes one halo per class, and reports as witness the
lexicographically least sorted atom tuple among all maximising subsets, not
the class representative.  The classes of a single cycle are the binary
necklaces of its orbit order, listed directly; those of any other system come
from the class walk, shared with the lattice exhaustive search, which closes
each unseen subset mask under the generators.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate, compress, product as _cartesian
from math import lcm, prod
from numbers import Rational
from operator import add
import random
from typing import NamedTuple

from .errors import DomainError
from .estimate import TauberianEstimate
from .lattice import LatticeSet, eval_strong_max, halo as lattice_halo
from .rational import LexMax, require_alpha, require_integers

EXHAUSTIVE_ATOM_LIMIT = 20


class _Cycles(NamedTuple):
    """One generator's cycles, each from its least atom in generator order, and
    each atom's (cycle, place) on them: U^e a is cyc[(place + e) % len(cyc)]."""

    cycles: tuple[tuple[int, ...], ...]
    where: tuple[tuple[tuple[int, ...], int], ...]


@dataclass(frozen=True)
class AtomicSystem:
    """(Omega, mu) with commuting invertible mass-preserving shifts, checked
    once, when built: the first violated invariant raises DomainError."""

    masses: tuple[Fraction, ...]
    dim: int
    generators: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        def refuse(problem: str, *atoms: int):
            raise DomainError(f"invalid system: {problem}" + (f" (atoms {atoms})" if atoms else ""))

        masses = tuple(self.masses)
        (dim,) = require_integers((self.dim,), "invalid system: dimension")
        gens = tuple(require_integers(g, f"invalid system: generator {i} entries")
                     for i, g in enumerate(self.generators))
        if not masses or dim < 1 or len(gens) != dim:
            refuse(f"need atoms and dim >= 1 generators, got {len(masses)} atoms, "
                   f"dim {dim} and {len(gens)} generators")
        for a, m in enumerate(masses):
            if not isinstance(m, Rational) or m.numerator <= 0:
                refuse(f"atom mass {m!r} is not a positive exact rational", a)
        denom = lcm(*(m.denominator for m in masses))  # exact integer weights
        weight = tuple(m.numerator * (denom // m.denominator) for m in masses)
        if sum(weight) != denom:
            refuse("masses must sum exactly to 1")
        atoms = tuple(range(len(masses)))
        for i, g in enumerate(gens):
            if tuple(sorted(g)) != atoms:
                refuse(f"generator {i} is not a permutation of the atoms")
            if tuple(map(weight.__getitem__, g)) != weight:
                a = next(a for a in atoms if weight[g[a]] != weight[a])
                refuse(f"generator {i} does not preserve mass", a, g[a])
            for j, h in enumerate(gens[:i]):
                if tuple(map(g.__getitem__, h)) != tuple(map(h.__getitem__, g)):
                    a = next(a for a in atoms if g[h[a]] != h[g[a]])
                    refuse(f"generators {j} and {i} do not commute", a)
        masses = tuple(m if type(m) is Fraction else Fraction(m) for m in masses)
        self.__dict__.update(masses=masses, dim=dim, generators=gens)

    @property
    def atom_count(self) -> int:
        return len(self.masses)

    @cached_property
    def _layout(self) -> tuple[_Cycles, ...]:
        """Each generator's cycles, read by every orbit walk: built on first use."""
        layout = []
        for g in self.generators:
            cycles, where = [], [None] * len(g)
            for start in range(len(g)):
                if where[start] is None:
                    cyc = [start]
                    while (a := g[cyc[-1]]) != start:
                        cyc.append(a)
                    cycles.append(cyc := tuple(cyc))
                    for place, a in enumerate(cyc):
                        where[a] = (cyc, place)
            layout.append(_Cycles(tuple(cycles), tuple(where)))
        return tuple(layout)


def make_cyclic(n: int) -> AtomicSystem:
    """Uniform rotation on n atoms; n = 2 is the finite model of the rotation
    by 1/2 on the circle."""
    (n,) = require_integers((n,), "cyclic size")
    if n < 1:
        raise DomainError("cyclic system needs at least one atom")
    return make_torus(n)


def make_torus(*sizes: int) -> AtomicSystem:
    """Product of cyclic shifts: one commuting generator per coordinate.

    Atoms are numbered row-major, so the shift along an axis adds the axis
    stride to an atom's number and wraps inside that axis."""
    sizes = require_integers(sizes, "torus sizes")
    if not sizes:
        raise DomainError("torus needs at least one size")
    if any(s < 1 for s in sizes):
        raise DomainError("torus sizes must be >= 1")
    total = stride = prod(sizes)
    generators = []
    for size in sizes:
        stride //= size
        block = stride * size  # one full turn along this axis
        generators.append(tuple(
            a + stride if a % block < block - stride else a + stride - block for a in range(total)
        ))
    return AtomicSystem(
        masses=tuple([Fraction(1, total)] * total),
        dim=len(sizes),
        generators=tuple(generators),
    )


@dataclass(frozen=True)
class MeasurableSet:
    system: AtomicSystem
    atoms: tuple[int, ...]

    @classmethod
    def of(cls, system: AtomicSystem, atoms) -> "MeasurableSet":
        atom_tuple = tuple(sorted(set(require_integers(atoms, "atoms"))))
        if atom_tuple and (atom_tuple[0] < 0 or atom_tuple[-1] >= system.atom_count):
            raise DomainError("atom index out of range")
        return cls(system=system, atoms=atom_tuple)

    @property
    def measure(self) -> Fraction:
        return sum((self.system.masses[a] for a in self.atoms), Fraction(0))

    def __len__(self) -> int:
        return len(self.atoms)

    def __contains__(self, atom: int) -> bool:
        return atom in set(self.atoms)


def _require_atom(system: AtomicSystem, atom) -> int:
    (atom,) = require_integers((atom,), "atom")
    if not 0 <= atom < system.atom_count:
        raise DomainError("atom index out of range")
    return atom


def apply_power(system: AtomicSystem, atom: int, exponents) -> int:
    """U_1^{j_1} ... U_n^{j_n} applied to an atom."""
    atom = _require_atom(system, atom)
    exps = require_integers(exponents, "exponents")
    if len(exps) != system.dim:
        raise DomainError("exponent vector dimension mismatch")
    (atom,) = _patch(system, atom, [range(e, e + 1) for e in exps])
    return atom


def _patch(system: AtomicSystem, atom: int, spans) -> list[int]:
    """The atoms U_1^{j_1} ... U_n^{j_n} atom, j row-major over the product of
    the spans (one range of exponents per generator): every orbit walk, one
    layout lookup per atom."""
    flat = [atom]
    for (_, where), span in zip(system._layout, spans):
        rows = []
        for b in flat:
            cyc, place = where[b]
            rows += [cyc[(place + j) % len(cyc)] for j in span]
        flat = rows
    return flat


def _check_set(system: AtomicSystem, E: MeasurableSet):
    if E.system != system:
        raise DomainError("set belongs to a different system")
    if len(E) == 0:
        raise DomainError("ergodic maximal operators need a nonempty set")


def eval_ergodic_max(
    system: AtomicSystem, E: MeasurableSet, atom: int, side_bound: int | None = None
) -> Fraction:
    """Exact supremum of window averages of the indicator of E along the orbit
    of the atom, over integer boxes containing the origin.

    With ``side_bound=None`` each axis takes window arms up to its orbit
    period minus one, which attains the supremum; an explicit bound takes
    arms 0..side_bound on every axis (used by soundness checks).  The value
    is the lattice strong maximum at 0 of the orbit's pattern over those arms.
    """
    _check_set(system, E)
    atom = _require_atom(system, atom)
    if side_bound is None:
        arms = [len(where[atom][0]) - 1 for _, where in system._layout]
    else:
        (side_bound,) = require_integers((side_bound,), "side bound")
        if side_bound < 0:
            raise DomainError("side bound must be >= 0")
        arms = [side_bound] * system.dim
    return _eval_max(system, set(E.atoms), atom, arms)


def _eval_max(system: AtomicSystem, in_E: set[int], atom: int, arms: list[int]) -> Fraction:
    """Best density of the boxes [-a_i, b_i], 0 <= a_i, b_i <= arms[i]: the
    lattice maximum at 0 of the pattern, whose maximising box has its faces at
    pattern coordinates or 0, so lies in the patch and is one of these boxes."""
    spans = [range(-arm, arm + 1) for arm in arms]
    offsets = _cartesian(*spans)  # row-major is lexicographic
    pattern = tuple(pt for pt, a in zip(offsets, _patch(system, atom, spans)) if a in in_E)
    if not pattern:
        return Fraction(0)
    return eval_strong_max(LatticeSet(dim=len(arms), points=pattern), (0,) * len(arms))


def _covered_cyclic(w: list[int], two_sided: bool = True) -> list[bool]:
    """Flags the cells i of a cycle of integer weights that lie in some run of
    positive total along the repeated cycle; one-sided (two_sided False), a
    cell counts only in a run starting at it.  The one cyclic scan of both
    ergodic halos.

    If the period total is positive every cell is covered (by the period
    starting there).  Otherwise cutting a period from an arm of P cells or
    more keeps a run positive, so arms shorter than P suffice, and one dense
    prefix-sum scan over copies of the cycle decides: two-sided, the cells of
    the middle copy of three whose best run end after them beats the best
    start before them; one-sided, the cells of the first copy of two whose
    best end beats their own start.  Cycles carry -p on every cell off E,
    below the lattice line scan's precondition, so they keep this dense scan.
    """
    P = len(w)
    if max(w) <= 0:
        return [False] * P
    if sum(w) > 0:
        return [True] * P
    lo = P if two_sided else 0  # first cell of the copy that is kept
    prefix = list(accumulate(w * (3 if two_sided else 2), initial=0))
    starts = prefix
    if two_sided:  # least prefix up to each cell; a loop, as accumulate(min) is 3x slower
        start, starts = min(prefix[:P]), []
        for x in prefix[P:2 * P]:
            start = x if x < start else start
            starts.append(start)
    flags = [False] * P
    end = max(prefix[lo + P + 1:])
    for i in range(P - 1, -1, -1):
        if prefix[lo + i + 1] > end:
            end = prefix[lo + i + 1]
        flags[i] = end > starts[i]
    return flags


def ergodic_halo(system: AtomicSystem, E: MeasurableSet, alpha: Fraction) -> MeasurableSet:
    """Atoms whose ergodic maximal value strictly exceeds alpha."""
    alpha = require_alpha(alpha)
    _check_set(system, E)
    kernel = _halo_atoms_1d if system.dim == 1 else _halo_atoms_nd
    return MeasurableSet.of(system, kernel(system, set(E.atoms), alpha))


def _halo_atoms_1d(system: AtomicSystem, atoms_in_E: set[int], alpha: Fraction,
                   two_sided: bool = True) -> list[int]:
    """Per-cycle linear-time covered-run scan of the weights q - p on E and
    -p off E, two-sided or, for the one-sided halo, forward only."""
    p, q = alpha.numerator, alpha.denominator
    members: list[int] = []
    for cyc in system._layout[0].cycles:
        w = [q - p if a in atoms_in_E else -p for a in cyc]
        members.extend(compress(cyc, _covered_cyclic(w, two_sided)))
    return members


def _halo_atoms_nd(system: AtomicSystem, atoms_in_E: set[int], alpha: Fraction) -> list[int]:
    """Union of the positive windows of every orbit that meets E.

    An orbit is laid on the Q_1 x ... x Q_n grid of exponents modulo the
    periods of one of its atoms.  The orbit map is Q-periodic, so window
    counts read on the grid are exact even where several cells name the same
    atom.  By the module docstring a positive window can be cut to lengths at
    most 2Q_i - 1 while it keeps a given atom, so it counts each grid cell of
    E at most 2^n times and its volume stays below q 2^n #(E on the grid) / p.
    Each window on the first n - 1 axes, started in [0, Q_i) and grown one
    slice at a time, sums the grid into one column along the last axis; the
    cyclic covered-run scan of q * count - p * outer volume gives the columns
    of its positive windows, and the window's rows times those columns are
    halo atoms.  An orbit stops as soon as all of its atoms are covered.
    """
    p, q = alpha.numerator, alpha.denominator
    members: list[int] = []
    seen: set[int] = set()
    for origin in sorted(atoms_in_E):
        if origin in seen:
            continue
        shape = [len(where[origin][0]) for _, where in system._layout]
        grid = _patch(system, origin, [range(Q) for Q in shape])
        seen.update(grid)
        members.extend(_orbit_halo(grid, shape, atoms_in_E, p, q))
    return members


def _orbit_halo(grid: list[int], shape: list[int], atoms_in_E: set[int], p: int, q: int) -> set[int]:
    """Halo atoms of the orbit laid out row-major in `grid` with this shape."""
    n = len(shape)
    orbit_size = len(set(grid))
    vals = [1 if a in atoms_in_E else 0 for a in grid]
    vol_bound = (q * (1 << n) * sum(vals) + p - 1) // p  # vol < bound suffices
    covered: set[int] = set()

    def windows(axis: int, slab: list[int], rows: list[int], vol: int) -> bool:
        """`slab` sums the grid over `rows`, the window chosen on the axes
        before `axis`; True once the whole orbit is covered."""
        if q * max(slab) <= p * vol:
            return False  # no cell of any extension is dense enough
        if axis == n - 1:
            flags = _covered_cyclic([q * c - p * vol for c in slab])
            cols = list(compress(range(len(slab)), flags))
            covered.update(grid[r + c] for r in rows for c in cols)
            return len(covered) == orbit_size
        Q = shape[axis]
        inner = len(slab) // Q
        longest = min(2 * Q - 1, (vol_bound - 1) // vol)
        for start in range(Q):
            acc = [0] * inner
            band: list[int] = []
            for length in range(1, longest + 1):
                r = (start + length - 1) % Q * inner
                acc = list(map(add, acc, slab[r : r + inner]))
                band.extend(b + r for b in rows)
                if windows(axis + 1, acc, band, vol * length):
                    return True
        return False

    windows(0, vals, [0], 1)
    return covered


def ergodic_halo_measure(system: AtomicSystem, E: MeasurableSet, alpha: Fraction) -> Fraction:
    return ergodic_halo(system, E, alpha).measure


# ---------------------------------------------------------------------------
# Tauberian suprema over subsets.
# ---------------------------------------------------------------------------


def _byte_tables(n: int, empty, unit) -> list[list]:
    """For each 8-atom chunk of an n-atom mask, the table indexed by that
    byte: entry b is the sum, from `empty`, of `unit(a)` over the atoms a
    whose bits b holds."""
    tables = []
    for start in range(0, n, 8):
        table = [empty] * (1 << min(8, n - start))
        for b in range(1, len(table)):
            top = b.bit_length() - 1  # added last, so tuples come out sorted
            table[b] = table[b ^ 1 << top] + unit(start + top)
        tables.append(table)
    return tables


@lru_cache(maxsize=None)  # once per atom count: building them costs more than a small walk
def _atom_tables(n: int) -> list[list]:
    return _byte_tables(n, (), lambda a: (a,))  # an n-atom mask's sorted atom tuple


def _gather(tables: list[list], mask: int, out):
    """`out` plus the entries of the byte tables for the bytes of the mask."""
    for table in tables:
        out += table[mask & 255]
        mask >>= 8
    return out


def _tauberian(system: AtomicSystem, alpha: Fraction, two_sided: bool, max_enum: int,
               rng_seed: int, budget: int) -> TauberianEstimate:
    """The supremum of halo measure over set measure, two-sided or one-sided:
    exhaustive up to ``max_enum`` atoms, a flagged heuristic bound beyond."""
    alpha = require_alpha(alpha)
    max_enum, rng_seed, budget = require_integers((max_enum, rng_seed, budget),
                                                  "max_enum, rng_seed and budget")
    halo_of = ergodic_halo if two_sided else one_sided_ergodic_halo
    if system.atom_count > max_enum:
        return _heuristic_tauberian(system, alpha, halo_of, rng_seed, budget)
    _require_enumerable(system.atom_count)
    if system.dim == 1 and len(system._layout[0].cycles) == 1:
        return _necklace_tauberian(system, alpha, two_sided)
    return _exhaustive_tauberian(system, alpha, halo_of)


def _require_enumerable(n: int, max_enum: int = EXHAUSTIVE_ATOM_LIMIT):
    """Refuse an exhaustive walk over more than min(max_enum, EXHAUSTIVE_ATOM_LIMIT)
    atoms: a bound on work, as classes number about 2^n / n and 20 atoms take seconds."""
    limit = min(max_enum, EXHAUSTIVE_ATOM_LIMIT)
    if n > limit:
        raise DomainError(f"refusing exhaustive enumeration over {n} atoms (limit {limit})")


def _exhaustive_tauberian(system: AtomicSystem, alpha: Fraction, halo_of) -> TauberianEstimate:
    """The class walk under the generated group, scoring halo measure over set
    measure with integer atom weights over the common denominator of the masses."""
    denom = lcm(*(m.denominator for m in system.masses))
    weight = [m.numerator * (denom // m.denominator) for m in system.masses]
    atoms_of = _atom_tables(len(weight))

    def score(rep: int) -> tuple[int, int]:
        atoms = _gather(atoms_of, rep, ())
        halo = halo_of(system, MeasurableSet(system=system, atoms=atoms), alpha)
        return sum(map(weight.__getitem__, halo.atoms)), sum(map(weight.__getitem__, atoms))

    best = _class_walk(len(weight), [(g, -1, 0) for g in system.generators], [], atoms_of, score)
    return TauberianEstimate(alpha, best.value, best.key, "exhaustive-subsets", "exact")


def _class_walk(k: int, maps, faces: list[int], keys: list[list], score) -> LexMax:
    """The one class walk of both exhaustive searches: a map that carries halos
    onto halos keeps the ratio, so each class of nonempty k-bit masks is scored once.
    A map is (bit permutation, face, stride): an image is shifted right by the
    stride until it meets the face (-1 for a permutation).  Masks meeting every
    face are canonical, and faces[0], if any, is the low bits.  In increasing
    order, an unseen canonical mask opens a class, closed by search under the
    maps; score(rep) gives it an integer pair, and a class that may change the
    best (see _can_win) offers its members' least key, a sum of key tables."""
    # one table per map; distinct bits go to distinct bits, so + is |
    images = [(_byte_tables(k, 0, lambda j, g=g: 1 << g[j]), *rest) for g, *rest in maps]
    seen = bytearray(1 << k)
    if faces:  # mark every mask missing the low face at once
        seen[::faces[0] + 1] = b"\1" * ((1 << k) // (faces[0] + 1))
    best, rep, others = LexMax(), 0, faces[1:]
    while (rep := seen.find(0, rep + 1)) > 0:
        if others and not all(rep & face for face in others):
            continue  # not canonical, so no canonical mask's image either
        seen[rep] = 1
        members = [rep]
        for mask in members:  # grows while it is walked: a closure by search
            for tables, face, stride in images:
                image = _gather(tables, mask, 0)
                while not image & face:  # a reflection leaves its axis off the low face
                    image >>= stride
                if not seen[image]:
                    seen[image] = 1
                    members.append(image)
        num, den = score(rep)
        if _can_win(best, num, den, keys, rep.bit_count()):
            best.offer(num, den, min(_gather(keys, m, ()) for m in members))
    return best


def _necklace_tauberian(system: AtomicSystem, alpha: Fraction, two_sided: bool) -> TauberianEstimate:
    """The exhaustive walk of a single cycle, whose classes are the binary
    necklaces of its orbit order: the FKM algorithm (Fredricksen, Kessler &
    Maiorana, Discrete Math. 23, 1978) lists them, marking no mask, in
    constant amortised time (Ruskey, Savage & Wang, J. Algorithms 13, 1992).
    The word holds the orbit-order weights, q - p on E and -p off E, and is a
    necklace when its period divides n; masses are equal on a cycle, so the
    ratio is covered cells over ones.  Sorted tuples of equal size compare at
    the least atom of their symmetric difference, so on a tie or a win the
    class offers its rotation with the largest bit-reversed label mask.
    """
    (cyc,) = system._layout[0].cycles
    n = len(cyc)
    lo, hi = -alpha.numerator, alpha.denominator - alpha.numerator
    reversed_labels = [1 << n - 1 - a for a in cyc]
    atoms_of, best = _atom_tables(n), LexMax()
    word, period = [lo] * (n - 1) + [hi], n  # the successor of the empty word
    while True:
        if n % period == 0:
            ones = word.count(hi)
            covered = sum(_covered_cyclic(word, two_sided))
            if _can_win(best, covered, ones, atoms_of, ones):
                cells = [i for i, x in enumerate(word) if x == hi]
                top = max(sum(reversed_labels[i - r] for i in cells) for r in range(n))
                best.offer(covered, ones, tuple(a for a in range(n) if top >> n - 1 - a & 1))
        if lo not in word:  # the last prenecklace, all hi
            return TauberianEstimate(alpha, best.value, best.key, "exhaustive-subsets", "exact")
        j = n - 1 - word[::-1].index(lo)
        word[j], period = hi, j + 1
        word = (word[:period] * (n // period + 1))[:n]


def _can_win(best: LexMax, num: int, den: int, keys: list[list], size: int) -> bool:
    """The one tie rule of every exhaustive walk: whether a class of size-member sets
    scoring num/den may change `best`, by a win or by a tie where the least key of
    size members, the key tables' sum for the low size bits, lies below best's key."""
    lhs, rhs = num * best.den, best.num * den
    return lhs > rhs or lhs == rhs and _gather(keys, (1 << size) - 1, ()) < best.key


def _heuristic_tauberian(
    system: AtomicSystem,
    alpha: Fraction,
    halo_of,
    rng_seed: int,
    budget: int,
) -> TauberianEstimate:
    """Deterministic local search over atom subsets: arc seeds along every
    cycle, complement-of-one-atom seeds, then add/remove-one-atom hill
    climbing under an evaluation budget."""
    n = system.atom_count
    evals = 0

    def ratio_of(atoms: tuple[int, ...]) -> Fraction:
        nonlocal evals
        evals += 1
        E = MeasurableSet(system=system, atoms=atoms)
        return halo_of(system, E, alpha).measure / E.measure

    seeds: list[tuple[int, ...]] = []
    if system.dim == 1:
        for cyc in system._layout[0].cycles:
            for length in range(1, len(cyc) + 1):
                seeds.append(tuple(sorted(cyc[:length])))
    seeds.append(tuple(range(n)))
    for a in range(min(n, 32)):
        seeds.append(tuple(i for i in range(n) if i != a))

    best = LexMax()
    for s in seeds:
        if not s:
            continue
        r = ratio_of(s)
        best.offer(r.numerator, r.denominator, s)

    rng = random.Random(rng_seed)
    current = best.key
    current_value = best.value
    while n > 1 and evals < budget:  # one atom has no move but its own removal
        move_atom = rng.randrange(n)
        atoms = set(current)
        if move_atom in atoms:
            if len(atoms) == 1:
                continue
            atoms.remove(move_atom)
        else:
            atoms.add(move_atom)
        cand = tuple(sorted(atoms))
        r = ratio_of(cand)
        if r > current_value:
            current, current_value = cand, r
            if r > best.value:  # strictly: the climb takes no witness ties
                best.offer(r.numerator, r.denominator, cand)
        elif r == current_value and cand < current:
            current = cand
    return TauberianEstimate(
        alpha=alpha,
        value=best.value,
        witness=best.key,
        strategy="subset-local-search",
        mode="heuristic",
    )


def exact_tauberian(
    system: AtomicSystem,
    alpha: Fraction,
    max_enum: int = EXHAUSTIVE_ATOM_LIMIT,
    rng_seed: int = 0,
    budget: int = 2000,
) -> TauberianEstimate:
    """sup over nonempty atom subsets of halo measure / set measure.

    Exhaustive (and exact) up to ``max_enum`` atoms: the subsets are walked
    one class under the generated group at a time, with one halo per class,
    and the witness is the lexicographically least maximiser over all
    subsets.  Beyond ``max_enum`` an explicitly flagged heuristic lower bound
    is returned.  ``max_enum`` may lower the cutoff but not raise it: a walk
    over more than EXHAUSTIVE_ATOM_LIMIT atoms raises DomainError.
    """
    return _tauberian(system, alpha, True, max_enum, rng_seed, budget)


# ---------------------------------------------------------------------------
# Index and towers.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TowerBase:
    base: MeasurableSet
    heights: tuple[int, ...]

    def translates(self) -> list[tuple[int, ...]]:
        spans = [range(h) for h in self.heights]
        patches = [_patch(self.base.system, a, spans) for a in self.base.atoms]
        return [tuple(sorted(t)) for t in zip(*patches)] or [()] * prod(self.heights)

    def is_disjoint(self) -> bool:
        translates = self.translates()
        return len(set().union(*translates)) == sum(map(len, translates))


@dataclass(frozen=True)
class IndexResult:
    """Largest tower height of a single transformation.

    ``infinite`` is the marker for transformations admitting arbitrarily tall
    towers;  a finite atomic system always has a finite index, bounded by its
    atom count.
    """

    value: int
    infinite: bool
    certificate: TowerBase
    cycle_lengths: tuple[int, ...]


def index(system: AtomicSystem) -> IndexResult:
    """The largest N with some positive-mass A making A, TA, ..., T^(N-1)A
    pairwise disjoint.  On a finite atomic system with all masses positive
    this is the longest cycle length: a single atom of a longest cycle is a
    tower base, and any tower forces every orbit it touches to have at least
    the tower's height of distinct points."""
    if system.dim != 1:
        raise DomainError("the tower index is defined for one transformation only")
    cycles = system._layout[0].cycles
    lengths = tuple(sorted(len(c) for c in cycles))
    best_cycle = max(cycles, key=len)
    value = len(best_cycle)
    base = MeasurableSet.of(system, [best_cycle[0]])
    cert = TowerBase(base=base, heights=(value,))
    if not cert.is_disjoint():
        raise AssertionError("cycle-derived tower certificate failed its invariant")
    return IndexResult(value=value, infinite=False, certificate=cert, cycle_lengths=lengths)


def rokhlin_tower(system: AtomicSystem, heights) -> TowerBase:
    """A single-atom base whose box of translates up to the given heights is
    pairwise disjoint; errors when the system has no room."""
    hts = require_integers(heights, "tower heights")
    if len(hts) != system.dim:
        raise DomainError("heights vector dimension mismatch")
    if any(h < 1 for h in hts):
        raise DomainError("tower heights must be >= 1")
    base = MeasurableSet.of(system, [0])
    tower = TowerBase(base=base, heights=hts)
    # pigeonhole: more translates than atoms collide, so none is built
    if prod(hts) > system.atom_count or not tower.is_disjoint():
        raise DomainError(
            f"no tower of heights {hts} from atom 0: translates collide "
            f"(orbit periods {[len(where[0][0]) for _, where in system._layout]})"
        )
    return tower


@dataclass(frozen=True)
class TransferResult:
    witness: MeasurableSet
    ergodic_ratio: Fraction
    discrete_ratio: Fraction
    embedded_halo_atoms: tuple[int, ...]
    shift: tuple[int, ...]


def transfer_witness(system: AtomicSystem, discrete_E: LatticeSet, alpha: Fraction) -> TransferResult:
    """Replay a discrete witness inside a measure-preserving system.

    The discrete set (translated into the nonnegative orthant) indexes
    translates of a one-atom base; every lattice point of the discrete halo
    then contributes a distinct atom to the ergodic halo, so the ergodic
    ratio dominates the discrete one.  Requires the halo's exponent box to
    map to pairwise distinct atoms, otherwise the system is too small.
    """
    alpha = require_alpha(alpha)
    if discrete_E.dim != system.dim:
        raise DomainError("lattice witness dimension must match the system dimension")
    if len(discrete_E) == 0:
        raise DomainError("transfer needs a nonempty lattice witness")
    discrete_halo = lattice_halo(discrete_E, alpha)
    bound = max(abs(c) for pt in discrete_halo.members for c in pt)
    shift = tuple([bound] * system.dim)
    shifted_E = discrete_E.translate(shift)
    shifted_halo = discrete_halo.members.translate(shift)
    base_atom = 0
    halo_atoms = [apply_power(system, base_atom, pt) for pt in shifted_halo.points]
    if len(set(halo_atoms)) != len(halo_atoms):
        span = 2 * bound + 1
        raise DomainError(
            "system too small for the halo of this witness: translates collide; "
            f"need pairwise distinct translates over a box of span {span} per axis"
        )
    witness_atoms = [apply_power(system, base_atom, pt) for pt in shifted_E.points]
    E = MeasurableSet.of(system, witness_atoms)
    ergodic_ratio = ergodic_halo_measure(system, E, alpha) / E.measure
    discrete_ratio = discrete_halo.ratio
    if ergodic_ratio < discrete_ratio:
        raise AssertionError("transference inequality violated; this is a bug")
    return TransferResult(
        witness=E,
        ergodic_ratio=ergodic_ratio,
        discrete_ratio=discrete_ratio,
        embedded_halo_atoms=tuple(sorted(halo_atoms)),
        shift=shift,
    )


def jump_profile(n_cycle: int, alpha_grid, max_enum: int = EXHAUSTIVE_ATOM_LIMIT) -> list[TauberianEstimate]:
    """Exact Tauberian values of the uniform n-cycle along a threshold grid.

    The profile exhibits the jump of the constant at (2N-2)/(2N-1) for index
    N: the complement of one atom certifies at least N/(N-1) below the jump,
    and above it every halo collapses to its own set.
    """
    n_cycle, max_enum = require_integers((n_cycle, max_enum), "cycle length and max_enum")
    if n_cycle < 2:
        raise DomainError("jump profiles need a cycle of length >= 2")
    _require_enumerable(n_cycle, max_enum)
    system = make_cyclic(n_cycle)
    rows = []
    for alpha in alpha_grid:
        rows.append(exact_tauberian(system, require_alpha(alpha), max_enum=max_enum))
    return rows


# ---------------------------------------------------------------------------
# One-sided (forward window) ergodic operator.
# ---------------------------------------------------------------------------


def one_sided_ergodic_max(system: AtomicSystem, E: MeasurableSet, atom: int) -> Fraction:
    """Forward-window analogue: sup over N >= 0 of the average of the
    indicator over atom, T atom, ..., T^N atom.  Windows longer than the
    orbit period reduce to the full-period average, so lengths 1..P attain
    the supremum."""
    if system.dim != 1:
        raise DomainError("one-sided ergodic operators take a single transformation")
    _check_set(system, E)
    atom = _require_atom(system, atom)
    in_E = set(E.atoms)
    cyc, place = system._layout[0].where[atom]
    best_num, best_den = 0, 1
    cnt = 0
    for length, a in enumerate(cyc[place:] + cyc[:place], start=1):
        if a in in_E:
            cnt += 1
        if cnt * best_den > best_num * length:
            best_num, best_den = cnt, length
    return Fraction(best_num, best_den)


def one_sided_ergodic_halo(system: AtomicSystem, E: MeasurableSet, alpha: Fraction) -> MeasurableSet:
    alpha = require_alpha(alpha)
    if system.dim != 1:
        raise DomainError("one-sided ergodic operators take a single transformation")
    _check_set(system, E)
    return MeasurableSet.of(system, _halo_atoms_1d(system, set(E.atoms), alpha, two_sided=False))


def one_sided_ergodic_halo_measure(system: AtomicSystem, E: MeasurableSet, alpha: Fraction) -> Fraction:
    return one_sided_ergodic_halo(system, E, alpha).measure


def one_sided_exact_tauberian(
    system: AtomicSystem,
    alpha: Fraction,
    max_enum: int = EXHAUSTIVE_ATOM_LIMIT,
    rng_seed: int = 0,
    budget: int = 2000,
) -> TauberianEstimate:
    """One-sided analogue of :func:`exact_tauberian`; the one-sided halo
    refuses a system of more than one transformation."""
    return _tauberian(system, alpha, False, max_enum, rng_seed, budget)
