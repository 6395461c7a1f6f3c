"""Invariants of the ergodic operators on randomly generated systems."""

import random
from fractions import Fraction as F
from itertools import product
from math import gcd, prod

from taublab import ergodic
from taublab.ergodic import (
    AtomicSystem,
    MeasurableSet,
    TowerBase,
    apply_power,
    ergodic_halo,
    ergodic_halo_measure,
    eval_ergodic_max,
    exact_tauberian,
    index,
    make_cyclic,
    make_torus,
    one_sided_ergodic_halo,
    one_sided_ergodic_halo_measure,
    one_sided_exact_tauberian,
    rokhlin_tower,
)

from oracles import (
    brute_cyclic_cover,
    brute_ergodic_max,
    brute_exact_tauberian,
    brute_one_sided_ergodic_halo,
    brute_subset_classes,
    brute_tower_index,
)


def random_dim1_system(rng, max_atoms=8, uniform=True):
    n = rng.randint(1, max_atoms)
    perm = list(range(n))
    rng.shuffle(perm)
    if uniform:
        masses = tuple([F(1, n)] * n)
    else:
        # commuting with itself and mass-preserving: constant on cycles
        weights = {}
        seen = [False] * n
        for start in range(n):
            if seen[start]:
                continue
            w = rng.randint(1, 4)
            a = start
            while not seen[a]:
                seen[a] = True
                weights[a] = w
                a = perm[a]
        total = sum(weights.values())
        masses = tuple(F(weights[a], total) for a in range(n))
    return AtomicSystem(masses=masses, dim=1, generators=(tuple(perm),))


def random_subset(rng, system):
    n = system.atom_count
    return MeasurableSet.of(system, rng.sample(range(n), rng.randint(1, n)))


def test_halo_measure_invariant_under_the_action():
    rng = random.Random(13)
    for _ in range(25):
        system = random_dim1_system(rng, uniform=rng.random() < 0.5)
        E = random_subset(rng, system)
        alpha = F(rng.randint(1, 9), 10)
        g = system.generators[0]
        moved = MeasurableSet.of(system, (g[a] for a in E.atoms))
        assert ergodic_halo_measure(system, E, alpha) == ergodic_halo_measure(
            system, moved, alpha
        )


def test_value_trichotomy_on_the_two_atom_rotation():
    system = make_cyclic(2)
    values = set()
    for mask in range(1, 4):
        E = MeasurableSet.of(system, [i for i in range(2) if mask >> i & 1])
        for atom in range(2):
            values.add(eval_ergodic_max(system, E, atom))
    assert values <= {F(0), F(2, 3), F(1)}


def test_tauberian_ceiling_dim1():
    """The ergodic constant never beats the discrete 1-D ceiling 2/alpha - 1."""
    rng = random.Random(29)
    for _ in range(12):
        system = random_dim1_system(rng, max_atoms=6, uniform=rng.random() < 0.5)
        alpha = F(rng.randint(1, 11), 12)
        assert exact_tauberian(system, alpha).value <= 2 / alpha - 1


def test_witness_is_lex_least_maximiser():
    """On multi-cycle systems with a different mass on each cycle, the exact
    constant is the best subset ratio, and its witness the least subset that
    attains it, with halos read off the pointwise operator."""
    rng = random.Random(43)
    for _ in range(10):
        lengths = []
        while len(lengths) < 2 or (sum(lengths) < 8 and rng.random() < 0.5):
            lengths.append(rng.randint(1, 8 - sum(lengths) - (len(lengths) == 0)))
        weights = rng.sample(range(1, 7), len(lengths))
        labels = list(range(sum(lengths)))
        rng.shuffle(labels)
        perm, masses, start = {}, {}, 0
        for length, w in zip(lengths, weights):
            cycle = labels[start : start + length]
            start += length
            for i, a in enumerate(cycle):
                perm[a] = cycle[(i + 1) % length]
                masses[a] = F(w)
        n = len(labels)
        mass_sum = sum(masses.values())
        system = AtomicSystem(
            masses=tuple(masses[a] / mass_sum for a in range(n)),
            dim=1,
            generators=(tuple(perm[a] for a in range(n)),),
        )
        for alpha in (F(rng.randint(1, 11), 12), F(1, 2)):
            ratios = {}
            for mask in range(1, 1 << n):
                E = MeasurableSet.of(system, [a for a in range(n) if mask >> a & 1])
                halo_mass = sum(
                    system.masses[a] for a in range(n) if eval_ergodic_max(system, E, a) > alpha
                )
                ratios[E.atoms] = halo_mass / E.measure
            best = max(ratios.values())
            est = exact_tauberian(system, alpha)
            assert est.value == best
            assert est.witness == min(k for k, v in ratios.items() if v == best)


def test_one_sided_ceiling_dim1():
    rng = random.Random(31)
    for _ in range(12):
        system = random_dim1_system(rng, max_atoms=6, uniform=rng.random() < 0.5)
        alpha = F(rng.randint(1, 11), 12)
        assert one_sided_exact_tauberian(system, alpha).value <= 1 / alpha


def test_index_one_collapse():
    """Identity systems (index 1) have constant 1 at every threshold."""
    rng = random.Random(37)
    for _ in range(8):
        n = rng.randint(1, 5)
        weights = [rng.randint(1, 4) for _ in range(n)]
        total = sum(weights)
        system = AtomicSystem(
            masses=tuple(F(w, total) for w in weights),
            dim=1,
            generators=(tuple(range(n)),),
        )
        assert index(system).value == 1
        for alpha in (F(1, 4), F(1, 2), F(3, 4)):
            assert exact_tauberian(system, alpha).value == 1


def test_window_bound_soundness():
    """Doubling the enumeration window beyond twice the atom count never
    changes the value on small systems; the default bound agrees too."""
    rng = random.Random(41)
    for _ in range(10):
        system = random_dim1_system(rng, max_atoms=8)
        E = random_subset(rng, system)
        atom = rng.randrange(system.atom_count)
        m = system.atom_count
        v_default = eval_ergodic_max(system, E, atom)
        v2 = eval_ergodic_max(system, E, atom, side_bound=2 * m)
        v4 = eval_ergodic_max(system, E, atom, side_bound=4 * m)
        assert v_default == v2 == v4
    torus = make_torus(2, 3)
    rng2 = random.Random(43)
    for _ in range(4):
        E = random_subset(rng2, torus)
        atom = rng2.randrange(6)
        v2 = eval_ergodic_max(torus, E, atom, side_bound=12)
        v4 = eval_ergodic_max(torus, E, atom, side_bound=24)
        assert eval_ergodic_max(torus, E, atom) == v2 == v4


def test_eval_matches_unstructured_brute_force():
    """The pointwise value against a direct window scan: on 1-D systems, on
    2-D and 3-D tori, for U_2 = U_1^k and a skewed pair, and with explicit
    side bounds, which the scan uses as its own arms."""
    rng = random.Random(47)
    for _ in range(15):
        system = random_dim1_system(rng, max_atoms=6)
        E = random_subset(rng, system)
        atoms_in = set(E.atoms)
        atom = rng.randrange(system.atom_count)
        want = brute_ergodic_max(
            [list(system.generators[0])], atom, lambda a: a in atoms_in, 2 * system.atom_count
        )
        assert eval_ergodic_max(system, E, atom) == want
    cases = [
        uniform(torus_generators(3, 4)), uniform(torus_generators(2, 2, 3)),
        uniform(power_pair(5, 2)), uniform(power_pair(6, 4)),
        uniform(skewed_pair(4, 2, 1)), uniform(skewed_pair(3, 3, 2)),
        disjoint_union(torus_generators(2, 2), skewed_pair(2, 2, 1)),
    ]
    for masses, generators in cases:
        system = relabelled(rng, masses, generators)
        gens = [list(g) for g in system.generators]
        for side in (None, 0, 2):
            E = random_subset(rng, system)
            atom = rng.randrange(system.atom_count)
            scan = longest_arm(gens) if side is None else side
            want = brute_ergodic_max(gens, atom, set(E.atoms).__contains__, scan)
            assert eval_ergodic_max(system, E, atom, side_bound=side) == want


def test_index_matches_brute_tower_search():
    rng = random.Random(53)
    for _ in range(20):
        system = random_dim1_system(rng, max_atoms=7, uniform=False)
        perm = list(system.generators[0])
        assert index(system).value == brute_tower_index(perm)


def test_torus_generators_shift_one_coordinate():
    """Atom numbers are row-major coordinates; generator i adds 1 modulo the
    size to coordinate i and keeps the others."""
    for axes in (1, 2, 3):
        for sizes in product(range(1, 5), repeat=axes):
            coords = list(product(*(range(s) for s in sizes)))
            number = {c: a for a, c in enumerate(coords)}
            system = make_torus(*sizes)
            assert system.masses == tuple([F(1, len(coords))] * len(coords))
            for axis, g in enumerate(system.generators):
                want = tuple(
                    number[c[:axis] + ((c[axis] + 1) % sizes[axis],) + c[axis + 1:]]
                    for c in coords
                )
                assert g == want, (sizes, axis)


def test_tower_translates_are_disjoint_whenever_built():
    for sizes, heights in [((6,), (4,)), ((3, 4), (2, 3)), ((5, 2), (5, 2))]:
        tower = rokhlin_tower(make_torus(*sizes), heights)
        assert tower.is_disjoint()
        count = 1
        for h in heights:
            count *= h
        assert len(tower.translates()) == count


def test_planar_halo_matches_pointwise_eval():
    """The volume-bounded planar level-set search equals the per-atom
    evaluator on small tori and on a system with two disjoint orbits."""
    rng = random.Random(17)
    systems = [make_torus(2, 2), make_torus(3, 2), make_torus(3, 4)]
    t22, t31 = make_torus(2, 2), make_torus(3, 1)
    g1 = tuple(list(t22.generators[0]) + [x + 4 for x in t31.generators[0]])
    g2 = tuple(list(t22.generators[1]) + [x + 4 for x in t31.generators[1]])
    systems.append(AtomicSystem(masses=(F(1, 7),) * 7, dim=2, generators=(g1, g2)))
    for system in systems:
        total = system.atom_count
        for _ in range(5):
            E = MeasurableSet.of(system, rng.sample(range(total), rng.randint(1, max(1, total // 2))))
            alpha = F(rng.randint(1, 11), 12)
            got = set(ergodic_halo(system, E, alpha).atoms)
            want = {a for a in range(total) if eval_ergodic_max(system, E, a) > alpha}
            assert got == want


def relabelled(rng, masses, generators):
    """The system with these generators (index lists), its atoms renamed."""
    n = len(masses)
    new = list(range(n))
    rng.shuffle(new)
    gens = []
    for g in generators:
        h = [0] * n
        for a in range(n):
            h[new[a]] = new[g[a]]
        gens.append(tuple(h))
    moved = [None] * n
    for a in range(n):
        moved[new[a]] = masses[a]
    return AtomicSystem(masses=tuple(moved), dim=len(gens), generators=tuple(gens))


def power_pair(cycle, k):
    """U_1 the rotation of a cycle, U_2 = U_1^k: one orbit whose period grid
    folds onto the cycle several times."""
    return [[(i + 1) % cycle for i in range(cycle)], [(i + k) % cycle for i in range(cycle)]]


def skewed_pair(a, b, c):
    """U_1 (x, y) = (x + 1, y) and U_2 (x, y) = (x + c, y + 1) on Z_a x Z_b."""
    def cell(x, y):
        return (x % a) * b + y % b

    coords = [(x, y) for x in range(a) for y in range(b)]
    return [[cell(x + 1, y) for x, y in coords], [cell(x + c, y + 1) for x, y in coords]]


def uniform(generators):
    """Equal masses on the atoms of these generators."""
    return [F(1, len(generators[0]))] * len(generators[0]), generators


def torus_generators(*sizes):
    return [list(g) for g in make_torus(*sizes).generators]


def disjoint_union(*parts):
    """Generators side by side; masses 1..k per part, constant on each part."""
    masses, gens, offset = [], [[] for _ in parts[0]], 0
    for weight, part in enumerate(parts, start=1):
        masses += [weight] * len(part[0])
        for g, piece in zip(gens, part):
            g.extend(x + offset for x in piece)
        offset += len(part[0])
    total = sum(masses)
    return [F(m, total) for m in masses], gens


def longest_arm(gens):
    """The longest orbit period minus one, which bounds every arm."""
    side = 0
    for g in gens:
        for start in range(len(g)):
            a, period = g[start], 1
            while a != start:
                a, period = g[a], period + 1
            side = max(side, period - 1)
    return side


def brute_halo_atoms(system, atoms, alpha):
    in_E = set(atoms).__contains__
    gens = [list(g) for g in system.generators]
    side = longest_arm(gens)
    return {a for a in range(len(gens[0])) if brute_ergodic_max(gens, a, in_E, side) > alpha}


def test_nd_halo_matches_brute_window_scan():
    """The per-orbit window coverage agrees with a direct window scan where
    the period grid is not the orbit: 3-D tori, U_2 = U_1^k on one cycle, a
    skewed generator pair, and disjoint orbits of different masses.  So does
    the 1-D tripled-cycle scan, on several cycles with a fixed point, on
    cycles of different masses, and on one 12-cycle."""
    rng = random.Random(59)
    cases = [
        uniform(torus_generators(2, 2, 2)), uniform(torus_generators(1, 2, 3)),
        uniform(power_pair(5, 2)), uniform(power_pair(4, 2)), uniform(power_pair(4, 3)),
        uniform(skewed_pair(4, 2, 1)), uniform(skewed_pair(2, 2, 1)),
        disjoint_union(torus_generators(2, 2), power_pair(3, 1), skewed_pair(2, 2, 1)),
        disjoint_union(torus_generators(3, 1), torus_generators(1, 2)),
        uniform(cycles(5, 3, 1)), disjoint_union(cycles(4), cycles(3), cycles(1), cycles(2)),
        uniform(cycles(12)),
    ]
    for masses, generators in cases:
        system = relabelled(rng, masses, generators)
        total = system.atom_count
        for _ in range(3):
            atoms = rng.sample(range(total), rng.randint(1, max(1, total // 2)))
            alpha = F(rng.randint(1, 11), 12)
            E = MeasurableSet.of(system, atoms)
            want = brute_halo_atoms(system, atoms, alpha)
            assert set(ergodic_halo(system, E, alpha).atoms) == want
            assert ergodic_halo_measure(system, E, alpha) == sum(system.masses[a] for a in want)


def cycles(*lengths):
    """One generator made of cycles of these lengths; a length 1 is a fixed point."""
    perm, start = [], 0
    for length in lengths:
        perm += [start + (i + 1) % length for i in range(length)]
        start += length
    return [perm]


def test_orbit_readers_match_plain_steps():
    """apply_power and TowerBase.translates against stepping each generator,
    or its inverse for a negative exponent, one atom at a time, on a torus
    and on systems whose period grid folds onto the orbit, with exponents in
    [-3Q, 3Q] for the longest period Q.  An empty base still has one empty
    translate per cell."""
    rng = random.Random(83)
    cases = [
        uniform(torus_generators(3, 4)), uniform(power_pair(6, 4)), uniform(skewed_pair(3, 3, 2)),
        disjoint_union(torus_generators(2, 3), power_pair(4, 2), skewed_pair(2, 2, 1)),
    ]
    for masses, generators in cases:
        system = relabelled(rng, masses, generators)
        gens = [list(g) for g in system.generators]
        inverses = []
        for g in gens:
            inverse = [0] * len(g)
            for a, b in enumerate(g):
                inverse[b] = a
            inverses.append(inverse)

        def step(atom, exps):
            for g, inverse, e in zip(gens, inverses, exps):
                for _ in range(abs(e)):
                    atom = (g if e > 0 else inverse)[atom]
            return atom

        Q = longest_arm(gens) + 1
        for _ in range(40):
            atom = rng.randrange(system.atom_count)
            exps = [rng.randint(-3 * Q, 3 * Q) for _ in gens]
            assert apply_power(system, atom, exps) == step(atom, exps)
        for size in (2, 3, 0):
            base = MeasurableSet.of(system, rng.sample(range(system.atom_count), size))
            heights = tuple(rng.randint(1, Q) for _ in gens)
            want = [tuple(sorted(step(a, exps) for a in base.atoms))
                    for exps in product(*map(range, heights))]
            assert TowerBase(base=base, heights=heights).translates() == want
            assert len(want) == prod(heights)


def test_one_sided_halo_matches_brute_forward_scan():
    """The one-sided halo and its measure against a direct scan of the
    forward windows of each atom's cycle, on 1-D systems of several cycles
    with fixed points and masses that differ from cycle to cycle."""
    rng = random.Random(67)
    for _ in range(40):
        lengths = [rng.choice((1, 1, 2, 3, 4, 7, 12)) for _ in range(rng.randint(1, 5))]
        masses, generators = disjoint_union(*(cycles(n) for n in lengths))
        system = relabelled(rng, masses, generators)
        total = system.atom_count
        perm = list(system.generators[0])
        for _ in range(3):
            E = MeasurableSet.of(system, rng.sample(range(total), rng.randint(1, total)))
            alpha = F(rng.randint(1, 23), 24)
            want = brute_one_sided_ergodic_halo(perm, set(E.atoms).__contains__, alpha)
            assert one_sided_ergodic_halo(system, E, alpha).atoms == tuple(want)
            measure = sum((system.masses[a] for a in want), F(0))
            assert one_sided_ergodic_halo_measure(system, E, alpha) == measure


def test_covered_cyclic_matches_brute_cyclic_cover():
    """The dense cyclic scan of both ergodic halos, two-sided and one-sided,
    against every run summed, on cycles of 1..15 integer weights whose period
    totals are negative, zero (the last weight is set to make it so) and
    positive.  The test counts that it met cycles only partly covered."""
    rng = random.Random(1313)
    totals, partial = set(), 0
    for i in range(300):
        P = rng.randint(1, 15)
        w = [rng.randint(-6, 4) for _ in range(P)]
        if i % 3 == 0:
            w[-1] -= sum(w)
        totals.add((sum(w) > 0) - (sum(w) < 0))
        for two_sided in (True, False):
            want = brute_cyclic_cover(w, two_sided)
            assert ergodic._covered_cyclic(w, two_sided) == want
            partial += any(want) and not all(want)
    assert totals == {-1, 0, 1}
    assert partial >= 50


def test_class_enumeration_matches_full_enumeration():
    """Exact constants from one halo per class of subsets under the generated
    group agree, value and witness, with every subset enumerated.  Cycles of
    composite length hold periodic sets such as {0, 2, 4} on a 6-cycle, whose
    classes are smaller than the group.  A 1-D system is taken at the jump
    (2N - 2)/(2N - 1) +- 1/(8N^2) of each of its cycles, and also one-sided."""
    rng = random.Random(61)
    cases = [uniform(cycles(n)) for n in range(1, 13)]
    cases += [
        uniform(cycles(3, 3)), uniform(cycles(2, 2, 2, 2)), uniform(cycles(4, 4, 2)),
        disjoint_union(cycles(3), cycles(3)), disjoint_union(cycles(5), cycles(2), cycles(1)),
        uniform(cycles(4, 1, 1)), uniform(cycles(1, 1, 1)), disjoint_union(cycles(6), cycles(1)),
        uniform(torus_generators(2, 2)), uniform(torus_generators(2, 3)),
        uniform(torus_generators(3, 3)), uniform(torus_generators(2, 4)),
        uniform(torus_generators(3, 4)), uniform(torus_generators(2, 2, 2)),
        uniform(power_pair(6, 2)), uniform(power_pair(8, 3)), uniform(skewed_pair(4, 2, 1)),
        disjoint_union(torus_generators(2, 2), skewed_pair(2, 2, 1)),
    ]
    for masses, generators in cases:
        system = relabelled(rng, masses, generators)
        alphas = {F(rng.randint(1, 11), 12)}
        if system.dim == 1:
            perm = generators[0]
            for start in range(len(perm)):
                a, period = perm[start], 1
                while a != start:
                    a, period = perm[a], period + 1
                jump = F(2 * period - 2, 2 * period - 1)
                alphas |= {jump - F(1, 8 * period**2), jump + F(1, 8 * period**2)}
        else:
            alphas.add(F(1, 2))
        sides = (False, True) if system.dim == 1 else (False,)
        for alpha in sorted(a for a in alphas if 0 < a < 1):
            for one_sided in sides:
                constant = one_sided_exact_tauberian if one_sided else exact_tauberian
                est = constant(system, alpha)
                assert (est.value, est.witness) == brute_exact_tauberian(system, alpha, one_sided)


def necklace_count(n):
    """Binary necklaces of length n, by Burnside: (1/n) sum over d | n of
    phi(d) 2^(n/d)."""
    phi = lambda d: sum(1 for i in range(1, d + 1) if gcd(i, d) == 1)
    return sum(phi(d) * 2 ** (n // d) for d in range(1, n + 1) if n % d == 0) // n


def test_single_cycles_score_one_class_per_necklace(monkeypatch):
    """A uniform n-cycle scores each nonempty binary necklace once: N(n) - 1
    cyclic scans for n = 1..16, on both sides (N(16) = 4116)."""
    scans = []
    covered = ergodic._covered_cyclic
    monkeypatch.setattr(ergodic, "_covered_cyclic", lambda w, two_sided=True: scans.append(
        two_sided) or covered(w, two_sided))
    assert necklace_count(16) == 4116
    for n in range(1, 17):
        for constant in (exact_tauberian, one_sided_exact_tauberian):
            scans.clear()
            constant(make_cyclic(n), F(1, 2))
            assert len(scans) == necklace_count(n) - 1


def test_only_single_cycles_take_the_necklace_walk(monkeypatch):
    walks = []
    monkeypatch.setattr(ergodic, "_necklace_tauberian", lambda *args: walks.append(args[0]))
    for masses, generators in [uniform(cycles(3, 3)), uniform(cycles(5, 1)),
                               uniform(torus_generators(2, 3))]:
        exact_tauberian(AtomicSystem(tuple(masses), len(generators), tuple(map(tuple, generators))),
                        F(1, 2))
    assert walks == []
    exact_tauberian(make_cyclic(6), F(1, 2))
    assert len(walks) == 1


def test_closure_walk_scores_one_subset_per_class(monkeypatch):
    """Tori and relabelled multi-cycle systems, with masses that differ from
    cycle to cycle, compute one halo per class of subsets under the generated
    group, on both sides where there is one generator."""
    calls = []
    for name in ("ergodic_halo", "one_sided_ergodic_halo"):
        halo = getattr(ergodic, name)
        monkeypatch.setattr(ergodic, name, lambda *args, halo=halo: calls.append(1) or halo(*args))
    rng = random.Random(22)
    systems = [make_torus(2, 3), make_torus(3, 3), make_torus(2, 2, 2)]
    systems += [relabelled(rng, *disjoint_union(*map(cycles, lengths)))
                for lengths in [(3, 3), (4, 2, 1), (5, 3), (6, 4, 2), (2, 2, 2, 1)]]
    for system in systems:
        classes = brute_subset_classes(system)
        constants = [exact_tauberian] + [one_sided_exact_tauberian] * (system.dim == 1)
        for constant in constants:
            calls.clear()
            constant(system, F(1, 2))
            assert len(calls) == classes, (system, constant)


def test_necklace_walk_matches_closure_walk_past_the_oracle():
    """Value and witness of the necklace walk against the closure walk,
    called directly, on relabelled single cycles of 13..16 atoms: at the jump
    (2N - 2)/(2N - 1) +- 1/(8N^2) and two more thresholds, on both sides."""
    rng = random.Random(1978)
    for n in range(13, 17):
        system = relabelled(rng, *uniform(cycles(n)))
        jump = F(2 * n - 2, 2 * n - 1)
        alphas = [jump - F(1, 8 * n * n), jump + F(1, 8 * n * n),
                  F(rng.randint(1, 9), 10), F(rng.randint(1, 2 * n - 1), 2 * n)]
        for alpha in alphas:
            for halo_of, constant in [(ergodic_halo, exact_tauberian),
                                      (one_sided_ergodic_halo, one_sided_exact_tauberian)]:
                est = constant(system, alpha)
                ref = ergodic._exhaustive_tauberian(system, alpha, halo_of)
                assert (est.value, est.witness, est.strategy) == (ref.value, ref.witness, ref.strategy)


def test_ties_that_cannot_win_are_not_offered(monkeypatch):
    """Both walks skip a tie when (0, ..., k - 1), the least sorted k-subset,
    does not lie below the best key, so they build no witness for it.  The
    cases include ties with the key (0, ..., k - 1) itself."""
    offers = []

    class Checked(ergodic.LexMax):
        def offer(self, num, den, key):
            if num * self.den == self.num * den:
                offers.append(tuple(range(len(key))) < self.key)
            super().offer(num, den, key)

    monkeypatch.setattr(ergodic, "LexMax", Checked)
    rng = random.Random(24)
    systems = [make_cyclic(n) for n in range(2, 11)]
    systems += [relabelled(rng, *uniform(cycles(n))) for n in range(4, 11)]
    systems += [relabelled(rng, *uniform(cycles(4, 4))), relabelled(rng, *uniform(cycles(5, 1, 1)))]
    for system in systems:
        for k in range(1, 24):
            exact_tauberian(system, F(k, 24))
            one_sided_exact_tauberian(system, F(k, 24))
    assert offers and all(offers)
