"""Frozen examples for finite measure-preserving systems."""

import subprocess
import sys
import time
from fractions import Fraction as F
from itertools import product

import pytest

from taublab.errors import DomainError
from taublab.ergodic import (
    AtomicSystem,
    MeasurableSet,
    TowerBase,
    ergodic_halo_measure,
    eval_ergodic_max,
    exact_tauberian,
    index,
    jump_profile,
    make_cyclic,
    make_torus,
    one_sided_ergodic_max,
    one_sided_exact_tauberian,
    rokhlin_tower,
    apply_power,
    transfer_witness,
)
from taublab.lattice import LatticeSet, interval, lattice_set


class TestValidation:
    def test_swap_is_valid(self):
        AtomicSystem(masses=(F(1, 2), F(1, 2)), dim=1, generators=((1, 0),))

    def test_mass_not_preserved(self):
        with pytest.raises(DomainError, match="generator 0 does not preserve mass"):
            AtomicSystem(masses=(F(1, 3), F(2, 3)), dim=1, generators=((1, 0),))

    def test_noncommuting_generators(self):
        with pytest.raises(DomainError, match="generators 0 and 1 do not commute"):
            AtomicSystem(masses=(F(1, 3),) * 3, dim=2, generators=((1, 0, 2), (0, 2, 1)))

    def test_masses_must_sum_to_one(self):
        with pytest.raises(DomainError, match="sum"):
            AtomicSystem(masses=(F(1, 2), F(1, 3)), dim=1, generators=((1, 0),))

    def test_not_a_permutation(self):
        with pytest.raises(DomainError, match="generator 0 is not a permutation"):
            AtomicSystem(masses=(F(1, 2), F(1, 2)), dim=1, generators=((0, 0),))

    @pytest.mark.parametrize("half", [0.5, "1/2"])
    def test_inexact_masses_refused(self, half):
        with pytest.raises(DomainError, match="exact rational"):
            AtomicSystem(masses=(half, half), dim=1, generators=((1, 0),))

    def test_float_generator_entry_refused(self):
        with pytest.raises(DomainError, match="generator 0"):
            AtomicSystem(masses=(F(1, 2), F(1, 2)), dim=1, generators=((1.0, 0),))

    def test_non_integer_dim_refused(self):
        for dim in (1.0, "1", F(1)):
            with pytest.raises(DomainError, match="dimension"):
                AtomicSystem(masses=(F(1, 2), F(1, 2)), dim=dim, generators=((1, 0),))

    def test_masses_over_one_refused_before_halo_measure(self):
        # these masses once gave a halo measure of 3/2
        with pytest.raises(DomainError, match="sum"):
            AtomicSystem(masses=(F(1, 2),) * 3, dim=1, generators=((1, 2, 0),))

    def test_non_permutation_refused_before_halo_or_eval(self):
        # this generator once gave a halo and pointwise values
        with pytest.raises(DomainError, match="generator 0 is not a permutation"):
            AtomicSystem(masses=(F(1, 3),) * 3, dim=1, generators=((0, 0, 1),))

    def test_nonpositive_mass_names_atom(self):
        with pytest.raises(DomainError, match=r"positive exact rational \(atoms \(1,\)\)"):
            AtomicSystem(masses=(F(1), F(0)), dim=1, generators=((0, 1),))

    def test_lists_are_accepted_and_stored_as_tuples(self):
        system = AtomicSystem(masses=[F(1, 2), 1 - F(1, 2)], dim=1, generators=[[1, 0]])
        assert system == make_cyclic(2)
        assert system.masses == (F(1, 2), F(1, 2)) and system.generators == ((1, 0),)

    def test_integer_masses_become_fractions(self):
        system = AtomicSystem(masses=(1,), dim=1, generators=((0,),))
        assert type(system.masses[0]) is F
        assert ergodic_halo_measure(system, MeasurableSet.of(system, [0]), F(1, 2)) == 1


class TestConstructors:
    def test_cyclic_is_valid(self):
        for n in (1, 2, 5, 12):
            assert make_cyclic(n).atom_count == n

    def test_cyclic_one_has_index_one(self):
        assert index(make_cyclic(1)).value == 1

    def test_torus(self):
        system = make_torus(3, 4)
        assert system.atom_count == 12
        assert system.dim == 2

    def test_zero_sizes_rejected(self):
        with pytest.raises(DomainError):
            make_cyclic(0)
        with pytest.raises(DomainError):
            make_torus(3, 0)

    def test_torus_refuses_non_integer_sizes(self):
        for sizes in ((2, 2.0), (2, "3"), (F(3),)):
            with pytest.raises(DomainError):
                make_torus(*sizes)

    def test_cyclic_refuses_non_integer_size(self):
        for n in (2.5, "3", F(3)):
            with pytest.raises(DomainError):
                make_cyclic(n)


class TestEval:
    def test_two_atom_rotation_off_set(self):
        # the window of radius one around the off-atom sees the set twice
        system = make_cyclic(2)
        E = MeasurableSet.of(system, [0])
        assert eval_ergodic_max(system, E, 1) == F(2, 3)

    def test_atom_inside_set(self):
        system = make_cyclic(5)
        E = MeasurableSet.of(system, [2])
        assert eval_ergodic_max(system, E, 2) == 1

    def test_three_cycle_matches_jump_threshold(self):
        system = make_cyclic(3)
        E = MeasurableSet.of(system, [1, 2])
        assert eval_ergodic_max(system, E, 0) == F(4, 5)

    def test_orbit_missing_the_set_gives_zero(self):
        # two 2-cycles, and in 2-D two disjoint copies of the 2 x 2 torus;
        # the empty pattern of the far orbit has value 0 at every side bound
        line = AtomicSystem(masses=(F(1, 4),) * 4, dim=1, generators=((1, 0, 3, 2),))
        E = MeasurableSet.of(line, [0, 1])
        assert [eval_ergodic_max(line, E, a) for a in range(4)] == [1, 1, 0, 0]
        assert eval_ergodic_max(line, E, 3, side_bound=5) == 0
        t22 = make_torus(2, 2)
        gens = tuple(g + tuple(x + 4 for x in g) for g in t22.generators)
        plane = AtomicSystem(masses=(F(1, 8),) * 8, dim=2, generators=gens)
        E = MeasurableSet.of(plane, [1])
        assert eval_ergodic_max(plane, E, 0) == F(2, 3)  # the window [-1, 1] on axis 1
        assert [eval_ergodic_max(plane, E, a) for a in range(4, 8)] == [0] * 4
        assert eval_ergodic_max(plane, E, 6, side_bound=3) == 0

    def test_invalid_atom(self):
        system = make_cyclic(2)
        E = MeasurableSet.of(system, [0])
        with pytest.raises(DomainError):
            eval_ergodic_max(system, E, 5)

    def test_non_integer_atoms_rejected(self):
        system = make_cyclic(5)
        with pytest.raises(DomainError):
            MeasurableSet.of(system, [0.5, 1.9])
        with pytest.raises(DomainError):
            apply_power(system, 0, [1.7])
        assert MeasurableSet.of(system, [True, 3]).atoms == (1, 3)
        assert apply_power(system, 0, [7]) == 2

    def test_apply_power_atom_out_of_range(self):
        system = make_cyclic(3)
        for atom in (7, -1, 0.5):
            with pytest.raises(DomainError):
                apply_power(system, atom, (1,))

    def test_apply_power_costs_one_lookup_per_axis(self):
        # exponents near the period; stepping the permutation made each call
        # linear in its exponent
        n = 10**5
        system = make_cyclic(n)
        start = time.perf_counter()
        for k in range(1000):
            assert apply_power(system, k, (n - 1 - k,)) == n - 1
        assert time.perf_counter() - start < 0.5

    def test_non_integer_side_bound_rejected(self):
        system = make_cyclic(3)
        E = MeasurableSet.of(system, [0])
        with pytest.raises(DomainError):
            eval_ergodic_max(system, E, 0, side_bound=2.5)
        assert eval_ergodic_max(system, E, 0, side_bound=2) == 1

    def test_empty_set_rejected(self):
        system = make_cyclic(2)
        E = MeasurableSet.of(system, [])
        with pytest.raises(DomainError):
            eval_ergodic_max(system, E, 0)


class TestHaloMeasure:
    def test_two_atom_rotation_low_threshold(self):
        system = make_cyclic(2)
        E = MeasurableSet.of(system, [0])
        assert ergodic_halo_measure(system, E, F(1, 2)) == 1

    def test_two_atom_rotation_high_threshold(self):
        system = make_cyclic(2)
        E = MeasurableSet.of(system, [0])
        assert ergodic_halo_measure(system, E, F(3, 4)) == F(1, 2)

    def test_full_space(self):
        system = make_cyclic(4)
        E = MeasurableSet.of(system, range(4))
        for alpha in (F(1, 10), F(1, 2), F(9, 10)):
            assert ergodic_halo_measure(system, E, alpha) == 1


class TestTauberian:
    @pytest.mark.parametrize(
        "alpha,expected",
        [(F(1, 2), 2), (F(13, 20), 2), (F(2, 3), 1), (F(3, 4), 1)],
    )
    def test_two_atom_rotation_piecewise(self, alpha, expected):
        assert exact_tauberian(make_cyclic(2), alpha).value == expected

    def test_three_cycle_below_jump(self):
        est = exact_tauberian(make_cyclic(3), F(7, 10))
        assert est.value == F(3, 2)  # enumeration over the 7 nonempty subsets
        assert est.value >= F(3, 2)
        assert est.mode == "exact"

    def test_witness_is_lexicographically_least(self):
        est = exact_tauberian(make_cyclic(2), F(1, 2))
        assert est.witness == (0,)

    def test_alpha_domain(self):
        with pytest.raises(DomainError):
            exact_tauberian(make_cyclic(2), F(1))

    @pytest.mark.parametrize("kwargs", [{"budget": 2.5}, {"rng_seed": 1.5}, {"max_enum": "20"}])
    @pytest.mark.parametrize("constant", [exact_tauberian, one_sided_exact_tauberian])
    def test_refuses_non_integer_arguments(self, constant, kwargs):
        with pytest.raises(DomainError):
            constant(make_cyclic(3), F(1, 2), **kwargs)

    def test_heuristic_ends_on_one_atom(self):
        # run apart, so a search that never ends fails instead of hanging the suite
        code = (
            "from fractions import Fraction; from taublab.ergodic import *; "
            "print(exact_tauberian(make_cyclic(1), Fraction(1, 2), max_enum=0).value, "
            "one_sided_exact_tauberian(make_cyclic(1), Fraction(1, 2), max_enum=0).value)"
        )
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=30)
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["1", "1"]

    @pytest.mark.parametrize("constant", [exact_tauberian, one_sided_exact_tauberian])
    def test_max_enum_cannot_raise_the_exhaustive_limit(self, constant):
        # 2^40 masks would be walked, and a terabyte marked
        with pytest.raises(DomainError, match="refusing exhaustive enumeration over 40 atoms"):
            constant(make_cyclic(40), F(1, 2), max_enum=40)

    def test_heuristic_mode_above_limit(self):
        est = exact_tauberian(make_cyclic(24), F(1, 2), max_enum=10, budget=50)
        assert est.mode == "heuristic"
        # certified lower bound: a ratio some subset actually achieves
        E = MeasurableSet.of(make_cyclic(24), est.witness)
        measured = ergodic_halo_measure(make_cyclic(24), E, F(1, 2)) / E.measure
        assert measured == est.value


class TestIndex:
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 12])
    def test_cyclic(self, n):
        result = index(make_cyclic(n))
        assert result.value == n
        assert not result.infinite
        assert result.certificate.is_disjoint()

    def test_identity(self):
        system = AtomicSystem(masses=(F(1, 4),) * 4, dim=1, generators=((0, 1, 2, 3),))
        assert index(system).value == 1

    def test_three_cycle_plus_fixed_point(self):
        system = AtomicSystem(
            masses=(F(1, 4),) * 4, dim=1, generators=((1, 2, 0, 3),)
        )
        result = index(system)
        assert result.value == 3
        assert result.cycle_lengths == (1, 3)

    def test_undefined_in_higher_dimension(self):
        with pytest.raises(DomainError):
            index(make_torus(2, 2))


class TestJumpProfile:
    def test_two_cycle_formula(self):
        rows = jump_profile(2, [F(1, 2), F(3, 4)])
        assert [r.value for r in rows] == [2, 1]

    def test_three_cycle(self):
        rows = jump_profile(3, [F(7, 10), F(9, 10)])
        assert rows[0].value >= F(3, 2)
        assert rows[1].value == 1

    def test_four_cycle_jump_bracketing(self):
        jump = F(6, 7)
        rows = jump_profile(4, [jump - F(1, 100), jump + F(1, 100)])
        assert rows[0].value >= F(4, 3)
        assert rows[1].value == 1

    def test_refuses_above_limit(self):
        with pytest.raises(DomainError):
            jump_profile(25, [F(1, 2)])

    def test_max_enum_cannot_raise_the_limit(self):
        with pytest.raises(DomainError, match="limit 20"):
            jump_profile(40, [F(1, 2)], max_enum=40)

    @pytest.mark.parametrize("args", [("5", 20), (5, 20.0)])
    def test_refuses_non_integer_arguments(self, args):
        with pytest.raises(DomainError):
            jump_profile(args[0], [F(1, 2)], max_enum=args[1])


class TestTowers:
    def test_cyclic_tower(self):
        tower = rokhlin_tower(make_torus(8), (5,))
        assert tower.base.atoms == (0,)
        assert len(tower.translates()) == 5
        assert tower.is_disjoint()

    def test_planar_tower(self):
        tower = rokhlin_tower(make_torus(4, 4), (3, 3))
        assert len(tower.translates()) == 9
        assert tower.is_disjoint()

    def test_pigeonhole_obstruction(self):
        with pytest.raises(DomainError):
            rokhlin_tower(make_torus(2), (3,))

    def test_impossible_height_refused_before_building(self):
        # 10^6 translates of one atom cannot be disjoint on 2 atoms
        start = time.perf_counter()
        with pytest.raises(DomainError, match="translates collide"):
            rokhlin_tower(make_cyclic(2), (10**6,))
        assert time.perf_counter() - start < 0.5

    def test_non_integer_heights_rejected(self):
        with pytest.raises(DomainError):
            rokhlin_tower(make_cyclic(8), (2.9,))

    def test_translates_step_in_exponent_order(self):
        system = make_torus(3, 4)
        tower = TowerBase(base=MeasurableSet.of(system, [0, 5]), heights=(2, 3))
        assert tower.translates() == [
            tuple(sorted(apply_power(system, a, exps) for a in (0, 5)))
            for exps in product(range(2), range(3))
        ]

    def test_tall_towers_are_linear(self):
        # one step per translate; one apply_power per translate made the
        # tower quadratic in its height
        system = make_cyclic(20_000)
        for build in (lambda: rokhlin_tower(system, (20_000,)), lambda: index(system)):
            start = time.perf_counter()
            build()
            assert time.perf_counter() - start < 1
        assert index(system).value == 20_000


class TestTransfer:
    def test_pair_into_large_cycle(self):
        res = transfer_witness(make_cyclic(100), lattice_set([0, 1]), F(1, 2))
        assert res.discrete_ratio == 2
        assert res.ergodic_ratio == 2

    def test_trivial_case(self):
        res = transfer_witness(make_cyclic(10), lattice_set([0]), F(2, 3))
        assert res.ergodic_ratio == res.discrete_ratio == 1

    def test_block_sixty_into_4096(self):
        res = transfer_witness(make_cyclic(4096), interval(60), F(1, 2))
        assert res.discrete_ratio == F(89, 30)
        assert res.ergodic_ratio >= F(89, 30)

    def test_too_small_system(self):
        with pytest.raises(DomainError, match="too small"):
            transfer_witness(make_cyclic(3), lattice_set([0, 1]), F(1, 2))

    def test_witness_measure_matches_definition(self):
        system = make_cyclic(64)
        res = transfer_witness(system, lattice_set([0, 2, 3]), F(1, 2))
        assert res.witness.measure == F(3, 64)

    def test_planar_witness_into_torus(self):
        E = LatticeSet.from_points([(0, 0), (1, 1), (0, 1)])
        res = transfer_witness(make_torus(12, 12), E, F(1, 3))
        assert res.discrete_ratio == 8
        assert res.ergodic_ratio >= res.discrete_ratio
        assert res.ergodic_ratio == 8  # 12 periods leave no wrapped window above 1/3
        with pytest.raises(DomainError):
            transfer_witness(make_torus(3, 3), E, F(1, 3))


class TestOneSidedErgodic:
    def test_two_atom_rotation_forward(self):
        system = make_cyclic(2)
        E = MeasurableSet.of(system, [0])
        assert one_sided_ergodic_max(system, E, 1) == F(1, 2)

    @pytest.mark.parametrize("alpha,expected", [(F(1, 3), 2), (F(1, 2), 1), (F(3, 4), 1)])
    def test_two_atom_rotation_constant(self, alpha, expected):
        assert one_sided_exact_tauberian(make_cyclic(2), alpha).value == expected

    def test_large_cycle_heuristic_band(self):
        est = one_sided_exact_tauberian(make_cyclic(64), F(1, 2), budget=300)
        assert est.mode == "heuristic"
        assert F(19, 10) < est.value <= 2

    def test_dimension_restriction(self):
        system = make_torus(2, 2)
        with pytest.raises(DomainError):
            one_sided_exact_tauberian(system, F(1, 2))
