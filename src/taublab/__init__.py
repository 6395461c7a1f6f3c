"""taublab: exact maximal-operator level sets and Tauberian constants.

A computational laboratory for the discrete strong maximal operator on the
integer lattice, its one-sided cousin, and their ergodic counterparts on
finite measure-preserving systems.  Halo sets, halo ratios, Tauberian
suprema, tower indices, and transference constructions are all computed with
exact rational arithmetic; searches produce certified lower bounds with
reproducible witnesses.
"""

__version__ = "0.1.0"

from .errors import DomainError, InputFormatError, TaubLabError
from .estimate import TauberianEstimate
from .lattice import (
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
from .ergodic import (
    AtomicSystem,
    IndexResult,
    MeasurableSet,
    TowerBase,
    TransferResult,
    apply_power,
    ergodic_halo,
    ergodic_halo_measure,
    eval_ergodic_max,
    exact_tauberian,
    index,
    jump_profile,
    make_cyclic,
    make_torus,
    one_sided_ergodic_halo,
    one_sided_ergodic_halo_measure,
    one_sided_ergodic_max,
    one_sided_exact_tauberian,
    rokhlin_tower,
    transfer_witness,
)
from .rational import format_rational, parse_rational, require_alpha
from .search import (
    ModulusReport,
    SearchConfig,
    SolyanikReport,
    SweepResult,
    anneal_search,
    exhaustive_search,
    family_search,
    holder_modulus,
    reference_sweep,
    run_strategy,
    solyanik_probe,
    sweep,
)

__all__ = [name for name in dir() if not name.startswith("_")]
