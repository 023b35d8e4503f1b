"""disclab: capacities, interpolation diagnostics, and Bergman-tree
potential theory on the unit disc."""

__version__ = "0.1.0"

from .errors import (
    DisclabError,
    DomainError,
    InputError,
    NumericalError,
    ResolutionError,
)
from .geometry import (
    ORIGIN,
    Arc,
    CarlesonBox,
    DiscPoint,
    HyperbolicDisc,
    boundary_arc,
    carleson_box,
    expanded_box,
    harmonic_measure,
    kernel_norm_sq,
)
from .capacity import (
    CondenserSpec,
    GridPotential,
    PolarGrid,
    condenser_capacity,
    equilibrium_measure,
    grid_condenser_capacity,
    log_capacity,
)
from .sequences import (
    CheckReport,
    Sequence,
    assemble_sobolev_interpolant,
    check_capacitary_condition,
    check_carleson,
    check_finite_measure,
    check_theorem_d,
    check_weak_separation,
    disjoint_boxes,
    restricted_vicinity,
    union,
    vicinity,
)
from .tree import (
    CombSpec,
    TreeCondenser,
    TreeNode,
    comb_capacity_closed_form,
    comb_capacity_recursive,
    comb_lower_bound_check,
    comb_sweep,
    counterexample_scenario,
    tree_capacity_exact,
    tree_capacity_recursive,
    tree_disc_distance_check,
)
