"""Singularity-free control allocation for signed-quadratic actuation maps.

Implements the full geometry of minimally redundant maps w = A (v .* |v|):
constant-task fibers, the logarithmic potential whose leaves foliate the
actuator space orthogonally to them, the combinatorial layer stratification of
the orthants, and right-inverse allocators confined to a single orthant.
"""
from .allocator import (
    HingeProximity,
    LiftedTrajectory,
    extremal_inverse,
    extremal_inverse_batch,
    lift_trajectory,
    naive_minimum_norm_inverse,
    section_inverse,
    smoothness_probe,
)
from .errors import (
    BoundaryStateError,
    ConfinementError,
    CrossingStateError,
    DegenerateRedundancyError,
    ExtremalSolveError,
    FiberAllocError,
    NaiveSolveError,
    NonGenericSegmentError,
    OriginExcludedError,
    RankDeficientError,
    SectionSolveError,
    WrongShapeError,
)
from .fibers import (
    FiberPoint,
    FiberTrace,
    asymptotic_diagnostics,
    crossing_parameters,
    fiber_point,
    fiber_tangent_space,
    forward_progress,
)
from .model import (
    AllocationModel,
    actuation,
    build_model,
    jacobian,
    load_model,
    transform,
    untransform,
)
from .potential import (
    PotentialValue,
    fiber_segments,
    potential,
    potential_along_fiber,
    potential_gradient,
    potential_near_crossing,
    potential_slope,
    section_intersection,
)
from .section import SectionPoint, layer_section, raise_for_status, solve_rows
from .strata import (
    OrthantSignature,
    StratumDescriptor,
    boundary_strata,
    classify_orthant,
    enumerate_layer,
    extremal_signature,
    hinge_count,
    layer_adjacency_graph,
    reciprocal_hinges,
)

__version__ = "0.1.0"
