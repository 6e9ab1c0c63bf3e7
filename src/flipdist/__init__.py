"""Flip distance between triangulations of a planar point set.

Two engines: an exact oracle over the flip graph for small inputs (A*
on the count of goal-absent edges, with plain breadth-first search as
its independent reference), and a bounded-nondeterminism decision
procedure for "distance equals k" whose work depends on k rather than on
the size of the flip graph.  The flip_dag module exposes the dependency structure of
flip sequences that justifies the second engine.
"""

from .triangulation import (
    Edge,
    InadmissibleFlip,
    InvalidTriangulation,
    Point,
    PointSet,
    PointSetMismatch,
    Triangle,
    Triangulation,
    changed_edges,
    make_edge,
    make_triangle,
)
from .flip_dag import (
    FlipDag,
    FlipRecord,
    FlipSequence,
    InvalidFlipSequence,
    apply_sequence,
    build_dag,
    classify_essential,
    components,
)
from .oracle import (
    SearchBudgetExceeded,
    astar_distance,
    bfs_distance,
    enumerate_minimal_solutions,
    enumerate_triangulations,
)
from .fpt_solver import (
    MachineState,
    SolverStats,
    decide_flip_distance_eq,
    exists_solution_with_exactly_k_flips,
    fpt_distance,
    legal_actions,
)
from .instances import (
    GenerationError,
    Instance,
    InstanceFormatError,
    generate_instance,
    parse_instance,
    render_instance,
    scan_triangulation,
)

__version__ = "0.1.0"

__all__ = [
    "Point",
    "Edge",
    "Triangle",
    "PointSet",
    "Triangulation",
    "InvalidTriangulation",
    "InadmissibleFlip",
    "PointSetMismatch",
    "changed_edges",
    "make_edge",
    "make_triangle",
    "FlipDag",
    "FlipRecord",
    "FlipSequence",
    "InvalidFlipSequence",
    "apply_sequence",
    "build_dag",
    "classify_essential",
    "components",
    "SearchBudgetExceeded",
    "astar_distance",
    "bfs_distance",
    "enumerate_minimal_solutions",
    "enumerate_triangulations",
    "MachineState",
    "SolverStats",
    "decide_flip_distance_eq",
    "exists_solution_with_exactly_k_flips",
    "fpt_distance",
    "legal_actions",
    "GenerationError",
    "Instance",
    "InstanceFormatError",
    "generate_instance",
    "parse_instance",
    "render_instance",
    "scan_triangulation",
]
