"""Numerics for weighted graphs of finite measure.

The package computes the two fundamental metrics of a weighted graph
(the inverse-weight path metric and the square-root resistance metric),
verifies intrinsic-metric inequalities, assembles Dirichlet/Neumann
operators with their spectra and heat semigroups, solves boundary value
problems, estimates capacities along exhaustions, performs the
killing-term reduction through a virtual heart vertex, and classifies
graphs and families by the four compactness conditions.
"""

from .core import (
    EnergyReport,
    Measure,
    VertexFunction,
    WeightedGraph,
    apply_laplacian,
    energy,
    energy_inner,
    norm_o,
    quadratic_form_matrix,
    validate_graph,
    validate_graph_data,
)
from .diagnose import ClassificationReport, diagnose
from .exhaustion import (
    AnalyticFacts,
    Ball,
    ConvergenceReport,
    GraphFamily,
    ball,
    induced_subgraph,
    monitor,
)
from .families import FamilySpec, make, parse_family_spec, witness_functions
from .harmonic import (
    CapacitySequence,
    DirichletProblem,
    capacity,
    capacity_to_set,
    check_max_principle,
    constant_approximation_defect,
    solve_dirichlet,
)
from .heart import HEART, HeartGraph, compare_metrics, harmonic_component, reduce
from .metrics import (
    IntrinsicCheck,
    LengthFunction,
    PseudometricTable,
    path_metric,
    set_distance,
    sigma_from_function,
    sigma_upper_bounds,
    verify_intrinsic,
)
from .resistance import (
    ResistanceResult,
    all_pairs_rho,
    free_resistance,
    resistance_finite,
    rho,
    rho_diameter_estimate,
    rho_o,
)
from .spectral import (
    HeatResult,
    SpectrumResult,
    TruncatedOperator,
    assemble,
    heat,
    spectrum,
    trace_convergence,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
