"""Semidefinite lower bounds for the Gromov-Wasserstein distance.

The package bounds the quadratic distortion infimum between finite metric
measure spaces from below through a hierarchy of moment relaxations, and
ships the supporting machinery: a dense SDP interior-point solver, an
exhaustive oracle for tiny instances, coarsening and gluing transforms on
coupling tensors, and empirical-sampling experiments.
"""

from .spaces import (MetricMeasureSpace, ValidationError, Coupling,
                     CostTensor, build_cost_tensor, load_space,
                     normalize_diameter, merge_coincident_points,
                     product_coupling, lipschitz_constant)
from .hierarchy import (gw_lower_bound, gw_lower_bounds, assemble_relaxation,
                        GwBound, TensorMeasure, moments_to_tensor_measure,
                        tensor_measure_to_moments, coupling_tensor_measure,
                        check_tensor_measure)
from .oracle import brute_force_gw, evaluate_objective, OracleResult
from .geometry import (CellPartition, build_cell_partition,
                       concentrate_space, concentrate_coupling,
                       extend_coupling, concentrate_tensor, extend_tensor,
                       glue, pseudo_metric_check, concentration_error_bound)
from .sampling import (GroundDistribution, ground_interval, ground_circle,
                       ground_finite, ground_mixture, sample_empirical,
                       build_dyadic_partition, transport_upper_bound,
                       rate_bound, consistency_experiment, RateReport)
from . import sdp

__version__ = "0.1.0"

__all__ = [
    "MetricMeasureSpace", "ValidationError", "Coupling", "CostTensor",
    "build_cost_tensor", "load_space", "normalize_diameter",
    "merge_coincident_points", "product_coupling", "lipschitz_constant",
    "gw_lower_bound", "gw_lower_bounds", "assemble_relaxation", "GwBound",
    "TensorMeasure",
    "moments_to_tensor_measure", "tensor_measure_to_moments",
    "coupling_tensor_measure", "check_tensor_measure",
    "brute_force_gw", "evaluate_objective", "OracleResult",
    "CellPartition", "build_cell_partition", "concentrate_space",
    "concentrate_coupling", "extend_coupling", "concentrate_tensor",
    "extend_tensor", "glue", "pseudo_metric_check",
    "concentration_error_bound",
    "GroundDistribution", "ground_interval", "ground_circle",
    "ground_finite", "ground_mixture", "sample_empirical",
    "build_dyadic_partition", "transport_upper_bound", "rate_bound",
    "consistency_experiment", "RateReport",
    "sdp",
]
