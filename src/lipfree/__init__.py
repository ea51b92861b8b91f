"""Certified extension operators and free-space norms on finite metric spaces."""

from .spaces import (DEFAULT_TOL, BoundedMetric, DensityReport, FiniteMetricSpace,
                     MetricError, ValidationReport, diameter, dist_to_set_all,
                     floyd_warshall, is_eps_dense, make_grid_space,
                     perturb_metric, quotient_pseudometric, random_metric_space,
                     restrict_space, set_distance, sup_distance, truncate, validate_metric,
                     validate_pseudometric)
from .config import space_from_json
from .lp import LinearProgram, LpError, LpSolution, ProgramStack, solve, solve_stack
from .freenorm import (AdmissionError, MetricExtension, MetricExtensionError,
                       WeightOperator, free_norms, lipschitz_constant,
                       metric_extension_lp, molecule_norm_matrix, operator_norm)
from .covers import (CoverError, CoverFamily, NetAndCover, brick_cover,
                     build_net_cover, order, verify_net_cover)
from .certs import (Certificate, all_passed, certificate_from_json,
                    certificate_to_json, make_certificate, verify_certificate)
from .extension import (BundleError, ExtensionBundle, PerturbedBundle,
                        admission_radius, build_extension_bundle,
                        build_perturbed_operator, partition_of_unity,
                        perturbed_norm_bound, verify_complement_margin)
from .gluing import (GluingBundle, GluingCertificate, GluingConfig,
                     GluingError, build_exhaustion, build_gluing_bundle,
                     build_h_operator, cutoff, certify_gluing, glue_domain,
                     glued_norm_bound, probe_radius, sandwich_sets)
from .bap import (BapReport, BapStage, DefectReport, almost_extension_defect,
                  bap_certificate)

__all__ = [name for name in dir() if not name.startswith("_")]
