"""Heights of graphs and degenerating Riemann surfaces.

Exact Kirchhoff/momentum polynomials of multigraphs, monodromy and
biextension bookkeeping for nodal degenerations, and a small analytic
lab (theta functions, Green's functions on the torus and the sphere)
that checks the tropical limits numerically.
"""

from .polynomials import MultiPoly, RingMatrix, Rational, poly_add, poly_mul, \
    poly_eval, det_fraction_free, fraction_det
from .graphs import Multigraph, CycleVector, CycleBasis, cycle_basis, \
    boundary_matrix, spanning_trees, spanning_2forests, first_betti, designated_tree
from .symanzik import MinkowskiSpace, MomentumAssignment, MomentumLift, \
    first_symanzik_det, first_symanzik_trees, momentum_lift, \
    second_symanzik_bordered, second_symanzik_forests, symanzik_ratio_eval, \
    resistance_oracle
from .curves import Marking, StableCurve, DeformationDimensions, is_stable, \
    arithmetic_genus, restrict_momenta, deformation_dimensions
from .monodromy import VanishingCycleData, SectionCrossingData, NilpotentBlock, \
    BlockCheckReport, picard_lefschetz, tilde_matrices, build_Ne, crossing_lift, \
    translation_block_check, consistent_fixture
from .poincare import SiegelPoint, BiextensionPoint, GroupElement, is_symplectic, \
    act, log_norm
from .asymptotics import EdgeParameters, EdgeBlocks, HolomorphicFixture, RayReport, \
    SegmentEdge, AdmissibleSegment, LimitReport, graph_blocks, height_eval, \
    height_via_orbit, tropical_height, bounded_remainder_scan, limit_along_segment
from .lab import TorusModulus, TorusPoint, TorusGreen, Insertion, DegenerationFamily, \
    ExperimentReport, theta1, theta1_prime_zero, log_abs_theta1_frac, \
    log_abs_theta1_prime_zero, dedekind_eta_log_abs, normalization_by_quadrature, \
    green_sphere, cross_ratio_height, height_pairing_surface, \
    regularized_self_height, metric_graph_green, build_cycle_graph, \
    degeneration_experiment
from .jsonio import SchemaError, GraphBundle, load_json, dump_json, dumps_canonical, \
    load_graph_bundle, graph_bundle_from_json, graph_bundle_to_json

__version__ = "0.1.0"
