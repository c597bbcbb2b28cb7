"""Heights of graphs and degenerating Riemann surfaces.

Exact Kirchhoff/momentum polynomials of multigraphs, monodromy and
biextension bookkeeping for nodal degenerations, and a small analytic
lab (theta functions, Green's functions on the torus and the sphere)
that checks the tropical limits numerically.

The public names below are loaded on first access (PEP 562), so
``import tropical_heights`` imports no submodule, and the exact layers
never pull in numpy unless a numeric name is used.
"""

import importlib

_EXPORTS = {
    "polynomials": ("MultiPoly", "RingMatrix", "det_fraction_free", "fraction_det"),
    "graphs": ("Multigraph", "CycleVector", "CycleBasis", "cycle_basis",
               "boundary_matrix", "spanning_trees", "spanning_2forests", "first_betti",
               "designated_tree"),
    "spaces": ("MinkowskiSpace",),
    "symanzik": ("MomentumAssignment", "MomentumLift",
                 "first_symanzik_det", "first_symanzik_trees", "momentum_lift",
                 "second_symanzik_bordered", "second_symanzik_forests",
                 "symanzik_ratio_eval", "resistance_oracle"),
    "curves": ("Marking", "StableCurve", "GraphBundle", "DeformationDimensions",
               "is_stable", "arithmetic_genus", "restrict_momenta", "deformation_dimensions"),
    "monodromy": ("VanishingCycleData", "SectionCrossingData", "NilpotentBlock",
                  "BlockCheckReport", "picard_lefschetz", "tilde_matrices", "build_Ne",
                  "crossing_lift", "translation_block_check", "consistent_fixture"),
    "poincare": ("SiegelPoint", "BiextensionPoint", "GroupElement", "is_symplectic",
                 "act", "log_norm"),
    "asymptotics": ("EdgeParameters", "EdgeBlocks", "HolomorphicFixture", "RayReport",
                    "SegmentEdge", "AdmissibleSegment", "LimitReport", "graph_blocks",
                    "height_eval", "height_via_orbit", "tropical_height",
                    "bounded_remainder_scan", "limit_along_segment"),
    "lab": ("TorusPoint", "TorusGreen", "Insertion", "DegenerationFamily",
            "ExperimentReport", "log_abs_theta1_frac", "log_abs_theta1_prime_zero",
            "dedekind_eta_log_abs", "green_sphere", "cross_ratio_height",
            "height_pairing_surface", "regularized_self_height", "degeneration_experiment"),
    "jsonio": ("SchemaError", "load_json", "dump_json", "dumps_canonical",
               "load_graph_bundle", "graph_bundle_from_json", "graph_bundle_to_json"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
