"""Spanning-tree counts of power graphs of finite groups.

The power graph of a finite group joins two distinct elements whenever one
is a power of the other.  This package builds these graphs for a family of
standard groups, counts their spanning trees exactly on the Laplacian of
the closed-twin classes (cross-checked against the dense matrix-tree
reference on small graphs), verifies a suite of arithmetic claims about
the counts, and recognizes the alternating group A6 from its count alone.
"""
from .arith import DEFAULT_FACTOR_BOUND, ExactnessError, FactoredInt
from .checks import (CLAIM_IDS, GroupBundle, VerificationResult,
                     load_manifest, run_verifications,
                     verify_clique_components, verify_component_count,
                     verify_element_degree_divisor, verify_factorial_cap,
                     verify_full_degree_divisor, verify_maximal_order_divisor,
                     verify_maximal_prime_divisor, verify_product_bound,
                     verify_simple_order_count)
from .graphs import (Component, ComponentDecomposition, Graph, PowerGraph,
                     build_power_graph, component_decomposition,
                     full_degree_vertices, to_dot, to_json, to_json_dict)
from .groups import (DEFAULT_ORDER_CAP, ElementProfile, FiniteGroup,
                     GroupSpecError, OrderCapError, Spectrum,
                     alternating_group, build_group, cyclic_group,
                     dihedral_group, direct_product,
                     elementary_abelian_group, psl2_group, quaternion_group,
                     spec_order, symmetric_group)
from .determinant import det_bareiss, ones_plus_laplacian
from .recognition import (SUCCESS_VERDICT, RecognitionResult, RecognitionStep,
                          SimpleGroupFact, recognize)
from .treecount import (KappaReport, VertexLimitError, closed_form_psl2,
                        closed_form_quaternion, compute_kappa,
                        kappa_decomposed, kappa_matrix_tree)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_FACTOR_BOUND",
    "DEFAULT_ORDER_CAP",
    "CLAIM_IDS",
    "SUCCESS_VERDICT",
    "Component",
    "ComponentDecomposition",
    "ElementProfile",
    "ExactnessError",
    "FactoredInt",
    "FiniteGroup",
    "Graph",
    "GroupBundle",
    "GroupSpecError",
    "KappaReport",
    "OrderCapError",
    "PowerGraph",
    "RecognitionResult",
    "RecognitionStep",
    "SimpleGroupFact",
    "Spectrum",
    "VerificationResult",
    "VertexLimitError",
    "alternating_group",
    "build_group",
    "build_power_graph",
    "closed_form_psl2",
    "closed_form_quaternion",
    "component_decomposition",
    "compute_kappa",
    "cyclic_group",
    "det_bareiss",
    "dihedral_group",
    "direct_product",
    "elementary_abelian_group",
    "full_degree_vertices",
    "kappa_decomposed",
    "kappa_matrix_tree",
    "load_manifest",
    "ones_plus_laplacian",
    "psl2_group",
    "quaternion_group",
    "recognize",
    "run_verifications",
    "spec_order",
    "symmetric_group",
    "to_dot",
    "to_json",
    "to_json_dict",
    "verify_clique_components",
    "verify_component_count",
    "verify_element_degree_divisor",
    "verify_factorial_cap",
    "verify_full_degree_divisor",
    "verify_maximal_order_divisor",
    "verify_maximal_prime_divisor",
    "verify_product_bound",
    "verify_simple_order_count",
]
