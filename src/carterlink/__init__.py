"""carterlink: exact linkage systems for simply-laced Carter diagrams.

The package computes, entirely in exact arithmetic (plain integers, with
``Fraction`` results), the partial Cartan matrix of a Carter diagram, the
set of its linkage label vectors via the inverse quadratic form criterion,
the orbit structure of that set under the dual reflections (components and
loctets), and verifies everything against brute-force root-system oracles.
"""

from .cartan import PartialCartan, build_partial_cartan, inverse_diagonal, simply_extendable
from .diagram import CarterDiagram, VertexId, carter_D_ak, catalog, dynkin_A, dynkin_D, \
    extend, find_isomorphism, isomorphic
from .linkage import ExtensionSet, beta_unicolored, enumerate_linkages, group_by_p
from .orbit import LinkageSystem, Loctet, build_system, dual_reflect, gamma8_candidates, \
    loctet_from_gamma8, project_system
from .roots import Embedding, RootSystem, build_root_system, direct_linkage_labels, \
    embedding_independence, find_embedding, find_embeddings, weight_orbit

__version__ = "0.1.0"

__all__ = [
    "CarterDiagram", "VertexId", "catalog", "carter_D_ak", "dynkin_A", "dynkin_D",
    "extend", "find_isomorphism", "isomorphic",
    "PartialCartan", "build_partial_cartan", "inverse_diagonal", "simply_extendable",
    "ExtensionSet", "enumerate_linkages", "group_by_p", "beta_unicolored",
    "LinkageSystem", "Loctet", "build_system", "dual_reflect", "gamma8_candidates",
    "loctet_from_gamma8", "project_system",
    "RootSystem", "Embedding", "build_root_system", "find_embedding", "find_embeddings",
    "direct_linkage_labels", "embedding_independence", "weight_orbit",
]
