"""Exact computational algebra for graphic matroids: coherent cotrees,
activity bases, face-stratified cochain complexes, and their graded
invariants, all over the integers."""

from .activity import (
    CoherentCotree,
    Shelling,
    coherent_cotree,
    external_activity,
    h_polynomial,
    internal_activity,
    tutte,
    tutte_by_activity,
)
from .checks import CHECKS, GraphContext, run_checks
from .cks import (
    CKSComplex,
    DelConCKS,
    build_cks,
    cks_cohomology,
    euler_mismatch,
    euler_recurrences,
    euler_table,
    h_hat,
    tutte_loop_specialization,
)
from .corpus import corpus_graphs, enumerate_connected_multigraphs, named_graphs
from .errors import CksKitError
from .graphs import (
    CycleBasis,
    FaceComplex,
    Graph,
    build_graph,
    face_complex,
    fundamental_cycle,
    graph_from_dsl,
    graph_from_json,
    spanning_cotrees,
    spanning_tree_count,
    wedge,
)
from .ht import (
    DelConR,
    FGH,
    HTComplex,
    RRing,
    build_ht,
    reduce_monomial,
)
from .intlinalg import (
    CochainComplex,
    SmithForm,
    smith_normal_form,
)
from .periodize import (
    PeriodizedGraph,
    delcon_r_periodized,
    periodized_cotree,
)
from .polynomials import Poly1, Poly2

__version__ = "0.1.0"

__all__ = [
    "CHECKS",
    "CKSComplex",
    "CksKitError",
    "CochainComplex",
    "CoherentCotree",
    "CycleBasis",
    "DelConCKS",
    "DelConR",
    "FGH",
    "FaceComplex",
    "Graph",
    "GraphContext",
    "HTComplex",
    "PeriodizedGraph",
    "Poly1",
    "Poly2",
    "RRing",
    "Shelling",
    "SmithForm",
    "build_cks",
    "build_graph",
    "build_ht",
    "cks_cohomology",
    "coherent_cotree",
    "corpus_graphs",
    "delcon_r_periodized",
    "enumerate_connected_multigraphs",
    "euler_mismatch",
    "euler_recurrences",
    "euler_table",
    "external_activity",
    "face_complex",
    "fundamental_cycle",
    "graph_from_dsl",
    "graph_from_json",
    "h_hat",
    "h_polynomial",
    "internal_activity",
    "named_graphs",
    "periodized_cotree",
    "reduce_monomial",
    "run_checks",
    "smith_normal_form",
    "spanning_cotrees",
    "spanning_tree_count",
    "tutte",
    "tutte_by_activity",
    "tutte_loop_specialization",
    "wedge",
]
