"""Hypernetworks as inclusion posets and simplicial complexes, with
exact combinatorial Ricci curvature and Gauss-Bonnet accounting."""

from .complexes import SimplicialComplex, order_complex
from .curvature import (
    TRIANGLE_TERM,
    CurvatureBalance,
    CurvatureReport,
    DirectedComplex,
    DirectionError,
    FiltrationStep,
    curvature_filtration,
    filtration_balance,
    forman_ricci,
    forman_ricci_closed,
    gauss_bonnet,
    poset_curvature_filtration,
    poset_gauss_bonnet,
    two_skeleton,
    vertex_curvature,
)
from .hypernet import (
    Hyperedge,
    Hypernetwork,
    HypernetworkError,
    Hypervertex,
    ParseError,
    geometric_euler_characteristic,
    parse,
    serialize,
)
from .poset import (
    DEFAULT_CHAIN_CAP,
    ChainCapExceeded,
    NotRanked,
    NotRankedError,
    Poset,
    RankFunction,
    face_poset,
    poset_from_hypernetwork,
)
from .randgen import random_hypernetwork

__version__ = "0.1.0"

__all__ = [
    "ChainCapExceeded",
    "CurvatureBalance",
    "CurvatureReport",
    "DEFAULT_CHAIN_CAP",
    "DirectedComplex",
    "DirectionError",
    "FiltrationStep",
    "Hyperedge",
    "Hypernetwork",
    "HypernetworkError",
    "Hypervertex",
    "NotRanked",
    "NotRankedError",
    "ParseError",
    "Poset",
    "RankFunction",
    "SimplicialComplex",
    "TRIANGLE_TERM",
    "curvature_filtration",
    "face_poset",
    "filtration_balance",
    "forman_ricci",
    "forman_ricci_closed",
    "gauss_bonnet",
    "geometric_euler_characteristic",
    "order_complex",
    "parse",
    "poset_curvature_filtration",
    "poset_from_hypernetwork",
    "poset_gauss_bonnet",
    "random_hypernetwork",
    "serialize",
    "two_skeleton",
    "vertex_curvature",
]
