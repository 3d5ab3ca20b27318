"""Exact workbench for bracket-product operads and their cousins.

Layers: poisson (multilinear bracket-product elements and their text
form), bv (the circle operator extension), gravity (kernel classes and
their relations), cacti (arc-length cactus configurations with the
rotation circle), groups (finite group tuple operads), stringbr
(data-driven finite BV presentations).  Everything computes over exact rationals; `reports` and
`cli` assemble the seeded verification batteries.
"""

__version__ = "0.1.0"

from .bv import BVElement, bv_compose, bv_from_poisson, bv_sigma_act, delta_apply
from .cacti import PLDiagonal, SpinelessCactus, homotopy_diagonal, random_cactus
from .exact import GradedDims, Q
from .gravity import gravity_basis, moduli_dimension_oracle
from .groups import FiniteGroupTable, bundled_groups, tom_dieck_summands
from .poisson import (
    PoissonElement,
    compose_i,
    element_to_text,
    enumerate_basis,
    gen,
    poincare_polynomial,
    sigma_act,
    unit,
)
from .stringbr import EquivariantPair, m_bar, validate_bv

__all__ = [
    "BVElement",
    "EquivariantPair",
    "FiniteGroupTable",
    "GradedDims",
    "PLDiagonal",
    "PoissonElement",
    "Q",
    "SpinelessCactus",
    "__version__",
    "bundled_groups",
    "bv_compose",
    "bv_from_poisson",
    "bv_sigma_act",
    "compose_i",
    "delta_apply",
    "element_to_text",
    "enumerate_basis",
    "gen",
    "gravity_basis",
    "homotopy_diagonal",
    "m_bar",
    "moduli_dimension_oracle",
    "poincare_polynomial",
    "random_cactus",
    "sigma_act",
    "tom_dieck_summands",
    "unit",
    "validate_bv",
]
