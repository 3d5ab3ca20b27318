"""Exact workbench for bracket-product operads and their cousins.

Layers: poisson (multilinear bracket-product elements and their text
form), bv (the circle operator extension), gravity (kernel classes and
their relations), cacti (arc-length cactus configurations with the
rotation circle), groups (finite group tuple operads), stringbr
(data-driven finite BV presentations).  Everything computes over exact
rationals; `reports` and `cli` assemble the seeded verification batteries.
The package exports the model classes and ``Q``; each function is reached
through its layer, and every layer is imported here, eagerly, so every
module imports the layers it uses once, at its top, and no function does.
"""

__version__ = "0.1.0"

from . import bv, cacti, exact, gravity, groups, poisson, stringbr
from .bv import BVElement
from .cacti import PLDiagonal, SpinelessCactus
from .exact import GradedDims, Q
from .groups import FiniteGroupTable
from .poisson import PoissonElement
from .stringbr import EquivariantPair

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
]
