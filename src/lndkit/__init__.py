"""Exact decision procedures for homogeneous locally nilpotent derivations
on affine toric varieties and on trinomial hypersurfaces.

All arithmetic is exact (Python ints and Fractions). The subpackages build
on each other bottom-up: lattice -> cone -> algebra -> toric / trinomial,
with a CLI on top.
"""

from .algebra import Polynomial, TrinomialRing, exponential
from .cone import Cone, dual_cone, hilbert_basis, make_cone
from .errors import InputError, LndkitError, RefusalError, SearchBoundExceeded
from .toric import (
    DemazureRoot,
    enumerate_roots,
    is_demazure_root,
    is_maximal,
    lnds_commute,
    require_root,
    toric_isotropy_report,
)
from .trinomial import classify, is_rigid, trinomial_isotropy_report

__version__ = "0.1.0"

__all__ = [
    "Cone",
    "DemazureRoot",
    "InputError",
    "LndkitError",
    "Polynomial",
    "RefusalError",
    "SearchBoundExceeded",
    "TrinomialRing",
    "classify",
    "dual_cone",
    "enumerate_roots",
    "exponential",
    "hilbert_basis",
    "is_demazure_root",
    "is_maximal",
    "is_rigid",
    "lnds_commute",
    "make_cone",
    "require_root",
    "toric_isotropy_report",
    "trinomial_isotropy_report",
]
