"""Exact best-coapproximation geometry in polyhedral normed spaces.

Everything is decided over the rationals: norms, support sets, Birkhoff-James
orthogonality, best coapproximations out of subspaces, and the classification
of subspaces as anti-coproximinal or strongly anti-coproximinal, with
specialized fast paths for the max-norm and sum-norm spaces; ``classify``
picks between those and the generic engine.
"""

from .classification import *
from .coapproximation import *
from .errors import *
from .l1 import *
from .linalg import *
from .linf import *
from .polytope import *
from .spaces import *
from .subspaces import *

__version__ = "0.1.0"

__all__ = [
    *classification.__all__,
    *coapproximation.__all__,
    *errors.__all__,
    *l1.__all__,
    *linalg.__all__,
    *linf.__all__,
    *polytope.__all__,
    *spaces.__all__,
    *subspaces.__all__,
]
