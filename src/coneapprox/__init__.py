"""Guaranteed adaptive approximation on weighted-series cones.

The package approximates multivariate functions given coefficient access in
a weighted series basis.  Weights rank wavenumbers; lazy enumeration walks
them in order; the approximation routines sample coefficients adaptively and
stop with a certified error bound that holds on a stated input set (a norm
ball, a pilot-anchored cone, or a decay-tracking cone).  Companion tools
bound the sampling cost a priori, test strong tractability of coordinate
weight families, infer weights from probe samples when none are known, and
reproduce randomized Chebyshev benchmarks.

Every name a module lists in its ``__all__`` is re-exported here.
"""

from . import approximation, enumeration, experiments, inference, spaces, weights
from .weights import *
from .enumeration import *
from .spaces import *
from .approximation import *
from .inference import *
from .experiments import *

__version__ = "0.1.0"

__all__ = [
    *weights.__all__,
    *enumeration.__all__,
    *spaces.__all__,
    *approximation.__all__,
    *inference.__all__,
    *experiments.__all__,
]
