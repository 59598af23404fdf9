"""Numerical laboratory for ground states of generalized spin-boson models.

Builds truncated Fock-space Hamiltonians H = A x 1 + 1 x dGamma(omega)
+ alpha * sum_j B_j x phi(lambda_j) over discretized radial mode grids,
solves for ground states, and verifies the operator identities that govern
their infrared behaviour: the pull-through formula, number and factorial
moment identities, and lower bounds that witness the absence of a ground
state when the coupling is infrared singular.
"""

import os

# One BLAS thread unless the caller set a count: the chain solves of a check
# run on threads of their own, and a multithreaded BLAS in each of them
# oversubscribes the cores.  BLAS reads these when numpy is first imported,
# so they reach a library caller only when gsblab is imported first.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from . import modes, fock, model, spectral, regularity
from .modes import *
from .fock import *
from .model import *
from .spectral import *
from .regularity import *

__version__ = "0.1.0"

# each public name is listed once, in the __all__ of the layer that defines it
__all__ = modes.__all__ + fock.__all__ + model.__all__ + spectral.__all__ + regularity.__all__
