"""kreinspec: spectral-type classification in Krein spaces.

Finite unions of real intervals with exact endpoint algebra, Gram/Schur
classification of spectral points of J-self-adjoint matrices, definite-type
prediction for tensor (Kronecker) sums, closed-form and finite-difference
models of a PT-symmetric Robin waveguide, and pseudospectral realness
diagnostics, with a command line front end.

Each module's ``__all__`` is its public API; the package re-exports them all.
"""

__version__ = "0.1.0"

from . import errors, krein, realsets, tensorsum, transversal, waveguide2d
from .errors import *
from .krein import *
from .realsets import *
from .tensorsum import *
from .transversal import *
from .waveguide2d import *

__all__ = ["__version__"] + [
    name for module in (errors, realsets, krein, tensorsum, transversal, waveguide2d)
    for name in module.__all__]
