"""Spectral feasibility toolkit for a smooth-step position-dependent-mass
Dirac model.

The package answers one question from two independent directions: does the
hyperbolic-step mass profile ``M(x) = M0 (1 + eta tanh(alpha x))`` admit real
discrete energies?  The closed-form route classifies the candidate levels of
the squared problem; the numeric route discretizes the effective potential
and looks for localized states below the continuum edge.  ``pdm-dirac
verdict`` runs both and reports whether they agree.

Each public name is declared once, in its module's ``__all__``; the package
re-exports those names and its ``__all__`` is their union.
"""

from . import errors, feasibility, params, solver, spectrum
from .errors import *
from .feasibility import *
from .params import *
from .solver import *
from .spectrum import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *errors.__all__,
    *params.__all__,
    *spectrum.__all__,
    *feasibility.__all__,
    *solver.__all__,
]
